//! Steady-state trials must not allocate.
//!
//! The million-scale driver budget assumes the hot loop — timer-wheel pop,
//! probe walk, Var evaluation, Markov bookkeeping, reschedule — runs out of
//! preallocated buffers: the wheel's slab, the driver's [`WalkScratch`],
//! and each node's fixed neighbor queue. This test pins that property with
//! a counting global allocator: after a warm-up long enough for every
//! buffer to reach its high-water capacity (and for the Markov backoff to
//! saturate, so the wheel rotates through its upper levels), a long
//! measurement window must perform **zero** heap allocations.
//!
//! Scope: the synchronous driver, PROP-G in Walk mode, on the dense oracle
//! tier (the cached tier's row warming allocates by design, as does the
//! async driver's in-flight `Commit { walk }` event). `min_var = i64::MAX`
//! keeps exchanges out of the window: an exchange legitimately allocates
//! when it rebuilds the two swapped nodes' neighbor queues.

use prop_core::config::PropConfig;
use prop_core::sim::ProtocolSim;
use prop_engine::{allocation_count, counting_active, CountingAllocator, Duration, SimRng};
use prop_netsim::{generate, LatencyOracle, TransitStubParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_trials_do_not_allocate() {
    assert!(counting_active(), "counting allocator not installed");

    let mut cfg = PropConfig::prop_g();
    cfg.min_var = i64::MAX; // no exchange ever fires: pure trial loop

    let mut rng = SimRng::seed_from(7);
    let phys = generate(&TransitStubParams::tiny(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 20, &mut rng));
    let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
    let mut sim = ProtocolSim::new(net, cfg, &mut rng);
    assert!(
        sim.net().oracle_cache_stats().is_none(),
        "test expects the dense tier (row warming on the cached tier allocates by design)"
    );

    // Warm-up: 6 simulated hours. Every node leaves its warm-up phase,
    // backs off to the 32-minute lattice cap (min_var = MAX means every
    // trial fails), and the wheel has cascaded events through its upper
    // levels, so the slab free list and both scratch buffers are at their
    // high-water marks.
    sim.run_for(Duration::from_minutes(360));
    let trials_before = sim.overhead().trials;
    let allocs_before = allocation_count();

    // Measurement window: 4 more hours of steady-state probing.
    sim.run_for(Duration::from_minutes(240));

    let trials = sim.overhead().trials - trials_before;
    let allocs = allocation_count() - allocs_before;
    assert!(trials >= 50, "window too quiet to be meaningful: {trials} trials");
    assert_eq!(allocs, 0, "steady state allocated {allocs} times over {trials} trials");
}
