//! Trials of the synchronous driver must not allocate — exchanging or not.
//!
//! The million-scale driver budget assumes the hot loop — timer-wheel pop,
//! probe walk, planning, Var evaluation, the exchange and its queue
//! bookkeeping, Markov bookkeeping, reschedule — runs out of preallocated
//! buffers: the wheel's slab, the driver's [`WalkScratch`] and
//! [`PlanScratch`], the adjacency rows and each node's neighbor queue. This
//! test pins that property with a counting global allocator: after a warm-up
//! long enough for every buffer to reach its high-water capacity, a
//! measurement window must perform **zero** heap allocations.
//!
//! Three kinds of window, all on the synchronous driver, Walk mode, dense
//! oracle tier:
//!
//! * **no exchange** (`min_var = i64::MAX`, PROP-G): the pure trial loop
//!   over ten simulated hours, long enough for the Markov backoff to
//!   saturate and the wheel to rotate through its upper levels;
//! * **converging** (`min_var = 0`, PROP-G and PROP-O): the twenty minutes
//!   after the protocol's own ten-minute warm-up phase, while the overlay
//!   is still finding exchanges (on a static overlay they dry up inside the
//!   hour);
//! * **every plan applied** (`min_var = i64::MIN`, PROP-G and PROP-O): an
//!   exchange in nearly every trial for four hours — the PROP-G queue
//!   rebuild in place, PROP-O's plan out of the scratch, its edge moves
//!   inside the rows' buffers, the queue patches of both peers and of every
//!   moved neighbor.
//!
//! What still allocates, by design, and is therefore not in a window: the
//! message-level driver's in-flight `Commit { walk }` event owns a clone of
//! its walk (one allocation per launch, a second for a duplicated
//! handshake); the cached oracle tiers allocate when a row is computed or
//! warmed; a churn event allocates in the overlay (`remove_slot` hands back
//! the orphans, a new slot gets a row) and for the joiner's fresh node
//! state, though no longer per notified neighbor.
//!
//! One `#[test]`: the counter is process-wide, so windows must not overlap.
//!
//! [`WalkScratch`]: prop_overlay::walk::WalkScratch
//! [`PlanScratch`]: prop_core::exchange::PlanScratch

use prop_core::config::PropConfig;
use prop_core::sim::ProtocolSim;
use prop_engine::{allocation_count, counting_active, CountingAllocator, Duration, SimRng};
use prop_netsim::{generate, LatencyOracle, TransitStubParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Window {
    name: &'static str,
    cfg: PropConfig,
    members: usize,
    warm_up_min: u64,
    measured_min: u64,
    /// Fewer trials or exchanges than this and the window proves nothing.
    min_trials: u64,
    min_exchanges: u64,
}

fn with_min_var(mut cfg: PropConfig, min_var: i64) -> PropConfig {
    cfg.min_var = min_var;
    cfg
}

#[test]
fn steady_state_trials_do_not_allocate() {
    assert!(counting_active(), "counting allocator not installed");

    let (g, o) = (PropConfig::prop_g, PropConfig::prop_o);
    let windows = [
        // Warm-up: 6 simulated hours. Every node leaves its warm-up phase,
        // backs off to the 32-minute lattice cap (every trial fails), and
        // the wheel has cascaded events through its upper levels, so the
        // slab free list and the scratch buffers are at their high-water
        // marks. Then 4 more hours of steady-state probing.
        Window {
            name: "PROP-G, no exchange",
            cfg: with_min_var(g(), i64::MAX),
            members: 20,
            warm_up_min: 360,
            measured_min: 240,
            min_trials: 50,
            min_exchanges: 0,
        },
        Window {
            name: "PROP-G, converging",
            cfg: with_min_var(g(), 0),
            members: 40,
            warm_up_min: 10,
            measured_min: 20,
            min_trials: 100,
            min_exchanges: 4,
        },
        Window {
            name: "PROP-O, converging",
            cfg: with_min_var(o(), 0),
            members: 40,
            warm_up_min: 10,
            measured_min: 20,
            min_trials: 100,
            min_exchanges: 4,
        },
        Window {
            name: "PROP-G, every plan applied",
            cfg: with_min_var(g(), i64::MIN),
            members: 40,
            warm_up_min: 10,
            measured_min: 240,
            min_trials: 5_000,
            min_exchanges: 5_000,
        },
        Window {
            name: "PROP-O, every plan applied",
            cfg: with_min_var(o(), i64::MIN),
            members: 40,
            warm_up_min: 10,
            measured_min: 240,
            min_trials: 5_000,
            min_exchanges: 5_000,
        },
    ];

    for w in windows {
        let mut rng = SimRng::seed_from(7);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, w.members, &mut rng));
        let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        let mut sim = ProtocolSim::new(net, w.cfg, &mut rng);
        assert!(
            sim.net().oracle_cache_stats().is_none(),
            "test expects the dense tier (row warming on the cached tier allocates by design)"
        );

        sim.run_for(Duration::from_minutes(w.warm_up_min));
        let before = sim.overhead();
        let allocs_before = allocation_count();

        sim.run_for(Duration::from_minutes(w.measured_min));

        let allocs = allocation_count() - allocs_before;
        let done = sim.overhead().since(&before);
        let (name, trials, exchanges) = (w.name, done.trials, done.exchanges);
        assert!(
            trials >= w.min_trials && exchanges >= w.min_exchanges,
            "{name}: window too quiet to be meaningful: {trials} trials, {exchanges} exchanges"
        );
        assert_eq!(
            allocs, 0,
            "{name}: allocated {allocs} times over {trials} trials, {exchanges} exchanges"
        );
    }
}
