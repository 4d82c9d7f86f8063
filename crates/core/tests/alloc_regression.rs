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
//! Three kinds of window on the synchronous driver, and one on the
//! message-level driver, all Walk mode, dense oracle tier:
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
//!   moved neighbor;
//! * **message level** (`min_var = i64::MIN`, PROP-O, a plane that
//!   duplicates every third walk): each in-flight `Commit` carries its walk
//!   in a buffer from the driver's spare list and hands it back at commit,
//!   the duplicate's too, so once the list has grown to the most commits in
//!   flight a launch allocates nothing.
//!
//! What still allocates, by design, and is therefore not in a window: the
//! search store's meeting scratch grows, once per thread,
//! to the largest stub domain searched; a churn event allocates in the
//! overlay (`remove_slot` hands back the orphans, a new slot gets a row)
//! and for the joiner's fresh node state, though no longer per notified
//! neighbor.
//!
//! A window counts the test thread's own allocator entries
//! ([`thread_allocation_count`]), not the process's: libtest's main thread
//! allocates when it first blocks waiting for the test's result, and on a
//! loaded machine that can fall inside a window (four entries, seen in the
//! longest window in most runs with both cores busy).
//!
//! [`WalkScratch`]: prop_overlay::walk::WalkScratch
//! [`PlanScratch`]: prop_core::exchange::PlanScratch

use prop_core::config::PropConfig;
use prop_core::fault::{Delivery, FaultCounters, FaultPlane, MsgKind};
use prop_core::sim::{AsyncProtocolSim, PropSim, ProtocolSim, Timing};
use prop_engine::{
    counting_active, thread_allocation_count, CountingAllocator, Duration, SimRng, SimTime,
};
use prop_netsim::{generate, LatencyOracle, Tier, TransitStubParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Delivers everything, and every third walk twice.
#[derive(Default)]
struct EveryThirdDuplicated {
    walks: u64,
}

impl FaultPlane for EveryThirdDuplicated {
    fn deliver(&mut self, _now: SimTime, kind: MsgKind, _from: usize, _to: usize) -> Delivery {
        if kind != MsgKind::Walk {
            return Delivery::CLEAN;
        }
        self.walks += 1;
        Delivery { duplicate: self.walks.is_multiple_of(3), ..Delivery::CLEAN }
    }

    fn counters(&mut self, _now: SimTime) -> FaultCounters {
        FaultCounters::default()
    }
}

struct Window {
    name: &'static str,
    /// The message-level driver with [`EveryThirdDuplicated`], or the
    /// synchronous one without a plane.
    message_level: bool,
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
            message_level: false,
            name: "PROP-G, no exchange",
            cfg: with_min_var(g(), i64::MAX),
            members: 20,
            warm_up_min: 360,
            measured_min: 240,
            min_trials: 50,
            min_exchanges: 0,
        },
        Window {
            message_level: false,
            name: "PROP-G, converging",
            cfg: with_min_var(g(), 0),
            members: 40,
            warm_up_min: 10,
            measured_min: 20,
            min_trials: 100,
            min_exchanges: 4,
        },
        Window {
            message_level: false,
            name: "PROP-O, converging",
            cfg: with_min_var(o(), 0),
            members: 40,
            warm_up_min: 10,
            measured_min: 20,
            min_trials: 100,
            min_exchanges: 4,
        },
        Window {
            message_level: false,
            name: "PROP-G, every plan applied",
            cfg: with_min_var(g(), i64::MIN),
            members: 40,
            warm_up_min: 10,
            measured_min: 240,
            min_trials: 5_000,
            min_exchanges: 5_000,
        },
        Window {
            message_level: false,
            name: "PROP-O, every plan applied",
            cfg: with_min_var(o(), i64::MIN),
            members: 40,
            warm_up_min: 10,
            measured_min: 240,
            min_trials: 5_000,
            min_exchanges: 5_000,
        },
        // Fifteen hours of warm-up: the spare walk list grows each time
        // more commits are in flight at once than ever before (at most two
        // a node, a trial and its duplicate), and at this seed the last new
        // high falls past the first four hours.
        Window {
            message_level: true,
            name: "PROP-O, message level, every plan applied",
            cfg: with_min_var(o(), i64::MIN),
            members: 40,
            warm_up_min: 900,
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
        if w.message_level {
            let mut sim = AsyncProtocolSim::new(net, w.cfg.clone(), &mut rng);
            sim.set_fault_plane(Box::new(EveryThirdDuplicated::default()));
            measure(&w, sim);
        } else {
            measure(&w, ProtocolSim::new(net, w.cfg.clone(), &mut rng));
        }
    }
}

/// Warm `sim` up, then hold the window to zero allocations.
fn measure<M: Timing>(w: &Window, mut sim: PropSim<M>) {
    assert_eq!(sim.net().oracle().built_tier(), Tier::Dense, "test expects the dense tier");

    sim.run_for(Duration::from_minutes(w.warm_up_min));
    let before = sim.overhead();
    let allocs_before = thread_allocation_count();

    sim.run_for(Duration::from_minutes(w.measured_min));

    let allocs = thread_allocation_count() - allocs_before;
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
