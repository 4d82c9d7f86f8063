//! The event-driven PROP simulation driver: one event loop, two timing modes.
//!
//! Runs one [`NodeState`] per live slot on the [`prop_engine::EventQueue`].
//! A §3.2 trial is `launch` → `commit`:
//!
//! 1. `Tick(u)` — `u` launches a probe: choose the counterpart (`nhops`
//!    random walk entered via the `neighborq` first hop, or a uniformly
//!    random node in the idealized `Random` probe mode) and push the walk,
//!    address-list exchange and hypothetical-neighbor probes through the
//!    fault plane;
//! 2. commit — evaluate `Var` for the policy's exchange shape and, if
//!    `Var > MIN_VAR`, perform the exchange and the bookkeeping
//!    (position/identifier swap + queue rebuilds for PROP-G; edge moves +
//!    queue patches for PROP-O; neighbor notifications counted);
//! 3. resolve — count the outcome, feed the origin's queue and Markov
//!    timer, reschedule per its phase/timer.
//!
//! The [`Timing`] mode says how long step 1 is in flight:
//!
//! * [`Atomic`] ([`ProtocolSim`]) — zero flight time, the standard
//!   simulation shorthand: `launch` runs the commit body in the same call.
//! * [`MessageLevel`] ([`AsyncProtocolSim`]) — a deployed PROP node pays
//!   real network time for every §3.2 step: the walk message travels hop
//!   by hop, the two peers exchange address lists over one RTT, and the
//!   hypothetical-neighbor probes are round trips too. `launch` sums that
//!   time and schedules `Commit { origin, walk }` that far in the future.
//!   While it is in flight *other* exchanges commit and the overlay moves
//!   underneath the trial, so the commit first **re-validates against the
//!   current overlay state**: if the walk's nodes departed, or a concurrent
//!   exchange consumed the opportunity, the trial aborts (counted in
//!   [`AsyncStats::stale_aborts`]). This mirrors the paper's note that
//!   peers "cache the address of their counterparts so that the lookups in
//!   progress during peer-exchange can be forwarded correctly" —
//!   commit-time revalidation is the simulation analogue of that handshake.
//!
//! Every Theorem-1/Theorem-2 invariant must survive arbitrary interleaving
//! — the test-suite runs both modes over the same scenarios and checks the
//! same properties.
//!
//! The driver also owns the §4.3 message accounting ([`Overhead`]), the
//! per-outcome trial accounting ([`AsyncStats`]) and the churn entry points
//! used by the dynamic-environment experiments.

use crate::config::{ProbeMode, PropConfig};
use crate::exchange::{self, PlanKind, PlanScratch};
use crate::fault::{Delivery, FaultCounters, FaultPlane, MsgKind};
use crate::protocol::NodeState;
use prop_engine::{Duration, EventQueue, SimRng, SimTime};
use prop_overlay::walk::{WalkPath, WalkScratch};
use prop_overlay::{OverlayNet, Slot};
use std::marker::PhantomData;

/// §4.3 cost accounting, cumulative since simulation start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overhead {
    /// Probe trials performed.
    pub trials: u64,
    /// Trials that ended in an exchange.
    pub exchanges: u64,
    /// Walk-forwarding messages (`nhop` per trial).
    pub walk_msgs: u64,
    /// Hypothetical-neighbor probing messages (`2c` for PROP-G, `2m` for
    /// PROP-O, per trial that produced a plan).
    pub probe_msgs: u64,
    /// Post-exchange routing-table notifications.
    pub notify_msgs: u64,
}

impl Overhead {
    /// Messages of all kinds.
    pub fn total_msgs(&self) -> u64 {
        self.walk_msgs + self.probe_msgs + self.notify_msgs
    }

    /// Counter-wise difference (`self` − `earlier`), for windowed rates.
    /// Saturating: counters can reset below an old snapshot after a
    /// crash/restart cycle, and a window report must not panic for it.
    pub fn since(&self, earlier: &Overhead) -> Overhead {
        Overhead {
            trials: self.trials.saturating_sub(earlier.trials),
            exchanges: self.exchanges.saturating_sub(earlier.exchanges),
            walk_msgs: self.walk_msgs.saturating_sub(earlier.walk_msgs),
            probe_msgs: self.probe_msgs.saturating_sub(earlier.probe_msgs),
            notify_msgs: self.notify_msgs.saturating_sub(earlier.notify_msgs),
        }
    }
}

/// Per-outcome trial accounting: every launched trial resolves into
/// exactly one of the four buckets (up to those still in flight).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsyncStats {
    /// Probe trials launched.
    pub launched: u64,
    /// Trials whose commit re-validation succeeded with `Var > MIN_VAR`.
    pub exchanges: u64,
    /// Trials that found no beneficial exchange at commit time.
    pub no_gain: u64,
    /// Trials aborted at commit because the overlay changed underneath
    /// them (counterpart gone, walk edge gone, plan no longer valid).
    /// Always zero in [`Atomic`] mode, where nothing can move in between.
    pub stale_aborts: u64,
    /// Trials that the fault plane killed: a walk/exchange/probe/commit
    /// message dropped, or the counterpart crashed mid-flight. Each feeds
    /// the origin's Markov backoff as a failed trial.
    pub faulted: u64,
    /// Total simulated milliseconds of probe traffic (walk + RTTs). Always
    /// zero in [`Atomic`] mode.
    pub probe_time_ms: u64,
}

impl AsyncStats {
    /// Counter-wise difference (`self` − `earlier`) for windowed rates,
    /// saturating at zero so reporting survives counter resets after a
    /// crash/restart cycle.
    pub fn since(&self, earlier: &AsyncStats) -> AsyncStats {
        AsyncStats {
            launched: self.launched.saturating_sub(earlier.launched),
            exchanges: self.exchanges.saturating_sub(earlier.exchanges),
            no_gain: self.no_gain.saturating_sub(earlier.no_gain),
            stale_aborts: self.stale_aborts.saturating_sub(earlier.stale_aborts),
            faulted: self.faulted.saturating_sub(earlier.faulted),
            probe_time_ms: self.probe_time_ms.saturating_sub(earlier.probe_time_ms),
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Atomic {}
    impl Sealed for super::MessageLevel {}
}

/// How long a trial's messages are in flight — the one thing the two
/// drivers differ in. A zero-sized type parameter rather than a runtime
/// setting: each mode compiles to straight-line code, and there are exactly
/// the two below (the trait is sealed).
pub trait Timing: sealed::Sealed {
    /// Whether a trial commits in the instant it launches.
    const ATOMIC: bool;
    /// Label of the driver's RNG fork — each mode keeps the stream it drew
    /// from when it was a driver of its own, so seeded runs are unchanged.
    const RNG_LABEL: &'static str;
}

/// Zero flight time: the whole §3.2 message sequence happens "at once".
pub struct Atomic;

/// Every §3.2 step pays network time; the commit lands one probe-duration
/// after the launch and re-validates against the overlay it finds.
pub struct MessageLevel;

impl Timing for Atomic {
    const ATOMIC: bool = true;
    const RNG_LABEL: &'static str = "prop-sim";
}

impl Timing for MessageLevel {
    const ATOMIC: bool = false;
    const RNG_LABEL: &'static str = "prop-async-sim";
}

/// The synchronous driver: trials are atomic.
pub type ProtocolSim = PropSim<Atomic>;

/// The message-level (asynchronous) driver: probes take network time.
pub type AsyncProtocolSim = PropSim<MessageLevel>;

enum Ev {
    /// A node's probe timer fired: launch one trial.
    Tick(Slot),
    /// A trial's commit handshake lands ([`MessageLevel`] only — an atomic
    /// trial never leaves `launch`). `dup` marks the second copy of a
    /// duplicated handshake: it replays commit revalidation (the
    /// interesting hazard) but neither counts as a trial resolution nor
    /// forks the origin's tick chain.
    Commit { origin: Slot, walk: WalkPath, dup: bool },
}

/// How one trial ended; each variant is one [`AsyncStats`] bucket.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Exchanged,
    NoGain,
    Stale,
    Faulted,
}

/// A whole overlay of PROP nodes, runnable to any simulated time.
pub struct PropSim<M: Timing> {
    net: OverlayNet,
    cfg: PropConfig,
    nodes: Vec<Option<NodeState>>,
    events: EventQueue<Ev>,
    rng: SimRng,
    /// Resolved δ(G) of the current overlay — the default PROP-O `m`.
    m_default: usize,
    overhead: Overhead,
    stats: AsyncStats,
    plane: Option<Box<dyn FaultPlane>>,
    /// Reusable walk/candidate buffers: an atomic trial, exchanging or not,
    /// must not allocate (pinned by the `alloc_regression` test). In
    /// message-level mode one clone per launch is unavoidable — the
    /// `Commit` event owns its walk while it is in flight — but the per-hop
    /// candidate lists still reuse this scratch.
    walk_scratch: WalkScratch,
    /// Reusable candidate lists and plan for `exchange::plan_exchange_into`:
    /// the other half of an allocation-free trial.
    plan_scratch: PlanScratch,
    /// Reusable slot list: a joiner's neighbors in `handle_join`.
    slot_scratch: Vec<Slot>,
    /// Reusable tick marks for `NeighborQueue::resync`.
    resync_scratch: Vec<bool>,
    mode: PhantomData<M>,
}

impl<M: Timing> PropSim<M> {
    /// Start the protocol on `net`: every live slot gets a fresh node state
    /// and a first probe at a random offset within `INIT_TIMER`
    /// (desynchronizing the population, as independent joins would).
    pub fn new(net: OverlayNet, cfg: PropConfig, rng: &mut SimRng) -> Self {
        let n = net.graph().num_slots();
        let mut sim = PropSim {
            net,
            cfg,
            nodes: (0..n).map(|_| None).collect(),
            events: EventQueue::new(),
            rng: rng.fork(M::RNG_LABEL),
            m_default: 1,
            overhead: Overhead::default(),
            stats: AsyncStats::default(),
            plane: None,
            walk_scratch: WalkScratch::new(),
            plan_scratch: PlanScratch::default(),
            slot_scratch: Vec::new(),
            resync_scratch: Vec::new(),
            mode: PhantomData,
        };
        sim.refresh_m_default();
        for i in 0..n {
            let slot = Slot(i as u32);
            if sim.net.graph().is_alive(slot) {
                sim.start_node(slot);
            }
        }
        sim
    }

    /// Fresh protocol state for the peer at `slot`, and its first tick.
    fn start_node(&mut self, slot: Slot) {
        // A join may have extended the overlay's slot table.
        if self.nodes.len() < self.net.graph().num_slots() {
            self.nodes.resize_with(self.net.graph().num_slots(), || None);
        }
        let state = NodeState::new(&self.cfg, self.net.graph(), slot, &mut self.rng);
        self.nodes[slot.index()] = Some(state);
        let offset =
            Duration::from_millis(self.rng.range(0..self.cfg.init_timer.as_millis().max(1)));
        self.events.schedule_in(offset, Ev::Tick(slot));
    }

    /// Route all subsequent message traffic through `plane`. Without a
    /// plane the driver behaves exactly as before (perfect network). An
    /// atomic trial has no in-flight time, so there only drop verdicts and
    /// crash visibility matter; duplication and extra delay are no-ops.
    pub fn set_fault_plane(&mut self, plane: Box<dyn FaultPlane>) {
        self.plane = Some(plane);
    }

    /// Fault counters as of the current simulated time (`None` when no
    /// plane is attached).
    pub fn fault_counters(&mut self) -> Option<FaultCounters> {
        let now = self.events.now();
        self.plane.as_mut().map(|p| p.counters(now))
    }

    /// The overlay under optimization.
    pub fn net(&self) -> &OverlayNet {
        &self.net
    }

    /// Mutable overlay access (churn glue lives in the experiment layer).
    pub fn net_mut(&mut self) -> &mut OverlayNet {
        &mut self.net
    }

    /// Consume the simulation, keeping the optimized overlay.
    pub fn into_net(self) -> OverlayNet {
        self.net
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Cumulative message/trial accounting.
    pub fn overhead(&self) -> Overhead {
        self.overhead
    }

    /// Cumulative per-outcome trial accounting.
    pub fn stats(&self) -> AsyncStats {
        self.stats
    }

    /// The resolved default PROP-O exchange size — δ(G) of the *current*
    /// overlay, kept fresh across churn by the `handle_*` entry points.
    pub fn m_default(&self) -> usize {
        self.m_default
    }

    /// Churn changes degrees, and the default PROP-O `m` is defined as
    /// δ(G): a stale value from start-up would make every subsequent
    /// subset exchange the wrong size.
    fn refresh_m_default(&mut self) {
        self.m_default = self.net.graph().min_degree().unwrap_or(1).max(1);
    }

    /// Run all events up to and including `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((_, ev)) = self.events.pop_until(deadline) {
            match ev {
                Ev::Tick(slot) => self.launch(slot),
                Ev::Commit { origin, walk, dup } => {
                    let first_hop = walk.path.get(1).copied();
                    self.commit(origin, &walk, first_hop, dup);
                }
            }
        }
    }

    /// Convenience: advance the clock by `window`.
    pub fn run_for(&mut self, window: Duration) {
        let deadline = self.now() + window;
        self.run_until(deadline);
    }

    /// The walk's far end, if there is one to exchange with: a walk that
    /// could not reach its full TTL yields no counterpart.
    fn counterpart(&self, walk: &WalkPath) -> Option<Slot> {
        match self.cfg.probe {
            ProbeMode::Walk { nhops } => walk.counterpart(nhops),
            ProbeMode::Random => walk.path.last().copied(),
        }
    }

    /// Phase 1: resolve the walk and send the trial's messages. An atomic
    /// trial then commits in the same call; a message-level one schedules
    /// its commit one probe-duration in the future.
    fn launch(&mut self, slot: Slot) {
        if self.nodes[slot.index()].is_none() || !self.net.graph().is_alive(slot) {
            return; // departed while the event was pending
        }
        // A crashed host probes nothing; keep its tick chain alive so
        // probing resumes after restart.
        let now = self.events.now();
        let origin_peer = self.net.peer(slot);
        if let Some(plane) = self.plane.as_mut() {
            if !plane.is_up(now, origin_peer) {
                self.reschedule(slot);
                return;
            }
        }

        let first_hop = match self.cfg.probe {
            ProbeMode::Walk { nhops } => {
                // The queue can briefly hold a stale entry between churn and
                // resync; fall back to any current neighbor.
                let first = self.nodes[slot.index()]
                    .as_ref()
                    .and_then(NodeState::next_first_hop)
                    .filter(|&f| self.net.graph().has_edge(slot, f))
                    .or_else(|| self.net.graph().neighbors(slot).first().copied());
                let Some(first) = first else {
                    // Isolated node: try again later.
                    self.reschedule(slot);
                    return;
                };
                self.overhead.walk_msgs += nhops as u64;
                self.net.probe_walk_into(slot, first, nhops, &mut self.rng, &mut self.walk_scratch);
                Some(first)
            }
            ProbeMode::Random => {
                // One rank draw over the live population minus self replaces
                // the old O(n) `live_slots().collect()` per trial. The draw
                // consumes the RNG exactly as `pick` over that vec did
                // (same length, same `gen_range` call), and mapping the
                // drawn rank around this node's own live rank selects the
                // identical slot — seeded runs are unchanged.
                let g = self.net.graph();
                let Some(k) = self.rng.pick_rank(g.num_live().saturating_sub(1)) else {
                    self.reschedule(slot);
                    return;
                };
                let rank = if k < g.live_rank(slot) { k } else { k + 1 };
                let v = g.live_slot_at_rank(rank).expect("rank within live population");
                self.walk_scratch.set_pair(slot, v);
                // Whether a random counterpart counts as a "first hop" for
                // the neighbor queue differs by mode. Nothing reads the queue
                // in this probe mode, so the difference is unobservable; each
                // mode's seeded state stays as it always was.
                (!M::ATOMIC).then_some(v)
            }
        };
        self.overhead.trials += 1;
        self.stats.launched += 1;

        let walk = self.walk_scratch.walk();
        // A walk starts at its origin and is never empty: `v` is the node
        // the walk message reached, counterpart or not.
        let v = *walk.path.last().unwrap_or(&slot);
        let full_len = self.counterpart(walk).is_some();
        // Network time is read off the overlay as it stands at launch.
        let flight_ms = if M::ATOMIC { 0 } else { self.probe_duration(walk).as_millis() };
        let mut verdict = Delivery::CLEAN;
        let mut link_extra = 0;
        if let Some(plane) = self.plane.as_mut().filter(|_| v != slot) {
            // The message sequence of one §3.2 trial: the walk reaches the
            // counterpart, the address lists come back, the
            // hypothetical-neighbor probes go out. The plane rules only on
            // the messages the trial actually emits: a truncated (stuck)
            // walk sends no address exchange, probes, or commit, so only
            // the Walk ruling applies to it. Losing any emitted message
            // (random loss, partition cut, crashed counterpart) kills the
            // trial — a failed trial for the Markov backoff, exactly as if
            // Var had come back negative.
            let (up, vp) = (origin_peer, self.net.peer(v));
            verdict = plane.deliver(now, MsgKind::Walk, up, vp);
            if full_len {
                verdict = verdict
                    .merge(plane.deliver(now, MsgKind::Exchange, vp, up))
                    .merge(plane.deliver(now, MsgKind::Probe, up, vp));
            }
            if M::ATOMIC {
                // The commit handshake happens at this same instant, so it
                // is ruled on here, in one merged verdict with the rest.
                if full_len {
                    verdict = verdict.merge(plane.deliver(now, MsgKind::Commit, up, vp));
                }
            } else {
                link_extra = plane.link_extra_ms(now, up, vp);
            }
        }
        if !verdict.delivered {
            self.resolve(slot, first_hop, Outcome::Faulted);
            return;
        }
        if M::ATOMIC {
            // The scratch steps out so the walk can be read beside
            // `&mut self`: no clone, no allocation.
            let scratch = std::mem::take(&mut self.walk_scratch);
            self.commit(slot, scratch.walk(), first_hop, false);
            self.walk_scratch = scratch;
            return;
        }
        // Drift/spikes and reordering stretch the in-flight time (one RTT's
        // worth of link degradation), never d() itself — Var and the
        // theorems see the oracle's ground truth.
        let flight =
            Duration::from_millis((flight_ms + verdict.extra_delay_ms + 2 * link_extra).max(1));
        self.stats.probe_time_ms += flight.as_millis();
        // Ties at `flight` break FIFO, so the original must be scheduled
        // first: it resolves the trial, and the duplicate then replays the
        // handshake against the already-consumed plan (stale abort, no
        // double-counting). The reverse order would deliver the dup first
        // and charge every duplicated-but-successful trial as a failure.
        let walk = self.walk_scratch.walk().clone();
        let copy = verdict.duplicate.then(|| walk.clone());
        self.events.schedule_in(flight, Ev::Commit { origin: slot, walk, dup: false });
        if let Some(walk) = copy {
            self.events.schedule_in(flight, Ev::Commit { origin: slot, walk, dup: true });
        }
    }

    /// Network time for one §3.2 trial: the walk's one-way per-hop
    /// latencies, plus one RTT to the counterpart for the address-list
    /// exchange, plus the slowest hypothetical-neighbor ping (they run in
    /// parallel).
    fn probe_duration(&self, walk: &WalkPath) -> Duration {
        let mut ms: u64 = 0;
        for w in walk.path.windows(2) {
            ms += self.net.d(w[0], w[1]) as u64;
        }
        if let (Some(&u), Some(&v)) = (walk.path.first(), walk.path.last()) {
            if u != v {
                ms += 2 * self.net.d(u, v) as u64; // address-list RTT
                let worst_ping = self
                    .net
                    .graph()
                    .neighbors(u)
                    .iter()
                    .map(|&i| self.net.d(v, i) as u64)
                    .chain(self.net.graph().neighbors(v).iter().map(|&i| self.net.d(u, i) as u64))
                    .max()
                    .unwrap_or(0);
                ms += 2 * worst_ping;
            }
        }
        Duration::from_millis(ms.max(1))
    }

    /// Phase 2: plan, decide `Var > MIN_VAR`, exchange. A commit that was
    /// in flight first re-validates against the *current* overlay.
    fn commit(&mut self, origin: Slot, walk: &WalkPath, first_hop: Option<Slot>, dup: bool) {
        let counterpart = self.counterpart(walk);
        if !M::ATOMIC {
            if self.nodes[origin.index()].is_none() || !self.net.graph().is_alive(origin) {
                return; // origin departed mid-flight; nothing to reschedule
            }
            // The commit handshake itself crosses the network — and only a
            // walk that reached its counterpart emits one (a truncated walk
            // dies in the stale check below without sending anything): if
            // the plane drops it — counterpart crashed mid-flight, or a
            // partition opened while the probe was in the air — the trial
            // dies here.
            if let (Some(plane), Some(v)) =
                (self.plane.as_mut(), counterpart.filter(|&v| v != origin))
            {
                let (up, vp) = (self.net.peer(origin), self.net.peer(v));
                if !plane.deliver(self.events.now(), MsgKind::Commit, up, vp).delivered {
                    if !dup {
                        self.resolve(origin, first_hop, Outcome::Faulted);
                    }
                    return;
                }
            }
            // Stale checks: the whole walk must still exist (all nodes
            // alive; for walk mode, all edges intact) — otherwise the
            // counterpart was found through a path that no longer exists
            // and the Theorem-1 path-exclusion argument would not apply.
            let g = self.net.graph();
            let valid = counterpart.is_some()
                && walk.path.iter().all(|&s| g.is_alive(s))
                && match self.cfg.probe {
                    ProbeMode::Walk { .. } => walk.path.windows(2).all(|w| g.has_edge(w[0], w[1])),
                    ProbeMode::Random => true,
                };
            if !valid {
                if !dup {
                    self.resolve(origin, first_hop, Outcome::Stale);
                }
                return;
            }
        }

        // Plan against current state (for a commit that was in flight, the
        // latencies the peers measured are still valid — d() is static —
        // but eligibility may differ).
        let mut outcome = Outcome::NoGain;
        let mut msgs = 0;
        if counterpart.is_some() {
            if let Some(plan) = exchange::plan_exchange_into(
                &self.net,
                self.cfg.policy,
                walk,
                self.m_default,
                &mut self.plan_scratch,
            ) {
                // One probe per hypothetical neighbor and, if the exchange
                // goes ahead, one notification to each of the same.
                msgs = plan.neighbors_touched(&self.net) as u64;
                // `Var > MIN_VAR` with the embedded tier's exact-fallback
                // band: borderline comparisons re-evaluate exactly.
                if exchange::decide(&self.net, plan, self.cfg.min_var) {
                    Self::perform(&mut self.net, &mut self.nodes, &mut self.rng, plan);
                    outcome = Outcome::Exchanged;
                }
            }
        }
        if dup {
            // The duplicate replayed the handshake (and, if the swap was
            // somehow still beneficial, re-applied it); it is not a new
            // trial resolution, so it touches neither counters nor the
            // timer.
            return;
        }
        self.overhead.probe_msgs += msgs;
        if outcome == Outcome::Exchanged {
            self.overhead.notify_msgs += msgs;
        }
        self.resolve(origin, first_hop, outcome);
    }

    /// A trial ended: count it, feed the origin's neighbor queue and Markov
    /// backoff (anything but an exchange is a failed trial, exactly like a
    /// fruitless probe), and start its next interval.
    fn resolve(&mut self, origin: Slot, first_hop: Option<Slot>, outcome: Outcome) {
        match outcome {
            Outcome::Exchanged => {
                self.overhead.exchanges += 1;
                self.stats.exchanges += 1;
            }
            Outcome::NoGain => self.stats.no_gain += 1,
            Outcome::Stale => self.stats.stale_aborts += 1,
            Outcome::Faulted => self.stats.faulted += 1,
        }
        if let Some(state) = self.nodes[origin.index()].as_mut() {
            state.record_trial(&self.cfg, first_hop, outcome == Outcome::Exchanged);
        }
        self.reschedule(origin);
    }

    /// Apply the plan to the overlay and move the protocol state with it.
    /// Over the fields it writes rather than `&mut self`: the plan is on
    /// loan from the driver's own `plan_scratch`.
    fn perform(
        net: &mut OverlayNet,
        nodes: &mut [Option<NodeState>],
        rng: &mut SimRng,
        plan: &exchange::ExchangePlan,
    ) {
        let (u, v) = (plan.u, plan.v);
        exchange::apply(net, plan);
        match &plan.kind {
            PlanKind::SwapAll => {
                // Peers traded slots: their protocol state travels with
                // them, then sees a brand-new neighborhood. (Every logical
                // neighbor is notified to refresh latency bookkeeping;
                // slot-level links are unchanged.)
                if let Ok(pair) = nodes.get_disjoint_mut([u.index(), v.index()]) {
                    match pair {
                        [Some(a), Some(b)] => a.trade_places(b),
                        [a, b] => std::mem::swap(a, b), // a slot the driver never started
                    }
                }
                for &s in &[u, v] {
                    if let Some(state) = nodes[s.index()].as_mut() {
                        state.reinit_queue(net.graph(), s, rng);
                        state.on_exchanged();
                    }
                }
            }
            PlanKind::Subset { from_u, from_v } => {
                for (a, b, from_a, from_b) in [(u, v, from_u, from_v), (v, u, from_v, from_u)] {
                    if let Some(state) = nodes[a.index()].as_mut() {
                        state.swap_queue_entries(from_a, from_b);
                        state.on_exchanged();
                    }
                    // The moved neighbors each changed one edge endpoint.
                    for &x in from_a {
                        if let Some(state) = nodes[x.index()].as_mut() {
                            state.swap_queue_entries(&[a], &[b]);
                        }
                    }
                }
            }
        }
    }

    fn reschedule(&mut self, slot: Slot) {
        if let Some(state) = self.nodes[slot.index()].as_ref() {
            self.events.schedule_in(state.probe_interval(), Ev::Tick(slot));
        }
    }

    // ----- churn entry points (called by the experiment layer after it
    // ----- mutates the overlay through the overlay's own join/leave) -----

    /// A peer joined at `slot` (already wired in the overlay). Starts its
    /// protocol instance and notifies its neighbors. In-flight commits that
    /// the join invalidates die in commit-time revalidation.
    pub fn handle_join(&mut self, slot: Slot) {
        debug_assert!(self.net.graph().is_alive(slot));
        self.start_node(slot);
        // Snapshot the neighbor list into the driver-owned scratch (the
        // notifications below mutate node state, so the graph's slice can't
        // stay borrowed) — no per-join allocation once it reaches capacity.
        let mut neighbors = std::mem::take(&mut self.slot_scratch);
        neighbors.clear();
        neighbors.extend_from_slice(self.net.graph().neighbors(slot));
        self.handle_rewire(&neighbors);
        self.slot_scratch = neighbors;
    }

    /// The peer at `slot` departed (the overlay has already removed it and
    /// patched around the hole). `affected` are the slots whose neighbor
    /// lists changed. Its in-flight trials abort as stale.
    pub fn handle_leave(&mut self, slot: Slot, affected: &[Slot]) {
        // A slot that joined behind the driver's back has no state to drop.
        if let Some(node) = self.nodes.get_mut(slot.index()) {
            *node = None;
        }
        self.handle_rewire(affected);
    }

    /// The overlay rewired some nodes' neighbor lists outside the protocol
    /// (e.g. a DHT stabilization pass after a join): reset their timers and
    /// resync their queues, per the paper's churn handling.
    pub fn handle_rewire(&mut self, affected: &[Slot]) {
        self.notify_neighborhood_change(affected);
        self.refresh_m_default();
    }

    fn notify_neighborhood_change(&mut self, affected: &[Slot]) {
        for &w in affected {
            if !self.net.graph().is_alive(w) {
                continue;
            }
            if let Some(state) = self.nodes[w.index()].as_mut() {
                let had_backoff = state.probe_interval() > self.cfg.init_timer;
                state.on_neighborhood_changed(self.net.graph(), w, &mut self.resync_scratch);
                // A reset node should also probe soon, not wait out a long
                // previously-scheduled interval. Known defect, kept because
                // fixing it moves every churn digest: the pending tick is
                // not retired (`EventQueue` has no cancel, `NodeState` no
                // generation), so from here on the node runs two
                // self-rescheduling tick chains.
                if had_backoff {
                    self.events.schedule_in(self.cfg.init_timer, Ev::Tick(w));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::ChurnDriver;
    use prop_engine::Duration;
    use prop_netsim::{generate, LatencyOracle, OracleConfig, TransitStubParams};
    use prop_overlay::gnutella::{Gnutella, GnutellaParams};
    use std::sync::Arc;

    fn gnutella_sim<M: Timing>(n: usize, seed: u64, cfg: PropConfig) -> (Gnutella, PropSim<M>) {
        gnutella_sim_on(n, seed, cfg, &OracleConfig::default())
    }

    /// [`gnutella_sim`] with the latency oracle built as `oracle` says.
    fn gnutella_sim_on<M: Timing>(
        n: usize,
        seed: u64,
        cfg: PropConfig,
        oracle: &OracleConfig,
    ) -> (Gnutella, PropSim<M>) {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build_with(&phys, n, &mut rng, oracle));
        let (gn, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        let sim = PropSim::new(net, cfg, &mut rng);
        (gn, sim)
    }

    fn minutes(m: u64) -> Duration {
        Duration::from_minutes(m)
    }

    /// Run a mode-generic test body once per timing mode.
    macro_rules! in_both_modes {
        ($body:ident) => {
            $body::<Atomic>();
            $body::<MessageLevel>();
        };
    }

    /// What the golden table needs of a driver beyond [`ChurnDriver`].
    trait GoldenDriver: ChurnDriver + Sized {
        fn start(net: OverlayNet, cfg: PropConfig, plane: Option<CallCountPlane>) -> Self;
        fn counters(&self) -> Vec<u64>;
    }

    impl GoldenDriver for ProtocolSim {
        fn start(net: OverlayNet, cfg: PropConfig, plane: Option<CallCountPlane>) -> Self {
            let mut sim = ProtocolSim::new(net, cfg, &mut SimRng::seed_from(21));
            if let Some(p) = plane {
                sim.set_fault_plane(Box::new(p));
            }
            sim
        }
        fn counters(&self) -> Vec<u64> {
            let o = self.overhead();
            vec![o.trials, o.exchanges, o.walk_msgs, o.probe_msgs, o.notify_msgs]
        }
    }

    impl GoldenDriver for crate::AsyncProtocolSim {
        fn start(net: OverlayNet, cfg: PropConfig, plane: Option<CallCountPlane>) -> Self {
            let mut sim = crate::AsyncProtocolSim::new(net, cfg, &mut SimRng::seed_from(21));
            if let Some(p) = plane {
                sim.set_fault_plane(Box::new(p));
            }
            sim
        }
        fn counters(&self) -> Vec<u64> {
            let s = self.stats();
            vec![s.launched, s.exchanges, s.no_gain, s.stale_aborts, s.faulted, s.probe_time_ms]
        }
    }

    /// A plane whose every answer depends on how many calls came before it,
    /// so the *number and order* of a driver's `deliver` / `is_up` /
    /// `link_extra_ms` calls is part of the golden table.
    #[derive(Default)]
    struct CallCountPlane {
        calls: u64,
        rulings: u64,
    }

    impl FaultPlane for CallCountPlane {
        fn deliver(&mut self, _: SimTime, _: MsgKind, _: usize, _: usize) -> crate::Delivery {
            self.calls += 1;
            self.rulings += 1;
            crate::Delivery {
                delivered: !self.rulings.is_multiple_of(7),
                duplicate: self.rulings.is_multiple_of(5),
                extra_delay_ms: if self.rulings.is_multiple_of(4) { 3 } else { 0 },
            }
        }
        fn is_up(&mut self, _: SimTime, _: usize) -> bool {
            self.calls += 1;
            !self.calls.is_multiple_of(13)
        }
        fn link_extra_ms(&mut self, _: SimTime, _: usize, _: usize) -> u64 {
            self.calls += 1;
            self.calls % 11
        }
        fn counters(&mut self, _: SimTime) -> FaultCounters {
            FaultCounters::default()
        }
    }

    fn fnv64(words: impl Iterator<Item = u32>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in words.flat_map(u32::to_le_bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// One golden row: 40 simulated minutes on tiny/30-member Gnutella with
    /// a graceful leave at minute 10 and a join at minute 20.
    fn golden_row<D: GoldenDriver>(cfg: PropConfig, faulty: bool) -> String {
        let mut rng = SimRng::seed_from(20);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 30, &mut rng));
        let (gn, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        let mut sim = D::start(net, cfg, faulty.then(CallCountPlane::default));

        sim.run_until(SimTime::ZERO + minutes(10));
        let victim = Slot(7);
        let peer = sim.net().peer(victim);
        let affected: Vec<Slot> = sim.net().graph().neighbors(victim).to_vec();
        gn.leave(sim.net_mut(), victim, &mut rng);
        sim.handle_leave(victim, &affected);
        sim.run_until(SimTime::ZERO + minutes(20));
        let slot = gn.join(sim.net_mut(), peer, &mut rng);
        sim.handle_join(slot);
        sim.run_until(SimTime::ZERO + minutes(40));

        let net = sim.net();
        let edges = net.graph().edges().flat_map(|(a, b)| [a.0, b.0]);
        let placement = (0..net.graph().num_slots())
            .map(|i| net.placement().peer_at(Slot(i as u32)).map_or(u32::MAX, |p| p as u32));
        format!(
            "{:?} now={} lat={} fnv={:016x}",
            sim.counters(),
            sim.now().as_millis(),
            net.total_link_latency(),
            fnv64(edges.chain(placement))
        )
    }

    /// The reference for the driver merge: captured from the two separate
    /// drivers (`sim.rs` + `sim_async.rs` at PR 12), it pins each timing
    /// mode's counters, clock, overlay and fault-plane call sequence.
    #[test]
    fn golden_table() {
        let random = || PropConfig::prop_g().with_probe(ProbeMode::Random);
        let mut table = Vec::new();
        for faulty in [false, true] {
            for cfg in [PropConfig::prop_g(), PropConfig::prop_o(), random()] {
                table.push(golden_row::<ProtocolSim>(cfg.clone(), faulty));
                table.push(golden_row::<crate::AsyncProtocolSim>(cfg, faulty));
            }
        }
        // ProtocolSim: [trials, exchanges, walk, probe, notify msgs]; AsyncProtocolSim:
        // [launched, exchanges, no_gain, stale_aborts, faulted, probe_time_ms].
        let expected = [
            // perfect network: PROP-G walk, PROP-O walk, PROP-G random (sync, async each)
            "[503, 44, 1006, 8192, 719] now=2398244 lat=11395 fnv=99c7ceb2e98bb6d4",
            "[473, 43, 430, 0, 0, 466575] now=2375152 lat=11325 fnv=84e4cce34848ebdc",
            "[459, 51, 918, 2136, 252] now=2391809 lat=10185 fnv=1b905916a5514b00",
            "[460, 56, 404, 0, 0, 425000] now=2370273 lat=9520 fnv=b23b9d39cc1aa8da",
            "[490, 40, 0, 7321, 602] now=2382328 lat=12000 fnv=a9832c97d3c75344",
            "[500, 55, 445, 0, 0, 465885] now=2355389 lat=11825 fnv=55eeef4d655c2214",
            // the same six through CallCountPlane
            "[451, 28, 902, 3192, 472] now=2384581 lat=11740 fnv=946f3113ce0baa6c",
            "[469, 36, 214, 0, 219, 282114] now=2398985 lat=12050 fnv=22bee2e47e820c2c",
            "[471, 41, 942, 892, 172] now=2377068 lat=10445 fnv=ac0456e79b6ccdf3",
            "[471, 42, 201, 0, 228, 278735] now=2397346 lat=9985 fnv=1280a258d65670ee",
            "[450, 27, 0, 2815, 382] now=2390937 lat=12505 fnv=35bcde56c50913d4",
            "[462, 25, 222, 0, 215, 258106] now=2394988 lat=11705 fnv=1fa6fb649689d244",
        ];
        assert_eq!(table, expected, "\n{}", table.join("\n"));
    }

    #[test]
    fn propg_reduces_total_link_latency() {
        fn check<M: Timing>() {
            let (_, mut sim) = gnutella_sim::<M>(30, 1, PropConfig::prop_g());
            let before = sim.net().total_link_latency();
            sim.run_for(minutes(40));
            let after = sim.net().total_link_latency();
            assert!(sim.overhead().exchanges > 0, "no exchanges happened");
            assert!(after < before, "latency did not improve: {before} → {after}");
        }
        in_both_modes!(check);
    }

    #[test]
    fn propo_reduces_total_link_latency_and_preserves_degrees() {
        fn check<M: Timing>() {
            let (_, mut sim) = gnutella_sim::<M>(30, 2, PropConfig::prop_o());
            let degseq = sim.net().graph().degree_sequence();
            let before = sim.net().total_link_latency();
            sim.run_for(minutes(50));
            assert!(sim.overhead().exchanges > 0);
            assert!(sim.net().total_link_latency() < before);
            assert_eq!(sim.net().graph().degree_sequence(), degseq);
        }
        in_both_modes!(check);
    }

    #[test]
    fn connectivity_never_breaks() {
        fn check<M: Timing>() {
            for (seed, cfg) in
                [(3, PropConfig::prop_g()), (4, PropConfig::prop_o()), (5, PropConfig::prop_o_m(1))]
            {
                let (_, mut sim) = gnutella_sim::<M>(25, seed, cfg);
                for _ in 0..20 {
                    sim.run_for(minutes(2));
                    assert!(sim.net().graph().is_connected());
                }
            }
        }
        in_both_modes!(check);
    }

    #[test]
    fn propg_keeps_logical_graph_isomorphic() {
        fn check<M: Timing>() {
            let (_, mut sim) = gnutella_sim::<M>(25, 6, PropConfig::prop_g());
            let edges: Vec<_> = sim.net().graph().edges().collect();
            sim.run_for(minutes(60));
            assert_eq!(edges, sim.net().graph().edges().collect::<Vec<_>>());
            assert!(sim.net().placement().is_consistent());
        }
        in_both_modes!(check);
    }

    #[test]
    fn deterministic_given_seed() {
        fn check<M: Timing>() {
            let (_, mut a) = gnutella_sim::<M>(25, 9, PropConfig::prop_o());
            let (_, mut b) = gnutella_sim::<M>(25, 9, PropConfig::prop_o());
            a.run_for(minutes(30));
            b.run_for(minutes(30));
            assert_eq!((a.overhead(), a.stats()), (b.overhead(), b.stats()));
            assert_eq!(a.net().total_link_latency(), b.net().total_link_latency());
        }
        in_both_modes!(check);
    }

    #[test]
    fn random_probe_mode_works() {
        let (_, mut sim) =
            gnutella_sim::<Atomic>(30, 7, PropConfig::prop_g().with_probe(ProbeMode::Random));
        let before = sim.net().total_link_latency();
        sim.run_for(minutes(30));
        assert!(sim.net().total_link_latency() < before);
        assert_eq!(sim.overhead().walk_msgs, 0, "random probing sends no walk messages");
    }

    #[test]
    fn overhead_accounting_is_consistent() {
        let (_, mut sim) = gnutella_sim::<Atomic>(25, 8, PropConfig::prop_g());
        sim.run_for(minutes(20));
        let o = sim.overhead();
        assert!(o.trials > 0);
        assert!(o.exchanges <= o.trials);
        // Walk mode with nhops=2: exactly 2 walk messages per trial.
        assert_eq!(o.walk_msgs, 2 * o.trials);
        assert_eq!(o.total_msgs(), o.walk_msgs + o.probe_msgs + o.notify_msgs);
        let half = sim.overhead();
        sim.run_for(minutes(20));
        let diff = sim.overhead().since(&half);
        assert_eq!(diff.trials, sim.overhead().trials - half.trials);
    }

    #[test]
    fn outcome_accounting_adds_up() {
        fn check<M: Timing>() {
            let (_, mut sim) = gnutella_sim::<M>(25, 5, PropConfig::prop_o());
            sim.run_for(minutes(45));
            let (o, s) = (sim.overhead(), sim.stats());
            assert_eq!((o.trials, o.exchanges), (s.launched, s.exchanges));
            // Every launched trial eventually resolves into exactly one
            // bucket (up to the handful still in flight at the horizon).
            let resolved = s.exchanges + s.no_gain + s.stale_aborts + s.faulted;
            assert!(resolved <= s.launched);
            assert!(s.launched - resolved <= 25, "too many unresolved trials");
            if M::ATOMIC {
                assert_eq!(resolved, s.launched, "an atomic trial is never in flight");
                assert_eq!((s.stale_aborts, s.probe_time_ms), (0, 0));
            }
        }
        in_both_modes!(check);
    }

    #[test]
    fn probe_time_is_accounted() {
        let (_, mut sim) = gnutella_sim::<MessageLevel>(25, 4, PropConfig::prop_g());
        sim.run_for(minutes(30));
        let s = sim.stats();
        assert!(s.launched > 0);
        assert!(s.probe_time_ms > 0);
        // Mean probe duration should be in a plausible RTT regime: more
        // than one link latency, less than a minute.
        let mean = s.probe_time_ms as f64 / s.launched as f64;
        assert!((5.0..60_000.0).contains(&mean), "mean probe {mean} ms");
    }

    #[test]
    fn probe_rate_decays_after_warmup() {
        let (_, mut sim) = gnutella_sim::<Atomic>(30, 9, PropConfig::prop_g());
        // Warm-up: 10 trials at 1/min ⇒ ~10 min of full-rate probing.
        sim.run_for(minutes(15));
        let early = sim.overhead().trials;
        sim.run_for(minutes(15));
        let mid = sim.overhead().trials - early;
        sim.run_for(minutes(60));
        let late_window = sim.overhead().trials - early - mid;
        let early_rate = early as f64 / 15.0;
        let late_rate = late_window as f64 / 60.0;
        assert!(
            late_rate < early_rate * 0.7,
            "probe rate should decay: early {early_rate:.2}/min late {late_rate:.2}/min"
        );
    }

    /// Duplicates every message, drops nothing.
    struct AlwaysDup;

    impl FaultPlane for AlwaysDup {
        fn deliver(&mut self, _: SimTime, _: MsgKind, _: usize, _: usize) -> Delivery {
            Delivery { delivered: true, duplicate: true, extra_delay_ms: 0 }
        }
        fn counters(&mut self, _: SimTime) -> FaultCounters {
            FaultCounters::default()
        }
    }

    #[test]
    fn duplicated_commits_resolve_the_original_first() {
        // Pure duplication, zero loss: both commit copies land at the same
        // instant and ties break FIFO, so the original must be scheduled
        // first and resolve the trial. If the duplicate ran first it would
        // consume the plan, and the original would book every successful
        // exchange as no_gain/stale while feeding the backoff a failure.
        let (_, mut sim) = gnutella_sim::<MessageLevel>(30, 10, PropConfig::prop_g());
        let before = sim.net().total_link_latency();
        sim.set_fault_plane(Box::new(AlwaysDup));
        sim.run_for(minutes(40));
        let s = sim.stats();
        assert!(s.exchanges > 0, "duplication alone must not suppress success accounting: {s:?}");
        assert_eq!(s.faulted, 0, "nothing was dropped: {s:?}");
        assert!(sim.net().total_link_latency() < before, "overlay must still improve");
    }

    #[test]
    fn propo_sees_stale_aborts_under_concurrency() {
        // PROP-O rewires edges, so overlapping trials frequently invalidate
        // each other's walks — the message-level mode must observe this.
        let (_, mut sim) = gnutella_sim::<MessageLevel>(40, 6, PropConfig::prop_o());
        sim.run_for(minutes(60));
        let s = sim.stats();
        assert!(s.stale_aborts > 0, "expected some stale aborts under concurrent rewiring: {s:?}");
    }

    #[test]
    fn async_and_sync_drivers_agree_qualitatively() {
        // Not bit-identical (time moves differently), but both must land in
        // the same improved regime from the same start.
        fn final_latency<M: Timing>() -> (u64, u64) {
            let mut rng = SimRng::seed_from(7);
            let phys = generate(&TransitStubParams::tiny(), &mut rng);
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 30, &mut rng));
            let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
            let start = net.total_link_latency();
            let mut sim = PropSim::<M>::new(net, PropConfig::prop_g(), &mut SimRng::seed_from(8));
            sim.run_for(minutes(90));
            (start, sim.net().total_link_latency())
        }
        let (start, async_final) = final_latency::<MessageLevel>();
        let (_, sync_final) = final_latency::<Atomic>();
        assert!(async_final < start && sync_final < start);
        let ratio = async_final as f64 / sync_final as f64;
        assert!((0.7..1.3).contains(&ratio), "drivers diverged: {ratio}");
    }

    #[test]
    fn churn_join_and_leave_keep_sim_running() {
        let (gn, mut sim) = gnutella_sim::<Atomic>(30, 10, PropConfig::prop_o());
        sim.run_for(minutes(10));
        let mut rng = SimRng::seed_from(1234);
        // Three peers leave, then rejoin.
        for victim in [2u32, 9, 17] {
            let slot = Slot(victim);
            let peer = sim.net().peer(slot);
            let affected: Vec<Slot> = sim.net().graph().neighbors(slot).to_vec();
            gn.leave(sim.net_mut(), slot, &mut rng);
            sim.handle_leave(slot, &affected);
            assert!(sim.net().graph().is_connected());
            sim.run_for(minutes(3));
            let new_slot = gn.join(sim.net_mut(), peer, &mut rng);
            sim.handle_join(new_slot);
            sim.run_for(minutes(3));
            assert!(sim.net().graph().is_connected());
        }
        assert!(sim.net().placement().is_consistent());
    }

    #[test]
    fn leave_of_a_slot_the_driver_never_started_is_not_a_panic() {
        let (gn, mut sim) = gnutella_sim::<Atomic>(30, 15, PropConfig::prop_o());
        sim.run_for(minutes(5));
        let mut rng = SimRng::seed_from(15);
        let peer = sim.net().peer(Slot(3));
        let affected: Vec<Slot> = sim.net().graph().neighbors(Slot(3)).to_vec();
        gn.leave(sim.net_mut(), Slot(3), &mut rng);
        sim.handle_leave(Slot(3), &affected);
        // The peer comes back and goes again with no `handle_join` in
        // between: its slot lies past the driver's node table.
        let slot = gn.join(sim.net_mut(), peer, &mut rng);
        let affected: Vec<Slot> = sim.net().graph().neighbors(slot).to_vec();
        gn.leave(sim.net_mut(), slot, &mut rng);
        sim.handle_leave(slot, &affected);
        sim.run_for(minutes(5));
        assert!(sim.net().graph().is_connected());
    }

    #[test]
    fn m_default_tracks_min_degree_under_churn() {
        fn check<M: Timing>() {
            let (gn, mut sim) = gnutella_sim::<M>(30, 13, PropConfig::prop_o());
            let initial = sim.m_default();
            assert_eq!(initial, sim.net().graph().min_degree().unwrap().max(1));

            // Crash a neighbor of a minimum-degree slot: that slot loses one
            // edge without the graceful patch-up, so δ(G) strictly drops and
            // a stale `m_default` is guaranteed to be wrong.
            let g = sim.net().graph();
            let min_slot = g.live_slots().min_by_key(|&s| g.degree(s)).unwrap();
            let victim = g.neighbors(min_slot)[0];
            let peer = sim.net().peer(victim);
            let orphans = gn.crash(sim.net_mut(), victim);
            sim.handle_leave(victim, &orphans);
            assert!(sim.m_default() < initial, "δ(G) dropped but m_default did not");
            assert_eq!(sim.m_default(), sim.net().graph().min_degree().unwrap().max(1));

            // Rejoin: the invariant must hold after joins and rewires too.
            let mut rng = SimRng::seed_from(99);
            let slot = gn.join(sim.net_mut(), peer, &mut rng);
            sim.handle_join(slot);
            assert_eq!(sim.m_default(), sim.net().graph().min_degree().unwrap().max(1));
            sim.run_for(minutes(5));
        }
        in_both_modes!(check);
    }

    #[test]
    fn a_one_row_a_shard_cache_drives_as_the_dense_tier_does() {
        // The row cache holds one row a shard, so the Var reads of a trial
        // that fall inside one stub domain — the only ones a row answers —
        // are demand misses and evictions; where the answers come from must
        // not show in any counter or edge.
        fn check<M: Timing>() {
            for cfg in [PropConfig::prop_g(), PropConfig::prop_o()] {
                let (_, mut dense) = gnutella_sim::<M>(30, 14, cfg.clone());
                let (_, mut rows) = gnutella_sim_on::<M>(30, 14, cfg, &OracleConfig::cached(1));
                assert!(dense.net().oracle_cache_stats().is_none());
                dense.run_for(minutes(40));
                rows.run_for(minutes(40));
                let cache = rows.net().oracle_cache_stats().expect("row-cache tier");
                assert!(cache.misses > 0, "no trial read a row: the cache was never crossed");
                assert!(cache.evictions > 0, "the cache held every row: nothing was compared");
                assert!(rows.overhead().exchanges > 0);
                assert_eq!((dense.overhead(), dense.stats()), (rows.overhead(), rows.stats()));
                assert_eq!(dense.net().total_link_latency(), rows.net().total_link_latency());
                assert_eq!(
                    dense.net().graph().edges().collect::<Vec<_>>(),
                    rows.net().graph().edges().collect::<Vec<_>>()
                );
            }
        }
        in_both_modes!(check);
    }

    #[test]
    fn exchanges_happen_only_when_var_positive() {
        // With MIN_VAR above any plausible gain, nothing should change.
        let mut cfg = PropConfig::prop_g();
        cfg.min_var = i64::MAX;
        let (_, mut sim) = gnutella_sim::<Atomic>(20, 11, cfg);
        let before = sim.net().total_link_latency();
        sim.run_for(minutes(30));
        assert_eq!(sim.overhead().exchanges, 0);
        assert_eq!(sim.net().total_link_latency(), before);
    }

    #[test]
    fn nhops_one_limits_improvement() {
        // Neighbor exchange (nhops=1) is expected to underperform nhops=2 —
        // the Fig. 5(a)/6(a) observation.
        let walk = |nhops| PropConfig::prop_g().with_probe(ProbeMode::Walk { nhops });
        let (_, mut sim1) = gnutella_sim::<Atomic>(40, 12, walk(1));
        let (_, mut sim2) = gnutella_sim::<Atomic>(40, 12, walk(2));
        let start = sim1.net().total_link_latency();
        assert_eq!(start, sim2.net().total_link_latency());
        sim1.run_for(minutes(60));
        sim2.run_for(minutes(60));
        let gain1 = start - sim1.net().total_link_latency();
        let gain2 = start - sim2.net().total_link_latency();
        assert!(gain2 > gain1 / 2, "nhops=2 should be competitive (gain1 {gain1}, gain2 {gain2})");
    }
}
