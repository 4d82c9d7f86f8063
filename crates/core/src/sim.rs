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
//!   [`Overhead::stale_aborts`]). This mirrors the paper's note that
//!   peers "cache the address of their counterparts so that the lookups in
//!   progress during peer-exchange can be forwarded correctly" —
//!   commit-time revalidation is the simulation analogue of that handshake.
//!
//! Every Theorem-1/Theorem-2 invariant must survive arbitrary interleaving
//! — the test-suite runs both modes over the same scenarios and checks the
//! same properties.
//!
//! The driver's clock is its event queue's ([`PropSim::now`]), the
//! simulation's only clock. [`PropSim::run_until`]`(t)` runs every event at
//! or before `t` and then stands at `t`, whether or not an event fell
//! there, so [`PropSim::run_for`]`(w)` ends exactly `w` after it starts and
//! `k` windows from a fresh driver end at `k·w`. Callers sample on that
//! grid by reading `now()` and keep no clock of their own. The churn entry
//! points schedule from that instant too: a node joined right after
//! `run_until(t)` first ticks within `INIT_TIMER` after `t`, never before.
//!
//! The driver keeps one trial ledger, [`Overhead`], the same way in both
//! modes: `launch` counts a trial and its walk messages, `resolve` files it
//! under one outcome, and the §4.3 probe and notification messages are
//! added at commit. Churn is reported after the overlay's own join or
//! leave has run: `handle_leave` takes the slots the leave returned,
//! `handle_rewire` what a Chord join rewired.

use crate::config::{ProbeMode, PropConfig, INIT_TIMER};
use crate::exchange::{self, PlanKind, PlanScratch};
use crate::fault::{Delivery, FaultCounters, FaultPlane, MsgKind};
use crate::neighborq::SlotMarks;
use crate::protocol::NodeState;
use prop_engine::{Duration, EventQueue, SimRng, SimTime};
use prop_netsim::Source;
use prop_overlay::walk::{WalkPath, WalkScratch};
use prop_overlay::{OverlayNet, Slot};
use std::marker::PhantomData;

/// The driver's trial ledger, cumulative since simulation start: how many
/// trials ran, how each ended, and what they cost in §4.3 messages and
/// probe time. A resolved trial is in exactly one of `exchanges`,
/// `no_gain`, `stale_aborts` and `faulted`; a message-level trial still in
/// flight is in none of them yet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overhead {
    /// Probe trials launched.
    pub trials: u64,
    /// Trials that ended in an exchange (`Var > MIN_VAR` at commit).
    pub exchanges: u64,
    /// Trials that found no beneficial exchange.
    pub no_gain: u64,
    /// Trials aborted at commit because the overlay changed underneath
    /// them (counterpart gone, walk edge gone, plan no longer valid).
    /// Always zero in [`Atomic`] mode, where nothing can move in between.
    pub stale_aborts: u64,
    /// Trials that the fault plane killed: a walk/exchange/probe/commit
    /// message dropped, or the counterpart crashed mid-flight. Each feeds
    /// the origin's Markov backoff as a failed trial.
    pub faulted: u64,
    /// Walk-forwarding messages (`nhop` per trial).
    pub walk_msgs: u64,
    /// Hypothetical-neighbor probing messages (`2c` for PROP-G, `2m` for
    /// PROP-O, per trial that produced a plan).
    pub probe_msgs: u64,
    /// Post-exchange routing-table notifications.
    pub notify_msgs: u64,
    /// Total simulated milliseconds of probe traffic (walk + RTTs). Always
    /// zero in [`Atomic`] mode.
    pub probe_time_ms: u64,
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
            no_gain: self.no_gain.saturating_sub(earlier.no_gain),
            stale_aborts: self.stale_aborts.saturating_sub(earlier.stale_aborts),
            faulted: self.faulted.saturating_sub(earlier.faulted),
            walk_msgs: self.walk_msgs.saturating_sub(earlier.walk_msgs),
            probe_msgs: self.probe_msgs.saturating_sub(earlier.probe_msgs),
            notify_msgs: self.notify_msgs.saturating_sub(earlier.notify_msgs),
            probe_time_ms: self.probe_time_ms.saturating_sub(earlier.probe_time_ms),
        }
    }
}

// A view of two `Overhead` fields under their old names, kept for one
// caller: `benchmark/src/driver.rs` reads it off the message-level driver
// through `PropSim::stats`. The next `benchmark` change reads `overhead()`
// instead and drops both.
#[doc(hidden)]
pub struct AsyncStats {
    pub launched: u64,
    pub exchanges: u64,
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

/// How one trial ended; each variant is one [`Overhead`] bucket, and
/// `resolve` files every trial under exactly one of them.
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
    plane: Option<Box<dyn FaultPlane>>,
    /// Reusable walk/candidate buffers: a trial, exchanging or not, must
    /// not allocate (pinned by the `alloc_regression` test).
    walk_scratch: WalkScratch,
    /// Walk buffers for message-level `Commit` events: a launch copies its
    /// walk into one taken from here, and the commit gives it back, so
    /// once the list has grown to the most commits ever in flight no
    /// launch allocates.
    walk_spares: Vec<WalkPath>,
    /// Reusable candidate lists and plan for `exchange::plan_exchange_into`:
    /// the other half of an allocation-free trial.
    plan_scratch: PlanScratch,
    /// Reusable slot list: a joiner's neighbors in `handle_join`.
    slot_scratch: Vec<Slot>,
    /// Epoch-stamped per-slot marks for `NeighborQueue::resync`: they grow
    /// to the slot table once, and a resync costs its row and queue.
    resync_scratch: SlotMarks,
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
            plane: None,
            walk_scratch: WalkScratch::new(),
            walk_spares: Vec::new(),
            plan_scratch: PlanScratch::default(),
            slot_scratch: Vec::new(),
            resync_scratch: SlotMarks::default(),
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
        let state = NodeState::new(self.net.graph(), slot, &mut self.rng);
        self.nodes[slot.index()] = Some(state);
        let offset = Duration::from_millis(self.rng.range(0..INIT_TIMER.as_millis()));
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

    /// Mutable overlay access: an overlay's join or leave runs on this,
    /// and the caller then reports what it touched through the
    /// `handle_*` churn entry points.
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

    /// The trial ledger: trials, their outcomes, messages and probe time.
    pub fn overhead(&self) -> Overhead {
        self.overhead
    }

    // See `AsyncStats`: kept for `benchmark/src/driver.rs` only.
    #[doc(hidden)]
    pub fn stats(&self) -> AsyncStats {
        AsyncStats { launched: self.overhead.trials, exchanges: self.overhead.exchanges }
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

    /// Run all events up to and including `deadline`, then stand at
    /// `deadline` (the clock never moves back).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((_, ev)) = self.events.pop_until(deadline) {
            match ev {
                Ev::Tick(slot) => self.launch(slot),
                Ev::Commit { origin, walk, dup } => {
                    self.commit(origin, &walk, dup);
                    self.walk_spares.push(walk);
                }
            }
        }
    }

    /// Advance the clock by exactly `window`.
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

        match self.cfg.probe {
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
            }
            ProbeMode::Random => {
                let Some(v) = self.net.graph().pick_live(&mut self.rng, Some(slot)) else {
                    self.reschedule(slot);
                    return;
                };
                self.walk_scratch.set_pair(slot, v);
            }
        }
        self.overhead.trials += 1;

        let walk = self.walk_scratch.walk();
        // A walk starts at its origin and is never empty: `v` is the node
        // the walk message reached, counterpart or not.
        let v = *walk.path.last().unwrap_or(&slot);
        let full_len = self.counterpart(walk).is_some();
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
            let first_hop = self.walk_scratch.walk().path.get(1).copied();
            self.resolve(slot, first_hop, Outcome::Faulted);
            return;
        }
        if M::ATOMIC {
            // The scratch steps out so the walk can be read beside
            // `&mut self`: no clone, no allocation.
            let scratch = std::mem::take(&mut self.walk_scratch);
            self.commit(slot, scratch.walk(), false);
            self.walk_scratch = scratch;
            return;
        }
        // Network time is read off the overlay as it stands at launch, and
        // only for a trial the plane let through: pricing reads the oracle
        // but neither draws nor asks the plane, so the rulings above are
        // the same either way. Drift/spikes and reordering stretch the
        // in-flight time (one RTT's worth of link degradation), never d()
        // itself — Var and the theorems see the oracle's ground truth.
        // The fault plane's delays saturate: a clock at `u64::MAX` is a
        // commit that never arrives, not one that wraps into the past.
        let flight_ms = self.probe_duration(self.walk_scratch.walk()).as_millis();
        let flight_ms = flight_ms
            .saturating_add(verdict.extra_delay_ms)
            .saturating_add(link_extra.saturating_mul(2));
        let flight = Duration::from_millis(flight_ms.max(1));
        self.overhead.probe_time_ms =
            self.overhead.probe_time_ms.saturating_add(flight.as_millis());
        // Ties at `flight` break FIFO, so the original must be scheduled
        // first: it resolves the trial, and the duplicate then replays the
        // handshake against the already-consumed plan (stale abort, no
        // double-counting). The reverse order would deliver the dup first
        // and charge every duplicated-but-successful trial as a failure.
        self.schedule_commit(flight, slot, false);
        if verdict.duplicate {
            self.schedule_commit(flight, slot, true);
        }
    }

    /// Schedule the `Commit` of the walk in the scratch, copied into a
    /// buffer from the spares.
    fn schedule_commit(&mut self, flight: Duration, origin: Slot, dup: bool) {
        let mut walk = self.walk_spares.pop().unwrap_or_default();
        walk.path.clone_from(&self.walk_scratch.walk().path);
        self.events.schedule_in(flight, Ev::Commit { origin, walk, dup });
    }

    /// Network time for one §3.2 trial: the walk's one-way per-hop
    /// latencies, plus one RTT to the counterpart for the address-list
    /// exchange, plus the slowest hypothetical-neighbor ping (they run in
    /// parallel).
    fn probe_duration(&self, walk: &WalkPath) -> Duration {
        let net = &self.net;
        let mut ms: u64 = 0;
        for w in walk.path.windows(2) {
            ms += net.d(w[0], w[1]) as u64;
        }
        if let (Some(&u), Some(&v)) = (walk.path.first(), walk.path.last()) {
            if u != v {
                let (pu, pv) = (net.peer(u), net.peer(v));
                let (from_u, from_v) = (net.oracle().source(pu), net.oracle().source(pv));
                // The address-list RTT, then the slowest ping: each peer
                // pings the other's neighbors.
                ms += 2 * from_u.to(pv) as u64;
                let worst = |row: &[Slot], from: &Source| -> u32 {
                    row.iter().map(|&i| from.to(net.peer(i))).max().unwrap_or(0)
                };
                let worst_ping = worst(net.graph().neighbors(u), &from_v)
                    .max(worst(net.graph().neighbors(v), &from_u));
                ms += 2 * worst_ping as u64;
            }
        }
        Duration::from_millis(ms.max(1))
    }

    /// Phase 2: plan, decide `Var > MIN_VAR`, exchange. A commit that was
    /// in flight first re-validates against the *current* overlay.
    fn commit(&mut self, origin: Slot, walk: &WalkPath, dup: bool) {
        let counterpart = self.counterpart(walk);
        // The neighbor the walk left through; in `Random` probe mode, the
        // counterpart itself.
        let first_hop = walk.path.get(1).copied();
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
                // Known defect, kept because fixing it moves the
                // `churn_storm` digest: a counterpart that departed while
                // the walk was out is ruled on here, before the stale check
                // below, under the vacant slot's member index (`u32::MAX`).
                let up = self.net.peer(origin);
                let vp = self.net.placement().peer_at(v).unwrap_or(u32::MAX as usize);
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
                // `Var > MIN_VAR`, on exact latencies.
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
            Outcome::Exchanged => self.overhead.exchanges += 1,
            Outcome::NoGain => self.overhead.no_gain += 1,
            Outcome::Stale => self.overhead.stale_aborts += 1,
            Outcome::Faulted => self.overhead.faulted += 1,
        }
        if let Some(state) = self.nodes[origin.index()].as_mut() {
            state.record_trial(&self.cfg, first_hop, outcome == Outcome::Exchanged);
        }
        self.reschedule(origin);
    }

    /// Apply the plan to the overlay and move the protocol state with it.
    /// Over the fields it writes rather than `&mut self`: the plan is on
    /// loan from the driver's own `plan_scratch`. A slot joined without
    /// `handle_join` may lie past `nodes`; it has no state to move.
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
                    if let Some(Some(state)) = nodes.get_mut(s.index()) {
                        state.reinit_queue(net.graph(), s, rng);
                        state.on_exchanged();
                    }
                }
            }
            PlanKind::Subset { from_u, from_v } => {
                for (a, b, from_a, from_b) in [(u, v, from_u, from_v), (v, u, from_v, from_u)] {
                    if let Some(Some(state)) = nodes.get_mut(a.index()) {
                        state.swap_queue_entries(from_a, from_b);
                        state.on_exchanged();
                    }
                    // The moved neighbors each changed one edge endpoint.
                    for &x in from_a {
                        if let Some(Some(state)) = nodes.get_mut(x.index()) {
                            state.swap_queue_entries(&[a], &[b]);
                        }
                    }
                }
            }
        }
    }

    /// Every started live node's queue is in probe order and holds exactly
    /// the node's row — what `perform` and the `handle_*` entry points keep
    /// true between events.
    #[cfg(test)]
    pub(crate) fn audit(&self) {
        let g = self.net.graph();
        for s in g.live_slots() {
            let Some(Some(state)) = self.nodes.get(s.index()) else { continue };
            state.queue().audit();
            let mut queued: Vec<Slot> = state.queue().entries().iter().map(|e| e.0).collect();
            queued.sort_unstable();
            assert_eq!(queued, g.neighbors(s), "{s:?}: the queue is not the row");
        }
    }

    fn reschedule(&mut self, slot: Slot) {
        if let Some(state) = self.nodes[slot.index()].as_ref() {
            self.events.schedule_in(state.probe_interval(), Ev::Tick(slot));
        }
    }

    // ----- churn entry points (called after the caller has mutated the
    // ----- overlay through the overlay's own join/leave) -----

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
            // A slot joined without `handle_join` lies past the table.
            if let Some(Some(state)) = self.nodes.get_mut(w.index()) {
                let had_backoff = state.probe_interval() > INIT_TIMER;
                state.on_neighborhood_changed(self.net.graph(), w, &mut self.resync_scratch);
                // A reset node should also probe soon, not wait out a long
                // previously-scheduled interval. Known defect, kept because
                // fixing it moves every churn digest: the pending tick is
                // not retired (`EventQueue` has no cancel, `NodeState` no
                // generation), so from here on the node runs two
                // self-rescheduling tick chains.
                if had_backoff {
                    self.events.schedule_in(INIT_TIMER, Ev::Tick(w));
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
    use prop_netsim::{generate, LatencyOracle, OracleConfig, Tier, TransitStubParams};
    use prop_overlay::gnutella::{Gnutella, GnutellaParams};
    use std::sync::Arc;

    fn gnutella_sim<M: Timing>(n: usize, seed: u64, cfg: PropConfig) -> (Gnutella, PropSim<M>) {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
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
            let o = self.overhead();
            vec![o.trials, o.exchanges, o.no_gain, o.stale_aborts, o.faulted, o.probe_time_ms]
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
        let affected = gn.leave(sim.net_mut(), victim, &mut rng);
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
    /// Re-captured when a drained `run_until` began to stand at its
    /// deadline: the churn at minutes 10 and 20 now schedules from those
    /// instants, and every row ends at minute 40 exactly.
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
        // [trials, exchanges, no_gain, stale_aborts, faulted, probe_time_ms].
        let expected = [
            // perfect network: PROP-G walk, PROP-O walk, PROP-G random (sync, async each)
            "[505, 44, 1010, 8279, 728] now=2400000 lat=11385 fnv=9e1ff54c80b268e4",
            "[482, 47, 435, 0, 0, 478910] now=2400000 lat=11440 fnv=c01a199d9a1c8dac",
            "[461, 51, 922, 2132, 250] now=2400000 lat=9925 fnv=eb5a14f94a4caed0",
            "[474, 60, 414, 0, 0, 434915] now=2400000 lat=9160 fnv=a88b6649eed0be6a",
            "[485, 38, 0, 7110, 557] now=2400000 lat=12040 fnv=fd83a00ed4074984",
            "[501, 52, 449, 0, 0, 459180] now=2400000 lat=11790 fnv=3512d4433b273d44",
            // the same six through CallCountPlane
            "[456, 29, 912, 3220, 497] now=2400000 lat=11790 fnv=586c87c5a6387fcc",
            "[461, 34, 209, 0, 218, 278591] now=2400000 lat=12180 fnv=742f276f74a1212c",
            "[477, 44, 954, 912, 182] now=2400000 lat=10435 fnv=a3c9e8983674a683",
            "[460, 37, 202, 0, 221, 272976] now=2400000 lat=10325 fnv=c6bb6d4512c343ae",
            "[463, 32, 0, 2867, 451] now=2400000 lat=12055 fnv=ff08e32f3a0cb4f4",
            "[467, 28, 219, 0, 220, 263535] now=2400000 lat=12085 fnv=64ecefba73593744",
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
            assert_eq!(a.overhead(), b.overhead());
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

    /// Every field of the ledger. The pattern is exhaustive, so a field
    /// added to [`Overhead`] must be listed here, and with it in `since`.
    fn ledger_fields(o: &Overhead) -> [u64; 9] {
        let Overhead {
            trials,
            exchanges,
            no_gain,
            stale_aborts,
            faulted,
            walk_msgs,
            probe_msgs,
            notify_msgs,
            probe_time_ms,
        } = *o;
        [
            trials,
            exchanges,
            no_gain,
            stale_aborts,
            faulted,
            walk_msgs,
            probe_msgs,
            notify_msgs,
            probe_time_ms,
        ]
    }

    /// One case of the ledger property: 30 simulated minutes, the ledger
    /// read every 5. Returns the final ledger.
    fn ledger_case<M: Timing>(case: u64, cfg: &PropConfig, faulty: bool) -> Overhead {
        let (_, mut sim) = gnutella_sim::<M>(25, 100 + case, cfg.clone());
        if faulty {
            sim.set_fault_plane(Box::new(CallCountPlane::default()));
        }
        let (atomic, policy, probe) = (M::ATOMIC, cfg.policy, cfg.probe);
        let at = |o: &Overhead| {
            format!("case {case} {policy:?} {probe:?} atomic={atomic} faulty={faulty}: {o:?}")
        };
        let mut last = sim.overhead();
        let mut windows = [0; 9];
        for _ in 0..6 {
            sim.run_for(minutes(5));
            let o = sim.overhead();
            let resolved = o.exchanges + o.no_gain + o.stale_aborts + o.faulted;
            if M::ATOMIC {
                assert_eq!(resolved, o.trials, "an atomic trial is never in flight; {}", at(&o));
                assert_eq!((o.stale_aborts, o.probe_time_ms), (0, 0), "{}", at(&o));
            } else {
                assert!(resolved <= o.trials, "a trial filed twice; {}", at(&o));
            }
            let walk = match cfg.probe {
                ProbeMode::Walk { nhops } => nhops as u64 * o.trials,
                ProbeMode::Random => 0,
            };
            assert_eq!(o.walk_msgs, walk, "{}", at(&o));
            // An older snapshot minus a newer one saturates to zero on
            // every field, and the windows add up to the whole run.
            assert_eq!(last.since(&o), Overhead::default(), "{}", at(&o));
            for (w, d) in windows.iter_mut().zip(ledger_fields(&o.since(&last))) {
                *w += d;
            }
            last = o;
        }
        assert_eq!(windows, ledger_fields(&last), "{}", at(&last));
        last
    }

    /// The one trial ledger, over both timing modes × PROP-G walk, PROP-O
    /// walk, PROP-G random × a perfect network and [`CallCountPlane`].
    #[test]
    fn the_trial_ledger_adds_up_in_both_modes() {
        const CASES: u64 = 4;
        let random = PropConfig::prop_g().with_probe(ProbeMode::Random);
        let mut moved = [false; 9];
        for case in 0..CASES {
            for cfg in [PropConfig::prop_g(), PropConfig::prop_o(), random.clone()] {
                for faulty in [false, true] {
                    for o in [
                        ledger_case::<Atomic>(case, &cfg, faulty),
                        ledger_case::<MessageLevel>(case, &cfg, faulty),
                    ] {
                        for (m, f) in moved.iter_mut().zip(ledger_fields(&o)) {
                            *m |= f > 0;
                        }
                    }
                }
            }
        }
        // Each field's saturation and window sum was checked on a field
        // that moved.
        assert_eq!(moved, [true; 9], "a ledger field never moved");
    }

    /// A plane built in code, past the bound a parsed script is held to:
    /// every message and link carries the largest extra delay there is.
    struct EndlessDelayPlane;

    impl FaultPlane for EndlessDelayPlane {
        fn deliver(&mut self, _: SimTime, _: MsgKind, _: usize, _: usize) -> Delivery {
            Delivery { extra_delay_ms: u64::MAX, ..Delivery::CLEAN }
        }
        fn is_up(&mut self, _: SimTime, _: usize) -> bool {
            true
        }
        fn link_extra_ms(&mut self, _: SimTime, _: usize, _: usize) -> u64 {
            u64::MAX
        }
        fn counters(&mut self, _: SimTime) -> FaultCounters {
            FaultCounters::default()
        }
    }

    #[test]
    fn fault_delays_saturate_instead_of_wrapping_the_clock() {
        // Merged verdicts, the flight and the ledger's probe time each add
        // such delays; saturated, a message-level commit lands at the end
        // of time and never arrives, and the atomic driver, which ignores
        // delays, exchanges as on a perfect network.
        let (_, mut sim) = gnutella_sim::<MessageLevel>(25, 4, PropConfig::prop_g());
        sim.set_fault_plane(Box::new(EndlessDelayPlane));
        sim.run_for(minutes(30));
        let o = sim.overhead();
        assert!(o.trials > 1, "{o:?}");
        assert_eq!((o.exchanges, o.probe_time_ms), (0, u64::MAX), "{o:?}");
        assert_eq!(sim.now(), SimTime::ZERO + minutes(30));

        let (_, mut sim) = gnutella_sim::<Atomic>(25, 4, PropConfig::prop_g());
        sim.set_fault_plane(Box::new(EndlessDelayPlane));
        sim.run_for(minutes(30));
        assert!(sim.overhead().exchanges > 0, "{:?}", sim.overhead());
    }

    #[test]
    fn probe_time_is_accounted() {
        let (_, mut sim) = gnutella_sim::<MessageLevel>(25, 4, PropConfig::prop_g());
        sim.run_for(minutes(30));
        let o = sim.overhead();
        assert!(o.trials > 0);
        assert!(o.probe_time_ms > 0);
        // Mean probe duration should be in a plausible RTT regime: more
        // than one link latency, less than a minute.
        let mean = o.probe_time_ms as f64 / o.trials as f64;
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
        let o = sim.overhead();
        assert!(o.exchanges > 0, "duplication alone must not suppress success accounting: {o:?}");
        assert_eq!(o.faulted, 0, "nothing was dropped: {o:?}");
        assert!(sim.net().total_link_latency() < before, "overlay must still improve");
    }

    #[test]
    fn propo_sees_stale_aborts_under_concurrency() {
        // PROP-O rewires edges, so overlapping trials frequently invalidate
        // each other's walks — the message-level mode must observe this.
        let (_, mut sim) = gnutella_sim::<MessageLevel>(40, 6, PropConfig::prop_o());
        sim.run_for(minutes(60));
        let o = sim.overhead();
        assert!(o.stale_aborts > 0, "expected some stale aborts under concurrent rewiring: {o:?}");
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

    /// A perfect network that logs every launched tick's `is_up` ruling as
    /// (instant, peer).
    #[derive(Clone, Default)]
    struct TickLog(std::rc::Rc<std::cell::RefCell<Vec<(SimTime, usize)>>>);

    impl FaultPlane for TickLog {
        fn deliver(&mut self, _: SimTime, _: MsgKind, _: usize, _: usize) -> Delivery {
            Delivery::CLEAN
        }
        fn is_up(&mut self, now: SimTime, peer: usize) -> bool {
            self.0.borrow_mut().push((now, peer));
            true
        }
        fn counters(&mut self, _: SimTime) -> FaultCounters {
            FaultCounters::default()
        }
    }

    #[test]
    fn windows_end_on_the_clock_and_a_joiner_ticks_from_its_join() {
        fn check<M: Timing>() {
            let (gn, mut sim) = gnutella_sim::<M>(30, 8, PropConfig::prop_g());
            let log = TickLog::default();
            sim.set_fault_plane(Box::new(log.clone()));
            let mut rng = SimRng::seed_from(8);
            // An odd window, so a deadline is seldom an event's instant.
            let w = Duration::from_millis(97_919);
            for k in 1..=20u64 {
                sim.run_for(w);
                assert_eq!(sim.now(), SimTime(k * w.as_millis()), "window {k}");
            }
            // Past warm-up, ticks are sparse: a tick scheduled from the
            // last popped event instead of the deadline would often fire
            // before the join it follows.
            let mut joined: Option<(SimTime, usize, usize)> = None;
            for k in 21..=80u64 {
                let t = SimTime(k * w.as_millis());
                sim.run_until(t);
                assert_eq!(sim.now(), t, "window {k}");
                if let Some((at, peer, mark)) = joined.take() {
                    for &(tick, p) in &log.0.borrow()[mark..] {
                        assert!(p != peer || tick >= at, "joined at {at:?}, ticked at {tick:?}");
                    }
                }
                // Every other window ends in a peer leaving and rejoining.
                if k % 2 == 1 {
                    continue;
                }
                let g = sim.net().graph();
                let victim = g.live_slot_at_rank(rng.range(0..g.num_live())).unwrap();
                let peer = sim.net().peer(victim);
                let affected = gn.leave(sim.net_mut(), victim, &mut rng);
                sim.handle_leave(victim, &affected);
                let slot = gn.join(sim.net_mut(), peer, &mut rng);
                sim.handle_join(slot);
                joined = Some((t, peer, log.0.borrow().len()));
            }
        }
        in_both_modes!(check);
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
            let affected = gn.leave(sim.net_mut(), slot, &mut rng);
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
        fn check<M: Timing>() {
            for cfg in [PropConfig::prop_g(), PropConfig::prop_o()] {
                let (gn, mut sim) = gnutella_sim::<M>(30, 15, cfg);
                sim.run_for(minutes(5));
                let mut rng = SimRng::seed_from(15);
                let leave = |sim: &mut PropSim<M>, slot: Slot, rng: &mut SimRng| {
                    let affected = gn.leave(sim.net_mut(), slot, rng);
                    sim.handle_leave(slot, &affected);
                };
                let peer = sim.net().peer(Slot(3));
                leave(&mut sim, Slot(3), &mut rng);
                // The peer comes back with no `handle_join`: its slot lies
                // past the driver's node table.
                let stray = gn.join(sim.net_mut(), peer, &mut rng);
                assert!(sim.nodes.get(stray.index()).is_none());
                // A neighbor of it leaves, so the stray slot is rewired;
                // then walks reach it as a PROP-G counterpart, a PROP-O
                // side or a moved PROP-O neighbor.
                let neighbor = sim.net().graph().neighbors(stray)[0];
                leave(&mut sim, neighbor, &mut rng);
                sim.run_for(minutes(30));
                // It goes again, never started.
                leave(&mut sim, stray, &mut rng);
                sim.run_for(minutes(5));
                assert!(sim.net().graph().is_connected());
            }
        }
        in_both_modes!(check);
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
    fn the_search_store_drives_as_the_dense_tier_does() {
        // The search tier, asked for with a one-byte budget, keeps no
        // row: on `tiny()` it is the search store — a trial's Var reads
        // inside one stub domain are meeting searches — and on a Waxman
        // graph, which has no decomposition, it is the dense tier's matrix.
        // Where the answers come from must not show in any counter or edge.
        fn on<M: Timing>(waxman: bool, cfg: PropConfig, oracle: &OracleConfig) -> PropSim<M> {
            let mut rng = SimRng::seed_from(14);
            let phys = if waxman {
                prop_netsim::generate_waxman(&prop_netsim::WaxmanParams::tiny(), &mut rng)
            } else {
                generate(&TransitStubParams::tiny(), &mut rng)
            };
            let oracle =
                Arc::new(LatencyOracle::select_and_build_with(&phys, 30, &mut rng, oracle));
            let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
            PropSim::new(net, cfg, &mut rng)
        }
        fn check<M: Timing>() {
            for (waxman, cfg) in [false, true]
                .into_iter()
                .flat_map(|w| [PropConfig::prop_g(), PropConfig::prop_o()].map(|c| (w, c)))
            {
                let mut dense = on::<M>(waxman, cfg.clone(), &OracleConfig::dense());
                let mut rows = on::<M>(waxman, cfg, &OracleConfig::cached(1));
                let tier = if waxman { Tier::Dense } else { Tier::Search };
                assert_eq!(dense.net().oracle().built_tier(), Tier::Dense);
                assert_eq!(rows.net().oracle().built_tier(), tier);
                dense.run_for(minutes(40));
                rows.run_for(minutes(40));
                assert!(rows.overhead().exchanges > 0, "waxman {waxman}");
                assert_eq!(dense.overhead(), rows.overhead());
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

    /// [`PropSim::audit`] after every 20-second slice of PROP-O — at the
    /// driver's `m` (δ(G)), and as a storm at `m = 3` applying every plan
    /// whatever its Var — with Gnutella leaves and joins through
    /// `handle_*` between slices, in both timing modes, on a perfect
    /// network and through [`CallCountPlane`] (dropped, duplicated and
    /// delayed handshakes).
    #[test]
    fn queues_track_rows_through_exchanges_and_churn() {
        fn check<M: Timing>() {
            let mut storm = PropConfig::prop_o_m(3);
            storm.min_var = i64::MIN;
            for (case, (cfg, faulty)) in [PropConfig::prop_o(), storm]
                .into_iter()
                .flat_map(|c| [(c.clone(), false), (c, true)])
                .enumerate()
            {
                let (gn, mut sim) = gnutella_sim::<M>(30, 40 + case as u64, cfg);
                if faulty {
                    sim.set_fault_plane(Box::new(CallCountPlane::default()));
                }
                let mut rng = SimRng::seed_from(case as u64);
                let mut away = Vec::new();
                let (mut leaves, mut joins) = (0, 0);
                sim.audit();
                for slice in 0..120 {
                    sim.run_for(Duration::from_millis(20_000));
                    let at = format!("atomic={} case {case} slice {slice}", M::ATOMIC);
                    if slice % 4 == 1 {
                        let victim = sim.net().graph().pick_live(&mut rng, None).expect("live");
                        away.push(sim.net().peer(victim));
                        let affected = gn.leave(sim.net_mut(), victim, &mut rng);
                        sim.handle_leave(victim, &affected);
                        leaves += 1;
                    } else if slice % 4 == 3 {
                        let peer = away.pop().expect("a peer left two slices ago");
                        let slot = gn.join(sim.net_mut(), peer, &mut rng);
                        sim.handle_join(slot);
                        joins += 1;
                    }
                    sim.audit();
                    assert!(sim.net().graph().is_connected(), "{at}");
                }
                let o = sim.overhead();
                assert!(o.exchanges >= 40, "case {case}: only {} exchanges", o.exchanges);
                assert!(leaves >= 30 && joins >= 30);
            }
        }
        in_both_modes!(check);
    }
}
