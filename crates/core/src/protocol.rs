//! Per-peer protocol state: the §3.2 two-phase state machine.
//!
//! A node joins, then runs a **warm-up** of `MAX_INIT_TRIAL` probe trials at
//! a fixed `INIT_TIMER` cadence, cycling through its neighbors in an
//! initially random order. It then enters **maintenance**, where
//!
//! * the first-hop choice reacts to trial outcomes (reward/demote in the
//!   [`crate::neighborq::NeighborQueue`]), and
//! * the probe interval follows the Markov backoff
//!   ([`prop_engine::MarkovTimer`]): doubling on failure, resetting on
//!   success, on exceeding `MAX_TIMER`, or on churn.

use crate::config::PropConfig;
use crate::neighborq::NeighborQueue;
use prop_engine::backoff::TrialOutcome;
use prop_engine::{Duration, MarkovTimer, SimRng};
use prop_overlay::{LogicalGraph, Slot};

/// Protocol phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    WarmUp,
    Maintenance,
}

/// One peer's PROP state. The state *follows the peer*: a PROP-G exchange
/// swaps the two participants' states between their (now traded) slots.
#[derive(Clone, Debug)]
pub struct NodeState {
    timer: MarkovTimer,
    queue: NeighborQueue,
    trials_done: u32,
}

impl NodeState {
    /// Fresh state for a peer occupying `slot`, with the warm-up's random
    /// first-hop order.
    pub fn new(cfg: &PropConfig, g: &LogicalGraph, slot: Slot, rng: &mut SimRng) -> Self {
        NodeState {
            timer: MarkovTimer::new(cfg.init_timer),
            queue: NeighborQueue::init(g.neighbors(slot), rng),
            trials_done: 0,
        }
    }

    pub fn phase(&self, cfg: &PropConfig) -> Phase {
        if self.trials_done < cfg.max_init_trial {
            Phase::WarmUp
        } else {
            Phase::Maintenance
        }
    }

    /// The first hop for the next probe walk.
    pub fn next_first_hop(&self) -> Option<Slot> {
        self.queue.best()
    }

    /// Interval until the next probe.
    pub fn probe_interval(&self) -> Duration {
        self.timer.current()
    }

    /// Record a completed trial through first hop `s`.
    ///
    /// Warm-up: the neighbor order just cycles (demote = move to tail) and
    /// the cadence stays at `INIT_TIMER`. Maintenance: reward/demote and
    /// Markov backoff, per the paper.
    pub fn record_trial(&mut self, cfg: &PropConfig, first_hop: Option<Slot>, exchanged: bool) {
        let phase = self.phase(cfg);
        self.trials_done += 1;
        match phase {
            Phase::WarmUp => {
                if let Some(s) = first_hop {
                    self.queue.demote(s); // pure cycling through the random order
                }
                // cadence fixed at INIT_TIMER — the timer is untouched
            }
            Phase::Maintenance => {
                if let Some(s) = first_hop {
                    if exchanged {
                        self.queue.reward(s);
                    } else {
                        self.queue.demote(s);
                    }
                }
                self.timer.record(if exchanged {
                    TrialOutcome::Exchanged
                } else {
                    TrialOutcome::NoGain
                });
            }
        }
    }

    /// The peer's own participation in an exchange (as initiator or
    /// counterpart) resets its timer — a successful optimization restarts
    /// the probing cycle.
    pub fn on_exchanged(&mut self) {
        self.timer.reset();
    }

    /// Churn touched this node's neighborhood: timer back to `INIT_TIMER`
    /// (the paper's departure/failure handling) and the queue reconciled
    /// with the current neighbor list — departed entries dropped, new
    /// neighbors inserted at the front with maximum preference. `seen` is
    /// the driver's scratch for [`NeighborQueue::resync`].
    pub fn on_neighborhood_changed(&mut self, g: &LogicalGraph, slot: Slot, seen: &mut Vec<bool>) {
        self.timer.reset();
        self.resync_queue(g, slot, seen);
    }

    /// Reconcile the queue with the graph's neighbor list, preserving the
    /// priorities of unchanged entries.
    pub fn resync_queue(&mut self, g: &LogicalGraph, slot: Slot, seen: &mut Vec<bool>) {
        self.queue.resync(g.neighbors(slot), seen);
    }

    /// Rebuild the queue from scratch in random order — used after PROP-G,
    /// where the peer landed at an entirely new logical position ("…and
    /// recalculate the initialized sums"). In place: see
    /// [`NodeState::trade_places`] for why the buffer is already big enough.
    pub fn reinit_queue(&mut self, g: &LogicalGraph, slot: Slot, rng: &mut SimRng) {
        self.queue.reinit(g.neighbors(slot), rng);
    }

    /// PROP-G: the peers behind `self` and `other` traded slots. What a peer
    /// has learnt — its timer and its trial count — travels with it. The
    /// queues stay where they are and are rebuilt by
    /// [`NodeState::reinit_queue`]: a slot's degree does not change under
    /// PROP-G, so the buffer that stays with the slot always fits its
    /// neighborhood and the rebuild never allocates.
    pub fn trade_places(&mut self, other: &mut NodeState) {
        std::mem::swap(&mut self.timer, &mut other.timer);
        std::mem::swap(&mut self.trials_done, &mut other.trials_done);
    }

    /// PROP-O rewire bookkeeping: `lost` edges removed, `gained` inserted
    /// at the front.
    pub fn swap_queue_entries(&mut self, lost: &[Slot], gained: &[Slot]) {
        self.queue.replace(lost, gained);
    }

    #[cfg(test)]
    pub(crate) fn queue(&self) -> &NeighborQueue {
        &self.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PropConfig;

    fn ring(n: u32) -> LogicalGraph {
        let mut g = LogicalGraph::new(n as usize);
        for i in 0..n {
            g.add_edge(Slot(i), Slot((i + 1) % n));
        }
        g
    }

    fn state(g: &LogicalGraph, slot: Slot, seed: u64) -> (PropConfig, NodeState) {
        let cfg = PropConfig::prop_g();
        let st = NodeState::new(&cfg, g, slot, &mut SimRng::seed_from(seed));
        (cfg, st)
    }

    #[test]
    fn starts_in_warmup_and_graduates() {
        let g = ring(6);
        let (cfg, mut st) = state(&g, Slot(0), 1);
        assert_eq!(st.phase(&cfg), Phase::WarmUp);
        for _ in 0..cfg.max_init_trial {
            let hop = st.next_first_hop();
            st.record_trial(&cfg, hop, false);
        }
        assert_eq!(st.phase(&cfg), Phase::Maintenance);
    }

    #[test]
    fn warmup_cadence_is_fixed() {
        let g = ring(6);
        let (cfg, mut st) = state(&g, Slot(0), 2);
        let init = st.probe_interval();
        for _ in 0..cfg.max_init_trial - 1 {
            st.record_trial(&cfg, st.next_first_hop(), false);
            assert_eq!(st.probe_interval(), init, "warm-up must not back off");
        }
    }

    #[test]
    fn maintenance_backs_off_on_failures() {
        let g = ring(6);
        let (cfg, mut st) = state(&g, Slot(0), 3);
        for _ in 0..cfg.max_init_trial {
            st.record_trial(&cfg, st.next_first_hop(), false);
        }
        let init = st.probe_interval();
        st.record_trial(&cfg, st.next_first_hop(), false);
        assert_eq!(st.probe_interval(), init.double());
        st.record_trial(&cfg, st.next_first_hop(), true);
        assert_eq!(st.probe_interval(), init);
    }

    #[test]
    fn warmup_cycles_through_all_neighbors() {
        let g = ring(8); // slot 0 has neighbors 1 and 7
        let (cfg, mut st) = state(&g, Slot(0), 4);
        let mut seen = Vec::new();
        for _ in 0..4 {
            let hop = st.next_first_hop().unwrap();
            seen.push(hop);
            st.record_trial(&cfg, Some(hop), false);
        }
        // Two neighbors cycled twice, alternating.
        assert_eq!(seen[0], seen[2]);
        assert_eq!(seen[1], seen[3]);
        assert_ne!(seen[0], seen[1]);
    }

    #[test]
    fn churn_resets_timer_and_resyncs_queue() {
        let mut g = ring(6);
        let (cfg, mut st) = state(&g, Slot(0), 5);
        for _ in 0..cfg.max_init_trial + 2 {
            st.record_trial(&cfg, st.next_first_hop(), false);
        }
        assert!(st.probe_interval() > cfg.init_timer);
        // Slot 5 leaves the ring; slot 0 gains an edge to 4 via patching.
        g.remove_slot(Slot(5));
        g.add_edge(Slot(0), Slot(4));
        st.on_neighborhood_changed(&g, Slot(0), &mut Vec::new());
        assert_eq!(st.probe_interval(), cfg.init_timer);
        assert!(!st.queue().contains(Slot(5)));
        assert!(st.queue().contains(Slot(4)));
        // New neighbor is at the front.
        assert_eq!(st.next_first_hop(), Some(Slot(4)));
    }

    /// `resync_queue` as it was before `NeighborQueue::resync`, kept as the
    /// differential reference: drain a clone by `best` + `remove` to list
    /// the stale entries, remove them one by one, `add_front` the missing.
    fn resync_queue_reference(st: &mut NodeState, g: &LogicalGraph, slot: Slot) {
        let current = g.neighbors(slot);
        let mut stale = Vec::new();
        let mut probe = st.queue.clone();
        while let Some(s) = probe.best() {
            probe.remove(s);
            if current.binary_search(&s).is_err() {
                stale.push(s);
            }
        }
        for s in stale {
            st.queue.remove(s);
        }
        for &s in current {
            if !st.queue.contains(s) {
                st.queue.add_front(s);
            }
        }
    }

    /// Differential twin for the one-`retain` resync: a Gnutella overlay
    /// under leaves, crashes and joins, every node's queue aged by trials in
    /// between, and after each event every touched node — hubs that lose one
    /// neighbor and gain two, joiners' targets, nodes nothing changed for —
    /// resynced both ways from the same state. Slot, priority and seq of
    /// every entry must agree, and so must the next sequence number (read
    /// off a demotion applied to both). Checked against: returning early
    /// when the lengths are within one of each other, inserting the missing
    /// in descending order, carrying the minimum from before the `retain`,
    /// and not clearing `seen` between resyncs.
    #[test]
    fn one_retain_resync_matches_the_clone_and_drain_reference() {
        use prop_netsim::{generate, LatencyOracle, TransitStubParams};
        use prop_overlay::gnutella::{Gnutella, GnutellaParams};
        use std::sync::Arc;
        const OVERLAYS: u64 = 6;
        const EVENTS: usize = 12;

        let cfg = PropConfig::prop_o();
        let mut seen = Vec::new();
        let mut case = 0usize;
        let (mut dropped, mut arrived, mut both, mut unchanged) = (0, 0, 0, 0);
        for overlay in 0..OVERLAYS {
            let mut rng = SimRng::seed_from(0x5e_0000 + overlay);
            let phys = generate(&TransitStubParams::tiny(), &mut rng);
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 36, &mut rng));
            let (gn, mut net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
            let mut nodes: Vec<Option<NodeState>> = (0..36)
                .map(|i| Some(NodeState::new(&cfg, net.graph(), Slot(i), &mut rng)))
                .collect();
            for event in 0..EVENTS {
                // Age the queues: demotions, rewards, tail/front churn of seq.
                for st in nodes.iter_mut().flatten() {
                    for _ in 0..rng.range(0..6u32) {
                        let hop = st.next_first_hop();
                        st.trials_done = cfg.max_init_trial; // maintenance: reward or demote
                        st.record_trial(&cfg, hop, rng.chance(0.4));
                    }
                }
                // One churn event; `touched` is everyone whose row may differ.
                let rank = rng.pick_rank(net.graph().num_live()).unwrap();
                let victim = match event % 4 {
                    // Every fourth event takes the biggest hub.
                    0 => {
                        let g = net.graph();
                        g.live_slots().max_by_key(|&s| g.degree(s)).unwrap()
                    }
                    _ => net.graph().live_slot_at_rank(rank).unwrap(),
                };
                let peer = net.peer(victim);
                let mut touched = net.graph().neighbors(victim).to_vec();
                if event % 3 == 2 {
                    gn.crash(&mut net, victim);
                } else {
                    gn.leave(&mut net, victim, &mut rng);
                }
                nodes[victim.index()] = None;
                let joined = gn.join(&mut net, peer, &mut rng);
                nodes.resize_with(net.graph().num_slots(), || None);
                nodes[joined.index()] = Some(NodeState::new(&cfg, net.graph(), joined, &mut rng));
                touched.extend_from_slice(net.graph().neighbors(joined));
                touched.push(joined); // fresh queue: nothing to do
                touched.extend(net.graph().live_slots().take(3)); // mostly untouched rows

                let g = net.graph();
                for w in touched {
                    let Some(st) = nodes[w.index()].as_mut() else { continue };
                    let before = st.queue.entries();
                    let lost = before.iter().any(|e| !g.has_edge(w, e.0));
                    let gained = g.neighbors(w).iter().any(|&x| !st.queue.contains(x));
                    match (lost, gained) {
                        (true, true) => both += 1,
                        (true, false) => dropped += 1,
                        (false, true) => arrived += 1,
                        (false, false) => unchanged += 1,
                    }
                    let mut want = st.clone();
                    resync_queue_reference(&mut want, g, w);
                    st.resync_queue(g, w, &mut seen);
                    let at = format!("case {case}: overlay {overlay}, event {event}, {w:?}");
                    assert_eq!(st.queue.entries(), want.queue.entries(), "{at}");
                    let slots: Vec<Slot> = st.queue.entries().iter().map(|e| e.0).collect();
                    let mut sorted = slots.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, g.neighbors(w), "{at}: queue is not the row");
                    if let Some(&s) = slots.first() {
                        want.queue.demote(s);
                        let mut probe = st.queue.clone();
                        probe.demote(s);
                        assert_eq!(probe.entries(), want.queue.entries(), "{at}: next seq");
                    }
                    case += 1;
                }
            }
        }
        assert!(case >= 256, "only {case} cases");
        for (what, hits) in [
            ("only dropped", dropped),
            ("only arrived", arrived),
            ("dropped and arrived", both),
            ("unchanged", unchanged),
        ] {
            assert!(hits >= 8, "{what} reached only {hits} times in {case} cases");
        }
    }

    #[test]
    fn swap_queue_entries_tracks_prop_o() {
        let g = ring(6);
        let (_, mut st) = state(&g, Slot(0), 6);
        st.swap_queue_entries(&[Slot(1)], &[Slot(3)]);
        assert!(!st.queue().contains(Slot(1)));
        assert_eq!(st.next_first_hop(), Some(Slot(3)));
    }

    #[test]
    fn reinit_queue_matches_new_position() {
        let g = ring(6);
        let (_, mut st) = state(&g, Slot(0), 7);
        st.reinit_queue(&g, Slot(3), &mut SimRng::seed_from(8));
        assert!(st.queue().contains(Slot(2)));
        assert!(st.queue().contains(Slot(4)));
        assert!(!st.queue().contains(Slot(1)));
    }

    #[test]
    fn exchanged_resets_backoff() {
        let g = ring(6);
        let (cfg, mut st) = state(&g, Slot(0), 9);
        for _ in 0..cfg.max_init_trial + 3 {
            st.record_trial(&cfg, st.next_first_hop(), false);
        }
        assert!(st.probe_interval() > cfg.init_timer);
        st.on_exchanged();
        assert_eq!(st.probe_interval(), cfg.init_timer);
    }
}
