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
    /// neighbors inserted at the front with maximum preference.
    pub fn on_neighborhood_changed(&mut self, g: &LogicalGraph, slot: Slot) {
        self.timer.reset();
        self.resync_queue(g, slot);
    }

    /// Reconcile the queue with the graph's neighbor list, preserving the
    /// priorities of unchanged entries.
    pub fn resync_queue(&mut self, g: &LogicalGraph, slot: Slot) {
        let current = g.neighbors(slot);
        let stale: Vec<Slot> = {
            let mut out = Vec::new();
            let mut probe = self.queue.clone();
            while let Some(s) = probe.best() {
                probe.remove(s);
                if current.binary_search(&s).is_err() {
                    out.push(s);
                }
            }
            out
        };
        for s in stale {
            self.queue.remove(s);
        }
        for &s in current {
            if !self.queue.contains(s) {
                self.queue.add_front(s);
            }
        }
    }

    /// Rebuild the queue from scratch in random order — used after PROP-G,
    /// where the peer landed at an entirely new logical position ("…and
    /// recalculate the initialized sums").
    pub fn reinit_queue(&mut self, g: &LogicalGraph, slot: Slot, rng: &mut SimRng) {
        self.queue = NeighborQueue::init(g.neighbors(slot), rng);
    }

    /// PROP-O rewire bookkeeping: `lost` edges removed, `gained` inserted
    /// at the front.
    pub fn swap_queue_entries(&mut self, lost: &[Slot], gained: &[Slot]) {
        for &s in lost {
            self.queue.remove(s);
        }
        for &s in gained {
            if !self.queue.contains(s) {
                self.queue.add_front(s);
            }
        }
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
        st.on_neighborhood_changed(&g, Slot(0));
        assert_eq!(st.probe_interval(), cfg.init_timer);
        assert!(!st.queue().contains(Slot(5)));
        assert!(st.queue().contains(Slot(4)));
        // New neighbor is at the front.
        assert_eq!(st.next_first_hop(), Some(Slot(4)));
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
