//! The §3.1 strawman: *selfish* nearest-neighbor rewiring.
//!
//! "A traditional way … is to let each source node select one nearest node
//! in the candidate list and establish the connection with it. This selfish
//! method … is beneficial to the source node itself but is not always
//! beneficial to (or in some case may actually detract from) system-wide
//! optimization."
//!
//! Every step, a node finds its nearest 2-hop candidate, connects to it,
//! and drops its own farthest link — no cooperation, no degree preservation
//! for anyone else (the candidate's degree grows, the dropped neighbor's
//! shrinks). A drop is only performed when the dropped neighbor retains a
//! 2-hop alternative path, which keeps the overlay connected without
//! requiring global coordination. The A4 ablation compares the resulting
//! system-wide average latency against cooperative PROP.

use prop_engine::{Duration, EventQueue, SimRng, SimTime};
use prop_overlay::{OverlayNet, Slot};

/// Per-peer step cadence (matched to PROP's `INIT_TIMER` for fair
/// time-axis comparisons).
const INTERVAL: Duration = Duration::from_minutes(1);
/// Don't drop a link if either endpoint would fall below this degree.
const MIN_DEGREE: usize = 2;

enum Ev {
    Step(Slot),
}

/// An overlay running selfish rewiring.
pub struct SelfishSim {
    net: OverlayNet,
    events: EventQueue<Ev>,
    pub rewires: u64,
}

impl SelfishSim {
    pub fn new(net: OverlayNet, rng: &mut SimRng) -> Self {
        let mut rng = rng.fork("selfish-sim");
        let mut events = EventQueue::new();
        for slot in net.graph().live_slots() {
            let offset = Duration::from_millis(rng.range(0..INTERVAL.as_millis()));
            events.schedule_at(SimTime::ZERO + offset, Ev::Step(slot));
        }
        SelfishSim { net, events, rewires: 0 }
    }

    pub fn net(&self) -> &OverlayNet {
        &self.net
    }

    pub fn net_mut(&mut self) -> &mut OverlayNet {
        &mut self.net
    }

    /// Consume the simulation, keeping the rewired overlay.
    pub fn into_net(self) -> OverlayNet {
        self.net
    }

    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// A freshly joined slot starts stepping one interval from now. Its
    /// tick is scheduled deterministically (no random offset): joins under
    /// a scripted traffic plane must not disturb the event order of
    /// already-scheduled peers.
    pub fn handle_join(&mut self, slot: Slot) {
        self.events.schedule_in(INTERVAL, Ev::Step(slot));
    }

    /// Departures need no queue surgery: a dead slot's pending tick is
    /// retired by the `is_alive` check when it fires.
    pub fn handle_leave(&mut self, _slot: Slot, _affected: &[Slot]) {}

    pub fn run_for(&mut self, window: Duration) {
        let deadline = self.now() + window;
        self.run_until(deadline);
    }

    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((_, ev)) = self.events.pop_until(deadline) {
            match ev {
                Ev::Step(slot) => {
                    if self.net.graph().is_alive(slot) {
                        self.step(slot);
                        self.events.schedule_in(INTERVAL, Ev::Step(slot));
                    }
                }
            }
        }
    }

    fn step(&mut self, u: Slot) {
        let g = self.net.graph();
        let direct: Vec<Slot> = g.neighbors(u).to_vec();
        if direct.len() <= MIN_DEGREE {
            return;
        }
        // Nearest 2-hop candidate.
        let mut best: Option<(u32, Slot)> = None;
        for &x in &direct {
            for &w in g.neighbors(x) {
                if w != u && !g.has_edge(u, w) {
                    let d = self.net.d(u, w);
                    if best.is_none_or(|(b, _)| d < b) {
                        best = Some((d, w));
                    }
                }
            }
        }
        let Some((d_new, w)) = best else { return };
        // Farthest current neighbor, droppable only if it keeps a 2-hop
        // alternative to u and stays above the degree floor.
        let mut drop: Option<(u32, Slot)> = None;
        for &x in &direct {
            let dux = self.net.d(u, x);
            if dux <= d_new {
                continue; // not an improvement
            }
            if g.degree(x) <= MIN_DEGREE {
                continue;
            }
            let has_alt = g.neighbors(x).iter().any(|&y| y != u && g.has_edge(y, u));
            if has_alt && drop.is_none_or(|(b, _)| dux > b) {
                drop = Some((dux, x));
            }
        }
        let Some((_, victim)) = drop else { return };
        self.net.graph_mut().remove_edge(u, victim);
        self.net.graph_mut().add_edge(u, w);
        self.rewires += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netsim::{generate, LatencyOracle, TransitStubParams};
    use prop_overlay::gnutella::{Gnutella, GnutellaParams};
    use std::sync::Arc;

    fn sim(n: usize, seed: u64) -> SelfishSim {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        SelfishSim::new(net, &mut rng)
    }

    #[test]
    fn selfish_rewiring_happens_and_stays_connected() {
        let mut s = sim(30, 1);
        for _ in 0..15 {
            s.run_for(Duration::from_minutes(2));
            assert!(s.net().graph().is_connected());
        }
        assert!(s.rewires > 0);
    }

    #[test]
    fn selfish_does_not_preserve_degree_sequence() {
        let mut s = sim(40, 2);
        let before = s.net().graph().degree_sequence();
        s.run_for(Duration::from_minutes(40));
        assert!(s.rewires > 0);
        assert_ne!(before, s.net().graph().degree_sequence());
    }

    #[test]
    fn respects_degree_floor() {
        let mut s = sim(30, 3);
        s.run_for(Duration::from_minutes(40));
        assert!(s.net().graph().min_degree().unwrap() >= MIN_DEGREE);
    }
}
