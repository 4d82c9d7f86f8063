//! LTM: Location-aware Topology Matching (Liu et al., TPDS '05).
//!
//! Each peer periodically floods a *detector* with a small TTL (2). Every
//! receiver learns its distance to the source, giving the source a latency
//! map of its ≤2-hop region. The peer then:
//!
//! 1. **cuts slow redundant links**: a direct link `u–w` is redundant when
//!    some common neighbor `x` offers a no-slower relay path
//!    (`d(u,x) + d(x,w) ≤ d(u,w)`). The alternative path stays inside the
//!    detected region, so cutting cannot disconnect the overlay;
//! 2. **adds closer nodes**: the nearest 2-hop neighbor that beats the
//!    peer's current worst link becomes a direct neighbor.
//!
//! Unlike PROP-O, cut and add are not paired per node, so degrees drift —
//! exactly the behavior the PROP paper criticizes ("free modification of
//! connections … impairs the natural feature of self-organizing overlay").
//!
//! The driver runs on the same event kernel as `prop_core::ProtocolSim`
//! with one optimization event per peer per `interval`, so LTM and PROP
//! curves share a time axis.

use prop_engine::{Duration, EventQueue, SimRng, SimTime};
use prop_overlay::{OverlayNet, Slot};

/// LTM parameters.
#[derive(Clone, Debug)]
pub struct LtmConfig {
    /// Detector TTL (the paper's "small region"; LTM uses 2).
    pub detector_ttl: u32,
    /// Per-step cap on link cuts (LTM cuts "the most" redundant links; one
    /// conservative cut per step keeps the overlay from thrashing).
    pub max_cuts_per_step: usize,
    /// Never cut below this degree (keeps lookup fan-out usable).
    pub min_degree: usize,
    /// Never add beyond this degree — real Gnutella clients cap their
    /// connection count, and without a cap LTM densifies without bound
    /// (every step finds *some* 2-hop node beating the worst link).
    pub max_degree: usize,
    /// Optimization cadence per peer.
    pub interval: Duration,
}

impl Default for LtmConfig {
    fn default() -> Self {
        LtmConfig {
            detector_ttl: 2,
            max_cuts_per_step: 1,
            min_degree: 2,
            max_degree: 16,
            interval: Duration::from_minutes(1),
        }
    }
}

/// Cumulative LTM message accounting (detector floods dominate).
#[derive(Clone, Copy, Debug, Default)]
pub struct LtmOverhead {
    pub steps: u64,
    pub detector_msgs: u64,
    pub cuts: u64,
    pub adds: u64,
}

enum Ev {
    Optimize(Slot),
}

/// An overlay running LTM.
pub struct LtmSim {
    net: OverlayNet,
    cfg: LtmConfig,
    events: EventQueue<Ev>,
    overhead: LtmOverhead,
}

impl LtmSim {
    /// Start LTM on `net`, one desynchronized optimize loop per live slot.
    pub fn new(net: OverlayNet, cfg: LtmConfig, rng: &mut SimRng) -> Self {
        let mut rng = rng.fork("ltm-sim");
        let mut events = EventQueue::new();
        for slot in net.graph().live_slots() {
            let offset = Duration::from_millis(rng.range(0..cfg.interval.as_millis().max(1)));
            events.schedule_at(SimTime::ZERO + offset, Ev::Optimize(slot));
        }
        LtmSim { net, cfg, events, overhead: LtmOverhead::default() }
    }

    pub fn net(&self) -> &OverlayNet {
        &self.net
    }

    /// Consume the simulation, keeping the optimized overlay.
    pub fn into_net(self) -> OverlayNet {
        self.net
    }

    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    pub fn overhead(&self) -> LtmOverhead {
        self.overhead
    }

    /// Run all events up to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((_, ev)) = self.events.pop_until(deadline) {
            match ev {
                Ev::Optimize(slot) => {
                    if self.net.graph().is_alive(slot) {
                        self.optimize(slot);
                        self.events.schedule_in(self.cfg.interval, Ev::Optimize(slot));
                    }
                }
            }
        }
    }

    /// Advance by `window`.
    pub fn run_for(&mut self, window: Duration) {
        let deadline = self.now() + window;
        self.run_until(deadline);
    }

    /// One LTM optimization step at `u`: flood detector, cut redundant
    /// links, add the best 2-hop neighbor.
    fn optimize(&mut self, u: Slot) {
        self.overhead.steps += 1;
        let g = self.net.graph();
        let direct: Vec<Slot> = g.neighbors(u).to_vec();
        // Detector flood cost: every node within the TTL region forwards
        // once; with TTL 2 that is |N(u)| + Σ_{x∈N(u)} |N(x)| messages.
        let flood_cost: u64 =
            direct.len() as u64 + direct.iter().map(|&x| g.degree(x) as u64).sum::<u64>();
        self.overhead.detector_msgs += flood_cost;

        // ---- 1. cut slow redundant links ----
        // Candidates: direct links with a no-slower 2-hop relay via another
        // direct neighbor; cut the slowest first.
        let mut cuttable: Vec<(u32, Slot)> = Vec::new();
        for &w in &direct {
            let duw = self.net.d(u, w);
            let relay_exists = direct.iter().any(|&x| {
                x != w
                    && self.net.graph().has_edge(x, w)
                    && self.net.d(u, x) + self.net.d(x, w) <= duw
            });
            if relay_exists {
                cuttable.push((duw, w));
            }
        }
        cuttable.sort_by_key(|&(duw, _)| std::cmp::Reverse(duw));
        let mut cuts = 0;
        for (_, w) in cuttable {
            if cuts >= self.cfg.max_cuts_per_step {
                break;
            }
            if self.net.graph().degree(u) <= self.cfg.min_degree
                || self.net.graph().degree(w) <= self.cfg.min_degree
            {
                continue;
            }
            self.net.graph_mut().remove_edge(u, w);
            self.overhead.cuts += 1;
            cuts += 1;
        }

        // ---- 2. add the closest 2-hop neighbor that beats the worst link ----
        if self.net.graph().degree(u) >= self.cfg.max_degree {
            return;
        }
        let direct_now: Vec<Slot> = self.net.graph().neighbors(u).to_vec();
        let worst = direct_now.iter().map(|&x| self.net.d(u, x)).max().unwrap_or(0);
        let mut best: Option<(u32, Slot)> = None;
        for &x in &direct_now {
            for &w in self.net.graph().neighbors(x) {
                if w == u || self.net.graph().has_edge(u, w) {
                    continue;
                }
                let duw = self.net.d(u, w);
                if duw < worst && best.is_none_or(|(b, _)| duw < b) {
                    best = Some((duw, w));
                }
            }
        }
        if let Some((_, w)) = best {
            self.net.graph_mut().add_edge(u, w);
            self.overhead.adds += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netsim::{generate, LatencyOracle, TransitStubParams};
    use prop_overlay::gnutella::{Gnutella, GnutellaParams};
    use std::sync::Arc;

    fn ltm_sim(n: usize, seed: u64) -> LtmSim {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        LtmSim::new(net, LtmConfig::default(), &mut rng)
    }

    #[test]
    fn ltm_reduces_mean_link_latency() {
        let mut sim = ltm_sim(30, 1);
        let before = sim.net().mean_link_latency();
        sim.run_for(Duration::from_minutes(30));
        let after = sim.net().mean_link_latency();
        assert!(after < before, "LTM should reduce mean link latency: {before:.1} → {after:.1}");
        assert!(sim.overhead().cuts + sim.overhead().adds > 0);
    }

    #[test]
    fn ltm_preserves_connectivity() {
        let mut sim = ltm_sim(30, 2);
        for _ in 0..20 {
            sim.run_for(Duration::from_minutes(2));
            assert!(sim.net().graph().is_connected());
        }
    }

    #[test]
    fn ltm_respects_min_degree() {
        let mut sim = ltm_sim(30, 3);
        sim.run_for(Duration::from_minutes(40));
        let min = sim.net().graph().min_degree().unwrap();
        assert!(min >= sim.cfg.min_degree, "min degree {min}");
    }

    #[test]
    fn ltm_changes_degree_sequence() {
        // The PROP paper's critique: LTM does not preserve degrees.
        let mut sim = ltm_sim(40, 4);
        let before = sim.net().graph().degree_sequence();
        sim.run_for(Duration::from_minutes(40));
        let after = sim.net().graph().degree_sequence();
        assert_ne!(before, after, "expected LTM to reshape the degree distribution");
    }

    #[test]
    fn detector_messages_accumulate() {
        let mut sim = ltm_sim(20, 5);
        sim.run_for(Duration::from_minutes(5));
        let o = sim.overhead();
        assert!(o.steps > 0);
        assert!(o.detector_msgs > o.steps, "TTL-2 floods cost several msgs each");
    }
}
