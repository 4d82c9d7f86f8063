//! Topology + membership + latency oracle, and the overlays built on them.
//!
//! Mirrors `prop_experiments::setup::Scenario` call for call (same RNG
//! labels, same order), so a workload here consumes the seed exactly as the
//! `fig5` / `traffic` / `scale` binaries do — which is what lets
//! `--verify-ref` compare against `results/`.

use crate::trace::{Kind, Tracer};
use prop_engine::SimRng;
use prop_netsim::{generate, LatencyOracle, OracleConfig, PhysGraph, TransitStubParams};
use prop_overlay::chord::{Chord, ChordParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use prop_overlay::{OverlayNet, Slot};
use std::sync::Arc;

pub struct Substrate {
    pub n: usize,
    pub phys: PhysGraph,
    pub oracle: Arc<LatencyOracle>,
    rng: SimRng,
}

impl Substrate {
    pub fn build(
        params: &TransitStubParams,
        n: usize,
        seed: u64,
        cfg: &OracleConfig,
        tr: &mut Tracer,
    ) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let phys = tr.span(Kind::Topo, || generate(params, &mut rng));
        let oracle = tr.span(Kind::OracleBuild, || {
            Arc::new(LatencyOracle::select_and_build_with(&phys, n, &mut rng, cfg))
        });
        Substrate { n, phys, oracle, rng }
    }

    /// A derived stream for a named stage (forking never advances the root).
    pub fn rng(&self, label: &str) -> SimRng {
        self.rng.fork(label)
    }

    pub fn gnutella(&self, rng: &mut SimRng, tr: &mut Tracer) -> (Gnutella, OverlayNet) {
        tr.span(Kind::OverlayBuild, || {
            Gnutella::build(GnutellaParams::default(), Arc::clone(&self.oracle), rng)
        })
    }

    pub fn chord(&self, rng: &mut SimRng, tr: &mut Tracer) -> (Chord, OverlayNet) {
        tr.span(Kind::OverlayBuild, || {
            Chord::build(ChordParams::default(), Arc::clone(&self.oracle), rng)
        })
    }

    /// Live slots of a freshly built overlay (`0..n` for both builders).
    pub fn all_slots(&self) -> Vec<Slot> {
        (0..self.n as u32).map(Slot).collect()
    }
}
