//! # prop — location-aware topology for P2P overlays via peer exchange
//!
//! A production-quality Rust reproduction of *"Towards Location-aware
//! Topology in both Unstructured and Structured P2P Systems"* (Qiu, Chen,
//! Ye, Zhao, Chan — ICPP 2007): the **PROP** family of Peer-exchange
//! Routing Optimization Protocols, together with every substrate the
//! paper's evaluation needs — a GT-ITM-style transit–stub network
//! generator, a deterministic discrete-event kernel, Gnutella/Chord/CAN
//! overlays, and the LTM/PNS/PIS baselines.
//!
//! ## Quickstart
//!
//! ```
//! use prop::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A physical network and an overlay population on top of it.
//! let mut rng = SimRng::seed_from(7);
//! let phys = generate(&TransitStubParams::tiny(), &mut rng);
//! let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 32, &mut rng));
//!
//! // 2. A Gnutella-like overlay, wired obliviously to location.
//! let (gnutella, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
//! let before = net.stretch();
//!
//! // 3. Run PROP-G for a simulated hour.
//! let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
//! sim.run_for(Duration::from_minutes(60));
//!
//! // 4. The overlay now matches the physical network better.
//! let after = sim.net().stretch();
//! assert!(after < before);
//! # let _ = gnutella;
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`engine`] | sim clock, event queue, deterministic RNG, Markov backoff timer |
//! | [`netsim`] | transit–stub generator, Dijkstra, the `d(u,v)` latency oracle |
//! | [`overlay`] | logical graph + placement abstraction; Gnutella, Chord (with join/leave), Pastry, Kademlia, CAN |
//! | [`core`] | **PROP-G / PROP-O** — the paper's contribution |
//! | [`faults`] | deterministic fault plane: loss/dup/reorder, latency spikes, partitions, crash/restart, scripted scenarios, invariant harness |
//! | [`baselines`] | LTM, PNS, PRS, PIS, selfish rewiring |
//! | [`workloads`] | lookup streams, bimodal heterogeneity, churn traces |
//! | [`metrics`] | stretch, lookup latency, time series, degree stats |
//! | [`experiments`] | one runner per figure of the paper's evaluation |

pub use prop_baselines as baselines;
pub use prop_core as core;
pub use prop_engine as engine;
pub use prop_experiments as experiments;
pub use prop_faults as faults;
pub use prop_metrics as metrics;
pub use prop_netsim as netsim;
pub use prop_overlay as overlay;
pub use prop_workloads as workloads;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use prop_baselines::{PrsChord, Rewiring, RewiringSim};
    pub use prop_core::{AsyncProtocolSim, Policy, ProbeMode, PropConfig, ProtocolSim};
    pub use prop_engine::{Duration, SimRng, SimTime};
    pub use prop_faults::{
        transit_bisection, FaultCounters, FaultHarness, FaultPlane, FaultScript,
    };
    pub use prop_metrics::{
        avg_lookup_latency, link_stretch, path_stretch, FaultReport, LatencySummary,
        StretchSummary, TimeSeries,
    };
    pub use prop_netsim::{generate, LatencyOracle, OracleConfig, PhysGraph, TransitStubParams};
    pub use prop_overlay::can::Can;
    pub use prop_overlay::chord::{Chord, ChordParams};
    pub use prop_overlay::gnutella::{Gnutella, GnutellaParams};
    pub use prop_overlay::kademlia::Kademlia;
    pub use prop_overlay::pastry::Pastry;
    pub use prop_overlay::ultrapeer::Ultrapeer;
    pub use prop_overlay::{
        FloodScratch, LogicalGraph, Lookup, OverlayNet, Placement, RouteOutcome, Slot,
    };
    pub use prop_workloads::LookupGen;
}
