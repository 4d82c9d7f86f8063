//! # prop-workloads — evaluation inputs
//!
//! Generators for everything the paper's experiments feed into an overlay:
//!
//! * [`lookups`] — streams of (source, destination) lookup pairs: uniform
//!   (Figs. 5/6) or destination-skewed toward fast nodes (Fig. 7's x-axis,
//!   "the destination of lookup operations will be concentrated on the
//!   powerful nodes").
//! * [`hetero`] — the §5.3 bimodal node-heterogeneity model: a fraction of
//!   peers are *fast* (small processing delay), the rest *slow*.
//! * [`churn`] — Poisson join/leave traces for the dynamic-environment
//!   experiments.
//! * [`traffic`] — the scripted production traffic plane: JSON
//!   [`TrafficScript`]s (per-transit-domain diurnal rate tables, flash
//!   crowds, shifting Zipf popularity) compiled under one seed into a
//!   replayable [`prop_core::TrafficPlane`] event trace. The static
//!   [`churn`] and [`zipf`] generators route through its arrival and
//!   popularity processes.

pub mod churn;
pub mod hetero;
pub mod lookups;
pub mod traffic;
pub mod zipf;

pub use hetero::BimodalParams;
pub use lookups::LookupGen;
pub use traffic::{
    compile, CompiledTraffic, DomainProfile, FlashCrowd, PopularityProcess, PopularityShift,
    TrafficScript,
};
