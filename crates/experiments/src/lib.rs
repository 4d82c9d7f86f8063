//! # prop-experiments — regenerating the paper's evaluation
//!
//! One module per figure, with every panel an explicit function returning
//! the plotted series:
//!
//! | module | paper figure | panels |
//! |---|---|---|
//! | [`fig5`] | Fig. 5 — PROP-G in a Gnutella-like environment (avg lookup latency vs time) | (a) TTL scale, (b) system size, (c) physical topology |
//! | [`fig6`] | Fig. 6 — PROP-G in a Chord environment (stretch vs time) | (a) TTL scale, (b) system size, (c) physical topology |
//! | [`fig7`] | Fig. 7 — PROP-O vs PROP-G vs LTM under bimodal heterogeneity (normalized delay vs fraction of fast-node lookups) | single panel |
//! | [`ablation`] | §4.3 / §5 text claims | A1 overhead, A2 churn, A3 combining with PNS/PIS, A4 selfish rewiring |
//! | [`faults`] | robustness (beyond-paper) | loss × partition sweep, partition-recovery timeline |
//! | [`traffic`] | scripted production traffic (beyond-paper) | diurnal-regional and flash-crowd scenarios, PROP-G vs PROP-O vs selfish per diurnal phase |
//!
//! Each experiment takes a [`Scale`]: `Paper` reproduces the published
//! parameterization (n = 1000 over the ≈3,000-host `ts-large` topology,
//! two simulated hours), `Quick` shrinks everything for smoke tests.
//!
//! Any of these can also run as a seed-sharded Monte-Carlo sweep
//! ([`sweep`], or `--seeds N [--resume]` on the figure binaries): N
//! derived seeds fan across the machine's cores, each seed streams its record
//! to `results/<sweep>/seed-<k>.json`, and the aggregate reports every
//! headline metric as mean ± 95% CI.

pub mod ablation;
pub mod embed_agreement;
pub mod faults;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod generality;
pub mod plot;
pub mod report;
pub mod setup;
pub mod sweep;
pub mod traffic;

pub use setup::{OracleTier, Scale, Scenario, Topology};

/// Convenience re-export used by the figure binaries: convergence summary
/// of a sampled series (see [`prop_metrics::convergence`]).
pub fn convergence_of(ts: &prop_metrics::TimeSeries) -> Option<prop_metrics::Convergence> {
    prop_metrics::convergence(ts)
}
