//! # prop-experiments — regenerating the paper's evaluation
//!
//! One [`registry`] of experiments behind one binary, `prop <experiment>
//! [panel] [flags]` ([`cli`]); `prop list` prints the index. One module per
//! experiment, every panel an explicit function returning the plotted rows:
//!
//! | module | paper figure | panels |
//! |---|---|---|
//! | [`fig5`] | Fig. 5 — PROP-G in a Gnutella-like environment (avg lookup latency vs time) | (a) TTL scale, (b) system size, (c) physical topology |
//! | [`fig6`] | Fig. 6 — PROP-G in a Chord environment (stretch vs time) | (a) TTL scale, (b) system size, (c) physical topology |
//! | [`fig7`] | Fig. 7 — PROP-O vs PROP-G vs LTM under bimodal heterogeneity (normalized delay vs fraction of fast-node lookups) | single panel |
//! | [`ablation`] | §3–§5 analysis and prose claims | A1 overhead … A12 flood cost |
//! | [`generality`] | §1/§6 headline | G1: one PROP-G, six overlay families |
//! | [`faults`] | robustness (beyond-paper) | F1 loss × partition sweep, F2 partition-recovery timeline |
//! | [`traffic`] | scripted production traffic (beyond-paper) | diurnal-regional and flash-crowd scenarios, PROP-G vs PROP-O vs selfish per diurnal phase |
//! | [`scale`] | beyond-paper scale | the exact oracle and the driver at 10^5–10^6 members |
//!
//! Each experiment takes a [`Scale`]: `Paper` reproduces the published
//! parameterization (n = 1000 over the ≈3,000-host `ts-large` topology,
//! two simulated hours), `Quick` shrinks everything for smoke tests.
//!
//! Any panel with a `run` also runs as a seed-sharded Monte-Carlo sweep
//! ([`sweep`]; `--seeds N [--resume]`): N derived seeds fan across the
//! machine's cores, each seed streams its record to
//! `results/<sweep>/seed-<k>.json`, and the aggregate reports every number
//! the panel's report holds as mean ± 95% CI.

pub mod ablation;
pub mod cli;
pub mod faults;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod generality;
pub mod plot;
pub mod registry;
pub mod report;
pub mod scale;
pub mod setup;
pub mod sweep;
pub mod traffic;

pub use setup::{Scale, Scenario, Topology};
