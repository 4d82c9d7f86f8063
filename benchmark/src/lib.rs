//! End-to-end and per-layer benchmark of the PROP kernel crates.
//!
//! See `README.md` in this directory for the workloads, the metrics and how
//! they interact; `run.sh` is the one command.

pub mod bench;
pub mod churn;
pub mod cli;
pub mod driver;
pub mod fig5;
pub mod outcome;
pub mod probes;
pub mod refclock;
pub mod scale;
pub mod substrate;
pub mod sweep;
pub mod trace;
