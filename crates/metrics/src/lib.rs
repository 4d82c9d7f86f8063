//! # prop-metrics — the paper's evaluation metrics
//!
//! * [`latency`] — average lookup latency over a pair workload (the
//!   Gnutella metric of Fig. 5 and the normalized delay of Fig. 7).
//! * [`stretch`] — the §4.2 stretch definitions: *link stretch* (mean
//!   logical link latency over mean physical link latency — the quantity
//!   PROP provably reduces) and *path stretch* (per-lookup route latency
//!   over direct physical latency — the Chord metric of Fig. 6).
//! * [`timeseries`] — labelled (minutes, value) series; what every figure
//!   plots.
//! * [`degree`] — degree-distribution summaries for the PROP-O
//!   power-law-preservation argument.
//! * [`oraclestats`] — latency-oracle row-cache hit/miss/eviction counters
//!   and coordinate-embedding query/escalation/calibration reports for
//!   large-scale (beyond-paper) runs.
//! * [`faultstats`] — fault-plane counters (drops, dups, reorders,
//!   partition time, crashed-commit aborts) with derived rates, for the
//!   robustness sweeps.
//! * [`trafficstats`] — per-diurnal-phase stretch/delivery/overhead rows
//!   and per-transit-domain event totals for scripted traffic runs.
//! * [`ci`] — cross-seed mean / sample-stddev / 95%-CI summaries (Student
//!   t for small seed counts) backing the Monte-Carlo sweep orchestrator.
//! * [`plane`] — the measurement plane's determinism machinery: the fixed
//!   chunk size and the oracle-row prefetch that make every measurement a
//!   function of the pair list alone.

pub mod ci;
pub mod degree;
pub mod faultstats;
pub mod floodcost;
pub mod latency;
pub mod oraclestats;
pub mod plane;
pub mod stretch;
pub mod timeseries;
pub mod trafficstats;

pub use ci::{t_critical_95, MetricSummary};
pub use faultstats::FaultReport;
pub use floodcost::{flood_messages, mean_flood_messages};
pub use latency::{avg_lookup_latency, LatencySummary};
pub use oraclestats::{OracleCacheReport, OracleEmbedReport};
pub use plane::{warm_pair_rows, MEASURE_CHUNK};
pub use stretch::{link_stretch, path_stretch, StretchSummary};
pub use timeseries::TimeSeries;
pub use trafficstats::{TrafficDomainRow, TrafficPhaseRow, TrafficReport};

// The names from when each metric had a serial and a parallel twin. `benchmark/`
// (pinned by BENCHMARK.json) is the only user left; ROADMAP item 3's benchmark
// PR renames its call sites and deletes these.
pub use floodcost::mean_flood_messages as par_mean_flood_messages;
pub use latency::avg_lookup_latency as par_avg_lookup_latency;
pub use stretch::path_stretch as par_path_stretch;
