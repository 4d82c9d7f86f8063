//! The latency oracle's configuration and build error.
//!
//! Every consumer of `d(u, v)` — PROP probes, LTM detection, the metrics —
//! talks to [`crate::LatencyOracle`], which has three tiers:
//!
//! * **dense** — the full `n × n` matrix, precomputed once. O(n²) memory,
//!   O(1) lookups with no synchronization. The fast path for every
//!   paper-scale experiment (n ≤ a few thousand).
//! * **row-cache** — one row per *requested source*, retained in a
//!   sharded LRU bounded in bytes. O(capacity) memory regardless of `n`,
//!   which is what lets a 100,000-member overlay run at all: the dense
//!   matrix would need 40 GB, the cache runs in a few hundred MB.
//! * **coord-embed** — a Vivaldi-style height-vector coordinate per member,
//!   fit once from sampled exact rows; `d(u, v)` is O(1) with no
//!   graph work at query time and O(n) memory, which is what a
//!   1,000,000-member overlay needs. Estimates carry a calibrated error
//!   margin; Var decisions inside the margin escalate to an internal
//!   row-cache tier (see [`crate::EmbedOracle`] and DESIGN.md §13).
//!
//! Callers never pick a tier by hand; [`OracleConfig::dense_threshold`]
//! and [`OracleConfig::embed_threshold`] route construction, and the
//! facade's `d()` hides the difference.

use crate::embed::EmbedConfig;
use crate::graph::PhysNodeId;
use crate::oracle::MemberIdx;

/// Construction-time knobs for [`crate::LatencyOracle`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OracleConfig {
    /// Member counts up to this build the dense matrix tier; larger counts
    /// get the row cache. The default (4,096) keeps every paper-scale
    /// experiment on the dense fast path while capping its memory at
    /// 4096² × 4 B = 64 MiB.
    pub dense_threshold: usize,
    /// Byte budget for resident rows in the row-cache tier. One row costs
    /// `4 × n` bytes (plus small bookkeeping), so the default 512 MiB holds
    /// ~1,342 rows at n = 100,000.
    pub cache_capacity_bytes: usize,
    /// Number of independent LRU shards (each with its own lock); must be
    /// ≥ 1. More shards ⇒ less contention under parallel query load.
    pub cache_shards: usize,
    /// Member counts above this get the coordinate-embedded tier instead of
    /// the row cache. The default (150,000) keeps every workload the row
    /// cache has been proven on exact, and routes the million-member scale
    /// to the O(1) embedding.
    pub embed_threshold: usize,
    /// Fit and fallback-band knobs of the coordinate-embedded tier; unused
    /// by the other two.
    pub embed: EmbedConfig,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            dense_threshold: 4096,
            cache_capacity_bytes: 512 << 20,
            cache_shards: 16,
            embed_threshold: 150_000,
            embed: EmbedConfig::default(),
        }
    }
}

impl OracleConfig {
    /// Force the dense tier at any member count.
    pub fn dense() -> Self {
        OracleConfig { dense_threshold: usize::MAX, ..Default::default() }
    }

    /// Force the row-cache tier (at any member count) with the given byte
    /// budget.
    pub fn cached(capacity_bytes: usize) -> Self {
        OracleConfig {
            dense_threshold: 0,
            cache_capacity_bytes: capacity_bytes,
            embed_threshold: usize::MAX,
            ..Default::default()
        }
    }

    /// Force the coordinate-embedded tier at any member count.
    pub fn embedded() -> Self {
        OracleConfig { dense_threshold: 0, embed_threshold: 0, ..Default::default() }
    }
}

/// A member pair the oracle cannot connect. Returned by the `try_build`
/// constructors instead of the historical panic-after-the-fact, and named
/// precisely so generator bugs are debuggable: *which* members, on *which*
/// hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleBuildError {
    /// Member index of the unreachable pair's source side.
    pub from_member: MemberIdx,
    /// Physical host backing `from_member`.
    pub from_host: PhysNodeId,
    /// Member index of the unreachable pair's destination side.
    pub to_member: MemberIdx,
    /// Physical host backing `to_member`.
    pub to_host: PhysNodeId,
}

impl std::fmt::Display for OracleBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "latency oracle built over a disconnected member set: \
             member {} (host {:?}) cannot reach member {} (host {:?})",
            self.from_member, self.from_host, self.to_member, self.to_host
        )
    }
}

impl std::error::Error for OracleBuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = OracleConfig::default();
        assert!(c.dense_threshold >= 4096);
        assert!(c.cache_capacity_bytes >= 1 << 20);
        assert!(c.cache_shards >= 1);
    }

    #[test]
    fn forced_tiers() {
        assert_eq!(OracleConfig::dense().dense_threshold, usize::MAX);
        let c = OracleConfig::cached(1 << 20);
        assert_eq!(c.dense_threshold, 0);
        assert_eq!(c.cache_capacity_bytes, 1 << 20);
        assert_eq!(c.embed_threshold, usize::MAX, "cached() must never route to the embedding");
        let e = OracleConfig::embedded();
        assert_eq!(e.dense_threshold, 0);
        assert_eq!(e.embed_threshold, 0);
    }

    #[test]
    fn error_names_the_pair() {
        let e = OracleBuildError {
            from_member: 3,
            from_host: PhysNodeId(30),
            to_member: 7,
            to_host: PhysNodeId(70),
        };
        let msg = e.to_string();
        assert!(msg.contains("disconnected member set"));
        assert!(msg.contains("member 3"));
        assert!(msg.contains("member 7"));
    }
}
