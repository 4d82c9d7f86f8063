//! The latency oracle's two settings — which tier, and how many bytes of
//! rows it may keep — and its build error.
//!
//! Every consumer of `d(u, v)` — PROP probes, LTM detection, the metrics —
//! talks to [`crate::LatencyOracle`], which keeps its answers one of three
//! ways ([`Tier`]):
//!
//! * **dense** — the full `n × n` matrix, precomputed once. O(n²) memory,
//!   O(1) lookups with no synchronization. The fast path for every
//!   paper-scale experiment (n ≤ a few thousand).
//! * **row-cache** — exact answers without the matrix. On a transit–stub
//!   graph `d(u, v)` between two stub domains is a point query over the
//!   verified decomposition (8 bytes a member and the transit matrix), and
//!   only a pair inside one domain reads a row — over that domain's hosts
//!   — retained in a sharded LRU bounded in bytes; on any other graph it
//!   is one whole row per *requested source* in the same LRU. O(n +
//!   capacity) memory, which is what lets a 100,000-member overlay run at
//!   all: the dense matrix would need 40 GB.
//! * **coord-embed** — a Vivaldi-style height-vector coordinate per member,
//!   fit once from sampled exact rows; `d(u, v)` is O(1) with no
//!   graph work at query time and O(n) memory, which is what a
//!   1,000,000-member overlay needs. Estimates carry a calibrated error
//!   margin; Var decisions inside the margin escalate to the same exact
//!   rows the row-cache tier keeps (see [`crate::Embedding`] and DESIGN.md
//!   §13).
//!
//! Callers never pick a tier by hand: [`Tier::Auto`] (the default) lets
//! the member count choose through [`Tier::resolve`], the one place the
//! policy is written, and `d()` hides the difference.

use crate::graph::PhysNodeId;
use crate::oracle::MemberIdx;
use crate::rowcache::RowMs;
use prop_engine::json::{ToJson, Value};

/// How a [`crate::LatencyOracle`] keeps its answers — or, for `Auto`, that
/// the member count decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// [`Tier::resolve`] picks from the member count: the production
    /// default.
    Auto,
    Dense,
    Cached,
    Embedded,
}

impl Tier {
    /// The largest member count `Auto` gives the dense matrix. Keeps every
    /// paper-scale experiment on the dense fast path while capping its
    /// memory at 4096² × 4 B = 64 MiB.
    pub const DENSE_MAX_MEMBERS: usize = 4_096;
    /// The largest member count `Auto` gives the row cache. Keeps every
    /// workload the row cache has been proven on exact, and routes the
    /// million-member scale to the O(1) embedding.
    pub const CACHED_MAX_MEMBERS: usize = 150_000;

    /// Every tier, `Auto` first.
    const ALL: [Tier; 4] = [Tier::Auto, Tier::Dense, Tier::Cached, Tier::Embedded];

    /// The tier an oracle over `n` members is built on: `self` unless it is
    /// `Auto`. Never returns `Auto`.
    pub fn resolve(self, n: usize) -> Tier {
        match self {
            Tier::Auto if n <= Self::DENSE_MAX_MEMBERS => Tier::Dense,
            Tier::Auto if n <= Self::CACHED_MAX_MEMBERS => Tier::Cached,
            Tier::Auto => Tier::Embedded,
            forced => forced,
        }
    }

    /// The name reports and logs print, and [`Tier::parse`] reads back.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Auto => "auto",
            Tier::Dense => "dense",
            Tier::Cached => "row-cache",
            Tier::Embedded => "coord-embed",
        }
    }

    /// Read a tier's label, or the short spelling `--oracle-tier` documents.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "cached" => Some(Tier::Cached),
            "embedded" => Some(Tier::Embedded),
            _ => Tier::ALL.into_iter().find(|t| t.label() == s),
        }
    }
}

/// A tier is its label in every results file.
impl ToJson for Tier {
    fn to_json(&self) -> Value {
        self.label().to_json()
    }
}

/// Construction-time settings of [`crate::LatencyOracle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleConfig {
    /// Which tier to build; [`Tier::Auto`] by default.
    pub tier: Tier,
    /// Byte budget for resident rows — the row-cache tier itself, and the
    /// embedded tier's exact escalation path. A row costs two bytes a cell
    /// (plus small bookkeeping): the hosts of one stub domain on a
    /// transit–stub graph (667 at n = 100,000, so every member's row fits
    /// in 128 MiB), the `n` members on any other (the default 512 MiB
    /// holds ~2,684 of those at n = 100,000). Unused by the dense tier.
    pub cache_capacity_bytes: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { tier: Tier::Auto, cache_capacity_bytes: 512 << 20 }
    }
}

impl OracleConfig {
    /// Force the dense tier at any member count.
    pub fn dense() -> Self {
        OracleConfig { tier: Tier::Dense, ..Default::default() }
    }

    /// Force the row-cache tier (at any member count) with the given byte
    /// budget.
    pub fn cached(capacity_bytes: usize) -> Self {
        OracleConfig { tier: Tier::Cached, cache_capacity_bytes: capacity_bytes }
    }

    /// Force the coordinate-embedded tier at any member count.
    pub fn embedded() -> Self {
        OracleConfig { tier: Tier::Embedded, ..Default::default() }
    }
}

/// Why [`OracleBuildError`]'s pair stops the build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairFault {
    /// No path joins the two members.
    Disconnected,
    /// The two are `ms` apart, and a stored row keeps a latency in sixteen
    /// bits: twice the first member's distance to its farthest bounds
    /// every pair (`d` is a metric), and here that is past 65,535 ms. Only
    /// the tiers that keep rows refuse it; the dense matrix holds `u32`.
    TooFar { ms: u32 },
}

/// A member pair the oracle cannot be built over. Returned by
/// [`crate::LatencyOracle::try_build_with`] instead of the historical
/// panic-after-the-fact, and named precisely so generator bugs are
/// debuggable: *which* members, on *which* hosts, and [`PairFault`] says
/// what is wrong with them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleBuildError {
    /// Member index of the pair's source side.
    pub from_member: MemberIdx,
    /// Physical host backing `from_member`.
    pub from_host: PhysNodeId,
    /// Member index of the pair's destination side.
    pub to_member: MemberIdx,
    /// Physical host backing `to_member`.
    pub to_host: PhysNodeId,
    pub fault: PairFault,
}

impl std::fmt::Display for OracleBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let OracleBuildError { from_member, from_host, to_member, to_host, fault } = self;
        match fault {
            PairFault::Disconnected => write!(
                f,
                "latency oracle built over a disconnected member set: \
                 member {from_member} (host {from_host:?}) cannot reach \
                 member {to_member} (host {to_host:?})"
            ),
            PairFault::TooFar { ms } => write!(
                f,
                "latency oracle's rows keep 16-bit milliseconds and this member set is too \
                 wide for them: member {from_member} (host {from_host:?}) is {ms} ms from \
                 member {to_member} (host {to_host:?}), and twice that bounds every pair \
                 (limit {}); the dense tier has no such limit",
                RowMs::MAX
            ),
        }
    }
}

impl std::error::Error for OracleBuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = OracleConfig::default();
        assert_eq!(c.tier, Tier::Auto);
        assert!(c.cache_capacity_bytes >= 1 << 20);
    }

    #[test]
    fn forced_tiers() {
        assert_eq!(OracleConfig::dense().tier, Tier::Dense);
        assert_eq!(
            OracleConfig::cached(1 << 20),
            OracleConfig { tier: Tier::Cached, cache_capacity_bytes: 1 << 20 }
        );
        assert_eq!(OracleConfig::embedded().tier, Tier::Embedded);
        // A forced tier is built at any size; only `Auto` reads the count.
        for n in [0, 1, Tier::DENSE_MAX_MEMBERS + 1, Tier::CACHED_MAX_MEMBERS + 1, usize::MAX] {
            for forced in [Tier::Dense, Tier::Cached, Tier::Embedded] {
                assert_eq!(forced.resolve(n), forced, "n = {n}");
            }
        }
    }

    #[test]
    fn auto_resolves_at_the_two_boundaries() {
        for (n, tier) in [
            (0, Tier::Dense),
            (4_096, Tier::Dense),
            (4_097, Tier::Cached),
            (150_000, Tier::Cached),
            (150_001, Tier::Embedded),
            (usize::MAX, Tier::Embedded),
        ] {
            assert_eq!(Tier::Auto.resolve(n), tier, "n = {n}");
        }
    }

    /// DESIGN.md §9's policy table is these three rows, in this order.
    #[test]
    fn design_policy_table_names_each_tier_and_boundary() {
        const DESIGN: &str = include_str!("../../../DESIGN.md");
        let (dense, cached) = (Tier::DENSE_MAX_MEMBERS, Tier::CACHED_MAX_MEMBERS);
        let rows = [
            (Tier::Dense, format!("n ≤ {dense}")),
            (Tier::Cached, format!("{dense} < n ≤ {cached}")),
            (Tier::Embedded, format!("n > {cached}")),
        ];
        let mut from = 0;
        for (tier, range) in rows {
            let row = format!("| `{}` | {range} |", tier.label());
            let at = DESIGN[from..].find(&row).unwrap_or_else(|| panic!("DESIGN.md lacks {row}"));
            from += at + row.len();
        }
    }

    #[test]
    fn labels_parse_back_and_the_short_spellings_still_do() {
        for tier in Tier::ALL {
            assert_eq!(Tier::parse(tier.label()), Some(tier));
        }
        assert_eq!(Tier::parse("cached"), Some(Tier::Cached));
        assert_eq!(Tier::parse("row-cache"), Some(Tier::Cached));
        assert_eq!(Tier::parse("embedded"), Some(Tier::Embedded));
        assert_eq!(Tier::parse("coord-embed"), Some(Tier::Embedded));
        for bogus in ["", "bogus", "Dense", "row_cache"] {
            assert_eq!(Tier::parse(bogus), None, "{bogus:?}");
        }
        assert_eq!(prop_engine::json::to_string(&Tier::Cached), "\"row-cache\"");
    }

    #[test]
    fn error_names_the_pair() {
        let e = OracleBuildError {
            from_member: 3,
            from_host: PhysNodeId(30),
            to_member: 7,
            to_host: PhysNodeId(70),
            fault: PairFault::Disconnected,
        };
        let msg = e.to_string();
        assert!(msg.contains("disconnected member set"));
        assert!(msg.contains("member 3"));
        assert!(msg.contains("member 7"));
        let msg = OracleBuildError { fault: PairFault::TooFar { ms: 40_040 }, ..e }.to_string();
        assert!(msg.contains("40040 ms"), "{msg}");
        assert!(msg.contains("member 3") && msg.contains("member 7"), "{msg}");
        assert!(!msg.contains('\n'), "one line: {msg}");
    }
}
