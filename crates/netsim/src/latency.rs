//! The latency oracle's two settings — which tier, and how many bytes of
//! rows it may keep — and its build error.
//!
//! Every consumer of `d(u, v)` — PROP probes, LTM detection, the metrics —
//! talks to [`crate::LatencyOracle`], which keeps its answers one of two
//! ways ([`Tier`]), both exact and equal to the bit:
//!
//! * **dense** — every answer precomputed once, O(1) lookups with no
//!   synchronization: the fast path for every paper-scale experiment (n ≤
//!   a few thousand). On a transit–stub graph that is the point query over
//!   the verified decomposition beside one `k × k` block per stub domain
//!   over its `k` members — Σ k² cells, 57 KB at n = 1000 on `ts-large`;
//!   on any other graph (Waxman, multi-homed, disconnected) the full
//!   `n × n` matrix, O(n²) memory.
//! * **row-cache** — exact answers without the matrix. On a transit–stub
//!   graph `d(u, v)` between two stub domains is a point query over the
//!   verified decomposition (16 bytes a member and the transit matrix),
//!   and a pair inside one domain a meeting search confined to it: no row
//!   is kept at all, so a million-member overlay answers in O(n) memory.
//!   On any other graph it is one whole row per *requested source*,
//!   retained in a sharded LRU bounded in bytes: O(n + capacity) memory.
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
}

impl Tier {
    /// The largest member count `Auto` gives the dense tier. Keeps every
    /// paper-scale experiment on the dense fast path while capping the
    /// memory of a graph the row kernel refuses, whose dense tier is the
    /// matrix, at 4096² × 4 B = 64 MiB; a transit–stub graph's blocks are a
    /// small share of that.
    pub const DENSE_MAX_MEMBERS: usize = 4_096;

    /// Every tier, `Auto` first.
    const ALL: [Tier; 3] = [Tier::Auto, Tier::Dense, Tier::Cached];

    /// The tier an oracle over `n` members is built on: `self` unless it is
    /// `Auto`. Never returns `Auto`.
    pub fn resolve(self, n: usize) -> Tier {
        match self {
            Tier::Auto if n <= Self::DENSE_MAX_MEMBERS => Tier::Dense,
            Tier::Auto => Tier::Cached,
            forced => forced,
        }
    }

    /// The name reports and logs print, and [`Tier::parse`] reads back.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Auto => "auto",
            Tier::Dense => "dense",
            Tier::Cached => "row-cache",
        }
    }

    /// Read a tier's label, or the short spelling `--oracle-tier` documents.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "cached" => Some(Tier::Cached),
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
    /// Byte budget for the row-cache tier's resident rows. A row is whole,
    /// two bytes a member (plus small bookkeeping), and kept only on a graph
    /// without the transit–stub decomposition: the default 512 MiB holds
    /// ~2,684 of them at n = 100,000. Unused by the dense tier, and by
    /// either tier on a transit–stub graph.
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

    // The coordinate-embedded tier is gone; `benchmark/src/scale.rs` still
    // spells its configuration, and gets the row-cache tier's.
    #[doc(hidden)]
    pub fn embedded() -> Self {
        OracleConfig { tier: Tier::Cached, ..Default::default() }
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
    /// the row-cache tier refuses it, and only on a graph without the
    /// transit–stub decomposition, where it keeps rows; the dense matrix
    /// holds `u32`.
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
        // The hidden spelling `benchmark/` uses is the cached configuration.
        assert_eq!(OracleConfig::embedded(), OracleConfig::cached(512 << 20));
        // A forced tier is built at any size; only `Auto` reads the count.
        for n in [0, 1, Tier::DENSE_MAX_MEMBERS + 1, 150_001, usize::MAX] {
            for forced in [Tier::Dense, Tier::Cached] {
                assert_eq!(forced.resolve(n), forced, "n = {n}");
            }
        }
    }

    #[test]
    fn auto_resolves_at_the_two_boundaries() {
        // One boundary between the two tiers, and none above it.
        for (n, tier) in [
            (0, Tier::Dense),
            (4_096, Tier::Dense),
            (4_097, Tier::Cached),
            (150_001, Tier::Cached),
            (1_000_000, Tier::Cached),
            (usize::MAX, Tier::Cached),
        ] {
            assert_eq!(Tier::Auto.resolve(n), tier, "n = {n}");
        }
    }

    /// DESIGN.md §9's policy table is these two rows, in this order.
    #[test]
    fn design_policy_table_names_each_tier_and_boundary() {
        const DESIGN: &str = include_str!("../../../DESIGN.md");
        let dense = Tier::DENSE_MAX_MEMBERS;
        let rows = [(Tier::Dense, format!("n ≤ {dense}")), (Tier::Cached, format!("n > {dense}"))];
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
        // The deleted embedded tier's spelling is refused like any other.
        for bogus in ["", "bogus", "Dense", "row_cache", "embedded"] {
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
