//! The latency oracle's one setting — which tier — and its build error.
//!
//! Every consumer of `d(u, v)` — PROP probes, LTM detection, the metrics —
//! talks to [`crate::LatencyOracle`], which keeps its answers in one of two
//! stores, both exact and equal to the bit, and neither keeps a row:
//!
//! * **dense** — every answer precomputed once, O(1) lookups with no
//!   synchronization: the fast path for every paper-scale experiment (n ≤
//!   a few thousand). On a transit–stub graph that is the point query over
//!   the verified decomposition beside one `k × k` block per stub domain
//!   over its `k` members — Σ k² cells, 57 KB at n = 1000 on `ts-large`;
//!   on any other graph (Waxman, multi-homed) the full `n × n` matrix,
//!   O(n²) memory.
//! * **search** — exact answers without the blocks, on a transit–stub
//!   graph only: `d(u, v)` between two stub domains is a point query over
//!   the verified decomposition (16 bytes a member and the transit
//!   matrix), and a pair inside one domain a meeting search confined to it,
//!   so a million-member overlay answers in O(n) memory.
//!
//! Callers never pick a tier by hand: [`Tier::Auto`] (the default) lets
//! the member count choose through [`Tier::resolve`], the one place the
//! policy is written, and `d()` hides the difference. A graph without the
//! decomposition has no search store, so every tier builds its matrix
//! there, and a member set too large for one is refused
//! ([`OracleBuildError::TooManyForMatrix`]).

use crate::graph::PhysNodeId;
use crate::oracle::MemberIdx;
use prop_engine::json::{ToJson, Value};

/// How a [`crate::LatencyOracle`] keeps its answers — or, for `Auto`, that
/// the member count decides.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Tier {
    /// [`Tier::resolve`] picks from the member count: the production
    /// default.
    #[default]
    Auto,
    Dense,
    /// The search store on a transit–stub graph; on any other, the dense
    /// matrix.
    Search,
}

impl Tier {
    /// The largest member count `Auto` gives the dense tier, and the
    /// largest any tier builds over a graph without the transit–stub
    /// decomposition, whose dense tier is the matrix: 4096² × 4 B = 64 MiB.
    /// Keeps every paper-scale experiment on the dense fast path; a
    /// transit–stub graph's blocks are a small share of that.
    pub const DENSE_MAX_MEMBERS: usize = 4_096;

    /// The tier an oracle over `n` members is built on: `self` unless it is
    /// `Auto`. Never returns `Auto`.
    pub fn resolve(self, n: usize) -> Tier {
        match self {
            Tier::Auto if n <= Self::DENSE_MAX_MEMBERS => Tier::Dense,
            Tier::Auto => Tier::Search,
            forced => forced,
        }
    }

    /// The name reports and logs print.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Auto => "auto",
            Tier::Dense => "dense",
            Tier::Search => "search",
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleConfig {
    /// Which tier to build; [`Tier::Auto`] by default.
    pub tier: Tier,
    // Ignored: there is no row store to budget. `benchmark/src/scale.rs`
    // spells it in a struct literal; the next `benchmark` change drops it.
    #[doc(hidden)]
    pub cache_capacity_bytes: usize,
}

impl OracleConfig {
    /// Force the dense tier at any member count.
    pub fn dense() -> Self {
        OracleConfig { tier: Tier::Dense, ..Default::default() }
    }

    /// Force [`Tier::Search`] at any member count. The byte count is
    /// ignored: no tier keeps a row.
    pub fn cached(_capacity_bytes: usize) -> Self {
        OracleConfig { tier: Tier::Search, ..Default::default() }
    }

    // The coordinate-embedded tier is gone; `benchmark/src/scale.rs` still
    // spells its configuration, and gets the search tier's.
    #[doc(hidden)]
    pub fn embedded() -> Self {
        OracleConfig::cached(0)
    }
}

/// Why [`crate::LatencyOracle::try_build_with`] refused a member set. It
/// never panics after the fact, and names precisely what is wrong so
/// generator bugs are debuggable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleBuildError {
    /// No path joins member `from_member` (on host `from_host`) to member
    /// `to_member` (on `to_host`).
    Disconnected {
        from_member: MemberIdx,
        from_host: PhysNodeId,
        to_member: MemberIdx,
        to_host: PhysNodeId,
    },
    /// The graph lacks the transit–stub decomposition, so the oracle would
    /// be the `n × n` matrix, and `members` is past
    /// [`Tier::DENSE_MAX_MEMBERS`]. Refused before any row is made.
    TooManyForMatrix { members: usize },
}

impl std::fmt::Display for OracleBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            OracleBuildError::Disconnected { from_member, from_host, to_member, to_host } => {
                write!(
                    f,
                    "latency oracle built over a disconnected member set: \
                     member {from_member} (host {from_host:?}) cannot reach \
                     member {to_member} (host {to_host:?})"
                )
            }
            OracleBuildError::TooManyForMatrix { members } => write!(
                f,
                "latency oracle over {members} members of a graph without the transit–stub \
                 decomposition: its answers are an n × n matrix, built for at most {} members",
                Tier::DENSE_MAX_MEMBERS
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
        assert_eq!(c.tier.resolve(1_000), Tier::Dense);
    }

    #[test]
    fn forced_tiers() {
        assert_eq!(OracleConfig::dense().tier, Tier::Dense);
        // The byte count is no setting, and the hidden spelling `benchmark/`
        // uses is the cached configuration.
        assert_eq!(OracleConfig::cached(1 << 20), OracleConfig::cached(1));
        assert_eq!(OracleConfig::cached(1).tier, Tier::Search);
        assert_eq!(OracleConfig::embedded(), OracleConfig::cached(512 << 20));
        // A forced tier is built at any size; only `Auto` reads the count.
        for n in [0, 1, Tier::DENSE_MAX_MEMBERS + 1, 150_001, usize::MAX] {
            for forced in [Tier::Dense, Tier::Search] {
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
            (4_097, Tier::Search),
            (150_001, Tier::Search),
            (1_000_000, Tier::Search),
            (usize::MAX, Tier::Search),
        ] {
            assert_eq!(Tier::Auto.resolve(n), tier, "n = {n}");
        }
    }

    /// DESIGN.md §9's policy table is these two rows, in this order.
    #[test]
    fn design_policy_table_names_each_tier_and_boundary() {
        const DESIGN: &str = include_str!("../../../DESIGN.md");
        let dense = Tier::DENSE_MAX_MEMBERS;
        let rows = [(Tier::Dense, format!("n ≤ {dense}")), (Tier::Search, format!("n > {dense}"))];
        let mut from = 0;
        for (tier, range) in rows {
            let row = format!("| `{}` | {range} |", tier.label());
            let at = DESIGN[from..].find(&row).unwrap_or_else(|| panic!("DESIGN.md lacks {row}"));
            from += at + row.len();
        }
    }

    #[test]
    fn error_names_the_pair() {
        let e = OracleBuildError::Disconnected {
            from_member: 3,
            from_host: PhysNodeId(30),
            to_member: 7,
            to_host: PhysNodeId(70),
        };
        let msg = e.to_string();
        assert!(msg.contains("disconnected member set"));
        assert!(msg.contains("member 3"));
        assert!(msg.contains("member 7"));
        let msg = OracleBuildError::TooManyForMatrix { members: 4_097 }.to_string();
        assert!(msg.contains("4097 members") && msg.contains("4096"), "{msg}");
        assert!(!msg.contains('\n'), "one line: {msg}");
    }
}
