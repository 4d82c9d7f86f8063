//! # prop-netsim — the physical-network substrate
//!
//! The paper evaluates PROP on GT-ITM *transit–stub* topologies: a small,
//! high-latency backbone of transit domains with many low-latency stub
//! domains hanging off it. The original experiments used the GT-ITM
//! generator binary; this crate implements the same model natively:
//!
//! * [`PhysGraph`] — an undirected, latency-weighted graph with per-node
//!   transit/stub classification.
//! * [`TransitStubParams`] / [`generate`] — the
//!   generator, with the paper's two presets
//!   [`TransitStubParams::ts_large`] and [`TransitStubParams::ts_small`].
//! * [`dijkstra`] — single-source shortest paths over link latencies: the
//!   one search routine, over the whole graph or a selected part of it.
//! * [`LatencyOracle`] — the `d(u, v)` oracle every protocol and metric
//!   consults, with two settings ([`OracleConfig`]): the [`Tier`] and a
//!   byte budget for rows. Left on [`Tier::Auto`], member counts up to
//!   [`Tier::DENSE_MAX_MEMBERS`] precompute the full latency matrix (the
//!   paper-scale fast path); populations up to
//!   [`Tier::CACHED_MAX_MEMBERS`] answer a pair in two stub domains from
//!   the decomposition below and the rest from a byte-bounded sharded LRU
//!   of on-demand rows, so a 100,000-member overlay runs in 130 MB of
//!   process memory instead of the 40 GB a dense matrix would need; and larger
//!   populations (the million-member scale) answer in O(1) from a
//!   Vivaldi-style network-coordinate embedding ([`Embedding`]) with a
//!   calibrated error margin and an exact-fallback band. See [`latency`]
//!   and [`embed`], and DESIGN.md §9/§13 for the memory and error models.
//! * The row kernel (private module `decomp`) — how the exact answers of
//!   every tier are made. A transit–stub graph hangs each stub domain off
//!   its transit node by a single link, so `d(u, v) = up(u) +
//!   T[gw(u)][gw(v)] + up(v)` across domains, exactly; when the oracle
//!   finds that structure in the graph it is given, that sum *is* the row
//!   tiers' `d` for such a pair, the only row they keep is one search
//!   inside the source's own domain, and a whole row (the dense matrix's,
//!   the embedding fit's) is the sum per member plus that search;
//!   otherwise (Waxman, multi-homed domains) a row is a whole-graph
//!   Dijkstra. See DESIGN.md §9.
//!
//! ## Faithfulness notes (see DESIGN.md §3)
//!
//! Link-class latencies default to transit–transit 100 ms, stub–transit
//! 20 ms, stub–stub 5 ms. `d(u, v)` is the shortest-path latency in this
//! graph — exactly the quantity a real PROP deployment estimates by probing.

mod decomp;
pub mod dijkstra;
pub mod embed;
pub mod graph;
pub mod latency;
pub mod oracle;
mod rowcache;
pub mod transit_stub;
pub mod waxman;

pub use embed::{EmbedCalibration, EmbedStats, Embedding};
pub use graph::{LinkClass, NodeClass, PhysGraph, PhysNodeId};
pub use latency::{OracleBuildError, OracleConfig, PairFault, Tier};
pub use oracle::LatencyOracle;
pub use rowcache::CacheStats;
pub use transit_stub::{generate, TransitStubParams};
pub use waxman::{generate_waxman, WaxmanParams};
