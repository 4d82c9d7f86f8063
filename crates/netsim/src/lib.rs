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
//!   consults, exact at every scale, with one setting ([`OracleConfig`]):
//!   the [`Tier`]. Left on [`Tier::Auto`], member counts up to
//!   [`Tier::DENSE_MAX_MEMBERS`] precompute every answer (the paper-scale
//!   fast path: on a transit–stub graph the decomposition below and one
//!   block per stub domain, on any other the full latency matrix); larger
//!   populations answer from the search store, which keeps no row — a
//!   pair in two stub domains is a point query over the decomposition
//!   below, a pair inside one a meeting search confined to it — so a
//!   million-member overlay runs in O(n) oracle memory. A graph without
//!   the decomposition is the matrix on every tier, and refused past that
//!   member count. See [`latency`] and DESIGN.md §9 for the memory model.
//! * [`Source`] — the oracle's one read path: [`LatencyOracle::source`]
//!   loads a member's record and transit row once, and each
//!   [`Source::to`] is then one record load and one transit cell;
//!   `d(a, b)` is `source(a).to(b)`. [`Source::to_point`] is the same
//!   read against a member's [`Point`] (its record, held by the caller),
//!   answered only across tags.
//! * The row kernel (private module `decomp`) — how the exact answers of
//!   both tiers are made. A transit–stub graph hangs each stub domain off
//!   its transit node by a single link, so `d(u, v) = up(u) +
//!   T[gw(u)][gw(v)] + up(v)` across domains, exactly, and a pair inside
//!   one domain never gains by leaving it; when the oracle finds that
//!   structure in the graph it is given, that sum and one bidirectional
//!   Dijkstra inside the domain answer every pair, and the dense tier's
//!   per-domain blocks are rows of one search inside the source's own
//!   domain; otherwise (Waxman, multi-homed domains) a row is a
//!   whole-graph Dijkstra, and the oracle the matrix of them. See
//!   DESIGN.md §9.
//!
//! ## Faithfulness notes (see DESIGN.md §3)
//!
//! Link-class latencies default to transit–transit 100 ms, stub–transit
//! 20 ms, stub–stub 5 ms. `d(u, v)` is the shortest-path latency in this
//! graph — exactly the quantity a real PROP deployment estimates by probing.

mod decomp;
pub mod dijkstra;
pub mod graph;
pub mod latency;
pub mod oracle;
pub mod transit_stub;
pub mod waxman;

pub use graph::{LinkClass, NodeClass, PhysGraph, PhysNodeId};
pub use latency::{OracleBuildError, OracleConfig, Tier};
#[doc(hidden)]
pub use oracle::CacheStats;
pub use oracle::{LatencyOracle, Point, Source};
pub use transit_stub::{generate, TransitStubParams};
pub use waxman::{generate_waxman, WaxmanParams};
