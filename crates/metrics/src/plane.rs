//! The measurement plane's determinism machinery.
//!
//! Every figure panel measures the overlay by running thousands of lookups
//! over a pair workload. The workload is cut into fixed-size chunks that
//! are measured on every core (`prop_engine::par::map`, the calling thread
//! one of the workers) and merged in chunk order, under one contract: **the
//! result is a function of the pair list alone** — not of the core count,
//! nor of which worker took which chunk. Two mechanisms deliver it:
//!
//! * **Exact integer accumulation** wherever the measured quantities are
//!   integers (lookup latency in ms, hops, flood message counts): integer
//!   addition is associative and commutative, so any chunking produces the
//!   same totals, and the floating-point mean is computed exactly once
//!   from them.
//! * **Fixed-size chunking** where the per-pair quantity is itself a float
//!   (path stretch is a latency ratio): the pair list is split into
//!   [`MEASURE_CHUNK`]-sized chunks — a constant — each chunk is summed
//!   sequentially, and the per-chunk partials are folded in chunk-index
//!   order, so the additions happen in one order on any machine even
//!   though f64 addition is not associative.
//!
//! Chunks are independent (each owns its [`prop_overlay::FloodScratch`],
//! so flooding overlays allocate nothing per lookup, and only reads the
//! shared overlay and oracle), which is what the fan-out relies on. A
//! measurement called from inside a fanned-out run — a seed of a sweep, a
//! curve of a panel — runs its chunks inline on that run's thread. The one
//! thing the chunks share beyond the net is its flood view, the link costs
//! a flooding overlay reads: whichever chunk floods first builds it, the
//! others wait for it, and it is a function of the net's state alone. No
//! oracle store keeps a row, and the search store's meeting scratch is per
//! thread and forgets each query, so which chunk asked first never shows
//! in a value.

/// Chunk size for the measurement plane's pair-list decomposition.
///
/// This is the determinism anchor for float-valued metrics: per-chunk
/// partials are summed over exactly these chunks and folded in chunk-index
/// order. It must stay a constant — every committed stretch number has the
/// float additions grouped this way, and deriving it from anything about
/// the machine would make results depend on the machine. 256 pairs amortize
/// the per-chunk scratch setup while still cutting a 2,000-pair sample
/// round into eight independent pieces.
pub const MEASURE_CHUNK: usize = 256;
