//! The measurement plane's determinism machinery.
//!
//! Every figure panel measures the overlay by running thousands of lookups
//! over a pair workload. The pairs are measured on every core
//! (`prop_engine::par::map_init`, the calling thread one of the workers):
//! workers claim a few pairs at a time from one counter, each keeps one
//! [`prop_overlay::FloodScratch`] for every pair it takes, and the per-pair
//! outcomes come back in pair order. One contract holds: **the result is a
//! function of the pair list alone** — not of the core count, nor of which
//! worker took which pair. Two mechanisms deliver it:
//!
//! * **Exact integer accumulation** wherever the measured quantities are
//!   integers (lookup latency in ms, hops, flood message counts): integer
//!   addition is associative and commutative, so the totals are the same
//!   in any order, and the floating-point mean is computed exactly once
//!   from them.
//! * **Fixed grouping** where the per-pair quantity is itself a float
//!   (path stretch is a latency ratio): the outcomes, in pair order, are
//!   summed [`MEASURE_CHUNK`] pairs at a time — a constant — and the chunk
//!   sums folded in chunk order, so the additions happen in one order on
//!   any machine even though f64 addition is not associative.
//!
//! Pairs are independent (a lookup only reads the shared overlay and
//! oracle, and a scratch is only reused, never read across lookups), which
//! is what the fan-out relies on. A list of at most [`MEASURE_CHUNK`] pairs
//! is measured inline on the calling thread, and a measurement called from
//! inside a fanned-out run — a seed of a sweep, a curve of a panel — runs
//! inline on that run's thread. The one thing the workers share beyond the
//! net is its flood view, the link costs a flooding overlay reads:
//! whichever worker floods first builds it, the others wait for it, and it
//! is a function of the net's state alone. No oracle store keeps a row,
//! and the search store's meeting scratch is per thread and forgets each
//! query, so which worker asked first never shows in a value.

/// The measurement plane's grouping constant.
///
/// This is the determinism anchor for float-valued metrics: per-pair
/// ratios are summed over exactly these groups and the group sums folded
/// in group order. It must stay a constant — every committed stretch
/// number has the float additions grouped this way, and deriving it from
/// anything about the machine would make results depend on the machine.
/// It is not the unit of work: workers claim smaller batches. It also
/// sets how many workers a list gets, one per `MEASURE_CHUNK` pairs up to
/// the core count, so a list of one group is measured on the calling
/// thread without starting any.
pub const MEASURE_CHUNK: usize = 256;
