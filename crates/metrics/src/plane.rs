//! The measurement plane's determinism machinery.
//!
//! Every figure panel measures the overlay by running thousands of lookups
//! over a pair workload. The workload is cut into fixed-size chunks that
//! are measured one after another on the calling thread and merged in
//! chunk order, under one contract: **the result is a function of the pair
//! list alone.** Two mechanisms deliver it:
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
//! so flooding overlays allocate nothing per lookup), which is what a later
//! fan-out through `prop_engine::par::map` would rely on; today nothing
//! inside one run is given a thread, because a latency is a point query or
//! one search of a stub domain and a goal-directed flood ≈ 16 µs — there
//! is no measured work left to spread. Entry points prefetch the oracle
//! rows of every slot named by the workload (one batched warm — see
//! [`warm_pair_rows`]) so that where rows are whole the measurement loop
//! itself never computes one.

use prop_overlay::{OverlayNet, Slot};

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

/// Prefetch the oracle rows behind a pair workload: dedups every slot named
/// in `pairs` — a Zipf workload names hot sources hundreds of times — and
/// batch-warms their rows exactly once each (no-op on the dense tier; on
/// the row tiers one row computation per cold source where the cache keeps
/// whole rows, and only a recency bump of resident rows on a transit–stub
/// graph, where a row is a stub domain's and most pairs read none).
/// Measurement entry points call this first so the measurement loop starts
/// from a warm cache. A pair with a departed endpoint is not measured
/// against the oracle (a vacated slot has no peer), so it warms nothing
/// either.
pub fn warm_pair_rows(net: &OverlayNet, pairs: &[(Slot, Slot)]) {
    let mut slots: Vec<Slot> = Vec::with_capacity(pairs.len() * 2);
    for &(a, b) in pairs {
        if net.graph().is_alive(a) && net.graph().is_alive(b) {
            slots.push(a);
            slots.push(b);
        }
    }
    slots.sort_unstable();
    slots.dedup();
    net.warm_latency_rows(&slots);
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::SimRng;
    use prop_netsim::{generate_waxman, LatencyOracle, OracleConfig, WaxmanParams};
    use prop_overlay::{LogicalGraph, Placement};
    use std::sync::Arc;

    /// A ring over `n` hosts of a Waxman graph, where the row cache keeps
    /// whole rows and warming a source computes its row (on a transit–stub
    /// graph it keeps a stub domain's, and computes none ahead of a read).
    fn cached_net(n: usize) -> OverlayNet {
        let mut rng = SimRng::seed_from(3);
        let phys = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build_with(
            &phys,
            n,
            &mut rng,
            &OracleConfig::cached(1 << 20),
        ));
        let mut g = LogicalGraph::new(n);
        for i in 0..n as u32 {
            g.add_edge(Slot(i), Slot((i + 1) % n as u32));
        }
        OverlayNet::new(g, Placement::identity(n), oracle)
    }

    #[test]
    fn repeated_sources_warm_each_row_once() {
        let net = cached_net(12);
        let baseline = net.oracle_cache_stats().unwrap();
        // A hot-source workload: slots 0, 1, 2 named over and over.
        let pairs: Vec<(Slot, Slot)> = (0..200).map(|i| (Slot(i % 3), Slot((i % 2) + 1))).collect();
        warm_pair_rows(&net, &pairs);
        let s = net.oracle_cache_stats().unwrap().since(&baseline);
        // Unique slots {0, 1, 2}; row 0 was seeded at construction, so
        // exactly two Dijkstras run no matter how many pairs repeat them.
        assert_eq!(s.misses, 2, "each unique source warms once: {s:?}");
        let total = net.oracle_cache_stats().unwrap();
        assert_eq!(total.resident_rows, 3);
    }

    #[test]
    fn pairs_naming_a_departed_slot_warm_nothing() {
        let mut net = cached_net(12);
        let gone = Slot(5);
        net.graph_mut().remove_slot(gone);
        net.placement_mut().vacate(gone);
        let baseline = net.oracle_cache_stats().unwrap();
        warm_pair_rows(&net, &[(gone, Slot(1)), (Slot(2), gone), (Slot(3), Slot(4))]);
        let s = net.oracle_cache_stats().unwrap().since(&baseline);
        assert_eq!(s.misses, 2, "only the live pair's two rows are computed: {s:?}");
    }
}
