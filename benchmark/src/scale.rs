//! `scale_rowcache` and `scale_embed` — the `scale` binary's pipeline with
//! the working set larger than the oracle's row cache.
//!
//! Batched link stretch (`bin/scale.rs::batched_stretch`) → synchronous
//! PROP-G → batched link stretch, over a population whose latency rows do
//! not all fit in the cache. On `scale_rowcache` `netsim` (Dijkstra + LRU) is
//! the wall and `core`/`engine` are noise — the opposite of `driver_sweep` —
//! with two access patterns on one layer: sorted, batch-warmed bulk reads and
//! the driver's random row demand. `scale_embed` is the same inputs on the
//! coordinate-embedded tier: it shows whether that tier buys anything, and a
//! fix there must leave `scale_rowcache` unchanged.

use crate::outcome::{Checks, FinalState, Fnv, Outcome};
use crate::substrate::Substrate;
use crate::trace::{Kind, Tracer};
use prop_core::{PropConfig, ProtocolSim};
use prop_engine::{Duration, SimTime};
use prop_netsim::{OracleConfig, TransitStubParams};
use prop_overlay::{OverlayNet, Slot};

pub struct Params {
    pub n: usize,
    pub cache_bytes: usize,
    pub embedded: bool,
    pub horizon: Duration,
}

impl Params {
    pub fn bench(embedded: bool) -> Self {
        Params { n: 3000, cache_bytes: 12 << 20, embedded, horizon: Duration::from_minutes(2) }
    }

    fn oracle_config(&self) -> OracleConfig {
        if self.embedded {
            // The embed tier forced far below its 150k threshold: a
            // scaled-down stand-in for the population it is meant for.
            OracleConfig { cache_capacity_bytes: self.cache_bytes, ..OracleConfig::embedded() }
        } else {
            OracleConfig::cached(self.cache_bytes)
        }
    }
}

/// Calls of `run_until` the driver's horizon is split into.
const DRIVER_SLICES: u64 = 24;

/// Link stretch in cache-sized batches: warm the rows of a chunk of slots,
/// then sum the latency of the edges sourced in that chunk.
fn batched_stretch(net: &OverlayNet, rows_per_batch: usize, tr: &mut Tracer) -> f64 {
    let g = net.graph();
    let slots: Vec<Slot> = g.live_slots().collect();
    let mut total = 0u64;
    let mut edges = 0u64;
    let warm = net.oracle().tier() != "coord-embed";
    for chunk in slots.chunks(rows_per_batch.max(1)) {
        tr.clock_tick();
        if warm {
            tr.span(Kind::WarmRows, || net.warm_latency_rows(chunk));
        }
        for &a in chunk {
            for &b in g.neighbors(a) {
                if a < b {
                    total += net.d(a, b) as u64;
                    edges += 1;
                }
            }
        }
    }
    if edges == 0 {
        return 0.0;
    }
    (total as f64 / edges as f64) / net.oracle().mean_phys_link_latency()
}

pub fn pass(p: &Params, seed: u64, tr: &mut Tracer) -> Outcome {
    tr.clock_start();
    let setup = tr.begin(Kind::Setup);
    let sub = Substrate::build(&TransitStubParams::scaled(p.n), p.n, seed, &p.oracle_config(), tr);
    // One stream wires the overlay and then seeds the driver, as in `scale`.
    let mut wrng = sub.rng("PROP-G");
    let (_gn, net) = sub.gnutella(&mut wrng, tr);
    let rows_per_batch = (p.cache_bytes / (4 * p.n) / 2).max(1);
    tr.end(setup);
    let setup = tr.clock_split();

    let run_span = tr.begin(Kind::Run);
    let mut checks = Checks::default();
    let mark = sub.oracle.cache_stats().unwrap_or_default();
    let embed_mark = sub.oracle.embed_stats().unwrap_or_default();
    let degrees = net.graph().degree_sequence();

    let open = tr.begin(Kind::LinkStretch);
    let before = batched_stretch(&net, rows_per_batch, tr);
    tr.end(open);
    tr.clock_tick();
    let cfg = PropConfig::prop_g();
    let mut sim = tr.span(Kind::SimNew, || ProtocolSim::new(net, cfg.clone(), &mut wrng));
    let driver_mark = sub.oracle.cache_stats().unwrap_or_default();
    // In slices, so that the reference clock can read the core's speed in
    // between: the driver processes the same events either way.
    for k in 1..=DRIVER_SLICES {
        let until = Duration::from_millis(p.horizon.as_millis() * k / DRIVER_SLICES);
        tr.span(Kind::Driver, || sim.run_until(SimTime::ZERO + until));
        tr.clock_tick();
    }
    let driver_cache = sub.oracle.cache_stats().unwrap_or_default().since(&driver_mark);
    let open = tr.begin(Kind::LinkStretch);
    let after = batched_stretch(sim.net(), rows_per_batch, tr);
    tr.end(open);
    let connected = tr.span(Kind::Connectivity, || sim.net().graph().is_connected());
    checks.expect(connected, "overlay connected after the run (Theorem 1)");
    let run = tr.clock_split();
    tr.end(run_span);

    let o = sim.overhead();
    let m_default = sim.m_default();
    let net = sim.into_net();
    let cache = sub.oracle.cache_stats().unwrap_or_default();
    let cache_run = cache.since(&mark);
    let embed = sub.oracle.embed_stats().unwrap_or_default().since(&embed_mark);
    let check = tr.begin(Kind::Check);
    checks.expect(
        net.graph().degree_sequence() == degrees,
        "degree multiset unchanged under PROP-G (Theorem 2)",
    );
    checks
        .expect(cache.peak_resident_bytes <= p.cache_bytes, "row cache stayed under its byte cap");
    let mut h = Fnv::default();
    for x in [o.trials, o.exchanges, o.total_msgs()] {
        h.word(x);
    }
    h.net(&net);
    // The exact tier's stretch is part of the digest; the embed tier's
    // estimate is a different statistic, so digests differ across the two
    // workloads by design while trials and exchanges must agree.
    h.float(before);
    h.float(after);
    tr.end(check);

    let queries = (embed.embed_queries + embed.exact_queries).max(1);
    let counters = vec![
        ("netsim.rows_computed".to_string(), cache_run.misses as f64),
        ("netsim.rows_computed_driver".to_string(), driver_cache.misses as f64),
        ("netsim.row_hit_rate".to_string(), cache_run.hit_rate()),
        ("netsim.row_evictions".to_string(), cache_run.evictions as f64),
        ("netsim.peak_cache_mib".to_string(), cache.peak_resident_bytes as f64 / (1 << 20) as f64),
        (
            "netsim.embed_escalation_rate".to_string(),
            embed.escalations as f64 / o.trials.max(1) as f64,
        ),
        ("netsim.embed_exact_share".to_string(), embed.exact_queries as f64 / queries as f64),
    ];

    Outcome {
        setup,
        run,
        trials: o.trials,
        exchanges: o.exchanges,
        msgs: o.total_msgs(),
        lookups: 0,
        quality: vec![before, after],
        checks,
        digest: h.finish(),
        counters,
        last: FinalState { net, policy: cfg.policy, m_default, variant: None },
    }
}
