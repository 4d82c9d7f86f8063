//! S1 — production-scale latency oracle + protocol demo.
//!
//! The paper stops at ~1,000 members, where a dense APSP matrix is cheap.
//! This pipeline (topology → latency oracle → overlay → PROP warm-up) runs
//! at any member count `--n` names; at 100,000 a dense matrix would need
//! ~40 GB and the oracle instead runs on its row-cache tier: `scaled(n)` is
//! a transit–stub graph, so `d(u, v)` between two stub domains (149 of 150
//! uniform pairs) is a point query over the verified decomposition, and a
//! pair inside one domain reads a row over that domain's hosts — one search
//! confined to it, held in a byte-bounded LRU (DESIGN.md §9).
//!
//! Two stages per size:
//!
//! 1. **Query storm** — answer 1,000,000 random `d(u, v)` queries
//!    (200,000 under `--quick`), grouped by source, asserting peak oracle
//!    memory stays under the 512 MiB cap.
//! 2. **Protocol warm-up** — build a Gnutella overlay over the same
//!    oracle and run a few minutes of PROP-G and PROP-O, reporting
//!    stretch improvement and the cache counters the run generated.
//!
//! Nothing is warmed ahead of a read: on this graph `warm_rows` computes
//! no row (a same-domain miss costs the one search a warm would), so there
//! is no batch to size.
//!
//! `--oracle-tier` pins the oracle tier instead of letting the member
//! count choose — the axis for comparing the row-cache and the
//! coordinate-embedded paths on identical workloads. `--n N` replaces the
//! size ladder with the single size N (`--n 1000000` is the EXPERIMENTS S5
//! run: the PROP warm-up runs at every size, the drivers' hot path being
//! O(1) per event); `--budget-secs S` makes the run exit non-zero if its
//! total wall clock exceeds S seconds (the CI driver-scale-smoke gate).
//!
//! Useful for sizing reproduction runs; not a paper figure. Wall-clock
//! numbers are machine-dependent by nature. CI's `driver-scale-smoke` job
//! runs `--quick --n 100000` under `--budget-secs 120`: a warm-up there is
//! some tens of thousands of on-demand rows of 667 cells each, and what
//! would blow the budget is a whole 200 KB row coming back on a `d` miss
//! (EXPERIMENTS S5 has the measured runs, up to a million members).

use crate::cli::{Args, CliError};
use crate::registry::Experiment;
use crate::report::write_json;
use crate::setup::Scale;
use prop_core::{PropConfig, ProtocolSim};
use prop_engine::{json_impl, Duration, SimRng};
use prop_metrics::{OracleCacheReport, OracleEmbedReport};
use prop_netsim::{generate, LatencyOracle, OracleConfig, TransitStubParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Hard cap on oracle cache memory — the headline claim of this experiment.
const CACHE_CAP_BYTES: usize = 512 << 20;

struct SizeReport {
    members: usize,
    phys_hosts: usize,
    phys_links: usize,
    tier: &'static str,
    topo_ms: f64,
    oracle_build_ms: f64,
    queries: usize,
    query_ms: f64,
    queries_per_sec: f64,
    mean_query_latency_ms: f64,
    query_cache: OracleCacheReport,
    /// Embed-tier counters and calibration over the storm; absent on the
    /// exact tiers.
    query_embed: Option<OracleEmbedReport>,
    warmups: Vec<WarmupReport>,
}

json_impl!(ToJson for struct SizeReport {
    members, phys_hosts, phys_links, tier, topo_ms, oracle_build_ms, queries, query_ms,
    queries_per_sec, mean_query_latency_ms, query_cache, query_embed, warmups
});

struct WarmupReport {
    policy: &'static str,
    sim_minutes: u64,
    wall_ms: f64,
    exchanges: u64,
    stretch_before: f64,
    stretch_after: f64,
    cache: OracleCacheReport,
}

json_impl!(ToJson for struct WarmupReport {
    policy, sim_minutes, wall_ms, exchanges, stretch_before, stretch_after, cache
});

/// Run the ladder (or `--n`'s single size) and write `results/scale.json`.
pub fn run(_: &Experiment, args: &Args) -> Result<ExitCode, CliError> {
    let (sizes, queries, sim_minutes): (&[usize], usize, u64) = match args.scale {
        Scale::Paper => (&[2_000, 50_000, 100_000], 1_000_000, 5),
        Scale::Quick => (&[2_000, 5_000, 20_000], 200_000, 3),
    };
    let cfg = OracleConfig { tier: args.oracle_tier, cache_capacity_bytes: CACHE_CAP_BYTES };

    let start = Instant::now();
    let reports: Vec<SizeReport> = args
        .n
        .as_ref()
        .map_or(sizes, std::slice::from_ref)
        .iter()
        .map(|&n| run_size(n, queries, sim_minutes, &cfg, args.seed))
        .collect();
    write_json("scale", &reports);

    if let Some(budget) = args.budget_secs {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > budget as f64 {
            eprintln!("WALL-CLOCK BUDGET EXCEEDED: run took {elapsed:.0} s, budget {budget} s");
            return Ok(ExitCode::FAILURE);
        }
        println!("wall-clock budget OK: {elapsed:.0} s <= {budget} s");
    }
    Ok(ExitCode::SUCCESS)
}

fn run_size(
    n: usize,
    queries: usize,
    sim_minutes: u64,
    cfg: &OracleConfig,
    seed: u64,
) -> SizeReport {
    let mut rng = SimRng::seed_from(seed);

    let t0 = Instant::now();
    let params = TransitStubParams::scaled(n);
    let phys = generate(&params, &mut rng);
    let topo_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let oracle = Arc::new(LatencyOracle::select_and_build_with(&phys, n, &mut rng, cfg));
    let oracle_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "\n=== n = {n} members over {} hosts / {} links (tier: {}; topo {topo_ms:.0} ms, \
         oracle build {oracle_build_ms:.0} ms) ===",
        phys.num_nodes(),
        phys.num_links(),
        oracle.tier(),
    );

    // Stage 1: the query storm, grouped by source so the reads inside one
    // stub domain — the only ones a row answers — come together. On the
    // coordinate-embedded tier `d(u,v)` never touches a row.
    let mark = oracle.cache_stats().unwrap_or_default();
    let embed_mark = oracle.embed_stats().unwrap_or_default();
    let t0 = Instant::now();
    let mut pairs: Vec<(usize, usize)> =
        (0..queries).map(|_| (rng.range(0..n), rng.range(0..n))).collect();
    pairs.sort_unstable();
    let total_latency: u64 = pairs.iter().map(|&(a, b)| oracle.d(a, b) as u64).sum();
    let query_ms = t0.elapsed().as_secs_f64() * 1e3;
    let query_cache = OracleCacheReport::from_oracle_since(&oracle, &mark);
    let query_embed = OracleEmbedReport::from_oracle_since(&oracle, &embed_mark);
    let mean_query_latency_ms = total_latency as f64 / queries as f64;
    println!(
        "query storm: {queries} queries in {:.0} ms ({:.0}k queries/s, mean d(u,v) = {:.1} ms)",
        query_ms,
        queries as f64 / query_ms,
        mean_query_latency_ms,
    );
    println!("  {query_cache}");
    if let Some(embed) = &query_embed {
        println!("  {embed}");
    }
    if let Some(stats) = oracle.cache_stats() {
        assert!(
            stats.peak_resident_bytes <= CACHE_CAP_BYTES,
            "oracle exceeded the {} MiB cap: peak {} bytes",
            CACHE_CAP_BYTES >> 20,
            stats.peak_resident_bytes
        );
        println!(
            "  memory cap OK: peak {:.1} MiB <= {} MiB",
            stats.peak_resident_bytes as f64 / (1024.0 * 1024.0),
            CACHE_CAP_BYTES >> 20
        );
    }

    // Stage 2: PROP warm-up over the same oracle — at every size,
    // including a million members: with the timer-wheel queue and the
    // zero-alloc trial loop the drivers' per-event cost is O(1), so the
    // wall clock scales with the event count, not the population (the
    // EXPERIMENTS S5 row this run prints).
    let mut warmups = Vec::new();
    for (label, policy) in [("PROP-G", PropConfig::prop_g()), ("PROP-O", PropConfig::prop_o())] {
        let mut wrng = rng.fork(label);
        let (_gn, net) = Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut wrng);
        let stretch_before = net.stretch();
        let mark = oracle.cache_stats().unwrap_or_default();
        let t0 = Instant::now();
        let mut sim = ProtocolSim::new(net, policy, &mut wrng);
        sim.run_for(Duration::from_minutes(sim_minutes));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cache = OracleCacheReport::from_oracle_since(&oracle, &mark);
        let stretch_after = sim.net().stretch();
        let exchanges = sim.overhead().exchanges;
        println!(
            "{label}: {sim_minutes} sim-min in {wall_ms:.0} ms, {exchanges} exchanges, \
             stretch {stretch_before:.3} -> {stretch_after:.3}",
        );
        println!("  {cache}");
        warmups.push(WarmupReport {
            policy: label,
            sim_minutes,
            wall_ms,
            exchanges,
            stretch_before,
            stretch_after,
            cache,
        });
    }

    SizeReport {
        members: n,
        phys_hosts: phys.num_nodes(),
        phys_links: phys.num_links(),
        tier: oracle.tier(),
        topo_ms,
        oracle_build_ms,
        queries,
        query_ms,
        queries_per_sec: queries as f64 / (query_ms / 1e3),
        mean_query_latency_ms,
        query_cache,
        query_embed,
        warmups,
    }
}
