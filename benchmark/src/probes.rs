//! Probes: price the inside of the driver loop, which spans cannot see.
//!
//! A span around `run_until` gives time per trial but not where it goes. After
//! a traced workload finishes, these replay the steps of one trial by hand on
//! the overlay the workload ended on — `probe_walk_into` → `plan_exchange` →
//! `decide` → `apply` — plus an `EventQueue` pop/schedule loop at the live
//! population's depth, a cold `warm_rows`, a resident `d`, and a flood with
//! its own `FloodScratch` ledger. Every probe times a batch with one clock
//! pair and leaves the overlay as it found it.

use crate::outcome::FinalState;
use prop_core::exchange::{self, ExchangePlan, PlanKind};
use prop_engine::{Duration, EventQueue, SimRng, SimTime};
use prop_netsim::LatencyOracle;
use prop_overlay::walk::{WalkPath, WalkScratch};
use prop_overlay::{FloodScratch, Slot};
use std::hint::black_box;
use std::time::Instant;

const WALKS: usize = 4096;
const QUEUE_OPS: usize = 200_000;
const RNG_DRAWS: usize = 1_000_000;
const D_READS: usize = 200_000;
const COLD_ROWS: usize = 64;
const FLOODS: usize = 256;
const NHOPS: u32 = 2;
const FLOOD_TTL: u32 = 7;

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Swapping the sides undoes a plan: PROP-G's position swap is its own
/// inverse, and PROP-O's inverse hands each moved neighbor back.
fn inverse(plan: &ExchangePlan) -> ExchangePlan {
    let kind = match &plan.kind {
        PlanKind::SwapAll => PlanKind::SwapAll,
        PlanKind::Subset { from_u, from_v } => {
            PlanKind::Subset { from_u: from_v.clone(), from_v: from_u.clone() }
        }
    };
    ExchangePlan { u: plan.u, v: plan.v, var: -plan.var, kind }
}

/// Probe results, by per-layer metric name.
pub fn run(state: &mut FinalState, seed: u64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rng = SimRng::seed_from(seed).fork("probes");
    let net = &mut state.net;
    net.refresh_csr();
    let live: Vec<Slot> = net.graph().live_slots().collect();

    // engine: one pop + one schedule per trial, at the depth the driver ran at.
    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..live.len() as u32 {
        queue.schedule_at(SimTime(rng.range(0..60_000u64)), i);
    }
    let t = Instant::now();
    for _ in 0..QUEUE_OPS {
        let (_, ev) = queue.pop().expect("one event per live slot");
        queue.schedule_in(Duration::from_millis(60_000), black_box(ev));
    }
    out.push(("engine.queue_ns".to_string(), ns_per(t, QUEUE_OPS)));

    let t = Instant::now();
    let mut acc = 0usize;
    for _ in 0..RNG_DRAWS {
        acc = acc.wrapping_add(rng.range(0..live.len()));
    }
    black_box(acc);
    out.push(("engine.rng_ns".to_string(), ns_per(t, RNG_DRAWS)));

    // core: the four steps of a trial, each over the same batch of origins.
    let origins: Vec<(Slot, Slot)> = (0..WALKS)
        .filter_map(|_| {
            let u = *rng.pick(&live)?;
            let first = *rng.pick(net.graph().neighbors(u))?;
            Some((u, first))
        })
        .collect();
    let mut scratch = WalkScratch::new();
    let mut walks: Vec<WalkPath> = Vec::with_capacity(origins.len());
    let t = Instant::now();
    for &(u, first) in &origins {
        net.probe_walk_into(u, first, NHOPS, &mut rng, &mut scratch);
        black_box(scratch.walk());
    }
    out.push(("core.walk_ns".to_string(), ns_per(t, origins.len())));
    for &(u, first) in &origins {
        net.probe_walk_into(u, first, NHOPS, &mut rng, &mut scratch);
        if scratch.walk().counterpart(NHOPS).is_some() {
            walks.push(scratch.walk().clone());
        }
    }

    let t = Instant::now();
    let plans: Vec<ExchangePlan> = walks
        .iter()
        .filter_map(|w| exchange::plan_exchange(net, state.policy, w, state.m_default))
        .collect();
    out.push(("core.plan_ns".to_string(), ns_per(t, walks.len())));

    let t = Instant::now();
    let mut accepted = 0usize;
    for p in &plans {
        accepted += exchange::decide(net, black_box(p), 0) as usize;
    }
    black_box(accepted);
    out.push(("core.decide_ns".to_string(), ns_per(t, plans.len())));

    // Each plan was made against this state, so it applies; its inverse
    // restores the state for the next one.
    let t = Instant::now();
    for p in &plans {
        exchange::apply(net, p);
        exchange::apply(net, &inverse(p));
    }
    out.push(("core.apply_ns".to_string(), ns_per(t, 2 * plans.len())));
    net.refresh_csr();

    // overlay: flood work per lookup, from a scratch of the probe's own. A
    // flood reads the latency of every edge it scans, which on a row-cache
    // tier smaller than the overlay means a Dijkstra per node per flood —
    // minutes — so the flood probe is for the dense tier, where the flooding
    // workloads run.
    let mut flood = FloodScratch::new();
    let mut floods = 0usize;
    let dense = net.oracle_cache_stats().is_none();
    for _ in 0..if dense { FLOODS } else { 0 } {
        let (Some(&a), Some(&b)) = (rng.pick(&live), rng.pick(&live)) else { break };
        if a != b {
            black_box(net.min_latency_within_hops_with(a, b, FLOOD_TTL, &mut flood));
            floods += 1;
        }
    }
    out.push((
        "overlay.flood_edges_per_lookup".to_string(),
        flood.edges_scanned() as f64 / floods.max(1) as f64,
    ));
    out.push((
        "overlay.flood_pushes_per_lookup".to_string(),
        flood.frontier_pushes() as f64 / floods.max(1) as f64,
    ));

    // netsim: a row computed cold, and a distance read from a resident row.
    let oracle: &LatencyOracle = net.oracle();
    let n = oracle.len();
    let mut row_ms = 0.0;
    if let Some(mark) = oracle.cache_stats() {
        let sources: Vec<usize> = (0..COLD_ROWS).map(|_| rng.range(0..n)).collect();
        let t = Instant::now();
        oracle.warm_rows(&sources);
        let secs = t.elapsed().as_secs_f64();
        let computed = oracle.cache_stats().unwrap_or_default().since(&mark).misses;
        if computed > 0 {
            row_ms = secs * 1e3 / computed as f64;
        }
    }
    out.push(("netsim.row_ms".to_string(), row_ms));

    let source = rng.range(0..n);
    oracle.warm_rows(&[source]);
    let targets: Vec<usize> = (0..D_READS).map(|_| rng.range(0..n)).collect();
    let t = Instant::now();
    let mut sum = 0u64;
    for &b in &targets {
        sum += oracle.d(source, b) as u64;
    }
    black_box(sum);
    out.push(("netsim.d_ns".to_string(), ns_per(t, D_READS)));

    out
}
