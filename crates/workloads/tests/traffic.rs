//! Traffic-plane property tests (seeded loops, the case number in every
//! failure message):
//!
//! * JSON round-trip: compile → write → parse → compile is the identity on
//!   the event trace;
//! * flash crowds never emit events outside their windows (and never
//!   perturb the base streams);
//! * legacy-stream regression: `ChurnTrace::poisson` and a constant
//!   `PopularityProcess` under a `"zipf-pairs"` fork produce bit-identical
//!   output to the pre-refactor hand-rolled loops they were deduplicated
//!   from.

use prop_engine::{json, Duration, SimRng, SimTime};
use prop_overlay::Slot;
use prop_workloads::churn::{ChurnOp, ChurnTrace};
use prop_workloads::traffic::{self, DomainProfile, FlashCrowd, PopularityProcess, TrafficScript};
use prop_workloads::zipf::Zipf;
const CASES: u64 = 256;

fn random_script(rng: &mut SimRng) -> TrafficScript {
    let hour_ms = rng.range(20_000..120_000u64);
    let hours = rng.range(2..30u64);
    let mut s = TrafficScript::new(hour_ms, hours * hour_ms, rng.range(1..64u32));
    for _ in 0..rng.range(1..4usize) {
        let domain = rng.range(0..6u32) as u16;
        let (joins, leaves) = (rng.range(0.0..2.0), rng.range(0.0..2.0));
        s = s.domain(
            DomainProfile::flat(domain, joins, leaves, rng.range(0.0..6.0))
                .with_hourly(traffic::script::DIURNAL_SHAPE.to_vec())
                .with_offset(rng.range(0..24u32) as u8),
        );
    }
    for _ in 0..rng.range(0..3usize) {
        s = s.shift(rng.range(0..3_000_000u64), rng.range(0.0..1.8), rng.range(0..200u32));
    }
    for _ in 0..rng.range(0..3usize) {
        s.flash_crowds.push(FlashCrowd {
            at_ms: rng.range(0..3_000_000u64),
            duration_ms: rng.range(1..400_000u64),
            multiplier: rng.range(1.0..5.0),
            hot_keys: rng.range(1..12u32),
        });
    }
    s
}

/// The script and the compile seed of one case.
fn case_inputs(case: u64) -> (TrafficScript, u64) {
    let mut rng = SimRng::seed_from(case);
    (random_script(&mut rng), rng.range(0..1000u64))
}

#[test]
fn json_round_trip_compiles_identically() {
    for case in 0..CASES {
        let (script, seed) = case_inputs(case);
        let back: TrafficScript = json::from_str(&json::to_string(&script)).unwrap();
        assert_eq!(script, back, "case {case}: script must round-trip structurally");
        let a = traffic::compile(&script, seed);
        let b = traffic::compile(&back, seed);
        assert_eq!(a.events(), b.events(), "case {case}");
    }
}

#[test]
fn trace_is_sorted_and_inside_horizon() {
    for case in 0..CASES {
        let (script, seed) = case_inputs(case);
        let c = traffic::compile(&script, seed);
        for w in c.events().windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}");
        }
        for &(t, _) in c.events() {
            assert!(t.as_millis() < script.horizon_ms, "case {case}");
        }
    }
}

#[test]
fn flash_crowds_stay_inside_their_windows() {
    for case in 0..CASES {
        let (script, seed) = case_inputs(case);
        let mut base_script = script.clone();
        base_script.flash_crowds.clear();
        let with_flash = traffic::compile(&script, seed);
        let base = traffic::compile(&base_script, seed);

        // Flash streams are independent forks: the base trace must survive
        // as an ordered subsequence, and every extra event must be a
        // hot-set lookup inside some flash window.
        let mut base_iter = base.events().iter().peekable();
        for ev in with_flash.events() {
            if base_iter.peek() == Some(&ev) {
                base_iter.next();
                continue;
            }
            // Windows may overlap, so the event belongs to *some* crowd
            // active at `t` whose hot set holds its rank.
            let (t, extra) = *ev;
            let prop_core::TrafficEvent::Lookup { rank, .. } = extra else {
                panic!("case {case}: flash emitted non-lookup {extra:?}");
            };
            let active: Vec<_> =
                script.flash_crowds.iter().filter(|f| f.contains_ms(t.as_millis())).collect();
            assert!(
                !active.is_empty(),
                "case {case}: extra event at {t:?} outside every flash window"
            );
            assert!(
                active.iter().any(|f| rank < f.hot_keys.min(script.catalog)),
                "case {case}: rank {rank} at {t:?} outside the hot set of {active:?}"
            );
        }
        assert!(base_iter.peek().is_none(), "case {case}: flash crowds perturbed the base streams");
    }
}

/// The pre-refactor `ChurnTrace::poisson` body, verbatim: the dedupe
/// through `traffic::process::poisson_train` must preserve this stream
/// bit-for-bit on the paper presets (same fork label, same draw order).
fn legacy_poisson(
    start: SimTime,
    window: Duration,
    leaves_per_min: f64,
    joins_per_min: f64,
    rng: &mut SimRng,
) -> Vec<(SimTime, ChurnOp)> {
    let mut rng = rng.fork("churn-trace");
    let mut events = Vec::new();
    for (rate, op) in [(leaves_per_min, ChurnOp::Leave), (joins_per_min, ChurnOp::Join)] {
        if rate <= 0.0 {
            continue;
        }
        let mean_gap_ms = 60_000.0 / rate;
        let mut t = start;
        loop {
            let gap = Duration::from_millis(rng.exp_millis(mean_gap_ms).max(1));
            t += gap;
            if t.since(start) >= window {
                break;
            }
            events.push((t, op));
        }
    }
    events.sort_by_key(|&(t, _)| t);
    events
}

#[test]
fn churn_trace_stream_is_preserved() {
    // Paper-preset rates (A2 uses n/100 per minute at both scales) plus
    // edge cases: zero rates and asymmetric churn.
    let cases = [(10.0, 10.0), (1.2, 1.2), (3.0, 1.0), (0.0, 2.0), (0.0, 0.0)];
    for seed in 0..4u64 {
        for &(leaves, joins) in &cases {
            let start = SimTime::ZERO + Duration::from_minutes(seed);
            let window = Duration::from_minutes(45);
            let expect = legacy_poisson(start, window, leaves, joins, &mut SimRng::seed_from(seed));
            let got =
                ChurnTrace::poisson(start, window, leaves, joins, &mut SimRng::seed_from(seed));
            assert_eq!(expect, got.events, "seed {seed}, rates ({leaves}, {joins})");
        }
    }
}

/// The pre-refactor static Zipf workload (`zipf_pairs`), verbatim.
fn legacy_zipf_pairs(
    live: &[Slot],
    ranking: &[Slot],
    alpha: f64,
    count: usize,
    rng: &mut SimRng,
) -> Vec<(Slot, Slot)> {
    let zipf = Zipf::new(ranking.len(), alpha);
    let mut rng = rng.fork("zipf-pairs");
    (0..count)
        .map(|_| loop {
            let src = *rng.pick(live).unwrap();
            let dst = ranking[zipf.sample(&mut rng)];
            if src != dst {
                return (src, dst);
            }
        })
        .collect()
}

#[test]
fn zipf_pairs_stream_is_preserved() {
    let live: Vec<Slot> = (0..40).map(Slot).collect();
    let mut ranking = live.clone();
    ranking.reverse();
    for seed in 0..4u64 {
        for &alpha in &[0.0, 0.8, 1.0, 1.2] {
            let expect =
                legacy_zipf_pairs(&live, &ranking, alpha, 600, &mut SimRng::seed_from(seed));
            let process = PopularityProcess::constant(ranking.len() as u32, alpha);
            let mut rng = SimRng::seed_from(seed).fork("zipf-pairs");
            let got = process.pairs_at(0, &live, &ranking, 600, &mut rng);
            assert_eq!(expect, got, "seed {seed}, alpha {alpha}");
        }
    }
}
