//! Fault-plane scenario tests: random scripts must never break the
//! theorems, and a pinned (seed, script) pair must replay bit-for-bit.

use prop::faults::{FaultHarness, FaultScript};
use prop::prelude::*;

const MEMBERS: usize = 30;

/// The harness preset shortened for property testing (each case replays the
/// script against BOTH drivers).
fn harness(cfg: PropConfig, script: FaultScript, seed: u64) -> FaultHarness {
    let mut h = FaultHarness::small(cfg, script, seed);
    h.horizon = Duration::from_minutes(20);
    h.checkpoint_every = Duration::from_minutes(4);
    h
}

/// Random but bounded scenarios: loss ≤ 20%, at most 2 partitions, crashes
/// hitting ≤ 10% of the membership.
fn random_script(rng: &mut SimRng) -> FaultScript {
    let (loss, dup, reord) = (rng.unit() * 0.20, rng.unit() * 0.10, rng.unit() * 0.25);
    let reord_max = rng.range(0..=300u64);
    let mut s = FaultScript::new();
    if loss > 0.0 {
        s = s.loss(0, loss);
    }
    if dup > 0.0 {
        s = s.duplicate(0, dup);
    }
    if reord > 0.0 && reord_max > 0 {
        s = s.reorder(0, reord, reord_max);
    }
    for _ in 0..rng.range(0..=2usize) {
        s = s.partition(rng.range(60_000..900_000u64), rng.range(30_000..180_000u64));
    }
    for _ in 0..rng.range(0..=3usize) {
        let peer = rng.range(0..MEMBERS);
        s = s.crash(rng.range(60_000..900_000u64), peer, rng.range(30_000..120_000u64));
    }
    s
}

/// Theorem 1 (global + per-side) and Theorem 2 survive arbitrary bounded
/// fault scripts, for both policies, on both drivers. A case is four
/// twenty-minute protocol runs (≈ 16 ms), hence 16 of them.
#[test]
fn random_scripts_preserve_the_theorems() {
    for case in 0..16u64 {
        let mut rng = SimRng::seed_from(case);
        let script = random_script(&mut rng);
        let seed = rng.range(0..1000u64);
        for cfg in [PropConfig::prop_g(), PropConfig::prop_o()] {
            let report = harness(cfg, script.clone(), seed)
                .run()
                .unwrap_or_else(|e| panic!("case {case}: invariant violated: {e:?}\n{script:?}"));
            assert_eq!(report.sync.checkpoints, report.r#async.checkpoints, "case {case}");
        }
    }
}

/// Golden trace: one pinned (seed, script) pair replays identically — same
/// fault counters and the same final overlay fingerprint, on both drivers.
#[test]
fn golden_trace_is_reproducible() {
    let script = FaultScript::new()
        .loss(0, 0.10)
        .duplicate(0, 0.05)
        .reorder(0, 0.15, 250)
        .partition(300_000, 120_000)
        .crash(420_000, 7, 90_000);

    let a = harness(PropConfig::prop_g(), script.clone(), 2024).run().expect("run a");
    let b = harness(PropConfig::prop_g(), script, 2024).run().expect("run b");

    assert_eq!(a.sync.counters, b.sync.counters, "sync counters diverged");
    assert_eq!(a.r#async.counters, b.r#async.counters, "async counters diverged");
    assert_eq!(a.sync.final_latency, b.sync.final_latency, "sync overlay diverged");
    assert_eq!(a.r#async.final_latency, b.r#async.final_latency, "async overlay diverged");
    assert_eq!(a, b);

    // The script actually did something: the plane ruled against traffic.
    assert!(a.r#async.counters.total_events() > 0, "{:?}", a.r#async.counters);
}
