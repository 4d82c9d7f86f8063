//! Model-based property tests for the simulation kernel.

use prop_engine::backoff::TrialOutcome;
use prop_engine::stats::Accumulator;
use prop_engine::{Duration, EventQueue, MarkovTimer, SimRng, SimTime};
use proptest::prelude::{prop_oneof, Just, Strategy};
use proptest::test_runner::Config as ProptestConfig;
use proptest::{prop_assert, prop_assert_eq, proptest};

#[derive(Clone, Debug)]
enum QueueOp {
    Schedule(u64),
    Pop,
    PopUntil(u64),
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..1000).prop_map(QueueOp::Schedule),
        Just(QueueOp::Pop),
        (0u64..1000).prop_map(QueueOp::PopUntil),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The queue behaves exactly like a sorted-vec reference
    /// model with stable (time, insertion) ordering and a monotone clock.
    #[test]
    fn event_queue_matches_reference_model(ops in proptest::collection::vec(queue_op(), 1..120)) {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Model: (time, seq, payload), popped by (time, seq).
        let mut model: Vec<(u64, u64, u32)> = Vec::new();
        let mut seq = 0u64;
        let mut payload = 0u32;
        let mut now = 0u64;

        for op in ops {
            match op {
                QueueOp::Schedule(dt) => {
                    // Schedule relative to now: always legal.
                    let at = now + dt;
                    q.schedule_at(SimTime(at), payload);
                    model.push((at, seq, payload));
                    seq += 1;
                    payload += 1;
                }
                QueueOp::Pop => {
                    let got = q.pop();
                    model.sort_by_key(|&(t, s, _)| (t, s));
                    let expect = if model.is_empty() { None } else { Some(model.remove(0)) };
                    match (got, expect) {
                        (None, None) => {}
                        (Some((t, v)), Some((mt, _, mv))) => {
                            prop_assert_eq!(t.0, mt);
                            prop_assert_eq!(v, mv);
                            now = mt;
                        }
                        other => prop_assert!(false, "mismatch: {other:?}"),
                    }
                }
                QueueOp::PopUntil(dt) => {
                    let deadline = now + dt;
                    let got = q.pop_until(SimTime(deadline));
                    model.sort_by_key(|&(t, s, _)| (t, s));
                    let expect = match model.first() {
                        Some(&(t, _, _)) if t <= deadline => Some(model.remove(0)),
                        _ => None,
                    };
                    match (got, expect) {
                        (None, None) => {}
                        (Some((t, v)), Some((mt, _, mv))) => {
                            prop_assert_eq!(t.0, mt);
                            prop_assert_eq!(v, mv);
                            now = mt;
                        }
                        other => prop_assert!(false, "mismatch: {other:?}"),
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.now().0, now);
        }
    }

    /// The Markov timer's interval is always `2^k · INIT` with `k ≤ 5`,
    /// resets on success, and wraps after five consecutive doublings.
    #[test]
    fn markov_timer_stays_on_the_lattice(outcomes in proptest::collection::vec(proptest::bool::ANY, 1..200)) {
        let init = Duration::from_secs(30);
        let mut t = MarkovTimer::new(init);
        for ok in outcomes {
            t.record(if ok { TrialOutcome::Exchanged } else { TrialOutcome::NoGain });
            let ratio = t.current().as_millis() / init.as_millis();
            prop_assert!(t.current().as_millis() % init.as_millis() == 0);
            prop_assert!([1, 2, 4, 8, 16, 32].contains(&ratio), "ratio {ratio}");
            if ok {
                prop_assert_eq!(t.current(), init);
            }
        }
    }

    /// Welford accumulator agrees with direct two-pass computation and is
    /// merge-order independent.
    #[test]
    fn accumulator_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 1..300), split in 0usize..300) {
        let mut acc = Accumulator::new();
        for &x in &xs {
            acc.add(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let scale = 1.0 + mean.abs() + var.abs();
        prop_assert!((acc.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((acc.variance() - var).abs() / scale.powi(2).max(scale) < 1e-6);

        // Split-merge agrees with sequential.
        let k = split.min(xs.len());
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..k] {
            left.add(x);
        }
        for &x in &xs[k..] {
            right.add(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), acc.count());
        prop_assert!((left.mean() - acc.mean()).abs() / scale < 1e-9);
    }

    /// Fork streams are stable (same label ⇒ same stream) and independent
    /// of sibling draws.
    #[test]
    fn rng_forks_are_stable(seed in 0u64..u64::MAX, label in "[a-z]{1,12}") {
        let root = SimRng::seed_from(seed);
        let mut a = root.fork(&label);
        // Interleave unrelated forks/draws — must not perturb `b`.
        let mut noise = root.fork("noise");
        let _ = noise.range(0..u64::MAX);
        let mut b = root.fork(&label);
        for _ in 0..8 {
            prop_assert_eq!(a.range(0..u64::MAX), b.range(0..u64::MAX));
        }
    }

    /// sample_distinct returns distinct in-range elements.
    #[test]
    fn sample_distinct_properties(seed in 0u64..u64::MAX, n in 1usize..100, k in 0usize..120) {
        let mut rng = SimRng::seed_from(seed);
        let xs: Vec<usize> = (0..n).collect();
        let s = rng.sample_distinct(&xs, k);
        prop_assert_eq!(s.len(), k.min(n));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), s.len(), "duplicates in sample");
        for v in s {
            prop_assert!(v < n);
        }
    }
}
