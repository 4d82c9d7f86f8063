//! Model-based property tests for the simulation kernel: seeded loops, one
//! `SimRng` per case, the case number in every failure message.

use prop_engine::backoff::TrialOutcome;
use prop_engine::{Duration, EventQueue, MarkovTimer, SimRng, SimTime};

const CASES: u64 = 256;

/// The queue behaves exactly like a sorted-vec reference model with stable
/// (time, insertion) ordering and a monotone clock that a drained
/// `pop_until` moves to its deadline.
#[test]
fn event_queue_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let mut q: EventQueue<u32> = EventQueue::new();
        // Model: (time, seq, payload), popped by (time, seq).
        let mut model: Vec<(u64, u64, u32)> = Vec::new();
        let mut seq = 0u64;
        let mut payload = 0u32;
        let mut now = 0u64;

        for _ in 0..rng.range(1..120usize) {
            let got_and_expect = match rng.range(0..3u32) {
                0 => {
                    // Schedule relative to now: always legal.
                    let at = now + rng.range(0..1000u64);
                    q.schedule_at(SimTime(at), payload);
                    model.push((at, seq, payload));
                    seq += 1;
                    payload += 1;
                    None
                }
                1 => {
                    model.sort_by_key(|&(t, s, _)| (t, s));
                    let expect = if model.is_empty() { None } else { Some(model.remove(0)) };
                    Some((q.pop(), expect))
                }
                _ => {
                    let deadline = now + rng.range(0..1000u64);
                    model.sort_by_key(|&(t, s, _)| (t, s));
                    let expect = match model.first() {
                        Some(&(t, _, _)) if t <= deadline => Some(model.remove(0)),
                        _ => {
                            now = deadline;
                            None
                        }
                    };
                    Some((q.pop_until(SimTime(deadline)), expect))
                }
            };
            match got_and_expect {
                None | Some((None, None)) => {}
                Some((Some((t, v)), Some((mt, _, mv)))) => {
                    assert_eq!((t.0, v), (mt, mv), "case {case}");
                    now = mt;
                }
                Some(other) => panic!("case {case}: mismatch: {other:?}"),
            }
            assert_eq!(q.len(), model.len(), "case {case}");
            assert_eq!(q.now().0, now, "case {case}");
        }
    }
}

/// The Markov timer's interval is always `2^k · INIT` with `k ≤ 5`,
/// resets on success, and wraps after five consecutive doublings.
#[test]
fn markov_timer_stays_on_the_lattice() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let init = Duration::from_secs(30);
        let mut t = MarkovTimer::new(init);
        for _ in 0..rng.range(1..200usize) {
            let ok = rng.chance(0.5);
            t.record(if ok { TrialOutcome::Exchanged } else { TrialOutcome::NoGain });
            let ratio = t.current().as_millis() / init.as_millis();
            assert!(t.current().as_millis().is_multiple_of(init.as_millis()), "case {case}");
            assert!([1, 2, 4, 8, 16, 32].contains(&ratio), "case {case}: ratio {ratio}");
            if ok {
                assert_eq!(t.current(), init, "case {case}");
            }
        }
    }
}

/// Fork streams are stable (same label ⇒ same stream) and independent of
/// sibling draws.
#[test]
fn rng_forks_are_stable() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let seed = rng.range(0..u64::MAX);
        let label: String = (0..rng.range(1..=12usize))
            .map(|_| (b'a' + rng.range(0..26u32) as u8) as char)
            .collect();

        let root = SimRng::seed_from(seed);
        let mut a = root.fork(&label);
        // Interleave unrelated forks/draws — must not perturb `b`.
        let mut noise = root.fork("noise");
        let _ = noise.range(0..u64::MAX);
        let mut b = root.fork(&label);
        for _ in 0..8 {
            assert_eq!(a.range(0..u64::MAX), b.range(0..u64::MAX), "case {case}: label {label}");
        }
    }
}

/// sample_distinct returns distinct in-range elements.
#[test]
fn sample_distinct_properties() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let (n, k) = (rng.range(1..100usize), rng.range(0..120usize));
        let xs: Vec<usize> = (0..n).collect();
        let s = rng.sample_distinct(&xs, k);
        assert_eq!(s.len(), k.min(n), "case {case}");
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), s.len(), "case {case}: duplicates in sample");
        assert!(s.iter().all(|&v| v < n), "case {case}");
    }
}
