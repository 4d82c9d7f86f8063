//! Arrival processes.
//!
//! Two Poisson generators with one draw discipline:
//!
//! * [`poisson_train`] — the legacy constant-rate train: exponential gaps
//!   of mean `60_000 / rate` ms, clamped to ≥ 1 ms, until the window
//!   closes. `ChurnTrace::poisson` has always consumed exactly this
//!   sequence; it now delegates here, so the static churn generator and
//!   the traffic compiler share one process (regression-pinned in
//!   `tests/traffic.rs`).
//! * [`bucketed_events`] / [`bucketed_train`] — the piecewise-constant
//!   train: the clock is tiled into `bucket_ms`-wide buckets
//!   ([`SimTime::bucket`]), each with its own rate and its own
//!   `fork_indexed(label, bucket)` stream. Generation is a pure function
//!   of `(root, label, bucket)` — buckets can be generated in any order
//!   and the trace is bit-identical.
//!
//! The per-bucket process restarts its gap accumulation at each bucket
//! boundary (a fresh exponential draw), which slightly thins arrivals
//! straddling boundaries relative to a true inhomogeneous process; for
//! hour-scale buckets and minute-scale gaps the distortion is negligible
//! and determinism is exact, which is the trade this plane wants.

use prop_engine::{Duration, SimRng, SimTime};

/// Constant-rate Poisson event times over `[start, start + window)` at
/// `per_min` events per simulated minute. Draws one `exp_millis` per
/// event (plus the final out-of-window one); `per_min ≤ 0` draws nothing.
pub fn poisson_train(
    start: SimTime,
    window: Duration,
    per_min: f64,
    rng: &mut SimRng,
) -> Vec<SimTime> {
    let mut out = Vec::new();
    if per_min <= 0.0 {
        return out;
    }
    let mean_gap_ms = 60_000.0 / per_min;
    let mut t = start;
    loop {
        let gap = Duration::from_millis(rng.exp_millis(mean_gap_ms).max(1));
        t += gap;
        if t.since(start) >= window {
            break;
        }
        out.push(t);
    }
    out
}

/// Piecewise-constant Poisson events: bucket `b` covers
/// `[b·bucket_ms, (b+1)·bucket_ms)` at `rates_per_min[b]` events/min,
/// drawn from the independent stream `root.fork_indexed(label, b)`. After
/// each accepted arrival, `payload` draws the event's attributes from the
/// *same* bucket stream (so times and attributes replay together).
pub fn bucketed_events<T>(
    root: &SimRng,
    label: &str,
    bucket_ms: u64,
    rates_per_min: &[f64],
    mut payload: impl FnMut(SimTime, &mut SimRng) -> T,
) -> Vec<(SimTime, T)> {
    let width = Duration::from_millis(bucket_ms.max(1));
    let mut out = Vec::new();
    for (b, &rate) in rates_per_min.iter().enumerate() {
        if rate <= 0.0 {
            continue;
        }
        let mut rng = root.fork_indexed(label, b as u64);
        let start = SimTime::bucket_start(b as u64, width);
        let mean_gap_ms = 60_000.0 / rate;
        let mut t = start;
        loop {
            let gap = Duration::from_millis(rng.exp_millis(mean_gap_ms).max(1));
            t += gap;
            if t.since(start) >= width {
                break;
            }
            let v = payload(t, &mut rng);
            out.push((t, v));
        }
    }
    out
}

/// [`bucketed_events`] without attributes: just the arrival times.
pub fn bucketed_train(
    root: &SimRng,
    label: &str,
    bucket_ms: u64,
    rates_per_min: &[f64],
) -> Vec<SimTime> {
    bucketed_events(root, label, bucket_ms, rates_per_min, |_, _| ())
        .into_iter()
        .map(|(t, ())| t)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_matches_rate_and_bounds() {
        let mut rng = SimRng::seed_from(1);
        let start = SimTime(5_000);
        let window = Duration::from_minutes(500);
        let train = poisson_train(start, window, 2.0, &mut rng);
        for w in train.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for &t in &train {
            assert!(t > start && t.since(start) < window);
        }
        let rate = train.len() as f64 / 500.0;
        assert!((rate - 2.0).abs() < 0.2, "observed {rate}");
    }

    #[test]
    fn zero_rate_is_empty() {
        let mut rng = SimRng::seed_from(2);
        assert!(poisson_train(SimTime::ZERO, Duration::from_minutes(10), 0.0, &mut rng).is_empty());
    }

    #[test]
    fn bucketed_events_stay_in_their_bucket() {
        let root = SimRng::seed_from(3);
        let rates = [3.0, 0.0, 8.0, 1.0];
        let evs = bucketed_events(&root, "t", 60_000, &rates, |t, _| t.bucket(Duration(60_000)));
        assert!(!evs.is_empty());
        for (t, b) in evs {
            assert_eq!(t.bucket(Duration::from_millis(60_000)), b);
            assert_ne!(b, 1, "zero-rate bucket emitted");
        }
    }

    #[test]
    fn buckets_are_independent_streams() {
        // Changing one bucket's rate must not perturb the other buckets.
        let root = SimRng::seed_from(4);
        let a = bucketed_train(&root, "x", 60_000, &[2.0, 5.0, 2.0]);
        let b = bucketed_train(&root, "x", 60_000, &[2.0, 0.5, 2.0]);
        let in_bucket = |evs: &[SimTime], k: u64| -> Vec<SimTime> {
            evs.iter().copied().filter(|t| t.bucket(Duration(60_000)) == k).collect()
        };
        assert_eq!(in_bucket(&a, 0), in_bucket(&b, 0));
        assert_eq!(in_bucket(&a, 2), in_bucket(&b, 2));
        assert_ne!(in_bucket(&a, 1).len(), in_bucket(&b, 1).len());
    }

    #[test]
    fn payload_draws_share_the_bucket_stream() {
        let root = SimRng::seed_from(5);
        let a = bucketed_events(&root, "p", 60_000, &[5.0], |_, rng| rng.range(0..100u32));
        let b = bucketed_events(&root, "p", 60_000, &[5.0], |_, rng| rng.range(0..100u32));
        assert_eq!(a, b);
    }
}
