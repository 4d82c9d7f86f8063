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
//!   and the trace is bit-identical. It stops at the caller's horizon: a
//!   bucket that straddles it draws its arrivals before it and no more.
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
    let end = start.0.saturating_add(window.0);
    let mut t = start;
    loop {
        // A gap that leaves the window ends the train: compared before it
        // is added, so a gap near `u64::MAX` (a rate near 0) cannot wrap.
        let gap = rng.exp_millis(mean_gap_ms).max(1);
        if gap >= end - t.0 {
            break;
        }
        t += Duration::from_millis(gap);
        out.push(t);
    }
    out
}

/// Piecewise-constant Poisson events before `until`: bucket `b` covers
/// `[b·bucket_ms, (b+1)·bucket_ms)` at `rates_per_min[b]` events/min,
/// drawn from the independent stream `root.fork_indexed(label, b)`. After
/// each accepted arrival, `payload` draws the event's attributes from the
/// *same* bucket stream (so times and attributes replay together). A
/// bucket's train stops at `until`, which leaves its arrivals before it as
/// they would be without the cut.
pub fn bucketed_events<T>(
    root: &SimRng,
    label: &str,
    bucket_ms: u64,
    rates_per_min: &[f64],
    until: SimTime,
    mut payload: impl FnMut(SimTime, &mut SimRng) -> T,
) -> Vec<(SimTime, T)> {
    let width = Duration::from_millis(bucket_ms.max(1));
    let mut out = Vec::new();
    for (b, &rate) in rates_per_min.iter().enumerate() {
        let start = SimTime::bucket_start(b as u64, width);
        let end = start.0.saturating_add(width.0).min(until.0);
        if rate <= 0.0 || end <= start.0 {
            continue;
        }
        let mut rng = root.fork_indexed(label, b as u64);
        let mean_gap_ms = 60_000.0 / rate;
        let mut t = start;
        loop {
            let gap = rng.exp_millis(mean_gap_ms).max(1);
            if gap >= end - t.0 {
                break;
            }
            t += Duration::from_millis(gap);
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
    until: SimTime,
) -> Vec<SimTime> {
    bucketed_events(root, label, bucket_ms, rates_per_min, until, |_, _| ())
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
        let until = SimTime(4 * 60_000);
        let evs =
            bucketed_events(&root, "t", 60_000, &rates, until, |t, _| t.bucket(Duration(60_000)));
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
        let until = SimTime(3 * 60_000);
        let a = bucketed_train(&root, "x", 60_000, &[2.0, 5.0, 2.0], until);
        let b = bucketed_train(&root, "x", 60_000, &[2.0, 0.5, 2.0], until);
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
        let until = SimTime(60_000);
        let a = bucketed_events(&root, "p", 60_000, &[5.0], until, |_, rng| rng.range(0..100u32));
        let b = bucketed_events(&root, "p", 60_000, &[5.0], until, |_, rng| rng.range(0..100u32));
        assert_eq!(a, b);
    }

    #[test]
    fn a_cut_bucket_keeps_its_arrivals_before_the_cut() {
        // The draws before the cut are the uncut bucket's, payloads too,
        // and a bucket wholly past it draws nothing.
        let root = SimRng::seed_from(6);
        let rank = |_: SimTime, rng: &mut SimRng| rng.range(0..100u32);
        let whole = bucketed_events(&root, "c", 60_000, &[30.0, 9.0], SimTime(120_000), rank);
        let cut = SimTime(70_000);
        let before: Vec<_> = whole.iter().copied().filter(|&(t, _)| t < cut).collect();
        assert!(before.len() > 10 && before.len() < whole.len());
        assert_eq!(bucketed_events(&root, "c", 60_000, &[30.0, 9.0], cut, rank), before);
        assert!(bucketed_train(&root, "c", 60_000, &[30.0], SimTime::ZERO).is_empty());
        // A rate near zero draws a gap near `u64::MAX`, which ends its
        // bucket instead of wrapping the clock, the last bucket included.
        let wide =
            bucketed_train(&root, "w", u64::MAX / 2, &[1e-300, 1e-300, 1e-300], SimTime(u64::MAX));
        assert!(wide.is_empty());
        let mut rng = SimRng::seed_from(7);
        let start = SimTime(u64::MAX - 10);
        assert!(poisson_train(start, Duration(10), 1e-300, &mut rng).is_empty());
    }
}
