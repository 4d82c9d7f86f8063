//! The paper's closed-form analysis (§4.2, §4.3), as executable models.
//!
//! These are the equations the evaluation section checks simulation
//! results against:
//!
//! * per-adjustment message cost — `nhop + 2c` (PROP-G) vs `nhop + 2m`
//!   (PROP-O);
//! * worst-case probe frequency `f_p = 1 / INIT_TIMER`;
//! * the steady-state probe rate of the Markov backoff chain for a given
//!   per-trial success probability — the model behind "the frequency is
//!   very low after [warm-up]";
//! * Eq. 3's average latency `AL = (Σ_i Σ_j d(i,j)) / n²`.

use prop_engine::Duration;

/// §4.3: messages for one PROP-G adjustment step — the walk plus both
/// peers probing each other's full neighborhoods (`c` = average degree).
///
/// ```
/// use prop_core::analysis::{propg_msgs_per_step, propo_msgs_per_step};
/// // With nhop = 2, mean degree 8, and m = 4:
/// assert_eq!(propg_msgs_per_step(2, 8.0), 18.0);
/// assert_eq!(propo_msgs_per_step(2, 4), 10.0); // PROP-O is cheaper
/// ```
pub fn propg_msgs_per_step(nhop: u32, mean_degree: f64) -> f64 {
    nhop as f64 + 2.0 * mean_degree
}

/// §4.3: messages for one PROP-O adjustment step — the walk plus `m`
/// probes per side.
pub fn propo_msgs_per_step(nhop: u32, m: usize) -> f64 {
    nhop as f64 + 2.0 * m as f64
}

/// §4.3: worst-case per-node probe frequency (probes per millisecond) —
/// every trial fails *and* the timer is pinned at `INIT_TIMER` (i.e. the
/// warm-up regime).
pub fn worst_case_probe_rate(init_timer: Duration) -> f64 {
    1.0 / init_timer.as_millis() as f64
}

/// Steady-state probe rate (probes per millisecond) of the maintenance
/// Markov chain, for a per-trial exchange probability `q`.
///
/// The timer walks states `2⁰·T, 2¹·T, …, 2⁵·T`: success (prob `q`) resets
/// to state 0, failure advances (state 5 wraps to 0, the paper's "at most
/// five times of suspending"). The chain regenerates at every visit to
/// state 0, so the rate is `E[trials per cycle] / E[time per cycle]`.
pub fn steady_state_probe_rate(q: f64, init_timer: Duration) -> f64 {
    assert!((0.0..=1.0).contains(&q));
    let t = init_timer.as_millis() as f64;
    let states = 6; // 2^0 .. 2^5
                    // A renewal cycle starts just after a reset: wait 2⁰·T, trial at state
                    // 0; on failure wait 2¹·T, trial at state 1; … The cycle ends at the
                    // first success or after the state-5 trial (wrap). The state-k trial is
                    // reached with probability (1-q)^k, and its wait of 2^k·T is paid iff
                    // it is reached.
    let mut expected_trials = 0.0;
    let mut expected_time = 0.0;
    let p_fail = 1.0 - q;
    for k in 0..states {
        let reach = p_fail.powi(k);
        expected_trials += reach;
        expected_time += reach * (1u64 << k) as f64 * t;
    }
    expected_trials / expected_time
}

/// Eq. 3: average latency over all ordered pairs, `d(i,i) = 0`.
pub fn average_latency(d: &[u32], n: usize) -> f64 {
    assert_eq!(d.len(), n * n);
    let total: u64 = d.iter().map(|&x| x as u64).sum();
    total as f64 / (n as f64 * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_formulas() {
        assert_eq!(propg_msgs_per_step(2, 8.0), 18.0);
        assert_eq!(propo_msgs_per_step(2, 4), 10.0);
        // PROP-O is cheaper whenever m < c.
        assert!(propo_msgs_per_step(2, 4) < propg_msgs_per_step(2, 8.0));
    }

    #[test]
    fn worst_case_rate_is_one_per_init_timer() {
        let r = worst_case_probe_rate(Duration::from_minutes(1));
        assert!((r * 60_000.0 - 1.0).abs() < 1e-12, "1 probe per minute");
    }

    #[test]
    fn steady_state_rate_decreases_with_failures() {
        let t = Duration::from_minutes(1);
        let always_succeed = steady_state_probe_rate(1.0, t);
        let half = steady_state_probe_rate(0.5, t);
        let never = steady_state_probe_rate(0.0, t);
        assert!(always_succeed > half && half > never);
        // q = 1 ⇒ every wait is INIT_TIMER ⇒ worst-case rate.
        assert!((always_succeed - worst_case_probe_rate(t)).abs() < 1e-15);
    }

    #[test]
    fn steady_state_rate_with_certain_failure() {
        // q = 0: one cycle = 6 trials, waits T+2T+4T+8T+16T+32T = 63T
        // ⇒ rate = 6/(63T) ≈ one probe per 10.5·T — the paper's "the
        // frequency is very low after [warm-up]".
        let t = Duration::from_minutes(1);
        let rate = steady_state_probe_rate(0.0, t);
        let expect = 6.0 / (63.0 * 60_000.0);
        assert!((rate - expect).abs() < 1e-15, "rate {rate}, expect {expect}");
    }

    #[test]
    fn average_latency_matches_manual() {
        // 2×2 matrix: d(0,1)=d(1,0)=10.
        let d = [0, 10, 10, 0];
        assert!((average_latency(&d, 2) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn analysis_matches_markov_timer_behaviour() {
        // The closed form and the MarkovTimer implementation agree on the
        // q = 0 cycle: simulate 6 failures and sum the waits — and the
        // timer must be back at INIT_TIMER afterwards (cycle complete).
        use prop_engine::backoff::TrialOutcome;
        use prop_engine::MarkovTimer;
        let init = Duration::from_minutes(1);
        let mut timer = MarkovTimer::new(init);
        let mut waited = 0u64;
        for _ in 0..6 {
            waited += timer.current().as_millis();
            timer.record(TrialOutcome::NoGain);
        }
        assert_eq!(waited, 63 * 60_000, "(1+2+4+8+16+32)·T");
        assert_eq!(timer.current(), init, "wrapped back to INIT_TIMER");
    }
}
