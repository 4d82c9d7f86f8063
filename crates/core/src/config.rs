//! Protocol parameters — the named constants of the paper's §3.2 and §5.1.

use prop_engine::Duration;

/// Which member of the PROP family to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Exchange *all* neighbors (swap positions / identifiers). Safe on any
    /// overlay, structured or unstructured.
    PropG,
    /// Exchange exactly `m` selected neighbors per side; `None` means the
    /// paper's default `m = δ(G)` (the overlay's minimum degree), resolved
    /// at simulation start.
    ///
    /// PROP-O rewires the logical graph, so it is only meaningful on
    /// overlays whose wiring is free (Gnutella-like); on DHTs the routing
    /// rules pin the logical graph and only PROP-G applies — which is how
    /// the paper evaluates it.
    PropO { m: Option<usize> },
}

/// How a peer locates its exchange counterpart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeMode {
    /// TTL-limited random walk of `nhops` hops (the deployable mechanism;
    /// paper default `nhops = 2`).
    Walk { nhops: u32 },
    /// Uniformly random live node (the idealized "random" curve of
    /// Figs. 5(a)/6(a); not realizable in a distributed system, used as a
    /// reference).
    Random,
}

/// Full protocol configuration.
#[derive(Clone, Debug)]
pub struct PropConfig {
    pub policy: Policy,
    pub probe: ProbeMode,
    /// Exchange threshold: proceed iff `Var > min_var`. The paper's §4.2
    /// analysis sets this to 0 ("we will set MIN_VAR = 0").
    pub min_var: i64,
    /// Warm-up length in probe trials ("simulations … show this number to
    /// be less than ten").
    pub max_init_trial: u32,
    /// Initial probe interval ("we simply set it as 1 minute").
    pub init_timer: Duration,
}

impl PropConfig {
    /// The paper's defaults with the given policy: `nhops = 2`,
    /// `MIN_VAR = 0`, `MAX_INIT_TRIAL = 10`, `INIT_TIMER = 1 min`.
    pub fn paper_defaults(policy: Policy) -> Self {
        PropConfig {
            policy,
            probe: ProbeMode::Walk { nhops: 2 },
            min_var: 0,
            max_init_trial: 10,
            init_timer: Duration::from_minutes(1),
        }
    }

    /// PROP-G with paper defaults.
    pub fn prop_g() -> Self {
        Self::paper_defaults(Policy::PropG)
    }

    /// PROP-O with paper defaults and the default `m = δ(G)`.
    pub fn prop_o() -> Self {
        Self::paper_defaults(Policy::PropO { m: None })
    }

    /// PROP-O with an explicit `m` (Fig. 7 sweeps `m ∈ {1, 2, 4}`).
    pub fn prop_o_m(m: usize) -> Self {
        Self::paper_defaults(Policy::PropO { m: Some(m) })
    }

    /// Builder-style override of the probe mode.
    pub fn with_probe(mut self, probe: ProbeMode) -> Self {
        self.probe = probe;
        self
    }

    /// Builder-style override of the initial timer.
    pub fn with_init_timer(mut self, init: Duration) -> Self {
        self.init_timer = init;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper() {
        let c = PropConfig::prop_g();
        assert_eq!(c.policy, Policy::PropG);
        assert_eq!(c.probe, ProbeMode::Walk { nhops: 2 });
        assert_eq!(c.min_var, 0);
        assert_eq!(c.max_init_trial, 10);
        assert_eq!(c.init_timer, Duration::from_minutes(1));
    }

    #[test]
    fn prop_o_defaults_to_min_degree() {
        assert_eq!(PropConfig::prop_o().policy, Policy::PropO { m: None });
        assert_eq!(PropConfig::prop_o_m(2).policy, Policy::PropO { m: Some(2) });
    }

    #[test]
    fn builders_override() {
        let c = PropConfig::prop_g()
            .with_probe(ProbeMode::Random)
            .with_init_timer(Duration::from_secs(30));
        assert_eq!(c.probe, ProbeMode::Random);
        assert_eq!(c.init_timer, Duration::from_secs(30));
    }
}
