//! The invariant harness: replay a [`FaultScript`] against the driver in
//! both timing modes and prove the paper's theorems hold under faults.
//!
//! At every checkpoint (a regular cadence, plus the exact start of every
//! partition window so side snapshots are taken at the right instant) the
//! harness asserts:
//!
//! * **Theorem 1, global** — the logical graph is connected. Exchanges
//!   preserve connectivity, and the fault plane can only *suppress*
//!   exchanges (messages drop; the overlay itself is never mutated by a
//!   fault), so this holds at every checkpoint — during splits too, and in
//!   particular after heal.
//! * **Theorem 1, per side** — while a partition is active and the policy
//!   is PROP-G: the slot→side map is frozen (cross-side commits drop at
//!   the cut, and a same-side swap moves no one across it), so each side's
//!   induced subgraph — and hence its connectivity status — must match
//!   the snapshot taken at the split instant. Under PROP-O a committed
//!   swap may legitimately hand a *cross-side* neighbor over (the moved
//!   neighbor is not consulted), so only the global property is asserted.
//! * **Theorem 2** — under PROP-G the edge set is literally identical to
//!   the initial one; under PROP-O the degree sequence is preserved.
//!
//! Any violation aborts the replay with a description of what broke and
//! when.

use crate::partition::{transit_bisection, Side};
use crate::plane::compile;
use crate::script::FaultScript;
use prop_core::fault::FaultCounters;
use prop_core::sim::{Atomic, MessageLevel, Timing};
use prop_core::{Policy, PropConfig, PropSim};
use prop_engine::{Duration, SimRng, SimTime};
use prop_netsim::{generate, LatencyOracle, TransitStubParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use prop_overlay::{OverlayNet, Slot};
use std::sync::Arc;

/// One timing mode's verified replay result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayResult {
    /// Fault counters at the horizon.
    pub counters: FaultCounters,
    /// Total logical link latency at the horizon (overlay fingerprint for
    /// determinism checks).
    pub final_latency: u64,
    /// Number of checkpoints at which the invariants were verified.
    pub checkpoints: usize,
}

/// Both timing modes' verified replay results for one scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HarnessReport {
    pub sync: ReplayResult,
    pub r#async: ReplayResult,
}

/// A self-contained fault scenario: topology + overlay + protocol + script.
#[derive(Clone, Debug)]
pub struct FaultHarness {
    pub topology: TransitStubParams,
    /// Overlay members drawn from the stub population.
    pub members: usize,
    pub cfg: PropConfig,
    pub script: FaultScript,
    /// Seeds topology, overlay, driver, and the fault plane.
    pub seed: u64,
    pub horizon: Duration,
    pub checkpoint_every: Duration,
}

impl FaultHarness {
    /// A small scenario (tiny transit-stub topology) sized for tests.
    pub fn small(cfg: PropConfig, script: FaultScript, seed: u64) -> FaultHarness {
        FaultHarness {
            topology: TransitStubParams::tiny(),
            members: 30,
            cfg,
            script,
            seed,
            horizon: Duration::from_minutes(40),
            checkpoint_every: Duration::from_minutes(2),
        }
    }

    /// Replay the script in both timing modes, checking invariants at every
    /// checkpoint. `Err` describes the first violation.
    pub fn run(&self) -> Result<HarnessReport, String> {
        Ok(HarnessReport {
            sync: self.replay::<Atomic>("Sync")?,
            r#async: self.replay::<MessageLevel>("Async")?,
        })
    }

    fn replay<M: Timing>(&self, kind: &str) -> Result<ReplayResult, String> {
        let mut rng = SimRng::seed_from(self.seed);
        let phys = generate(&self.topology, &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, self.members, &mut rng));
        let sides = transit_bisection(&phys, &oracle);
        let (_, net) = Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);

        let edges0: Vec<(Slot, Slot)> = net.graph().edges().collect();
        let degseq0 = net.graph().degree_sequence();

        let mut driver = PropSim::<M>::new(net, self.cfg.clone(), &mut rng);
        driver.set_fault_plane(Box::new(compile(&self.script, &sides, self.seed)));

        // Checkpoints: the regular cadence, plus every partition boundary
        // (snapshots must be taken exactly at the split instant).
        let horizon = self.horizon.as_millis();
        let step = self.checkpoint_every.as_millis().max(1);
        let mut checks: Vec<u64> = (1..).map(|k| k * step).take_while(|&t| t < horizon).collect();
        for (s, e) in self.script.partition_windows() {
            for b in [s, e] {
                if b < horizon {
                    checks.push(b);
                }
            }
        }
        checks.push(horizon);
        checks.sort_unstable();
        checks.dedup();

        let windows = self.script.partition_windows();
        let is_prop_g = self.cfg.policy == Policy::PropG;
        /// What held at the instant the active partition window opened.
        struct SplitSnapshot {
            window: (u64, u64),
            sides: Vec<Option<Side>>,
            connected: [bool; 2],
        }
        let mut split_state: Option<SplitSnapshot> = None;
        let mut verified = 0usize;

        for t in checks {
            driver.run_until(SimTime(t));
            let net = driver.net();

            // Theorem 1, global: faults suppress exchanges but never edit
            // the overlay, so connectivity must survive every interleaving
            // — including mid-split, including after heal.
            if !net.graph().is_connected() {
                return Err(format!("[{kind}] logical graph disconnected at t={t}ms"));
            }
            match self.cfg.policy {
                // Theorem 2: PROP-G trades positions, never edges.
                Policy::PropG => {
                    let edges: Vec<(Slot, Slot)> = net.graph().edges().collect();
                    if edges != edges0 {
                        return Err(format!("[{kind}] PROP-G edge set changed at t={t}ms"));
                    }
                    if !net.placement().is_consistent() {
                        return Err(format!("[{kind}] placement inconsistent at t={t}ms"));
                    }
                }
                // PROP-O: equal-sized neighbor trades preserve all degrees.
                Policy::PropO { .. } => {
                    if net.graph().degree_sequence() != degseq0 {
                        return Err(format!("[{kind}] PROP-O degree sequence changed at t={t}ms"));
                    }
                }
            }

            // Theorem 1, per side (PROP-G only; see module docs for why
            // PROP-O edges may legitimately cross the cut).
            if is_prop_g {
                let active = windows.iter().find(|&&(s, e)| s <= t && t < e).copied();
                match active {
                    None => split_state = None,
                    Some(w) => {
                        let map = side_map(net, &sides);
                        let conn = [
                            side_connected(net, &map, Side::A),
                            side_connected(net, &map, Side::B),
                        ];
                        if let Some(at_split) = split_state.as_ref().filter(|s| s.window == w) {
                            let (map0, conn0) = (&at_split.sides, &at_split.connected);
                            if map != *map0 {
                                return Err(format!(
                                    "[{kind}] slot→side map changed during partition at t={t}ms \
                                     (a cross-side exchange committed through the cut)"
                                ));
                            }
                            if conn != *conn0 {
                                return Err(format!(
                                    "[{kind}] per-side connectivity changed during partition \
                                     at t={t}ms: {conn0:?} → {conn:?}"
                                ));
                            }
                        } else {
                            // Split instant (or a new window): take snapshots.
                            split_state =
                                Some(SplitSnapshot { window: w, sides: map, connected: conn });
                        }
                    }
                }
            }
            verified += 1;
        }

        Ok(ReplayResult {
            counters: driver.fault_counters().unwrap_or_default(),
            final_latency: driver.net().total_link_latency(),
            checkpoints: verified,
        })
    }
}

/// Side of the peer currently occupying each slot (`None` for dead slots).
fn side_map(net: &OverlayNet, sides: &[Side]) -> Vec<Option<Side>> {
    (0..net.graph().num_slots())
        .map(|i| {
            let slot = Slot(i as u32);
            if net.graph().is_alive(slot) {
                Some(sides.get(net.peer(slot)).copied().unwrap_or(Side::A))
            } else {
                None
            }
        })
        .collect()
}

/// Is the subgraph induced by the slots on `side` connected? (Vacuously
/// true when the side holds at most one live slot.)
fn side_connected(net: &OverlayNet, map: &[Option<Side>], side: Side) -> bool {
    let members: Vec<Slot> =
        (0..map.len()).filter(|&i| map[i] == Some(side)).map(|i| Slot(i as u32)).collect();
    if members.len() <= 1 {
        return true;
    }
    let mut seen = vec![false; map.len()];
    let mut stack = vec![members[0]];
    seen[members[0].index()] = true;
    let mut reached = 1usize;
    while let Some(u) = stack.pop() {
        for &v in net.graph().neighbors(u) {
            if map[v.index()] == Some(side) && !seen[v.index()] {
                seen[v.index()] = true;
                reached += 1;
                stack.push(v);
            }
        }
    }
    reached == members.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_script_passes_both_drivers() {
        let h = FaultHarness::small(PropConfig::prop_g(), FaultScript::new(), 11);
        let report = h.run().expect("perfect network must satisfy all invariants");
        assert!(report.sync.checkpoints > 10);
        for c in [report.sync.counters, report.r#async.counters] {
            assert!(c.ruled > 0, "the driver submitted no message: {c:?}");
            assert_eq!(FaultCounters { ruled: 0, ..c }, FaultCounters::default());
        }
    }

    #[test]
    fn partition_script_passes_and_counts() {
        // 5-minute split starting at t = 10 min.
        let script = FaultScript::new().partition(600_000, 300_000);
        for cfg in [PropConfig::prop_g(), PropConfig::prop_o()] {
            let h = FaultHarness::small(cfg, script.clone(), 12);
            let report = h.run().expect("partition must not break the theorems");
            assert_eq!(report.sync.counters.partition_ms, 300_000);
            assert_eq!(report.r#async.counters.partition_ms, 300_000);
        }
    }

    #[test]
    fn lossy_crashy_script_passes() {
        let script = FaultScript::new()
            .loss(0, 0.15)
            .duplicate(0, 0.05)
            .reorder(0, 0.2, 400)
            .drift(300_000, 300_000, 80)
            .crash(600_000, 3, 120_000)
            .partition(900_000, 180_000);
        for cfg in [PropConfig::prop_g(), PropConfig::prop_o()] {
            let h = FaultHarness::small(cfg, script.clone(), 13);
            let report = h.run().expect("mixed faults must not break the theorems");
            let total = report.r#async.counters;
            assert!(total.drops > 0, "15% loss over 40 min must drop something: {total:?}");
        }
    }

    #[test]
    fn harness_is_deterministic() {
        let script =
            FaultScript::new().loss(0, 0.1).partition(600_000, 120_000).crash(300_000, 5, 60_000);
        let h = FaultHarness::small(PropConfig::prop_o(), script, 14);
        let a = h.run().expect("run a");
        let b = h.run().expect("run b");
        assert_eq!(a, b, "same seed + script must replay identically");
    }
}
