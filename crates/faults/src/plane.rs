//! The injectors: concrete [`FaultPlane`] implementations.
//!
//! Each injector models one failure mode and owns one forked [`SimRng`]
//! stream, so its decisions depend only on (seed, script, query order) —
//! the drivers consult the plane in event order, which makes every run
//! bit-reproducible. [`ComposedPlane`] stacks injectors and consults *all*
//! of them for every query in fixed order (no short-circuiting — a drop
//! verdict from the first injector must not starve the RNG streams of the
//! later ones, or composition would perturb their decisions).
//!
//! [`compile`] turns a declarative [`FaultScript`] into a ready-to-attach
//! plane.

use crate::partition::Side;
use crate::script::{FaultEvent, FaultScript};
use prop_core::fault::{Delivery, FaultCounters, FaultPlane, MsgKind};
use prop_engine::{window_overlap_ms, SimRng, SimTime};

/// Value of a step function (last step at or before `t`, else 0).
fn step_value<T: Copy + Default>(steps: &[(u64, T)], t: u64) -> T {
    steps.iter().rev().find(|&&(at, _)| at <= t).map(|&(_, v)| v).unwrap_or_default()
}

/// Random per-message loss, probability scheduled as a step function.
pub struct LossInjector {
    steps: Vec<(u64, f64)>,
    rng: SimRng,
    counters: FaultCounters,
}

impl LossInjector {
    /// `steps` are `(at_ms, probability)` pairs, already sorted by time.
    pub fn new(steps: Vec<(u64, f64)>, rng: SimRng) -> Self {
        LossInjector { steps, rng, counters: FaultCounters::default() }
    }
}

impl FaultPlane for LossInjector {
    fn deliver(&mut self, now: SimTime, _kind: MsgKind, _from: usize, _to: usize) -> Delivery {
        let p = step_value(&self.steps, now.as_millis());
        if self.rng.chance(p) {
            self.counters.drops += 1;
            Delivery::DROPPED
        } else {
            Delivery::CLEAN
        }
    }

    fn counters(&mut self, _now: SimTime) -> FaultCounters {
        self.counters
    }
}

/// Random per-message duplication, probability scheduled as a step function.
pub struct DupInjector {
    steps: Vec<(u64, f64)>,
    rng: SimRng,
    counters: FaultCounters,
}

impl DupInjector {
    pub fn new(steps: Vec<(u64, f64)>, rng: SimRng) -> Self {
        DupInjector { steps, rng, counters: FaultCounters::default() }
    }
}

impl FaultPlane for DupInjector {
    fn deliver(&mut self, now: SimTime, _kind: MsgKind, _from: usize, _to: usize) -> Delivery {
        let p = step_value(&self.steps, now.as_millis());
        if self.rng.chance(p) {
            self.counters.dup_deliveries += 1;
            Delivery { delivered: true, duplicate: true, extra_delay_ms: 0 }
        } else {
            Delivery::CLEAN
        }
    }

    fn counters(&mut self, _now: SimTime) -> FaultCounters {
        self.counters
    }
}

/// Random out-of-order delivery: with the scheduled probability a message
/// arrives up to `max_extra_ms` late (overtaken by later traffic).
pub struct ReorderInjector {
    /// `(at_ms, (probability, max_extra_ms))` steps, sorted by time.
    steps: Vec<(u64, (f64, u64))>,
    rng: SimRng,
    counters: FaultCounters,
}

impl ReorderInjector {
    pub fn new(steps: Vec<(u64, (f64, u64))>, rng: SimRng) -> Self {
        ReorderInjector { steps, rng, counters: FaultCounters::default() }
    }
}

impl FaultPlane for ReorderInjector {
    fn deliver(&mut self, now: SimTime, _kind: MsgKind, _from: usize, _to: usize) -> Delivery {
        let (p, max_extra) = step_value(&self.steps, now.as_millis());
        if self.rng.chance(p) && max_extra > 0 {
            self.counters.reorders += 1;
            let extra = self.rng.range(1..=max_extra);
            Delivery { delivered: true, duplicate: false, extra_delay_ms: extra }
        } else {
            Delivery::CLEAN
        }
    }

    fn counters(&mut self, _now: SimTime) -> FaultCounters {
        self.counters
    }
}

enum SpikeShape {
    /// Flat plateau: `extra_ms` for the whole window.
    Flat(u64),
    /// Triangular ramp: 0 → peak at the midpoint → 0.
    Triangular(u64),
}

struct SpikeWindow {
    start: u64,
    end: u64,
    shape: SpikeShape,
}

impl SpikeWindow {
    fn extra_at(&self, t: u64) -> u64 {
        if t < self.start || t >= self.end || self.end <= self.start {
            return 0;
        }
        match self.shape {
            SpikeShape::Flat(extra) => extra,
            SpikeShape::Triangular(peak) => {
                // Integer triangular profile, exact at the endpoints.
                let span = self.end - self.start;
                let pos = t - self.start;
                let from_edge = pos.min(span - pos);
                (peak.saturating_mul(2).saturating_mul(from_edge)) / span
            }
        }
    }
}

/// Deterministic link-latency degradation windows (spikes and drifts).
/// Affects message transit time only — the oracle's ground-truth `d()`,
/// and therefore `Var` and the theorems, never see it.
pub struct SpikeInjector {
    windows: Vec<SpikeWindow>,
}

impl SpikeInjector {
    fn new(windows: Vec<SpikeWindow>) -> Self {
        SpikeInjector { windows }
    }
}

impl FaultPlane for SpikeInjector {
    fn deliver(&mut self, _now: SimTime, _kind: MsgKind, _from: usize, _to: usize) -> Delivery {
        Delivery::CLEAN
    }

    fn link_extra_ms(&mut self, now: SimTime, _a: usize, _b: usize) -> u64 {
        let t = now.as_millis();
        self.windows.iter().map(|w| w.extra_at(t)).sum()
    }

    fn counters(&mut self, _now: SimTime) -> FaultCounters {
        FaultCounters::default()
    }
}

/// Transit-core partitions: while a window is active, every message whose
/// endpoints sit on opposite [`Side`]s of the bisection is dropped. A
/// partitioned peer is alive (`is_up` stays the default), just unreachable
/// across the cut.
pub struct PartitionInjector {
    /// Merged, disjoint, sorted `[start, end)` windows.
    windows: Vec<(u64, u64)>,
    sides: Vec<Side>,
    counters: FaultCounters,
}

impl PartitionInjector {
    /// `windows` may overlap; they are merged so active time is not double
    /// counted. `sides` is indexed by member index
    /// (see [`crate::partition::transit_bisection`]).
    pub fn new(mut windows: Vec<(u64, u64)>, sides: Vec<Side>) -> Self {
        windows.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(windows.len());
        for (s, e) in windows {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        PartitionInjector { windows: merged, sides, counters: FaultCounters::default() }
    }

    fn active(&self, t: u64) -> bool {
        self.windows.iter().any(|&(s, e)| s <= t && t < e)
    }

    fn side(&self, peer: usize) -> Side {
        self.sides.get(peer).copied().unwrap_or(Side::A)
    }
}

impl FaultPlane for PartitionInjector {
    fn deliver(&mut self, now: SimTime, _kind: MsgKind, from: usize, to: usize) -> Delivery {
        if self.active(now.as_millis()) && self.side(from) != self.side(to) {
            self.counters.drops += 1;
            Delivery::DROPPED
        } else {
            Delivery::CLEAN
        }
    }

    fn counters(&mut self, now: SimTime) -> FaultCounters {
        let mut c = self.counters;
        c.partition_ms =
            self.windows.iter().map(|&(s, e)| window_overlap_ms(SimTime(s), SimTime(e), now)).sum();
        c
    }
}

/// Crash/restart cycles: a crashed peer launches nothing and receives
/// nothing; a commit handshake that reaches it aborts the trial.
pub struct CrashInjector {
    /// `(peer, start, end)` down-windows.
    windows: Vec<(usize, u64, u64)>,
    counters: FaultCounters,
}

impl CrashInjector {
    pub fn new(windows: Vec<(usize, u64, u64)>) -> Self {
        CrashInjector { windows, counters: FaultCounters::default() }
    }

    fn down(&self, t: u64, peer: usize) -> bool {
        self.windows.iter().any(|&(p, s, e)| p == peer && s <= t && t < e)
    }
}

impl FaultPlane for CrashInjector {
    fn deliver(&mut self, now: SimTime, kind: MsgKind, from: usize, to: usize) -> Delivery {
        let t = now.as_millis();
        if self.down(t, to) {
            if kind == MsgKind::Commit {
                self.counters.crashed_aborts += 1;
            } else {
                self.counters.drops += 1;
            }
            Delivery::DROPPED
        } else if self.down(t, from) {
            self.counters.drops += 1;
            Delivery::DROPPED
        } else {
            Delivery::CLEAN
        }
    }

    fn is_up(&mut self, now: SimTime, peer: usize) -> bool {
        !self.down(now.as_millis(), peer)
    }

    fn counters(&mut self, _now: SimTime) -> FaultCounters {
        self.counters
    }
}

/// A stack of injectors consulted in fixed order for every query.
///
/// All children are always consulted — even after an early drop verdict —
/// so each child's RNG stream advances identically regardless of what the
/// others decided. Verdicts merge per [`Delivery::merge`]; counters sum.
#[derive(Default)]
pub struct ComposedPlane {
    children: Vec<Box<dyn FaultPlane>>,
}

impl ComposedPlane {
    pub fn new() -> Self {
        ComposedPlane::default()
    }

    pub fn push(&mut self, child: Box<dyn FaultPlane>) {
        self.children.push(child);
    }

    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

impl FaultPlane for ComposedPlane {
    fn deliver(&mut self, now: SimTime, kind: MsgKind, from: usize, to: usize) -> Delivery {
        let mut verdict = Delivery::CLEAN;
        for c in &mut self.children {
            verdict = verdict.merge(c.deliver(now, kind, from, to));
        }
        verdict
    }

    fn is_up(&mut self, now: SimTime, peer: usize) -> bool {
        let mut up = true;
        for c in &mut self.children {
            up &= c.is_up(now, peer);
        }
        up
    }

    fn link_extra_ms(&mut self, now: SimTime, a: usize, b: usize) -> u64 {
        self.children.iter_mut().map(|c| c.link_extra_ms(now, a, b)).sum()
    }

    fn counters(&mut self, now: SimTime) -> FaultCounters {
        self.children
            .iter_mut()
            .map(|c| c.counters(now))
            .fold(FaultCounters::default(), FaultCounters::merge)
    }
}

/// Compile a [`FaultScript`] into a ready-to-attach [`ComposedPlane`].
///
/// `sides` is the per-member bisection (needed only if the script contains
/// [`FaultEvent::Partition`] events; pass the output of
/// [`crate::partition::transit_bisection`], or `&[]` for partition-free
/// scripts). `seed` drives every probabilistic injector through distinct
/// forked streams — the same `(script, sides, seed)` always compiles to a
/// plane that makes the same decisions.
///
/// # Panics
///
/// If the script contains partition windows but `sides` does not place
/// members on both sides of the cut — such a "partition" would drop
/// nothing while still accruing `partition_ms`, and reports would claim a
/// split that was never enforced. (`sides` shorter than the membership is
/// not detectable here; missing peers default to [`Side::A`].)
pub fn compile(script: &FaultScript, sides: &[Side], seed: u64) -> ComposedPlane {
    let root = SimRng::seed_from(seed);
    let mut loss_steps = Vec::new();
    let mut dup_steps = Vec::new();
    let mut reorder_steps = Vec::new();
    let mut spike_windows = Vec::new();
    let mut partition_windows = Vec::new();
    let mut crash_windows = Vec::new();
    for ev in script.sorted() {
        match ev {
            FaultEvent::Loss { at_ms, prob } => loss_steps.push((at_ms, prob)),
            FaultEvent::Duplicate { at_ms, prob } => dup_steps.push((at_ms, prob)),
            FaultEvent::Reorder { at_ms, prob, max_extra_ms } => {
                reorder_steps.push((at_ms, (prob, max_extra_ms)))
            }
            FaultEvent::LatencySpike { at_ms, duration_ms, extra_ms } => {
                spike_windows.push(SpikeWindow {
                    start: at_ms,
                    end: at_ms.saturating_add(duration_ms),
                    shape: SpikeShape::Flat(extra_ms),
                })
            }
            FaultEvent::LatencyDrift { at_ms, duration_ms, peak_extra_ms } => {
                spike_windows.push(SpikeWindow {
                    start: at_ms,
                    end: at_ms.saturating_add(duration_ms),
                    shape: SpikeShape::Triangular(peak_extra_ms),
                })
            }
            FaultEvent::Partition { at_ms, heal_after_ms } => {
                partition_windows.push((at_ms, at_ms.saturating_add(heal_after_ms)))
            }
            FaultEvent::Crash { at_ms, peer, restart_after_ms } => {
                crash_windows.push((peer, at_ms, at_ms.saturating_add(restart_after_ms)))
            }
        }
    }
    let mut plane = ComposedPlane::new();
    if !loss_steps.is_empty() {
        plane.push(Box::new(LossInjector::new(loss_steps, root.fork("faults-loss"))));
    }
    if !dup_steps.is_empty() {
        plane.push(Box::new(DupInjector::new(dup_steps, root.fork("faults-dup"))));
    }
    if !reorder_steps.is_empty() {
        plane.push(Box::new(ReorderInjector::new(reorder_steps, root.fork("faults-reorder"))));
    }
    if !spike_windows.is_empty() {
        plane.push(Box::new(SpikeInjector::new(spike_windows)));
    }
    if !partition_windows.is_empty() {
        assert!(
            sides.contains(&Side::A) && sides.contains(&Side::B),
            "script has partition windows but `sides` does not bisect the membership \
             (pass the output of transit_bisection)"
        );
        plane.push(Box::new(PartitionInjector::new(partition_windows, sides.to_vec())));
    }
    if !crash_windows.is_empty() {
        plane.push(Box::new(CrashInjector::new(crash_windows)));
    }
    plane
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime(ms)
    }

    #[test]
    fn loss_extremes() {
        let mut sure = LossInjector::new(vec![(0, 1.0)], SimRng::seed_from(1));
        let mut never = LossInjector::new(vec![(0, 0.0)], SimRng::seed_from(1));
        for i in 0..50 {
            assert!(!sure.deliver(t(i), MsgKind::Walk, 0, 1).delivered);
            assert!(never.deliver(t(i), MsgKind::Walk, 0, 1).delivered);
        }
        assert_eq!(sure.counters(t(50)).drops, 50);
        assert_eq!(never.counters(t(50)).drops, 0);
    }

    #[test]
    fn loss_step_schedule_switches() {
        // 100% loss only in [100, 200).
        let mut inj = LossInjector::new(vec![(100, 1.0), (200, 0.0)], SimRng::seed_from(2));
        assert!(inj.deliver(t(50), MsgKind::Probe, 0, 1).delivered);
        assert!(!inj.deliver(t(150), MsgKind::Probe, 0, 1).delivered);
        assert!(inj.deliver(t(250), MsgKind::Probe, 0, 1).delivered);
    }

    #[test]
    fn reorder_delays_within_bound() {
        let mut inj = ReorderInjector::new(vec![(0, (1.0, 25))], SimRng::seed_from(3));
        for i in 0..50 {
            let v = inj.deliver(t(i), MsgKind::Exchange, 0, 1);
            assert!(v.delivered);
            assert!((1..=25).contains(&v.extra_delay_ms));
        }
        assert_eq!(inj.counters(t(50)).reorders, 50);
    }

    #[test]
    fn spike_profiles() {
        let mut inj = SpikeInjector::new(vec![
            SpikeWindow { start: 100, end: 200, shape: SpikeShape::Flat(40) },
            SpikeWindow { start: 1000, end: 2000, shape: SpikeShape::Triangular(100) },
        ]);
        assert_eq!(inj.link_extra_ms(t(50), 0, 1), 0);
        assert_eq!(inj.link_extra_ms(t(150), 0, 1), 40);
        assert_eq!(inj.link_extra_ms(t(200), 0, 1), 0, "half-open window");
        assert_eq!(inj.link_extra_ms(t(1000), 0, 1), 0, "drift starts at zero");
        assert_eq!(inj.link_extra_ms(t(1500), 0, 1), 100, "drift peaks at midpoint");
        assert!(inj.link_extra_ms(t(1250), 0, 1) > 0);
        assert!(inj.link_extra_ms(t(1250), 0, 1) < 100);
    }

    #[test]
    fn partition_cuts_cross_side_only() {
        let sides = vec![Side::A, Side::A, Side::B];
        let mut inj = PartitionInjector::new(vec![(100, 200)], sides);
        // Outside the window: everything flows.
        assert!(inj.deliver(t(50), MsgKind::Walk, 0, 2).delivered);
        // Inside: cross-side drops, same-side flows.
        assert!(!inj.deliver(t(150), MsgKind::Walk, 0, 2).delivered);
        assert!(inj.deliver(t(150), MsgKind::Walk, 0, 1).delivered);
        let c = inj.counters(t(300));
        assert_eq!(c.drops, 1);
        assert_eq!(c.partition_ms, 100);
    }

    #[test]
    fn partition_windows_merge() {
        let inj = PartitionInjector::new(vec![(100, 300), (200, 400), (500, 600)], vec![]);
        assert_eq!(inj.windows, vec![(100, 400), (500, 600)]);
        let mut inj = inj;
        assert_eq!(inj.counters(t(1000)).partition_ms, 400);
        // Mid-window snapshot counts only elapsed partition time.
        assert_eq!(inj.counters(t(250)).partition_ms, 150);
    }

    #[test]
    fn crash_downtime_and_commit_aborts() {
        let mut inj = CrashInjector::new(vec![(7, 100, 200)]);
        assert!(inj.is_up(t(50), 7));
        assert!(!inj.is_up(t(150), 7));
        assert!(inj.is_up(t(200), 7), "restart at window end");
        assert!(inj.is_up(t(150), 8), "other peers unaffected");
        assert!(!inj.deliver(t(150), MsgKind::Commit, 0, 7).delivered);
        assert!(!inj.deliver(t(150), MsgKind::Walk, 7, 0).delivered);
        let c = inj.counters(t(300));
        assert_eq!(c.crashed_aborts, 1);
        assert_eq!(c.drops, 1);
    }

    #[test]
    fn composed_consults_every_child_and_merges() {
        let script = FaultScript::new().loss(0, 1.0).duplicate(0, 1.0).reorder(0, 1.0, 10);
        let mut plane = compile(&script, &[], 9);
        let v = plane.deliver(t(5), MsgKind::Walk, 0, 1);
        // Loss drops it, but duplication and reordering still ruled (and
        // their RNG streams advanced): the merged verdict carries all three.
        assert!(!v.delivered);
        assert!(v.duplicate);
        assert!(v.extra_delay_ms >= 1);
        let c = plane.counters(t(10));
        assert_eq!((c.drops, c.dup_deliveries, c.reorders), (1, 1, 1));
    }

    #[test]
    fn compiled_plane_is_deterministic() {
        let script = FaultScript::new()
            .loss(0, 0.3)
            .duplicate(0, 0.2)
            .reorder(0, 0.5, 50)
            .partition(1_000, 500)
            .crash(2_000, 3, 300);
        let sides = vec![Side::A, Side::B, Side::A, Side::B];
        let mut a = compile(&script, &sides, 1234);
        let mut b = compile(&script, &sides, 1234);
        for i in 0..500u64 {
            let now = t(i * 7);
            let kind = match i % 4 {
                0 => MsgKind::Walk,
                1 => MsgKind::Exchange,
                2 => MsgKind::Probe,
                _ => MsgKind::Commit,
            };
            let (from, to) = ((i % 4) as usize, ((i + 1) % 4) as usize);
            assert_eq!(a.deliver(now, kind, from, to), b.deliver(now, kind, from, to));
            assert_eq!(a.is_up(now, from), b.is_up(now, from));
            assert_eq!(a.link_extra_ms(now, from, to), b.link_extra_ms(now, from, to));
        }
        assert_eq!(a.counters(t(10_000)), b.counters(t(10_000)));
    }

    #[test]
    fn empty_script_compiles_to_empty_plane() {
        let plane = compile(&FaultScript::new(), &[], 1);
        assert!(plane.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not bisect")]
    fn partition_script_rejects_degenerate_sides() {
        compile(&FaultScript::new().partition(100, 50), &[], 1);
    }

    #[test]
    #[should_panic(expected = "does not bisect")]
    fn partition_script_rejects_one_sided_split() {
        compile(&FaultScript::new().partition(100, 50), &[Side::A, Side::A], 1);
    }
}
