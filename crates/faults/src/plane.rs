//! The compiled fault plane: one [`FaultPlane`] that rules on every kind
//! of fault.
//!
//! [`compile`] turns a declarative [`FaultScript`] into a
//! [`ComposedPlane`]: the loss, duplication and reordering step schedules,
//! the spike and drift windows, the merged partition windows with the
//! bisection they cut along, and the crash windows. Each random kind owns
//! one labelled fork of the seed's [`SimRng`], so its decisions depend only
//! on (seed, script, query order) — the drivers consult the plane in event
//! order, which makes every run bit-reproducible. `deliver` rules on
//! *every* kind for every message in a fixed order, with no
//! short-circuiting: a loss verdict must not starve the duplication and
//! reordering streams, or one kind's schedule would perturb another's
//! decisions.

use crate::partition::Side;
use crate::script::{FaultEvent, FaultScript};
use prop_core::fault::{Delivery, FaultCounters, FaultPlane, MsgKind};
use prop_engine::{window_overlap_ms, SimRng, SimTime};

/// Value of a step function (last step at or before `t`, else 0).
fn step_value<T: Copy + Default>(steps: &[(u64, T)], t: u64) -> T {
    steps.iter().rev().find(|&&(at, _)| at <= t).map(|&(_, v)| v).unwrap_or_default()
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

/// A compiled [`FaultScript`], ready to attach to a driver.
///
/// * Loss, duplication and reordering: per-message probabilities as step
///   schedules (the rate set at `t` holds until the next event of the same
///   kind), each drawing its own stream on every ruling.
/// * Spikes and drifts: extra one-way link latency. It stretches message
///   transit time only — the oracle's ground-truth `d()`, and therefore
///   `Var` and the theorems, never see it.
/// * Partitions: while a window is active, every message whose endpoints
///   sit on opposite [`Side`]s of the bisection is dropped. A partitioned
///   peer is alive, just unreachable across the cut.
/// * Crashes: a down peer launches nothing and receives nothing; a commit
///   handshake that reaches it aborts the trial.
pub struct ComposedPlane {
    /// `(at_ms, probability)` steps, sorted by time.
    loss: Vec<(u64, f64)>,
    loss_rng: SimRng,
    dup: Vec<(u64, f64)>,
    dup_rng: SimRng,
    /// `(at_ms, (probability, max_extra_ms))` steps, sorted by time.
    reorder: Vec<(u64, (f64, u64))>,
    reorder_rng: SimRng,
    spikes: Vec<SpikeWindow>,
    /// Merged, disjoint, sorted `[start, end)` windows.
    partitions: Vec<(u64, u64)>,
    /// Indexed by member index; a peer past the end is on [`Side::A`].
    sides: Vec<Side>,
    /// `(peer, start, end)` down-windows.
    crashes: Vec<(usize, u64, u64)>,
    counters: FaultCounters,
}

impl ComposedPlane {
    fn side(&self, peer: usize) -> Side {
        self.sides.get(peer).copied().unwrap_or(Side::A)
    }

    fn cut(&self, t: u64, from: usize, to: usize) -> bool {
        self.partitions.iter().any(|&(s, e)| s <= t && t < e) && self.side(from) != self.side(to)
    }

    fn down(&self, t: u64, peer: usize) -> bool {
        self.crashes.iter().any(|&(p, s, e)| p == peer && s <= t && t < e)
    }
}

impl FaultPlane for ComposedPlane {
    fn deliver(&mut self, now: SimTime, kind: MsgKind, from: usize, to: usize) -> Delivery {
        let t = now.as_millis();
        let lost = self.loss_rng.chance(step_value(&self.loss, t));
        let duplicate = self.dup_rng.chance(step_value(&self.dup, t));
        let (p, max_extra) = step_value(&self.reorder, t);
        let extra_delay_ms = if self.reorder_rng.chance(p) && max_extra > 0 {
            self.reorder_rng.range(1..=max_extra)
        } else {
            0
        };
        let cut = self.cut(t, from, to);
        let (to_down, from_down) = (self.down(t, to), self.down(t, from));
        // A commit that reaches a crashed peer is an abort, not a drop.
        let aborted = to_down && kind == MsgKind::Commit;
        let c = &mut self.counters;
        c.ruled += 1;
        c.drops += lost as u64 + cut as u64 + ((to_down || from_down) && !aborted) as u64;
        c.dup_deliveries += duplicate as u64;
        c.reorders += (extra_delay_ms > 0) as u64;
        c.crashed_aborts += aborted as u64;
        Delivery { delivered: !(lost || cut || to_down || from_down), duplicate, extra_delay_ms }
    }

    fn is_up(&mut self, now: SimTime, peer: usize) -> bool {
        !self.down(now.as_millis(), peer)
    }

    fn link_extra_ms(&mut self, now: SimTime, _a: usize, _b: usize) -> u64 {
        let t = now.as_millis();
        self.spikes.iter().fold(0, |sum, w| sum.saturating_add(w.extra_at(t)))
    }

    fn counters(&mut self, now: SimTime) -> FaultCounters {
        let partition_ms = self
            .partitions
            .iter()
            .map(|&(s, e)| window_overlap_ms(SimTime(s), SimTime(e), now))
            .sum();
        FaultCounters { partition_ms, ..self.counters }
    }
}

/// Compile a [`FaultScript`] into a ready-to-attach [`ComposedPlane`].
///
/// `sides` is the per-member bisection (needed only if the script contains
/// [`FaultEvent::Partition`] events; pass the output of
/// [`crate::partition::transit_bisection`], or `&[]` for partition-free
/// scripts). `seed` drives loss, duplication and reordering through
/// distinct forked streams — the same `(script, sides, seed)` always
/// compiles to a plane that makes the same decisions.
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
    let mut plane = ComposedPlane {
        loss: Vec::new(),
        loss_rng: root.fork("faults-loss"),
        dup: Vec::new(),
        dup_rng: root.fork("faults-dup"),
        reorder: Vec::new(),
        reorder_rng: root.fork("faults-reorder"),
        spikes: Vec::new(),
        partitions: Vec::new(),
        sides: sides.to_vec(),
        crashes: Vec::new(),
        counters: FaultCounters::default(),
    };
    let window = |at_ms: u64, duration_ms: u64| (at_ms, at_ms.saturating_add(duration_ms));
    for ev in script.sorted() {
        match ev {
            FaultEvent::Loss { at_ms, prob } => plane.loss.push((at_ms, prob)),
            FaultEvent::Duplicate { at_ms, prob } => plane.dup.push((at_ms, prob)),
            FaultEvent::Reorder { at_ms, prob, max_extra_ms } => {
                plane.reorder.push((at_ms, (prob, max_extra_ms)))
            }
            FaultEvent::LatencySpike { at_ms, duration_ms, extra_ms } => {
                let (start, end) = window(at_ms, duration_ms);
                plane.spikes.push(SpikeWindow { start, end, shape: SpikeShape::Flat(extra_ms) })
            }
            FaultEvent::LatencyDrift { at_ms, duration_ms, peak_extra_ms } => {
                let (start, end) = window(at_ms, duration_ms);
                let shape = SpikeShape::Triangular(peak_extra_ms);
                plane.spikes.push(SpikeWindow { start, end, shape })
            }
            FaultEvent::Partition { at_ms, heal_after_ms } => {
                plane.partitions.push(window(at_ms, heal_after_ms))
            }
            FaultEvent::Crash { at_ms, peer, restart_after_ms } => {
                let (start, end) = window(at_ms, restart_after_ms);
                plane.crashes.push((peer, start, end))
            }
        }
    }
    assert!(
        plane.partitions.is_empty() || (sides.contains(&Side::A) && sides.contains(&Side::B)),
        "script has partition windows but `sides` does not bisect the membership \
         (pass the output of transit_bisection)"
    );
    // Overlapping windows merge, so active time is not counted twice.
    plane.partitions.sort_unstable();
    plane.partitions.dedup_by(|next, kept| {
        let overlaps = next.0 <= kept.1;
        if overlaps {
            kept.1 = kept.1.max(next.1);
        }
        overlaps
    });
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
        let mut sure = compile(&FaultScript::new().loss(0, 1.0), &[], 1);
        let mut never = compile(&FaultScript::new().loss(0, 0.0), &[], 1);
        for i in 0..50 {
            assert!(!sure.deliver(t(i), MsgKind::Walk, 0, 1).delivered);
            assert!(never.deliver(t(i), MsgKind::Walk, 0, 1).delivered);
        }
        assert_eq!(sure.counters(t(50)).drops, 50);
        assert_eq!(never.counters(t(50)).drops, 0);
        assert_eq!(never.counters(t(50)).ruled, 50, "one ruling per deliver");
    }

    #[test]
    fn loss_step_schedule_switches() {
        // 100% loss only in [100, 200).
        let mut plane = compile(&FaultScript::new().loss(100, 1.0).loss(200, 0.0), &[], 2);
        assert!(plane.deliver(t(50), MsgKind::Probe, 0, 1).delivered);
        assert!(!plane.deliver(t(150), MsgKind::Probe, 0, 1).delivered);
        assert!(plane.deliver(t(250), MsgKind::Probe, 0, 1).delivered);
    }

    #[test]
    fn reorder_delays_within_bound() {
        let mut plane = compile(&FaultScript::new().reorder(0, 1.0, 25), &[], 3);
        for i in 0..50 {
            let v = plane.deliver(t(i), MsgKind::Exchange, 0, 1);
            assert!(v.delivered);
            assert!((1..=25).contains(&v.extra_delay_ms));
        }
        assert_eq!(plane.counters(t(50)).reorders, 50);
    }

    #[test]
    fn spike_profiles() {
        let mut plane =
            compile(&FaultScript::new().spike(100, 100, 40).drift(1000, 1000, 100), &[], 4);
        assert_eq!(plane.link_extra_ms(t(50), 0, 1), 0);
        assert_eq!(plane.link_extra_ms(t(150), 0, 1), 40);
        assert_eq!(plane.link_extra_ms(t(200), 0, 1), 0, "half-open window");
        assert_eq!(plane.link_extra_ms(t(1000), 0, 1), 0, "drift starts at zero");
        assert_eq!(plane.link_extra_ms(t(1500), 0, 1), 100, "drift peaks at midpoint");
        assert!(plane.link_extra_ms(t(1250), 0, 1) > 0);
        assert!(plane.link_extra_ms(t(1250), 0, 1) < 100);
    }

    #[test]
    fn partition_cuts_cross_side_only() {
        let sides = [Side::A, Side::A, Side::B];
        let mut plane = compile(&FaultScript::new().partition(100, 100), &sides, 5);
        // Outside the window: everything flows.
        assert!(plane.deliver(t(50), MsgKind::Walk, 0, 2).delivered);
        // Inside: cross-side drops, same-side flows.
        assert!(!plane.deliver(t(150), MsgKind::Walk, 0, 2).delivered);
        assert!(plane.deliver(t(150), MsgKind::Walk, 0, 1).delivered);
        let c = plane.counters(t(300));
        assert_eq!(c.drops, 1);
        assert_eq!(c.partition_ms, 100);
    }

    #[test]
    fn partition_windows_merge() {
        let script = FaultScript::new().partition(200, 200).partition(100, 200).partition(500, 100);
        let mut plane = compile(&script, &[Side::A, Side::B], 6);
        assert_eq!(plane.partitions, vec![(100, 400), (500, 600)]);
        assert_eq!(plane.counters(t(1000)).partition_ms, 400);
        // Mid-window snapshot counts only elapsed partition time.
        assert_eq!(plane.counters(t(250)).partition_ms, 150);
    }

    #[test]
    fn crash_downtime_and_commit_aborts() {
        let mut plane = compile(&FaultScript::new().crash(100, 7, 100), &[], 7);
        assert!(plane.is_up(t(50), 7));
        assert!(!plane.is_up(t(150), 7));
        assert!(plane.is_up(t(200), 7), "restart at window end");
        assert!(plane.is_up(t(150), 8), "other peers unaffected");
        assert!(!plane.deliver(t(150), MsgKind::Commit, 0, 7).delivered);
        assert!(!plane.deliver(t(150), MsgKind::Walk, 7, 0).delivered);
        let c = plane.counters(t(300));
        assert_eq!(c.crashed_aborts, 1);
        assert_eq!(c.drops, 1);
    }

    /// Every kind rules on every message, whatever another kind decided.
    #[test]
    fn every_kind_rules_on_every_message() {
        let script = FaultScript::new().loss(0, 1.0).duplicate(0, 1.0).reorder(0, 1.0, 10);
        let mut plane = compile(&script, &[], 9);
        let v = plane.deliver(t(5), MsgKind::Walk, 0, 1);
        // Loss drops it, but duplication and reordering still ruled (and
        // their RNG streams advanced): the verdict carries all three.
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

    /// Every answer a compiled plane gives a driver-shaped caller, folded
    /// into one FNV-64 per seed: 20,000 rulings over 8 members, each with
    /// the `is_up` and `link_extra_ms` reads beside it, and a counter
    /// snapshot every 1,000. The script uses every event kind: a loss step
    /// back to zero, a reorder step with no extra delay, overlapping
    /// partitions and a crash that never restarts.
    #[test]
    fn verdict_stream_is_pinned() {
        let script = FaultScript::new()
            .loss(0, 0.1)
            .loss(40_000, 0.3)
            .loss(75_000, 0.0)
            .duplicate(5_000, 0.05)
            .duplicate(60_000, 0.2)
            .reorder(0, 0.2, 150)
            .reorder(55_000, 0.4, 0)
            .reorder(85_000, 0.3, 40)
            .spike(10_000, 20_000, 40)
            .drift(50_000, 30_000, 120)
            .partition(20_000, 30_000)
            .partition(35_000, 25_000)
            .partition(90_000, 5_000)
            .crash(15_000, 3, 10_000)
            .crash(30_000, 3, 5_000)
            .crash(70_000, 5, u64::MAX);
        let sides = [Side::A, Side::B, Side::A, Side::B, Side::B, Side::A, Side::A, Side::B];
        const KINDS: [MsgKind; 4] =
            [MsgKind::Walk, MsgKind::Exchange, MsgKind::Probe, MsgKind::Commit];
        let fold = |h: &mut u64, x: u64| {
            for b in x.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        for (seed, want) in
            [(1, 0xc6e44b2ec91bc7ac), (2, 0xdefe28343b753984), (2024, 0x612e82906b1977b9)]
        {
            let mut plane = compile(&script, &sides, seed);
            let mut driver = SimRng::seed_from(seed).fork("driver");
            let (mut h, mut now) = (0xcbf29ce484222325u64, 0u64);
            for i in 1..=20_000u32 {
                now += driver.range(0..=10u64);
                let kind = KINDS[driver.range(0..4usize)];
                let (from, to) = (driver.range(0..8usize), driver.range(0..8usize));
                let v = plane.deliver(t(now), kind, from, to);
                fold(&mut h, v.delivered as u64 | (v.duplicate as u64) << 1);
                fold(&mut h, v.extra_delay_ms);
                fold(&mut h, plane.is_up(t(now), from) as u64);
                fold(&mut h, plane.link_extra_ms(t(now), from, to));
                if i % 1_000 == 0 {
                    let c = plane.counters(t(now));
                    for x in
                        [c.drops, c.dup_deliveries, c.reorders, c.partition_ms, c.crashed_aborts]
                    {
                        fold(&mut h, x);
                    }
                }
            }
            assert_eq!(h, want, "seed {seed}: {h:#018x}");
        }
    }

    #[test]
    fn empty_script_compiles_to_empty_plane() {
        let mut plane = compile(&FaultScript::new(), &[], 1);
        for i in 0..50 {
            let (now, from, to) = (t(i * 1_000), i as usize % 3, i as usize % 5);
            assert_eq!(plane.deliver(now, MsgKind::Commit, from, to), Delivery::CLEAN);
            assert!(plane.is_up(now, from));
            assert_eq!(plane.link_extra_ms(now, from, to), 0);
        }
        assert_eq!(plane.counters(t(50_000)), FaultCounters { ruled: 50, ..Default::default() });
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
