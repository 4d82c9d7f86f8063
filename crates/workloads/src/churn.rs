//! Poisson churn traces.
//!
//! The paper's dynamic-environment claim: PROP "is adaptive to dynamic
//! change of peers" — after churn the probe frequency spikes (timers reset)
//! and then decays again. A churn trace is a timestamped sequence of
//! leave/join operations; [`ChurnReplay`] applies each to a Gnutella
//! overlay and notifies the protocol driver.

use prop_core::ChurnDriver;
use prop_engine::{Duration, SimRng, SimTime};
use prop_netsim::oracle::MemberIdx;
use prop_overlay::gnutella::Gnutella;

/// One churn operation. Victims/joiners are resolved at apply time (the
/// population changes as the trace plays), so the trace only carries kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnOp {
    /// A uniformly random live peer departs.
    Leave,
    /// The last peer to leave rejoins (nothing while nobody is away).
    Join,
}

/// A timestamped churn schedule.
#[derive(Clone, Debug, Default)]
pub struct ChurnTrace {
    pub events: Vec<(SimTime, ChurnOp)>,
}

impl ChurnTrace {
    /// A Poisson trace over `[start, start + window)` with independent
    /// leave/join processes of the given rates (events per minute).
    /// Leaves and joins alternate fairly on average, keeping the population
    /// roughly stable when the rates match.
    ///
    /// Arrival sampling routes through the shared
    /// [`crate::traffic::process::poisson_train`] process — same
    /// `"churn-trace"` fork and draw order as the original hand-rolled
    /// loop, so traces are bit-identical to every prior release
    /// (regression-pinned in `tests/traffic.rs`).
    pub fn poisson(
        start: SimTime,
        window: Duration,
        leaves_per_min: f64,
        joins_per_min: f64,
        rng: &mut SimRng,
    ) -> Self {
        let mut rng = rng.fork("churn-trace");
        let mut events = Vec::new();
        for (rate, op) in [(leaves_per_min, ChurnOp::Leave), (joins_per_min, ChurnOp::Join)] {
            for t in crate::traffic::process::poisson_train(start, window, rate, &mut rng) {
                events.push((t, op));
            }
        }
        events.sort_by_key(|&(t, _)| t);
        ChurnTrace { events }
    }
}

/// The one applier of Gnutella churn outside the overlay and the driver: a
/// leave takes a live peer, [`Gnutella::leave`] patches the hole and what
/// it returns goes to [`ChurnDriver::handle_leave`]; a join brings a
/// departed peer back through [`Gnutella::join`] and
/// [`ChurnDriver::handle_join`]. [`ChurnReplay::play_until`] plays a
/// [`ChurnTrace`]; the traffic pump calls the steps one event at a time.
/// Every draw is from the caller's `rng`.
///
/// Known defect, kept so every traffic replay holds: an in-region rejoin's
/// `swap_remove` moves the newest departure into the gap, so the next
/// fallback is not the last to leave: `[a, b, c, d]` less `b` is
/// `[a, d, c]`, and the fallback returns `c`, not `d`.
#[derive(Default)]
pub struct ChurnReplay<'t> {
    /// The events not played yet.
    events: &'t [(SimTime, ChurnOp)],
    /// Departed peers, the last to leave on top.
    absent: Vec<MemberIdx>,
}

impl<'t> ChurnReplay<'t> {
    pub fn new(trace: &'t ChurnTrace) -> Self {
        ChurnReplay { events: &trace.events, absent: Vec::new() }
    }

    /// Plays the events not played yet at or before `deadline`, homed
    /// nowhere, and calls `applied(sim, t, op)` after each one applied. A
    /// suppressed event changes nothing. The driver stands at the last
    /// event played.
    pub fn play_until<D: ChurnDriver>(
        &mut self,
        deadline: SimTime,
        sim: &mut D,
        gn: &Gnutella,
        rng: &mut SimRng,
        floor: usize,
        mut applied: impl FnMut(&D, SimTime, ChurnOp),
    ) {
        while let Some(&(t, op)) = self.events.first().filter(|e| e.0 <= deadline) {
            self.events = &self.events[1..];
            sim.run_until(t);
            let moved = match op {
                ChurnOp::Leave => self.leave(sim, gn, rng, floor, None),
                ChurnOp::Join => self.join(sim, gn, rng, None),
            };
            if moved.is_some() {
                applied(sim, t, op);
            }
        }
    }

    /// One leave: a uniform live peer or, with `home` = `(region_of, r)`,
    /// one homed in `r` (any when none is live). Returns the member that
    /// left; `None`, changing and drawing nothing, while `floor` or fewer
    /// peers are live.
    pub fn leave<D: ChurnDriver>(
        &mut self,
        sim: &mut D,
        gn: &Gnutella,
        rng: &mut SimRng,
        floor: usize,
        home: Option<(&[u16], u16)>,
    ) -> Option<MemberIdx> {
        let (net, g) = (sim.net(), sim.net().graph());
        if g.num_live() <= floor {
            return None;
        }
        let homed = home.and_then(|(of, r)| g.pick_live_where(rng, |s| of[net.peer(s)] == r));
        let victim = homed.or_else(|| g.pick_live(rng, None)).expect("more than `floor` live");
        let peer = net.peer(victim);
        self.absent.push(peer);
        let affected = gn.leave(sim.net_mut(), victim, rng);
        sim.handle_leave(victim, &affected);
        Some(peer)
    }

    /// One join: the last peer to leave or, with `home` = `(region_of, r)`,
    /// the first away homed in `r` (the last when none is). Returns the
    /// member that came back; `None`, changing and drawing nothing, while
    /// nobody is away.
    pub fn join<D: ChurnDriver>(
        &mut self,
        sim: &mut D,
        gn: &Gnutella,
        rng: &mut SimRng,
        home: Option<(&[u16], u16)>,
    ) -> Option<MemberIdx> {
        let last = self.absent.len().checked_sub(1)?;
        let homed = home.and_then(|(of, r)| self.absent.iter().position(|&p| of[p] == r));
        let peer = self.absent.swap_remove(homed.unwrap_or(last));
        let slot = gn.join(sim.net_mut(), peer, rng);
        sim.handle_join(slot);
        Some(peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netsim::{generate, LatencyOracle, TransitStubParams};
    use prop_overlay::gnutella::GnutellaParams;
    use prop_overlay::{OverlayNet, Slot};
    use std::sync::Arc;

    /// A driver that runs no protocol: it holds the overlay and logs what
    /// the churn glue hands it, a leave as its slot and the row it had, a
    /// join as its slot and the member placed there.
    struct Bare {
        net: OverlayNet,
        now: SimTime,
        log: Vec<String>,
    }

    impl ChurnDriver for Bare {
        fn run_until(&mut self, deadline: SimTime) {
            self.now = self.now.max(deadline);
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn net(&self) -> &OverlayNet {
            &self.net
        }
        fn net_mut(&mut self) -> &mut OverlayNet {
            &mut self.net
        }
        fn handle_join(&mut self, slot: Slot) {
            self.log.push(format!("join {slot:?} as {}", self.net.peer(slot)));
        }
        fn handle_leave(&mut self, slot: Slot, affected: &[Slot]) {
            self.log.push(format!("leave {slot:?} from {affected:?}"));
        }
    }

    /// A 30-member Gnutella overlay on the tiny topology, and a home table
    /// that puts member `m` in region `m % 3`.
    fn small_net(seed: u64) -> (Gnutella, Bare, Vec<u16>) {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 30, &mut rng));
        let (gn, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        let home = (0..30).map(|m| (m % 3) as u16).collect();
        (gn, Bare { net, now: SimTime::ZERO, log: Vec::new() }, home)
    }

    #[test]
    fn a_leave_takes_a_live_peer_of_the_region_or_any_when_none_is_live() {
        let (gn, mut sim, home) = small_net(5);
        let (mut replay, mut rng) = (ChurnReplay::default(), SimRng::seed_from(6));
        // Region 1 homes ten members: each leave takes one of them, the one
        // `pick` draws over those live.
        for left in 0..10 {
            let homed: Vec<Slot> =
                sim.net.graph().live_slots().filter(|&s| home[sim.net.peer(s)] == 1).collect();
            assert_eq!(homed.len(), 10 - left);
            let want = rng.clone().pick(&homed).map(|&s| sim.net.peer(s));
            let peer = replay.leave(&mut sim, &gn, &mut rng, 8, Some((&home, 1)));
            assert_eq!(peer, want, "leave {left}");
        }
        // Region 1 has nobody live: the victim is the uniform live draw.
        for _ in 0..5 {
            let want = sim.net.graph().pick_live(&mut rng.clone(), None).map(|s| sim.net.peer(s));
            let peer = replay.leave(&mut sim, &gn, &mut rng, 8, Some((&home, 1)));
            assert_eq!(peer, want);
            assert_ne!(home[peer.unwrap()], 1);
        }
        assert_eq!(replay.absent.len(), 15);
        assert!(sim.net.graph().is_connected());
    }

    #[test]
    fn a_join_brings_back_the_first_away_of_the_region_or_the_last_to_leave() {
        let (gn, mut sim, home) = small_net(7);
        let (mut replay, mut rng) = (ChurnReplay::default(), SimRng::seed_from(8));
        for _ in 0..9 {
            replay.leave(&mut sim, &gn, &mut rng, 8, None).expect("above the floor");
        }
        let away = replay.absent.clone();
        let first_of_2 = *away.iter().find(|&&p| home[p] == 2).expect("a seeded leave of region 2");
        assert_ne!(away.last(), Some(&first_of_2), "the fallback would bring it back too");
        let joined = replay.join(&mut sim, &gn, &mut rng, Some((&home, 2)));
        assert_eq!(joined, Some(first_of_2));
        assert!(sim.net.placement().slot_of(first_of_2).is_some());
        // Region 7 homes nobody: the last to leave comes back.
        let last = *replay.absent.last().unwrap();
        assert_eq!(replay.join(&mut sim, &gn, &mut rng, Some((&home, 7))), Some(last));
        assert_eq!(replay.absent.len(), 7);
        assert_eq!(sim.net.graph().num_live(), 23);
    }

    #[test]
    fn a_leave_at_the_floor_and_a_join_with_nobody_away_change_nothing() {
        let (gn, mut sim, home) = small_net(9);
        let (mut replay, mut rng) = (ChurnReplay::default(), SimRng::seed_from(10));
        let before = rng.clone();
        assert_eq!(replay.join(&mut sim, &gn, &mut rng, None), None);
        assert_eq!(replay.join(&mut sim, &gn, &mut rng, Some((&home, 0))), None);
        assert_eq!(replay.leave(&mut sim, &gn, &mut rng, 30, None), None);
        assert_eq!(replay.leave(&mut sim, &gn, &mut rng, 31, Some((&home, 0))), None);
        assert!(sim.log.is_empty() && replay.absent.is_empty());
        assert_eq!(sim.net.graph().num_live(), 30);
        assert_eq!(rng.range(0..u64::MAX), before.clone().range(0..u64::MAX), "a draw was made");
    }

    /// The trace loop before its steps were split out, kept as the
    /// reference `play_until` must match.
    fn play_until_reference<D: ChurnDriver>(
        trace: &ChurnTrace,
        sim: &mut D,
        gn: &Gnutella,
        rng: &mut SimRng,
        floor: usize,
    ) -> Vec<MemberIdx> {
        let mut absent = Vec::new();
        for &(t, op) in &trace.events {
            sim.run_until(t);
            match op {
                ChurnOp::Leave => {
                    let g = sim.net().graph();
                    if g.num_live() <= floor {
                        continue;
                    }
                    let victim = g.pick_live(rng, None).expect("more than `floor` live");
                    absent.push(sim.net().peer(victim));
                    let affected = gn.leave(sim.net_mut(), victim, rng);
                    sim.handle_leave(victim, &affected);
                }
                ChurnOp::Join => {
                    let Some(peer) = absent.pop() else { continue };
                    let slot = gn.join(sim.net_mut(), peer, rng);
                    sim.handle_join(slot);
                }
            }
        }
        absent
    }

    #[test]
    fn a_replay_without_a_region_is_the_trace_loop_it_replaced() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from(100 + seed);
            // Leave-heavy, then join-heavy: the floor and the empty pool
            // both suppress events.
            let mut trace =
                ChurnTrace::poisson(SimTime::ZERO, Duration::from_minutes(20), 2.0, 0.5, &mut rng);
            let later = SimTime::ZERO + Duration::from_minutes(20);
            trace.events.extend(
                ChurnTrace::poisson(later, Duration::from_minutes(20), 0.5, 2.0, &mut rng).events,
            );
            let end = trace.events.last().expect("events").0;
            let (gn, mut a, _) = small_net(seed);
            let (_, mut b, _) = small_net(seed);
            let (mut ra, mut rb) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
            let mut replay = ChurnReplay::new(&trace);
            let mut applied = 0;
            replay.play_until(end, &mut a, &gn, &mut ra, 20, |_, _, _| applied += 1);
            let absent = play_until_reference(&trace, &mut b, &gn, &mut rb, 20);
            assert_eq!(a.log, b.log, "seed {seed}: victims and rejoiners");
            assert_eq!(replay.absent, absent, "seed {seed}: who is away");
            assert_eq!(ra.range(0..u64::MAX), rb.range(0..u64::MAX), "seed {seed}: streams");
            assert_eq!(applied, a.log.len(), "seed {seed}");
            assert!(applied < trace.events.len(), "seed {seed}: nothing was suppressed");
        }
    }

    #[test]
    fn trace_is_time_ordered_and_bounded() {
        let mut rng = SimRng::seed_from(1);
        let start = SimTime::ZERO + Duration::from_minutes(10);
        let window = Duration::from_minutes(30);
        let trace = ChurnTrace::poisson(start, window, 2.0, 2.0, &mut rng);
        for w in trace.events.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for &(t, _) in &trace.events {
            assert!(t >= start && t.since(start) < window);
        }
    }

    #[test]
    fn rates_roughly_respected() {
        let mut rng = SimRng::seed_from(2);
        let trace =
            ChurnTrace::poisson(SimTime::ZERO, Duration::from_minutes(1000), 3.0, 1.0, &mut rng);
        let leaves = trace.events.iter().filter(|&&(_, op)| op == ChurnOp::Leave).count();
        let joins = trace.events.len() - leaves;
        let leave_rate = leaves as f64 / 1000.0;
        let join_rate = joins as f64 / 1000.0;
        assert!((leave_rate - 3.0).abs() < 0.3, "leave rate {leave_rate}");
        assert!((join_rate - 1.0).abs() < 0.2, "join rate {join_rate}");
    }

    #[test]
    fn zero_rate_means_no_events() {
        let mut rng = SimRng::seed_from(3);
        let trace =
            ChurnTrace::poisson(SimTime::ZERO, Duration::from_minutes(60), 0.0, 0.0, &mut rng);
        assert!(trace.events.is_empty());
    }
}
