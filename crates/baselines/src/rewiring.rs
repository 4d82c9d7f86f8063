//! The one event driver behind the two rewiring baselines, LTM and the
//! §3.1 selfish strawman.
//!
//! Both rewire the same overlay by the same clock: every live peer takes
//! one step per minute (matched to PROP's `INIT_TIMER` so the curves
//! share a time axis), starting at a random phase within the first
//! interval. They differ only in the step, chosen by [`Rewiring`] at one
//! `match`. A departed slot's pending step is retired when it fires; a
//! joined slot starts stepping one interval after its join.

use crate::{ltm, selfish};
use prop_core::ChurnDriver;
use prop_engine::{Duration, EventQueue, SimRng, SimTime};
use prop_overlay::{OverlayNet, Slot};

/// Per-peer step cadence.
const INTERVAL: Duration = Duration::from_minutes(1);
/// Never cut or drop a link if either endpoint would fall below this
/// degree (keeps lookup fan-out usable).
pub(crate) const MIN_DEGREE: usize = 2;

/// The step a [`RewiringSim`] runs at each peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rewiring {
    /// Location-aware Topology Matching (module `ltm`): cut the slowest
    /// redundant link, add the closest 2-hop peer that beats the worst
    /// link. A peer at `max_degree` adds nothing — real Gnutella clients
    /// cap their connection count, and without a cap LTM densifies without
    /// bound (every step finds *some* 2-hop node beating the worst link).
    Ltm { max_degree: usize },
    /// The §3.1 strawman (module `selfish`): connect to the nearest 2-hop
    /// candidate and drop the farthest neighbor, cooperating with no one.
    Selfish,
}

impl Rewiring {
    /// LTM at the client connection cap every comparison uses (A10 sweeps
    /// other caps).
    pub const LTM: Rewiring = Rewiring::Ltm { max_degree: 16 };
}

/// An overlay running one of the rewiring baselines.
pub struct RewiringSim {
    net: OverlayNet,
    rule: Rewiring,
    events: EventQueue<Slot>,
    rewires: u64,
}

impl RewiringSim {
    /// Start `rule` on `net`, one step loop per live slot, each at a random
    /// phase within the first interval.
    pub fn new(net: OverlayNet, rule: Rewiring, rng: &mut SimRng) -> Self {
        let mut rng = rng.fork(match rule {
            Rewiring::Ltm { .. } => "ltm-sim",
            Rewiring::Selfish => "selfish-sim",
        });
        let mut events = EventQueue::new();
        for slot in net.graph().live_slots() {
            let offset = Duration::from_millis(rng.range(0..INTERVAL.as_millis()));
            events.schedule_at(SimTime::ZERO + offset, slot);
        }
        RewiringSim { net, rule, events, rewires: 0 }
    }

    /// Consume the simulation, keeping the rewired overlay.
    pub fn into_net(self) -> OverlayNet {
        self.net
    }

    /// Steps that changed the overlay so far.
    pub fn rewires(&self) -> u64 {
        self.rewires
    }

    /// Advance the clock by exactly `window`.
    pub fn run_for(&mut self, window: Duration) {
        let deadline = self.now() + window;
        self.run_until(deadline);
    }
}

impl ChurnDriver for RewiringSim {
    fn run_until(&mut self, deadline: SimTime) {
        while let Some((_, slot)) = self.events.pop_until(deadline) {
            if !self.net.graph().is_alive(slot) {
                continue;
            }
            let rewired = match self.rule {
                Rewiring::Ltm { max_degree } => ltm::step(&mut self.net, slot, max_degree),
                Rewiring::Selfish => selfish::step(&mut self.net, slot),
            };
            self.rewires += u64::from(rewired);
            self.events.schedule_in(INTERVAL, slot);
        }
    }

    fn now(&self) -> SimTime {
        self.events.now()
    }

    fn net(&self) -> &OverlayNet {
        &self.net
    }

    fn net_mut(&mut self) -> &mut OverlayNet {
        &mut self.net
    }

    /// A freshly joined slot starts stepping one interval from now. Its
    /// step is scheduled deterministically (no random offset): joins under
    /// a scripted traffic plane must not disturb the event order of
    /// already-scheduled peers.
    fn handle_join(&mut self, slot: Slot) {
        self.events.schedule_in(INTERVAL, slot);
    }

    /// Departures need no queue surgery: a dead slot's pending step is
    /// retired by the `is_alive` check when it fires.
    fn handle_leave(&mut self, _slot: Slot, _affected: &[Slot]) {}
}
