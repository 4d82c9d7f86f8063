//! The traffic-plane contract: scripted, time-varying workload.
//!
//! Mirror of [`crate::fault`], but for *load* instead of *failures*. A
//! traffic plane is a deterministic, pre-compiled stream of timed
//! [`TrafficEvent`]s — joins, leaves, and lookups, each attributed to a
//! transit domain — that a driver consumes in time order, interleaved with
//! its own protocol events. The concrete compiler (diurnal rate tables,
//! flash crowds, shifting Zipf popularity) lives in
//! `prop_workloads::traffic`; this module only fixes the contract so the
//! driver and the experiment layer agree on it.
//!
//! Replayability is the whole point: a plane is a pure function of
//! `(script, seed)`, so a scenario = topology + TrafficScript + FaultScript
//! under one seed reproduces bit-for-bit. Consumption is single-pass and
//! ordered; [`TrafficPlane::next_event`] never returns events out of
//! nondecreasing time order.

use crate::sim::{PropSim, Timing};
use prop_engine::SimTime;
use prop_overlay::{OverlayNet, Slot};

/// One scripted workload event. Times live outside the event (the plane
/// returns `(SimTime, TrafficEvent)` pairs); `domain` is the scripted
/// region, a transit-domain index of `PhysGraph::transit_domain_of`. A
/// loaded scenario names only domains its topology has; the built-in
/// presets' four regions fold onto a topology with fewer (region `r` on
/// domain `r % count`), which the experiment layer's pump applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficEvent {
    /// A departed peer (preferentially one homed in `domain`) rejoins.
    Join { domain: u16 },
    /// A live peer homed in `domain` departs gracefully.
    Leave { domain: u16 },
    /// A lookup launched from a live peer in `domain` for the object of
    /// popularity rank `rank` (0 = hottest).
    Lookup { domain: u16, rank: u32 },
}

impl TrafficEvent {
    /// The transit domain the event is attributed to.
    pub fn domain(&self) -> u16 {
        match *self {
            TrafficEvent::Join { domain }
            | TrafficEvent::Leave { domain }
            | TrafficEvent::Lookup { domain, .. } => domain,
        }
    }
}

/// Cumulative counts of events a plane has emitted (consumed via
/// [`TrafficPlane::next_event`]), by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    pub joins: u64,
    pub leaves: u64,
    pub lookups: u64,
}

prop_engine::json_impl!(ToJson for struct TrafficCounters { joins, leaves, lookups });

impl TrafficCounters {
    /// Total events emitted.
    pub fn total(&self) -> u64 {
        self.joins + self.leaves + self.lookups
    }
}

/// A deterministic source of timed workload events, consumed in
/// nondecreasing time order.
pub trait TrafficPlane {
    /// Consume and return the next event due at or before `deadline`, or
    /// `None` when nothing is due yet. Successive calls return
    /// nondecreasing times.
    fn next_event(&mut self, deadline: SimTime) -> Option<(SimTime, TrafficEvent)>;

    /// Events emitted so far, by kind.
    fn counters(&self) -> TrafficCounters;
}

/// The driver surface scripted traffic needs: advance the clock, mutate the
/// overlay, and keep protocol state (including the refreshed `m_default`)
/// honest across churn. Implemented by [`PropSim`] in either timing mode
/// ([`crate::ProtocolSim`], [`crate::AsyncProtocolSim`]) and by the rewiring
/// baselines' driver (`prop_baselines::RewiringSim`), so one generic pump
/// loop in the experiment layer serves them all; the overlay-specific
/// join/leave glue (Gnutella patching, ring maintenance) stays with the
/// caller.
pub trait ChurnDriver {
    /// Run all protocol events up to and including `deadline`, then stand
    /// at `deadline`.
    fn run_until(&mut self, deadline: SimTime);
    /// Current simulated time: the driver's event-queue clock, which the
    /// pump reads for its sample instants and deadlines.
    fn now(&self) -> SimTime;
    /// The overlay under optimization.
    fn net(&self) -> &OverlayNet;
    /// Mutable overlay access for churn glue.
    fn net_mut(&mut self) -> &mut OverlayNet;
    /// A slot was (re)occupied: start protocol state for it. Refreshes
    /// `m_default` to the new δ(G).
    fn handle_join(&mut self, slot: Slot);
    /// A slot departed; `affected` is what the overlay's leave returned,
    /// the slot's former neighbors (`Gnutella::leave`, `Gnutella::crash`
    /// and `Chord::leave` each return them). Refreshes `m_default` to the
    /// new δ(G). The slots a Chord join rewires go to
    /// [`PropSim::handle_rewire`] instead.
    fn handle_leave(&mut self, slot: Slot, affected: &[Slot]);
}

impl<M: Timing> ChurnDriver for PropSim<M> {
    fn run_until(&mut self, deadline: SimTime) {
        PropSim::run_until(self, deadline);
    }
    fn now(&self) -> SimTime {
        PropSim::now(self)
    }
    fn net(&self) -> &OverlayNet {
        PropSim::net(self)
    }
    fn net_mut(&mut self) -> &mut OverlayNet {
        PropSim::net_mut(self)
    }
    fn handle_join(&mut self, slot: Slot) {
        PropSim::handle_join(self, slot);
    }
    fn handle_leave(&mut self, slot: Slot, affected: &[Slot]) {
        PropSim::handle_leave(self, slot, affected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed event list behind the trait, for exercising the contract.
    struct FixedPlane {
        events: Vec<(SimTime, TrafficEvent)>,
        cursor: usize,
        counters: TrafficCounters,
    }

    impl TrafficPlane for FixedPlane {
        fn next_event(&mut self, deadline: SimTime) -> Option<(SimTime, TrafficEvent)> {
            let &(t, ev) = self.events.get(self.cursor)?;
            if t > deadline {
                return None;
            }
            self.cursor += 1;
            match ev {
                TrafficEvent::Join { .. } => self.counters.joins += 1,
                TrafficEvent::Leave { .. } => self.counters.leaves += 1,
                TrafficEvent::Lookup { .. } => self.counters.lookups += 1,
            }
            Some((t, ev))
        }
        fn counters(&self) -> TrafficCounters {
            self.counters
        }
    }

    #[test]
    fn plane_contract_orders_and_counts() {
        let mut p = FixedPlane {
            events: vec![
                (SimTime(10), TrafficEvent::Join { domain: 0 }),
                (SimTime(20), TrafficEvent::Lookup { domain: 1, rank: 3 }),
                (SimTime(30), TrafficEvent::Leave { domain: 1 }),
            ],
            cursor: 0,
            counters: TrafficCounters::default(),
        };
        assert!(p.next_event(SimTime(5)).is_none(), "nothing due yet");
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = p.next_event(SimTime(25)) {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(p.counters().total(), 2, "leave at t=30 not yet due");
        assert_eq!(p.next_event(SimTime(30)).unwrap().1, TrafficEvent::Leave { domain: 1 });
        let c = p.counters();
        assert_eq!((c.joins, c.leaves, c.lookups), (1, 1, 1));
    }

    #[test]
    fn event_domain_accessor() {
        assert_eq!(TrafficEvent::Join { domain: 7 }.domain(), 7);
        assert_eq!(TrafficEvent::Lookup { domain: 2, rank: 0 }.domain(), 2);
    }
}
