//! The fault-plane interface the protocol driver speaks.
//!
//! The driver ([`crate::sim::PropSim`], in either timing mode) historically
//! assumed a *perfect network*: every walk, address-list
//! exchange, and hypothetical-neighbor probe arrives, links never degrade,
//! and peers never crash mid-trial. A [`FaultPlane`] sits between the driver
//! and the simulated network and decides, per message, whether and how it is
//! delivered. The plane that injects faults (random loss, duplication,
//! reordering, latency spikes, transit-link partitions, crash/restart) is
//! compiled from a script in the `prop-faults` crate; this module defines
//! only the contract, so the driver stays free of a dependency on it.
//!
//! A driver without a plane attached behaves exactly as before — the
//! fault path is `Option`-gated and costs one branch per trial.
//!
//! Determinism contract: a plane may own forked [`prop_engine::SimRng`]
//! streams, and the driver consults it in event order, so a given seed + plane
//! configuration yields bit-identical decisions (and therefore counters) on
//! every run.

/// Which §3.2 message a delivery decision is about.
///
/// The per-trial message sequence a driver submits to the plane:
/// [`MsgKind::Walk`] (origin → counterpart, hop by hop),
/// [`MsgKind::Exchange`] (the address-list reply, counterpart → origin),
/// [`MsgKind::Probe`] (the hypothetical-neighbor pings), and finally
/// [`MsgKind::Commit`] (the exchange handshake that actually applies the
/// plan — in message-level mode this is delivered one probe-duration after
/// launch, so the overlay may have moved or the counterpart crashed
/// underneath it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    Walk,
    Exchange,
    Probe,
    Commit,
}

/// The plane's verdict on one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Did the message arrive at all?
    pub delivered: bool,
    /// Deliver a *second* copy (duplication). Only meaningful for messages
    /// that schedule events — message-level mode schedules the trial's commit
    /// twice, and the second copy revalidates against a consumed plan.
    pub duplicate: bool,
    /// Extra in-flight time in ms (reordering relative to FIFO delivery,
    /// congestion spikes). Added to the trial's probe duration.
    pub extra_delay_ms: u64,
}

impl Delivery {
    /// The perfect-network verdict.
    pub const CLEAN: Delivery = Delivery { delivered: true, duplicate: false, extra_delay_ms: 0 };

    /// A plain drop.
    pub const DROPPED: Delivery =
        Delivery { delivered: false, duplicate: false, extra_delay_ms: 0 };

    /// Merge the verdicts on two messages of one trial: a drop from either
    /// side wins, duplication from either side sticks, delays accumulate
    /// (saturating).
    pub fn merge(self, other: Delivery) -> Delivery {
        Delivery {
            delivered: self.delivered && other.delivered,
            duplicate: self.duplicate || other.duplicate,
            extra_delay_ms: self.extra_delay_ms.saturating_add(other.extra_delay_ms),
        }
    }
}

/// Cumulative fault accounting, mirroring [`crate::sim::Overhead`] in style.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages the plane ruled on: one per `deliver`, whatever the verdict.
    pub ruled: u64,
    /// Messages the plane refused to deliver (random loss + partition cuts).
    pub drops: u64,
    /// Messages delivered twice.
    pub dup_deliveries: u64,
    /// Messages delivered late (out of FIFO order).
    pub reorders: u64,
    /// Total simulated milliseconds during which a partition was active.
    pub partition_ms: u64,
    /// Commit messages that found their counterpart crashed.
    pub crashed_aborts: u64,
}

impl FaultCounters {
    /// All fault events of any kind (partition time excluded — it is a
    /// duration, not an event count; rulings excluded — most are clean).
    pub fn total_events(&self) -> u64 {
        self.drops + self.dup_deliveries + self.reorders + self.crashed_aborts
    }
}

/// The interface a driver uses to push its traffic through the fault plane.
/// `deliver` and `counters` are required — a plane that rules on nothing or
/// counts nothing is a bug, not a default.
///
/// Peers are addressed by their oracle member index
/// ([`prop_netsim::oracle::MemberIdx`], a plain `usize`) — the *physical*
/// identity, which is what partitions and crashes act on. PROP-G moves
/// peers between slots, but a crashed host stays crashed wherever its
/// state currently sits.
pub trait FaultPlane {
    /// Verdict for one message from peer `from` to peer `to` at `now`.
    fn deliver(
        &mut self,
        now: prop_engine::SimTime,
        kind: MsgKind,
        from: usize,
        to: usize,
    ) -> Delivery;

    /// Is `peer` up (not crashed) at `now`? A down peer launches no probes
    /// and receives nothing. Perfect-network default: everyone is up.
    fn is_up(&mut self, _now: prop_engine::SimTime, _peer: usize) -> bool {
        true
    }

    /// Extra one-way latency in ms currently afflicting the path between
    /// `a` and `b` (congestion spikes / drift), layered *over* the static
    /// oracle `d(a, b)`. Affects message transit time only — the oracle's
    /// ground-truth distances, and therefore `Var` and the theorems, are
    /// untouched. Perfect-network default: none.
    fn link_extra_ms(&mut self, _now: prop_engine::SimTime, _a: usize, _b: usize) -> u64 {
        0
    }

    /// Counter snapshot as of `now` (the timestamp finalizes
    /// [`FaultCounters::partition_ms`] for still-open partition windows).
    fn counters(&mut self, now: prop_engine::SimTime) -> FaultCounters;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_combines_worst_case() {
        let drop = Delivery::DROPPED;
        let dup = Delivery { delivered: true, duplicate: true, extra_delay_ms: 10 };
        let merged = drop.merge(dup);
        assert!(!merged.delivered);
        assert!(merged.duplicate);
        assert_eq!(merged.extra_delay_ms, 10);
        assert_eq!(Delivery::CLEAN.merge(Delivery::CLEAN), Delivery::CLEAN);
    }
}
