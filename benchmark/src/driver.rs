//! One handle over the two protocol drivers, so a workload is written once.
//!
//! The kernel keeps `ProtocolSim` and `AsyncProtocolSim` as separate types
//! with separate counter structs; the harness needs the same five calls and
//! three counts from either.

use prop_core::{AsyncProtocolSim, FaultCounters, FaultPlane, PropConfig, ProtocolSim};
use prop_engine::{SimRng, SimTime};
use prop_overlay::{OverlayNet, Slot};

pub enum Sim {
    Sync(ProtocolSim),
    Async(AsyncProtocolSim),
}

/// Cumulative protocol counts. The asynchronous driver exposes no message
/// counters, so `msgs` is 0 there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    pub trials: u64,
    pub exchanges: u64,
    pub msgs: u64,
}

impl Sim {
    pub fn new(asynchronous: bool, net: OverlayNet, cfg: PropConfig, rng: &mut SimRng) -> Self {
        if asynchronous {
            Sim::Async(AsyncProtocolSim::new(net, cfg, rng))
        } else {
            Sim::Sync(ProtocolSim::new(net, cfg, rng))
        }
    }

    pub fn set_fault_plane(&mut self, plane: Box<dyn FaultPlane>) {
        match self {
            Sim::Sync(s) => s.set_fault_plane(plane),
            Sim::Async(s) => s.set_fault_plane(plane),
        }
    }

    pub fn fault_counters(&mut self) -> Option<FaultCounters> {
        match self {
            Sim::Sync(s) => s.fault_counters(),
            Sim::Async(s) => s.fault_counters(),
        }
    }

    pub fn run_until(&mut self, deadline: SimTime) {
        match self {
            Sim::Sync(s) => s.run_until(deadline),
            Sim::Async(s) => s.run_until(deadline),
        }
    }

    pub fn net(&self) -> &OverlayNet {
        match self {
            Sim::Sync(s) => s.net(),
            Sim::Async(s) => s.net(),
        }
    }

    pub fn net_mut(&mut self) -> &mut OverlayNet {
        match self {
            Sim::Sync(s) => s.net_mut(),
            Sim::Async(s) => s.net_mut(),
        }
    }

    pub fn handle_join(&mut self, slot: Slot) {
        match self {
            Sim::Sync(s) => s.handle_join(slot),
            Sim::Async(s) => s.handle_join(slot),
        }
    }

    pub fn handle_leave(&mut self, slot: Slot, affected: &[Slot]) {
        match self {
            Sim::Sync(s) => s.handle_leave(slot, affected),
            Sim::Async(s) => s.handle_leave(slot, affected),
        }
    }

    pub fn m_default(&self) -> usize {
        match self {
            Sim::Sync(s) => s.m_default(),
            Sim::Async(s) => s.m_default(),
        }
    }

    pub fn progress(&self) -> Progress {
        match self {
            Sim::Sync(s) => {
                let o = s.overhead();
                Progress { trials: o.trials, exchanges: o.exchanges, msgs: o.total_msgs() }
            }
            Sim::Async(s) => {
                let st = s.stats();
                Progress { trials: st.launched, exchanges: st.exchanges, msgs: 0 }
            }
        }
    }

    pub fn into_net(self) -> OverlayNet {
        match self {
            Sim::Sync(s) => s.into_net(),
            Sim::Async(s) => s.into_net(),
        }
    }
}
