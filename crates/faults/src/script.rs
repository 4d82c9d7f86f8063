//! Declarative fault scenarios.
//!
//! A [`FaultScript`] is an ordered list of timed [`FaultEvent`]s — "at
//! t = 60 s, 10 % message loss begins", "at t = 120 s the transit core
//! partitions for 30 s", "peer 17 crashes at t = 90 s and restarts 20 s
//! later". Scripts are plain data (JSON round-trippable), so experiments,
//! tests, and the CI fault matrix share scenario definitions instead of
//! each hand-wiring injectors.
//!
//! Rate-style events (loss / duplication / reordering) are *step changes*:
//! the probability set at `at_ms` stays in force until the next event of
//! the same kind (so `loss(0, 0.1)` + `loss(60_000, 0.0)` is "10 % loss
//! for the first minute"). Window-style events (spike, drift, partition,
//! crash) are self-contained `[at, at + duration)` intervals.

use prop_engine::json_impl;

/// One timed fault directive. Times are simulated milliseconds since
/// simulation start; peers are oracle member indices (physical identity).
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// From `at_ms` on, drop each walk/exchange/probe/commit message with
    /// probability `prob` (until the next `Loss` event).
    Loss { at_ms: u64, prob: f64 },
    /// From `at_ms` on, deliver a second copy of each message with
    /// probability `prob` (until the next `Duplicate` event).
    Duplicate { at_ms: u64, prob: f64 },
    /// From `at_ms` on, delay each message by up to `max_extra_ms` extra
    /// milliseconds with probability `prob` — a message overtaken by later
    /// traffic (until the next `Reorder` event).
    Reorder { at_ms: u64, prob: f64, max_extra_ms: u64 },
    /// For `[at_ms, at_ms + duration_ms)`: every link carries `extra_ms`
    /// additional one-way latency (flat congestion plateau).
    LatencySpike { at_ms: u64, duration_ms: u64, extra_ms: u64 },
    /// For `[at_ms, at_ms + duration_ms)`: link latency drifts linearly up
    /// to `peak_extra_ms` at the window midpoint and back down (triangular
    /// profile) — a slow congestion build-up and drain.
    LatencyDrift { at_ms: u64, duration_ms: u64, peak_extra_ms: u64 },
    /// For `[at_ms, at_ms + heal_after_ms)`: the transit core is bisected;
    /// every message between peers on opposite sides is dropped. Which
    /// peer is on which side comes from
    /// [`crate::partition::transit_bisection`].
    Partition { at_ms: u64, heal_after_ms: u64 },
    /// Peer `peer` crashes at `at_ms` and restarts `restart_after_ms`
    /// later (`u64::MAX` ⇒ never). While down it launches no probes,
    /// receives nothing, and in-flight commits addressed to it abort.
    Crash { at_ms: u64, peer: usize, restart_after_ms: u64 },
}

json_impl!(ToJson, FromJson for enum FaultEvent {
    Loss { at_ms, prob },
    Duplicate { at_ms, prob },
    Reorder { at_ms, prob, max_extra_ms },
    LatencySpike { at_ms, duration_ms, extra_ms },
    LatencyDrift { at_ms, duration_ms, peak_extra_ms },
    Partition { at_ms, heal_after_ms },
    Crash { at_ms, peer, restart_after_ms },
});

impl FaultEvent {
    /// When the directive takes effect.
    pub fn at_ms(&self) -> u64 {
        match *self {
            FaultEvent::Loss { at_ms, .. }
            | FaultEvent::Duplicate { at_ms, .. }
            | FaultEvent::Reorder { at_ms, .. }
            | FaultEvent::LatencySpike { at_ms, .. }
            | FaultEvent::LatencyDrift { at_ms, .. }
            | FaultEvent::Partition { at_ms, .. }
            | FaultEvent::Crash { at_ms, .. } => at_ms,
        }
    }
}

/// An ordered fault scenario (see module docs for the semantics).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultScript {
    pub events: Vec<FaultEvent>,
}

json_impl!(ToJson, FromJson for struct FaultScript { events });

impl FaultScript {
    /// The empty scenario: a perfect network.
    pub fn new() -> FaultScript {
        FaultScript::default()
    }

    /// Append any event.
    pub fn push(mut self, ev: FaultEvent) -> FaultScript {
        self.events.push(ev);
        self
    }

    /// Set the message-loss probability from `at_ms` on.
    pub fn loss(self, at_ms: u64, prob: f64) -> FaultScript {
        self.push(FaultEvent::Loss { at_ms, prob })
    }

    /// Set the duplication probability from `at_ms` on.
    pub fn duplicate(self, at_ms: u64, prob: f64) -> FaultScript {
        self.push(FaultEvent::Duplicate { at_ms, prob })
    }

    /// Set the reordering probability/magnitude from `at_ms` on.
    pub fn reorder(self, at_ms: u64, prob: f64, max_extra_ms: u64) -> FaultScript {
        self.push(FaultEvent::Reorder { at_ms, prob, max_extra_ms })
    }

    /// Add a flat congestion window.
    pub fn spike(self, at_ms: u64, duration_ms: u64, extra_ms: u64) -> FaultScript {
        self.push(FaultEvent::LatencySpike { at_ms, duration_ms, extra_ms })
    }

    /// Add a triangular congestion window.
    pub fn drift(self, at_ms: u64, duration_ms: u64, peak_extra_ms: u64) -> FaultScript {
        self.push(FaultEvent::LatencyDrift { at_ms, duration_ms, peak_extra_ms })
    }

    /// Add a transit-core partition window.
    pub fn partition(self, at_ms: u64, heal_after_ms: u64) -> FaultScript {
        self.push(FaultEvent::Partition { at_ms, heal_after_ms })
    }

    /// Add a crash/restart cycle for one peer.
    pub fn crash(self, at_ms: u64, peer: usize, restart_after_ms: u64) -> FaultScript {
        self.push(FaultEvent::Crash { at_ms, peer, restart_after_ms })
    }

    /// Events sorted by effect time (stable, so same-time events keep their
    /// authoring order). Injector compilation works on the sorted view;
    /// scripts themselves may be authored in any order.
    pub fn sorted(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at_ms());
        evs
    }

    /// The partition windows `[start, end)` the script declares, sorted.
    pub fn partition_windows(&self) -> Vec<(u64, u64)> {
        let mut ws: Vec<(u64, u64)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Partition { at_ms, heal_after_ms } => {
                    Some((at_ms, at_ms.saturating_add(heal_after_ms)))
                }
                _ => None,
            })
            .collect();
        ws.sort_unstable();
        ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> FaultScript {
        FaultScript::new()
            .loss(0, 0.1)
            .partition(60_000, 30_000)
            .crash(90_000, 17, 20_000)
            .spike(10_000, 5_000, 40)
            .loss(120_000, 0.0)
    }

    #[test]
    fn json_round_trip() {
        let s = demo();
        let json = prop_engine::json::to_string(&s);
        assert!(
            json.starts_with(r#"{"events":[{"Loss":{"at_ms":0,"prob":0.1}},{"Partition":"#),
            "{json}"
        );
        let back: FaultScript = prop_engine::json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn sorted_orders_by_time() {
        let times: Vec<u64> = demo().sorted().iter().map(|e| e.at_ms()).collect();
        assert_eq!(times, vec![0, 10_000, 60_000, 90_000, 120_000]);
    }

    #[test]
    fn partition_windows_and_activity() {
        let s = demo();
        assert_eq!(s.partition_windows(), vec![(60_000, 90_000)]);
    }
}
