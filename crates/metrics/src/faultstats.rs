//! Fault-plane counters as a reportable metric.
//!
//! The fault plane (`prop-faults`) counts what it did to the traffic —
//! drops, duplicate deliveries, reorders, partition time, crashed-commit
//! aborts ([`FaultCounters`]). [`FaultReport`] packages those raw counters
//! with the derived rates the experiment tables and JSON dumps need, the
//! same shape [`crate::OracleCacheReport`] gives the oracle cache.

use prop_core::fault::FaultCounters;

/// One run's fault-plane activity, with derived rates.
#[derive(Clone, Copy, Debug)]
pub struct FaultReport {
    pub drops: u64,
    pub dup_deliveries: u64,
    pub reorders: u64,
    /// Seconds (not ms) of active partition — the unit the sweep tables use.
    pub partition_secs: f64,
    pub crashed_aborts: u64,
    /// All fault events of any kind (partition time excluded).
    pub total_events: u64,
    /// `drops / messages_ruled`, 0 when nothing was ruled. This is the
    /// *observed* loss rate, which under partitions and crashes exceeds the
    /// scripted random-loss probability.
    pub drop_rate: f64,
}

prop_engine::json_impl!(ToJson for struct FaultReport {
    drops, dup_deliveries, reorders, partition_secs, crashed_aborts, total_events, drop_rate
});

impl FaultReport {
    /// Package plane counters. `messages_ruled` is how many delivery
    /// verdicts the drivers requested (4 per attempted trial); it is the
    /// denominator of [`FaultReport::drop_rate`].
    pub fn from_counters(c: FaultCounters, messages_ruled: u64) -> Self {
        FaultReport {
            drops: c.drops,
            dup_deliveries: c.dup_deliveries,
            reorders: c.reorders,
            partition_secs: c.partition_ms as f64 / 1000.0,
            crashed_aborts: c.crashed_aborts,
            total_events: c.total_events(),
            drop_rate: if messages_ruled == 0 {
                0.0
            } else {
                c.drops as f64 / messages_ruled as f64
            },
        }
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "faults: {} drops ({:.2}% of ruled msgs), {} dups, {} reorders, \
             {:.0}s partitioned, {} crashed-commit aborts",
            self.drops,
            self.drop_rate * 100.0,
            self.dup_deliveries,
            self.reorders,
            self.partition_secs,
            self.crashed_aborts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultCounters {
        FaultCounters {
            drops: 25,
            dup_deliveries: 3,
            reorders: 7,
            partition_ms: 30_000,
            crashed_aborts: 2,
        }
    }

    #[test]
    fn rates_derive_from_counters() {
        let r = FaultReport::from_counters(sample(), 1000);
        assert_eq!(r.drops, 25);
        assert!((r.drop_rate - 0.025).abs() < 1e-12);
        assert!((r.partition_secs - 30.0).abs() < 1e-12);
        assert_eq!(r.total_events, 25 + 3 + 7 + 2);
    }

    #[test]
    fn zero_denominator_is_safe() {
        let r = FaultReport::from_counters(sample(), 0);
        assert_eq!(r.drop_rate, 0.0);
    }

    #[test]
    fn serializes_for_json_dumps() {
        let r = FaultReport::from_counters(sample(), 400);
        let json = prop_engine::json::to_string(&r);
        assert!(json.contains("\"crashed_aborts\":2"));
        assert!(json.contains("\"partition_secs\":30.0"));
    }

    #[test]
    fn display_is_one_line() {
        let r = FaultReport::from_counters(sample(), 400);
        let s = format!("{r}");
        assert!(s.contains("25 drops"));
        assert!(!s.contains('\n'));
    }
}
