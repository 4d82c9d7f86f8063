//! Per-phase traffic-plane accounting.
//!
//! A scripted traffic run (see `prop-workloads::traffic`) plays diurnal
//! waves, flash crowds, and regional churn against a driver. The figures
//! that matter split by *diurnal phase* — is stretch worse in the evening
//! peak than at night? — and by *transit domain* — did the regionally
//! correlated churn land where the script said? [`TrafficReport`]
//! accumulates both axes: per-phase stretch/delivery/overhead rows fed one
//! sample window at a time, and per-domain event totals fed one traffic
//! event at a time.

use crate::stretch::StretchSummary;
use prop_engine::json_impl;

/// One diurnal phase's share of a traffic run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficPhaseRow {
    /// Phase label (`"night"`, `"morning"`, `"afternoon"`, `"evening"`).
    pub phase: String,
    /// Sample windows attributed to this phase.
    pub windows: u64,
    /// Delivered-weighted mean path stretch across the phase's windows
    /// (0 when nothing was delivered).
    pub stretch: f64,
    pub delivered: u64,
    pub failed: u64,
    pub skipped: u64,
    /// Protocol optimization trials attempted during the phase.
    pub trials: u64,
    /// Protocol messages sent during the phase.
    pub msgs: u64,
    /// Scripted events applied during the phase.
    pub joins: u64,
    pub leaves: u64,
    pub lookups: u64,
    /// Scripted events that could not be applied (no candidate in the
    /// target domain, population floor reached, dead destination).
    pub suppressed: u64,
}

json_impl!(ToJson for struct TrafficPhaseRow {
    phase, windows, stretch, delivered, failed, skipped, trials, msgs, joins, leaves, lookups,
    suppressed
});

impl TrafficPhaseRow {
    /// Delivered fraction of measurable lookups (delivered + failed).
    pub fn delivery_rate(&self) -> f64 {
        let measurable = self.delivered + self.failed;
        if measurable == 0 {
            1.0
        } else {
            self.delivered as f64 / measurable as f64
        }
    }

    /// Protocol messages per optimization trial, 0 when idle.
    pub fn msgs_per_trial(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.msgs as f64 / self.trials as f64
        }
    }

    fn fold_stretch(&mut self, s: &StretchSummary) {
        // Delivered-weighted running mean; NaN window means (nothing
        // delivered) contribute zero weight and are skipped.
        if s.delivered > 0 && s.mean.is_finite() {
            let prev_w = self.delivered as f64;
            let w = s.delivered as f64;
            self.stretch = (self.stretch * prev_w + s.mean * w) / (prev_w + w);
        }
        self.delivered += s.delivered;
        self.failed += s.failed;
        self.skipped += s.skipped;
    }
}

/// One transit domain's scripted-event totals — the regional-correlation
/// evidence (offset diurnal peaks show up as staggered per-domain churn).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficDomainRow {
    pub domain: u16,
    pub joins: u64,
    pub leaves: u64,
    pub lookups: u64,
}

json_impl!(ToJson for struct TrafficDomainRow { domain, joins, leaves, lookups });

/// A traffic run's full accounting: per-diurnal-phase quality/overhead
/// rows plus per-transit-domain event totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficReport {
    pub phases: Vec<TrafficPhaseRow>,
    pub domains: Vec<TrafficDomainRow>,
}

json_impl!(ToJson for struct TrafficReport { phases, domains });

impl TrafficReport {
    /// Empty report with one row per phase label and per domain.
    pub fn new(phase_labels: &[&str], num_domains: u16) -> Self {
        TrafficReport {
            phases: phase_labels
                .iter()
                .map(|&l| TrafficPhaseRow { phase: l.to_string(), ..Default::default() })
                .collect(),
            domains: (0..num_domains)
                .map(|domain| TrafficDomainRow { domain, ..Default::default() })
                .collect(),
        }
    }

    /// Attribute one sample window's measurements to `phase`:
    /// the window's path-stretch summary plus the driver's overhead deltas
    /// over the window.
    pub fn record_window(
        &mut self,
        phase: usize,
        stretch: &StretchSummary,
        trials: u64,
        msgs: u64,
    ) {
        let row = &mut self.phases[phase];
        row.windows += 1;
        row.trials += trials;
        row.msgs += msgs;
        row.fold_stretch(stretch);
    }

    /// Count one applied scripted join.
    pub fn record_join(&mut self, phase: usize, domain: u16) {
        self.phases[phase].joins += 1;
        self.domain_row(domain).joins += 1;
    }

    /// Count one applied scripted leave.
    pub fn record_leave(&mut self, phase: usize, domain: u16) {
        self.phases[phase].leaves += 1;
        self.domain_row(domain).leaves += 1;
    }

    /// Count one resolved scripted lookup.
    pub fn record_lookup(&mut self, phase: usize, domain: u16) {
        self.phases[phase].lookups += 1;
        self.domain_row(domain).lookups += 1;
    }

    /// Count one scripted event that could not be applied.
    pub fn record_suppressed(&mut self, phase: usize) {
        self.phases[phase].suppressed += 1;
    }

    fn domain_row(&mut self, domain: u16) -> &mut TrafficDomainRow {
        let i = self.domains.iter().position(|r| r.domain == domain).unwrap_or_else(|| {
            self.domains.push(TrafficDomainRow { domain, ..Default::default() });
            self.domains.len() - 1
        });
        &mut self.domains[i]
    }

    /// Delivered-weighted mean stretch across all phases.
    pub fn overall_stretch(&self) -> f64 {
        let (num, den) = self.phases.iter().fold((0.0, 0u64), |(num, den), r| {
            (num + r.stretch * r.delivered as f64, den + r.delivered)
        });
        if den == 0 {
            0.0
        } else {
            num / den as f64
        }
    }

    /// Delivered fraction across all phases.
    pub fn delivery_rate(&self) -> f64 {
        let delivered: u64 = self.phases.iter().map(|r| r.delivered).sum();
        let failed: u64 = self.phases.iter().map(|r| r.failed).sum();
        if delivered + failed == 0 {
            1.0
        } else {
            delivered as f64 / (delivered + failed) as f64
        }
    }

    /// Protocol messages per trial across all phases.
    pub fn msgs_per_trial(&self) -> f64 {
        let trials: u64 = self.phases.iter().map(|r| r.trials).sum();
        let msgs: u64 = self.phases.iter().map(|r| r.msgs).sum();
        if trials == 0 {
            0.0
        } else {
            msgs as f64 / trials as f64
        }
    }

    /// Total scripted events applied (joins + leaves + lookups).
    pub fn total_applied(&self) -> u64 {
        self.phases.iter().map(|r| r.joins + r.leaves + r.lookups).sum()
    }

    /// Total scripted events that could not be applied.
    pub fn total_suppressed(&self) -> u64 {
        self.phases.iter().map(|r| r.suppressed).sum()
    }
}

impl std::fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "traffic: stretch {:.3}, delivery {:.1}%, {:.1} msgs/trial, \
             {} events applied ({} suppressed)",
            self.overall_stretch(),
            self.delivery_rate() * 100.0,
            self.msgs_per_trial(),
            self.total_applied(),
            self.total_suppressed()
        )?;
        for r in &self.phases {
            writeln!(
                f,
                "  {:<10} stretch {:.3}  delivery {:.1}%  {:>6} lookups  \
                 {:>4} joins  {:>4} leaves  {:.1} msgs/trial",
                r.phase,
                r.stretch,
                r.delivery_rate() * 100.0,
                r.lookups,
                r.joins,
                r.leaves,
                r.msgs_per_trial()
            )?;
        }
        for r in &self.domains {
            writeln!(
                f,
                "  domain {:>2}  {:>4} joins  {:>4} leaves  {:>6} lookups",
                r.domain, r.joins, r.leaves, r.lookups
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(mean: f64, delivered: u64, failed: u64) -> StretchSummary {
        StretchSummary { mean, delivered, failed, skipped: 0 }
    }

    #[test]
    fn stretch_is_delivered_weighted() {
        let mut r = TrafficReport::new(&["night", "day"], 1);
        r.record_window(0, &summary(2.0, 10, 0), 5, 50);
        r.record_window(0, &summary(4.0, 30, 0), 5, 50);
        assert!((r.phases[0].stretch - 3.5).abs() < 1e-12, "10·2 + 30·4 over 40");
        assert_eq!(r.phases[0].windows, 2);
        assert_eq!(r.phases[0].trials, 10);
    }

    #[test]
    fn nan_windows_carry_no_weight() {
        let mut r = TrafficReport::new(&["night"], 1);
        r.record_window(0, &summary(f64::NAN, 0, 4), 1, 2);
        r.record_window(0, &summary(2.0, 8, 0), 1, 2);
        assert!((r.phases[0].stretch - 2.0).abs() < 1e-12);
        assert_eq!(r.phases[0].failed, 4);
        assert!((r.phases[0].delivery_rate() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn events_split_by_phase_and_domain() {
        let mut r = TrafficReport::new(&["night", "day"], 2);
        r.record_join(0, 0);
        r.record_leave(1, 1);
        r.record_lookup(1, 1);
        r.record_lookup(1, 7); // domain outside the declared range grows a row
        r.record_suppressed(0);
        assert_eq!(r.phases[0].joins, 1);
        assert_eq!(r.phases[1].lookups, 2);
        assert_eq!(r.domains[1].leaves, 1);
        assert_eq!(r.domains.last().unwrap().domain, 7);
        assert_eq!(r.total_applied(), 4);
        assert_eq!(r.total_suppressed(), 1);
    }

    #[test]
    fn overall_rollups() {
        let mut r = TrafficReport::new(&["a", "b"], 1);
        r.record_window(0, &summary(1.5, 10, 0), 2, 10);
        r.record_window(1, &summary(3.0, 10, 10), 2, 30);
        assert!((r.overall_stretch() - 2.25).abs() < 1e-12);
        assert!((r.delivery_rate() - 20.0 / 30.0).abs() < 1e-12);
        assert!((r.msgs_per_trial() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = TrafficReport::new(&[], 0);
        assert_eq!(r.overall_stretch(), 0.0);
        assert_eq!(r.delivery_rate(), 1.0);
        assert_eq!(r.msgs_per_trial(), 0.0);
    }

    #[test]
    fn display_tabulates_phases_and_domains() {
        let mut r = TrafficReport::new(&["night"], 1);
        r.record_window(0, &summary(2.0, 5, 0), 1, 4);
        r.record_lookup(0, 0);
        let s = format!("{r}");
        assert!(s.contains("night"));
        assert!(s.contains("domain  0"));
    }
}
