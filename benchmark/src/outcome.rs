//! What one pass of a workload hands back: counts, the quality series, the
//! output checks that feed `failed / attempted`, and a determinism digest.

use crate::refclock::Lap;
use prop_core::Policy;
use prop_overlay::{OverlayNet, Slot};

/// FNV-1a over 64-bit words. Digests simulated statistics only — never a
/// host time — so the same seed must give the same value on every pass, run
/// and machine, and a simulator-only speed-up must leave it unchanged.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Final adjacency and placement, slot by slot.
    pub fn net(&mut self, net: &OverlayNet) {
        let g = net.graph();
        self.word(g.num_slots() as u64);
        for i in 0..g.num_slots() as u32 {
            let s = Slot(i);
            if !g.is_alive(s) {
                self.word(u64::MAX);
                continue;
            }
            self.word(net.peer(s) as u64);
            self.word(g.degree(s) as u64);
            for &t in g.neighbors(s) {
                self.word(t.0 as u64);
            }
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Output checks. Each measured lookup and each invariant is one attempt;
/// a lookup the overlay did not deliver, or an invariant that does not hold,
/// is one failure.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    pub fn lookups(&mut self, delivered: u64, failed: u64) {
        self.attempted += delivered + failed;
        self.failed += failed;
        if failed > 0 {
            eprintln!("CHECK FAILED: {failed} measured lookups were not delivered");
        }
    }
}

/// The overlay a pass ended on, kept so the traced run's probes can price one
/// trial by hand on real final state.
pub struct FinalState {
    pub net: OverlayNet,
    pub policy: Policy,
    pub m_default: usize,
    /// Suffix of the per-variant metrics this overlay's driver reported
    /// under, when the workload ran several drivers.
    pub variant: Option<&'static str>,
}

pub struct Outcome {
    pub setup: Lap,
    /// The run phase: driver + churn + measurement.
    pub run: Lap,
    pub trials: u64,
    pub exchanges: u64,
    pub msgs: u64,
    /// Lookups routed by the measurement calls.
    pub lookups: u64,
    /// The workload's quality series, first sample to last (simulated).
    pub quality: Vec<f64>,
    pub checks: Checks,
    pub digest: u64,
    /// The layers' own public counters, by per-layer metric name.
    pub counters: Vec<(String, f64)>,
    pub last: FinalState,
}

impl Outcome {
    /// Last quality sample over the first: what is left of the starting
    /// latency or stretch once the protocol has run. Simulated, so it is the
    /// same on every pass of a seed.
    pub fn quality_ratio(&self) -> f64 {
        match (self.quality.first(), self.quality.last()) {
            (Some(&a), Some(&b)) if a > 0.0 => b / a,
            _ => f64::NAN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_order_and_low_bits() {
        let digest = |xs: &[f64]| {
            let mut h = Fnv::default();
            xs.iter().for_each(|&x| h.float(x));
            h.finish()
        };
        assert_eq!(digest(&[1.5, 2.5]), digest(&[1.5, 2.5]));
        assert_ne!(digest(&[1.5, 2.5]), digest(&[2.5, 1.5]));
        assert_ne!(digest(&[1.5]), digest(&[1.5000000000000002]));
    }

    #[test]
    fn checks_count_lookups_and_invariants() {
        let mut c = Checks::default();
        c.lookups(10, 0);
        c.expect(true, "holds");
        assert_eq!((c.attempted, c.failed), (11, 0));
    }
}
