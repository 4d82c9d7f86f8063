//! Degree-distribution summaries.
//!
//! PROP-O's selling point over LTM is degree preservation: "powerful nodes
//! own more connections" and keep them. These helpers quantify how far a
//! scheme drifted from the initial degree structure.

use prop_overlay::LogicalGraph;

/// Summary of a degree distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeSummary {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    /// Coefficient of variation (std dev / mean): a rough skewness proxy —
    /// power-law-ish graphs have a much higher CV than regular ones.
    pub cv: f64,
}

/// Summarize the live degree distribution.
pub fn degree_summary(g: &LogicalGraph) -> DegreeSummary {
    let seq = g.degree_sequence();
    assert!(!seq.is_empty(), "no live slots");
    let n = seq.len() as f64;
    let mean = seq.iter().sum::<usize>() as f64 / n;
    let var = seq.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n;
    DegreeSummary { min: seq[0], max: *seq.last().unwrap(), mean, cv: var.sqrt() / mean }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_overlay::Slot;

    fn star(n: u32) -> LogicalGraph {
        let mut g = LogicalGraph::new(n as usize);
        for i in 1..n {
            g.add_edge(Slot(0), Slot(i));
        }
        g
    }

    #[test]
    fn star_summary() {
        let s = degree_summary(&star(5));
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert!(s.cv > 0.5, "stars are skewed");
    }

    #[test]
    fn regular_graph_has_zero_cv() {
        let mut g = LogicalGraph::new(4);
        for i in 0..4u32 {
            g.add_edge(Slot(i), Slot((i + 1) % 4));
        }
        let s = degree_summary(&g);
        assert_eq!(s.cv, 0.0);
        assert_eq!((s.min, s.max), (2, 2));
    }
}
