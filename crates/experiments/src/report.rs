//! Plain-text and JSON reporting for the experiment binaries.
//!
//! Every `fig*`/`ablation` binary prints the series it produced (the same
//! rows the paper plots) and drops a JSON copy under `results/` so
//! EXPERIMENTS.md numbers can be traced to a file.

use prop_engine::json::{self, ToJson};
use prop_metrics::{MetricSummary, TimeSeries};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

/// Print a titled block of labelled time series as aligned columns:
/// one row per sample time, one column per series.
pub fn print_series_table(title: &str, curves: &[&TimeSeries]) {
    println!("\n=== {title} ===");
    if curves.is_empty() || curves[0].is_empty() {
        println!("(no data)");
        return;
    }
    print!("{:>8}", "min");
    for c in curves {
        print!("  {:>22}", truncate(&c.label, 22));
    }
    println!();
    let rows = curves.iter().map(|c| c.len()).max().unwrap_or(0);
    for r in 0..rows {
        let t = curves.iter().find_map(|c| c.points.get(r).map(|&(t, _)| t)).unwrap_or(f64::NAN);
        print!("{t:>8.1}");
        for c in curves {
            match c.points.get(r) {
                Some(&(_, v)) => print!("  {v:>22.3}"),
                None => print!("  {:>22}", "-"),
            }
        }
        println!();
    }
}

/// Print per-curve start/end/improvement summary lines.
pub fn print_improvements(curves: &[(&str, f64, f64)]) {
    for (label, first, last) in curves {
        let imp = if *first != 0.0 { (first - last) / first * 100.0 } else { 0.0 };
        println!("  {label:<28} {first:>10.2} → {last:>10.2}   ({imp:+.1}%)");
    }
}

/// Print the fault-sweep grid: one row per (loss, partition) cell, with the
/// driver's progress counters (including `stale_aborts` and `faulted`) next
/// to the plane's own counters and the achieved stretch improvement.
pub fn print_fault_table(title: &str, rows: &[crate::faults::FaultSweepRow]) {
    println!("\n=== {title} ===");
    if rows.is_empty() {
        println!("(no data)");
        return;
    }
    println!(
        "{:>7} {:>7} {:>9} {:>9} {:>8} {:>7} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "loss%",
        "part s",
        "launched",
        "exchange",
        "no-gain",
        "stale",
        "faulted",
        "drops",
        "crashed",
        "part ms",
        "improv%"
    );
    for r in rows {
        println!(
            "{:>7.1} {:>7} {:>9} {:>9} {:>8} {:>7} {:>8} {:>8} {:>8} {:>9} {:>8.1}",
            r.loss_pct,
            r.partition_secs,
            r.launched,
            r.exchanges,
            r.no_gain,
            r.stale_aborts,
            r.faulted,
            r.drops,
            r.crashed_aborts,
            r.partition_ms,
            r.improvement_pct
        );
    }
}

/// Print a sweep aggregate's metric summaries: one row per headline
/// metric with mean, sample stddev, and the 95% CI half-width (`n/a` on
/// single-seed sweeps, where the CI is null by design).
pub fn print_ci_table(title: &str, metrics: &BTreeMap<String, MetricSummary>) {
    println!("\n=== {title} ===");
    if metrics.is_empty() {
        println!("(no data)");
        return;
    }
    println!("{:<44} {:>4} {:>12} {:>12} {:>12}", "metric", "n", "mean", "stddev", "95% CI ±");
    for (name, s) in metrics {
        let ci = s.ci95.map_or("n/a".to_string(), |w| format!("{w:.4}"));
        println!(
            "{:<44} {:>4} {:>12.4} {:>12.4} {:>12}",
            truncate(name, 44),
            s.n,
            s.mean,
            s.stddev,
            ci
        );
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

/// Write `value` to `results/<name>.json` (best effort: failures are
/// reported but never abort the run).
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match fs::write(&path, json::to_string_pretty(value)) {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Shared CLI convention for the experiment binaries:
/// `<bin> [panel] [--quick] [--seed N] [--seeds N] [--resume]
/// [--traffic <file.json>]`.
///
/// `--seeds N` turns the invocation into a seed-sharded Monte-Carlo sweep
/// (see [`crate::sweep`]); `--resume` continues an interrupted sweep of
/// the same configuration. `--traffic` points at a TrafficScript or
/// Scenario JSON for the binaries that accept scripted traffic (`fig6`,
/// `faults`, `traffic`).
pub struct Cli {
    pub panel: Option<String>,
    pub scale: crate::Scale,
    pub seed: u64,
    /// `--seeds N`: run the sweep orchestrator instead of a single seed.
    pub seeds: Option<usize>,
    /// `--resume`: continue an interrupted sweep (only with `--seeds`).
    pub resume: bool,
    /// `--traffic <path>`: scripted-traffic input for the binaries that
    /// support it (ignored by the others).
    pub traffic: Option<String>,
}

impl Cli {
    pub fn parse() -> Cli {
        let mut panel = None;
        let mut scale = crate::Scale::Paper;
        let mut seed = 1u64;
        let mut seeds = None;
        let mut resume = false;
        let mut traffic = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => scale = crate::Scale::Quick,
                "--seed" => {
                    seed =
                        args.next().and_then(|s| s.parse().ok()).expect("--seed needs an integer");
                }
                "--seeds" => {
                    seeds = Some(
                        args.next()
                            .and_then(|s| s.parse().ok())
                            .expect("--seeds needs a seed count"),
                    );
                }
                "--resume" => resume = true,
                "--traffic" => {
                    traffic = Some(args.next().expect("--traffic needs a JSON path"));
                }
                other if !other.starts_with('-') => panel = Some(other.to_string()),
                other => panic!("unknown flag {other}"),
            }
        }
        if resume && seeds.is_none() {
            panic!("--resume only makes sense with --seeds N");
        }
        Cli { panel, scale, seed, seeds, resume, traffic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_behaviour() {
        assert_eq!(truncate("short", 22), "short");
        assert_eq!(truncate("abcdefghij", 5), "abcd…");
    }

    #[test]
    fn print_handles_empty() {
        // Just exercise the no-data paths for panics.
        print_series_table("empty", &[]);
        let ts = TimeSeries::new("x");
        print_series_table("empty2", &[&ts]);
        print_improvements(&[]);
    }
}
