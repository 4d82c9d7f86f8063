//! Regenerate **Figure 6** — PROP-G in a Chord environment.
//!
//! ```text
//! cargo run --release -p prop-experiments --bin fig6 [a|b|c] [--quick] [--seed N]
//!     [--seeds N [--resume]] [--traffic <script.json>]
//! ```
//!
//! Prints each panel's stretch series (vs simulated minutes) and writes
//! `results/fig6<panel>.json`. With `--seeds N` the run becomes a
//! seed-sharded Monte-Carlo sweep of the representative stretch curve
//! (mean ± 95% CI on stretch and protocol overhead; see
//! [`prop_experiments::sweep`]). With `--traffic` the workload follows a
//! TrafficScript's time-varying Zipf popularity instead of the static
//! uniform pair set (writes `results/fig6_scripted.json`).

use prop_core::PropConfig;
use prop_experiments::fig6::{panel_a, panel_b, panel_c, run_curve_scripted, StretchCurve};
use prop_experiments::report::{print_series_table, write_json, Cli};
use prop_experiments::setup::Scenario;
use prop_experiments::sweep::{SweepConfig, SweepExperiment};
use prop_experiments::traffic::{load_script_or_scenario, topology_from_label};
use std::path::Path;
use std::process::ExitCode;

fn show(panel: &str, title: &str, curves: &[StretchCurve]) {
    let series: Vec<_> = curves.iter().map(|c| &c.series).collect();
    print_series_table(title, &series);
    println!("\n{}", prop_experiments::plot::ascii_chart(&series, 72, 14));
    println!("\nconvergence (start → end, t90 = minutes to 90% of the gain):");
    for c in curves {
        if let Some(conv) = prop_experiments::convergence_of(&c.series) {
            println!(
                "  {:<28} {:>10.2} → {:>10.2}  ({:+.1}%)  t90 {}  max regression {:.1}%",
                c.series.label,
                conv.initial,
                conv.final_,
                conv.improvement * 100.0,
                conv.t90_minutes.map_or("n/a".into(), |t| format!("{t:.0} min")),
                conv.max_regression * 100.0
            );
        }
    }
    write_json(&format!("fig6{panel}"), &curves.to_vec());
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    if let Some(seeds) = cli.seeds {
        let cfg = SweepConfig::new(SweepExperiment::Fig6, cli.scale, cli.seed, seeds);
        return prop_experiments::sweep::run_cli(&cfg, Path::new("results"), cli.resume, &[]);
    }
    if let Some(path) = &cli.traffic {
        let spec = match load_script_or_scenario(path, cli.scale, cli.seed) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("fig6: {e}");
                return ExitCode::from(2);
            }
        };
        let scenario = Scenario::build(topology_from_label(&spec.topology), spec.n, spec.seed);
        let (curve, overhead) = run_curve_scripted(
            &scenario,
            PropConfig::prop_g(),
            &spec.traffic,
            cli.scale,
            format!("scripted:{}", spec.name),
        );
        show("_scripted", "Fig 6 — stretch under scripted popularity", &[curve]);
        println!(
            "\noverhead: {} trials, {:.1} msgs/trial",
            overhead.trials,
            if overhead.trials == 0 {
                0.0
            } else {
                overhead.total_msgs() as f64 / overhead.trials as f64
            }
        );
        return ExitCode::SUCCESS;
    }
    let run_all = cli.panel.is_none();
    let want = |p: &str| run_all || cli.panel.as_deref() == Some(p);

    if want("a") {
        show("a", "Fig 6(a) — stretch, varying the TTL scale", &panel_a(cli.scale, cli.seed));
    }
    if want("b") {
        show("b", "Fig 6(b) — stretch, varying the system size", &panel_b(cli.scale, cli.seed));
    }
    if want("c") {
        show(
            "c",
            "Fig 6(c) — stretch, varying the physical topology",
            &panel_c(cli.scale, cli.seed),
        );
    }
    ExitCode::SUCCESS
}
