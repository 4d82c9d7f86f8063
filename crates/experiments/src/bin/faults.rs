//! Regenerate the robustness experiments (beyond-paper; DESIGN.md §10).
//!
//! ```text
//! cargo run --release -p prop-experiments --bin faults \
//!     [sweep|recovery] [--quick] [--seed N] [--seeds N [--resume]]
//!     [--traffic <scenario.json>]
//! ```
//!
//! With `--traffic` the binary replays the scenario bundle (its traffic
//! script composed with its fault script, if any) on the asynchronous
//! driver and reports per-phase stretch/delivery.

use prop_experiments::faults;
use prop_experiments::report::{print_fault_table, print_series_table, write_json, Cli};
use prop_experiments::sweep::{SweepConfig, SweepExperiment};
use prop_experiments::traffic::{load_script_or_scenario, run_scenario, TrafficDriver};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::parse();
    if let Some(path) = &cli.traffic {
        let spec = match load_script_or_scenario(path, cli.scale, cli.seed) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("faults: {e}");
                return ExitCode::from(2);
            }
        };
        let r = run_scenario(&spec, TrafficDriver::Async, cli.scale);
        println!("\n=== scenario {} on the async driver (seed {}) ===", spec.name, spec.seed);
        println!("{}", r.report);
        println!(
            "final link stretch {:.3}, connected throughout: {}",
            r.final_link_stretch, r.always_connected
        );
        write_json(&format!("faults_traffic_{}", spec.name), &r);
        return ExitCode::SUCCESS;
    }
    if let Some(seeds) = cli.seeds {
        // The sweep unit is the loss × partition grid (improvement% ± CI
        // per cell).
        let cfg = SweepConfig::new(SweepExperiment::Faults, cli.scale, cli.seed, seeds);
        return prop_experiments::sweep::run_cli(&cfg, Path::new("results"), cli.resume, &[]);
    }
    let run_all = cli.panel.is_none();
    let want = |p: &str| run_all || cli.panel.as_deref() == Some(p);

    if want("sweep") {
        let rows = faults::sweep(cli.scale, cli.seed);
        print_fault_table("F1 — PROP-G under loss × transit partition", &rows);
        write_json("faults_sweep", &rows);
    }

    if want("recovery") {
        let r = faults::recovery(cli.scale, cli.seed);
        println!(
            "\n=== F2 — partition recovery (split at {:.1} min, heals at {:.1} min) ===",
            r.partition.0 as f64 / 60_000.0,
            r.partition.1 as f64 / 60_000.0
        );
        print_series_table("F2 — exchange rate across the split", &[&r.exchange_rate]);
        println!("{}", r.faults);
        write_json("faults_recovery", &r);
    }
    ExitCode::SUCCESS
}
