//! Replay a production traffic scenario against the PROP drivers.
//!
//! ```text
//! cargo run --release -p prop-experiments --bin traffic \
//!     [<builtin>|<scenario.json>] [--driver <d>] [--quick] [--seed N] \
//!     [--seeds N [--resume]] [--min-delivery X] [--max-stretch X]
//! ```
//!
//! * Positional: a builtin scenario name (`diurnal-regional`,
//!   `flash-crowd`) or a path to a Scenario/TrafficScript JSON (see
//!   `examples/`). Default: `diurnal-regional`.
//! * `--driver`: `prop-g`, `prop-o`, `async`, `selfish`, `both`
//!   (prop-o sync + async), or `compare` (prop-g + prop-o + selfish;
//!   default).
//! * `--seeds N [--resume]`: seed-sharded sweep of the diurnal-regional
//!   comparison with 95% CI error bars (see `prop_experiments::sweep`).
//! * `--min-delivery X` / `--max-stretch X`: CI gates over the PROP
//!   drivers' runs (the selfish strawman is reported but never gated);
//!   a violated gate exits non-zero.
//!
//! Each run prints the per-phase/per-domain report and writes
//! `results/traffic_<scenario>_<driver>.json`.

use prop_experiments::report::write_json;
use prop_experiments::sweep::{SweepConfig, SweepExperiment};
use prop_experiments::traffic::{
    builtin_scenario, load_script_or_scenario, run_scenario, TrafficDriver, TrafficRunReport,
};
use prop_experiments::Scale;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    scenario: String,
    drivers: Vec<TrafficDriver>,
    scale: Scale,
    seed: u64,
    seeds: Option<usize>,
    resume: bool,
    min_delivery: Option<f64>,
    max_stretch: Option<f64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        scenario: "diurnal-regional".to_string(),
        drivers: vec![TrafficDriver::PropG, TrafficDriver::PropO, TrafficDriver::Selfish],
        scale: Scale::Paper,
        seed: 1,
        seeds: None,
        resume: false,
        min_delivery: None,
        max_stretch: None,
    };
    let mut args = std::env::args().skip(1);
    let f64_arg = |args: &mut dyn Iterator<Item = String>, flag: &str| -> f64 {
        args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| panic!("{flag} needs a number"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => parsed.scale = Scale::Quick,
            "--seed" => {
                parsed.seed =
                    args.next().and_then(|s| s.parse().ok()).expect("--seed needs an integer");
            }
            "--seeds" => {
                parsed.seeds = Some(
                    args.next().and_then(|s| s.parse().ok()).expect("--seeds needs a seed count"),
                );
            }
            "--resume" => parsed.resume = true,
            "--driver" => {
                let d = args.next().expect("--driver needs a name");
                parsed.drivers = match d.as_str() {
                    "both" => vec![TrafficDriver::PropO, TrafficDriver::Async],
                    "compare" => {
                        vec![TrafficDriver::PropG, TrafficDriver::PropO, TrafficDriver::Selfish]
                    }
                    one => vec![TrafficDriver::parse(one)
                        .unwrap_or_else(|| panic!("unknown driver {one:?}"))],
                };
            }
            "--min-delivery" => parsed.min_delivery = Some(f64_arg(&mut args, "--min-delivery")),
            "--max-stretch" => parsed.max_stretch = Some(f64_arg(&mut args, "--max-stretch")),
            other if !other.starts_with('-') => parsed.scenario = other.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }
    if parsed.resume && parsed.seeds.is_none() {
        panic!("--resume only makes sense with --seeds N");
    }
    parsed
}

fn check_gates(args: &Args, run: &TrafficRunReport) -> Vec<String> {
    let mut failures = Vec::new();
    if run.driver == "selfish" {
        return failures; // the strawman is reported, never gated
    }
    if let Some(min) = args.min_delivery {
        let got = run.report.delivery_rate();
        if got < min {
            failures.push(format!("{}: delivery {:.4} below gate {:.4}", run.driver, got, min));
        }
    }
    if let Some(max) = args.max_stretch {
        let got = run.report.overall_stretch();
        if got > max {
            failures.push(format!("{}: stretch {:.4} above gate {:.4}", run.driver, got, max));
        }
    }
    failures
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(seeds) = args.seeds {
        let cfg = SweepConfig::new(SweepExperiment::Traffic, args.scale, args.seed, seeds);
        return prop_experiments::sweep::run_cli(&cfg, Path::new("results"), args.resume, &[]);
    }

    let spec = if args.scenario.ends_with(".json") || args.scenario.contains('/') {
        match load_script_or_scenario(&args.scenario, args.scale, args.seed) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("traffic: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        builtin_scenario(&args.scenario, args.scale, args.seed, None, None)
    };
    println!(
        "scenario {} on {} (n = {}, seed {}): {} domains, {} flash crowds, {} shifts",
        spec.name,
        spec.topology,
        spec.n,
        spec.seed,
        spec.traffic.domains.len(),
        spec.traffic.flash_crowds.len(),
        spec.traffic.popularity.len()
    );

    let mut failures = Vec::new();
    for driver in &args.drivers {
        let r = run_scenario(&spec, *driver, args.scale);
        println!("\n=== {} ===", driver.label());
        println!("{}", r.report);
        println!(
            "plane emitted {} events ({} joins, {} leaves, {} lookups); \
             final link stretch {:.3}; connected throughout: {}",
            r.emitted.total(),
            r.emitted.joins,
            r.emitted.leaves,
            r.emitted.lookups,
            r.final_link_stretch,
            r.always_connected
        );
        failures.extend(check_gates(&args, &r));
        write_json(&format!("traffic_{}_{}", spec.name, driver.label()), &r);
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("GATE FAILED — {f}");
        }
        ExitCode::FAILURE
    }
}
