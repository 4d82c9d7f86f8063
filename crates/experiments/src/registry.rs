//! The experiment registry: everything `prop <experiment>` can run.
//!
//! One [`EXPERIMENTS`] table. An entry's name is its subcommand; each of its
//! panels is one row of DESIGN.md §4 — id, claim, and the `results/` file it
//! writes. `prop list` prints the table, and the README and DESIGN indexes
//! are regenerated from that output (a test holds them to it).
//!
//! Adding an experiment is one entry here beside its module: panels that
//! are `fn(Scale, u64) -> Value` need no other code, and anything else
//! (a scenario file, a gate, a pipeline that reports as it goes) is the
//! entry's `run`.

use crate::cli::{Args, CliError, Flag};
use crate::report::{print_report, write_json};
use crate::setup::{msgs_per_trial, Scale, Scenario};
use crate::sweep::{self, SweepConfig, SweepExperiment, UnitRun};
use crate::traffic::{self, TrafficDriver, TrafficRunReport};
use crate::{ablation, embed_agreement, faults, fig5, fig6, fig7, generality, scale};
use prop_core::PropConfig;
use prop_engine::json::{ToJson, Value};
use std::process::ExitCode;

/// One subcommand.
pub struct Experiment {
    /// The subcommand, and the prefix of the `results/` files it writes.
    pub name: &'static str,
    /// The DESIGN §4 rows this experiment regenerates: at least one.
    pub panels: &'static [Panel],
    /// What one seed of `--seeds N` runs, if the experiment can be swept.
    pub unit: Option<Unit>,
    /// The flags it takes beyond `--quick --seed N` (and, with a unit,
    /// `--seeds N [--resume] [--gate M=W]… [--root DIR]`).
    pub flags: &'static [Flag],
    /// A single-seed run: [`run_panels`], or the experiment's own.
    pub run: fn(&Experiment, &Args) -> Result<ExitCode, CliError>,
}

/// One row of the DESIGN §4 index.
pub struct Panel {
    /// What selects it on the command line; empty for an experiment's only
    /// panel.
    pub name: &'static str,
    pub id: &'static str,
    pub claim: &'static str,
    /// The file it writes: `results/<stem>.json`.
    pub stem: &'static str,
    /// `None` where the experiment's own `run` produces the report.
    pub run: Option<fn(Scale, u64) -> Value>,
}

/// The representative run a sweep repeats per seed.
#[derive(Clone, Copy)]
pub struct Unit {
    /// The manifest's name for it.
    pub experiment: SweepExperiment,
    /// The panel (for `traffic`, the scenario) the unit is, if it is one:
    /// the only positional argument `--seeds` accepts.
    pub panel: Option<&'static str>,
    pub run: fn(&SweepConfig, u64) -> UnitRun,
}

macro_rules! panel {
    ($name:literal, $id:literal, $stem:literal, $claim:literal, $run:expr) => {
        Panel {
            run: Some(|scale, seed| $run(scale, seed).to_json()),
            ..panel!($name, $id, $stem, $claim)
        }
    };
    ($name:literal, $id:literal, $stem:literal, $claim:literal) => {
        Panel { name: $name, id: $id, claim: $claim, stem: $stem, run: None }
    };
}

// One row per line, whatever its width.
#[rustfmt::skip]
pub static EXPERIMENTS: [Experiment; 9] = [
    Experiment {
        name: "fig5",
        panels: &[
            panel!("a", "F5a", "fig5a", "Fig. 5(a): PROP-G on Gnutella, avg lookup latency (ms) vs minutes, varying the probe TTL", fig5::panel_a),
            panel!("b", "F5b", "fig5b", "Fig. 5(b): PROP-G on Gnutella, varying the system size", fig5::panel_b),
            panel!("c", "F5c", "fig5c", "Fig. 5(c): PROP-G on Gnutella, varying the physical topology", fig5::panel_c),
        ],
        unit: Some(Unit { experiment: SweepExperiment::Fig5, panel: None, run: sweep::unit_fig5 }),
        flags: &[],
        run: run_panels,
    },
    Experiment {
        name: "fig6",
        panels: &[
            panel!("a", "F6a", "fig6a", "Fig. 6(a): PROP-G on Chord, path stretch vs minutes, varying the probe TTL", fig6::panel_a),
            panel!("b", "F6b", "fig6b", "Fig. 6(b): PROP-G on Chord, varying the system size", fig6::panel_b),
            panel!("c", "F6c", "fig6c", "Fig. 6(c): PROP-G on Chord, varying the physical topology", fig6::panel_c),
        ],
        unit: Some(Unit { experiment: SweepExperiment::Fig6, panel: None, run: sweep::unit_fig6 }),
        flags: &[Flag::Traffic],
        run: run_fig6,
    },
    Experiment {
        name: "fig7",
        panels: &[panel!("", "F7", "fig7", "Fig. 7: PROP-O vs PROP-G vs LTM under bimodal heterogeneity, normalized lookup delay vs fraction of fast-node lookups", fig7::run)],
        unit: Some(Unit { experiment: SweepExperiment::Fig7, panel: None, run: sweep::unit_fig7 }),
        flags: &[],
        run: run_panels,
    },
    Experiment {
        name: "ablation",
        panels: &[
            panel!("overhead", "A1", "ablation_overhead", "§4.3: messages per adjustment (nhop+2c vs nhop+2m) and probe-rate decay", ablation::overhead),
            panel!("churn", "A2", "ablation_churn", "§5: stretch and probe rate across a Poisson churn episode", ablation::churn),
            panel!("combine", "A3", "ablation_combine", "§1/§6: PROP-G stacked on PNS / PRS / PIS (path stretch)", ablation::combine),
            panel!("selfish", "A4", "ablation_selfish", "§3.1: cooperative exchange vs selfish rewiring", ablation::selfish_vs_prop),
            panel!("selection", "A5", "ablation_selection", "§3.1: PROP-O neighbor selection, greedy vs random", ablation::selection_strategy),
            panel!("warmup", "A6", "ablation_warmup", "§3.2: warm-up length (MAX_INIT_TRIAL) sweep", ablation::warmup_sweep),
            panel!("waxman", "A7", "ablation_waxman", "physical-model robustness: transit–stub vs flat Waxman", ablation::physical_model),
            panel!("custody", "A8", "ablation_custody", "§3.2/§4.2: object custody under identifier swaps (Chord)", ablation::custody),
            panel!("threshold", "A9", "ablation_threshold", "§4.2: MIN_VAR sensitivity", ablation::threshold_sweep),
            panel!("ltmcap", "A10", "ablation_ltmcap", "LTM connection-cap sensitivity at the Fig. 7 endpoints", ablation::ltm_cap_sweep),
            panel!("zipf", "A11", "ablation_zipf", "Zipf(0.9) popularity with the hot objects on hubs", ablation::zipf_workload),
            panel!("floodcost", "A12", "ablation_floodcost", "flooding messages per query (TTL 7) before and after", ablation::flood_cost),
        ],
        unit: Some(Unit { experiment: SweepExperiment::Ablation, panel: Some("overhead"), run: sweep::unit_ablation }),
        flags: &[],
        run: run_panels,
    },
    Experiment {
        name: "generality",
        panels: &[panel!("", "G1", "generality", "§1/§6: one unchanged PROP-G over six overlay families, structure preserved", generality::run)],
        unit: None,
        flags: &[],
        run: run_panels,
    },
    Experiment {
        name: "faults",
        panels: &[
            panel!("sweep", "F1", "faults_sweep", "PROP-G under loss × transit partition (message-level driver)", faults::sweep),
            panel!("recovery", "F2", "faults_recovery", "exchange rate across one transit partition and its heal", faults::recovery),
        ],
        unit: Some(Unit { experiment: SweepExperiment::Faults, panel: Some("sweep"), run: sweep::unit_faults }),
        flags: &[Flag::Traffic],
        run: run_faults,
    },
    Experiment {
        name: "traffic",
        panels: &[panel!("", "S4", "traffic_<scenario>_<driver>", "scripted production traffic (diurnal waves, flash crowds, regional churn) replayed on each driver")],
        unit: Some(Unit { experiment: SweepExperiment::Traffic, panel: Some("diurnal-regional"), run: sweep::unit_traffic }),
        flags: &[Flag::Scenario, Flag::Driver, Flag::MinDelivery, Flag::MaxStretch],
        run: run_traffic,
    },
    Experiment {
        name: "embed_agreement",
        panels: &[panel!("", "S3", "embed_agreement", "exchange decisions on the coordinate-embedded oracle tier vs the exact ones, plan by plan")],
        unit: Some(Unit { experiment: SweepExperiment::EmbedAgreement, panel: None, run: sweep::unit_embed_agreement }),
        flags: &[Flag::N, Flag::Samples, Flag::Floor],
        run: run_embed_agreement,
    },
    Experiment {
        name: "scale",
        panels: &[panel!("", "S1", "scale", "oracle query storm and PROP warm-up at 2,000 to 100,000 members under a 512 MiB cap (S5: `--n 1000000`)")],
        unit: None,
        flags: &[Flag::Tier, Flag::N, Flag::BudgetSecs],
        run: scale::run,
    },
];

/// The experiment `name` is the subcommand of.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// `prop list`: the index, one row per panel.
pub fn list() -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    let rows = EXPERIMENTS.iter().flat_map(|e| {
        e.panels.iter().map(move |p| {
            Value::Object(vec![
                ("id".to_string(), text(p.id)),
                ("experiment".to_string(), text(e.name)),
                ("panel".to_string(), text(if p.name.is_empty() { "-" } else { p.name })),
                ("writes".to_string(), text(&format!("results/{}.json", p.stem))),
                ("claim".to_string(), text(p.claim)),
            ])
        })
    });
    Value::Array(rows.collect())
}

impl Panel {
    /// What heads its report: `A1 — §4.3: …`.
    pub fn title(&self) -> String {
        format!("{} — {}", self.id, self.claim)
    }
}

impl Experiment {
    /// The names a panel argument can take (none for a one-panel experiment).
    pub fn panel_names(&self) -> Vec<&'static str> {
        self.panels.iter().map(|p| p.name).filter(|name| !name.is_empty()).collect()
    }

    /// Run this experiment as the command line asked: the sweep when
    /// `--seeds` was given, its single-seed `run` otherwise.
    pub fn execute(&self, args: &Args) -> Result<ExitCode, CliError> {
        match (args.seeds, self.unit) {
            (Some(seeds), Some(unit)) => {
                let cfg = SweepConfig::new(unit.experiment, args.scale, args.seed, seeds);
                Ok(sweep::run_cli(&cfg, &args.root, args.resume, &args.gates))
            }
            _ => (self.run)(self, args),
        }
    }
}

/// Run the requested panel, or all of them: print each report and write its
/// `results/<stem>.json`.
pub fn run_panels(exp: &Experiment, args: &Args) -> Result<ExitCode, CliError> {
    let wanted = |p: &&Panel| args.panel.as_deref().is_none_or(|name| name == p.name);
    for panel in exp.panels.iter().filter(wanted) {
        let run = panel.run.expect("an experiment run panel by panel has panel functions");
        let report = run(args.scale, args.seed);
        print_report(&panel.title(), &report);
        write_json(panel.stem, &report);
    }
    Ok(ExitCode::SUCCESS)
}

/// `fig6 --traffic FILE`: the workload follows the script's time-varying
/// popularity instead of the static uniform pair set.
fn run_fig6(exp: &Experiment, args: &Args) -> Result<ExitCode, CliError> {
    let Some(path) = &args.traffic else { return run_panels(exp, args) };
    let spec = traffic::load_script_or_scenario(path, args.scale, args.seed)?;
    let scenario = Scenario::build(traffic::topology_from_label(&spec.topology), spec.n, spec.seed);
    let (curve, overhead) = fig6::run_curve_scripted(
        &scenario,
        PropConfig::prop_g(),
        &spec.traffic,
        args.scale,
        format!("scripted:{}", spec.name),
    );
    let report = vec![curve].to_json();
    print_report("Fig. 6 — path stretch under scripted popularity", &report);
    let per_trial = msgs_per_trial(&overhead);
    println!("\noverhead: {} trials, {per_trial:.1} msgs/trial", overhead.trials);
    write_json("fig6_scripted", &report);
    Ok(ExitCode::SUCCESS)
}

/// `faults --traffic FILE`: replay the scenario bundle (its traffic script
/// composed with its fault script, if any) on the message-level driver.
fn run_faults(exp: &Experiment, args: &Args) -> Result<ExitCode, CliError> {
    let Some(path) = &args.traffic else { return run_panels(exp, args) };
    let spec = traffic::load_script_or_scenario(path, args.scale, args.seed)?;
    let run = traffic::run_scenario(&spec, TrafficDriver::Async, args.scale);
    print_traffic_run(&run);
    write_json(&format!("faults_traffic_{}", spec.name), &run);
    Ok(ExitCode::SUCCESS)
}

fn print_traffic_run(run: &TrafficRunReport) {
    println!("\n=== scenario {} on {} (seed {}) ===", run.scenario, run.driver, run.seed);
    println!("{}", run.report);
    println!(
        "plane emitted {} events ({} joins, {} leaves, {} lookups); \
         final link stretch {:.3}; connected throughout: {}",
        run.emitted.total(),
        run.emitted.joins,
        run.emitted.leaves,
        run.emitted.lookups,
        run.final_link_stretch,
        run.always_connected
    );
}

/// Replay a builtin scenario or a scenario file on each requested driver,
/// one `results/traffic_<scenario>_<driver>.json` per run; a violated
/// `--min-delivery` / `--max-stretch` gate fails the invocation.
fn run_traffic(_: &Experiment, args: &Args) -> Result<ExitCode, CliError> {
    let name = args.panel.as_deref().unwrap_or(traffic::BUILTIN_SCENARIOS[0]);
    let spec = if name.ends_with(".json") || name.contains('/') {
        traffic::load_script_or_scenario(name, args.scale, args.seed)?
    } else {
        traffic::builtin_scenario(name, args.scale, args.seed, None, None)?
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
    for &driver in &args.drivers {
        let run = traffic::run_scenario(&spec, driver, args.scale);
        print_traffic_run(&run);
        failures.extend(run.gate_failures(args.min_delivery, args.max_stretch));
        write_json(&format!("traffic_{}_{}", spec.name, driver.label()), &run);
    }
    for failure in &failures {
        eprintln!("GATE FAILED — {failure}");
    }
    Ok(if failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// One agreement run at `--n` members; fails below `--floor`.
fn run_embed_agreement(exp: &Experiment, args: &Args) -> Result<ExitCode, CliError> {
    let (n, samples) = match args.scale {
        Scale::Paper => (100_000, 2_000),
        Scale::Quick => (20_000, 1_000),
    };
    let report =
        embed_agreement::run(args.n.unwrap_or(n), args.samples.unwrap_or(samples), args.seed);
    let panel = &exp.panels[0];
    print_report(&panel.title(), &report.to_json());
    write_json(panel.stem, &report);
    if report.agreement_rate < args.floor {
        eprintln!(
            "EMBED AGREEMENT REGRESSION: rate {:.4} below floor {:.4}",
            report.agreement_rate, args.floor
        );
        return Ok(ExitCode::FAILURE);
    }
    println!("agreement floor passed ({:.4} >= {:.4})", report.agreement_rate, args.floor);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const README: &str = include_str!("../../../README.md");
    const DESIGN: &str = include_str!("../../../DESIGN.md");

    fn panels() -> impl Iterator<Item = (&'static Experiment, &'static Panel)> {
        EXPERIMENTS.iter().flat_map(|e| e.panels.iter().map(move |p| (e, p)))
    }

    #[test]
    fn names_ids_and_output_files_are_unique() {
        let names: BTreeSet<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        assert!(!names.contains("list"), "`prop list` is the index, not an experiment");
        let ids: BTreeSet<_> = panels().map(|(_, p)| p.id).collect();
        let stems: BTreeSet<_> = panels().map(|(_, p)| p.stem).collect();
        assert_eq!(ids.len(), panels().count(), "duplicate id");
        assert_eq!(stems.len(), panels().count(), "two panels write one file");
        for e in &EXPERIMENTS {
            assert!(!e.panels.is_empty(), "{}: no DESIGN §4 row", e.name);
            let named = e.panel_names();
            assert!(named.is_empty() || named.len() == e.panels.len(), "{}: unnamed panel", e.name);
            assert_eq!(named.iter().collect::<BTreeSet<_>>().len(), named.len(), "{}", e.name);
            for p in e.panels {
                assert!(p.stem.starts_with(e.name), "{}: {} is not its file", e.name, p.stem);
            }
            // A unit that is a panel (for `traffic`, a scenario) names one that exists.
            if let Some(panel) = e.unit.and_then(|u| u.panel) {
                let known = named.contains(&panel) || traffic::BUILTIN_SCENARIOS.contains(&panel);
                assert!(known, "{}: its unit is an unknown panel `{panel}`", e.name);
            }
        }
    }

    #[test]
    fn every_committed_result_is_a_registered_panels_output() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let stems: BTreeSet<_> = panels().map(|(_, p)| p.stem.to_string()).collect();
        let mut committed = 0;
        for entry in std::fs::read_dir(dir).expect("results/ is committed") {
            let path = entry.expect("readable directory entry").path();
            assert_eq!(path.extension().and_then(|ext| ext.to_str()), Some("json"), "{path:?}");
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("UTF-8 file name");
            assert!(stems.contains(stem), "results/{stem}.json has no registered panel");
            committed += 1;
        }
        assert_eq!(committed, 20, "results/*.json");
    }

    #[test]
    fn readme_and_design_mention_every_name_and_id() {
        for (doc, text) in [("README.md", README), ("DESIGN.md", DESIGN)] {
            let words: BTreeSet<&str> =
                text.split(|c: char| !c.is_alphanumeric() && c != '_').collect();
            for (e, p) in panels() {
                assert!(words.contains(e.name), "{doc} never names `{}`", e.name);
                assert!(words.contains(p.id), "{doc} never mentions {} ({})", p.id, p.stem);
            }
        }
    }

    #[test]
    fn list_is_one_row_per_panel() {
        let Value::Array(rows) = list() else { panic!("an array of rows") };
        assert_eq!(rows.len(), panels().count());
        for id in ["F5a", "F7", "A1", "A12", "G1", "F1", "F2", "S1", "S3", "S4"] {
            let row = rows.iter().find(|r| r.get("id") == Some(&Value::Str(id.into())));
            assert!(row.is_some(), "{id} missing from `prop list`");
        }
    }
}
