//! The command line: `prop <experiment> [panel] [flags]`, and `prop list`.
//!
//! One parser for every experiment. What an experiment accepts comes from
//! its [`registry`] entry; anything else — an unknown name, panel or flag,
//! a flag the experiment does not take, a missing or ill-typed value, a
//! combination that would silently do nothing — is a [`CliError`]: one line
//! and the experiment's usage on stderr, exit status 2.

use crate::registry::{self, Experiment};
use crate::report::print_report;
use crate::setup::Scale;
use crate::sweep::GateSpec;
use crate::traffic::{ScenarioError, TrafficDriver, BUILTIN_SCENARIOS};
use prop_netsim::Tier;
use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every flag there is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// Taken by every experiment.
    Quick,
    Seed,
    /// The sweep flags, taken by every experiment that has a unit.
    Seeds,
    Resume,
    Gate,
    Root,
    /// Taken by the experiments whose registry entry lists them.
    Traffic,
    Driver,
    MinDelivery,
    MaxStretch,
    N,
    Samples,
    Floor,
    Tier,
    BudgetSecs,
    /// Not spelt: the positional argument names a builtin scenario or a
    /// scenario file instead of a panel.
    Scenario,
}

/// `(flag, spelling, value placeholder — empty for a switch)`.
const SPELLINGS: [(Flag, &str, &str); 15] = [
    (Flag::Quick, "--quick", ""),
    (Flag::Seed, "--seed", "N"),
    (Flag::Seeds, "--seeds", "N"),
    (Flag::Resume, "--resume", ""),
    (Flag::Gate, "--gate", "METRIC=MAX_CI95"),
    (Flag::Root, "--root", "DIR"),
    (Flag::Traffic, "--traffic", "FILE.json"),
    (Flag::Driver, "--driver", "prop-g|prop-o|async|selfish|both|compare"),
    (Flag::MinDelivery, "--min-delivery", "RATE"),
    (Flag::MaxStretch, "--max-stretch", "X"),
    (Flag::N, "--n", "MEMBERS"),
    (Flag::Samples, "--samples", "N"),
    (Flag::Floor, "--floor", "RATE"),
    (Flag::Tier, "--oracle-tier", "auto|dense|cached|embedded"),
    (Flag::BudgetSecs, "--budget-secs", "S"),
];

/// The fewest members `--n` accepts: the experiments that take it build a
/// Gnutella overlay, whose seed clique is `links_per_join + 1` slots.
const MIN_MEMBERS: usize = 5;
const MEMBERS_EXPECTED: &str = "a member count ≥ 5";

/// A parsed invocation of one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// The panel to run (every panel when `None`); for `traffic`, the
    /// scenario.
    pub panel: Option<String>,
    pub scale: Scale,
    /// The seed — of a sweep, the base seed.
    pub seed: u64,
    /// `--seeds N`: run the experiment's unit as an N-seed sweep instead.
    pub seeds: Option<usize>,
    pub resume: bool,
    pub gates: Vec<GateSpec>,
    /// Where sweeps keep their state.
    pub root: PathBuf,
    /// `--traffic FILE`: a TrafficScript or scenario bundle to replay.
    pub traffic: Option<String>,
    pub drivers: Vec<TrafficDriver>,
    pub min_delivery: Option<f64>,
    pub max_stretch: Option<f64>,
    pub n: Option<usize>,
    pub samples: Option<usize>,
    pub floor: f64,
    pub oracle_tier: Tier,
    pub budget_secs: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            panel: None,
            scale: Scale::Paper,
            seed: 1,
            seeds: None,
            resume: false,
            gates: Vec::new(),
            root: PathBuf::from("results"),
            traffic: None,
            drivers: TrafficDriver::COMPARE.to_vec(),
            min_delivery: None,
            max_stretch: None,
            n: None,
            samples: None,
            floor: 0.99,
            oracle_tier: Tier::Auto,
            budget_secs: None,
        }
    }
}

/// Why an invocation was refused.
#[derive(Debug)]
pub enum CliError {
    UnknownExperiment(String),
    /// A positional argument that is not one of the experiment's panels.
    UnknownPanel {
        panel: String,
        known: Vec<&'static str>,
    },
    UnknownFlag(String),
    /// A flag of some other experiment.
    NotTaken {
        flag: String,
        experiment: &'static str,
    },
    /// A flag's value is missing (`value: None`) or not of its type.
    BadValue {
        flag: String,
        expected: &'static str,
        value: Option<String>,
    },
    /// An argument the run would silently ignore: a sweep flag without
    /// `--seeds`; beside `--seeds`, a panel the sweep's unit is not or a flag
    /// only the single-seed run reads; a panel beside `--traffic`.
    NoEffect {
        what: String,
        why: String,
    },
    Scenario(ScenarioError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownExperiment(name) => write!(f, "unknown experiment `{name}`"),
            CliError::UnknownPanel { panel, known } if known.is_empty() => {
                write!(f, "unexpected argument `{panel}`: there are no panels to choose from")
            }
            CliError::UnknownPanel { panel, known } => {
                write!(f, "unknown panel `{panel}` (known: {})", known.join(", "))
            }
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::NotTaken { flag, experiment } => {
                write!(f, "`{experiment}` does not take {flag}")
            }
            CliError::BadValue { flag, expected, value: None } => {
                write!(f, "{flag} needs {expected}")
            }
            CliError::BadValue { flag, expected, value: Some(value) } => {
                write!(f, "{flag} needs {expected}, got `{value}`")
            }
            CliError::NoEffect { what, why } => write!(f, "{what} has no effect: {why}"),
            CliError::Scenario(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ScenarioError> for CliError {
    fn from(e: ScenarioError) -> Self {
        CliError::Scenario(e)
    }
}

/// The value of `flag`: present, and accepted by `read`.
fn value<T>(
    flag: &str,
    raw: Option<&String>,
    expected: &'static str,
    read: impl Fn(&str) -> Option<T>,
) -> Result<T, CliError> {
    let bad = |value: Option<&String>| CliError::BadValue {
        flag: flag.to_string(),
        expected,
        value: value.cloned(),
    };
    let raw = raw.ok_or_else(|| bad(None))?;
    read(raw).ok_or_else(|| bad(Some(raw)))
}

/// Parse the arguments after the experiment's name.
pub fn parse(argv: &[String], exp: &Experiment) -> Result<Args, CliError> {
    let mut args = Args::default();
    // The first sweep-only flag and the first flag of the experiment's own,
    // as spelt, for the cross-checks after the loop.
    let (mut sweep_only, mut own) = (None, None);
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            let known = exp.panel_names();
            let accepted = exp.flags.contains(&Flag::Scenario) || known.contains(&arg.as_str());
            if !accepted || args.panel.is_some() {
                return Err(CliError::UnknownPanel { panel: arg.clone(), known });
            }
            args.panel = Some(arg.clone());
            continue;
        }
        let Some(&(flag, _, placeholder)) = SPELLINGS.iter().find(|(_, spelt, _)| spelt == arg)
        else {
            return Err(CliError::UnknownFlag(arg.clone()));
        };
        let taken = match flag {
            Flag::Quick | Flag::Seed => true,
            Flag::Seeds => exp.unit.is_some(),
            Flag::Resume | Flag::Gate | Flag::Root => {
                sweep_only.get_or_insert(arg);
                exp.unit.is_some()
            }
            _ => {
                own.get_or_insert(arg);
                exp.flags.contains(&flag)
            }
        };
        if !taken {
            return Err(CliError::NotTaken { flag: arg.clone(), experiment: exp.name });
        }
        // A flag's value is the argument after it, whatever that looks like.
        let raw = if placeholder.is_empty() { None } else { rest.next() };
        let at_least = |min: usize| move |s: &str| s.parse::<usize>().ok().filter(|&n| n >= min);
        let count = at_least(1);
        let number = |s: &str| s.parse::<f64>().ok().filter(|x| x.is_finite());
        let text = |s: &str| Some(s.to_string());
        match flag {
            Flag::Quick => args.scale = Scale::Quick,
            Flag::Resume => args.resume = true,
            Flag::Seed => args.seed = value(arg, raw, "an integer", |s| s.parse().ok())?,
            Flag::Seeds => args.seeds = Some(value(arg, raw, "a seed count ≥ 1", count)?),
            Flag::Gate => args.gates.push(value(arg, raw, "METRIC=MAX_CI95", GateSpec::parse)?),
            Flag::Root => args.root = value(arg, raw, "a directory", text)?.into(),
            Flag::Traffic => args.traffic = Some(value(arg, raw, "a JSON file", text)?),
            Flag::Driver => {
                let expected = "one of prop-g, prop-o, async, selfish, both, compare";
                args.drivers = value(arg, raw, expected, TrafficDriver::parse_set)?
            }
            Flag::MinDelivery => args.min_delivery = Some(value(arg, raw, "a number", number)?),
            Flag::MaxStretch => args.max_stretch = Some(value(arg, raw, "a number", number)?),
            Flag::N => args.n = Some(value(arg, raw, MEMBERS_EXPECTED, at_least(MIN_MEMBERS))?),
            Flag::Samples => args.samples = Some(value(arg, raw, "a count ≥ 1", count)?),
            Flag::Floor => args.floor = value(arg, raw, "a number", number)?,
            Flag::Tier => {
                let expected = "one of auto, dense, cached, embedded";
                args.oracle_tier = value(arg, raw, expected, Tier::parse)?
            }
            Flag::BudgetSecs => {
                args.budget_secs = Some(value(arg, raw, "whole seconds", |s| s.parse().ok())?)
            }
            Flag::Scenario => unreachable!("the scenario argument has no spelling"),
        }
    }

    // Everything parses; refuse what the run would silently ignore.
    let ignored = match (args.seeds.and(exp.unit), &args.panel, own, sweep_only) {
        (Some(unit), Some(panel), ..) if unit.panel != Some(panel.as_str()) => {
            let unit =
                unit.panel.map_or("its representative run".to_string(), |p| format!("`{p}`"));
            Some((format!("`{panel}`"), format!("--seeds N repeats {unit}")))
        }
        (Some(_), _, Some(flag), _) => {
            Some((flag.clone(), "a sweep repeats its unit as it is".into()))
        }
        (None, _, _, Some(flag)) => {
            Some((flag.clone(), "it configures a sweep (--seeds N)".into()))
        }
        (_, Some(panel), ..) if args.traffic.is_some() => {
            Some((format!("`{panel}`"), "--traffic replaces the panels".into()))
        }
        _ => None,
    };
    match ignored {
        Some((what, why)) => Err(CliError::NoEffect { what, why }),
        None => Ok(args),
    }
}

/// One experiment's usage line, from its registry entry.
pub fn usage(exp: &Experiment) -> String {
    let mut line = format!("usage: prop {}", exp.name);
    if exp.flags.contains(&Flag::Scenario) {
        line += &format!(" [{}|FILE.json]", BUILTIN_SCENARIOS.join("|"));
    } else if !exp.panel_names().is_empty() {
        line += &format!(" [{}]", exp.panel_names().join("|"));
    }
    line += " [--quick] [--seed N]";
    for (_, spelt, placeholder) in SPELLINGS.iter().filter(|(flag, ..)| exp.flags.contains(flag)) {
        line += &format!(" [{}]", format!("{spelt} {placeholder}").trim_end());
    }
    if exp.unit.is_some() {
        line += " [--seeds N [--resume] [--gate METRIC=MAX_CI95]... [--root DIR]]";
    }
    line
}

/// `prop`'s whole `main`: run what `argv` (without the program name) asks
/// for and turn the outcome into an exit status — 2 for a refused
/// invocation, 1 for a failed gate or sweep.
pub fn main(argv: &[String]) -> ExitCode {
    let names: Vec<&str> = registry::EXPERIMENTS.iter().map(|e| e.name).collect();
    let general = format!("usage: prop <{}> [panel] [flags]\n       prop list", names.join("|"));
    let Some((name, rest)) = argv.split_first() else {
        eprintln!("{general}");
        return ExitCode::from(2);
    };
    if name == "list" && rest.is_empty() {
        print_report("prop <experiment> [panel] [flags] — the index", &registry::list());
        return ExitCode::SUCCESS;
    }
    let outcome = match registry::find(name) {
        Some(exp) => {
            parse(rest, exp).and_then(|args| exp.execute(&args)).map_err(|e| (e, usage(exp)))
        }
        None => Err((CliError::UnknownExperiment(name.clone()), general)),
    };
    outcome.unwrap_or_else(|(error, usage)| {
        eprintln!("prop {name}: {error}\n{usage}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let (name, rest) = argv.split_first().expect("an experiment name");
        parse(rest, registry::find(name).ok_or(CliError::UnknownExperiment(name.clone()))?)
    }

    /// Every row exits 0 without doing what was asked, or panics, on the ten
    /// binaries this parser replaced.
    #[test]
    fn refused_invocations() {
        let rows = [
            // Ran nothing, exit 0.
            ("fig5 z", "unknown panel `z` (known: a, b, c)"),
            ("ablation bogus", "unknown panel `bogus` (known: overhead, churn, combine, selfish, selection, warmup, waxman, custody, threshold, ltmcap, zipf, floodcost)"),
            ("faults nope", "unknown panel `nope` (known: sweep, recovery)"),
            ("generality a b", "unexpected argument `a`: there are no panels to choose from"),
            ("fig5 a b", "unknown panel `b` (known: a, b, c)"),
            // Ran something other than what was asked, exit 0.
            ("generality --seeds 3", "`generality` does not take --seeds"),
            ("fig7 --traffic x.json", "`fig7` does not take --traffic"),
            ("scale --samples 5", "`scale` does not take --samples"),
            ("ablation churn --seeds 4", "`churn` has no effect: --seeds N repeats `overhead`"),
            ("fig5 a --seeds 2", "`a` has no effect: --seeds N repeats its representative run"),
            ("traffic flash-crowd --seeds 2", "`flash-crowd` has no effect: --seeds N repeats `diurnal-regional`"),
            ("traffic --seeds 2 --driver both", "--driver has no effect: a sweep repeats its unit as it is"),
            ("embed_agreement --seeds 2 --n 500", "--n has no effect: a sweep repeats its unit as it is"),
            ("fig6 a --traffic x.json", "`a` has no effect: --traffic replaces the panels"),
            ("scale --million", "unknown flag --million"),
            // Panicked with a backtrace.
            ("fig5 --frobnicate", "unknown flag --frobnicate"),
            ("fig6 --experiment fig6", "unknown flag --experiment"),
            ("sweep --experiment fig6", "unknown experiment `sweep`"),
            ("fig5 --seed x", "--seed needs an integer, got `x`"),
            ("fig5 --seed", "--seed needs an integer"),
            ("fig6 --seeds 0", "--seeds needs a seed count ≥ 1, got `0`"),
            ("fig6 --seeds 2 --gate nope", "--gate needs METRIC=MAX_CI95, got `nope`"),
            ("scale --oracle-tier warp", "--oracle-tier needs one of auto, dense, cached, embedded, got `warp`"),
            ("scale --n -3", "--n needs a member count ≥ 5, got `-3`"),
            ("scale --n 0", "--n needs a member count ≥ 5, got `0`"),
            // Printed half a report, then panicked in `Gnutella::build`.
            ("scale --quick --n 3", "--n needs a member count ≥ 5, got `3`"),
            ("embed_agreement --quick --n 4 --samples 5", "--n needs a member count ≥ 5, got `4`"),
            ("traffic --driver nope", "--driver needs one of prop-g, prop-o, async, selfish, both, compare, got `nope`"),
            ("traffic --min-delivery lots", "--min-delivery needs a number, got `lots`"),
            ("embed_agreement --floor", "--floor needs a number"),
            ("fig5 --resume", "--resume has no effect: it configures a sweep (--seeds N)"),
            ("fig6 --gate stretch_final=1", "--gate has no effect: it configures a sweep (--seeds N)"),
            ("faults --root elsewhere", "--root has no effect: it configures a sweep (--seeds N)"),
        ];
        for (line, expected) in rows {
            match parse_line(line) {
                Err(e) => assert_eq!(e.to_string(), expected, "`prop {line}`: {e:?}"),
                Ok(args) => panic!("`prop {line}` was accepted: {args:?}"),
            }
        }
        // The floor on `--n` is the smallest overlay `Gnutella::build` accepts.
        let links = prop_overlay::gnutella::GnutellaParams::default().links_per_join;
        assert_eq!(MIN_MEMBERS, links + 1);
        assert!(MEMBERS_EXPECTED.ends_with(&format!("≥ {MIN_MEMBERS}")), "{MEMBERS_EXPECTED}");
        assert!(parse_line("scale --quick --n 5").is_ok());
    }

    #[test]
    fn an_unknown_builtin_scenario_is_refused_before_anything_runs() {
        let traffic = registry::find("traffic").unwrap();
        let args = parse_line("traffic bogus").expect("any name may be a scenario");
        match traffic.execute(&args) {
            Err(e @ CliError::Scenario(ScenarioError::UnknownBuiltin(_))) => {
                assert_eq!(
                    e.to_string(),
                    "unknown builtin scenario \"bogus\" (known: diurnal-regional, flash-crowd)"
                );
            }
            other => panic!("expected an unknown-scenario error, got {other:?}"),
        }
        let missing = parse_line("fig6 --quick --traffic /nonexistent/script.json").unwrap();
        let outcome = registry::find("fig6").unwrap().execute(&missing);
        assert!(matches!(outcome, Err(CliError::Scenario(ScenarioError::Read { .. }))));
    }

    /// What CI and the test suite run, one line per experiment and flag.
    #[test]
    fn ci_invocations_parse_to_what_they_say() {
        let quick = || Args { scale: Scale::Quick, ..Args::default() };
        let gate = |metric: &str, max_ci95| GateSpec { metric: metric.to_string(), max_ci95 };
        let rows = [
            ("fig5 a --seed 1", Args { panel: Some("a".into()), ..Args::default() }),
            ("fig5 --quick --seed 7", Args { seed: 7, ..quick() }),
            (
                "fig6 --quick --seeds 8 --gate stretch_final=0.75 --gate overhead_msgs_per_trial=1.5",
                Args {
                    seeds: Some(8),
                    gates: vec![gate("stretch_final", 0.75), gate("overhead_msgs_per_trial", 1.5)],
                    ..quick()
                },
            ),
            (
                "fig6 --quick --traffic examples/flash_crowd.json",
                Args { traffic: Some("examples/flash_crowd.json".into()), ..quick() },
            ),
            ("fig7 --quick --seed 1", quick()),
            (
                "ablation overhead --seeds 4 --resume --root /tmp/sweeps",
                Args {
                    panel: Some("overhead".into()),
                    seeds: Some(4),
                    resume: true,
                    root: "/tmp/sweeps".into(),
                    ..Args::default()
                },
            ),
            ("generality --quick", quick()),
            ("faults --quick --seed 1", quick()),
            (
                "traffic diurnal-regional --quick --min-delivery 0.9 --max-stretch 10",
                Args {
                    panel: Some("diurnal-regional".into()),
                    min_delivery: Some(0.9),
                    max_stretch: Some(10.0),
                    ..quick()
                },
            ),
            (
                "traffic flash-crowd --quick --driver both --min-delivery 0.9 --max-stretch 10",
                Args {
                    panel: Some("flash-crowd".into()),
                    drivers: vec![TrafficDriver::PropO, TrafficDriver::Async],
                    min_delivery: Some(0.9),
                    max_stretch: Some(10.0),
                    ..quick()
                },
            ),
            ("traffic diurnal-regional --seeds 2", Args {
                panel: Some("diurnal-regional".into()),
                seeds: Some(2),
                ..Args::default()
            }),
            (
                "embed_agreement --quick --seed 1 --floor 0.99 --n 2000 --samples 200",
                Args { n: Some(2000), samples: Some(200), floor: 0.99, ..quick() },
            ),
            (
                "scale --quick --n 100000 --budget-secs 120 --seed 1 --oracle-tier embedded",
                Args {
                    n: Some(100_000),
                    budget_secs: Some(120),
                    oracle_tier: Tier::Embedded,
                    ..quick()
                },
            ),
        ];
        for (line, expected) in rows {
            assert_eq!(parse_line(line).unwrap_or_else(|e| panic!("`prop {line}`: {e}")), expected);
        }
        // Flag order never matters.
        assert_eq!(
            parse_line("fig5 --seed 7 --quick a").unwrap(),
            parse_line("fig5 a --quick --seed 7").unwrap()
        );
    }

    #[test]
    fn usage_lists_what_the_registry_entry_takes() {
        let usage_of = |name| usage(registry::find(name).unwrap());
        assert_eq!(usage_of("generality"), "usage: prop generality [--quick] [--seed N]");
        assert_eq!(
            usage_of("faults"),
            "usage: prop faults [sweep|recovery] [--quick] [--seed N] [--traffic FILE.json] \
             [--seeds N [--resume] [--gate METRIC=MAX_CI95]... [--root DIR]]"
        );
        assert_eq!(
            usage_of("scale"),
            "usage: prop scale [--quick] [--seed N] [--n MEMBERS] \
             [--oracle-tier auto|dense|cached|embedded] [--budget-secs S]"
        );
        assert!(usage_of("traffic")
            .starts_with("usage: prop traffic [diurnal-regional|flash-crowd|FILE.json] "));
        // Fifteen flags in all, and every one some experiment takes.
        for (flag, spelt, _) in SPELLINGS {
            let taken =
                registry::EXPERIMENTS.iter().any(|e| usage(e).contains(&format!("[{spelt}")));
            assert!(taken, "{flag:?} ({spelt}) is taken by no experiment");
        }
    }
}
