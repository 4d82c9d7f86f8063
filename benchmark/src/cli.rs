//! Argument handling shared by the two binaries.

use crate::bench::{self, WORKLOADS};
use crate::fig5;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: prop-benchmark --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--out DIR]\n       prop-benchmark --verify-ref";

/// `results/fig5a.json`, curve "n=1000, nhops=2": first and last sample.
const REF_T0_MS: f64 = 1086.9950000000035;
const REF_FINAL_MS: f64 = 650.6074999999998;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    verify_ref: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        verify_ref: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && (0.0..=600.0).contains(&a.seconds)) {
                    return Err("--seconds must be between 0 and 600".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--verify-ref" => a.verify_ref = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Replay Figure 5(a)'s `nhops = 2` curve (seed 1, n = 1000, ts-large) and
/// report the distance from the committed `results/fig5a.json`. Recorded,
/// not gating: zero (to the JSON's float printing) means the stand-in RNG
/// crates reproduce the streams the committed results were generated with.
fn verify_ref() -> ExitCode {
    let mut tr = Tracer::new(false);
    let o = fig5::pass(&fig5::Params::reference(), 1, &mut tr);
    let (t0, last) = (o.quality[0], *o.quality.last().expect("13 samples"));
    let (err_t0, err_final) = ((t0 - REF_T0_MS).abs(), (last - REF_FINAL_MS).abs());
    println!("fig5a nhops=2 seed 1: {t0} ms -> {last} ms over {} samples", o.quality.len());
    println!("metric ref_error_t0 {err_t0} ms");
    println!("metric ref_error_final {err_final} ms");
    if err_t0.max(err_final) < 1e-6 {
        println!("validated against results/fig5a.json");
    } else {
        println!("unvalidated against results/: the replay differs from results/fig5a.json");
    }
    ExitCode::SUCCESS
}

pub fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.verify_ref {
        return verify_ref();
    }
    let Some(workload) = args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if args.trace && !prop_engine::counting_active() {
        eprintln!("note: this binary does not count allocations; core.allocs_per_trial reads 0");
    }
    let trace_path = args.trace.then(|| args.out.join(format!("trace-{workload}.jsonl")));
    let Some(result) =
        bench::run(&workload, args.seed, args.seconds, args.trace, trace_path.as_deref())
    else {
        eprintln!("unknown workload {workload}; one of: {}", WORKLOADS.join(" "));
        return ExitCode::from(2);
    };
    result.print_human();
    println!("{}", result.json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
