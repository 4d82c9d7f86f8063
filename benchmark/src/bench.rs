//! One run of one workload: passes until the time is up, then medians.
//!
//! A pass is the whole workload — set-up then run — from the same seed, so
//! every pass of a run must produce the same counts and the same digest; the
//! host times differ and the run reports their medians. End-to-end times are
//! in reference-speed seconds (see [`crate::refclock`]); per-layer times are
//! raw. A traced run records spans on every other pass (the difference
//! between the two kinds of pass is the tracing overhead) and ends with the
//! probes.

use crate::outcome::Outcome;
use crate::refclock::NOMINAL_MS;
use crate::trace::{Kind, Stat, Tracer, KIND_COUNT};
use crate::{churn, fig5, probes, scale, sweep};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 5] =
    ["fig5_flood", "driver_sweep", "churn_storm", "scale_rowcache", "scale_embed"];

/// End-to-end metrics, printed by an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("quality_ratio", "ratio"),
];

/// Per-layer metrics, printed by a traced run: name and unit. A metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("netsim.topo_s", "s"),
    ("netsim.oracle_build_s", "s"),
    ("overlay.build_s", "s"),
    ("workloads.compile_s", "s"),
    ("faults.compile_s", "s"),
    ("core.sim_new_s", "s"),
    ("netsim.rows_computed", "count"),
    ("netsim.rows_computed_driver", "count"),
    ("netsim.row_hit_rate", "ratio"),
    ("netsim.row_evictions", "count"),
    ("netsim.row_ms", "ms"),
    ("netsim.peak_cache_mib", "MiB"),
    ("netsim.warm_rows_s", "s"),
    ("netsim.d_ns", "ns"),
    ("netsim.embed_escalation_rate", "ratio"),
    ("netsim.embed_exact_share", "ratio"),
    ("core.driver_s", "s"),
    ("core.trials", "count"),
    ("core.exchanges", "count"),
    ("core.exchange_rate", "ratio"),
    ("core.msgs_per_trial", "count"),
    ("core.ns_per_trial", "ns"),
    ("core.ns_per_trial.chord_g", "ns"),
    ("core.ns_per_trial.gn_g", "ns"),
    ("core.ns_per_trial.gn_o", "ns"),
    ("core.ns_per_trial.gn_o_async", "ns"),
    ("core.exchange_rate.chord_g", "ratio"),
    ("core.exchange_rate.gn_g", "ratio"),
    ("core.exchange_rate.gn_o", "ratio"),
    ("core.exchange_rate.gn_o_async", "ratio"),
    ("core.msgs_per_trial.chord_g", "count"),
    ("core.msgs_per_trial.gn_g", "count"),
    ("core.msgs_per_trial.gn_o", "count"),
    ("core.msgs_per_trial.gn_o_async", "count"),
    ("core.walk_ns", "ns"),
    ("core.plan_ns", "ns"),
    ("core.decide_ns", "ns"),
    ("core.apply_ns", "ns"),
    ("core.trial_residual_ns", "ns"),
    ("core.churn_handle_us", "us"),
    ("overlay.churn_apply_us", "us"),
    ("core.allocs_per_trial", "count"),
    ("engine.queue_ns", "ns"),
    ("engine.rng_ns", "ns"),
    ("metrics.measure_s", "s"),
    ("metrics.lookups", "count"),
    ("metrics.us_per_lookup", "us"),
    ("metrics.lookups_per_s", "1/s"),
    ("metrics.pairs_skipped", "count"),
    ("metrics.stretch_pass_s", "s"),
    ("overlay.flood_edges_per_lookup", "count"),
    ("overlay.flood_pushes_per_lookup", "count"),
    ("overlay.connectivity_s", "s"),
    ("faults.rulings", "count"),
    ("faults.drop_rate", "ratio"),
    ("workloads.events", "count"),
    ("workloads.churn_applied", "count"),
    ("workloads.suppressed", "count"),
    ("harness.glue_s", "s"),
    ("harness.unattributed_s", "s"),
    ("harness.trace_overhead_share", "ratio"),
    ("harness.traced_wall_s", "s"),
    ("harness.untraced_wall_s", "s"),
    ("harness.passes", "count"),
    ("harness.spans_per_pass", "count"),
    ("harness.probe_s", "s"),
    ("harness.reference_s", "s"),
];

/// A run needs two passes to compare digests. A traced run alternates
/// recorded and unrecorded passes and ends on a recorded one, so it makes at
/// least three.
const MIN_PASSES: usize = 2;

pub fn run_pass(workload: &str, seed: u64, tr: &mut Tracer) -> Option<Outcome> {
    Some(match workload {
        "fig5_flood" => fig5::pass(&fig5::Params::bench(), seed, tr),
        "driver_sweep" => sweep::pass(&sweep::Params::bench(), seed, tr),
        "churn_storm" => churn::pass(&churn::Params::bench(), seed, tr),
        "scale_rowcache" => scale::pass(&scale::Params::bench(false), seed, tr),
        "scale_embed" => scale::pass(&scale::Params::bench(true), seed, tr),
        _ => return None,
    })
}

/// Per-metric samples, one per pass.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The value a run reports for a metric: the median over its passes.
    /// (Simulated quantities are the same on every pass anyway.)
    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The passes' digest when they all agree.
    pub digest: Option<u64>,
    pub trials: u64,
    pub exchanges: u64,
    pub samples: Samples,
    /// Every reading of the reference kernel, in milliseconds.
    pub reference_ms: Vec<f64>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.digest.is_some()
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn per_layer(samples: &mut Samples, o: &Outcome, stats: &[Stat; KIND_COUNT], driver_allocs: u64) {
    let st = |k: Kind| stats[k as usize];
    let per_call_us = |k: Kind| match st(k).calls {
        0 => 0.0,
        calls => st(k).self_ns as f64 / calls as f64 / 1e3,
    };
    let trials = o.trials.max(1) as f64;
    let driver_s = st(Kind::Driver).self_s();
    let lookup_s = st(Kind::LookupLatency).incl_s() + st(Kind::PathStretch).incl_s();
    let mut put = |name: &str, v: f64| samples.push(name, v);

    put("netsim.topo_s", st(Kind::Topo).self_s());
    put("netsim.oracle_build_s", st(Kind::OracleBuild).self_s());
    put("overlay.build_s", st(Kind::OverlayBuild).self_s());
    put("workloads.compile_s", st(Kind::TrafficCompile).self_s() + st(Kind::PairGen).self_s());
    put("faults.compile_s", st(Kind::FaultCompile).self_s());
    put("core.sim_new_s", st(Kind::SimNew).self_s());
    put("netsim.warm_rows_s", st(Kind::WarmRows).self_s());
    put("core.driver_s", driver_s);
    put("core.trials", o.trials as f64);
    put("core.exchanges", o.exchanges as f64);
    put("core.exchange_rate", o.exchanges as f64 / trials);
    put("core.msgs_per_trial", o.msgs as f64 / trials);
    put("core.ns_per_trial", driver_s * 1e9 / trials);
    put("core.allocs_per_trial", driver_allocs as f64 / trials);
    put("core.churn_handle_us", per_call_us(Kind::ChurnHandle));
    put("overlay.churn_apply_us", per_call_us(Kind::ChurnApply));
    put("overlay.connectivity_s", st(Kind::Connectivity).self_s());
    put("metrics.measure_s", lookup_s + st(Kind::LinkStretch).incl_s());
    put("metrics.lookups", o.lookups as f64);
    if o.lookups > 0 {
        put("metrics.us_per_lookup", lookup_s * 1e6 / o.lookups as f64);
        put("metrics.lookups_per_s", o.lookups as f64 / lookup_s);
    }
    if st(Kind::LinkStretch).calls > 0 {
        let link = st(Kind::LinkStretch);
        put("metrics.stretch_pass_s", link.incl_s() / link.calls as f64);
    }
    put("harness.glue_s", st(Kind::Glue).self_s() + st(Kind::Check).self_s());
    // Time inside the run phase that no span claims.
    put("harness.unattributed_s", st(Kind::Run).self_s());
    put("harness.reference_s", st(Kind::Reference).self_s());
    for (name, v) in &o.counters {
        put(name, *v);
    }
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_path: Option<&std::path::Path>,
) -> Option<RunResult> {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut tr = Tracer::new(false);
    let mut samples = Samples::default();
    let mut digests: Vec<u64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut passes = 0usize;
    let mut longest_pass = Duration::ZERO;
    let last = loop {
        let pass_start = Instant::now();
        // A traced run records every other pass, starting with the first.
        let record = traced && passes.is_multiple_of(2);
        if traced {
            tr.set_recording(record);
        }
        let before = tr.total(Kind::Driver);
        let o = run_pass(workload, seed, &mut tr)?;
        let after = tr.total(Kind::Driver);
        passes += 1;
        attempted += o.checks.attempted;
        failed += o.checks.failed;
        digests.push(o.digest);

        if !traced {
            let driver_s = o.run.scale((after.ns - before.ns) as f64 * 1e-9);
            samples.push("wall_s", o.run.ref_s);
            samples.push("setup_s", o.setup.ref_s);
            samples.push("trials_per_s", o.trials as f64 / driver_s);
            samples.push("quality_ratio", o.quality_ratio());
            samples.push("raw.wall_s", o.run.raw_s);
            samples.push("raw.setup_s", o.setup.raw_s);
        } else if record {
            per_layer(&mut samples, &o, &tr.stats(), after.allocs - before.allocs);
            samples.push("harness.traced_wall_s", o.run.raw_s);
            samples.push("harness.spans_per_pass", tr.spans().len() as f64);
        } else {
            samples.push("harness.untraced_wall_s", o.run.raw_s);
        }
        // Stop rather than start a pass that would overrun the budget. A
        // traced run ends on a recorded pass: its spans are the trace file.
        longest_pass = longest_pass.max(pass_start.elapsed());
        let time_up = passes >= MIN_PASSES && start.elapsed() + longest_pass > budget;
        if time_up && (!traced || record) {
            break o;
        }
    };
    let (trials, exchanges) = (last.trials, last.exchanges);

    if traced {
        let mut o = last;
        if let Some(path) = trace_path {
            if let Err(e) = tr.write_jsonl(path, workload) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
        let t = Instant::now();
        for (name, v) in probes::run(&mut o.last, seed) {
            samples.push(&name, v);
        }
        samples.push("harness.probe_s", t.elapsed().as_secs_f64());
        samples.push("harness.passes", passes as f64);
        // Fastest recorded pass against fastest unrecorded one, over equally
        // many of each: the run ends on a recorded pass, and a minimum over
        // one more sample would read as a speed-up.
        let fastest = |xs: &[f64]| xs.iter().copied().reduce(f64::min);
        let without = samples.get("harness.untraced_wall_s");
        let with = &samples.get("harness.traced_wall_s")[..without.len()];
        if let (Some(with), Some(without)) = (fastest(with), fastest(without)) {
            samples.push("harness.trace_overhead_share", with / without - 1.0);
        }
        // What a trial costs beyond the steps the probes price, for the
        // driver whose final overlay was probed; an exchange is applied only
        // on the trials that end in one. Negative when the probes — random
        // origins, cold caches, the run's last and best-optimised state —
        // price a step above its average cost inside the loop.
        let of_driver = |name: &str| match o.last.variant {
            Some(v) => samples.median(&format!("{name}.{v}")),
            None => samples.median(name),
        };
        let priced = samples.median("core.walk_ns")
            + samples.median("core.plan_ns")
            + samples.median("core.decide_ns")
            + of_driver("core.exchange_rate") * samples.median("core.apply_ns")
            + samples.median("engine.queue_ns");
        samples.push("core.trial_residual_ns", of_driver("core.ns_per_trial") - priced);
    } else {
        samples.push("peak_rss_mib", peak_rss_mib());
    }

    let agreed = digests.windows(2).all(|w| w[0] == w[1]);
    if !agreed {
        eprintln!("CHECK FAILED: passes of one seed disagree: digests {digests:016x?}");
    }
    Some(RunResult {
        workload: workload.to_string(),
        seed,
        traced,
        passes,
        attempted,
        failed,
        digest: agreed.then(|| digests[0]),
        trials,
        exchanges,
        samples,
        reference_ms: tr.reference_readings().to_vec(),
    })
}

impl RunResult {
    fn metric_table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Every metric by name: the reported value (the passes' median) with
    /// its unit, then the passes' lowest, highest and count.
    pub fn print_human(&self) {
        println!(
            "workload {} seed {} trace {} passes {}",
            self.workload, self.seed, self.traced as u8, self.passes
        );
        for &(name, unit) in self.metric_table() {
            let xs = self.samples.get(name);
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "metric {name} {:.6} {unit} min {lo:.6} max {hi:.6} n {}",
                self.samples.median(name),
                xs.len()
            );
        }
        if !self.traced {
            // What the reference-speed seconds above were on the wall clock.
            for name in ["raw.wall_s", "raw.setup_s"] {
                println!("{name} median {:.6} s", self.samples.median(name));
            }
            println!(
                "reference kernel median {:.4} ms over {} readings (nominal {NOMINAL_MS} ms)",
                median(&self.reference_ms),
                self.reference_ms.len()
            );
        }
        println!("count trials {}", self.trials);
        println!("count exchanges {}", self.exchanges);
        match self.digest {
            Some(d) => println!("digest {d:016x}"),
            None => println!("digest disagree"),
        }
        println!(
            "fail_share {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }

    /// The result line the driver reads.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metric_table()
            .iter()
            .map(|&(name, unit)| {
                let v = self.samples.median(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|&(n, _)| n).collect();
        names.extend(WORKLOADS);
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| {
            let from = spec.find(&format!("\"{key}\":")).expect(key);
            let to = if next.is_empty() { spec.len() } else { spec.find(next).expect(next) };
            spec[from..to].to_string()
        };
        let check = |text: String, names: Vec<(&str, &str)>| {
            assert_eq!(text.matches("\"name\":").count(), names.len());
            for (name, unit) in names {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        };
        check(section("end_to_end", "\"per_layer\":"), END_TO_END.to_vec());
        check(section("per_layer", ""), PER_LAYER.to_vec());
        let workloads = section("workloads", "\"end_to_end\":");
        assert_eq!(workloads.matches("\"name\":").count(), WORKLOADS.len());
        for w in WORKLOADS {
            assert!(workloads.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
