#!/usr/bin/env python3
"""Runs of the benchmark that need more than one process: the full set, the
traced set, the self-check and the seed spread. `run.sh` builds, then hands
over; the binaries and the output directory come in through the environment.

Every run is `prop-benchmark --workload W --seed N --seconds S --trace T` in a
process of its own, one at a time; this script only reads their output.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
OUT = Path(os.environ.get("PROP_BENCH_OUT", HERE / "out"))
REPS = 3


def run_once(workload, seed, seconds, traced):
    """One process; returns its parsed output or exits with its error."""
    binary = os.environ["PROP_BENCH_TRACED_BIN" if traced else "PROP_BENCH_BIN"]
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0", "--out", str(OUT)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output (exit {proc.returncode})")
    result = json.loads(lines[-1])
    info = {"passes": 0}
    for line in lines[:-1]:
        words = line.split()
        if not words:
            continue
        if words[0] == "count":
            info[words[1]] = int(words[2])
        elif words[0] == "digest":
            info["digest"] = words[1]
        elif words[0] == "workload":
            info["passes"] = int(words[words.index("passes") + 1])
    result.update(info)
    result["exit"] = proc.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0], values[0])
    return tuple(statistics.quantiles(values, n=4))


def machine():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "arch": platform.machine(), "threads": 1}


def worse_by(metric, a, b):
    """How much worse `b` is than `a`, as a share of `a` (negative = better)."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if END_TO_END[metric]["better"] == "lower" else -change


def run_set(seed, seconds, label):
    """Every workload REPS times. Returns {workload: summary}; summary carries
    per-metric medians, quartiles and samples, the digest, and what failed."""
    out = {}
    for w in WORKLOADS:
        reps = [run_once(w, seed, seconds, traced=False) for _ in range(REPS)]
        failures = []
        digests = {r.get("digest") for r in reps}
        if len(digests) != 1 or "disagree" in digests:
            failures.append(f"digests differ across reps: {sorted(map(str, digests))}")
        for r in reps:
            if not r["correct"] or r["exit"] != 0:
                failures.append(f"a rep failed: {r['failed']} of {r['attempted']} checks")
        metrics = {}
        for name, spec in END_TO_END.items():
            xs = [r["metrics"][name]["value"] for r in reps]
            q1, med, q3 = quartiles(xs)
            metrics[name] = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                             "n": len(xs), "samples": xs}
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        out[w] = {"metrics": metrics, "digest": reps[0].get("digest"),
                  "trials": reps[0].get("trials"), "exchanges": reps[0].get("exchanges"),
                  "passes": [r["passes"] for r in reps],
                  "fail_share": failed / max(attempted, 1), "failures": failures}
        print(f"[{label}] {w} (seed {seed}, {REPS} reps x {seconds} s, "
              f"passes {out[w]['passes']}, digest {out[w]['digest']})")
        for name, m in metrics.items():
            print(f"  {name:<14} {m['median']:>16.6f} {m['unit']:<6} "
                  f"q1 {m['q1']:.6f} q3 {m['q3']:.6f} n {m['n']}")
        print(f"  {'fail_share':<14} {out[w]['fail_share']:>16.6f} ratio")
        for f in failures:
            print(f"  FAILED: {f}")
    # The embed tier must decide every exchange as the exact tier does.
    a, b = out["scale_rowcache"], out["scale_embed"]
    if (a["trials"], a["exchanges"]) != (b["trials"], b["exchanges"]):
        msg = (f"scale_embed trials/exchanges {b['trials']}/{b['exchanges']} != "
               f"scale_rowcache {a['trials']}/{a['exchanges']}")
        b["failures"].append(msg)
        print(f"  FAILED: {msg}")
    return out


def failed(result_set):
    return [f"{w}: {f}" for w, s in result_set.items() for f in s["failures"]]


def cmd_full(args):
    results = run_set(args.seed, args.seconds, "full")
    OUT.mkdir(parents=True, exist_ok=True)
    report = {"seed": args.seed, "seconds": args.seconds, "reps": REPS, "machine": machine(),
              "workloads": results}
    (OUT / "results.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUT / 'results.json'}")
    problems = failed(results)
    if problems:
        sys.exit("\n".join(["output checks failed:"] + problems))


def cmd_trace(args):
    report = {"seed": args.seed, "seconds": args.seconds, "machine": machine(), "workloads": {}}
    problems = []
    for w in WORKLOADS:
        r = run_once(w, args.seed, args.seconds, traced=True)
        values = {k: v["value"] for k, v in r["metrics"].items()}
        report["workloads"][w] = {"per_layer": r["metrics"], "digest": r.get("digest"),
                                  "passes": r["passes"]}
        print(f"[trace] {w} (seed {args.seed}, passes {r['passes']}, digest {r.get('digest')})")
        for name, v in r["metrics"].items():
            print(f"  {name:<34} {v['value']:>18.6f} {v['unit']}")
        if not r["correct"] or r["exit"] != 0:
            problems.append(f"{w}: {r['failed']} of {r['attempted']} checks failed")
        wall = values["harness.traced_wall_s"]
        for name in ("harness.unattributed_s", "harness.glue_s"):
            if wall and values[name] > 0.05 * wall:
                problems.append(f"{w}: {name} is {values[name] / wall:.1%} of the run phase")
        if values["harness.trace_overhead_share"] > 0.05:
            problems.append(f"{w}: tracing costs {values['harness.trace_overhead_share']:.1%}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "per_layer.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUT / 'per_layer.json'} and {OUT}/trace-<workload>.jsonl")
    if problems:
        sys.exit("\n".join(["traced run failed:"] + problems))


def cmd_selfcheck(args):
    a = run_set(args.seed, args.seconds, "A")
    b = run_set(args.seed, args.seconds, "B")
    problems = failed(a) + failed(b)
    print("[selfcheck] set B against set A, by each metric's own bound")
    for w in WORKLOADS:
        for name, spec in END_TO_END.items():
            ma, mb = a[w]["metrics"][name]["median"], b[w]["metrics"][name]["median"]
            worse = worse_by(name, ma, mb)
            ok = worse <= spec["bound"]
            print(f"  {w:<15} {name:<14} A {ma:.6f} B {mb:.6f} worse by {worse:+.2%} "
                  f"(bound {spec['bound']:.0%}) {'ok' if ok else 'OUT OF BOUND'}")
            if not ok:
                problems.append(f"{w} {name}: B worse than A by {worse:.2%}")
        for key in ("digest", "trials", "exchanges"):
            if a[w][key] != b[w][key]:
                problems.append(f"{w}: {key} differs between sets: {a[w][key]} vs {b[w][key]}")
    # A second seed must change the inputs, and so the digest.
    w = WORKLOADS[0]
    other = run_once(w, args.seed + 1, args.seconds, traced=False)
    print(f"[selfcheck] {w} seed {args.seed} digest {a[w]['digest']}, "
          f"seed {args.seed + 1} digest {other.get('digest')}")
    if other.get("digest") == a[w]["digest"]:
        problems.append(f"{w}: --seed does not change the digest")
    if problems:
        sys.exit("\n".join(["selfcheck failed:"] + problems))
    print("selfcheck passed")


def cmd_spread(args):
    """The acceptance rule for the benchmark itself: ten seeds per workload,
    interquartile distance over median per end-to-end metric. Above the
    metric's bound fails; above a third of it is reported. `setup_s` is not
    gated."""
    problems = []
    for w in WORKLOADS:
        runs = [run_once(w, seed, args.seconds, traced=False)
                for seed in range(args.seed, args.seed + 10)]
        print(f"[spread] {w} seeds {args.seed}..{args.seed + 9}")
        for name, spec in END_TO_END.items():
            xs = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(xs)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = spec["bound"]
            if spread <= bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "above a third of the bound"
            else:
                verdict = "ABOVE THE BOUND"
                if name != "setup_s":
                    problems.append(f"{w} {name}: spread {spread:.2%} > {bound:.0%}")
            print(f"  {name:<14} median {med:.6f} spread {spread:.2%} "
                  f"(bound {bound:.0%}) {verdict}")
        if not all(r["correct"] for r in runs):
            problems.append(f"{w}: a run failed its checks")
    if problems:
        sys.exit("\n".join(["spread too wide:"] + problems))


def main():
    p = argparse.ArgumentParser(prog="run.sh")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--selfcheck", action="store_true")
    mode.add_argument("--spread", action="store_true")
    args = p.parse_args()
    if args.trace:
        cmd_trace(args)
    elif args.selfcheck:
        cmd_selfcheck(args)
    elif args.spread:
        cmd_spread(args)
    else:
        cmd_full(args)


if __name__ == "__main__":
    main()
