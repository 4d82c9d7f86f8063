#!/usr/bin/env bash
# The benchmark's one command. Builds offline against shims/, then:
#
#   run.sh [--seed N]            every workload 3x, each in its own process;
#                                prints every end-to-end metric, checks outputs
#   run.sh --trace [--seed N]    the separate traced run: per-layer metrics,
#                                out/trace-<workload>.jsonl
#   run.sh --selfcheck           the full set twice; fails unless B is within
#                                each metric's bound of A and digests are equal
#   run.sh --spread              ten seeds per workload; quartile spread of
#                                each end-to-end metric against its bound
#   run.sh --verify-ref          replay fig5(a) against results/fig5a.json
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                one run; the last line of stdout is the result
#                                object (this is BENCHMARK.json's command)
#
# Run it from the repository root or from anywhere: paths are taken from the
# script's own location.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR is relative to where the caller stands, not to
# benchmark/, where cargo must run for .cargo/config.toml to apply.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout is the benchmark's.
(cd "$here" && cargo build --release --offline --quiet) >&2

export PROP_BENCH_BIN="$target/release/prop-benchmark"
export PROP_BENCH_TRACED_BIN="$target/release/prop-benchmark-traced"
export PROP_BENCH_OUT="$here/out"

mode=suite
traced=0
prev=
for arg in "$@"; do
    case "$arg" in
    --workload) mode=single ;;
    --verify-ref) mode=verify ;;
    esac
    if [ "$prev" = "--trace" ] && [ "$arg" = 1 ]; then
        traced=1
    fi
    prev="$arg"
done

case "$mode" in
single)
    bin="$PROP_BENCH_BIN"
    if [ "$traced" = 1 ]; then
        bin="$PROP_BENCH_TRACED_BIN"
    fi
    exec "$bin" "$@" --out "$PROP_BENCH_OUT"
    ;;
verify)
    exec "$PROP_BENCH_BIN" --verify-ref
    ;;
suite)
    exec python3 "$here/suite.py" "$@"
    ;;
esac
