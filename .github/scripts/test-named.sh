#!/usr/bin/env bash
# Run named tests of one test target in release, and fail if a name matches
# no test. `cargo test`'s name arguments are substring filters, so a renamed
# test would otherwise silently drop out of the run.
#
#   test-named.sh <cargo test target selection...> -- <name>...
#
# e.g. test-named.sh -p prop-core --lib -- golden_table queue
set -euo pipefail

selection=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do
    selection+=("$1")
    shift
done
[ $# -gt 1 ] || { echo "usage: $0 <cargo test selection...> -- <name>..." >&2; exit 2; }
shift

run=(cargo test --release --locked --offline "${selection[@]}")
listed=$("${run[@]}" -- --list | sed -n 's/: test$//p')
missing=0
for name in "$@"; do
    if ! grep -qF -- "$name" <<<"$listed"; then
        echo "no test named like '$name' in ${selection[*]}" >&2
        missing=1
    fi
done
[ "$missing" = 0 ] || exit 1
"${run[@]}" -- "$@"
