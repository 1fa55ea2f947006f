#!/bin/sh
# Order-alternating parent/change pairs of one benchmark workload.
#
#   scripts/ledger_pairs.sh PARENT_REV CHANGE_REV WORKLOAD PAIRS SECONDS
#
# Exports each rev with `git archive` into $LEDGER_PAIRS_DIR (default
# ${TMPDIR:-/tmp}/ledger_pairs), one directory per commit, and builds
# `odp-benchmark` there; a commit built once is reused. Nothing is built
# inside the checkout, so its benchmark/Cargo.lock is never rewritten,
# and no worktree is registered in its .git. Then runs PAIRS pairs of
# WORKLOAD for SECONDS each, the parent first in odd pairs and the
# change first in even ones, and prints every pair and, per end-to-end
# metric of BENCHMARK.json, the parent's and the change's median, q1 and
# q3 and in how many pairs the change read lower. Each run's result line
# is appended to pairs.jsonl in that directory. Exits non-zero when a
# run fails verification.
set -eu

if [ $# -ne 5 ]; then
    echo "usage: $0 PARENT_REV CHANGE_REV WORKLOAD PAIRS SECONDS" >&2
    exit 2
fi
parent_rev=$1 change_rev=$2 workload=$3 pairs=$4 seconds=$5
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
dir=${LEDGER_PAIRS_DIR:-${TMPDIR:-/tmp}/ledger_pairs}
mkdir -p "$dir"

# The benchmark binary of one rev, exported and built on first use.
build() {
    sha=$(git -C "$repo" rev-parse --verify "$1^{commit}")
    src=$dir/$sha/src
    bin=$dir/$sha/target/release/odp-benchmark
    if [ ! -x "$bin" ]; then
        rm -rf "$src"
        mkdir -p "$src"
        git -C "$repo" archive "$sha" | tar -x -C "$src"
        CARGO_TARGET_DIR=$dir/$sha/target cargo build --release --offline --quiet \
            --manifest-path "$src/benchmark/Cargo.toml" >&2
    fi
    echo "$bin"
}
parent_bin=$(build "$parent_rev")
change_bin=$(build "$change_rev")
metrics=$(jq -r '.end_to_end[].name' "$repo/BENCHMARK.json")

# One run's result object (the last line the benchmark prints), tagged
# with its side and pair.
run() {
    line=$("$2" --workload "$workload" --seconds "$seconds" | tail -n 1)
    echo "$line" | jq -c --arg side "$1" --argjson pair "$3" '{side: $side, pair: $pair} + .'
}

results=$dir/run.$$.jsonl
: >"$results"
pair=1
while [ "$pair" -le "$pairs" ]; do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent_bin" "$pair" >>"$results"
        run change "$change_bin" "$pair" >>"$results"
    else
        run change "$change_bin" "$pair" >>"$results"
        run parent "$parent_bin" "$pair" >>"$results"
    fi
    pair=$((pair + 1))
done
cat "$results" >>"$dir/pairs.jsonl"

echo "workload $workload, $pairs pair(s) of $seconds s: $parent_rev (parent) vs $change_rev (change)"
status=0
if jq -e 'select(.correct != true or .failed != 0)' "$results" >/dev/null; then
    echo "a run failed verification or reported failed operations:"
    jq -c 'select(.correct != true or .failed != 0) | {side, pair, correct, attempted, failed}' "$results"
    status=1
fi
for metric in $metrics; do
    # "pair parent change" rows, in pair order.
    jq -r --arg m "$metric" '[.pair, .side, .metrics[$m].value] | @tsv' "$results" |
        awk -v m="$metric" '
            { v[$1, $2] = $3; if ($1 > n) n = $1 }
            function quantile(sorted, count, p,    pos, lo) {
                pos = (count - 1) * p; lo = int(pos)
                return lo + 1 < count ? sorted[lo] + (pos - lo) * (sorted[lo + 1] - sorted[lo]) : sorted[lo]
            }
            function summary(side,    i, j, t, x) {
                for (i = 1; i <= n; i++) x[i - 1] = v[i, side]
                for (i = 1; i < n; i++)
                    for (j = i; j > 0 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
                return sprintf("%.4g (q1 %.4g, q3 %.4g)", quantile(x, n, 0.5), quantile(x, n, 0.25), quantile(x, n, 0.75))
            }
            END {
                lower = 0; each = ""
                for (i = 1; i <= n; i++) {
                    lower += v[i, "change"] < v[i, "parent"]
                    each = each sprintf("%s%.4g/%.4g", i > 1 ? ", " : "", v[i, "parent"], v[i, "change"])
                }
                printf "%s: parent %s, change %s, change lower in %d/%d\n", m, summary("parent"), summary("change"), lower, n
                printf "  pairs (parent/change): %s\n", each
            }'
done
rm -f "$results"
exit $status
