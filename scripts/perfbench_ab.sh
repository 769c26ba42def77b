#!/usr/bin/env bash
# A/B comparison of two checkouts on one perfbench workload.
#
#   scripts/perfbench_ab.sh PARENT_DIR CHANGE_DIR WORKLOAD SECONDS SEED...
#
# Builds perfbench once in each checkout, then runs one pair per SEED:
# the parent's and the change's binary, each from its own checkout root,
# untraced, with the side that runs first flipping on every pair. Every
# run's full output stays in a fresh directory whose path is printed
# first. For each pair it prints the end-to-end metrics that
# CHANGE_DIR/BENCHMARK.json lists; at the end, per metric, each side's
# median and quartiles and the pairs the change won, judged by the
# metric's `better` (ties count for neither side).
#
# A pair is flagged when either side reports `"correct": false` or when
# the `digest` of the two sides' `#` note lines differs. Exit status: 0
# when every run succeeded and no pair was flagged, 1 when a run failed
# (immediately) or a pair was flagged (after the summary), 2 on a usage
# error or when a CQ_* variable is set (perfbench refuses those).
#
# Needs only bash and jq.
set -euo pipefail

if [ $# -lt 5 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SECONDS SEED..." >&2
    exit 2
fi
knobs=$(compgen -e CQ_ || true)
if [ -n "$knobs" ]; then
    echo "$0: unset" $knobs "first: each changes the program under test" >&2
    exit 2
fi
command -v jq >/dev/null || { echo "$0: jq is required" >&2; exit 2; }

parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seconds=$4
shift 4
seeds=("$@")
metrics=$(jq -c '[.end_to_end[] | {name, better}]' "$change/BENCHMARK.json")

out=$(mktemp -d "${TMPDIR:-/tmp}/perfbench_ab.XXXXXX")
echo "run outputs: $out"

for dir in "$parent" "$change"; do
    echo "building perfbench in $dir"
    (cd "$dir" && cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml) || {
        echo "$0: build failed in $dir" >&2
        exit 1
    }
done

# run SIDE DIR SEED FILE: one untraced run, its output kept in FILE.
run() {
    if ! (cd "$2" && ./perfbench/target/release/perfbench --workload "$workload" --seed "$3" \
        --seconds "$seconds" --trace 0) >"$4" 2>&1; then
        echo "$0: $1 run failed (seed $3); output in $4" >&2
        exit 1
    fi
    tail -n 1 "$4" | jq -e -c . >"${4%.txt}.json" 2>/dev/null || {
        echo "$0: $1 run (seed $3) ended without a JSON result; output in $4" >&2
        exit 1
    }
}

# digest FILE: every `digest <hex>` on the run's `#` note lines.
digest() {
    grep '^#' "$1" | grep -o 'digest [0-9a-f]*' | tr '\n' ' ' || true
}

flagged=0
pair=0
for seed in "${seeds[@]}"; do
    pair=$((pair + 1))
    base="$out/pair$(printf '%02d' "$pair")-seed$seed"
    if [ $((pair % 2)) -eq 1 ]; then
        order=(parent change)
    else
        order=(change parent)
    fi
    for side in "${order[@]}"; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
        run "$side" "$dir" "$seed" "$base-$side.txt"
    done
    echo "pair $pair seed $seed (${order[0]} first):"
    jq -r -n --argjson ms "$metrics" --slurpfile p "$base-parent.json" --slurpfile c "$base-change.json" '
        def r: . * 10000 | round / 10000;
        $ms[] | .name as $m
        | "  \($m): parent \($p[0].metrics[$m].value | r) change \($c[0].metrics[$m].value | r) \($p[0].metrics[$m].unit)"'
    for side in parent change; do
        if [ "$(jq -r .correct "$base-$side.json")" != true ]; then
            echo "  FLAG: $side run has correct != true"
            flagged=1
        fi
    done
    if [ "$(digest "$base-parent.txt")" != "$(digest "$base-change.txt")" ]; then
        echo "  FLAG: digests differ: parent [$(digest "$base-parent.txt")] change [$(digest "$base-change.txt")]"
        flagged=1
    fi
done

echo "summary over $pair pairs: median [q1, q3] per side; wins = pairs the change won"
jq -r -n --argjson ms "$metrics" \
    --slurpfile p <(cat "$out"/pair*-parent.json) --slurpfile c <(cat "$out"/pair*-change.json) '
    # Linear-interpolated quantile of a non-empty array.
    def q($f): sort as $s | ((($s | length) - 1) * $f) as $h | ($h | floor) as $lo
        | ($h | ceil) as $hi | $s[$lo] + ($h - $lo) * ($s[$hi] - $s[$lo]);
    def r: . * 10000 | round / 10000;
    def stats: "\(q(0.5) | r) [\(q(0.25) | r), \(q(0.75) | r)]";
    $ms[] | .name as $m | .better as $better
    | [$p[] | .metrics[$m].value] as $pv | [$c[] | .metrics[$m].value] as $cv
    | [range($pv | length) | select(if $better == "higher"
        then $cv[.] > $pv[.] else $cv[.] < $pv[.] end)] as $wins
    | [range($pv | length) | select($cv[.] == $pv[.])] as $ties
    | "  \($m) (\($better) is better): parent \($pv | stats) change \($cv | stats); wins \($wins | length)/\($pv | length), ties \($ties | length)"'

if [ "$flagged" -ne 0 ]; then
    echo "$0: at least one pair was flagged (see FLAG lines above)" >&2
    exit 1
fi
