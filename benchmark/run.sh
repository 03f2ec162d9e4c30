#!/usr/bin/env bash
# Builds the harness and runs the benchmark, one process per workload.
#
#   benchmark/run.sh [--workload W] [--seed N] [--reps N] [--seconds S]
#                    [--traced] [--smoke]
#
# Prints every metric as `workload metric value unit` and writes
# benchmark/out/results.json. `--traced` adds the traced per-layer run of
# each workload (benchmark/out/trace-<workload>.json); `--smoke` shrinks
# every workload so the whole set takes a few seconds (a compile-rot
# check, not a measurement). A failed built-in check fails the script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(cluster_trace burst_scaleout restore_fanout checkpoint_churn)
seed=6502
traced=0
pass=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --reps | --seconds) pass+=("$1" "$2"); shift 2 ;;
        --smoke) pass+=("$1"); shift ;;
        --traced) traced=1; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
bin="$target/release/cxlfork-benchmark"
out="$here/out"
mkdir -p "$out"

# Runs one process of workload $1 with --trace $2: prints its lines and
# leaves its last one, the JSON result, in $last.
run() {
    local log="$out/.run.log"
    "$bin" --workload "$1" --seed "$seed" --trace "$2" --out "$out" "${pass[@]}" > "$log"
    sed '$d' "$log"
    last="$(tail -n 1 "$log")"
    rm -f "$log"
}

results="{\"seed\": $seed, \"workloads\": {"
sep=""
for w in "${workloads[@]}"; do
    run "$w" 0
    results+="$sep\"$w\": {\"end_to_end\": $last"
    if [[ $traced -eq 1 ]]; then
        run "$w" 1
        results+=", \"per_layer\": $last"
    fi
    results+="}"
    sep=", "
done
results+="}}"
printf '%s\n' "$results" > "$out/results.json"
echo "wrote $out/results.json"
