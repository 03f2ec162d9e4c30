#!/usr/bin/env bash
# A/A test: runs two full untraced sets back to back on the same commit
# and prints PASS/FAIL per (workload, end-to-end metric).
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S]
#
# A pair passes when the second set is not worse than the first by more
# than the metric's bound in BENCHMARK.json; a `sim_*` metric must also be
# bit-identical between the sets. Exits non-zero on any FAIL.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
for set in a b; do
    "$here/run.sh" "$@" > /dev/null
    mv "$out/results.json" "$out/selfcheck-$set.json"
done

python3 - "$here/../BENCHMARK.json" "$out/selfcheck-a.json" "$out/selfcheck-b.json" <<'PY'
import json, sys

spec, first, second = (json.load(open(p)) for p in sys.argv[1:4])
failed = 0
for workload, run_a in first["workloads"].items():
    a = run_a["end_to_end"]["metrics"]
    b = second["workloads"][workload]["end_to_end"]["metrics"]
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        va, vb = a[name]["value"], b[name]["value"]
        worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
        ok = worse <= bound and (not name.startswith("sim_") or va == vb)
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {workload:17s} {name:24s} "
              f"{va:16.6f} {vb:16.6f} {worse * 100:+8.3f} % (bound {bound * 100:g} %)")
sys.exit(1 if failed else 0)
PY
