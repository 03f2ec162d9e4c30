#!/usr/bin/env sh
# Repository CI gate. Everything here must pass before a change lands.
#
# Runs the suite twice: once as shipped (checkers compiled out, zero
# cost) and once with --features check, which arms the cross-layer
# invariant auditor, checkpoint seal verification and lockdep edge
# recording throughout the workspace (see DESIGN.md §7).
set -eu

cd "$(dirname "$0")"

echo '== fmt =='
cargo fmt --all --check

echo '== clippy (default features) =='
cargo clippy --workspace --all-targets -- -D warnings

echo '== clippy (--features check) =='
cargo clippy --workspace --all-targets --features check -- -D warnings

echo '== cxl-lint static analysis gate (both feature states) =='
# Dependency-free static analysis (DESIGN.md §12): virtual-time-only
# discipline, lock discipline (raw locks banned outside lockdep; the
# statically extracted lock-class graph must be a DAG), and fault-hook
# robustness (no unwrap/expect on the device path). Runs before the test
# suites so a violation fails fast; the --json pass pins the
# machine-readable schema end to end. Built in both feature states to
# prove the lint itself carries no checker-gated code.
cargo run --quiet -p cxl-lint
cargo run --quiet -p cxl-lint -- --json > /dev/null
cargo run --quiet -p cxl-lint --features check -- --json > /dev/null

echo '== test (default features) =='
cargo test --workspace --quiet

echo '== test (--features check) =='
cargo test --workspace --quiet --features check

echo '== sharded-device audits + lockdep lint (both feature states) =='
# Drives batched traffic across the sharded page pool, reconciles the
# per-shard counters against the live slab, and lints the observed lock
# order (regions -> shardNN, ascending) for cycles. The default-feature
# pass proves the audits hold with lockdep compiled out; the check pass
# proves the recorded edge graph is a DAG (DESIGN.md §10).
cargo test --quiet -p cxl-check --test sharded_device_lint
cargo test --quiet -p cxl-check --features check --test sharded_device_lint

echo '== fault injection sweep (--features check, 3 seeds) =='
for seed in 7 1984 4242; do
    echo "-- CXLFAULT_SEED=$seed"
    CXLFAULT_SEED=$seed cargo test --quiet -p cxlfork-bench --features check --test fault_recovery
    CXLFAULT_SEED=$seed cargo test --quiet -p cxlfork-bench --features check --test capacity_pressure
done

echo '== crashpoint sweep smoke (bounded, both feature states) =='
# A bounded slice of the exhaustive crash-recovery sweep
# (tests/crashpoint_sweep.rs, DESIGN.md §13): kill the coordinator at
# the first 6 injection positions for 2 seeds, recover the store from
# the surviving device, and hold every recovery to zero audit
# violations and byte-identical surviving contents. The full sweep
# (every position, 3 seeds) already ran with the workspace suites
# above; this pass pins the env-bounded smoke contract itself.
CRASH_SWEEP_POSITIONS=6 CRASH_SWEEP_SEEDS=2 \
    cargo test --quiet -p cxlfork-bench --test crashpoint_sweep
CRASH_SWEEP_POSITIONS=6 CRASH_SWEEP_SEEDS=2 \
    cargo test --quiet -p cxlfork-bench --features check --test crashpoint_sweep

echo '== cluster-engine smoke (bounded, both feature states) =='
# A smoke-scale slice of the cluster determinism suite
# (tests/cluster_sim.rs): two runs of the same seeded diurnal trace
# over CLUSTER_SMOKE_NODES nodes must produce bit-identical
# PorterReports on the cxl-sim discrete-event engine, fairness and
# crash accounting included. The full 64-node, >=100k-invocation replay
# is exercised by the BENCH_cluster.json drift gate below.
CLUSTER_SMOKE_NODES=8 cargo test --quiet -p cxlfork-bench --test cluster_sim
CLUSTER_SMOKE_NODES=8 cargo test --quiet -p cxlfork-bench --features check --test cluster_sim

echo '== pipeline model property tests (both feature states) =='
# The overlapped per-shard transfer model (DESIGN.md §15): p = 1 is
# bit-identical to the serial cost, cost is monotone non-increasing in
# p, and the critical path never beats the streaming-bandwidth floor
# that keeps the paper's mechanism ordering intact. Already covered by
# the workspace suites above; this pass pins the invariants by name so
# a filtered-out rename fails loudly.
cargo test --quiet -p simclock pipeline_
cargo test --quiet -p simclock --features check pipeline_

echo '== fabric queueing + contention properties (both feature states) =='
# The fabric model (DESIGN.md §16): queueing delay is exactly zero at
# zero load (attaching an idle fabric reproduces the flat 391 ns model
# byte for byte), monotone in in-flight bytes and background load, and
# telemetry-invariant; end to end, contention erodes the pipelined
# copy's win and striping beats locality once traffic overlaps. The
# BENCH_contention.json drift gate below pins the full surface; these
# named passes pin the invariants so a filtered-out rename fails loudly.
cargo test --quiet -p simclock queueing_
cargo test --quiet -p simclock --features check queueing_
cargo test --quiet -p cxl-fabric
cargo test --quiet -p cxl-fabric --features check
cargo test --quiet -p cxlfork-bench --test contention
cargo test --quiet -p cxlfork-bench --features check --test contention

echo '== these tests exist =='
# The suites above ran them; this pins them by name, so that renaming or
# filtering one away fails here instead of passing with "0 tests":
# the golden traces (trace-gen may get faster, never different), the
# fingerprint value identity (constant, memo and byte loop agree) and
# the store's differential test against a per-page refcount model.
expect_tests() {
    package=$1 target=$2
    shift 2
    # shellcheck disable=SC2086 # $target is a list of cargo target flags
    listed=$(cargo test --quiet -p "$package" $target -- --list)
    for name in "$@"; do
        echo "$listed" | grep -q "^$name: test\$" || {
            echo "ci: test $name is missing from $package ($target)" >&2
            exit 1
        }
    done
}
expect_tests trace-gen '--test golden' \
    golden_trace_diurnal_cluster_default \
    golden_trace_paper_default_burst
expect_tests cxl-mem --lib \
    page::tests::fingerprint_identity_zero_page_is_the_reference_constant \
    page::tests::fingerprint_identity_pattern_matches_reference \
    page::tests::fingerprint_identity_bytes_match_reference \
    page::tests::fingerprint_identity_survives_memo_eviction \
    page::tests::fingerprint_identity_memo_adds_nothing_to_page_size
expect_tests node-os --lib \
    frame::tests::fingerprint_identity_frame_size_is_unchanged
expect_tests cxl-store '--test differential' \
    store_differential_volatile_matches_per_page_model_page_for_page \
    store_differential_durable_matches_model_and_recovers_to_it

echo '== release build =='
cargo build --workspace --release --quiet

echo '== two-clock benchmark smoke (traced, ~20 s) =='
# Builds the standalone benchmark package against this tree and runs
# every workload shrunk, untraced and traced, with the layer probes: the
# harness cannot compile-rot, and its built-in checks (phase sums equal
# their parent spans, every rep bit-identical on the simulated clock,
# armed == unarmed) run on every change. Not a measurement.
benchmark/run.sh --smoke --traced > /dev/null

echo '== benchmark report drift gate (telemetry armed, both feature states) =='
# Regenerates every BENCH_<scenario>.json with telemetry armed,
# round-trips each through the parser, and fails if any byte differs
# from the committed file: perf changes must be committed explicitly.
# The --features check pass proves the audits themselves never move a
# virtual-time result (armed-vs-unarmed bit-identity).
cargo run --release --quiet -p cxlfork-bench --bin bench_report -- --check
cargo run --release --quiet -p cxlfork-bench --features check --bin bench_report -- --check

echo 'CI green.'
