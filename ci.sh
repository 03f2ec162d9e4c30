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
# Besides the usual lints this enforces the workspace invariants in
# crates/clippy.toml (DESIGN.md §12): no wall clock, no hash containers,
# no raw locks, and — scoped to the device path — no unjustified
# unwrap/expect. --all-targets extends the ban to tests/, benches/ and
# examples/.
cargo clippy --workspace --all-targets -- -D warnings

echo '== clippy (--features check) =='
cargo clippy --workspace --all-targets --features check -- -D warnings

echo '== clippy canary (must FAIL, naming every banned construct) =='
# crates/cxl-lint/canary plants one violation per invariant above. If
# clippy passes it, or misses one, the two clippy passes prove nothing.
if canary=$(cargo clippy --quiet --manifest-path crates/cxl-lint/canary/Cargo.toml \
    --target-dir target/clippy-canary -- -D warnings 2>&1); then
    echo 'ci: clippy passed the canary: crates/clippy.toml is not applied' >&2
    exit 1
fi
for flagged in 'disallowed type `std::time::Instant`' \
    'disallowed type `std::collections::HashMap`' \
    'disallowed type `std::sync::Mutex`' \
    'index.html#unwrap_used' 'index.html#expect_used'; do
    echo "$canary" | grep -qF "$flagged" || {
        echo "ci: clippy did not report \"$flagged\" on the canary:" >&2
        echo "$canary" >&2
        exit 1
    }
done

echo '== cxl-lint (static lock-class graph) =='
# What clippy cannot express (DESIGN.md §12): the lock-class graph
# extracted from source must be a DAG even on paths no test drives, and
# public error enums stay #[non_exhaustive]. Runs before the test suites
# so a violation fails fast; the suites then cross-check the same graph
# against runtime lockdep (cxl-lint's static_vs_runtime test).
cargo run --quiet -p cxl-lint

echo '== test (default features) =='
cargo test --workspace --quiet

echo '== test (--features check) =='
cargo test --workspace --quiet --features check

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
# PorterReports off the porter's cxl-sim event queue, fairness and
# crash accounting included. The full 64-node, >=100k-invocation replay
# is exercised by the BENCH_cluster.json drift gate below.
CLUSTER_SMOKE_NODES=8 cargo test --quiet -p cxlfork-bench --test cluster_sim
CLUSTER_SMOKE_NODES=8 cargo test --quiet -p cxlfork-bench --features check --test cluster_sim

echo '== these tests exist =='
# The suites above ran them; this pins them by name, so that renaming or
# filtering one away fails here instead of passing with "0 tests":
# the golden traces (trace-gen may get faster, never different), the
# fingerprint value identity (constant, memo and byte loop agree), the
# store's differential test against a per-page refcount model (slot reuse
# and the recovered slab included) and the journal golden recorded before
# the index became a slab, `CxlBacking` against its ordered-map model, the
# porter's expiry floor at its edge and under late memory pressure, the
# sharded-device audit + lockdep lint (DESIGN.md §10), the pipeline
# model's invariants (§15: p = 1 is the serial cost, cost is monotone in
# p, never below the streaming floor), the fabric model's (§16: zero
# delay at zero load, monotone in load, telemetry-invariant) and the
# end-to-end contention properties, the static-vs-runtime lock graph
# cross-check, and the guards of the one-path-per-decision shapes
# (placement by scan sees every load change, a crashed node is never
# dispatched to, the default config is the p = 1 pipeline, a hostile
# superblock page count is skipped), and what holds the store's one
# `apply` in place (§11/§13: the journal folded through it equals the
# live books after every differential step, it is total, a journal that
# cannot take a record or a snapshot refuses with a typed error and
# leaks nothing — at the store, the journal and `CxlFork::checkpoint` —
# the crashpoint sweep's literal site sequence, and per-function porter
# state filed under one entry however an arrival spells the name).
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
    frame::tests::fingerprint_identity_frame_size_is_unchanged \
    mm::tests::cxl_backing_matches_btreemap_model_under_arbitrary_insert_orders
expect_tests cxl-store '--test differential' \
    store_differential_volatile_matches_per_page_model_page_for_page \
    store_differential_durable_matches_model_and_recovers_to_it \
    journal_golden_fixed_script_pins_pages_written_and_region_bytes \
    superblock_limit_intern_record_too_large_is_a_typed_error_and_leaks_nothing \
    superblock_limit_commit_with_unsnapshotable_books_is_a_typed_error_and_leaks_nothing
expect_tests cxl-check '--test sharded_device_lint' \
    sharded_device_batch_churn_audits_clean_with_no_lock_cycle
expect_tests simclock --lib \
    latency::tests::pipeline_p1_is_bit_identical_to_serial \
    latency::tests::pipeline_cost_is_monotone_non_increasing_in_p \
    latency::tests::pipeline_never_beats_streaming_bandwidth_floor \
    latency::tests::queueing_zero_load_is_exactly_zero \
    latency::tests::queueing_delay_is_strictly_monotone_in_inflight_bytes
expect_tests cxl-fabric --lib \
    tests::fabric_isolated_transfer_costs_exactly_zero \
    tests::fabric_delay_is_monotone_in_background_load \
    tests::fabric_telemetry_is_cost_invariant
expect_tests cxlfork-bench '--test contention' \
    idle_fabric_reproduces_the_flat_model_exactly \
    contention_shrinks_the_pipelined_copy_win \
    armed_telemetry_does_not_move_contention_costs \
    striping_beats_locality_under_overlapping_traffic
expect_tests cxl-lint '--test static_vs_runtime' \
    runtime_lockdep_agrees_with_the_static_graph
expect_tests cxlporter --lib \
    cluster::tests::least_loaded_sees_an_untracked_load_decrease \
    tests::crash_then_arrivals_never_dispatch_to_the_dead_node \
    porter::tests::idle_instance_expires_one_nanosecond_past_the_expiry_floor \
    porter::tests::node_turning_pressured_after_the_floor_was_computed_expires_on_time \
    porter::tests::spellings_of_one_function_share_its_fabric_home_and_slo_statistics
expect_tests cxlfork --lib \
    tests::default_config_is_bit_identical_to_explicit_serial
expect_tests cxl-store --lib \
    journal::tests::hostile_superblock_page_count_is_skipped_not_allocated \
    journal::tests::superblock_limit_is_refused_where_the_page_list_grows \
    tests::apply_is_total_a_record_that_meets_the_wrong_state_changes_nothing \
    tests::an_intern_that_cannot_be_journaled_is_rolled_back_whole
expect_tests cxlfork-bench '--test crashpoint_sweep' \
    every_crashpoint_recovers_with_zero_violations
expect_tests cxlfork '--test recheckpoint' \
    checkpoint_the_journal_cannot_hold_fails_typed_and_leaves_nothing_behind
expect_tests cxl-sim '--test queue_properties' \
    identical_schedules_dispatch_identically

echo '== release build =='
cargo build --workspace --release --quiet

echo '== two-clock benchmark smoke (traced, ~20 s) =='
# Builds the standalone benchmark package against this tree and runs
# every workload shrunk, untraced and traced, with the layer probes: the
# harness cannot compile-rot, and its built-in checks (phase sums equal
# their parent spans, every rep bit-identical on the simulated clock,
# armed == unarmed) run on every change. Not a measurement.
benchmark/run.sh --smoke --traced > /dev/null
# BENCHMARK.json's command has no --locked: a dependency edit under
# crates/ makes cargo rewrite benchmark/Cargo.lock without a word. The
# benchmark's files are pinned, so that is a failure here, not a
# surprise at gate time.
git diff --exit-code -- benchmark/

echo '== benchmark report drift gate (telemetry armed, both feature states) =='
# Regenerates every BENCH_<scenario>.json with telemetry armed,
# round-trips each through the parser, and fails if any byte differs
# from the committed file: perf changes must be committed explicitly.
# The --features check pass proves the audits themselves never move a
# virtual-time result (armed-vs-unarmed bit-identity).
cargo run --release --quiet -p cxlfork-bench --bin bench_report -- --check
cargo run --release --quiet -p cxlfork-bench --features check --bin bench_report -- --check

echo 'CI green.'
