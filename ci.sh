#!/usr/bin/env sh
# Repository CI gate. Everything here must pass before a change lands.
set -eu

cd "$(dirname "$0")"

echo '== fmt =='
cargo fmt --all --check

# forbid REASON PATTERN PATH...: fails with REASON if `git grep -E`
# finds PATTERN under the PATHs. A grep that cannot run (exit status
# above 1, such as 128 outside a git checkout) fails too, instead of
# reading as "no match".
forbid() {
    reason=$1 pattern=$2
    shift 2
    status=0
    git grep -nE "$pattern" -- "$@" || status=$?
    case $status in
    0)
        echo "ci: $reason" >&2
        exit 1
        ;;
    1) ;;
    *)
        echo "ci: git grep exited $status, so this guard cannot run: $reason" >&2
        exit 1
        ;;
    esac
}

echo '== no build-configuration switch for the auditors =='
# The auditors run in every test build (DESIGN.md §7): no crate may
# grow a `check` feature back, and nothing may build with one.
forbid 'a `check` feature is back (DESIGN.md §7)' \
    'feature = "check"|--features check|^check = ' crates/ tests/ examples/ Cargo.toml

echo '== one crash seam, one seal =='
# A crash point is a device-operation boundary, reached through the
# device's fault hook (DESIGN.md §13), and checkpoint immutability is the
# seal each CXLfork checkpoint carries (§7). Neither second copy may
# come back.
forbid 'a store crash-site hook or the test-only seal registry is back' \
    'CrashpointHook|set_crash_hook|crash_armed|SealRegistry' crates tests

echo '== one lock-order check =='
# Lock order is one declared table, checked by lockdep on every
# acquisition (DESIGN.md §12): neither the static lock-graph linter nor
# the runtime cycle finder may come back.
forbid 'a second lock-order checker is back (DESIGN.md §12)' \
    'cxl_lint|cxl-lint|lock_order_cycles|check_lock_order|reset_lock_graph|LockOrderCycle' \
    crates tests examples Cargo.toml

echo '== telemetry reads the books =='
# Node and porter counters are published from their books, not bumped
# per event, and metrics nothing reads stay deleted (DESIGN.md §9): no
# gauge kind, and none of the seven write-only timers, may come back.
forbid 'a gauge or a write-only timer is back (DESIGN.md §9)' \
    'gauge_set|"fault\.latency"|"startup\.latency"|"local_fork\.latency"|"invocation\.latency"|"deploy_cold\.latency"|"queue\.delay"' \
    crates tests examples

echo '== one access loop =='
# The engine issues its page accesses as runs through `Node::access_run`,
# which walks the page table once per leaf (DESIGN.md §4): no per-page
# `access(` call may come back into faas.
forbid 'faas makes a per-page access call; issue a run through Node::access_run (DESIGN.md §4)' \
    '\.access\(' crates/faas/src

echo '== one leaf map =='
# The page table is one map of its leaves keyed by leaf index; the
# directory pages a walk creates are counted from leaf-index prefixes
# (DESIGN.md §4). The radix tree, its per-level index and its
# hand-copied descents may not come back.
forbid 'the page-table radix tree is back; count directories from the leaf map (DESIGN.md §4)' \
    'DirLevel|DirEntry|fn index\(self, level' crates/node-os/src

echo '== one VMA lookup per fault =='
# A fault finds its VMA with one cursor-checked lookup that also
# localizes an attached VMA block, and a migrate-on-access page with a
# probe after the last hit, then resolves into the run's leaf (DESIGN.md
# §4): neither the localize-then-find pair nor the per-fault backing
# search may come back.
forbid 'a fault searches the VMA tree twice or the backing from scratch (DESIGN.md §4)' \
    'ensure_local\(|fn backing_for' crates/node-os/src/mm.rs

echo '== flat LLC sets =='
# The LLC model keeps its tags in one flat array, each set a ring probed
# by control bytes, stepped a leaf batch at a time (DESIGN.md §4): the
# per-set vectors with their shifting removes and inserts may not come
# back.
forbid 'per-set Vec storage is back in the LLC model (DESIGN.md §4)' \
    'Vec<Vec<' crates/node-os/src/cache.rs

echo '== an ordered content table, a backing derived on use =='
# The store finds content through one flat ordered hash table whose scan
# is in fingerprint order (DESIGN.md §11), and a checkpoint leaves the
# migrate-on-access backing to the first pull restore, which derives it
# from the leaves (§4 "Tiering"): neither the ordered map on the intern
# path nor the per-page backing build on the checkpoint path may come
# back.
forbid 'an ordered map is back in the content index (DESIGN.md §11)' \
    'BTreeMap' crates/cxl-store/src/index.rs
# Store interns stripe their fresh pages across every bank (§15), so a
# p > 1 checkpoint through the store has per-bank work to overlap.
forbid 'store interns allocate first-fit again (DESIGN.md §15)' \
    'self\.device\.alloc_batch\(' crates/cxl-store/src/lib.rs
forbid 'the checkpoint builds a CxlBacking eagerly (DESIGN.md §4)' \
    'CxlBacking::|BackingPage' crates/core/src/checkpoint.rs

echo '== one page capture =='
# A checkpoint's pages are captured by one walk, `Node::capture`, which
# reads each entry's runtime A bit beside it and moves device-resident
# pages in one batched, retried read (DESIGN.md §10 "Consumers"); every
# device retry runs the one constant policy in `cxl_fault::with_backoff`
# (§8). Neither a leaf copy to fold A bits into, nor a baseline's
# per-page device read or write, nor a retry-policy object may come back.
forbid 'a harvested leaf copy is back; read the A bit beside the entry (DESIGN.md §10)' \
    'harvested' crates/node-os/src crates/core/src
forbid 'a baseline moves pages one device call at a time (DESIGN.md §10)' \
    'read_page\(|write_page\(' crates/criu-cxl/src crates/trenv-cxl/src crates/mitosis-cxl/src
forbid 'a retry-policy object is back; the policy is the constants in cxl_fault::retry (DESIGN.md §8)' \
    'BackoffPolicy' crates tests examples

echo '== the device publishes its book =='

# The device's traffic book is one `CxlDeviceStats`; telemetry reads it
# through `CxlDevice::publish_counters_since`, cxl-mem's one
# `counter_add` (DESIGN.md §9). No per-event telemetry call and no
# layer-name constant may come back into the device.
forbid 'a telemetry layer-name constant is back in cxl-mem (DESIGN.md §9)' \
    'TELEMETRY_LAYER' crates/cxl-mem/src

echo '== closed-form page fingerprints =='
# A page's fingerprint is a sum of keyed mixes of its 512 words, and a
# pattern page's is a closed form in its seed (DESIGN.md §11): there is
# nothing to memoise, and no byte-serial hash may come back.
forbid 'a per-thread fingerprint memo or a byte-serial page hash is back (DESIGN.md §11)' \
    'thread_local!|PATTERN_MEMO|FNV_PRIME' crates/cxl-mem/src/page.rs
calls=$(git grep -h 'counter_add' -- crates/cxl-mem/src | wc -l)
published=$(awk '/fn publish_counters_since/,/^    }$/ { if (/counter_add/) n++ } END { print n + 0 }' \
    crates/cxl-mem/src/device.rs)
if [ "$calls" -ne 1 ] || [ "$published" -ne 1 ]; then
    echo 'ci: cxl-mem books traffic in telemetry outside publish_counters_since (DESIGN.md §9)' >&2
    git grep -n 'counter_add' -- crates/cxl-mem/src >&2
    exit 1
fi

echo '== one table per function in the porter =='
# A function's checkpoint lives in its entry of the porter's function
# table, and walks over stored checkpoints go in name order through the
# name index (DESIGN.md §14): no second, name-keyed checkpoint table,
# and no checkpoint identifier only such a table would hand out.
forbid 'a second, name-keyed checkpoint table is back in the porter (DESIGN.md §14)' \
    'ObjectStore|CheckpointId|BTreeMap<String, StoredCheckpoint' crates/cxlporter/src crates/rfork/src

echo '== clippy =='
# Besides the usual lints this enforces the workspace invariants in
# crates/clippy.toml (DESIGN.md §12): no wall clock, no hash containers,
# no raw locks, and — scoped to the device path — no unjustified
# unwrap/expect; the crates that export an error enum also keep every
# public enum non-exhaustive unless an allow says why. --all-targets
# extends the ban to tests/, benches/ and examples/.
cargo clippy --workspace --all-targets -- -D warnings

echo '== clippy canary (must FAIL, naming every banned construct) =='
# crates/clippy-canary plants one violation per invariant above. If
# clippy passes it, or misses one, the clippy pass proves nothing.
if canary=$(cargo clippy --quiet --manifest-path crates/clippy-canary/Cargo.toml \
    --target-dir target/clippy-canary -- -D warnings 2>&1); then
    echo 'ci: clippy passed the canary: crates/clippy.toml is not applied' >&2
    exit 1
fi
for flagged in 'disallowed type `std::time::Instant`' \
    'disallowed type `std::collections::HashMap`' \
    'disallowed type `std::sync::Mutex`' \
    'index.html#unwrap_used' 'index.html#expect_used' \
    'index.html#exhaustive_enums'; do
    echo "$canary" | grep -qF "$flagged" || {
        echo "ci: clippy did not report \"$flagged\" on the canary:" >&2
        echo "$canary" >&2
        exit 1
    }
done

echo '== test =='
# A debug build: lockdep checks every acquisition against the declared
# lock order, each CXLfork
# restore re-verifies its checkpoint's seal, and every trace a test runs
# ends in the cluster audit (DESIGN.md §7).
cargo test --workspace --quiet

echo '== fault injection sweep (3 seeds) =='
for seed in 7 1984 4242; do
    echo "-- CXLFAULT_SEED=$seed"
    CXLFAULT_SEED=$seed cargo test --quiet -p cxlfork-bench --test fault_recovery
    CXLFAULT_SEED=$seed cargo test --quiet -p cxlfork-bench --test capacity_pressure
done

echo '== crashpoint sweep smoke (bounded) =='
# A bounded slice of the exhaustive crash-recovery sweep
# (tests/crashpoint_sweep.rs, DESIGN.md §13): kill the coordinator
# before each of the first 6 mutating device operations for 2 seeds,
# recover the store from the surviving device, and hold every recovery to zero audit
# violations and byte-identical surviving contents. The full sweep
# (every position, 3 seeds) already ran with the workspace suite above;
# this pass pins the env-bounded smoke contract itself.
CRASH_SWEEP_POSITIONS=6 CRASH_SWEEP_SEEDS=2 \
    cargo test --quiet -p cxlfork-bench --test crashpoint_sweep

echo '== cluster-engine smoke (bounded) =='
# A smoke-scale slice of the cluster determinism suite
# (tests/cluster_sim.rs): two runs of the same seeded diurnal trace
# over CLUSTER_SMOKE_NODES nodes must produce bit-identical
# PorterReports off the porter's cxl-sim event queue, fairness and
# crash accounting included. The full 64-node, >=100k-invocation replay
# is exercised by the BENCH_cluster.json drift gate below.
CLUSTER_SMOKE_NODES=8 cargo test --quiet -p cxlfork-bench --test cluster_sim

echo '== these tests exist =='
# The suites above ran them; this pins them by name, so that renaming or
# filtering one away fails here instead of passing with "0 tests":
# the golden traces (trace-gen may get faster, never different), the
# fingerprint oracle (the zero constant, the pattern closed form and the
# `Bytes` sum agree with the word-level definition; distinct seeds,
# one-word changes and two-word flips of bit 31, 32 or 63 never collide),
# the store's differential test against a per-page refcount model (slot
# reuse, the recovered slab, zero elision by content and page ids under
# bank-striped interns, full banks included, and a page of two -0.0
# words written apart from the zero page), an intern's fresh pages in
# per-bank shares that differ by at most one, the journal's compaction
# rule at each edge, its tail-only DRAM mirror against a full byte
# stream and a resumed generation writing what the live one would, the ordered
# content table against a `BTreeMap` under op scripts (uniform, one long
# run, the tail past the last home), and the journal golden recorded before
# the index became a slab, `CxlBacking` against its ordered-map model and
# a checkpoint's backing derived from its leaves on the first pull restore
# (shared by the next, never built without one), the one page capture
# against a per-page walk (local, device-resident, armed and file pages, a
# stale baked-in A flag) and every mechanism retrying a transient read
# while re-checkpointing a device-resident child, the
# fault path's cursors against the searches they save (the VMA lookup
# against localize-then-find, the backing probe against a binary search,
# a fault that copies its leaf completing in the copy), the flat LLC
# against a list-per-set model after every access, probe and
# invalidation (its fastmod, zero-byte test, lazy storage and
# state-only `Debug` too) and a batch stepping the LLC before the fault
# that ends it, `munmap` and
# `mprotect` against the per-page walk and on a 2^27-page VMA, the
# porter's expiry floor at its edge and under late memory pressure, the
# sharded-device audit under lockdep (DESIGN.md §10), the pipeline
# model's invariants (§15: p = 1 is the serial cost, cost is monotone in
# p, never below the streaming floor), the fabric model's (§16: zero
# delay at zero load, monotone in load, telemetry-invariant) and the
# end-to-end contention properties, and the guards of the
# one-path-per-decision shapes
# (placement by scan sees every load change, a crashed node is never
# dispatched to, the default config is the p = 1 pipeline, a hostile
# superblock page count is skipped), and what holds the store's one
# `apply` in place (§11/§13: the journal folded through it equals the
# live books after every differential step, it is total, a journal that
# cannot take a record or a snapshot refuses with a typed error and
# leaks nothing — at the store, the journal and `CxlFork::checkpoint` —
# the crashpoint sweep's literal device-op sequence, and per-function porter
# state filed under one entry however an arrival spells the name, its
# stored checkpoints walked in name order, a failed restore counted, and
# pressure reclaiming the least-restored checkpoint first), the
# fault plan's stream recorded literally (the availability and cluster
# runs replay it) and unmoved by region-table consults, the crash seam
# (reads never count, a kill before a batch's first write writes none of
# it, the killer stays quiet after firing, every region-table change is
# reported and cannot be vetoed), the porter's expiry floor deciding like a scan on every
# arrival, catalog specs reaching the porter's deployments as held, and
# the node books (§9): `NodeCounters` against an independent tally of
# every access outcome, the `node_os.*` telemetry counters against those
# books (a deploy that runs out of memory and checkpoint/restore retries
# included), the ten `cxlporter.*` counters against the porter reports,
# the `cxl_mem.*` counters against the device book's snapshot deltas,
# and `device_retries` counting one run; and the auditors every
# test build runs (§7): lockdep accepting the declared lock order and
# panicking, naming both classes, on a descending or self-nested
# acquisition (§12), the checkpoint seal tripping on a written or freed checkpoint page, the node auditor naming
# seeded violations, the cluster audit needing the porter's declared
# container pins, a TrEnv release that strands no template frames, a live
# TrEnv template's frames closing the node audit once declared, and a
# CRIU pagemap naming a payload page past the end failing as a bad image.
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
    lockdep::tests::ascending_nesting_is_accepted \
    lockdep::tests::descending_acquisition_panics_and_names_both_classes \
    lockdep::tests::the_same_class_nested_twice_panics \
    lockdep::tests::after_an_out_of_order_release_a_middle_rank_is_accepted \
    device::tests::stats_count_per_node_traffic \
    device::tests::publish_adds_only_what_moved_since_the_snapshot \
    page::tests::fingerprint_identity_zero_page_is_the_reference_constant \
    page::tests::fingerprint_identity_pattern_matches_reference \
    page::tests::fingerprint_identity_bytes_match_reference \
    page::tests::fingerprint_identity_distinct_seeds_never_collide \
    page::tests::fingerprint_identity_one_word_changes_never_collide \
    page::tests::fingerprint_identity_sign_bit_flips_never_collide \
    page::tests::fingerprint_identity_adds_nothing_to_page_size
expect_tests node-os --lib \
    frame::tests::fingerprint_identity_frame_size_is_unchanged \
    mm::tests::cxl_backing_matches_btreemap_model_under_arbitrary_insert_orders \
    node::tests::counters_equal_an_independent_tally_of_access_outcomes \
    node::tests::an_access_run_equals_its_pages_one_by_one \
    node::tests::capture_equals_a_per_page_walk \
    mm::tests::mappings_outside_the_vpn_space_are_bad_addresses \
    mm::tests::a_fault_that_copies_its_leaf_completes_in_the_copy \
    mm::tests::cxl_backing_cursor_probe_equals_a_binary_search \
    mm::tests::munmap_and_mprotect_equal_the_per_page_walk \
    mm::tests::munmap_and_mprotect_of_a_huge_vma_visit_only_its_leaves \
    vma::tests::find_local_with_a_carried_cursor_equals_ensure_local_then_find \
    mm::tests::a_batch_steps_the_llc_before_the_fault_that_ends_it \
    cache::tests::invalidate_drops_the_line_and_keeps_the_books \
    cache::tests::new_allocates_nothing_until_the_first_access \
    cache::tests::equal_states_print_the_same_whatever_their_history \
    cache::tests::fastmod_equals_the_remainder \
    cache::tests::zero_byte_test_is_exact
expect_tests node-os '--test properties' \
    page_table_matches_hashmap_model
expect_tests node-os '--test cache_properties' \
    cache_matches_reference_model \
    invalidate_is_precise
expect_tests cxl-store '--test differential' \
    store_differential_volatile_matches_per_page_model_page_for_page \
    store_differential_durable_matches_model_and_recovers_to_it \
    journal_golden_fixed_script_pins_pages_written_and_region_bytes \
    superblock_limit_intern_record_too_large_is_a_typed_error_and_leaks_nothing \
    superblock_limit_commit_with_unsnapshotable_books_is_a_typed_error_and_leaks_nothing
expect_tests cxl-check '--test sharded_device_lint' \
    sharded_device_batch_churn_audits_clean_with_no_lock_cycle
expect_tests cxl-check '--test negative_audit' \
    freed_checkpoint_page_is_reported_as_dangling_and_unsealed \
    mutating_a_sealed_checkpoint_page_is_reported
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
expect_tests cxlporter --lib \
    cluster::tests::least_loaded_sees_an_untracked_load_decrease \
    tests::crash_then_arrivals_never_dispatch_to_the_dead_node \
    porter::tests::idle_instance_expires_one_nanosecond_past_the_expiry_floor \
    porter::tests::node_turning_pressured_after_the_floor_was_computed_expires_on_time \
    porter::tests::spellings_of_one_function_share_one_entry_and_its_slo_statistics \
    porter::tests::expiry_floor_skips_only_scans_that_would_expire_nothing \
    porter::tests::stored_checkpoints_are_walked_in_name_order_and_every_restore_counts \
    store::tests::restore_counting_and_coldest
expect_tests cxlporter '--test store_properties' \
    coldest_is_the_least_restored
expect_tests cxlporter '--test porter_scenarios' \
    catalog_template_overlap_reaches_the_deployments \
    device_retries_count_one_run_each \
    cluster_audit_flags_container_pins_unless_the_accessor_declares_them
expect_tests trenv-cxl --lib \
    tests::drop_templates_releases_pinned_frames \
    tests::release_with_a_live_template_is_refused_and_strands_nothing \
    tests::declared_template_frames_close_the_node_audit
expect_tests criu-cxl --lib \
    tests::hostile_pagemap_index_is_a_bad_image
expect_tests cxlfork-bench '--test telemetry' \
    telemetry_counters_reconcile_with_device_stats \
    node_telemetry_counters_reconcile_with_node_books \
    checkpoint_and_restore_retries_reach_node_telemetry \
    armed_availability_run_is_bit_identical_to_unarmed
expect_tests cxl-fault --lib \
    inject::tests::plan_fault_stream_is_pinned \
    inject::tests::region_ops_leave_the_plan_fault_stream_unchanged \
    crashpoint::tests::recorder_captures_the_ordered_sequence \
    crashpoint::tests::killer_fires_at_each_position_and_run_to_crash_catches_it \
    crashpoint::tests::a_kill_at_the_first_write_of_a_batch_writes_no_page_of_it \
    crashpoint::tests::killer_stays_quiet_after_it_fires \
    crashpoint::tests::create_commit_and_destroy_each_report_region_and_ignore_a_veto
expect_tests cxlfork --lib \
    tests::pull_backing_is_derived_from_the_leaves_on_first_use_and_shared \
    tests::default_config_is_bit_identical_to_explicit_serial \
    tests::restore_of_a_written_checkpoint_trips_the_debug_seal
expect_tests cxl-store --lib \
    index::tests::ordered_table_matches_a_btreemap_model_under_op_scripts \
    journal::tests::hostile_superblock_page_count_is_skipped_not_allocated \
    journal::tests::superblock_limit_is_refused_where_the_page_list_grows \
    journal::tests::wants_compaction_edges \
    journal::tests::tail_mirror_keeps_the_device_bytes_of_a_full_byte_stream \
    journal::tests::a_resumed_generation_appends_the_same_device_bytes_as_the_live_journal \
    tests::an_intern_stripes_its_fresh_pages_across_banks \
    tests::apply_is_total_a_record_that_meets_the_wrong_state_changes_nothing \
    tests::an_intern_that_cannot_be_journaled_is_rolled_back_whole \
    tests::a_nonzero_page_is_written_apart_from_the_zero_page
expect_tests cxlfork-bench '--test cross_mechanism' \
    every_mechanism_retries_a_transient_read_of_a_cxl_resident_child
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

echo '== benchmark report drift gate (telemetry armed) =='
# Regenerates every BENCH_<scenario>.json with telemetry armed,
# round-trips each through the parser, and fails if any byte differs
# from the committed file: perf changes must be committed explicitly.
# The scenarios audit every cluster they drive, so this also proves the
# audits never move a virtual-time result.
cargo run --release --quiet -p cxlfork-bench --bin bench_report -- --check

echo 'CI green.'
