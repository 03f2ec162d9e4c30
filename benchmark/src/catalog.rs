//! The metric catalogue: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; `--catalog` prints this table so the two can be
//! compared. README.md carries the meaning of each metric and which
//! end-to-end metric, on which workload, each per-layer metric should
//! move.

/// `(name, unit, better, bound)`. `bound` is the share of the parent's
/// median by which the metric may worsen before a change is rejected.
pub const END_TO_END: [(&str, &str, &str, f64); 10] = [
    ("setup_s", "s", "lower", 0.25),
    ("host_ops_per_s", "ops/s", "higher", 0.20),
    ("host_peak_rss_mib", "MiB", "lower", 0.10),
    ("sim_e2e_p50_us", "us", "lower", 0.005),
    ("sim_e2e_p99_us", "us", "lower", 0.005),
    ("sim_e2e_mean_us", "us", "lower", 0.005),
    ("sim_restore_mean_us", "us", "lower", 0.005),
    ("sim_checkpoint_mean_us", "us", "lower", 0.005),
    ("sim_local_mib", "MiB", "lower", 0.03),
    ("sim_cxl_mib", "MiB", "lower", 0.03),
];

/// `(name, unit, better)`, grouped by layer (= crate name).
pub const PER_LAYER: [(&str, &str, &str); 86] = [
    // cxl_mem — probe: 64 k-page device, 256-page batches, per shard count
    ("cxl_mem.read_pages.s1.host_ns_per_page", "ns", "lower"),
    ("cxl_mem.read_pages.s8.host_ns_per_page", "ns", "lower"),
    ("cxl_mem.read_pages.s16.host_ns_per_page", "ns", "lower"),
    ("cxl_mem.write_pages.s1.host_ns_per_page", "ns", "lower"),
    ("cxl_mem.write_pages.s8.host_ns_per_page", "ns", "lower"),
    ("cxl_mem.write_pages.s16.host_ns_per_page", "ns", "lower"),
    (
        "cxl_mem.alloc_free_batch.s1.host_ns_per_page",
        "ns",
        "lower",
    ),
    (
        "cxl_mem.alloc_free_batch.s8.host_ns_per_page",
        "ns",
        "lower",
    ),
    (
        "cxl_mem.alloc_free_batch.s16.host_ns_per_page",
        "ns",
        "lower",
    ),
    (
        "cxl_mem.fingerprint_pages.s1.host_ns_per_page",
        "ns",
        "lower",
    ),
    (
        "cxl_mem.fingerprint_pages.s8.host_ns_per_page",
        "ns",
        "lower",
    ),
    (
        "cxl_mem.fingerprint_pages.s16.host_ns_per_page",
        "ns",
        "lower",
    ),
    // cxl_mem — per workload, from `CxlDeviceStats`
    ("cxl_mem.page_reads", "count", "lower"),
    ("cxl_mem.page_writes", "count", "lower"),
    ("cxl_mem.used_pages_end", "count", "lower"),
    // cxl_store — probe: one 4 k-page image interned twice, then swept
    ("cxl_store.intern_hit.host_ns_per_page", "ns", "lower"),
    ("cxl_store.intern_miss.host_ns_per_page", "ns", "lower"),
    ("cxl_store.commit_image.host_us", "us", "lower"),
    ("cxl_store.release_image.host_us", "us", "lower"),
    ("cxl_store.evict.host_us_per_image", "us", "lower"),
    // cxl_store — per workload, from `StoreStats`
    ("cxl_store.interned_pages", "count", "higher"),
    ("cxl_store.deduped_pages", "count", "higher"),
    ("cxl_store.fresh_pages", "count", "lower"),
    ("cxl_store.evicted_images", "count", "lower"),
    ("cxl_store.journal_pages_written", "count", "lower"),
    ("cxl_store.dedup_ratio", "ratio", "higher"),
    // core — harness spans
    ("core.checkpoint.host_us_per_mib", "us", "lower"),
    ("core.restore.host_us", "us", "lower"),
    ("core.release.host_us", "us", "lower"),
    // core — armed telemetry, totals over the traced rep
    ("core.sim_us.checkpoint.copy_pages", "us", "lower"),
    ("core.sim_us.checkpoint.rebase", "us", "lower"),
    ("core.sim_us.checkpoint.serialize", "us", "lower"),
    ("core.sim_us.checkpoint.commit_journal", "us", "lower"),
    ("core.sim_us.checkpoint.retry_backoff", "us", "lower"),
    ("core.sim_us.restore.global_redo", "us", "lower"),
    ("core.sim_us.restore.attach", "us", "lower"),
    ("core.sim_us.restore.prefetch", "us", "lower"),
    ("core.sim_us.restore.retry_backoff", "us", "lower"),
    // faas / node_os — harness spans and `Node::counters`
    ("faas.run_invocation.cold.host_us", "us", "lower"),
    ("faas.run_invocation.warm.host_us", "us", "lower"),
    ("faas.deploy_cold.host_ms", "ms", "lower"),
    ("faas.warm_for_checkpoint.host_ms", "ms", "lower"),
    ("node_os.access.host_ns", "ns", "lower"),
    ("node_os.kill.host_us", "us", "lower"),
    ("node_os.faults.upgrade_in_place", "count", "lower"),
    ("node_os.faults.anon_zero_fill", "count", "lower"),
    ("node_os.faults.file_major", "count", "lower"),
    ("node_os.faults.file_minor", "count", "lower"),
    ("node_os.faults.local_cow", "count", "lower"),
    ("node_os.faults.cxl_cow", "count", "lower"),
    ("node_os.faults.cxl_pull", "count", "lower"),
    ("node_os.faults.remote_pull", "count", "lower"),
    // cxlporter — `PorterReport`, harness span, armed telemetry
    ("cxlporter.run_trace.host_us_per_invocation", "us", "lower"),
    ("cxlporter.warm_share", "ratio", "higher"),
    ("cxlporter.restore_share", "ratio", "lower"),
    ("cxlporter.cold_share", "ratio", "lower"),
    ("cxlporter.recycles", "count", "lower"),
    ("cxlporter.checkpoints", "count", "lower"),
    ("cxlporter.checkpoint_reclaims", "count", "lower"),
    ("cxlporter.image_evictions", "count", "lower"),
    ("cxlporter.image_misses", "count", "lower"),
    ("cxlporter.fair_deferrals", "count", "lower"),
    ("cxlporter.crashes_survived", "count", "higher"),
    ("cxlporter.redispatched", "count", "lower"),
    ("cxlporter.device_retries", "count", "lower"),
    ("cxlporter.sim_us.queue_wait_mean", "us", "lower"),
    ("cxlporter.sim_us.restore_mean", "us", "lower"),
    // cxl_sim
    ("cxl_sim.events", "count", "lower"),
    ("cxl_sim.queue.host_ns_per_event", "ns", "lower"),
    // trace_gen
    ("trace_gen.generate.host_ms", "ms", "lower"),
    ("trace_gen.invocations", "count", "higher"),
    // cxl_fabric
    ("cxl_fabric.charge.host_ns", "ns", "lower"),
    ("cxl_fabric.sim_us.queue_delay_total", "us", "lower"),
    ("cxl_fabric.peak_port_util_permille", "count", "lower"),
    // cxl_fault
    ("cxl_fault.transients_fired", "count", "lower"),
    // cxl_telemetry / harness
    ("cxl_telemetry.spans", "count", "lower"),
    ("cxl_telemetry.armed_overhead_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.host_spans", "count", "lower"),
    // criu_cxl / mitosis_cxl — accuracy against EXPERIMENTS.md Fig. 7a
    ("criu_cxl.sim_coldstart_ratio", "ratio", "lower"),
    ("mitosis_cxl.sim_coldstart_ratio", "ratio", "lower"),
    ("accuracy.criu_ratio_err_pct", "%", "lower"),
    ("accuracy.mitosis_ratio_err_pct", "%", "lower"),
    ("accuracy.heldback.criu_ratio_err_pct", "%", "lower"),
    ("accuracy.heldback.mitosis_ratio_err_pct", "%", "lower"),
    ("bench.noisy_reps", "count", "lower"),
];
