//! Telemetry integration, end to end.
//!
//! Three properties matter and each gets its own test:
//!
//! 1. **Zero perturbation** — arming telemetry must not move a single
//!    virtual-time result: an armed seeded availability run produces a
//!    bit-identical [`cxlporter::PorterReport`] to an unarmed one.
//! 2. **Reconciliation** — the `cxl_mem.*` telemetry counters are
//!    mirrors of [`cxl_mem::CxlDeviceStats`]; after a full
//!    checkpoint/restore/invoke cycle the two books must agree entry
//!    for entry (and, under `--features check`, the cross-layer audits
//!    of the same run must stay clean).
//! 3. **Trace consistency** — checkpoint/restore phase child spans
//!    partition their parent span exactly, the `core.phase.*` counters
//!    equal the corresponding span durations, and the Chrome export
//!    parses back with one `X` event per span.
//!
//! The telemetry sink is process-global, so every test serializes on
//! [`TELEMETRY_LOCK`].

use std::sync::Arc;

use cxl_mem::CxlDevice;
use cxl_telemetry::{chrome_trace, Json, TelemetryData, TelemetrySession};
use cxlfork::CxlFork;
use cxlfork_bench::report::cold_start_report;
use cxlfork_bench::{run_availability, run_cold_start, Scenario, DEFAULT_STEADY_INVOCATIONS};
use node_os::fs::SharedFs;
use node_os::{Node, NodeConfig};
use rfork::{RemoteFork, RestoreOptions};
use simclock::LatencyModel;

#[allow(
    clippy::disallowed_types,
    reason = "test-only serialization of the process-global telemetry sink; never nested with a tracked lock"
)]
static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn armed_availability_run_is_bit_identical_to_unarmed() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let model = LatencyModel::calibrated();
    let unarmed = run_availability(7, 2, &model);

    let session = TelemetrySession::start();
    let armed = run_availability(7, 2, &model);
    let data = session.finish();

    assert_eq!(
        unarmed.report, armed.report,
        "arming telemetry moved a virtual-time result"
    );
    assert_eq!(unarmed.fault_stats, armed.fault_stats);
    assert_eq!(unarmed.trace_len, armed.trace_len);

    // ... and the armed run actually observed the workload.
    assert!(!data.registry.is_empty());
    assert!(!data.spans.is_empty());
    let e2e = data.registry.timer_across_nodes("cxlporter", "e2e");
    assert!(!e2e.is_empty(), "porter recorded no end-to-end samples");
    assert_eq!(
        data.registry
            .counter_across_nodes("cxlporter", "crashes_survived"),
        armed.report.crashes_survived
    );
}

#[test]
fn telemetry_counters_reconcile_with_device_stats() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let model = LatencyModel::calibrated();

    // The device is created *inside* the armed window, so its stats and
    // the telemetry counters cover exactly the same operations.
    let session = TelemetrySession::start();
    let device = Arc::new(CxlDevice::with_capacity_mib(4096));
    let rootfs = Arc::new(SharedFs::new());
    let mut nodes: Vec<Node> = (0..2)
        .map(|i| {
            Node::with_rootfs(
                NodeConfig::default()
                    .with_id(i)
                    .with_local_mem_mib(2048)
                    .with_model(model.clone()),
                Arc::clone(&device),
                Arc::clone(&rootfs),
            )
        })
        .collect();
    let mut node1 = nodes.pop().expect("two nodes");
    let mut node0 = nodes.pop().expect("two nodes");

    let spec = faas::by_name("Json").expect("Json is in the suite");
    let (parent, _) = faas::deploy_cold(&mut node0, &spec).expect("deploy fits");
    faas::warm_for_checkpoint(&mut node0, parent, &spec, DEFAULT_STEADY_INVOCATIONS)
        .expect("warm-up fits");
    let fork = CxlFork::new();
    let ckpt = fork
        .checkpoint(&mut node0, parent)
        .expect("checkpoint fits");
    let restored = fork
        .restore_with(&ckpt, &mut node1, RestoreOptions::mow())
        .expect("restore fits");
    faas::run_invocation(&mut node1, restored.pid, &spec, 0).expect("invocation");
    let data = session.finish();

    let stats = device.stats();
    assert!(stats.total_writes() > 0, "workload must hit the device");
    for (map, name) in [
        (&stats.reads, "reads"),
        (&stats.writes, "writes"),
        (&stats.bytes_read, "bytes_read"),
        (&stats.bytes_written, "bytes_written"),
    ] {
        for (&node, &expected) in map {
            assert_eq!(
                data.registry.counter("cxl_mem", name, Some(node.0)),
                expected,
                "cxl_mem.{name}{{node={}}} disagrees with device stats",
                node.0
            );
        }
        // Totals match too, so telemetry has no per-node key the device
        // does not know about.
        assert_eq!(
            data.registry.counter_across_nodes("cxl_mem", name),
            map.values().sum::<u64>(),
            "cxl_mem.{name} totals disagree"
        );
    }
    let allocated = data.registry.counter("cxl_mem", "pages_allocated", None);
    let freed = data.registry.counter("cxl_mem", "pages_freed", None);
    assert_eq!(
        allocated - freed,
        device.used_pages(),
        "page telemetry disagrees with the device's allocator"
    );

    // Under `--features check`, the very same run must also pass the
    // cross-layer audits: telemetry never perturbs the books it mirrors.
    #[cfg(feature = "check")]
    {
        let mut violations = Vec::new();
        violations.extend(cxl_check::audit_node(&node0));
        violations.extend(cxl_check::audit_node(&node1));
        violations.extend(cxl_check::audit_device(&device));
        violations.extend(cxl_check::check_lock_order());
        assert!(violations.is_empty(), "audit found: {violations:?}");
    }
}

/// Runs one CXLfork cold start with telemetry armed and returns the data.
fn armed_cold_start() -> TelemetryData {
    let model = LatencyModel::calibrated();
    let spec = faas::by_name("Float").expect("Float is in the suite");
    let session = TelemetrySession::start();
    run_cold_start(
        &spec,
        Scenario::cxlfork_default(),
        &model,
        DEFAULT_STEADY_INVOCATIONS,
    );
    session.finish()
}

#[test]
fn phase_spans_partition_their_parent_exactly() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let data = armed_cold_start();

    let mut parents_seen = 0;
    for parent in data
        .spans
        .iter()
        .filter(|s| s.name == "core.checkpoint" || s.name == "core.restore")
    {
        parents_seen += 1;
        let child_sum: u64 = data
            .spans
            .iter()
            .filter(|c| {
                c.track == parent.track
                    && c.depth == parent.depth + 1
                    && c.start >= parent.start
                    && c.end <= parent.end
                    && c.name.starts_with(&format!("{}.", parent.name))
            })
            .map(cxl_telemetry::SpanRecord::dur_ns)
            .sum();
        assert_eq!(
            child_sum,
            parent.dur_ns(),
            "{} children do not partition the parent",
            parent.name
        );
    }
    assert_eq!(parents_seen, 2, "one checkpoint and one restore expected");

    // The `core.phase.*` counters are the same nanoseconds the phase
    // spans cover, so BenchReport phases and Chrome-trace bars agree.
    for phase in cxlfork_bench::CORE_PHASES {
        let counter_ns = data
            .registry
            .counter("core", &format!("phase.{phase}"), None);
        let span_ns: u64 = data
            .spans
            .iter()
            .filter(|s| s.name == format!("core.{phase}"))
            .map(cxl_telemetry::SpanRecord::dur_ns)
            .sum();
        assert_eq!(counter_ns, span_ns, "phase {phase} drifted from its span");
    }
}

#[test]
fn chrome_trace_round_trips_every_span() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let data = armed_cold_start();

    let trace = chrome_trace(&data.spans);
    let doc = Json::parse(&trace).expect("exported trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len(), data.spans.len(), "one X event per span");

    // The exported durations carry the exact nanoseconds, so the trace
    // sums to the same virtual time the report sees.
    let trace_ns: u64 = complete
        .iter()
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("dur_ns"))
                .and_then(Json::as_u64)
                .expect("dur_ns arg")
        })
        .sum();
    let span_ns: u64 = data
        .spans
        .iter()
        .map(cxl_telemetry::SpanRecord::dur_ns)
        .sum();
    assert_eq!(trace_ns, span_ns);
}

#[test]
fn cold_start_report_is_valid_and_deterministic() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let model = LatencyModel::calibrated();
    let a = cold_start_report(&model);
    let b = cold_start_report(&model);

    a.report.validate().expect("report passes its own schema");
    assert_eq!(a.report, b.report, "report generation is not deterministic");
    assert_eq!(
        a.report.to_json(),
        b.report.to_json(),
        "serialized reports must be byte-identical"
    );

    let e2e = a.report.latency_named("e2e").expect("e2e summary");
    assert_eq!(
        e2e.samples, 15,
        "3 report functions x 5 scenarios = 15 cold starts"
    );
    assert!(a.report.phase_ns("checkpoint.copy_pages").unwrap() > 0);
    assert!(a.report.phase_ns("restore.prefetch").unwrap() > 0);
    assert!(a.report.virtual_ns > 0);

    let back = cxl_telemetry::BenchReport::from_json(&a.report.to_json()).expect("re-parses");
    assert_eq!(back, a.report);
}
