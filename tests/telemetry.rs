//! Telemetry integration, end to end.
//!
//! Three properties matter and each gets its own test:
//!
//! 1. **Zero perturbation** — arming telemetry must not move a single
//!    virtual-time result: an armed seeded availability run produces a
//!    bit-identical [`cxlporter::PorterReport`] to an unarmed one.
//! 2. **Reconciliation** — telemetry keeps no copy of a book; it
//!    publishes one. The `cxl_mem.*` counters are what the device's
//!    [`cxl_mem::CxlDeviceStats`] gained since a snapshot, published by
//!    whoever owns the device; the `node_os.*` counters are each node's
//!    [`Node::counters`], published once per access loop (a failed one
//!    included) and per checkpoint or restore retry; the `cxlporter.*`
//!    counters are the [`cxlporter::PorterReport`]s, published once per
//!    run. After a full checkpoint/restore/invoke cycle each pair of
//!    books must agree entry for entry (and the cross-layer audits of the
//!    same run must stay clean).
//! 3. **Trace consistency** — checkpoint/restore phase child spans
//!    partition their parent span exactly, the `core.phase.*` counters
//!    equal the corresponding span durations, and the Chrome export
//!    parses back with one `X` event per span.
//!
//! The telemetry sink is process-global, so every test serializes on
//! [`TELEMETRY_LOCK`].

use std::sync::Arc;

use cxl_fault::{FaultSchedule, Injector};
use cxl_mem::{CxlDevice, DeviceOp};
use cxl_telemetry::{chrome_trace, Json, TelemetryData, TelemetrySession};
use cxlfork::CxlFork;
use cxlfork_bench::report::cold_start_report;
use cxlfork_bench::{run_availability, run_cold_start, Scenario, DEFAULT_STEADY_INVOCATIONS};
use mitosis_cxl::MitosisCxl;
use node_os::fs::SharedFs;
use node_os::mm::FaultKind;
use node_os::{Node, NodeConfig, OsError};
use rfork::{RemoteFork, RestoreOptions};
use simclock::LatencyModel;

#[allow(
    clippy::disallowed_types,
    reason = "test-only serialization of the process-global telemetry sink; never nested with a tracked lock"
)]
static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A node with `mib` of local memory on the shared `device` and `rootfs`.
fn node(
    id: u32,
    mib: u64,
    model: &LatencyModel,
    device: &Arc<CxlDevice>,
    rootfs: &Arc<SharedFs>,
) -> Node {
    Node::with_rootfs(
        NodeConfig::default()
            .with_id(id)
            .with_local_mem_mib(mib)
            .with_model(model.clone()),
        Arc::clone(device),
        Arc::clone(rootfs),
    )
}

/// `n` nodes with 2 GiB of local memory each on one fresh device.
fn cluster(n: u32, model: &LatencyModel) -> (Arc<CxlDevice>, Arc<SharedFs>, Vec<Node>) {
    let device = Arc::new(CxlDevice::with_capacity_mib(4096));
    let rootfs = Arc::new(SharedFs::new());
    let nodes = (0..n)
        .map(|i| node(i, 2048, model, &device, &rootfs))
        .collect();
    (device, rootfs, nodes)
}

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
    // Each porter counter is the two coordinators' reports, published
    // once per run.
    let (a, b) = (&armed.report, &armed.successor);
    for (name, expected) in [
        ("warm_hits", a.warm_hits + b.warm_hits),
        ("restores", a.restores + b.restores),
        ("full_cold", a.full_cold + b.full_cold),
        ("checkpoints", a.checkpoints + b.checkpoints),
        ("image_misses", a.image_misses + b.image_misses),
        ("crashes_survived", a.crashes_survived + b.crashes_survived),
        ("redispatched", a.redispatched + b.redispatched),
        ("work_lost", a.work_lost + b.work_lost),
        ("recovered_images", a.recovered_images + b.recovered_images),
        (
            "journal_replay_ns",
            a.journal_replay_ns + b.journal_replay_ns,
        ),
    ] {
        assert_eq!(
            data.registry.counter("cxlporter", name, None),
            expected,
            "cxlporter.{name} disagrees with the porter reports"
        );
    }
    assert!(a.crashes_survived > 0 && b.recovered_images > 0);
}

#[test]
fn telemetry_counters_reconcile_with_device_stats() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let model = LatencyModel::calibrated();

    // The device is created, and carries traffic, *before* the armed
    // window: one checkpoint restored and invoked, plus a node that goes
    // quiet afterwards. The snapshot taken at arming is what telemetry
    // must not count.
    let (device, _, mut nodes) = cluster(2, &model);
    let mut node1 = nodes.pop().expect("two nodes");
    let mut node0 = nodes.pop().expect("two nodes");
    let spec = faas::by_name("Json").expect("Json is in the suite");
    let (parent, _) = faas::deploy_cold(&mut node0, &spec).expect("deploy fits");
    faas::warm_for_checkpoint(&mut node0, parent, &spec, DEFAULT_STEADY_INVOCATIONS)
        .expect("warm-up fits");
    let fork = CxlFork::new();
    let early = fork
        .checkpoint(&mut node0, parent)
        .expect("checkpoint fits");
    let restored = fork
        .restore_with(&early, &mut node1, RestoreOptions::mow())
        .expect("restore fits");
    faas::run_invocation(&mut node1, restored.pid, &spec, 0).expect("invocation");
    let quiet = cxl_mem::NodeId(9);
    let region = device.create_region("quiet");
    let page = device.alloc_page(region).expect("a page fits");
    device.write(page, 0, &[1, 2, 3], quiet).expect("live page");

    let before = device.stats();
    let used_before = device.used_pages();
    let session = TelemetrySession::start();
    let ckpt = fork
        .checkpoint(&mut node0, parent)
        .expect("checkpoint fits");
    let restored = fork
        .restore_with(&ckpt, &mut node1, RestoreOptions::mow())
        .expect("restore fits");
    faas::run_invocation(&mut node1, restored.pid, &spec, 1).expect("invocation");
    device.publish_counters_since(&before);
    let data = session.finish();

    let after = device.stats();
    assert!(
        before.total_writes() > 0 && after.total_writes() > before.total_writes(),
        "traffic must fall on both sides of the snapshot"
    );
    let maps = [
        ("reads", &after.reads, &before.reads),
        ("writes", &after.writes, &before.writes),
        ("bytes_read", &after.bytes_read, &before.bytes_read),
        ("bytes_written", &after.bytes_written, &before.bytes_written),
    ];
    for (name, now, was) in maps {
        for (node, n) in now {
            let delta = n - was.get(node).copied().unwrap_or(0);
            assert_eq!(
                data.registry.counter("cxl_mem", name, Some(node.0)),
                delta,
                "cxl_mem.{name}{{node={}}} disagrees with the book's delta",
                node.0
            );
        }
    }
    // Telemetry adds no key the device lacks, and none for a node whose
    // counts did not move (node 9 wrote only before the snapshot).
    for (key, value) in data.registry.counters() {
        if key.layer != "cxl_mem" {
            continue;
        }
        assert!(value > 0, "{key} was published as zero");
        assert_ne!(key.node, Some(quiet.0), "{key} did not move");
        let known = match key.node {
            Some(node) => maps.iter().any(|(name, now, _)| {
                *name == key.name && now.contains_key(&cxl_mem::NodeId(node))
            }),
            None => key.name == "pages_allocated" || key.name == "pages_freed",
        };
        assert!(known, "{key} is not in the device's book");
    }
    let allocated = data.registry.counter("cxl_mem", "pages_allocated", None);
    let freed = data.registry.counter("cxl_mem", "pages_freed", None);
    assert!(allocated > 0, "the checkpoint allocated inside the window");
    assert_eq!(
        allocated - freed,
        device.used_pages() - used_before,
        "page telemetry disagrees with the device's allocator"
    );

    // The very same run must also pass the cross-layer audits:
    // publishing never perturbs the books it reads.
    let mut violations = Vec::new();
    violations.extend(cxl_check::audit_node(&node0));
    violations.extend(cxl_check::audit_node(&node1));
    violations.extend(cxl_check::audit_device(&device));
    assert!(violations.is_empty(), "audit found: {violations:?}");
}

#[test]
fn node_telemetry_counters_reconcile_with_node_books() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let model = LatencyModel::calibrated();

    // The nodes are created *inside* the armed window, so their books
    // and the telemetry counters cover exactly the same accesses.
    let session = TelemetrySession::start();
    let (device, rootfs, mut nodes) = cluster(4, &model);

    // Cold deploy and a local-fork child on node 0, then CXLfork MoW and
    // MoA restores and a Mitosis restore, one per node, each invoked.
    let spec = faas::by_name("Json").expect("Json is in the suite");
    let (parent, _) = faas::deploy_cold(&mut nodes[0], &spec).expect("deploy fits");
    faas::warm_for_checkpoint(&mut nodes[0], parent, &spec, DEFAULT_STEADY_INVOCATIONS)
        .expect("warm-up fits");
    let (child, _) = nodes[0].local_fork(parent).expect("local fork fits");
    faas::run_invocation(&mut nodes[0], child, &spec, 1).expect("invocation");
    let fork = CxlFork::new();
    let ckpt = fork
        .checkpoint(&mut nodes[0], parent)
        .expect("checkpoint fits");
    for (node, opts) in [(1, RestoreOptions::mow()), (2, RestoreOptions::moa())] {
        let restored = fork
            .restore_with(&ckpt, &mut nodes[node], opts)
            .expect("restore fits");
        faas::run_invocation(&mut nodes[node], restored.pid, &spec, 0).expect("invocation");
    }
    let mitosis = MitosisCxl::new();
    let mckpt = mitosis
        .checkpoint(&mut nodes[0], parent)
        .expect("checkpoint fits");
    let restored = mitosis
        .restore(&mckpt, &mut nodes[3])
        .expect("restore fits");
    faas::run_invocation(&mut nodes[3], restored.pid, &spec, 0).expect("invocation");
    // A node too small for the function: its cold deploy runs out of
    // memory partway through the access loop, and what it did reach is
    // in the books and in telemetry alike.
    let mut small = node(4, 16, &model, &device, &rootfs);
    let err = faas::deploy_cold(&mut small, &spec).expect_err("the footprint does not fit");
    assert!(matches!(err, OsError::OutOfMemory { .. }), "got {err}");
    assert!(
        small.counters().llc_misses > 0,
        "the deploy failed before its first access"
    );
    nodes.push(small);
    let data = session.finish();

    let count = |name: &str, node: &Node| data.registry.counter("node_os", name, Some(node.id().0));
    for node in &nodes {
        let books = node.counters();
        for kind in FaultKind::ALL {
            assert_eq!(
                count(kind.counter_name(), node),
                books.faults(kind),
                "node_os.{}{{node={}}} disagrees with the node's books",
                kind.counter_name(),
                node.id().0
            );
        }
        assert_eq!(count("llc_hit", node), books.llc_hits);
        assert_eq!(count("llc_miss", node), books.llc_misses);
        assert_eq!(count("cxl_transient_retry", node), books.transient_retries);
    }
    // The scenario reached the flavours each restore path exists for.
    let total = |kind: FaultKind| nodes.iter().map(|n| n.counters().faults(kind)).sum::<u64>();
    for kind in [
        FaultKind::FileMajor,
        FaultKind::AnonZeroFill,
        FaultKind::LocalCow,
        FaultKind::CxlCow,
        FaultKind::CxlPull,
        FaultKind::RemotePull,
    ] {
        assert!(total(kind) > 0, "the scenario never took a {kind:?} fault");
    }
}

#[test]
fn checkpoint_and_restore_retries_reach_node_telemetry() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let model = LatencyModel::calibrated();

    let session = TelemetrySession::start();
    let (device, _, mut nodes) = cluster(2, &model);
    let spec = faas::by_name("Json").expect("Json is in the suite");
    let (parent, _) = faas::deploy_cold(&mut nodes[0], &spec).expect("deploy fits");
    faas::warm_for_checkpoint(&mut nodes[0], parent, &spec, DEFAULT_STEADY_INVOCATIONS)
        .expect("warm-up fits");

    // Two transient write errors early in the checkpoint's bulk copy,
    // then three transient read errors in the restore's prefetch.
    let fork = CxlFork::new();
    let arm = |op, burst| {
        let injector = Arc::new(Injector::from_schedule(
            FaultSchedule::new().transient_after(op, 0, burst),
        ));
        injector.arm(&device);
    };
    arm(DeviceOp::Write, 2);
    let ckpt = fork
        .checkpoint(&mut nodes[0], parent)
        .expect("checkpoint retries through");
    arm(DeviceOp::Read, 3);
    fork.restore_with(&ckpt, &mut nodes[1], RestoreOptions::mow())
        .expect("restore retries through");
    device.set_fault_hook(None);
    let data = session.finish();

    for (node, retried) in nodes.iter().zip([2, 3]) {
        let books = node.counters().transient_retries;
        assert_eq!(books, retried, "node {}", node.id().0);
        assert_eq!(
            data.registry
                .counter("node_os", "cxl_transient_retry", Some(node.id().0)),
            books,
            "node_os.cxl_transient_retry{{node={}}} disagrees with the node's books",
            node.id().0
        );
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
