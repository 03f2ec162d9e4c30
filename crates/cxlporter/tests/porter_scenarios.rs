//! Deterministic autoscaler scenarios: ghost-pool accounting, dynamic
//! hybrid promotion, measurement-window boundaries, and cross-node
//! balancing. Every trace ends in the cluster audit ([`run_audited`]).

use std::collections::BTreeSet;
use std::sync::Arc;

use cxl_check::Violation;
use cxl_fault::{FaultPlan, Injector};
use cxl_mem::NodeId;
use cxlfork::CxlFork;
use cxlporter::{Cluster, CxlPorter, PorterConfig, PorterReport};
use rfork::RemoteFork;
use simclock::{LatencyModel, SimDuration, SimTime};
use trace_gen::Invocation;

fn at(ns: u64, function: &str) -> Invocation {
    Invocation {
        time: SimTime::from_nanos(ns),
        function: function.into(),
        owner: 0,
    }
}

const SEC: u64 = 1_000_000_000;

/// The cluster audit of `p`, each node's container pins declared
/// through [`CxlPorter::pinned_frames`].
fn audit<M: RemoteFork>(p: &CxlPorter<M>) -> Vec<Violation> {
    let cluster = &p.cluster;
    cxl_check::audit_cluster(
        cluster
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node, p.pinned_frames(i))),
        &cluster.device,
        p.image_store().map(|s| &**s),
        cluster.live_nodes().map(|i| NodeId(i as u32)),
    )
}

/// Runs `trace`, then asserts [`audit`] finds every ledger balanced.
fn run_audited<M: RemoteFork>(p: &mut CxlPorter<M>, trace: &[Invocation]) -> PorterReport {
    let report = p.run_trace(trace);
    let violations = audit(p);
    assert!(
        violations.is_empty(),
        "cluster invariants violated after trace: {violations:?}"
    );
    report
}

fn porter(config: PorterConfig, mem_mib: u64) -> CxlPorter<CxlFork> {
    let cluster = Cluster::new(2, mem_mib, 8192, LatencyModel::calibrated());
    CxlPorter::new(cluster, CxlFork::new(), config)
}

/// Sequential warm phase reaching `n` invocations of `f`.
fn warm_phase(f: &str, n: u64) -> Vec<Invocation> {
    (0..n).map(|i| at(i * SEC, f)).collect()
}

#[test]
fn burst_concurrency_equals_instance_count() {
    // After a checkpoint exists, a k-wide simultaneous burst is served by
    // exactly 1 warm instance + (k-1) restores, and afterwards k
    // instances are live.
    let mut p = porter(
        PorterConfig {
            checkpoint_after: 3,
            ..PorterConfig::cxlfork_dynamic()
        },
        4096,
    );
    let mut trace = warm_phase("Json", 4);
    for i in 0..6 {
        trace.push(at(6 * SEC + i, "Json"));
    }
    let report = run_audited(&mut p, &trace);
    assert_eq!(report.full_cold, 1);
    assert_eq!(report.restores, 5);
    assert_eq!(p.live_instances(), 6);
}

#[test]
fn device_retries_count_one_run_each() {
    // Two back-to-back runs on one porter over a device that fires
    // seeded transient errors: each report counts its own run's retries,
    // so together they account for the nodes' lifetime books exactly.
    let mut p = porter(
        PorterConfig {
            checkpoint_after: 3,
            ..PorterConfig::cxlfork_dynamic()
        },
        4096,
    );
    let injector = Arc::new(Injector::from_plan(
        FaultPlan::new(7).with_transient_rate(4e-4),
    ));
    injector.arm(&p.cluster.device);
    let mut first = warm_phase("Json", 4);
    first.extend((0..12).map(|i| at(6 * SEC + i, "Json")));
    let second: Vec<Invocation> = (0..24).map(|i| at(20 * SEC + i, "Json")).collect();
    let r1 = run_audited(&mut p, &first);
    let r2 = run_audited(&mut p, &second);
    let books: u64 = p
        .cluster
        .nodes
        .iter()
        .map(|n| n.counters().transient_retries)
        .sum();
    assert!(
        r1.device_retries > 0 && r2.device_retries > 0,
        "both runs must see retries: {} then {}",
        r1.device_retries,
        r2.device_retries
    );
    assert_eq!(r1.device_retries + r2.device_retries, books);
}

#[test]
fn dynamic_tiering_promotes_thrashing_functions_to_hybrid() {
    // BFS restored under MoW runs warm invocations far above its local
    // speed; after enough SLO breaches, new restores switch to hybrid.
    let mut p = porter(
        PorterConfig {
            checkpoint_after: 2,
            keep_alive: SimDuration::from_secs(3),
            ..PorterConfig::cxlfork_dynamic()
        },
        8192,
    );
    let mut trace = warm_phase("BFS", 3);
    // Alternate: bursts (forcing restores) then warm hits on the restored
    // (slow) instances, repeatedly, so breaches accumulate.
    let mut t = 5 * SEC;
    for _ in 0..6 {
        trace.push(at(t, "BFS"));
        trace.push(at(t + 1, "BFS"));
        t += SEC; // warm re-use of the restored instances
        trace.push(at(t, "BFS"));
        trace.push(at(t + 1, "BFS"));
        t += 4 * SEC; // beyond keep-alive: instances evicted
    }
    let report = run_audited(&mut p, &trace);
    assert!(report.restores >= 4, "{report:?}");
    assert!(
        report.hybrid_restores > 0,
        "SLO breaches must promote BFS to hybrid: {report:?}"
    );
}

#[test]
fn measurement_window_is_half_open() {
    let mut p = porter(PorterConfig::cxlfork_dynamic(), 4096);
    p.set_measure_from(SimTime::from_nanos(2 * SEC));
    // One request exactly at the boundary (measured), one before (not).
    let trace = vec![at(SEC, "Float"), at(2 * SEC, "Float")];
    let report = run_audited(&mut p, &trace);
    assert_eq!(report.overall.len(), 1);
}

#[test]
fn cold_starts_balance_across_nodes() {
    // Simultaneous cold deployments of two functions land on different
    // nodes (least-loaded placement).
    let mut p = porter(PorterConfig::cxlfork_dynamic(), 4096);
    let trace = vec![at(0, "Float"), at(1, "Json")];
    let report = run_audited(&mut p, &trace);
    assert_eq!(report.full_cold, 2);
    let peaks = &report.peak_local_pages;
    assert!(peaks.iter().all(|p| *p > 0), "both nodes used: {peaks:?}");
}

#[test]
fn report_accounting_is_conserved() {
    let mut p = porter(
        PorterConfig {
            checkpoint_after: 2,
            ..PorterConfig::cxlfork_dynamic()
        },
        4096,
    );
    let mut trace = warm_phase("Pyaes", 3);
    for i in 0..4 {
        trace.push(at(5 * SEC + i, "Pyaes"));
    }
    trace.push(at(8 * SEC, "Pyaes"));
    let report = run_audited(&mut p, &trace);
    assert_eq!(
        report.warm_hits + report.restores + report.full_cold + report.dropped,
        trace.len() as u64
    );
    assert_eq!(
        report.overall.len() as u64,
        trace.len() as u64 - report.dropped
    );
    assert_eq!(report.checkpoints, 1);
    assert!(report.final_cxl_pages > 0);
}

/// A porter whose mechanism routes checkpoint data pages through a
/// content-addressed image store shared with the porter itself.
fn store_porter(config: PorterConfig, mem_mib: u64) -> CxlPorter<CxlFork> {
    use std::sync::Arc;
    let cluster = Cluster::new(2, mem_mib, 8192, LatencyModel::calibrated());
    let store = Arc::new(cxl_store::Store::new(Arc::clone(&cluster.device)));
    CxlPorter::new(cluster, CxlFork::with_store(Arc::clone(&store)), config).with_image_store(store)
}

/// The Table 1 suite with `overlap` of every function's runtime pages
/// drawn from shared runtime images.
fn overlapped_suite(overlap: f64) -> faas::Catalog {
    faas::Catalog::from_specs(
        faas::suite()
            .into_iter()
            .map(|spec| spec.with_template_overlap(overlap)),
    )
}

/// `Float` and `Json` alternating one second apart, three of each.
fn float_json_trace() -> Vec<Invocation> {
    (0..3)
        .flat_map(|i| [at(2 * i * SEC, "Float"), at((2 * i + 1) * SEC, "Json")])
        .collect()
}

fn checkpoint_after_two() -> PorterConfig {
    PorterConfig {
        checkpoint_after: 2,
        ..PorterConfig::cxlfork_dynamic()
    }
}

#[test]
fn catalog_template_overlap_reaches_the_deployments() {
    // The porter deploys a spec exactly as the catalog holds it: with
    // half of each runtime shared, Float's and Json's checkpoints carry
    // identical library pages the store deduplicates; fully private
    // layouts share less.
    let deduped = |overlap: f64| {
        let mut p =
            store_porter(checkpoint_after_two(), 4096).with_catalog(overlapped_suite(overlap));
        let report = run_audited(&mut p, &float_json_trace());
        assert_eq!(report.checkpoints, 2);
        report.store_deduped_pages
    };
    let (shared, private) = (deduped(0.5), deduped(0.0));
    assert!(
        shared > private,
        "overlap 0.5 deduped {shared} pages, overlap 0 {private}"
    );
}

#[test]
fn shared_templates_dedup_device_pages_below_the_private_baseline() {
    // Two functions whose runtime layouts share half their library pages
    // (catalog specs at template_overlap = 0.5) checkpoint identical
    // page content; the content-addressed store resolves those to one
    // device page each, so the device ends the run measurably lighter
    // than the private no-store baseline on the identical trace.
    let trace = float_json_trace();

    let mut plain = porter(checkpoint_after_two(), 4096).with_catalog(overlapped_suite(0.5));
    let plain_report = run_audited(&mut plain, &trace);
    let plain_used = plain.cluster.device.used_pages();

    let mut deduped =
        store_porter(checkpoint_after_two(), 4096).with_catalog(overlapped_suite(0.5));
    let store_report = run_audited(&mut deduped, &trace);
    let store_used = deduped.cluster.device.used_pages();

    assert_eq!(plain_report.checkpoints, 2);
    assert_eq!(store_report.checkpoints, 2);
    assert_eq!(plain_report.overall.len(), store_report.overall.len());
    assert!(store_report.store_deduped_pages > 0, "{store_report:?}");
    assert_eq!(plain_report.store_deduped_pages, 0);
    assert!(
        store_used < plain_used,
        "store must shrink the device footprint: {store_used} vs {plain_used}"
    );
}

#[test]
fn evicted_image_turns_the_next_restore_into_a_cold_redeploy() {
    use std::sync::Arc;
    let mut p = store_porter(
        PorterConfig {
            checkpoint_after: 2,
            keep_alive: SimDuration::from_secs(3),
            ..PorterConfig::cxlfork_dynamic()
        },
        4096,
    );
    let warm = warm_phase("Json", 4);
    let report = run_audited(&mut p, &warm);
    assert_eq!(report.checkpoints, 1);
    assert_eq!(p.stored_checkpoints(), 1);

    // Evict the image behind the porter's back (as the capacity GC
    // would after its owner node crashed): strip the owner lease, then
    // sweep with a lease table that considers every holder dead.
    let istore = Arc::clone(p.image_store().expect("attached above"));
    let store = p.store();
    let [("Json", entry)] = store[..] else {
        panic!("only Json is checkpointed: {store:?}");
    };
    let image = cxl_store::ImageId(
        p.mechanism()
            .image_id(&entry.checkpoint)
            .expect("store-backed checkpoints carry an image"),
    );
    istore
        .set_lease(image, None)
        .expect("published image is committed");
    let dead_leases = cxl_fault::LeaseTable::new(SimDuration::from_secs(1));
    let evicted = istore.evict_for(u64::MAX, &dead_leases, SimTime::from_nanos(100 * SEC));
    assert_eq!(evicted.images, 1);
    assert!(!istore.is_live(image));

    // Long after keep-alive expiry no warm instance survives, so the
    // next request goes to cold start, detects the miss, drops the
    // stale checkpoint, and re-deploys cold instead of failing.
    let report = run_audited(&mut p, &[at(100 * SEC, "Json")]);
    assert_eq!(report.image_misses, 1);
    assert_eq!(report.full_cold, 1);
    assert_eq!(report.restores, 0);
    assert_eq!(report.dropped, 0);
    assert_eq!(p.stored_checkpoints(), 0);
}

#[test]
fn cluster_audit_flags_container_pins_unless_the_accessor_declares_them() {
    // Ghost containers pin their bare footprint outside any process, and
    // so do the containers of live instances. Undeclared, every such
    // frame is a leak or a refcount skew; declared through
    // `pinned_frames`, the books close.
    let mut p = porter(PorterConfig::cxlfork_dynamic(), 4096);
    run_audited(&mut p, &warm_phase("Float", 3));
    assert!(p.live_instances() > 0);
    let cluster = &p.cluster;
    let pinned: BTreeSet<(u32, u64)> = (0..cluster.nodes.len())
        .flat_map(|i| p.pinned_frames(i).map(move |pfn| (i as u32, pfn.0)))
        .collect();
    assert!(!pinned.is_empty(), "ghost pools pin frames");

    let undeclared = cxl_check::audit_cluster(
        cluster
            .nodes
            .iter()
            .map(|node| (node, std::iter::empty::<node_os::Pfn>())),
        &cluster.device,
        None,
        cluster.live_nodes().map(|i| NodeId(i as u32)),
    );
    let flagged: BTreeSet<(u32, u64)> = undeclared
        .iter()
        .map(|v| match v {
            Violation::FrameLeak { node, pfn, .. } | Violation::RefcountSkew { node, pfn, .. } => {
                (node.0, pfn.0)
            }
            other => panic!("only container pins may be flagged, got {other}"),
        })
        .collect();
    assert_eq!(flagged, pinned);
    assert_eq!(audit(&p), Vec::new());
}
