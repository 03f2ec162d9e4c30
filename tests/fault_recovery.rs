//! Fault injection and node-failure recovery, end to end.
//!
//! Three properties matter and each gets its own test:
//!
//! 1. **Determinism under faults** — the same trace with the same fault
//!    and crash seeds must produce a bit-identical [`PorterReport`];
//!    changing the seed must move where the faults land.
//! 2. **Failover correctness** — when nodes crash mid-trace (including
//!    mid-checkpoint), every invocation either completes on a surviving
//!    node or is counted as lost work, with zero double-executions, and
//!    no torn staging region outlives the run.
//! 3. **Post-recovery consistency** — the cross-layer audits of the
//!    surviving nodes and the shared device report zero violations
//!    after recovery (every trace runs through [`run_audited`]).
//! 4. **Coordinator failover** — when the whole coordinator dies (every
//!    DRAM structure gone, only the device survives), a successor
//!    replays the store journal, adopts the recovered images, and
//!    re-leases them instead of re-deploying cold.
//!
//! The seed is overridable with `CXLFAULT_SEED` so CI can sweep it.

mod common;

use std::sync::Arc;

use common::run_audited;
use cxl_fault::{CrashSchedule, FaultPlan, Injector, NodeCrash};
use cxl_mem::{CxlDevice, NodeId, PageData};
use cxlfork_bench::run_availability;
use cxlporter::{Cluster, CxlPorter, PorterConfig, PorterReport};
use simclock::{LatencyModel, SimDuration, SimTime};
use trace_gen::Invocation;

fn seed() -> u64 {
    std::env::var("CXLFAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

#[test]
fn same_seed_availability_runs_are_bit_identical() {
    let model = LatencyModel::calibrated();
    let a = run_availability(seed(), 2, &model);
    let b = run_availability(seed(), 2, &model);
    assert_eq!(a.report, b.report, "seed {} diverged", seed());
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.trace_len, b.trace_len);
    assert!(a.accounting_balances(), "requests leaked or double-ran");
}

#[test]
fn different_fault_seeds_move_the_faults() {
    // Drive an identical device op sequence under two injector seeds:
    // the same seed must fault the same ops, a different seed must not.
    let run = |plan_seed: u64| {
        let device = Arc::new(CxlDevice::with_capacity_mib(64));
        let injector = Arc::new(Injector::from_plan(
            FaultPlan::new(plan_seed).with_transient_rate(0.05),
        ));
        injector.arm(&device);
        let region = device.create_region("r");
        let pages: Vec<_> = (0..64)
            .map(|_| device.alloc_page(region).expect("fits"))
            .collect();
        for p in &pages {
            let _ = device.write_page(*p, PageData::pattern(1), NodeId(0));
        }
        for p in &pages {
            let _ = device.read_page(*p, NodeId(0));
        }
        (injector.fault_log(), injector.stats())
    };
    let (log_a, stats_a) = run(seed());
    let (log_b, stats_b) = run(seed());
    assert_eq!(log_a, log_b, "same seed, same op sequence, same faults");
    assert_eq!(stats_a, stats_b);
    assert!(stats_a.transients > 0, "rate high enough to fire at all");
    let (log_c, _) = run(seed() + 1);
    assert_ne!(log_a, log_c, "a different seed must move the faults");

    // Crash schedules are seeded the same way.
    let dur = SimDuration::from_secs(10);
    assert_eq!(
        CrashSchedule::from_plan(seed(), 3, dur, 4),
        CrashSchedule::from_plan(seed(), 3, dur, 4)
    );
    assert_ne!(
        CrashSchedule::from_plan(seed(), 3, dur, 4),
        CrashSchedule::from_plan(seed() + 1, 3, dur, 4)
    );
}

/// A trace that keeps all three nodes busy: a steady drip of requests
/// plus synchronized bursts right before each scheduled crash, so the
/// crashed node is guaranteed to hold in-flight work.
fn failover_trace() -> Vec<Invocation> {
    let mut trace = Vec::new();
    let functions = ["Float", "Json", "Pyaes"];
    for tick in 0..100u64 {
        let t = SimTime::ZERO + SimDuration::from_millis(tick * 100);
        trace.push(Invocation {
            time: t,
            function: functions[(tick % 3) as usize].into(),
            owner: 0,
        });
    }
    // Bursts at t = 3 s and t = 6 s: twelve simultaneous arrivals force
    // instances onto every node, all busy when the crash lands 1 ms
    // later.
    for burst_at in [3_000u64, 6_000] {
        let t = SimTime::ZERO + SimDuration::from_millis(burst_at);
        for i in 0..12u64 {
            trace.push(Invocation {
                time: t,
                function: functions[(i % 3) as usize].into(),
                owner: 0,
            });
        }
    }
    trace.sort_by(|a, b| a.time.cmp(&b.time).then(a.function.cmp(&b.function)));
    trace
}

fn run_failover() -> (PorterReport, u64, bool) {
    let cluster = Cluster::new(3, 2048, 8192, LatencyModel::calibrated());
    let injector = Arc::new(Injector::from_plan(
        FaultPlan::new(seed()).with_transient_rate(1e-4),
    ));
    injector.arm(&cluster.device);
    let mut porter = CxlPorter::new(
        cluster,
        cxlfork::CxlFork::new(),
        PorterConfig {
            checkpoint_after: 2,
            ..PorterConfig::cxlfork_dynamic()
        },
    );
    // Node 2 dies mid-checkpoint at 3.001 s, node 1 at 6.001 s — both
    // one millisecond into a twelve-request burst, so each holds
    // in-flight invocations at the instant it dies.
    porter.set_crash_schedule(CrashSchedule::from_events(vec![
        NodeCrash {
            node: 2,
            at: SimTime::ZERO + SimDuration::from_millis(3_001),
            mid_checkpoint: true,
        },
        NodeCrash {
            node: 1,
            at: SimTime::ZERO + SimDuration::from_millis(6_001),
            mid_checkpoint: false,
        },
    ]));
    let trace = failover_trace();
    // Post-recovery consistency: the surviving nodes and the shared
    // device must audit clean (the dead nodes were torn down and must
    // not have leaked into the shared books either).
    let report = run_audited(&mut porter, &trace);

    let staging_empty = porter.cluster.device.staging_regions().is_empty();

    (report, trace.len() as u64, staging_empty)
}

#[test]
fn node_crashes_fail_over_to_survivors() {
    let (report, trace_len, staging_empty) = run_failover();

    assert_eq!(report.crashes_survived, 2, "both scheduled crashes fired");
    assert!(
        report.redispatched >= 1,
        "the bursts guarantee in-flight work on the crashed nodes"
    );
    // Exactly-once: every trace request and every re-dispatch lands in
    // precisely one outcome bucket — no loss without accounting, no
    // double execution.
    assert_eq!(
        report.warm_hits + report.restores + report.full_cold + report.dropped,
        trace_len + report.redispatched,
        "request accounting must balance"
    );
    // The mid-checkpoint crash left a torn staging region; two-phase
    // commit kept it un-restorable and the lease GC collected it.
    assert!(report.orphan_regions_reclaimed >= 1);
    assert!(report.orphan_pages_reclaimed >= 1);
    assert!(
        staging_empty,
        "no staging region may outlive the run's recovery"
    );
    // Survivors kept serving: the run completed far more requests than
    // it lost.
    let completed = report.warm_hits + report.restores + report.full_cold;
    assert!(completed > trace_len / 2);
}

#[test]
fn failover_runs_are_bit_identical() {
    let (a, _, _) = run_failover();
    let (b, _, _) = run_failover();
    assert_eq!(a, b, "failover must be deterministic for a fixed seed");
}

fn durable_config() -> cxl_store::StoreConfig {
    cxl_store::StoreConfig {
        durable: true,
        ..cxl_store::StoreConfig::default()
    }
}

/// One full coordinator-failover cycle: coordinator A publishes durable
/// images, dies entirely (porter, object store, checkpoint handles, and
/// the store's DRAM index all dropped — only the device survives), then
/// successor B attaches to the same device, replays the journal, and
/// adopts the recovered store.
fn run_coordinator_failover() -> (
    PorterReport,
    cxl_store::RecoveryReport,
    Vec<cxl_store::ImageId>,
) {
    // Coordinator A: durable store wired through both the mechanism
    // (checkpoints intern through it) and the porter (lease + GC).
    let cluster = Cluster::new(3, 2048, 8192, LatencyModel::calibrated());
    let device = Arc::clone(&cluster.device);
    let store = Arc::new(cxl_store::Store::with_config(
        Arc::clone(&device),
        durable_config(),
    ));
    let mut porter = CxlPorter::new(
        cluster,
        cxlfork::CxlFork::with_store(Arc::clone(&store)),
        PorterConfig {
            checkpoint_after: 2,
            ..PorterConfig::cxlfork_dynamic()
        },
    )
    .with_image_store(Arc::clone(&store));
    let report_a = run_audited(&mut porter, &failover_trace());
    assert!(
        report_a.checkpoints >= 1,
        "coordinator A must publish images"
    );
    let published = store.images();
    assert!(
        !published.is_empty(),
        "published images must be live at death"
    );

    // The coordinator dies: every DRAM structure goes with it.
    drop(porter);
    drop(store);

    // Successor B: same device, fresh DRAM. Recover the store from the
    // journal, wire the same Arc into mechanism and porter, adopt.
    let (recovered, recovery) =
        cxl_store::Store::recover(Arc::clone(&device), durable_config(), NodeId(0));
    let recovered = Arc::new(recovered);
    let cluster_b = Cluster::with_device(3, 2048, Arc::clone(&device), LatencyModel::calibrated());
    let mut porter_b = CxlPorter::new(
        cluster_b,
        cxlfork::CxlFork::with_store(Arc::clone(&recovered)),
        PorterConfig {
            checkpoint_after: 2,
            ..PorterConfig::cxlfork_dynamic()
        },
    );
    porter_b.adopt_recovered_store(Arc::clone(&recovered), &recovery, NodeId(0));

    // Every recovered image is re-leased to the adopter — protected
    // from the watermark GC until its function re-registers.
    let adopted = recovered.images();
    assert_eq!(
        adopted, published,
        "recovery must rebuild A's exact catalog"
    );
    for &image in &adopted {
        let meta = recovered
            .image_meta(image)
            .expect("recovered image is live");
        assert_eq!(
            meta.lease,
            Some(NodeId(0)),
            "recovered image {image:?} must be re-leased to the adopter"
        );
    }

    // The successor serves the same workload; re-checkpoints dedup
    // against the recovered index instead of re-copying every page.
    let report_b = run_audited(&mut porter_b, &failover_trace());
    let violations = cxl_check::audit_journal(&recovered);
    assert!(
        violations.is_empty(),
        "post-adoption journal audit failed: {violations:?}"
    );

    (report_b, recovery, adopted)
}

#[test]
fn coordinator_crash_adopts_and_re_leases_recovered_images() {
    let (report, recovery, adopted) = run_coordinator_failover();

    assert!(recovery.committed_images >= 1, "journal must replay images");
    assert_eq!(recovery.committed_images as usize, adopted.len());
    assert_eq!(
        recovery.fingerprint_mismatches, 0,
        "recovered index must pass the fingerprint cross-check"
    );
    assert!(recovery.pages_scanned > 0, "replay must read the journal");

    // Adoption accounting: the report carries the recovered-image count
    // and the virtual time the adopter spent replaying the journal.
    assert_eq!(report.recovered_images, recovery.committed_images);
    assert!(
        report.journal_replay_ns > 0,
        "journal replay must cost virtual time"
    );
    // Warm continuation: the successor's re-checkpoints dedup against
    // the recovered index rather than re-copying every page cold.
    assert!(
        report.store_deduped_pages > 0,
        "re-checkpoints must dedup against the recovered store"
    );
}

#[test]
fn coordinator_failover_is_bit_identical() {
    let (ra, va, ia) = run_coordinator_failover();
    let (rb, vb, ib) = run_coordinator_failover();
    assert_eq!(ra, rb, "successor report must be deterministic");
    assert_eq!(va, vb, "recovery report must be deterministic");
    assert_eq!(ia, ib, "adopted catalog must be deterministic");
}
