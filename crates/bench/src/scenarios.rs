//! Shared experiment scenarios.
//!
//! The evaluation's unit experiment (§6.2 "Performance of CXLfork") is:
//! deploy a function on a source node, invoke it until steady state
//! (checkpoint after the 16th invocation, §5), checkpoint it, then
//! remote-fork it to a *different* node to serve an incoming request and
//! measure the cold-start execution (restore + page faults + execution)
//! and the local memory the child consumes. Functions run unsandboxed
//! (no containers) in these scenarios, exactly as in §6.2.

use std::sync::Arc;

use criu_cxl::CriuCxl;
use cxl_mem::{CxlDevice, CxlFs, NodeId};
use cxlfork::{CxlFork, CxlForkConfig};
use faas::FunctionSpec;
use mitosis_cxl::MitosisCxl;
use node_os::fs::SharedFs;
use node_os::{Node, NodeConfig};
use rfork::{RemoteFork, RestoreOptions};
use simclock::{LatencyModel, SimDuration};

/// Steady-state invocations before checkpointing (the paper checkpoints
/// after the 16th invocation: 1 warm-up + 15 steady).
pub const DEFAULT_STEADY_INVOCATIONS: u64 = 15;

/// A cold-start scenario from Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Vanilla cold start on the target node.
    Cold,
    /// Local fork from a warm parent on the target node.
    LocalFork,
    /// CRIU adapted to a CXL shared filesystem.
    Criu,
    /// Mitosis adapted to CXL page copies.
    Mitosis,
    /// CXLfork with the given restore options.
    CxlFork(RestoreOptions),
}

impl Scenario {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> String {
        match self {
            Scenario::Cold => "Cold".into(),
            Scenario::LocalFork => "LocalFork".into(),
            Scenario::Criu => "CRIU-CXL".into(),
            Scenario::Mitosis => "Mitosis-CXL".into(),
            Scenario::CxlFork(o) => format!("CXLfork-{}", o.policy),
        }
    }

    /// The default CXLfork scenario (MoW + dirty prefetch).
    pub fn cxlfork_default() -> Scenario {
        Scenario::CxlFork(RestoreOptions::mow())
    }
}

/// One row of the Fig. 7 experiments.
#[derive(Debug, Clone)]
pub struct ColdStartRow {
    /// Scenario label.
    pub scenario: String,
    /// Function name.
    pub function: String,
    /// Restore (or init/fork) phase latency.
    pub restore: SimDuration,
    /// Page-fault portion of the first invocation.
    pub faults: SimDuration,
    /// Remaining execution (memory + compute).
    pub execution: SimDuration,
    /// End-to-end cold-start execution time.
    pub total: SimDuration,
    /// Local frames the child added on the target node.
    pub local_pages: u64,
    /// Faults taken during the invocation.
    pub fault_count: u64,
    /// Checkpoint cost (zero for Cold/LocalFork).
    pub checkpoint_cost: SimDuration,
    /// CXL device pages the checkpoint occupies.
    pub checkpoint_cxl_pages: u64,
}

fn two_node_cluster(model: &LatencyModel) -> (Vec<Node>, Arc<CxlDevice>, Arc<SharedFs>) {
    let device = Arc::new(CxlDevice::with_capacity_mib(8192));
    let rootfs = Arc::new(SharedFs::new());
    let nodes = (0..2)
        .map(|i| {
            Node::with_rootfs(
                NodeConfig::default()
                    .with_id(i)
                    .with_local_mem_mib(4096)
                    .with_model(model.clone()),
                Arc::clone(&device),
                Arc::clone(&rootfs),
            )
        })
        .collect();
    (nodes, device, rootfs)
}

/// Post-condition under the `check` feature: after a scenario run, every
/// node's memory ledgers, the device's region books, and the global
/// lock-order graph must all be clean. Checkpoints may still be live;
/// the audit verifies consistency, not emptiness.
#[cfg(feature = "check")]
fn audit_scenario(nodes: &[&Node], device: &CxlDevice) {
    let mut violations = Vec::new();
    for node in nodes {
        violations.extend(cxl_check::audit_node(node));
    }
    violations.extend(cxl_check::audit_device(device));
    violations.extend(cxl_check::check_lock_order());
    assert!(
        violations.is_empty(),
        "scenario left cross-layer violations: {violations:?}"
    );
}

#[cfg(not(feature = "check"))]
fn audit_scenario(_nodes: &[&Node], _device: &CxlDevice) {}

/// Deploys + warms a parent on `node`, returning its pid.
fn warm_parent(node: &mut Node, spec: &FunctionSpec, steady: u64) -> node_os::Pid {
    let (pid, _) = faas::deploy_cold(node, spec).expect("parent deployment fits the node");
    faas::warm_for_checkpoint(node, pid, spec, steady).expect("warm-up fits the node");
    pid
}

/// Runs one Fig. 7 cold-start scenario for `spec` with `steady`
/// pre-checkpoint invocations, under `model`.
pub fn run_cold_start(
    spec: &FunctionSpec,
    scenario: Scenario,
    model: &LatencyModel,
    steady: u64,
) -> ColdStartRow {
    let (mut nodes, device, _rootfs) = two_node_cluster(model);
    let mut node1 = nodes.pop().expect("two nodes");
    let mut node0 = nodes.pop().expect("two nodes");

    let row = match scenario {
        Scenario::Cold => {
            let before = node1.frames().used();
            let (pid, init) = faas::deploy_cold(&mut node1, spec).expect("cold deploy fits");
            let r = faas::run_invocation(&mut node1, pid, spec, 0).expect("invocation");
            ColdStartRow {
                scenario: scenario.label(),
                function: spec.name.clone(),
                restore: init.total,
                faults: r.fault,
                execution: r.total - r.fault,
                total: init.total + r.total,
                local_pages: node1.frames().used() - before,
                fault_count: r.faults,
                checkpoint_cost: SimDuration::ZERO,
                checkpoint_cxl_pages: 0,
            }
        }
        Scenario::LocalFork => {
            let parent = warm_parent(&mut node1, spec, steady);
            let before = node1.frames().used();
            let (child, fork_cost) = node1.local_fork(parent).expect("fork");
            let r = faas::run_invocation(&mut node1, child, spec, 0).expect("invocation");
            ColdStartRow {
                scenario: scenario.label(),
                function: spec.name.clone(),
                restore: fork_cost,
                faults: r.fault,
                execution: r.total - r.fault,
                total: fork_cost + r.total,
                local_pages: node1.frames().used() - before,
                fault_count: r.faults,
                checkpoint_cost: SimDuration::ZERO,
                checkpoint_cxl_pages: 0,
            }
        }
        Scenario::Criu => {
            let parent = warm_parent(&mut node0, spec, steady);
            let criu = CriuCxl::new(Arc::new(CxlFs::new(Arc::clone(&device))));
            let ckpt = criu
                .checkpoint(&mut node0, parent)
                .expect("checkpoint fits CXL");
            finish_rfork(
                &criu,
                &ckpt,
                &mut node1,
                spec,
                scenario,
                RestoreOptions::default(),
            )
        }
        Scenario::Mitosis => {
            let parent = warm_parent(&mut node0, spec, steady);
            let mitosis = MitosisCxl::new();
            let ckpt = mitosis.checkpoint(&mut node0, parent).expect("checkpoint");
            finish_rfork(
                &mitosis,
                &ckpt,
                &mut node1,
                spec,
                scenario,
                RestoreOptions::default(),
            )
        }
        Scenario::CxlFork(options) => {
            let parent = warm_parent(&mut node0, spec, steady);
            let fork = CxlFork::new();
            let ckpt = fork
                .checkpoint(&mut node0, parent)
                .expect("checkpoint fits CXL");
            finish_rfork(&fork, &ckpt, &mut node1, spec, scenario, options)
        }
    };
    audit_scenario(&[&node0, &node1], &device);
    row
}

fn finish_rfork<M: RemoteFork>(
    mech: &M,
    ckpt: &M::Checkpoint,
    node1: &mut Node,
    spec: &FunctionSpec,
    scenario: Scenario,
    options: RestoreOptions,
) -> ColdStartRow {
    let before = node1.frames().used();
    let restored = mech
        .restore_with(ckpt, node1, options)
        .expect("restore fits");
    let r = faas::run_invocation(node1, restored.pid, spec, 0).expect("invocation");
    let meta = mech.meta(ckpt);
    ColdStartRow {
        scenario: scenario.label(),
        function: spec.name.clone(),
        restore: restored.restore_latency,
        faults: r.fault,
        execution: r.total - r.fault,
        total: restored.restore_latency + r.total,
        local_pages: node1.frames().used() - before,
        fault_count: r.faults,
        checkpoint_cost: meta.checkpoint_cost,
        checkpoint_cxl_pages: meta.cxl_pages,
    }
}

/// Stream counts the pipeline ablation sweeps (`BENCH_pipeline.json`).
/// `1` is the serial model; the device defaults to eight banks, so the
/// curve is expected to flatten at `p = 8`.
pub const PIPELINE_PARALLELISM: [u32; 5] = [1, 2, 4, 8, 16];

/// One row of the pipeline ablation: the unit cold-start experiment with
/// CXLfork's transfer parallelism set to `parallelism`, next to serial
/// CRIU-CXL and Mitosis-CXL checkpoints of the *same* warmed function so
/// the speedup stays attributable to the pipeline and not to a baseline
/// drift.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Shard-stream parallelism the CXLfork run used.
    pub parallelism: u32,
    /// Function name.
    pub function: String,
    /// CXLfork checkpoint cost at this parallelism.
    pub checkpoint_cost: SimDuration,
    /// CXLfork restore latency (pipelined prefetch path).
    pub restore: SimDuration,
    /// End-to-end checkpoint + cold start (checkpoint + restore + first
    /// invocation) — the full path the pipeline overlaps, so this is the
    /// quantity expected to shrink with `parallelism`.
    pub total: SimDuration,
    /// CRIU-CXL checkpoint cost — always serial, must not move with `p`.
    pub criu_checkpoint: SimDuration,
    /// Mitosis-CXL checkpoint cost — always serial, must not move with `p`.
    pub mitosis_checkpoint: SimDuration,
}

/// Runs the unit experiment with `parallelism` shard streams: warm a
/// parent, checkpoint it through [`CxlFork`] with the pipeline knob set,
/// remote-fork it to the second node (MoW + dirty prefetch, the default
/// scenario), and invoke once. CRIU-CXL and Mitosis-CXL checkpoint the
/// identically warmed function on fresh clusters and stay serial —
/// they model page-granular copies with no shard-stream concept.
pub fn run_pipeline(
    spec: &FunctionSpec,
    parallelism: u32,
    model: &LatencyModel,
    steady: u64,
) -> PipelineRow {
    let (mut nodes, device, _rootfs) = two_node_cluster(model);
    let mut node1 = nodes.pop().expect("two nodes");
    let mut node0 = nodes.pop().expect("two nodes");
    let parent = warm_parent(&mut node0, spec, steady);
    let fork = CxlFork::with_config(CxlForkConfig::with_parallelism(parallelism));
    let ckpt = fork
        .checkpoint(&mut node0, parent)
        .expect("checkpoint fits CXL");
    let restored = fork
        .restore_with(&ckpt, &mut node1, RestoreOptions::mow())
        .expect("restore fits");
    let r = faas::run_invocation(&mut node1, restored.pid, spec, 0).expect("invocation");
    audit_scenario(&[&node0, &node1], &device);

    let (criu_nodes, criu_device, _criu_rootfs) = two_node_cluster(model);
    let mut criu_node = criu_nodes.into_iter().next().expect("two nodes");
    let criu_parent = warm_parent(&mut criu_node, spec, steady);
    let criu = CriuCxl::new(Arc::new(CxlFs::new(Arc::clone(&criu_device))));
    let criu_ckpt = criu
        .checkpoint(&mut criu_node, criu_parent)
        .expect("checkpoint fits CXL");
    let criu_cost = criu.meta(&criu_ckpt).checkpoint_cost;
    audit_scenario(&[&criu_node], &criu_device);

    let (mitosis_nodes, mitosis_device, _mitosis_rootfs) = two_node_cluster(model);
    let mut mitosis_node = mitosis_nodes.into_iter().next().expect("two nodes");
    let mitosis_parent = warm_parent(&mut mitosis_node, spec, steady);
    let mitosis = MitosisCxl::new();
    let mitosis_ckpt = mitosis
        .checkpoint(&mut mitosis_node, mitosis_parent)
        .expect("checkpoint");
    let mitosis_cost = mitosis.meta(&mitosis_ckpt).checkpoint_cost;
    audit_scenario(&[&mitosis_node], &mitosis_device);

    let checkpoint_cost = fork.meta(&ckpt).checkpoint_cost;
    PipelineRow {
        parallelism,
        function: spec.name.clone(),
        checkpoint_cost,
        restore: restored.restore_latency,
        total: checkpoint_cost + restored.restore_latency + r.total,
        criu_checkpoint: criu_cost,
        mitosis_checkpoint: mitosis_cost,
    }
}

/// One row of the Fig. 8 / Fig. 9 tiering experiments.
#[derive(Debug, Clone)]
pub struct TieringRow {
    /// Policy label.
    pub policy: String,
    /// Function name.
    pub function: String,
    /// Cold execution time (restore + first invocation).
    pub cold: SimDuration,
    /// Warm execution time (steady-state invocation after cache warm-up).
    pub warm: SimDuration,
    /// Local frames consumed after the warm-up invocations.
    pub local_pages: u64,
}

/// Runs the Fig. 8 tiering experiment: restore with `options`, measure
/// cold execution, then warm execution as the 4th invocation.
pub fn run_tiering(
    spec: &FunctionSpec,
    options: RestoreOptions,
    model: &LatencyModel,
    steady: u64,
) -> TieringRow {
    let (mut nodes, device, _rootfs) = two_node_cluster(model);
    let mut node1 = nodes.pop().expect("two nodes");
    let mut node0 = nodes.pop().expect("two nodes");
    let parent = warm_parent(&mut node0, spec, steady);
    let fork = CxlFork::new();
    let ckpt = fork
        .checkpoint(&mut node0, parent)
        .expect("checkpoint fits CXL");

    let before = node1.frames().used();
    let restored = fork
        .restore_with(&ckpt, &mut node1, options)
        .expect("restore fits");
    let r0 = faas::run_invocation(&mut node1, restored.pid, spec, 0).expect("invocation");
    let cold = restored.restore_latency + r0.total;
    for i in 1..3 {
        faas::run_invocation(&mut node1, restored.pid, spec, i).expect("invocation");
    }
    let warm = faas::run_invocation(&mut node1, restored.pid, spec, 3)
        .expect("invocation")
        .total;
    let row = TieringRow {
        policy: options.policy.to_string(),
        function: spec.name.clone(),
        cold,
        warm,
        local_pages: node1.frames().used() - before,
    };
    audit_scenario(&[&node0, &node1], &device);
    row
}

/// Everything the availability experiment measures in one run.
#[derive(Debug)]
pub struct AvailabilityOutcome {
    /// The porter's full report (crash/retry/reclaim accounting
    /// included).
    pub report: cxlporter::PorterReport,
    /// What the device-level injector actually fired (over the primary
    /// run **and** the successor's continuation — the injector stays
    /// armed on the device across the failover).
    pub fault_stats: cxl_fault::FaultStats,
    /// Requests in the generated trace.
    pub trace_len: u64,
    /// What the journal replay found when the successor coordinator
    /// attached to the surviving device.
    pub recovery: cxl_store::RecoveryReport,
    /// The successor coordinator's report for the continuation trace it
    /// served after adopting the recovered store (carries
    /// `recovered_images` and `journal_replay_ns`).
    pub successor: cxlporter::PorterReport,
    /// Requests in the successor's continuation trace.
    pub successor_trace_len: u64,
}

impl AvailabilityOutcome {
    /// Requests that completed on some node (warm, restored, or cold)
    /// under the primary coordinator.
    pub fn completed(&self) -> u64 {
        self.report.warm_hits + self.report.restores + self.report.full_cold
    }

    /// Exactly-once bookkeeping for both coordinators: every trace
    /// request and every re-dispatch lands in precisely one outcome
    /// bucket.
    pub fn accounting_balances(&self) -> bool {
        let successor_completed =
            self.successor.warm_hits + self.successor.restores + self.successor.full_cold;
        self.completed() + self.report.dropped == self.trace_len + self.report.redispatched
            && successor_completed + self.successor.dropped
                == self.successor_trace_len + self.successor.redispatched
    }
}

fn availability_store_config() -> cxl_store::StoreConfig {
    cxl_store::StoreConfig {
        durable: true,
        ..cxl_store::StoreConfig::default()
    }
}

/// Runs the availability experiment: a 10 s Azure-style trace over a
/// three-node cluster whose CXL device injects seeded transient link
/// errors, while `crash_count` nodes die at seeded times mid-run (about
/// half of them mid-checkpoint). The porter retries transients, fails
/// crashed nodes over by restoring from CXL-resident checkpoints, and
/// lease-reclaims torn staging regions.
///
/// Checkpoints route through a **durable** content-addressed store, and
/// after the trace the coordinator itself dies: a successor attaches to
/// the surviving device, replays the store journal
/// ([`cxl_store::Store::recover`]), adopts and re-leases the recovered
/// images, and serves a 2 s continuation trace whose re-checkpoints
/// dedup against the recovered index. The whole run — crashes, faults,
/// failover, replay — is fully deterministic in `seed`.
pub fn run_availability(
    seed: u64,
    crash_count: usize,
    model: &LatencyModel,
) -> AvailabilityOutcome {
    let duration = SimDuration::from_secs(10);
    let cluster = cxlporter::Cluster::new(3, 2048, 8192, model.clone());
    let device = Arc::clone(&cluster.device);

    let injector = Arc::new(cxl_fault::Injector::from_plan(
        cxl_fault::FaultPlan::new(seed).with_transient_rate(2e-4),
    ));
    injector.arm(&device);

    let store = Arc::new(cxl_store::Store::with_config(
        Arc::clone(&device),
        availability_store_config(),
    ));
    let mut porter = cxlporter::CxlPorter::new(
        cluster,
        CxlFork::with_store(Arc::clone(&store)),
        cxlporter::PorterConfig::cxlfork_dynamic(),
    )
    .with_image_store(Arc::clone(&store));
    porter.set_crash_schedule(cxl_fault::CrashSchedule::from_plan(
        seed,
        3,
        duration,
        crash_count,
    ));

    let trace = trace_gen::generate(&trace_gen::TraceConfig {
        duration_secs: 10.0,
        total_rps: 40.0,
        ..trace_gen::TraceConfig::paper_default(
            vec!["Float".into(), "Json".into(), "Pyaes".into()],
            seed,
        )
    });
    let report = porter.run_trace(&trace);

    // Coordinator failover: the coordinator's DRAM dies with it (porter,
    // checkpoint handles, the store's in-memory index); only the device
    // survives. A successor attaches, replays the journal, adopts the
    // recovered images, and keeps serving.
    drop(porter);
    drop(store);
    let (recovered, recovery) =
        cxl_store::Store::recover(Arc::clone(&device), availability_store_config(), NodeId(0));
    let recovered = Arc::new(recovered);
    let cluster_b = cxlporter::Cluster::with_device(3, 2048, Arc::clone(&device), model.clone());
    let mut successor = cxlporter::CxlPorter::new(
        cluster_b,
        CxlFork::with_store(Arc::clone(&recovered)),
        cxlporter::PorterConfig::cxlfork_dynamic(),
    );
    successor.adopt_recovered_store(Arc::clone(&recovered), &recovery, NodeId(0));

    let tail = trace_gen::generate(&trace_gen::TraceConfig {
        duration_secs: 2.0,
        total_rps: 40.0,
        ..trace_gen::TraceConfig::paper_default(
            vec!["Float".into(), "Json".into(), "Pyaes".into()],
            seed,
        )
    });
    let successor_report = successor.run_trace(&tail);

    AvailabilityOutcome {
        report,
        fault_stats: injector.stats(),
        trace_len: trace.len() as u64,
        recovery,
        successor: successor_report,
        successor_trace_len: tail.len() as u64,
    }
}

/// Runtime-template page overlap the capacity experiment assumes (half
/// of each function's library pages come from shared runtime images).
pub const CAPACITY_TEMPLATE_OVERLAP: f64 = 0.5;

/// Outcome of the capacity experiment: cross-image dedup from shared
/// runtime templates, plus one watermark eviction sweep under pressure.
#[derive(Debug)]
pub struct CapacityOutcome {
    /// Device pages after checkpointing every function privately
    /// (no store).
    pub baseline_cxl_pages: u64,
    /// Device pages after the identical workload through the
    /// content-addressed store.
    pub store_cxl_pages: u64,
    /// The store's dedup/eviction counters after the dedup phase.
    pub store_stats: cxl_store::StoreStats,
    /// Per-function checkpoint cost through the store.
    pub checkpoint_costs: Vec<(String, SimDuration)>,
    /// Images the pressured sweep evicted.
    pub evicted_images: u64,
    /// Device pages the sweep freed.
    pub evicted_pages: u64,
    /// Images that survived the sweep (pinned or below-watermark).
    pub survivor_images: u64,
}

/// Runs the capacity experiment.
///
/// **Dedup phase** — each of `specs`, with
/// [`CAPACITY_TEMPLATE_OVERLAP`] of its library pages mapped from
/// shared runtime images, is deployed, warmed, and checkpointed twice:
/// once privately and once through a content-addressed [`Store`]
/// shared by all checkpoints. The device footprints of the two runs
/// quantify cross-image dedup; a store-backed restore then serves an
/// invocation to prove the deduped image is live.
///
/// **Eviction phase** — a small pressured store (high watermark 0.5,
/// low 0.25) is filled with 16 images of 256 pages, half of each
/// image's content shared with every other image. Image 0 is pinned;
/// the LRU sweep must stop at the low watermark having evicted only
/// unpinned images, and only their private halves are freed (shared
/// content stays for the survivors).
pub fn run_capacity(specs: &[FunctionSpec], model: &LatencyModel) -> CapacityOutcome {
    use cxl_fault::LeaseTable;
    use cxl_mem::{NodeId, PageData};
    use simclock::SimTime;

    let overlapped: Vec<FunctionSpec> = specs
        .iter()
        .cloned()
        .map(|s| s.with_template_overlap(CAPACITY_TEMPLATE_OVERLAP))
        .collect();

    // Baseline: private checkpoints, no store.
    let (mut nodes, device, _fs) = two_node_cluster(model);
    let mut node0 = nodes.remove(0);
    let fork = CxlFork::new();
    let mut baseline_ckpts = Vec::new();
    for spec in &overlapped {
        let pid = warm_parent(&mut node0, spec, DEFAULT_STEADY_INVOCATIONS);
        baseline_ckpts.push(fork.checkpoint(&mut node0, pid).expect("checkpoint fits"));
    }
    let baseline_cxl_pages = device.used_pages();
    audit_scenario(&[&node0], &device);

    // Store-backed: the identical workload through one shared store.
    let (mut nodes, device, _fs) = two_node_cluster(model);
    let mut node1 = nodes.pop().expect("two nodes");
    let mut node0 = nodes.pop().expect("two nodes");
    let store = Arc::new(cxl_store::Store::new(Arc::clone(&device)));
    let fork = CxlFork::with_store(Arc::clone(&store));
    let mut checkpoint_costs = Vec::new();
    let mut ckpts = Vec::new();
    for spec in &overlapped {
        let pid = warm_parent(&mut node0, spec, DEFAULT_STEADY_INVOCATIONS);
        let ckpt = fork.checkpoint(&mut node0, pid).expect("checkpoint fits");
        checkpoint_costs.push((spec.name.clone(), fork.meta(&ckpt).checkpoint_cost));
        ckpts.push(ckpt);
    }
    let store_cxl_pages = device.used_pages();
    let store_stats = store.stats();
    // A store-backed restore must serve a real invocation.
    let restored = fork
        .restore_with(&ckpts[0], &mut node1, RestoreOptions::mow())
        .expect("restore fits");
    faas::run_invocation(&mut node1, restored.pid, &overlapped[0], 0).expect("invocation");
    audit_scenario(&[&node0, &node1], &device);

    // Eviction sweep on a dedicated pressured store.
    const SWEEP_IMAGES: u64 = 16;
    const IMAGE_PAGES: u64 = 256;
    const SHARED_PAGES: u64 = IMAGE_PAGES / 2;
    let sweep_device = Arc::new(CxlDevice::new(4096));
    let sweep = cxl_store::Store::with_config(
        Arc::clone(&sweep_device),
        cxl_store::StoreConfig {
            high_watermark: 0.5,
            low_watermark: 0.25,
            ..cxl_store::StoreConfig::default()
        },
    );
    let t0 = SimTime::from_nanos(1_000_000_000);
    let mut leases = LeaseTable::new(SimDuration::from_secs(3600));
    leases.renew(NodeId(0), t0);
    let mut images = Vec::new();
    for i in 0..SWEEP_IMAGES {
        let data: Vec<PageData> = (0..IMAGE_PAGES)
            .map(|j| {
                if j < SHARED_PAGES {
                    PageData::pattern(1 + j) // shared across every image
                } else {
                    PageData::pattern(1_000_000 + i * IMAGE_PAGES + j)
                }
            })
            .collect();
        let image = sweep.begin_image(&format!("img{i}"), NodeId(0), i, t0);
        sweep
            .intern_pages(image, &data, NodeId(0))
            .expect("sweep image fits");
        let meta = sweep_device.create_region(&format!("meta{i}"));
        sweep.commit_image(image, meta).expect("image is pending");
        // Staggered restores fix the LRU order to image order.
        sweep.touch_restore(image, t0 + SimDuration::from_secs(1 + i));
        images.push(image);
    }
    sweep.set_pinned(images[0], true).expect("committed image");
    let sweep_now = t0 + SimDuration::from_secs(3600);
    let report = sweep.evict_to_low_watermark(&leases, sweep_now);
    assert!(
        sweep.is_live(images[0]),
        "the pinned image must survive the sweep"
    );
    let survivor_images = images.iter().filter(|&&i| sweep.is_live(i)).count() as u64;

    CapacityOutcome {
        baseline_cxl_pages,
        store_cxl_pages,
        store_stats,
        checkpoint_costs,
        evicted_images: report.images,
        evicted_pages: report.pages,
        survivor_images,
    }
}

/// Outcome of the cluster-scale experiment: a multi-tenant diurnal
/// trace over a large cluster on the discrete-event engine.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The porter's full report (fairness, crash, and eviction
    /// accounting included).
    pub report: cxlporter::PorterReport,
    /// Requests in the generated trace.
    pub trace_len: u64,
    /// Configured trace duration.
    pub duration: SimDuration,
    /// What the device-level injector fired during the run.
    pub fault_stats: cxl_fault::FaultStats,
    /// The shared checkpoint store's dedup/eviction counters.
    pub store_stats: cxl_store::StoreStats,
    /// Distinct functions in the tenant catalog.
    pub functions: u64,
    /// Tenants (owners) in the trace.
    pub tenants: u32,
}

impl ClusterOutcome {
    /// Requests that completed on some node (warm, restored, or cold).
    pub fn completed(&self) -> u64 {
        self.report.warm_hits + self.report.restores + self.report.full_cold
    }

    /// Exactly-once bookkeeping: every trace request and every crash
    /// re-dispatch lands in precisely one outcome bucket — served,
    /// memory-dropped, or fairness-dropped.
    pub fn accounting_balances(&self) -> bool {
        self.completed() + self.report.dropped + self.report.fair_drops
            == self.trace_len + self.report.redispatched
    }
}

/// Builds the multi-tenant micro-function catalog the cluster
/// experiment dispatches: one spec per [`DiurnalConfig`] function name,
/// with footprint/working-set/compute parameters varied
/// deterministically by catalog position (2–8 MiB footprints — Table-1
/// functions are far too heavy for a 100k-invocation trace).
pub fn cluster_catalog(config: &trace_gen::DiurnalConfig) -> faas::Catalog {
    faas::Catalog::from_specs(config.function_names().iter().enumerate().map(|(i, name)| {
        let i = i as u64;
        let footprint_mib = 2 + i % 7; // 2..=8 MiB
        let ws_pages = 32 + (i % 5) * 16; // 32..=96 pages
        let compute_ms = 2 + i % 4; // 2..=5 ms
        faas::micro(name, footprint_mib, ws_pages, compute_ms)
    }))
}

/// Runs the cluster-scale experiment: a seeded diurnal/bursty
/// multi-tenant trace (≥100k invocations from
/// [`trace_gen::DiurnalConfig::cluster_default`]) dispatched by the
/// porter's discrete-event engine over `nodes` nodes, with per-owner
/// fairness quotas on, a seeded crash schedule (one node in sixteen
/// dies mid-run), transient device faults armed, and checkpoints routed
/// through a watermark-pressured content-addressed store so the
/// maintenance sweep actually evicts at scale. The whole run is
/// deterministic in `seed`.
pub fn run_cluster(seed: u64, nodes: usize, model: &LatencyModel) -> ClusterOutcome {
    run_cluster_with(
        &trace_gen::DiurnalConfig::cluster_default(seed),
        nodes,
        model,
    )
}

/// [`run_cluster`] with an explicit trace configuration, for
/// smoke-scale runs (fewer tenants, shorter trace) that keep the same
/// engine, fairness, crash, and store plumbing. The fault and crash
/// seeds come from `config.seed`.
pub fn run_cluster_with(
    config: &trace_gen::DiurnalConfig,
    nodes: usize,
    model: &LatencyModel,
) -> ClusterOutcome {
    let seed = config.seed;
    let trace = trace_gen::generate_diurnal(config);
    let names = config.function_names();
    trace_gen::validate(&trace, &names).expect("generated trace validates against its catalog");

    let duration = SimDuration::from_secs(config.duration_secs as u64);
    let cluster = cxlporter::Cluster::new(nodes, 512, 16384, model.clone());
    let device = Arc::clone(&cluster.device);
    let injector = Arc::new(cxl_fault::Injector::from_plan(
        cxl_fault::FaultPlan::new(seed).with_transient_rate(1e-5),
    ));
    injector.arm(&device);
    // Low watermarks relative to the device keep the image store under
    // genuine capacity pressure with 2–8 MiB images.
    let store = Arc::new(cxl_store::Store::with_config(
        Arc::clone(&device),
        cxl_store::StoreConfig {
            high_watermark: 0.02,
            low_watermark: 0.01,
            ..cxl_store::StoreConfig::default()
        },
    ));
    let mut porter = cxlporter::CxlPorter::new(
        cluster,
        CxlFork::with_store(Arc::clone(&store)),
        cxlporter::PorterConfig {
            fairness: Some(cxlporter::FairnessConfig::default()),
            ..cxlporter::PorterConfig::cxlfork_dynamic()
        },
    )
    .with_image_store(Arc::clone(&store))
    .with_catalog(cluster_catalog(config));
    porter.set_crash_schedule(cxl_fault::CrashSchedule::from_plan(
        seed,
        nodes,
        duration,
        nodes / 16,
    ));

    let report = porter.run_trace(&trace);
    ClusterOutcome {
        report,
        trace_len: trace.len() as u64,
        duration,
        fault_stats: injector.stats(),
        store_stats: store.stats(),
        functions: names.len() as u64,
        tenants: config.tenants,
    }
}

/// The warm execution time of a locally forked child (the "local fork in
/// an environment without CXL memory" baseline of Fig. 9).
pub fn local_fork_warm(
    spec: &FunctionSpec,
    model: &LatencyModel,
    steady: u64,
) -> (SimDuration, SimDuration) {
    let (mut nodes, device, _rootfs) = two_node_cluster(model);
    let mut node1 = nodes.pop().expect("two nodes");
    let parent = warm_parent(&mut node1, spec, steady);
    let (child, fork_cost) = node1.local_fork(parent).expect("fork");
    let r0 = faas::run_invocation(&mut node1, child, spec, 0).expect("invocation");
    let cold = fork_cost + r0.total;
    for i in 1..3 {
        faas::run_invocation(&mut node1, child, spec, i).expect("invocation");
    }
    let warm = faas::run_invocation(&mut node1, child, spec, 3)
        .expect("invocation")
        .total;
    audit_scenario(&[&node1], &device);
    (cold, warm)
}

/// Round trips the contention surface sweeps (ns). Matches the Fig. 9
/// axis: the paper's calibrated 391 ns plus faster/slower fabrics.
pub const CONTENTION_ROUND_TRIPS: [u64; 4] = [100, 200, 391, 400];

/// Offered background load on the switch ports, in permille of each
/// link's window capacity. 0 is the calibration cell: it must reproduce
/// the flat latency model exactly.
pub const CONTENTION_LOADS: [u32; 5] = [0, 250, 500, 750, 900];

/// Shard-stream parallelism the contention cells run at (the pipelined
/// fast path is exactly where fabric queueing hurts most).
pub const CONTENTION_PARALLELISM: u32 = 8;

/// One cell of the round-trip × offered-load contention surface.
#[derive(Debug, Clone)]
pub struct ContentionRow {
    /// CXL round-trip latency of this cell's model (ns).
    pub round_trip_ns: u64,
    /// Background switch load, permille of window capacity.
    pub background_load_permille: u32,
    /// Shard-stream parallelism used.
    pub parallelism: u32,
    /// Function name.
    pub function: String,
    /// Checkpoint cost including fabric queueing delay.
    pub checkpoint_cost: SimDuration,
    /// Restore latency including fabric queueing delay.
    pub restore: SimDuration,
    /// Checkpoint + restore + first invocation.
    pub total: SimDuration,
}

/// Runs the unit experiment (warm → checkpoint → remote fork → invoke)
/// with a single-device fabric attached at the given background load.
///
/// The target node's clock is advanced past the fabric window before the
/// restore so the checkpoint's own traffic has aged out of the sliding
/// windows: each cell then measures *offered-load* contention only, and
/// the `load = 0` cell reproduces the flat model byte for byte
/// (`fabric = None` gives identical costs, which
/// `tests/contention.rs` pins).
pub fn run_contention(
    spec: &FunctionSpec,
    parallelism: u32,
    round_trip_ns: u64,
    load_permille: u32,
    steady: u64,
) -> ContentionRow {
    let model = LatencyModel::builder()
        .cxl_round_trip_ns(round_trip_ns)
        .build();
    let (mut nodes, device, _rootfs) = two_node_cluster(&model);
    let mut node1 = nodes.pop().expect("two nodes");
    let mut node0 = nodes.pop().expect("two nodes");
    let topology = Arc::new(cxl_fabric::FabricTopology::new(cxl_fabric::FabricConfig {
        background_load_permille: load_permille,
        ..cxl_fabric::FabricConfig::default()
    }));
    let window_ns = topology.config().window_ns;
    let link: Arc<dyn cxl_mem::FabricLink> = Arc::clone(&topology) as _;
    device.attach_fabric(Some((link, 0)));

    let parent = warm_parent(&mut node0, spec, steady);
    let fork = CxlFork::with_config(CxlForkConfig::with_parallelism(parallelism));
    let ckpt = fork
        .checkpoint(&mut node0, parent)
        .expect("checkpoint fits CXL");
    node1.clock_mut().advance_to(node0.now());
    node1
        .clock_mut()
        .advance(SimDuration::from_nanos(2 * window_ns));
    let restored = fork
        .restore_with(&ckpt, &mut node1, RestoreOptions::mow())
        .expect("restore fits");
    let r = faas::run_invocation(&mut node1, restored.pid, spec, 0).expect("invocation");
    audit_scenario(&[&node0, &node1], &device);

    let checkpoint_cost = fork.meta(&ckpt).checkpoint_cost;
    ContentionRow {
        round_trip_ns,
        background_load_permille: load_permille,
        parallelism,
        function: spec.name.clone(),
        checkpoint_cost,
        restore: restored.restore_latency,
        total: checkpoint_cost + restored.restore_latency + r.total,
    }
}

/// Consecutive checkpoints routed under `policy` across two devices
/// behind one switch with a wide fabric window, returning the summed
/// checkpoint cost. Locality pins every image of the function to one
/// device, so each checkpoint queues behind the previous one's in-flight
/// bytes; stripe alternates devices and halves the per-port backlog.
/// The stripe-vs-locality delta in `BENCH_contention.json` comes from
/// here.
pub fn run_placement(
    spec: &FunctionSpec,
    policy: cxl_fabric::PlacementPolicy,
    checkpoints: u64,
    model: &LatencyModel,
    steady: u64,
) -> SimDuration {
    let (mut nodes, device, _rootfs) = two_node_cluster(model);
    let mut node0 = nodes.remove(0);
    let devices = 2;
    // A window wide enough (1 s of virtual time) that every checkpoint
    // in the run still sees its predecessors' traffic in flight.
    let topology = Arc::new(cxl_fabric::FabricTopology::new(cxl_fabric::FabricConfig {
        devices,
        window_ns: 1_000_000_000,
        ..cxl_fabric::FabricConfig::default()
    }));
    let fork = CxlFork::new();
    let mut total = SimDuration::ZERO;
    for nth in 0..checkpoints {
        let link: Arc<dyn cxl_mem::FabricLink> = Arc::clone(&topology) as _;
        device.attach_fabric(Some((link, policy.device(devices, 0x5eed, nth))));
        let parent = warm_parent(&mut node0, spec, steady);
        let ckpt = fork
            .checkpoint(&mut node0, parent)
            .expect("checkpoint fits CXL");
        total += fork.meta(&ckpt).checkpoint_cost;
    }
    audit_scenario(&[&node0], &device);
    total
}
