//! `restore_fanout`: the read side of `core` and `cxl-mem`, alone.
//!
//! No porter, no store. Setup deploys and warms (15 steady invocations)
//! every Table-1 function on node 0 and checkpoints each once through
//! `CxlFork::with_config(with_parallelism(8))`, with a single-device
//! `FabricTopology` attached at 300 ‰ background load. The timed loop
//! remote-forks: rounds × 10 functions of `restore_with` (policy cycles
//! MoW / MoA / hybrid by round) onto one of four target nodes
//! round-robin, then the child's first invocation, then `Node::kill`.
//!
//! It exists to measure attach, global redo, prefetch and the CoW/pull
//! faults of a cold child with the default-off pipeline and fabric knobs
//! *on*, bypassing `cxlporter`, `cxl-sim`, `cxl-store` and the journal.
//!
//! The seed perturbs the suite's working sets and footprints (see
//! [`super::Jitter`]); op order and invocation indices are fixed.

use std::collections::BTreeMap;
use std::sync::Arc;

use cxl_fabric::{FabricConfig, FabricTopology};
use cxl_mem::{CxlDevice, FabricLink};
use cxlfork::{CxlFork, CxlForkCheckpoint, CxlForkConfig};
use node_os::addr::VirtPageNum;
use node_os::fs::SharedFs;
use node_os::Node;
use rfork::{RemoteFork, RestoreOptions};
use simclock::SimDuration;

use super::{
    check_child_bytes, device_counts, new_node, node_counts, sample_parent, Params, Ran, SimOutcome,
};
use crate::host::Stopwatch;
use crate::spans::Recorder;

pub const STEADY_INVOCATIONS: u64 = 15;
pub const PARALLELISM: u32 = 8;
const BACKGROUND_LOAD_PERMILLE: u32 = 300;
const TARGET_NODES: u32 = 4;
const ROUNDS: u64 = 40;
const SMOKE_ROUNDS: u64 = 3;
const NODE_MEM_MIB: u64 = 4096;
const CXL_MIB: u64 = 8192;
const FABRIC_PORTS: u32 = 8;

/// The functions a rep forks: the whole Table-1 suite, or its three
/// smallest members under `--smoke`.
pub fn functions(smoke: bool) -> Vec<faas::FunctionSpec> {
    let mut suite = faas::suite();
    if smoke {
        suite.retain(|s| ["Float", "Json", "Pyaes"].contains(&s.name.as_str()));
    }
    suite
}

/// Everything a rep builds before the fan-out starts.
pub struct Ready {
    specs: Vec<faas::FunctionSpec>,
    device: Arc<CxlDevice>,
    topology: Arc<FabricTopology>,
    fork: CxlFork,
    checkpoints: Vec<CxlForkCheckpoint>,
    /// Per function: fingerprints of sampled parent pages at checkpoint.
    parent_samples: Vec<Vec<(VirtPageNum, u64)>>,
    targets: Vec<Node>,
    /// The source node keeps the parents (and their frames) alive.
    _source: Node,
    /// What setup already observed: the checkpoints' costs and sizes.
    sim: SimOutcome,
}

/// Fabric, warm parents on node 0, one checkpoint each, target nodes.
pub fn setup(p: &Params, rec: &mut Recorder) -> Result<Ready, String> {
    let specs = p.jitter().perturb_all(functions(p.smoke));
    let device = Arc::new(CxlDevice::with_capacity_mib(CXL_MIB));
    let rootfs = Arc::new(SharedFs::new());
    let topology = Arc::new(FabricTopology::new(FabricConfig {
        background_load_permille: BACKGROUND_LOAD_PERMILLE,
        ports_per_device: FABRIC_PORTS,
        ..FabricConfig::default()
    }));
    let link: Arc<dyn FabricLink> = Arc::clone(&topology) as _;
    device.attach_fabric(Some((link, 0)));

    let mut source = new_node(0, NODE_MEM_MIB, &device, &rootfs);
    let fork = CxlFork::with_config(CxlForkConfig::with_parallelism(PARALLELISM));
    let mut sim = SimOutcome::default();
    let mut checkpoints = Vec::with_capacity(specs.len());
    let mut parent_samples = Vec::with_capacity(specs.len());
    let mut checkpointed_pages = 0;
    for spec in &specs {
        let (pid, _) = rec
            .time("faas.deploy_cold", 0, || {
                faas::deploy_cold(&mut source, spec)
            })
            .map_err(|e| format!("deploy {} failed: {e}", spec.name))?;
        rec.time("faas.warm_for_checkpoint", 0, || {
            faas::warm_for_checkpoint(&mut source, pid, spec, STEADY_INVOCATIONS)
        })
        .map_err(|e| format!("warm {} failed: {e}", spec.name))?;
        let ckpt = rec
            .time("core.checkpoint", 0, || fork.checkpoint(&mut source, pid))
            .map_err(|e| format!("checkpoint {} failed: {e}", spec.name))?;
        sim.checkpoint
            .add_duration(fork.meta(&ckpt).checkpoint_cost);
        checkpointed_pages += fork.meta(&ckpt).footprint_pages;
        // The read-only band is never written after init, so the child's
        // first invocation cannot legitimately change it.
        let layout = faas::FunctionLayout::for_spec(spec);
        let ro_band = [(layout.ro_start, layout.ro_end)];
        parent_samples.push(sample_parent(&source, &device, pid, &ro_band, 16));
        checkpoints.push(ckpt);
    }
    sim.layer_counts
        .insert("core.checkpointed_pages", checkpointed_pages);
    // Targets start after the checkpoints' own traffic has aged out of
    // the fabric's sliding windows, so the loop sees offered load only.
    let start = source.now() + SimDuration::from_nanos(2 * topology.config().window_ns);
    let targets = (1..=TARGET_NODES)
        .map(|id| {
            let mut n = new_node(id, NODE_MEM_MIB, &device, &rootfs);
            n.clock_mut().advance_to(start);
            n
        })
        .collect();
    Ok(Ready {
        specs,
        device,
        topology,
        fork,
        checkpoints,
        parent_samples,
        targets,
        _source: source,
        sim,
    })
}

/// Restore → first invocation → kill, `rounds × functions` times.
pub fn run(ready: Ready, p: &Params, rec: &mut Recorder) -> Result<Ran, String> {
    let Ready {
        specs,
        device,
        topology,
        fork,
        checkpoints,
        parent_samples,
        mut targets,
        _source,
        mut sim,
    } = ready;
    let rounds = if p.smoke { SMOKE_ROUNDS } else { ROUNDS };
    let policies = [
        RestoreOptions::mow(),
        RestoreOptions::moa(),
        RestoreOptions::hybrid(),
    ];
    let mut verified = vec![false; specs.len()];
    let mut peak_port_util = 0u64;
    let mut op = 0u64;
    let timed_watch = Stopwatch::start();
    for round in 0..rounds {
        let options = policies[(round % 3) as usize];
        for (f, spec) in specs.iter().enumerate() {
            op += 1;
            // Which init-data slice the request reads and which R/W
            // pages it dirties: a different one every round.
            let invocation_idx = round;
            let target = &mut targets[(op % u64::from(TARGET_NODES)) as usize];
            let op_span = rec.open("bench.op", op);
            let before = target.frames().used();
            let restored = rec
                .time("core.restore_with", op, || {
                    fork.restore_with(&checkpoints[f], target, options)
                })
                .map_err(|e| format!("restore {} failed: {e}", spec.name))?;
            let r = rec
                .time("faas.run_invocation.cold", op, || {
                    faas::run_invocation(target, restored.pid, spec, invocation_idx)
                })
                .map_err(|e| format!("first invocation of {} failed: {e}", spec.name))?;
            sim.e2e.record(restored.restore_latency + r.total);
            sim.restore.add_duration(restored.restore_latency);
            sim.local_pages.add(target.frames().used() - before);
            if !verified[f] {
                check_child_bytes(
                    target,
                    &device,
                    restored.pid,
                    &parent_samples[f],
                    &spec.name,
                )?;
                verified[f] = true;
            }
            rec.time("node_os.kill", op, || target.kill(restored.pid))
                .map_err(|e| format!("kill failed: {e}"))?;
            rec.close(op_span);
            for port in 0..FABRIC_PORTS {
                peak_port_util = peak_port_util.max(topology.port_utilization_permille(0, port));
            }
        }
    }
    let timed = timed_watch.stop();

    let fabric = topology.stats();
    sim.cxl_pages_end = device.used_pages();
    sim.offered = op;
    sim.designated = vec![(
        "cxl_fabric.sim_us.queue_delay_total",
        fabric.total_queue_delay.as_nanos(),
    )];
    let c = &mut sim.layer_counts;
    device_counts(&device, c);
    node_counts(&targets, c);
    c.insert(
        "cxl_fabric.queue_delay_total_ns",
        fabric.total_queue_delay.as_nanos(),
    );
    c.insert("cxl_fabric.peak_port_util_permille", peak_port_util);

    Ok(Ran {
        timed,
        ops: op,
        sim,
        layer_values: BTreeMap::new(),
        scratch_track: None,
    })
}
