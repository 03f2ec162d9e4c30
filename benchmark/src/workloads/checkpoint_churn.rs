//! `checkpoint_churn`: the write side of `core`, `cxl-store` and
//! `cxl-mem`, alone.
//!
//! No porter. A **durable** content-addressed store under watermark
//! pressure backs `CxlFork::with_store_and_config(.., with_parallelism(8))`;
//! the six Table-1 functions of at most 125 MiB run with half their
//! library pages drawn from shared runtime templates. Every op is one
//! generation of one function: a warm invocation dirties pages, the
//! parent is checkpointed again, the function's previous checkpoint is
//! released, and the store sweeps to its low watermark.
//!
//! That drives `alloc_batch_striped`, `write_pages`, `fingerprint_pages`,
//! `intern_pages` hit *and* miss, journal append and compaction, eviction
//! and `free_batch`. A gain for reads that costs writes shows here.
//!
//! Functions above 125 MiB are left out on purpose: the durable store
//! panics on them today (see *Known limits* in the README).
//!
//! The seed perturbs the functions' working sets and footprints (see
//! [`super::Jitter`]); op order and invocation indices are fixed.

use std::collections::BTreeMap;
use std::sync::Arc;

use cxl_fault::LeaseTable;
use cxl_mem::CxlDevice;
use cxl_store::{Store, StoreConfig};
use cxlfork::{CxlFork, CxlForkCheckpoint, CxlForkConfig};
use node_os::addr::Pid;
use node_os::fs::SharedFs;
use node_os::Node;
use rfork::{RemoteFork, RestoreOptions};
use simclock::SimDuration;

use super::restore_fanout::{PARALLELISM, STEADY_INVOCATIONS};
use super::{
    check_child_bytes, device_counts, new_node, node_counts, sample_parent, store_counts, Params,
    Ran, SimOutcome,
};
use crate::host::Stopwatch;
use crate::spans::Recorder;

const MAX_FOOTPRINT_MIB: u64 = 125;
const TEMPLATE_OVERLAP: f64 = 0.5;
const GENERATIONS: u64 = 16;
const SMOKE_GENERATIONS: u64 = 2;
const NODE_MEM_MIB: u64 = 2048;
/// Device and watermarks sized against the ≈ 11.9 k device pages the six
/// live images occupy after dedup (72 % of 64 MiB): the store is over its
/// high watermark after nearly every checkpoint, evicts its oldest image
/// down to the low one, and the evicted function's next generation
/// re-interns its private pages as misses.
const CXL_MIB: u64 = 64;
const HIGH_WATERMARK: f64 = 0.70;
const LOW_WATERMARK: f64 = 0.60;

pub fn functions() -> Vec<faas::FunctionSpec> {
    faas::suite()
        .into_iter()
        .filter(|s| s.footprint_mib <= MAX_FOOTPRINT_MIB)
        .map(|s| s.with_template_overlap(TEMPLATE_OVERLAP))
        .collect()
}

/// Everything a rep builds before the churn starts.
pub struct Ready {
    specs: Vec<faas::FunctionSpec>,
    device: Arc<CxlDevice>,
    rootfs: Arc<SharedFs>,
    store: Arc<Store>,
    fork: CxlFork,
    node: Node,
    pids: Vec<Pid>,
}

/// Durable store under pressure, warm parents on one node.
pub fn setup(p: &Params, rec: &mut Recorder) -> Result<Ready, String> {
    let specs = p.jitter().perturb_all(functions());
    let device = Arc::new(CxlDevice::with_capacity_mib(CXL_MIB));
    let rootfs = Arc::new(SharedFs::new());
    let store = Arc::new(Store::with_config(
        Arc::clone(&device),
        StoreConfig {
            high_watermark: HIGH_WATERMARK,
            low_watermark: LOW_WATERMARK,
            durable: true,
            ..StoreConfig::default()
        },
    ));
    let fork = CxlFork::with_store_and_config(
        Arc::clone(&store),
        CxlForkConfig::with_parallelism(PARALLELISM),
    );
    let mut node = new_node(0, NODE_MEM_MIB, &device, &rootfs);
    let mut pids = Vec::with_capacity(specs.len());
    for spec in &specs {
        let (pid, _) = rec
            .time("faas.deploy_cold", 0, || faas::deploy_cold(&mut node, spec))
            .map_err(|e| format!("deploy {} failed: {e}", spec.name))?;
        rec.time("faas.warm_for_checkpoint", 0, || {
            faas::warm_for_checkpoint(&mut node, pid, spec, STEADY_INVOCATIONS)
        })
        .map_err(|e| format!("warm {} failed: {e}", spec.name))?;
        pids.push(pid);
    }
    Ok(Ready {
        specs,
        device,
        rootfs,
        store,
        fork,
        node,
        pids,
    })
}

/// Dirty → checkpoint → release previous → sweep, `generations ×
/// functions` times; then restore what survived and compare bytes.
pub fn run(ready: Ready, p: &Params, rec: &mut Recorder) -> Result<Ran, String> {
    let Ready {
        specs,
        device,
        rootfs,
        store,
        fork,
        mut node,
        pids,
    } = ready;
    let generations = if p.smoke {
        SMOKE_GENERATIONS
    } else {
        GENERATIONS
    };
    // Nobody holds a lease: every committed, unpinned image is fair game
    // for the sweep.
    let leases = LeaseTable::new(SimDuration::from_secs(30));
    let accesses_before_timed = node.counters().get("llc_hit") + node.counters().get("llc_miss");

    let mut sim = SimOutcome::default();
    let mut previous: Vec<Option<CxlForkCheckpoint>> = specs.iter().map(|_| None).collect();
    let mut checkpointed_pages = 0u64;
    let mut op = 0u64;
    let timed_watch = Stopwatch::start();
    for generation in 0..generations {
        for (f, spec) in specs.iter().enumerate() {
            op += 1;
            let invocation_idx = STEADY_INVOCATIONS + 1 + generation;
            let op_span = rec.open("bench.op", op);
            rec.time("faas.run_invocation.warm", op, || {
                faas::run_invocation(&mut node, pids[f], spec, invocation_idx)
            })
            .map_err(|e| format!("invocation of {} failed: {e}", spec.name))?;
            let ckpt = rec
                .time("core.checkpoint", op, || {
                    fork.checkpoint(&mut node, pids[f])
                })
                .map_err(|e| format!("checkpoint {} failed: {e}", spec.name))?;
            let cost = fork.meta(&ckpt).checkpoint_cost;
            sim.e2e.record(cost);
            sim.checkpoint.add_duration(cost);
            checkpointed_pages += fork.meta(&ckpt).footprint_pages;
            if let Some(old) = previous[f].replace(ckpt) {
                rec.time("core.release", op, || fork.release(old, &node))
                    .map_err(|e| format!("release {} failed: {e}", spec.name))?;
            }
            let now = node.now();
            rec.time("cxl_store.evict_to_low_watermark", op, || {
                store.evict_to_low_watermark(&leases, now)
            });
            rec.close(op_span);
        }
    }
    let timed = timed_watch.stop();

    let stats = store.stats();
    sim.cxl_pages_end = device.used_pages();
    sim.offered = op;
    sim.local_pages.add(node.frames().used());
    sim.designated = vec![
        ("cxl_store.evicted_images", stats.evicted_images),
        (
            "cxl_store.journal_pages_written",
            stats.journal_pages_written,
        ),
        ("cxl_store.deduped_pages", stats.deduped_pages),
        ("cxl_store.fresh_pages", stats.fresh_pages),
    ];
    let c = &mut sim.layer_counts;
    device_counts(&device, c);
    node_counts([&node], c);
    if let Some(n) = c.get_mut("node_os.accesses") {
        *n -= accesses_before_timed;
    }
    store_counts(&stats, c);
    c.insert("core.checkpointed_pages", checkpointed_pages);
    let mut layer_values = BTreeMap::new();
    layer_values.insert("cxl_store.dedup_ratio", stats.dedup_ratio());

    // Post-run (untimed): every image that survived the last sweep must
    // restore on another node to exactly the parent's bytes. No parent
    // ran after its last checkpoint, so its current pages are the
    // checkpoint's.
    let mut scratch = new_node(1, NODE_MEM_MIB, &device, &rootfs);
    for (f, ckpt) in previous.iter().enumerate() {
        let Some(ckpt) = ckpt else { continue };
        if !ckpt.image.is_some_and(|i| store.is_live(i)) {
            continue;
        }
        let spec = &specs[f];
        let restored = rec
            .time("core.restore_with", 0, || {
                fork.restore_with(ckpt, &mut scratch, RestoreOptions::mow())
            })
            .map_err(|e| format!("post-run restore of {} failed: {e}", spec.name))?;
        sim.restore.add_duration(restored.restore_latency);
        let layout = faas::FunctionLayout::for_spec(spec);
        let bands = [
            (layout.ro_start, layout.ro_end),
            (layout.rw_start, layout.rw_end),
        ];
        let expected = sample_parent(&node, &device, pids[f], &bands, 16);
        check_child_bytes(&scratch, &device, restored.pid, &expected, &spec.name)?;
        scratch
            .kill(restored.pid)
            .map_err(|e| format!("kill failed: {e}"))?;
    }
    if sim.restore.n == 0 {
        return Err("no image survived the last sweep: nothing to verify".into());
    }

    Ok(Ran {
        timed,
        ops: op,
        sim,
        layer_values,
        scratch_track: None,
    })
}
