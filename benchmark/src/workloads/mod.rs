//! The four workloads and what one rep of any of them yields.
//!
//! A rep is self-contained: it builds its devices, nodes, traces and
//! parents from the seed (`setup`), runs the measured loop (`timed`),
//! and returns everything it observed through public functions and
//! public stats. Nothing survives from one rep to the next, which is
//! what lets the harness demand bit-identical simulated results from
//! every rep of a run.

pub mod burst_scaleout;
pub mod checkpoint_churn;
pub mod cluster_trace;
pub mod restore_fanout;

use std::collections::BTreeMap;
use std::sync::Arc;

use cxl_mem::{CxlDevice, PageData};
use cxlfork::CxlFork;
use cxlporter::{CxlPorter, PorterReport};
use node_os::addr::{PhysAddr, Pid, VirtPageNum};
use node_os::fs::SharedFs;
use node_os::{Node, NodeConfig};
use rfork::{RemoteFork, RestoreOptions, RforkError};
use simclock::stats::LatencyHistogram;
use simclock::{LatencyModel, SimDuration};

use crate::host::{Interval, Stopwatch};
use crate::spans::Recorder;

pub const PAGES_PER_MIB: f64 = 256.0;

/// The benchmark's workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = [
    "cluster_trace",
    "burst_scaleout",
    "restore_fanout",
    "checkpoint_churn",
];

/// The seed whose inputs are the canonical ones: `cluster_trace` then
/// replays exactly the configuration behind `BENCH_cluster.json`.
pub const CANONICAL_SEED: u64 = 6502;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Shrinks the workload to a compile-rot check (seconds, not a
    /// measurement).
    pub smoke: bool,
}

impl Params {
    pub fn jitter(&self) -> Jitter {
        Jitter {
            delta: self.seed ^ CANONICAL_SEED,
        }
    }
}

/// How a seed becomes inputs.
///
/// Every workload has one canonical input (the paper's trace, the
/// Table-1 suite, a fixed op order), and a seed is a *small perturbation*
/// of the functions it runs: each working set grows by 0–3 pages, up to
/// 0.015 % of each footprint moves from anonymous init data to library
/// file pages and as much again to read/write data, and the largest
/// function's footprint grows by 0–1 MiB.
/// The macro shape — which function bursts when, how many ops run, what
/// gets evicted — stays put, so two seeds measure the same work and
/// their metrics differ by far less than the regression bounds; yet no
/// two seeds give the simulator the same inputs, and a change tuned to
/// one seed's page counts shows on the others. [`CANONICAL_SEED`]
/// perturbs nothing.
#[derive(Debug, Clone, Copy)]
pub struct Jitter {
    delta: u64,
}

impl Jitter {
    /// Pseudo-random stream value for `salt`; always 0 at the canonical
    /// seed.
    fn draw(&self, salt: u64) -> u64 {
        if self.delta == 0 {
            return 0;
        }
        crate::host::SplitMix64::new(self.delta ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .next_u64()
    }

    /// `spec` number `index` of its catalog, perturbed.
    pub fn perturb(&self, mut spec: faas::FunctionSpec, index: u64) -> faas::FunctionSpec {
        let step = |salt: u64, unit: f64| (self.draw(index ^ salt) % 4) as f64 * unit;
        spec.ws_pages += self.draw(index) % 4;
        // Anonymous init data → library file pages (content the store
        // must move, where anonymous pages are zero and elided).
        spec.file_fraction += step(0x7E41, 5e-5);
        // Init data → read/write data (what a checkpoint finds dirty and
        // a restore prefetches).
        let to_rw = step(0xD127, 5e-5);
        spec.init_fraction -= to_rw;
        spec.readwrite_fraction += to_rw;
        if spec.footprint_mib >= 512 {
            spec.footprint_mib += self.draw(index ^ 0xF007) % 2;
        }
        spec.validate();
        spec
    }

    /// Every spec of a catalog, perturbed by its position.
    pub fn perturb_all(
        &self,
        specs: impl IntoIterator<Item = faas::FunctionSpec>,
    ) -> Vec<faas::FunctionSpec> {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| self.perturb(spec, i as u64))
            .collect()
    }
}

/// Integer mean, kept as sum and count so two reps compare exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mean {
    pub sum: u128,
    pub n: u64,
}

impl Mean {
    pub fn add(&mut self, v: u64) {
        self.sum += u128::from(v);
        self.n += 1;
    }

    pub fn add_duration(&mut self, d: SimDuration) {
        self.add(d.as_nanos());
    }

    pub fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }
}

/// Everything virtual a rep observed. Deterministic per seed: the
/// harness fails the run if two reps disagree on any field.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SimOutcome {
    /// Virtual latency of every op.
    pub e2e: LatencyHistogram,
    /// `Restored::restore_latency` of every restore the harness issued.
    pub restore: Mean,
    /// `CheckpointMeta::checkpoint_cost` of the checkpoints in play.
    pub checkpoint: Mean,
    /// Local pages (see the metric catalogue for the per-workload rule).
    pub local_pages: Mean,
    /// Device pages in use when the rep ended.
    pub cxl_pages_end: u64,
    /// Ops offered: trace length plus re-dispatches, or loop iterations.
    pub offered: u64,
    /// Ops the modelled system did not serve (drops, fairness drops,
    /// work lost to crashes) or that returned a typed `Err`.
    pub unserved: u64,
    /// The porter's full report (trace workloads).
    pub report: Option<PorterReport>,
    /// Counters that prove the workload exercised what it claims to:
    /// each must be non-zero.
    pub designated: Vec<(&'static str, u64)>,
    /// Per-layer counts read from public stats after the rep.
    pub layer_counts: BTreeMap<&'static str, u64>,
}

/// What the measured part of a rep yields.
#[derive(Debug)]
pub struct Ran {
    pub timed: Interval,
    pub ops: u64,
    pub sim: SimOutcome,
    /// Per-layer values that are ratios, not exact counts (kept out of
    /// the bit-identity comparison).
    pub layer_values: BTreeMap<&'static str, f64>,
    /// Node id of the scratch node the post-run restores of a trace
    /// workload ran on, so they can be told from the porter's own.
    pub scratch_track: Option<u32>,
}

/// One rep: its set-up interval plus what the measured part yielded.
#[derive(Debug)]
pub struct RepOutcome {
    pub setup: Interval,
    pub ran: Ran,
}

/// Runs `setup` under the stopwatch and a `bench.setup` span.
fn timed_setup<S>(
    p: &Params,
    rec: &mut Recorder,
    setup: fn(&Params, &mut Recorder) -> Result<S, String>,
) -> Result<(S, Interval), String> {
    let watch = Stopwatch::start();
    let span = rec.open("bench.setup", 0);
    let ready = setup(p, rec)?;
    rec.close(span);
    Ok((ready, watch.stop()))
}

/// Applies `$body` to the module of the named workload.
macro_rules! dispatch {
    ($workload:expr, $m:ident => $body:expr) => {
        match $workload {
            "cluster_trace" => {
                use cluster_trace as $m;
                $body
            }
            "burst_scaleout" => {
                use burst_scaleout as $m;
                $body
            }
            "restore_fanout" => {
                use restore_fanout as $m;
                $body
            }
            "checkpoint_churn" => {
                use checkpoint_churn as $m;
                $body
            }
            other => Err(format!("unknown workload {other:?}")),
        }
    };
}

/// Runs one rep of `workload`: set-up, then the measured part.
pub fn run_rep(workload: &str, p: &Params, rec: &mut Recorder) -> Result<RepOutcome, String> {
    dispatch!(workload, m => {
        let (ready, setup) = timed_setup(p, rec, m::setup)?;
        Ok(RepOutcome {
            setup,
            ran: m::run(ready, p, rec)?,
        })
    })
}

/// Sets `workload` up, drops the result, and returns how long it took:
/// one more `setup_s` sample.
pub fn setup_only(workload: &str, p: &Params, rec: &mut Recorder) -> Result<Interval, String> {
    dispatch!(workload, m => Ok(timed_setup(p, rec, m::setup)?.1))
}

pub fn new_node(
    id: u32,
    local_mem_mib: u64,
    device: &Arc<CxlDevice>,
    rootfs: &Arc<SharedFs>,
) -> Node {
    Node::with_rootfs(
        NodeConfig::default()
            .with_id(id)
            .with_local_mem_mib(local_mem_mib)
            .with_model(LatencyModel::calibrated()),
        Arc::clone(device),
        Arc::clone(rootfs),
    )
}

/// Sums the fault counters `Node::counters` exposes, per flavour, plus
/// the accesses issued (every access is exactly one LLC hit or miss).
pub fn node_counts<'n>(
    nodes: impl IntoIterator<Item = &'n Node>,
    counts: &mut BTreeMap<&'static str, u64>,
) {
    const FLAVOURS: [(&str, &str); 8] = [
        ("fault_upgrade_in_place", "node_os.faults.upgrade_in_place"),
        ("fault_anon_zero_fill", "node_os.faults.anon_zero_fill"),
        ("fault_file_major", "node_os.faults.file_major"),
        ("fault_file_minor", "node_os.faults.file_minor"),
        ("fault_local_cow", "node_os.faults.local_cow"),
        ("fault_cxl_cow", "node_os.faults.cxl_cow"),
        ("fault_cxl_pull", "node_os.faults.cxl_pull"),
        ("fault_remote_pull", "node_os.faults.remote_pull"),
    ];
    for node in nodes {
        let c = node.counters();
        for (counter, metric) in FLAVOURS {
            *counts.entry(metric).or_insert(0) += c.get(counter);
        }
        *counts.entry("node_os.accesses").or_insert(0) += c.get("llc_hit") + c.get("llc_miss");
    }
}

/// Device read/write/occupancy counts.
pub fn device_counts(device: &CxlDevice, counts: &mut BTreeMap<&'static str, u64>) {
    let stats = device.stats();
    counts.insert("cxl_mem.page_reads", stats.total_reads());
    counts.insert("cxl_mem.page_writes", stats.total_writes());
    counts.insert("cxl_mem.used_pages_end", device.used_pages());
}

pub fn store_counts(stats: &cxl_store::StoreStats, counts: &mut BTreeMap<&'static str, u64>) {
    counts.insert("cxl_store.interned_pages", stats.interned_pages);
    counts.insert("cxl_store.deduped_pages", stats.deduped_pages);
    counts.insert("cxl_store.fresh_pages", stats.fresh_pages);
    counts.insert("cxl_store.evicted_images", stats.evicted_images);
    counts.insert(
        "cxl_store.journal_pages_written",
        stats.journal_pages_written,
    );
}

/// The page a process maps at `vpn`, wherever it lives, without
/// advancing any clock: local frames are read in place, CXL pages via a
/// stats-free device snapshot.
fn mapped_page(node: &Node, device: &CxlDevice, pid: Pid, vpn: VirtPageNum) -> Option<PageData> {
    let pte = node.process(pid).ok()?.mm.translate(vpn);
    match pte.target()? {
        PhysAddr::Local(pfn) => Some(node.frames().data(pfn).clone()),
        PhysAddr::Cxl(page) => device.snapshot_pages(&[page]).ok()?.pop(),
    }
}

/// Correctness check: a restored child must map, at a sampled page set,
/// exactly the bytes the checkpoint captured. `expected` comes from
/// [`sample_parent`] taken when the checkpoint was; pages the child has
/// not mapped yet (migrate-on-access starts empty) are skipped, but at
/// least one page must compare.
pub fn check_child_bytes(
    node: &Node,
    device: &CxlDevice,
    pid: Pid,
    expected: &[(VirtPageNum, u64)],
    what: &str,
) -> Result<(), String> {
    let mut compared = 0;
    for (vpn, fingerprint) in expected {
        let Some(page) = mapped_page(node, device, pid, *vpn) else {
            continue;
        };
        if page.fingerprint() != *fingerprint {
            return Err(format!(
                "{what}: child page {vpn:?} differs from the parent's bytes at checkpoint"
            ));
        }
        compared += 1;
    }
    if compared == 0 {
        return Err(format!("{what}: no sampled page was mapped in the child"));
    }
    Ok(())
}

/// Fingerprints of up to `n` evenly spaced pages from each of `bands`
/// (`[start, end)` page ranges of the parent's address space).
pub fn sample_parent(
    node: &Node,
    device: &CxlDevice,
    pid: Pid,
    bands: &[(u64, u64)],
    n: u64,
) -> Vec<(VirtPageNum, u64)> {
    let mut out = Vec::new();
    for &(start, end) in bands {
        let step = ((end - start) / n.max(1)).max(1);
        for vpn in (start..end).step_by(step as usize).map(VirtPageNum) {
            if let Some(page) = mapped_page(node, device, pid, vpn) {
                out.push((vpn, page.fingerprint()));
            }
        }
    }
    out
}

/// What both trace workloads read off a finished replay: the
/// exactly-once balance, the latency samples, memory, the checkpoints in
/// the porter's object store, and the per-layer counts and shares.
///
/// It then restores every stored checkpoint once (MoW + dirty prefetch,
/// the default options) onto a scratch node on the same device (its id
/// is the first one past the cluster's) and kills the child — untimed, after the replay — so a
/// restore-path change shows as `sim_restore_mean_us` even though the
/// replay never lets the harness observe a single restore from outside.
/// An image the store evicted answers with the typed miss and is skipped.
/// `fork` must be configured like the porter's own mechanism.
pub fn porter_outcome(
    porter: &CxlPorter<CxlFork>,
    report: PorterReport,
    trace_len: u64,
    timed: Interval,
    fork: &CxlFork,
    rec: &mut Recorder,
) -> Result<Ran, String> {
    let r = &report;
    let completed = r.warm_hits + r.restores + r.full_cold;
    if completed + r.dropped + r.fair_drops != trace_len + r.redispatched {
        return Err(format!(
            "exactly-once accounting broken: completed {completed} + dropped {} + fair_drops {} \
             != trace_len {trace_len} + redispatched {}",
            r.dropped, r.fair_drops, r.redispatched
        ));
    }

    let device = &porter.cluster.device;
    let mut sim = SimOutcome {
        e2e: r.overall.clone(),
        cxl_pages_end: device.used_pages(),
        offered: trace_len + r.redispatched,
        unserved: r.dropped + r.fair_drops + r.work_lost,
        ..SimOutcome::default()
    };
    for peak in &r.peak_local_pages {
        sim.local_pages.add(*peak);
    }

    let c = &mut sim.layer_counts;
    device_counts(device, c);
    node_counts(&porter.cluster.nodes, c);
    c.insert("trace_gen.invocations", trace_len);
    c.insert("cxl_sim.events", r.engine_events);
    c.insert("cxlporter.recycles", r.recycles);
    c.insert("cxlporter.checkpoints", r.checkpoints);
    c.insert("cxlporter.checkpoint_reclaims", r.checkpoint_reclaims);
    c.insert("cxlporter.image_evictions", r.image_evictions);
    c.insert("cxlporter.image_misses", r.image_misses);
    c.insert("cxlporter.fair_deferrals", r.fair_deferrals);
    c.insert("cxlporter.crashes_survived", r.crashes_survived);
    c.insert("cxlporter.redispatched", r.redispatched);
    c.insert("cxlporter.device_retries", r.device_retries);

    let served = completed.max(1) as f64;
    let shares = BTreeMap::from([
        ("cxlporter.warm_share", r.warm_hits as f64 / served),
        ("cxlporter.restore_share", r.restores as f64 / served),
        ("cxlporter.cold_share", r.full_cold as f64 / served),
    ]);

    let scratch_node = porter.cluster.nodes.len() as u32;
    let mut scratch = new_node(scratch_node, 4096, device, &porter.cluster.rootfs);
    for (_, stored) in porter.store().iter() {
        let ckpt = &stored.checkpoint;
        sim.checkpoint.add_duration(fork.meta(ckpt).checkpoint_cost);
        match rec.time("core.restore_with", 0, || {
            fork.restore_with(ckpt, &mut scratch, RestoreOptions::mow())
        }) {
            Ok(restored) => {
                sim.restore.add_duration(restored.restore_latency);
                scratch
                    .kill(restored.pid)
                    .map_err(|e| format!("kill of a post-run child failed: {e}"))?;
            }
            Err(RforkError::EvictedImage { .. }) => {}
            Err(e) => return Err(format!("post-run restore failed: {e}")),
        }
    }
    sim.report = Some(report);
    Ok(Ran {
        timed,
        ops: trace_len,
        sim,
        layer_values: shares,
        scratch_track: Some(scratch_node),
    })
}
