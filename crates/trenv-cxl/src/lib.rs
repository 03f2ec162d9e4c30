//! TrEnv-CXL: a baseline modelled on TrEnv (SOSP '24), the system the
//! paper compares against in §9.
//!
//! TrEnv "relies, partially, on checkpointing, restoring, and sharing
//! function data over CXL … It is a CRIU-based solution optimized for
//! intra-node scaling that does not provide remote fork semantics.
//! Instead, it requires an expensive pre-processing step before remote
//! nodes can spawn functions … for each function on each remote node, it
//! requires de-serializing CRIU metadata in order to generate dedicated
//! local OS data structures (i.e., **memory templates**) that functions
//! will then attach and use to access the checkpointed data on CXL
//! memory" (§9).
//!
//! This reproduction implements exactly that architecture:
//!
//! * **Checkpoint**: function *data* pages are copied into a CXL region
//!   (shared cluster-wide, like CXLfork), but the OS metadata is
//!   serialized in CRIU image format — TrEnv is CRIU-based.
//! * **Restore**: a restore on node *N* needs a `(function, node)`
//!   **memory template** — node-local page-table leaves whose entries map
//!   the CXL data read-only. If the template does not exist yet, the
//!   restore first *pre-processes*: it deserializes the CRIU metadata
//!   (per-PTE decoding) and materializes the template, paying both the
//!   latency and the idle local memory the template occupies from then
//!   on. Subsequent restores on that node attach quickly.
//!
//! The contrast the paper draws — "CXLfork enables the rapid cloning of
//! functions on any remote node without requiring any pre-processing or
//! idling local data structures … CXLfork remote-forks functions 1.8×
//! faster than TrEnv on average [without pre-created templates]" — falls
//! out of this design: the first restore per node pays a Mitosis-scale
//! metadata deserialization, and every node holds template state for
//! every function it may run. TrEnv also has no tiering policies and no
//! cross-node OS-state sharing, so [`rfork::RestoreOptions`] are ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cxl_mem::lockdep::{LockClass, TrackedMutex};

use criu_cxl::images::{CoreImage, MmImage, PagemapEntry, PagemapImage};
use cxl_mem::{CxlPageId, NodeId, RegionId, PAGE_SIZE};
use node_os::addr::{PhysAddr, Pid, VirtPageNum};
use node_os::page_table::PtLeaf;
use node_os::pte::{Pte, PteFlags};
use node_os::vma::Vma;
use node_os::Node;
use rfork::{CheckpointMeta, RemoteFork, RestoreOptions, Restored, RforkError};
use simclock::SimDuration;

/// A pre-processed per-node memory template: local page-table leaves whose
/// entries map the checkpoint's CXL pages read-only.
#[derive(Debug)]
struct Template {
    /// `(leaf_index, leaf)` pairs, ready to clone into a new process.
    leaves: Vec<(u64, Arc<PtLeaf>)>,
    /// Idle local frames the template pins on its node (one per leaf, the
    /// backing of the template's page-table pages).
    pinned_frames: Vec<node_os::Pfn>,
}

/// Every template materialized across the cluster.
#[derive(Debug, Default)]
struct Templates {
    /// `(checkpoint region, node) → template`. Templates are per-function
    /// *and* per-node — the pre-processing TrEnv requires everywhere.
    /// A `BTreeMap` keeps any walk over the table deterministic (restore
    /// cost accounting feeds the bench reports).
    built: BTreeMap<(RegionId, NodeId), Arc<Template>>,
    /// Checkpoints whose release was refused while templates still
    /// mapped them: dropping the last of those templates frees the
    /// region.
    released: BTreeSet<RegionId>,
}

impl Templates {
    /// Nodes holding a template of the checkpoint in `region`.
    fn holders(&self, region: RegionId) -> Vec<NodeId> {
        self.built
            .keys()
            .filter(|&&(r, _)| r == region)
            .map(|&(_, node)| node)
            .collect()
    }
}

/// The TrEnv-CXL mechanism.
#[derive(Debug)]
pub struct TrEnvCxl {
    next_id: AtomicU64,
    templates: TrackedMutex<Templates>,
}

impl Default for TrEnvCxl {
    fn default() -> Self {
        TrEnvCxl {
            next_id: AtomicU64::new(0),
            templates: TrackedMutex::new(LockClass::TRENV_TEMPLATES, Templates::default()),
        }
    }
}

/// A TrEnv checkpoint: CXL-resident data pages plus CRIU-format metadata.
#[derive(Debug)]
pub struct TrEnvCheckpoint {
    meta: CheckpointMeta,
    /// The device region holding the data pages.
    pub region: RegionId,
    core_bytes: Vec<u8>,
    mm_bytes: Vec<u8>,
    pagemap_bytes: Vec<u8>,
    /// vpn → CXL page, in pagemap order.
    pages: Vec<(u64, CxlPageId, bool)>,
    vmas: Vec<Vma>,
}

impl TrEnvCheckpoint {
    /// Size of the CRIU metadata a template build must deserialize.
    pub fn metadata_bytes(&self) -> u64 {
        (self.core_bytes.len() + self.mm_bytes.len() + self.pagemap_bytes.len()) as u64
    }
}

impl TrEnvCxl {
    /// Creates the mechanism.
    pub fn new() -> Self {
        TrEnvCxl::default()
    }

    /// Number of templates currently materialized across the cluster.
    pub fn template_count(&self) -> usize {
        self.templates.lock().built.len()
    }

    /// `true` if `node` already holds a template for this checkpoint.
    pub fn has_template(&self, checkpoint: &TrEnvCheckpoint, node: NodeId) -> bool {
        self.templates
            .lock()
            .built
            .contains_key(&(checkpoint.region, node))
    }

    /// The local frames the templates on `node` pin outside any process
    /// (one per template leaf), in template order. A node audit must
    /// declare them as external references for the refcount balance to
    /// close.
    pub fn template_frames(&self, node: NodeId) -> Vec<node_os::Pfn> {
        let templates = self.templates.lock();
        let on_node = templates.built.iter().filter(|((_, n), _)| *n == node);
        on_node
            .flat_map(|(_, t)| t.pinned_frames.iter().copied())
            .collect()
    }

    /// Pre-processes the template for `checkpoint` on `node` (TrEnv's
    /// expensive step): deserializes the CRIU metadata and materializes
    /// node-local page-table leaves mapping the CXL data. Idempotent.
    ///
    /// Returns the modelled cost (charged to the node's clock; zero if the
    /// template already existed).
    ///
    /// # Errors
    ///
    /// [`RforkError::Os`] if the node cannot pin the template's frames;
    /// [`RforkError::BadImage`] if the metadata is corrupt.
    pub fn build_template(
        &self,
        checkpoint: &TrEnvCheckpoint,
        node: &mut Node,
    ) -> Result<SimDuration, RforkError> {
        let key = (checkpoint.region, node.id());
        if self.templates.lock().built.contains_key(&key) {
            return Ok(SimDuration::ZERO);
        }
        let model = node.model().clone();

        // Deserialize the CRIU metadata (validates it, too).
        let _core = CoreImage::decode(&checkpoint.core_bytes)?;
        let _mm = MmImage::decode(&checkpoint.mm_bytes)?;
        let pagemap = PagemapImage::decode(&checkpoint.pagemap_bytes)?;

        // Materialize local leaves with read-only CXL mappings. The
        // BTreeMap comes out already sorted by leaf index.
        let mut leaves: BTreeMap<u64, PtLeaf> = BTreeMap::new();
        for (entry, (vpn, page, file_backed)) in pagemap.entries.iter().zip(&checkpoint.pages) {
            debug_assert_eq!(entry.vpn, *vpn);
            let v = VirtPageNum(*vpn);
            let mut flags = PteFlags::PRESENT | PteFlags::COW;
            if *file_backed {
                flags |= PteFlags::FILE;
            }
            if entry.dirty {
                flags |= PteFlags::DIRTY;
            }
            leaves
                .entry(v.leaf_index())
                .or_default()
                .set(v.leaf_slot(), Pte::mapped(PhysAddr::Cxl(*page), flags));
        }
        let leaves: Vec<(u64, Arc<PtLeaf>)> = leaves
            .into_iter()
            .map(|(idx, leaf)| (idx, Arc::new(leaf)))
            .collect();

        // The template's page-table pages idle in local memory from now on
        // (one frame per leaf).
        let mut pinned = Vec::with_capacity(leaves.len());
        for _ in 0..leaves.len() {
            match node.frames_mut().alloc_zeroed() {
                Ok(pfn) => pinned.push(pfn),
                Err(e) => {
                    for pfn in pinned {
                        node.frames_mut().dec_ref(pfn);
                    }
                    return Err(e.into());
                }
            }
        }

        let cost = model.deserialize(checkpoint.metadata_bytes())
            + SimDuration::from_nanos(model.descriptor_decode_pte_ns)
                * checkpoint.pages.len() as u64
            + model.local_copy(leaves.len() as u64 * PAGE_SIZE);
        node.clock_mut().advance(cost);

        self.templates.lock().built.insert(
            key,
            Arc::new(Template {
                leaves,
                pinned_frames: pinned,
            }),
        );
        Ok(cost)
    }

    /// Drops the templates that `nodes` hold for the checkpoint in
    /// `region` (its [`TrEnvCheckpoint::region`]), unpinning their
    /// frames. Run it before releasing the checkpoint; after a release
    /// [`RemoteFork::release_checkpoint`] refused, dropping the last
    /// template also frees the region.
    ///
    /// Returns the device pages freed with the region (0 unless this call
    /// finished a refused release).
    ///
    /// # Errors
    ///
    /// [`RforkError::Cxl`] if the region of a refused release is gone.
    pub fn drop_templates(&self, region: RegionId, nodes: &mut [Node]) -> Result<u64, RforkError> {
        let finish = {
            let mut templates = self.templates.lock();
            for node in nodes.iter_mut() {
                if let Some(t) = templates.built.remove(&(region, node.id())) {
                    // The mechanism holds the only Arc once removed.
                    for pfn in &t.pinned_frames {
                        node.frames_mut().dec_ref(*pfn);
                    }
                }
            }
            templates.holders(region).is_empty() && templates.released.remove(&region)
        };
        match nodes.first() {
            Some(node) if finish => Ok(node.device().destroy_region(region)?),
            _ => Ok(0),
        }
    }
}

impl RemoteFork for TrEnvCxl {
    type Checkpoint = TrEnvCheckpoint;

    fn name(&self) -> &'static str {
        "TrEnv-CXL"
    }

    fn checkpoint(&self, node: &mut Node, pid: Pid) -> Result<TrEnvCheckpoint, RforkError> {
        let node_id = node.id();
        let model = node.model().clone();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);

        // ---- Capture state (CRIU-format metadata; data to CXL). ----
        let capture = node
            .capture(pid, |_| true)
            .map_err(|e| RforkError::during("checkpoint_read", e))?;
        let (core, mm_img) = {
            let process = node.process(pid)?;
            let mm_img = MmImage {
                vmas: process.mm.vmas.iter().cloned().collect(),
            };
            (CoreImage::capture(&process.task), mm_img)
        };

        // ---- Data pages into a CXL region (shared, like CXLfork). ----
        let device = Arc::clone(node.device());
        let guard = device.create_region_guarded(&format!("trenv:{}#{id}", core.comm));
        let region = guard.id();
        let page_ids = device.alloc_batch(region, capture.pages.len() as u64)?;
        device.write_pages_owned(
            page_ids.iter().copied().zip(capture.data).collect(),
            node_id,
        )?;
        let mut pages = Vec::with_capacity(capture.pages.len());
        let mut pagemap = PagemapImage::default();
        for (i, (captured, page)) in capture.pages.iter().zip(page_ids).enumerate() {
            let vpn = captured.vpn.0;
            pages.push((vpn, page, captured.pte.flags().contains(PteFlags::FILE)));
            pagemap.entries.push(PagemapEntry {
                vpn,
                dirty: captured.pte.is_dirty(),
                page_index: i as u64,
            });
        }

        let core_bytes = core.encode()?;
        let mm_bytes = mm_img.encode()?;
        let pagemap_bytes = pagemap.encode();
        let meta_bytes = (core_bytes.len() + mm_bytes.len() + pagemap_bytes.len()) as u64;

        // Cost: stream data to CXL + serialize CRIU metadata, plus any
        // backoff the capture's read retried with.
        let payload = pages.len() as u64 * PAGE_SIZE;
        let cost = model.cxl_write_copy(payload) + model.serialize(meta_bytes) + capture.backoff;
        node.clock_mut().advance(cost);
        node.add_transient_retries(capture.retries);

        let region = guard.commit();
        Ok(TrEnvCheckpoint {
            meta: CheckpointMeta {
                comm: core.comm.clone(),
                footprint_pages: capture.footprint,
                cxl_pages: pages.len() as u64 + meta_bytes.div_ceil(PAGE_SIZE),
                created_at: node.now(),
                checkpoint_cost: cost,
                vma_count: mm_img.vmas.len(),
            },
            region,
            core_bytes,
            mm_bytes,
            pagemap_bytes,
            pages,
            vmas: mm_img.vmas,
        })
    }

    fn restore_with(
        &self,
        checkpoint: &TrEnvCheckpoint,
        node: &mut Node,
        _options: RestoreOptions,
    ) -> Result<Restored, RforkError> {
        let model = node.model().clone();

        // TrEnv cannot spawn without the node's template: build it on
        // demand (the pre-processing CXLfork avoids, §9).
        let template_cost = self.build_template(checkpoint, node)?;

        let core = CoreImage::decode(&checkpoint.core_bytes)?;
        let mut cost = template_cost
            + SimDuration::from_nanos(model.process_create_ns)
            + SimDuration::from_nanos(model.file_reopen_ns) * core.fds.len() as u64
            + SimDuration::from_nanos(model.fork_vma_copy_ns) * checkpoint.vmas.len() as u64;

        let pid = node.spawn(&core.comm)?;
        {
            let process = node.process_mut(pid)?;
            process.task.regs = core.regs;
            process.task.ns.pid_ns = core.pid_ns;
            process.task.ns.mount_ns = core.mount_ns;
            process.task.fds = core.restore_fds();
        }

        // Attach: clone the template's leaves into the new process (a
        // fast local copy; data stays in CXL, CoW on write).
        let template = {
            let templates = self.templates.lock();
            Arc::clone(
                templates
                    .built
                    .get(&(checkpoint.region, node.id()))
                    .expect("template built above"),
            )
        };
        node.with_process_ctx(pid, |p, _| -> Result<(), RforkError> {
            for vma in &checkpoint.vmas {
                p.mm.vmas.insert(vma.clone()).map_err(RforkError::from)?;
            }
            for (leaf_index, leaf) in &template.leaves {
                p.mm.page_table
                    .install_local_leaf(*leaf_index, (**leaf).clone());
            }
            Ok(())
        })??;
        cost += model.local_copy(template.leaves.len() as u64 * PAGE_SIZE);

        node.clock_mut().advance(cost);
        Ok(Restored {
            pid,
            restore_latency: cost,
        })
    }

    fn meta<'c>(&self, checkpoint: &'c TrEnvCheckpoint) -> &'c CheckpointMeta {
        &checkpoint.meta
    }

    /// Like CXLfork-MoW, restored instances consume local memory only for
    /// what they write — plus the per-node template pinned alongside.
    fn restore_memory_estimate(
        &self,
        checkpoint: &TrEnvCheckpoint,
        _options: RestoreOptions,
    ) -> u64 {
        checkpoint.meta.footprint_pages / 8
    }

    /// Frees the CXL data region — once no node holds a template of it
    /// any more. Templates pin local frames on their nodes, which this
    /// call (given one node, immutably) cannot unpin: the lifecycle
    /// coupling CXLfork avoids. While any remain the release is refused
    /// and nothing is torn down; [`TrEnvCxl::drop_templates`] then
    /// unpins them and frees the region with the last one.
    ///
    /// # Errors
    ///
    /// [`RforkError::Unsupported`] while templates remain;
    /// [`RforkError::Cxl`] if the region is already gone.
    fn release_checkpoint(
        &self,
        checkpoint: TrEnvCheckpoint,
        node: &Node,
    ) -> Result<u64, RforkError> {
        {
            let mut templates = self.templates.lock();
            let holders = templates.holders(checkpoint.region);
            if !holders.is_empty() {
                templates.released.insert(checkpoint.region);
                return Err(RforkError::Unsupported(format!(
                    "{}: memory templates on {holders:?} still map the checkpoint; \
                     drop_templates must run before release",
                    checkpoint.meta.comm
                )));
            }
        }
        Ok(node.device().destroy_region(checkpoint.region)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_mem::CxlDevice;
    use node_os::fs::SharedFs;
    use node_os::mm::{Access, FaultKind};
    use node_os::vma::Protection;
    use node_os::NodeConfig;

    fn cluster() -> (Node, Node) {
        let device = Arc::new(CxlDevice::with_capacity_mib(128));
        let rootfs = Arc::new(SharedFs::new());
        (
            Node::with_rootfs(
                NodeConfig::default().with_id(0).with_local_mem_mib(128),
                Arc::clone(&device),
                Arc::clone(&rootfs),
            ),
            Node::with_rootfs(
                NodeConfig::default().with_id(1).with_local_mem_mib(128),
                device,
                rootfs,
            ),
        )
    }

    /// A realistically sized process: 8192 pages (32 MiB) — template
    /// pre-processing costs only show at scale.
    const HEAP_PAGES: u64 = 8192;

    fn build_process(node: &mut Node) -> Pid {
        let pid = node.spawn("fn").unwrap();
        node.process_mut(pid)
            .unwrap()
            .mm
            .map_anonymous(0, HEAP_PAGES, Protection::read_write(), "heap")
            .unwrap();
        for i in 0..HEAP_PAGES {
            node.access(pid, i, Access::Write).unwrap();
        }
        pid
    }

    #[test]
    fn first_restore_builds_a_template_later_ones_reuse_it() {
        let (mut src, mut dst) = cluster();
        let pid = build_process(&mut src);
        let trenv = TrEnvCxl::new();
        let ckpt = trenv.checkpoint(&mut src, pid).unwrap();
        assert!(!trenv.has_template(&ckpt, dst.id()));

        let frames_before = dst.frames().used();
        let first = trenv.restore(&ckpt, &mut dst).unwrap();
        assert!(trenv.has_template(&ckpt, dst.id()));
        assert_eq!(trenv.template_count(), 1);
        // The template pins idle local frames.
        assert!(dst.frames().used() > frames_before);

        let second = trenv.restore(&ckpt, &mut dst).unwrap();
        assert!(
            second.restore_latency * 2 < first.restore_latency,
            "template reuse: first {} vs second {}",
            first.restore_latency,
            second.restore_latency
        );
        assert_eq!(trenv.template_count(), 1, "no duplicate template");
    }

    #[test]
    fn templates_are_per_node() {
        let (mut src, mut dst) = cluster();
        let pid = build_process(&mut src);
        let trenv = TrEnvCxl::new();
        let ckpt = trenv.checkpoint(&mut src, pid).unwrap();
        trenv.restore(&ckpt, &mut dst).unwrap();
        // The source node has no template until it restores too.
        assert!(!trenv.has_template(&ckpt, src.id()));
        trenv.restore(&ckpt, &mut src).unwrap();
        assert_eq!(trenv.template_count(), 2);
    }

    #[test]
    fn restored_instance_shares_cxl_data_and_cows_on_write() {
        let (mut src, mut dst) = cluster();
        let pid = build_process(&mut src);
        let trenv = TrEnvCxl::new();
        let ckpt = trenv.checkpoint(&mut src, pid).unwrap();
        let r = trenv.restore(&ckpt, &mut dst).unwrap();
        let read = dst.access(r.pid, 3, Access::Read).unwrap();
        assert_eq!(read.fault, None, "data mapped read-only from CXL");
        assert!(read.cxl_tier);
        let write = dst.access(r.pid, 3, Access::Write).unwrap();
        assert_eq!(write.fault, Some(FaultKind::CxlCow));
    }

    #[test]
    fn cxlfork_is_faster_without_preexisting_templates() {
        // The §9 comparison: on a fresh node, CXLfork's attach beats
        // TrEnv's template pre-processing (paper: 1.8x on average).
        let (mut src, mut dst) = cluster();
        let pid = build_process(&mut src);
        let trenv = TrEnvCxl::new();
        let tc = trenv.checkpoint(&mut src, pid).unwrap();
        let t = trenv.restore(&tc, &mut dst).unwrap();

        let (mut src2, mut dst2) = cluster();
        let pid2 = build_process(&mut src2);
        let fork = cxlfork_for_test();
        let fc = fork.checkpoint(&mut src2, pid2).unwrap();
        let f = fork
            .restore_with(
                &fc,
                &mut dst2,
                RestoreOptions {
                    policy: rfork::TierPolicy::MigrateOnWrite,
                    prefetch_dirty: false,
                    sync_hot_prefetch: false,
                },
            )
            .unwrap();
        assert!(
            f.restore_latency.mul_f64(1.3) < t.restore_latency,
            "CXLfork {} vs TrEnv-no-template {}",
            f.restore_latency,
            t.restore_latency
        );
    }

    fn cxlfork_for_test() -> cxlfork::CxlFork {
        cxlfork::CxlFork::new()
    }

    #[test]
    fn drop_templates_releases_pinned_frames() {
        let (mut src, mut dst) = cluster();
        let pid = build_process(&mut src);
        let trenv = TrEnvCxl::new();
        let ckpt = trenv.checkpoint(&mut src, pid).unwrap();
        let before = dst.frames().used();
        let r = trenv.restore(&ckpt, &mut dst).unwrap();
        dst.kill(r.pid).unwrap();
        assert!(dst.frames().used() > before, "template still pinned");
        let mut nodes = [src, dst];
        assert_eq!(trenv.drop_templates(ckpt.region, &mut nodes), Ok(0));
        assert_eq!(nodes[1].frames().used(), before);
        assert_eq!(trenv.template_count(), 0);
        assert!(trenv.release_checkpoint(ckpt, &nodes[0]).unwrap() > 0);
    }

    #[test]
    fn declared_template_frames_close_the_node_audit() {
        let (mut src, mut dst) = cluster();
        let pid = build_process(&mut src);
        let trenv = TrEnvCxl::new();
        let ckpt = trenv.checkpoint(&mut src, pid).unwrap();
        let before = dst.frames().used();
        trenv.restore(&ckpt, &mut dst).unwrap();
        let pins = trenv.template_frames(dst.id());
        assert!(!pins.is_empty());
        assert!(trenv.template_frames(src.id()).is_empty());
        // Undeclared, every pinned frame is a leak; declared, none is.
        let leaks = cxl_check::audit_node(&dst);
        assert_eq!(leaks.len(), pins.len(), "{leaks:?}");
        assert!(leaks
            .iter()
            .all(|v| matches!(v, cxl_check::Violation::FrameLeak { .. })));
        let audit = cxl_check::NodeAudit::new(&dst).with_external_refs(pins.iter().copied());
        assert_eq!(audit.run(), Vec::new());
        let mut nodes = [src, dst];
        trenv.drop_templates(ckpt.region, &mut nodes).unwrap();
        assert!(trenv.template_frames(nodes[1].id()).is_empty());
        assert_eq!(nodes[1].frames().used(), before);
        assert_eq!(cxl_check::audit_node(&nodes[1]), Vec::new());
    }

    #[test]
    fn release_with_a_live_template_is_refused_and_strands_nothing() {
        // Restore on the destination, kill the instance, release: the
        // template still pins frames there, so the release is refused
        // and the template stays findable. The documented teardown then
        // unpins it and frees the region with it.
        let (mut src, mut dst) = cluster();
        let pid = build_process(&mut src);
        let trenv = TrEnvCxl::new();
        let ckpt = trenv.checkpoint(&mut src, pid).unwrap();
        let region = ckpt.region;
        let device = Arc::clone(src.device());
        let pages = device.region_usage(region).unwrap().pages;
        let baseline = dst.frames().used();
        let r = trenv.restore(&ckpt, &mut dst).unwrap();
        dst.kill(r.pid).unwrap();

        let refused = trenv.release_checkpoint(ckpt, &dst);
        assert!(
            matches!(&refused, Err(RforkError::Unsupported(m)) if m.contains("drop_templates")),
            "{refused:?}"
        );
        assert_eq!(trenv.template_count(), 1, "the template is still findable");
        assert_eq!(device.region_usage(region).unwrap().pages, pages);

        let mut nodes = [src, dst];
        assert_eq!(trenv.drop_templates(region, &mut nodes), Ok(pages));
        assert_eq!(nodes[1].frames().used(), baseline);
        assert_eq!(trenv.template_count(), 0);
        assert!(device.region_usage(region).is_err(), "region freed");
        assert_eq!(cxl_check::audit_node(&nodes[1]), Vec::new());
        assert_eq!(cxl_check::audit_device(&device), Vec::new());
    }

    #[test]
    fn corrupt_metadata_fails_template_build() {
        let (mut src, mut dst) = cluster();
        let pid = build_process(&mut src);
        let trenv = TrEnvCxl::new();
        let mut ckpt = trenv.checkpoint(&mut src, pid).unwrap();
        ckpt.pagemap_bytes.truncate(6);
        assert!(matches!(
            trenv.restore(&ckpt, &mut dst),
            Err(RforkError::BadImage(_))
        ));
        assert_eq!(trenv.template_count(), 0);
    }
}
