//! # CXLfork — fast remote fork over CXL fabrics
//!
//! A reproduction of *CXLfork: Fast Remote Fork over CXL Fabrics*
//! (ASPLOS '25). CXLfork is a remote-fork interface that realizes close to
//! **zero-serialization, zero-copy** process cloning across the nodes of a
//! CXL-interconnected cluster:
//!
//! * **Checkpoint** (§4.1): process data *and* OS-maintained state (page
//!   tables, VMA tree, task structure) are copied as-is into shared CXL
//!   memory with streaming non-temporal stores, then **rebased** — every
//!   internal pointer is rewritten to a machine-independent CXL device
//!   page number so any OS instance can remap and dereference the
//!   structures. Clean private file mappings (libraries) are checkpointed
//!   too, trading checkpoint size for restore performance. Only genuinely
//!   global state (open fds, namespaces) is lightly serialized.
//! * **Restore** (§4.2): instead of copying, the target node allocates
//!   only the *upper levels* of the page-table and VMA trees and
//!   **attaches** the checkpointed leaves, restoring OS state in near
//!   constant time. The process resumes immediately; reads are served
//!   straight from CXL (and cached by the local LLC), writes take
//!   migrate-on-write CoW faults. Checkpoint-dirty pages can be
//!   opportunistically prefetched, since children overwhelmingly re-write
//!   what the parent wrote (§4.2.1).
//! * **Sharing & deduplication**: every instance cloned from the same
//!   checkpoint — on any node — maps the same CXL pages and the same
//!   page-table/VMA leaves, deduplicating function state cluster-wide
//!   (Fig. 7b: ≈13 % of a cold start's local memory).
//! * **Tiering** (§4.3): the [`rfork::TierPolicy`] knob selects
//!   migrate-on-write (default), migrate-on-access, or hybrid A-bit-guided
//!   placement, and [`tiering`] exposes the working-set monitoring and
//!   user hot-hint interfaces that drive dynamic policy switching.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cxl_mem::CxlDevice;
//! use cxlfork::CxlFork;
//! use node_os::{Node, NodeConfig, fs::SharedFs, mm::Access, vma::Protection};
//! use rfork::{RemoteFork, RestoreOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let device = Arc::new(CxlDevice::with_capacity_mib(64));
//! let rootfs = Arc::new(SharedFs::new());
//! let mut node0 = Node::with_rootfs(NodeConfig::default().with_id(0), Arc::clone(&device), Arc::clone(&rootfs));
//! let mut node1 = Node::with_rootfs(NodeConfig::default().with_id(1), Arc::clone(&device), rootfs);
//!
//! // A process with some written state on node 0 ...
//! let pid = node0.spawn("fn")?;
//! node0.process_mut(pid)?.mm.map_anonymous(0, 32, Protection::read_write(), "heap")?;
//! for i in 0..32 { node0.access(pid, i, Access::Write)?; }
//!
//! // ... checkpointed once, restored (zero-copy) on node 1.
//! let cxlfork = CxlFork::new();
//! let ckpt = cxlfork.checkpoint(&mut node0, pid)?;
//! let child = cxlfork.restore_with(&ckpt, &mut node1, RestoreOptions::mow())?;
//! assert!(child.restore_latency.as_millis() < 10, "near-constant-time restore");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod restore;
pub mod tiering;

pub use checkpoint::{CkptLeaf, CxlForkCheckpoint, TaskImage, GLOBAL_STATE_MAGIC};
pub use tiering::WorkingSetEstimate;

use std::sync::atomic::{AtomicU64, Ordering};

use node_os::addr::Pid;
use node_os::Node;
use rfork::{CheckpointMeta, RemoteFork, RestoreOptions, Restored, RforkError};

/// Tuning knobs for the CXLfork mechanism.
///
/// The default configuration reproduces the paper's serial transfer
/// model bit-for-bit; every knob is opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CxlForkConfig {
    /// Number of overlapped per-shard streams a checkpoint or restore
    /// transfer may drive concurrently (the device pool is banked into
    /// shards, each with an independent port). `1` — the default — keeps
    /// the single-stream serial cost model, virtual-time-identical to a
    /// build without the knob; higher values cost bulk transfers as the
    /// critical path over per-shard pipelines
    /// ([`simclock::PipelineModel`]) and stripe checkpoint allocations
    /// across banks so each stream has real work. CRIU/Mitosis baselines
    /// ignore this knob and stay serial, preserving the paper's
    /// mechanism ordering.
    pub parallelism: u32,
}

impl Default for CxlForkConfig {
    fn default() -> Self {
        CxlForkConfig { parallelism: 1 }
    }
}

impl CxlForkConfig {
    /// A config with the given stream parallelism and everything else
    /// default.
    pub fn with_parallelism(parallelism: u32) -> Self {
        CxlForkConfig { parallelism }
    }
}

/// The CXLfork mechanism.
#[derive(Debug)]
pub struct CxlFork {
    next_seq: AtomicU64,
    /// Tuning knobs (stream parallelism).
    config: CxlForkConfig,
    /// Content-addressed image store. When set, checkpoint data pages
    /// are interned (deduplicated across images, zero pages elided) and
    /// restores of an evicted image fail with a typed
    /// [`RforkError::EvictedImage`] miss.
    store: Option<std::sync::Arc<cxl_store::Store>>,
}

impl Default for CxlFork {
    fn default() -> Self {
        CxlFork {
            next_seq: AtomicU64::new(0),
            config: CxlForkConfig::default(),
            store: None,
        }
    }
}

impl CxlFork {
    /// Creates the mechanism without a store (every checkpoint owns its
    /// data pages privately).
    pub fn new() -> Self {
        CxlFork::default()
    }

    /// Creates the mechanism with a content-addressed image store:
    /// checkpoints route their data pages through
    /// [`cxl_store::Store::intern_pages`], sharing identical content
    /// across images.
    pub fn with_store(store: std::sync::Arc<cxl_store::Store>) -> Self {
        CxlFork {
            store: Some(store),
            ..CxlFork::default()
        }
    }

    /// Creates the mechanism with explicit tuning knobs (no store).
    pub fn with_config(config: CxlForkConfig) -> Self {
        CxlFork {
            config,
            ..CxlFork::default()
        }
    }

    /// Creates the mechanism with both a content-addressed store and
    /// explicit tuning knobs.
    pub fn with_store_and_config(
        store: std::sync::Arc<cxl_store::Store>,
        config: CxlForkConfig,
    ) -> Self {
        CxlFork {
            config,
            store: Some(store),
            ..CxlFork::default()
        }
    }

    /// The mechanism's tuning knobs.
    pub fn config(&self) -> &CxlForkConfig {
        &self.config
    }

    /// The image store, if the mechanism was built with one.
    pub fn store(&self) -> Option<&std::sync::Arc<cxl_store::Store>> {
        self.store.as_ref()
    }

    /// Deletes a checkpoint, freeing its CXL region (CXLporter's
    /// reclamation path, §5). With a store, the image's references are
    /// dropped (shared pages stay for other images) and an
    /// already-evicted image is a no-op rather than an error.
    ///
    /// # Errors
    ///
    /// [`RforkError::Cxl`] if the region is already gone (store-less
    /// path only).
    pub fn release(&self, checkpoint: CxlForkCheckpoint, node: &Node) -> Result<u64, RforkError> {
        if let (Some(store), Some(image)) = (&self.store, checkpoint.image) {
            // An image already evicted (or released) by the store is a
            // clean no-op here, matching the store-less path's tolerance.
            let data_freed = store.release_image(image).unwrap_or(0);
            // Eviction already destroyed the metadata region; releasing
            // an evicted handle is then a clean no-op.
            let meta_freed = node.device().destroy_region(checkpoint.region).unwrap_or(0);
            return Ok(data_freed + meta_freed);
        }
        Ok(node.device().destroy_region(checkpoint.region)?)
    }
}

impl RemoteFork for CxlFork {
    type Checkpoint = CxlForkCheckpoint;

    fn name(&self) -> &'static str {
        "CXLfork"
    }

    fn checkpoint(&self, node: &mut Node, pid: Pid) -> Result<CxlForkCheckpoint, RforkError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        checkpoint::take_checkpoint(node, pid, seq, self.store.as_deref(), &self.config)
    }

    fn restore_with(
        &self,
        checkpoint: &CxlForkCheckpoint,
        node: &mut Node,
        options: RestoreOptions,
    ) -> Result<Restored, RforkError> {
        // A typed miss, never stale bytes: an image evicted under
        // capacity pressure is reported as such so the orchestrator can
        // re-checkpoint instead of diagnosing a mysterious BadImage.
        if let (Some(store), Some(image)) = (&self.store, checkpoint.image) {
            if !store.is_live(image) {
                return Err(RforkError::EvictedImage { image: image.0 });
            }
        }
        let restored = restore::restore(checkpoint, node, options, &self.config)?;
        if let (Some(store), Some(image)) = (&self.store, checkpoint.image) {
            store.touch_restore(image, node.now());
        }
        // Post-condition (debug builds): a restore must never write
        // through the sealed checkpoint it attaches.
        #[cfg(debug_assertions)]
        {
            let device = node.device();
            let broken: Vec<cxl_mem::CxlPageId> = checkpoint
                .seal
                .iter()
                .filter(|&&(page, sealed)| device.fingerprint(page).ok() != Some(sealed))
                .map(|&(page, _)| page)
                .collect();
            assert!(
                broken.is_empty(),
                "restore mutated or freed sealed checkpoint pages {broken:?}"
            );
        }
        Ok(restored)
    }

    /// CXLfork's default restore uses migrate-on-write with dirty-page
    /// prefetch (§4.2.1, §4.3).
    fn restore(
        &self,
        checkpoint: &CxlForkCheckpoint,
        node: &mut Node,
    ) -> Result<Restored, RforkError> {
        self.restore_with(checkpoint, node, RestoreOptions::mow())
    }

    fn meta<'c>(&self, checkpoint: &'c CxlForkCheckpoint) -> &'c CheckpointMeta {
        &checkpoint.meta
    }

    fn image_id(&self, checkpoint: &CxlForkCheckpoint) -> Option<u64> {
        checkpoint.image.map(|i| i.0)
    }

    /// CXLfork restores consume only what the policy migrates: the dirty
    /// pages under MoW prefetch, the hot pages under hybrid, or the full
    /// footprint (lazily) under MoA.
    fn restore_memory_estimate(
        &self,
        checkpoint: &CxlForkCheckpoint,
        options: RestoreOptions,
    ) -> u64 {
        match options.policy {
            rfork::TierPolicy::MigrateOnWrite => {
                if options.prefetch_dirty {
                    checkpoint.dirty_pages
                } else {
                    checkpoint.dirty_pages / 2
                }
            }
            rfork::TierPolicy::Hybrid => checkpoint.accessed_pages + checkpoint.dirty_pages,
            rfork::TierPolicy::MigrateOnAccess => checkpoint.meta.footprint_pages,
        }
    }

    /// Periodic A-bit reset for continuous working-set re-estimation
    /// (§4.3, §5).
    fn maintain(&self, checkpoint: &CxlForkCheckpoint) {
        checkpoint.reset_access_bits();
    }

    fn release_checkpoint(
        &self,
        checkpoint: CxlForkCheckpoint,
        node: &Node,
    ) -> Result<u64, RforkError> {
        self.release(checkpoint, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_mem::{CxlDevice, CxlError, PAGE_SIZE};
    use node_os::addr::{PhysAddr, VirtPageNum};
    use node_os::fs::SharedFs;
    use node_os::mm::{Access, BackingSource, CxlTierPolicy, FaultKind};
    use node_os::process::Registers;
    use node_os::vma::Protection;
    use node_os::NodeConfig;
    use simclock::SimDuration;
    use std::sync::Arc;

    struct Cluster {
        device: Arc<CxlDevice>,
        nodes: Vec<Node>,
        fork: CxlFork,
    }

    fn cluster(n: usize) -> Cluster {
        let device = Arc::new(CxlDevice::with_capacity_mib(256));
        let rootfs = Arc::new(SharedFs::new());
        rootfs.create("/usr/lib/libpython.so", 64 * PAGE_SIZE, 3);
        let nodes = (0..n)
            .map(|i| {
                Node::with_rootfs(
                    NodeConfig::default()
                        .with_id(i as u32)
                        .with_local_mem_mib(256),
                    Arc::clone(&device),
                    Arc::clone(&rootfs),
                )
            })
            .collect();
        Cluster {
            device,
            nodes,
            fork: CxlFork::new(),
        }
    }

    /// 64 anon pages written, 16 file pages read, 8 anon pages re-written
    /// (dirty at checkpoint), fds open.
    fn build_process(node: &mut Node) -> Pid {
        let pid = node.spawn("bert").unwrap();
        {
            let p = node.process_mut(pid).unwrap();
            p.task.regs = Registers::seeded(0xC0FFEE);
            p.task.ns.pid_ns = 11;
            p.task.ns.mount_ns = 12;
            p.mm.map_anonymous(0, 64, Protection::read_write(), "heap")
                .unwrap();
            p.mm.map_file(
                4096,
                16,
                Protection::read_exec(),
                "/usr/lib/libpython.so",
                0,
            )
            .unwrap();
            p.task.fds.open(node_os::process::FileDescriptor {
                path: "/usr/lib/libpython.so".into(),
                offset: 0,
                writable: false,
            });
        }
        for i in 0..64 {
            node.access(pid, i, Access::Write).unwrap();
        }
        for i in 4096..4112 {
            node.access(pid, i, Access::Read).unwrap();
        }
        pid
    }

    #[test]
    fn checkpoint_copies_everything_including_clean_file_pages() {
        let mut c = cluster(1);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        // Unlike CRIU, clean private file pages ARE checkpointed (§4.1).
        assert_eq!(ckpt.data_pages, 80);
        assert_eq!(ckpt.meta().footprint_pages, 80);
        assert_eq!(ckpt.dirty_pages, 64, "writes recorded in D bits");
        assert_eq!(ckpt.accessed_pages, 80, "all touched pages have A set");
        // Device region: data + pt leaves + vma blocks + task page.
        let usage = c.device.region_usage(ckpt.region).unwrap();
        assert!(usage.pages > ckpt.data_pages);
        assert_eq!(ckpt.meta().cxl_pages, usage.pages);
    }

    #[test]
    fn restore_is_zero_copy_and_constant_ish_time() {
        let mut c = cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();

        let frames_before = c.nodes[1].frames().used();
        let restored = c
            .fork
            .restore_with(
                &ckpt,
                &mut c.nodes[1],
                rfork::RestoreOptions {
                    policy: rfork::TierPolicy::MigrateOnWrite,
                    prefetch_dirty: false,
                    sync_hot_prefetch: false,
                },
            )
            .unwrap();
        // Zero data copies: no local frames consumed.
        assert_eq!(c.nodes[1].frames().used(), frames_before);
        let child = c.nodes[1].process(restored.pid).unwrap();
        assert_eq!(child.task.regs, Registers::seeded(0xC0FFEE));
        assert_eq!(child.task.ns.pid_ns, 11);
        assert_eq!(child.task.fds.open_count(), 1);
        assert_eq!(child.mm.mapped_cxl_pages(), 80);
        assert_eq!(child.mm.private_local_pages(), 0);
        assert_eq!(child.mm.page_table.attached_leaf_count(), ckpt.leaves.len());
        // Restore latency in the paper's 1.2–6.1 ms band (small process →
        // near the bottom, and well under CRIU-scale).
        assert!(
            restored.restore_latency < SimDuration::from_millis(7),
            "restore took {}",
            restored.restore_latency
        );
    }

    #[test]
    fn restored_child_reads_checkpointed_bytes_from_cxl() {
        let mut c = cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        // Recognizable byte in page 5.
        let pte = c.nodes[0]
            .process(pid)
            .unwrap()
            .mm
            .translate(VirtPageNum(5));
        let Some(PhysAddr::Local(pfn)) = pte.target() else {
            panic!()
        };
        c.nodes[0]
            .with_process_ctx(pid, |_, ctx| ctx.frames.data_mut(pfn).write(11, &[0x5C]))
            .unwrap();
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();

        let restored = c.fork.restore(&ckpt, &mut c.nodes[1]).unwrap();
        let o = c.nodes[1].access(restored.pid, 5, Access::Read).unwrap();
        assert_eq!(o.fault, None, "reads never fault under MoW");
        let cpte = c.nodes[1]
            .process(restored.pid)
            .unwrap()
            .mm
            .translate(VirtPageNum(5));
        match cpte.target() {
            Some(PhysAddr::Cxl(page)) => {
                let data = c.device.read_page(page, c.nodes[1].id()).unwrap();
                assert_eq!(data.byte_at(11), 0x5C);
            }
            Some(PhysAddr::Local(lpfn)) => {
                // Page 5 was dirty → prefetched local by default options.
                assert_eq!(c.nodes[1].frames().data(lpfn).byte_at(11), 0x5C);
            }
            None => panic!("page 5 unmapped after restore"),
        }
    }

    #[test]
    fn write_triggers_cxl_cow_and_checkpoint_stays_pristine() {
        let mut c = cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        let fingerprints: Vec<u64> = ckpt
            .iter_pages()
            .map(|(_, pte)| {
                let Some(PhysAddr::Cxl(p)) = pte.target() else {
                    panic!()
                };
                c.device.fingerprint(p).unwrap()
            })
            .collect();

        // Restore WITHOUT prefetch so the write must CoW.
        let restored = c
            .fork
            .restore_with(
                &ckpt,
                &mut c.nodes[1],
                rfork::RestoreOptions {
                    policy: rfork::TierPolicy::MigrateOnWrite,
                    prefetch_dirty: false,
                    sync_hot_prefetch: false,
                },
            )
            .unwrap();
        let o = c.nodes[1].access(restored.pid, 3, Access::Write).unwrap();
        assert_eq!(o.fault, Some(FaultKind::CxlCow));
        assert!(o.pt_leaf_cow, "first write copies the attached leaf");

        // Scribble through the new local frame.
        let cpte = c.nodes[1]
            .process(restored.pid)
            .unwrap()
            .mm
            .translate(VirtPageNum(3));
        let Some(PhysAddr::Local(lpfn)) = cpte.target() else {
            panic!()
        };
        c.nodes[1]
            .with_process_ctx(restored.pid, |_, ctx| {
                ctx.frames.data_mut(lpfn).write(0, &[0xEE]);
            })
            .unwrap();

        // Every checkpoint page fingerprint is unchanged.
        let after: Vec<u64> = ckpt
            .iter_pages()
            .map(|(_, pte)| {
                let Some(PhysAddr::Cxl(p)) = pte.target() else {
                    panic!()
                };
                c.device.fingerprint(p).unwrap()
            })
            .collect();
        assert_eq!(fingerprints, after);
    }

    #[test]
    fn siblings_on_different_nodes_share_cxl_state() {
        let mut c = cluster(3);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        let device_pages_after_ckpt = c.device.used_pages();

        let opts = rfork::RestoreOptions {
            policy: rfork::TierPolicy::MigrateOnWrite,
            prefetch_dirty: false,
            sync_hot_prefetch: false,
        };
        let r1 = c.fork.restore_with(&ckpt, &mut c.nodes[1], opts).unwrap();
        let r2 = c.fork.restore_with(&ckpt, &mut c.nodes[2], opts).unwrap();
        // Cluster-wide dedup: restores add ZERO device pages and zero
        // local frames.
        assert_eq!(c.device.used_pages(), device_pages_after_ckpt);
        for (node, pid) in [(&c.nodes[1], r1.pid), (&c.nodes[2], r2.pid)] {
            let p = node.process(pid).unwrap();
            assert_eq!(p.mm.private_local_pages(), 0);
            assert_eq!(p.mm.mapped_cxl_pages(), 80);
        }
        // Both map the same physical CXL page for vpn 0.
        let t1 = c.nodes[1]
            .process(r1.pid)
            .unwrap()
            .mm
            .translate(VirtPageNum(0));
        let t2 = c.nodes[2]
            .process(r2.pid)
            .unwrap()
            .mm
            .translate(VirtPageNum(0));
        assert_eq!(t1.target(), t2.target());
    }

    #[test]
    fn prefetch_dirty_avoids_cow_faults() {
        let mut c = cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        let restored = c.fork.restore(&ckpt, &mut c.nodes[1]).unwrap(); // default: prefetch on
        let private = |c: &Cluster| {
            c.nodes[1]
                .process(restored.pid)
                .unwrap()
                .mm
                .private_local_pages()
        };
        assert_eq!(
            private(&c),
            ckpt.dirty_pages,
            "restore prefetched the dirty set"
        );
        // Writing a prefetched page is fault-free.
        let o = c.nodes[1].access(restored.pid, 3, Access::Write).unwrap();
        assert_eq!(o.fault, None);
        assert_eq!(private(&c), ckpt.dirty_pages);
    }

    #[test]
    fn moa_policy_pulls_everything_on_access() {
        let mut c = cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        let restored = c
            .fork
            .restore_with(&ckpt, &mut c.nodes[1], rfork::RestoreOptions::moa())
            .unwrap();
        let child = c.nodes[1].process(restored.pid).unwrap();
        assert_eq!(child.mm.policy(), CxlTierPolicy::MigrateOnAccess);
        assert_eq!(child.mm.mapped_cxl_pages(), 0, "nothing attached");

        // Reads pull pages locally.
        let o = c.nodes[1].access(restored.pid, 10, Access::Read).unwrap();
        assert_eq!(o.fault, Some(FaultKind::CxlPull));
        assert!(!o.cxl_tier);
        // File pages pull too (they are checkpointed).
        let o2 = c.nodes[1].access(restored.pid, 4100, Access::Read).unwrap();
        assert_eq!(o2.fault, Some(FaultKind::CxlPull));
    }

    /// The migrate-on-access backing is derived from the checkpointed
    /// leaves by the first pull restore, entry for entry, and shared by
    /// the next; a checkpoint that is never pull-restored never builds it.
    #[test]
    fn pull_backing_is_derived_from_the_leaves_on_first_use_and_shared() {
        let mut c = cluster(2);
        let pid = c.nodes[0].spawn("derive").unwrap();
        {
            let p = c.nodes[0].process_mut(pid).unwrap();
            // Leaf 0 full, leaf 1 partly populated, file pages in leaf 8.
            p.mm.map_anonymous(0, 520, Protection::read_write(), "heap")
                .unwrap();
            p.mm.map_file(
                4096,
                16,
                Protection::read_exec(),
                "/usr/lib/libpython.so",
                0,
            )
            .unwrap();
        }
        let node = &mut c.nodes[0];
        for vpn in 0..520 {
            let access = if vpn < 300 {
                Access::Write
            } else {
                Access::Read
            };
            node.access(pid, vpn, access).unwrap();
        }
        for vpn in 4096..4112 {
            node.access(pid, vpn, Access::Read).unwrap();
        }
        // Clear the A bits, then touch a subset again: the rest is clean
        // of A at checkpoint time.
        node.with_process_ctx(pid, |p, _| {
            for (_, slot) in p.mm.page_table.leaves() {
                slot.access_bits().clear_all();
            }
        })
        .unwrap();
        let hot = |vpn: u64| vpn < 100 || (400..450).contains(&vpn) || (4096..4104).contains(&vpn);
        for vpn in (0..520).chain(4096..4112).filter(|&v| hot(v)) {
            node.access(pid, vpn, Access::Read).unwrap();
        }

        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        let shape: Vec<(u64, usize)> = (ckpt.leaves.iter())
            .map(|l| (l.leaf_index, l.leaf.populated_count()))
            .collect();
        assert_eq!(shape, vec![(0, 512), (1, 8), (8, 16)]);
        assert!(ckpt.backing.get().is_none(), "the checkpoint builds none");
        c.fork.restore(&ckpt, &mut c.nodes[1]).unwrap();
        assert!(ckpt.backing.get().is_none(), "a MoW restore builds none");

        let first = c
            .fork
            .restore_with(&ckpt, &mut c.nodes[1], rfork::RestoreOptions::moa())
            .unwrap();
        let derived = Arc::clone(ckpt.backing.get().expect("the pull restore derived it"));
        let leaf_page = |vpn: VirtPageNum| {
            let leaf = (ckpt.leaves.iter())
                .find(|l| l.leaf_index == vpn.leaf_index())
                .expect("a checkpointed leaf");
            match leaf.leaf.get(vpn.leaf_slot()).target() {
                Some(PhysAddr::Cxl(page)) => page,
                other => panic!("vpn {vpn} targets {other:?}"),
            }
        };
        let got: Vec<_> = (derived.iter())
            .map(|(vpn, b)| {
                let BackingSource::Device(page) = b.source else {
                    panic!("vpn {vpn}: a remote source");
                };
                (vpn.0, page, b.accessed, b.dirty, b.file_backed)
            })
            .collect();
        let want: Vec<_> = (0..520)
            .chain(4096..4112)
            .map(|vpn| {
                let page = leaf_page(VirtPageNum(vpn));
                (vpn, page, hot(vpn), vpn < 300, vpn >= 4096)
            })
            .collect();
        assert_eq!(got, want, "(vpn, page, A, D, FILE) in ascending vpn order");
        let first_child = c.nodes[1].process(first.pid).unwrap();
        assert!(Arc::ptr_eq(first_child.mm.backing().unwrap(), &derived));

        let second = c
            .fork
            .restore_with(&ckpt, &mut c.nodes[1], rfork::RestoreOptions::moa())
            .unwrap();
        let second_child = c.nodes[1].process(second.pid).unwrap();
        assert!(
            Arc::ptr_eq(second_child.mm.backing().unwrap(), &derived),
            "the second pull restore shares the first one's backing"
        );

        // A checkpoint released after push restores only never built one.
        let pid = build_process(&mut c.nodes[0]);
        let other = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        c.fork.restore(&other, &mut c.nodes[1]).unwrap();
        let hybrid = rfork::RestoreOptions {
            policy: rfork::TierPolicy::Hybrid,
            prefetch_dirty: false,
            sync_hot_prefetch: false,
        };
        c.fork
            .restore_with(&other, &mut c.nodes[1], hybrid)
            .unwrap();
        assert!(other.backing.get().is_none(), "no pull restore, no backing");
        c.fork.release(other, &c.nodes[0]).unwrap();
    }

    #[test]
    fn hybrid_policy_splits_by_accessed_bit() {
        let mut c = cluster(2);
        // Build a process where only half the pages are accessed before
        // checkpointing: map 32 pages, touch 16.
        let pid = c.nodes[0].spawn("half").unwrap();
        c.nodes[0]
            .process_mut(pid)
            .unwrap()
            .mm
            .map_anonymous(0, 32, Protection::read_write(), "heap")
            .unwrap();
        for i in 0..32 {
            c.nodes[0].access(pid, i, Access::Write).unwrap();
        }
        // Reset A bits, then touch only the first 16 pages again.
        c.nodes[0]
            .with_process_ctx(pid, |p, _| {
                for (_, slot) in p.mm.page_table.leaves() {
                    slot.access_bits().clear_all();
                }
            })
            .unwrap();
        for i in 0..16 {
            c.nodes[0].access(pid, i, Access::Read).unwrap();
        }
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        assert_eq!(ckpt.accessed_pages, 16);

        let restored = c
            .fork
            .restore_with(
                &ckpt,
                &mut c.nodes[1],
                rfork::RestoreOptions {
                    policy: rfork::TierPolicy::Hybrid,
                    prefetch_dirty: false,
                    sync_hot_prefetch: false,
                },
            )
            .unwrap();
        // Hot page: pulled local on first access.
        let o_hot = c.nodes[1].access(restored.pid, 2, Access::Read).unwrap();
        assert_eq!(o_hot.fault, Some(FaultKind::CxlPull));
        // Cold page: stays in CXL, read directly with no fault.
        let o_cold = c.nodes[1].access(restored.pid, 20, Access::Read).unwrap();
        assert_eq!(o_cold.fault, None);
        assert!(o_cold.cxl_tier);
    }

    #[test]
    fn user_hot_hints_promote_pages_in_hybrid() {
        let mut c = cluster(2);
        let pid = c.nodes[0].spawn("hints").unwrap();
        c.nodes[0]
            .process_mut(pid)
            .unwrap()
            .mm
            .map_anonymous(0, 8, Protection::read_write(), "heap")
            .unwrap();
        for i in 0..8 {
            c.nodes[0].access(pid, i, Access::Write).unwrap();
        }
        // Clear A bits so nothing is "hot" by access.
        c.nodes[0]
            .with_process_ctx(pid, |p, _| {
                for (_, slot) in p.mm.page_table.leaves() {
                    slot.access_bits().clear_all();
                }
            })
            .unwrap();
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        assert_eq!(ckpt.accessed_pages, 0);
        assert!(ckpt.mark_hot(VirtPageNum(4)));
        assert!(!ckpt.mark_hot(VirtPageNum(999)), "unknown page rejected");
        assert_eq!(ckpt.hot_hint_count(), 1);

        let restored = c
            .fork
            .restore_with(
                &ckpt,
                &mut c.nodes[1],
                rfork::RestoreOptions {
                    policy: rfork::TierPolicy::Hybrid,
                    prefetch_dirty: false,
                    sync_hot_prefetch: false,
                },
            )
            .unwrap();
        let o_hint = c.nodes[1].access(restored.pid, 4, Access::Read).unwrap();
        assert_eq!(
            o_hint.fault,
            Some(FaultKind::CxlPull),
            "hinted page migrates"
        );
        let o_other = c.nodes[1].access(restored.pid, 5, Access::Read).unwrap();
        assert_eq!(o_other.fault, None, "unhinted page stays in CXL");
    }

    #[test]
    fn working_set_monitoring_via_shared_a_bits() {
        let mut c = cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        ckpt.reset_access_bits();
        assert_eq!(ckpt.working_set().hot_pages, 0);

        let restored = c
            .fork
            .restore_with(
                &ckpt,
                &mut c.nodes[1],
                rfork::RestoreOptions {
                    policy: rfork::TierPolicy::MigrateOnWrite,
                    prefetch_dirty: false,
                    sync_hot_prefetch: false,
                },
            )
            .unwrap();
        for i in 0..10 {
            c.nodes[1].access(restored.pid, i, Access::Read).unwrap();
        }
        // The restored instance's walks updated the A bits on the SHARED
        // checkpoint leaves (§4.3).
        let ws = ckpt.working_set();
        assert_eq!(ws.hot_pages, 10);
        assert_eq!(ws.total_pages, 80);
        assert!((ws.hot_fraction() - 0.125).abs() < 1e-9);
        // And user space can reset them again.
        ckpt.reset_access_bits();
        assert_eq!(ckpt.working_set().hot_pages, 0);
    }

    #[test]
    fn release_frees_the_whole_region() {
        let mut c = cluster(1);
        let pid = build_process(&mut c.nodes[0]);
        let before = c.device.used_pages();
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        assert!(c.device.used_pages() > before);
        let freed = c.fork.release(ckpt, &c.nodes[0]).unwrap();
        assert!(freed > 0);
        assert_eq!(c.device.used_pages(), before);
    }

    #[test]
    fn restore_latency_nearly_independent_of_footprint() {
        let mut c = cluster(2);
        let small = build_process(&mut c.nodes[0]);
        let big = c.nodes[0].spawn("big").unwrap();
        c.nodes[0]
            .process_mut(big)
            .unwrap()
            .mm
            .map_anonymous(1 << 20, 4096, Protection::read_write(), "heap")
            .unwrap();
        for i in 0..4096u64 {
            c.nodes[0]
                .access(big, (1 << 20) + i, Access::Write)
                .unwrap();
        }
        let ck_small = c.fork.checkpoint(&mut c.nodes[0], small).unwrap();
        let ck_big = c.fork.checkpoint(&mut c.nodes[0], big).unwrap();
        let opts = rfork::RestoreOptions {
            policy: rfork::TierPolicy::MigrateOnWrite,
            prefetch_dirty: false,
            sync_hot_prefetch: false,
        };
        let r_small = c
            .fork
            .restore_with(&ck_small, &mut c.nodes[1], opts)
            .unwrap();
        let r_big = c.fork.restore_with(&ck_big, &mut c.nodes[1], opts).unwrap();
        // 51x the footprint, but restore grows only with leaf count.
        assert!(
            r_big.restore_latency < r_small.restore_latency * 4,
            "attach-based restore: {} vs {}",
            r_big.restore_latency,
            r_small.restore_latency
        );
    }

    #[test]
    fn torn_staging_checkpoint_is_never_restorable() {
        let mut c = cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        assert_eq!(c.device.region_committed(ckpt.region), Some(true));

        // Forge a checkpoint whose region is an *unpublished* staging
        // region — what a reader would see if a node died mid-copy and
        // two-phase commit did not exist.
        let torn_region = c
            .device
            .create_region_staged("cxlfork:torn#1", cxl_mem::NodeId(0), 1);
        c.device.alloc_batch(torn_region, 4).unwrap();
        let forged = CxlForkCheckpoint {
            meta: ckpt.meta.clone(),
            region: torn_region,
            image: None,
            task: ckpt.task.clone(),
            global_bytes: ckpt.global_bytes.clone(),
            vma_blocks: ckpt.vma_blocks.clone(),
            leaves: ckpt.leaves.clone(),
            backing: std::sync::OnceLock::new(),
            data_pages: ckpt.data_pages,
            dirty_pages: ckpt.dirty_pages,
            dirty: ckpt.dirty.clone(),
            accessed_pages: ckpt.accessed_pages,
            #[cfg(debug_assertions)]
            seal: Vec::new(),
        };
        let before = c.nodes[1].process_count();
        let err = c.fork.restore(&forged, &mut c.nodes[1]).unwrap_err();
        assert!(matches!(err, RforkError::BadImage(_)), "got {err}");
        assert_eq!(c.nodes[1].process_count(), before, "no zombie process");

        // A destroyed region is equally unrestorable.
        c.device.destroy_region(torn_region).unwrap();
        c.fork.release(ckpt, &c.nodes[0]).unwrap();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the seal is a debug-build check")]
    #[should_panic(expected = "restore mutated or freed sealed checkpoint pages")]
    fn restore_of_a_written_checkpoint_trips_the_debug_seal() {
        let mut c = cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        // A stray write through the checkpoint: the bug class §4.2.1's
        // immutable checkpoints exclude.
        let (_, pte) = ckpt.iter_pages().next().unwrap();
        let Some(PhysAddr::Cxl(page)) = pte.target() else {
            panic!("checkpoint pages live on the device");
        };
        c.device
            .write_page(page, cxl_mem::PageData::pattern(0xBAD), cxl_mem::NodeId(1))
            .unwrap();
        let _ = c.fork.restore(&ckpt, &mut c.nodes[1]);
    }

    #[test]
    fn checkpoint_retries_transient_faults_and_charges_backoff() {
        let mut c = cluster(1);
        let pid = build_process(&mut c.nodes[0]);
        // Clean baseline checkpoint of the same process.
        let clean = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();

        // Two transient write errors early in the bulk copy.
        let inj = Arc::new(cxl_fault::Injector::from_schedule(
            cxl_fault::FaultSchedule::new().transient_after(cxl_mem::DeviceOp::Write, 3, 2),
        ));
        inj.arm(&c.device);
        let faulted = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        c.device.set_fault_hook(None);

        assert_eq!(c.nodes[0].counters().transient_retries, 2);
        assert!(
            faulted.meta().checkpoint_cost > clean.meta().checkpoint_cost,
            "backoff delay must show up in the checkpoint cost ({} vs {})",
            faulted.meta().checkpoint_cost,
            clean.meta().checkpoint_cost
        );
        assert_eq!(faulted.data_pages, clean.data_pages);
    }

    #[test]
    fn batch_retry_backoff_is_charged_exactly_once_per_attempt() {
        // Regression guard for the batched copy path: a transient fault
        // retries the *whole batch*, but the modelled copy time is paid
        // once and every attempt adds exactly one backoff step. The cost
        // delta between a faulted and a clean checkpoint of the same
        // process must therefore be the policy's backoff ladder alone —
        // a re-charged batch (or a per-page retry loop sneaking back in)
        // would show up as a larger delta.
        let mut c = cluster(1);
        let pid = build_process(&mut c.nodes[0]);
        let clean = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();

        let policy = cxl_fault::BackoffPolicy::default();
        for transients in [1u32, 2, 3] {
            // Seeded, deterministic schedule: the first `transients` write
            // consults fail, so each retry attempt trips the next one.
            let inj = Arc::new(cxl_fault::Injector::from_schedule(
                cxl_fault::FaultSchedule::new().transient_after(
                    cxl_mem::DeviceOp::Write,
                    0,
                    transients,
                ),
            ));
            inj.arm(&c.device);
            let faulted = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
            c.device.set_fault_hook(None);

            // Expected ladder: base, base*m, base*m^2, ... capped.
            let mut expected = simclock::SimDuration::ZERO;
            let mut step = policy.base;
            for _ in 0..transients {
                expected += if step > policy.cap { policy.cap } else { step };
                step = simclock::SimDuration::from_nanos(
                    step.as_nanos().saturating_mul(u64::from(policy.multiplier)),
                );
            }
            assert_eq!(
                faulted.meta().checkpoint_cost,
                clean.meta().checkpoint_cost + expected,
                "{transients} transient(s): cost delta must be backoff alone"
            );
            assert_eq!(faulted.data_pages, clean.data_pages);
        }
    }

    #[test]
    fn checkpoint_gives_up_cleanly_when_the_link_stays_down() {
        let mut c = cluster(1);
        let pid = build_process(&mut c.nodes[0]);
        let used_before = c.device.used_pages();
        // A burst longer than the retry budget (4 attempts).
        let inj = Arc::new(cxl_fault::Injector::from_schedule(
            cxl_fault::FaultSchedule::new().transient_after(cxl_mem::DeviceOp::Write, 0, 16),
        ));
        inj.arm(&c.device);
        let err = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap_err();
        c.device.set_fault_hook(None);
        assert!(
            matches!(
                err,
                RforkError::RetriesExhausted {
                    op: "checkpoint_copy",
                    attempts: 4,
                    ..
                }
            ),
            "got {err}"
        );
        assert_eq!(c.device.used_pages(), used_before, "no leaked pages");
        assert!(c.device.staging_regions().is_empty(), "no orphaned staging");
    }

    #[test]
    fn checkpoint_alloc_exhaustion_fails_all_or_nothing() {
        let mut c = cluster(1);
        let pid = build_process(&mut c.nodes[0]);
        let used_before = c.device.used_pages();
        // The batched checkpoint makes one alloc request per batch (data,
        // leaves, VMA blocks, task), so exhaust the device on the second
        // one — mid-checkpoint, after the data pages already landed.
        let inj = Arc::new(cxl_fault::Injector::from_schedule(
            cxl_fault::FaultSchedule::new().alloc_exhausted_after(1, 1),
        ));
        inj.arm(&c.device);
        let err = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap_err();
        c.device.set_fault_hook(None);
        assert!(
            matches!(err, RforkError::Cxl(CxlError::OutOfDeviceMemory { .. })),
            "got {err}"
        );
        assert_eq!(c.device.used_pages(), used_before);
        assert!(c.device.staging_regions().is_empty());
    }

    #[test]
    fn prefetch_out_of_frames_rolls_back_once_and_leaks_nothing() {
        let mut c = cluster(1);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        assert_eq!(ckpt.dirty.len() as u64, ckpt.dirty_pages);

        // A 1 MiB node with all but 20 frames held by another process:
        // the 64-page dirty prefetch runs out of frames partway through.
        let mut small = Node::new(
            NodeConfig::default().with_id(1).with_local_mem_mib(1),
            Arc::clone(&c.device),
        );
        let hog = small.spawn("hog").unwrap();
        let hog_pages = small.frames().available() - 20;
        small
            .process_mut(hog)
            .unwrap()
            .mm
            .map_anonymous(0, hog_pages, Protection::read_write(), "hog")
            .unwrap();
        for vpn in 0..hog_pages {
            small.access(hog, vpn, Access::Write).unwrap();
        }
        let frames_before = small.frames().used();

        let err = c
            .fork
            .restore_with(&ckpt, &mut small, rfork::RestoreOptions::mow())
            .unwrap_err();
        assert!(
            matches!(err, RforkError::Os(node_os::OsError::OutOfMemory { .. })),
            "got {err}"
        );
        assert_eq!(small.process_count(), 1, "only the hog is left");
        assert_eq!(small.frames().used(), frames_before, "no leaked frames");
    }

    #[test]
    fn failed_restore_rolls_back_the_half_restored_process() {
        let mut c = cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();

        let frames_before = c.nodes[1].frames().used();
        let procs_before = c.nodes[1].process_count();
        // The link goes down for good during dirty-page prefetch.
        let inj = Arc::new(cxl_fault::Injector::from_schedule(
            cxl_fault::FaultSchedule::new().transient_after(cxl_mem::DeviceOp::Read, 0, 64),
        ));
        inj.arm(&c.device);
        let err = c
            .fork
            .restore_with(
                &ckpt,
                &mut c.nodes[1],
                rfork::RestoreOptions {
                    policy: rfork::TierPolicy::MigrateOnWrite,
                    prefetch_dirty: true,
                    sync_hot_prefetch: false,
                },
            )
            .unwrap_err();
        c.device.set_fault_hook(None);
        assert!(
            matches!(
                err,
                RforkError::RetriesExhausted {
                    op: "restore_prefetch",
                    ..
                }
            ),
            "got {err}"
        );
        assert_eq!(c.nodes[1].process_count(), procs_before, "no zombie");
        assert_eq!(
            c.nodes[1].frames().used(),
            frames_before,
            "no leaked frames"
        );
        // The checkpoint itself is untouched and still restorable.
        let restored = c.fork.restore(&ckpt, &mut c.nodes[1]).unwrap();
        assert!(c.nodes[1].process(restored.pid).is_ok());
    }

    #[test]
    fn restored_access_to_poisoned_page_surfaces_typed_error() {
        let mut c = cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        let restored = c
            .fork
            .restore_with(
                &ckpt,
                &mut c.nodes[1],
                rfork::RestoreOptions {
                    policy: rfork::TierPolicy::MigrateOnWrite,
                    prefetch_dirty: false,
                    sync_hot_prefetch: false,
                },
            )
            .unwrap();

        // Poison the device page backing vpn 5, then write to it:
        // migrate-on-write must surface the poison, not retry forever.
        let (_, pte) = ckpt
            .iter_pages()
            .find(|(vpn, _)| *vpn == VirtPageNum(5))
            .unwrap();
        let Some(PhysAddr::Cxl(page)) = pte.target() else {
            panic!("checkpoint entries point at CXL");
        };
        let inj = Arc::new(cxl_fault::Injector::from_schedule(
            cxl_fault::FaultSchedule::new(),
        ));
        inj.poison_page(page);
        inj.arm(&c.device);
        let err = c.nodes[1]
            .access(restored.pid, 5, Access::Write)
            .unwrap_err();
        c.device.set_fault_hook(None);
        assert_eq!(
            err,
            node_os::OsError::Cxl(CxlError::Poisoned(page)),
            "poison is permanent, not retried"
        );
        // Other pages stay readable.
        assert!(c.nodes[1].access(restored.pid, 6, Access::Read).is_ok());
    }

    fn store_cluster(n: usize) -> (Cluster, Arc<cxl_store::Store>) {
        let mut c = cluster(n);
        let store = Arc::new(cxl_store::Store::new(Arc::clone(&c.device)));
        c.fork = CxlFork::with_store(Arc::clone(&store));
        (c, store)
    }

    #[test]
    fn store_dedups_identical_content_across_checkpoints() {
        // Two identical processes checkpointed without a store pay for
        // every page twice; through the store the second image's pages
        // all resolve to resident content.
        let mut plain = cluster(1);
        let p1 = build_process(&mut plain.nodes[0]);
        let p2 = build_process(&mut plain.nodes[0]);
        let base = plain.device.used_pages();
        let c1 = plain.fork.checkpoint(&mut plain.nodes[0], p1).unwrap();
        let after_one = plain.device.used_pages() - base;
        let _c2 = plain.fork.checkpoint(&mut plain.nodes[0], p2).unwrap();
        let plain_used = plain.device.used_pages() - base;
        assert_eq!(plain_used, 2 * after_one, "no cross-image sharing");

        let (mut c, store) = store_cluster(1);
        let q1 = build_process(&mut c.nodes[0]);
        let q2 = build_process(&mut c.nodes[0]);
        let base = c.device.used_pages();
        let s1 = c.fork.checkpoint(&mut c.nodes[0], q1).unwrap();
        let s2 = c.fork.checkpoint(&mut c.nodes[0], q2).unwrap();
        let store_used = c.device.used_pages() - base;
        assert!(
            store_used < plain_used,
            "store {store_used} pages vs plain {plain_used}"
        );
        let stats = store.stats();
        // First image: 64 zero-filled anon pages collapse onto one
        // canonical page (63 intra-image hits). Second image: all 80
        // pages are already resident.
        assert_eq!(stats.deduped_pages, 63 + 80);
        // The canonical zero page was allocated but never written.
        assert_eq!(stats.zero_elided, 1);

        // Dedup is transparent: the store-backed checkpoints hold the
        // same bytes per vpn as the plain one.
        let plain_pages: std::collections::BTreeMap<VirtPageNum, cxl_mem::CxlPageId> = c1
            .iter_pages()
            .map(|(vpn, pte)| match pte.target().unwrap() {
                PhysAddr::Cxl(p) => (vpn, p),
                PhysAddr::Local(_) => unreachable!("checkpoints live on the device"),
            })
            .collect();
        for ckpt in [&s1, &s2] {
            for (vpn, pte) in ckpt.iter_pages() {
                let PhysAddr::Cxl(page) = pte.target().unwrap() else {
                    unreachable!("checkpoints live on the device")
                };
                let got = c.device.read_page(page, cxl_mem::NodeId(0)).unwrap();
                let want = plain
                    .device
                    .read_page(plain_pages[&vpn], cxl_mem::NodeId(0))
                    .unwrap();
                assert_eq!(got, want, "vpn {vpn:?} diverged through the store");
            }
        }
    }

    #[test]
    fn store_backed_restore_matches_the_private_path() {
        let (mut c, _store) = store_cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        assert!(ckpt.image.is_some());
        let restored = c
            .fork
            .restore_with(
                &ckpt,
                &mut c.nodes[1],
                rfork::RestoreOptions {
                    policy: rfork::TierPolicy::MigrateOnWrite,
                    prefetch_dirty: false,
                    sync_hot_prefetch: false,
                },
            )
            .unwrap();
        let child = c.nodes[1].process(restored.pid).unwrap();
        assert_eq!(child.task.regs, Registers::seeded(0xC0FFEE));
        assert_eq!(child.mm.mapped_cxl_pages(), 80);
        // File content reads back byte-identically through the deduped
        // pages.
        for i in 4096..4112u64 {
            c.nodes[1].access(restored.pid, i, Access::Read).unwrap();
        }
    }

    #[test]
    fn restoring_an_evicted_image_is_a_typed_miss() {
        let (mut c, store) = store_cluster(2);
        let pid = build_process(&mut c.nodes[0]);
        let ckpt = c.fork.checkpoint(&mut c.nodes[0], pid).unwrap();
        let image = ckpt.image.unwrap();

        // Force the image out (no pins, no leases => always a victim).
        let leases = cxl_fault::LeaseTable::new(SimDuration::from_secs(1));
        let report = store.evict_for(u64::MAX, &leases, c.nodes[0].now());
        assert_eq!(report.images, 1);
        assert!(!store.is_live(image));

        let before = c.nodes[1].process_count();
        let err = c.fork.restore(&ckpt, &mut c.nodes[1]).unwrap_err();
        assert!(
            matches!(err, RforkError::EvictedImage { image: i } if i == image.0),
            "got {err}"
        );
        assert_eq!(c.nodes[1].process_count(), before, "no zombie process");
        // Releasing the stale handle afterwards is a clean no-op.
        assert_eq!(c.fork.release(ckpt, &c.nodes[0]).unwrap(), 0);
    }

    #[test]
    fn store_release_keeps_content_shared_with_other_images() {
        let (mut c, store) = store_cluster(1);
        let p1 = build_process(&mut c.nodes[0]);
        let p2 = build_process(&mut c.nodes[0]);
        let base = c.device.used_pages();
        let c1 = c.fork.checkpoint(&mut c.nodes[0], p1).unwrap();
        let after_one = c.device.used_pages() - base;
        let c2 = c.fork.checkpoint(&mut c.nodes[0], p2).unwrap();

        // Releasing the first image frees only its private metadata —
        // every data page is still referenced by the second image.
        c.fork.release(c1, &c.nodes[0]).unwrap();
        assert_eq!(
            c.device.used_pages() - base,
            after_one,
            "shared data pages survive the first release"
        );
        // Releasing the last image drains the store completely.
        c.fork.release(c2, &c.nodes[0]).unwrap();
        assert_eq!(c.device.used_pages(), base);
        assert!(store.index_snapshot().is_empty());
    }

    /// 4096 anonymous pages, all written — big enough that the striped
    /// allocation spreads real work across every device bank.
    fn build_big_process(node: &mut Node) -> Pid {
        let pid = node.spawn("big").unwrap();
        node.process_mut(pid)
            .unwrap()
            .mm
            .map_anonymous(1 << 20, 4096, Protection::read_write(), "heap")
            .unwrap();
        for i in 0..4096u64 {
            node.access(pid, (1 << 20) + i, Access::Write).unwrap();
        }
        pid
    }

    #[test]
    fn default_config_is_bit_identical_to_explicit_serial() {
        let mut default_c = cluster(1);
        let mut p1_c = cluster(1);
        p1_c.fork = CxlFork::with_config(CxlForkConfig::with_parallelism(1));
        let d_pid = build_big_process(&mut default_c.nodes[0]);
        let p_pid = build_big_process(&mut p1_c.nodes[0]);
        let d_ck = default_c
            .fork
            .checkpoint(&mut default_c.nodes[0], d_pid)
            .unwrap();
        let p_ck = p1_c.fork.checkpoint(&mut p1_c.nodes[0], p_pid).unwrap();
        assert_eq!(
            d_ck.meta().checkpoint_cost,
            p_ck.meta().checkpoint_cost,
            "parallelism = 1 must reproduce the default serial model exactly"
        );
        assert_eq!(default_c.nodes[0].now(), p1_c.nodes[0].now());
        assert_eq!(
            default_c.device.used_pages(),
            p1_c.device.used_pages(),
            "p = 1 striped allocation degenerates to first-fit"
        );
    }

    #[test]
    fn pipelined_checkpoint_beats_serial_on_a_striped_footprint() {
        let mut serial = cluster(2);
        let mut piped = cluster(2);
        piped.fork = CxlFork::with_config(CxlForkConfig::with_parallelism(8));
        let s_pid = build_big_process(&mut serial.nodes[0]);
        let p_pid = build_big_process(&mut piped.nodes[0]);
        let s_ck = serial.fork.checkpoint(&mut serial.nodes[0], s_pid).unwrap();
        let p_ck = piped.fork.checkpoint(&mut piped.nodes[0], p_pid).unwrap();
        assert!(
            p_ck.meta().checkpoint_cost < s_ck.meta().checkpoint_cost,
            "8 shard streams should overlap the copy: p8 {} vs serial {}",
            p_ck.meta().checkpoint_cost,
            s_ck.meta().checkpoint_cost
        );
        // The image itself is identical — only the transfer schedule
        // (and therefore the virtual-time cost) changes.
        assert_eq!(p_ck.data_pages, s_ck.data_pages);
        assert_eq!(p_ck.meta().footprint_pages, s_ck.meta().footprint_pages);

        // Restore inherits the knob on the prefetch paths and can only
        // get cheaper (the pipelined cost is clamped by the serial one).
        let opts = rfork::RestoreOptions {
            policy: rfork::TierPolicy::MigrateOnWrite,
            prefetch_dirty: true,
            sync_hot_prefetch: false,
        };
        let r_serial = serial
            .fork
            .restore_with(&s_ck, &mut serial.nodes[1], opts)
            .unwrap();
        let r_piped = piped
            .fork
            .restore_with(&p_ck, &mut piped.nodes[1], opts)
            .unwrap();
        assert!(
            r_piped.restore_latency <= r_serial.restore_latency,
            "pipelined prefetch regressed: {} vs {}",
            r_piped.restore_latency,
            r_serial.restore_latency
        );
    }

    #[test]
    fn durable_checkpoint_phases_reconcile_with_the_latency_timer() {
        // The telemetry sink is process-global; a distinctive track keeps
        // spans from any concurrently running test out of the assertions.
        const TRACK: u32 = 4242;
        let device = Arc::new(CxlDevice::with_capacity_mib(256));
        let rootfs = Arc::new(SharedFs::new());
        rootfs.create("/usr/lib/libpython.so", 64 * PAGE_SIZE, 3);
        let mut node = Node::with_rootfs(
            NodeConfig::default().with_id(TRACK).with_local_mem_mib(256),
            Arc::clone(&device),
            Arc::clone(&rootfs),
        );
        let store = Arc::new(cxl_store::Store::with_config(
            Arc::clone(&device),
            cxl_store::StoreConfig {
                durable: true,
                ..cxl_store::StoreConfig::default()
            },
        ));
        let fork = CxlFork::with_store(Arc::clone(&store));
        let pid = build_process(&mut node);

        let session = cxl_telemetry::TelemetrySession::start();
        let ckpt = fork.checkpoint(&mut node, pid).unwrap();
        let data = session.finish();

        let spans: Vec<&cxl_telemetry::SpanRecord> =
            data.spans.iter().filter(|s| s.track == TRACK).collect();
        let parent = spans
            .iter()
            .find(|s| s.name == "core.checkpoint")
            .expect("checkpoint parent span");
        let mut children: Vec<&cxl_telemetry::SpanRecord> = spans
            .iter()
            .filter(|s| s.depth == 1 && s.name.starts_with("core.checkpoint."))
            .filter(|s| !s.name.ends_with(".stream"))
            .copied()
            .collect();
        children.sort_by_key(|s| s.start);
        // The post-publish journal commit is a visible phase child, not
        // silent cost the timer would otherwise underreport.
        assert!(
            children
                .iter()
                .any(|s| s.name == "core.checkpoint.commit_journal" && s.dur_ns() > 0),
            "durable commit must appear as a phase child: {children:?}"
        );
        // The children partition the parent contiguously and sum exactly.
        let mut cursor = parent.start;
        for child in &children {
            assert_eq!(child.start, cursor, "gap before {}", child.name);
            cursor = child.end;
        }
        assert_eq!(cursor, parent.end, "children must cover the parent");
        let child_sum: u64 = children.iter().map(|s| s.dur_ns()).sum();
        assert_eq!(child_sum, parent.dur_ns());
        // Span, timer and the checkpoint's own meta all agree — the
        // commit cost is no longer excluded from any of the three.
        assert_eq!(parent.dur_ns(), ckpt.meta().checkpoint_cost.as_nanos());
        let timer = data
            .registry
            .timer("core", "checkpoint.latency", Some(TRACK))
            .expect("checkpoint.latency timer");
        assert_eq!(timer.len(), 1);
        assert_eq!(timer.mean(), ckpt.meta().checkpoint_cost);
    }
}
