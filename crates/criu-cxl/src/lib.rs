//! CRIU-CXL: the state-of-practice remote-fork baseline.
//!
//! CRIU (Checkpoint and Restore In Userspace) "serializes process state to
//! files, including the entire process memory footprint, as well as the
//! OS-maintained process state. It then transfers and deserializes this
//! checkpointed state on the remote node that clones the process" (§1).
//! The paper's evaluation adapts it to CXL by placing the image files on an
//! in-CXL-memory shared filesystem (§6.2), which removes the network copy
//! but keeps both serialization costs and the full local-memory copy on
//! restore — the two properties that make it slow (Fig. 7a) and
//! memory-hungry (Fig. 7b).
//!
//! This crate implements that baseline faithfully:
//!
//! * **Checkpoint** encodes the task (`core.img`), the VMA list
//!   (`mm.img`) and the page index (`pagemap.img`) with the binary image
//!   format in [`imgfmt`], stores them on the shared [`CxlFs`], and copies
//!   every captured page into a dedicated device region (the `pages.img`
//!   payload). Clean private-file pages are *not* captured — real CRIU
//!   re-faults them from the file system, which is why CRIU restores
//!   occasionally show a smaller footprint than Cold (§7.1).
//! * **Restore** reads the images back, rebuilds the task, fd table and
//!   VMA tree, and **copies every page to node-local memory**, charging
//!   per-byte deserialization plus per-page CXL copies. Nothing is shared:
//!   "parent and child processes in different nodes share no state"
//!   (§2.3.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod images;
pub mod imgfmt;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cxl_mem::{CxlFs, CxlPageId, PageData, RegionId, PAGE_SIZE};
use node_os::addr::{PhysAddr, Pid, VirtPageNum};
use node_os::pte::PteFlags;
use node_os::Node;
use rfork::{CheckpointMeta, RemoteFork, RestoreOptions, Restored, RforkError};
use simclock::SimDuration;

use crate::images::{CoreImage, MmImage, PagemapEntry, PagemapImage};

/// The CRIU-CXL mechanism.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use cxl_mem::{CxlDevice, CxlFs};
/// use criu_cxl::CriuCxl;
/// use node_os::{Node, NodeConfig, fs::SharedFs, vma::Protection, mm::Access};
/// use rfork::RemoteFork;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let device = Arc::new(CxlDevice::with_capacity_mib(64));
/// let rootfs = Arc::new(SharedFs::new());
/// let mut src = Node::with_rootfs(NodeConfig::default().with_id(0), Arc::clone(&device), Arc::clone(&rootfs));
/// let mut dst = Node::with_rootfs(NodeConfig::default().with_id(1), Arc::clone(&device), rootfs);
///
/// let pid = src.spawn("fn")?;
/// src.process_mut(pid)?.mm.map_anonymous(0, 8, Protection::read_write(), "heap")?;
/// src.access(pid, 0, Access::Write)?;
///
/// let criu = CriuCxl::new(Arc::new(CxlFs::new(device)));
/// let ckpt = criu.checkpoint(&mut src, pid)?;
/// let restored = criu.restore(&ckpt, &mut dst)?;
/// assert!(restored.restore_latency > simclock::SimDuration::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CriuCxl {
    fs: Arc<CxlFs>,
    next_id: AtomicU64,
}

/// A CRIU checkpoint: image files on the shared filesystem plus a device
/// region holding the page payload.
#[derive(Debug)]
pub struct CriuCheckpoint {
    meta: CheckpointMeta,
    /// Image directory on the shared filesystem.
    pub dir: String,
    /// Device region holding the page payload.
    pub pages_region: RegionId,
    pages: Vec<CxlPageId>,
}

impl CriuCheckpoint {
    /// Number of captured pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

impl CriuCxl {
    /// Creates the mechanism over a shared CXL filesystem.
    pub fn new(fs: Arc<CxlFs>) -> Self {
        CriuCxl {
            fs,
            next_id: AtomicU64::new(1),
        }
    }

    /// The shared filesystem the images live on.
    pub fn fs(&self) -> &Arc<CxlFs> {
        &self.fs
    }

    /// Deletes a checkpoint: removes its images and frees its device
    /// region.
    ///
    /// # Errors
    ///
    /// [`RforkError::Cxl`] if the region or files are already gone.
    pub fn release(&self, checkpoint: CriuCheckpoint, node: &Node) -> Result<(), RforkError> {
        self.fs.remove_prefix(&checkpoint.dir)?;
        node.device().destroy_region(checkpoint.pages_region)?;
        Ok(())
    }
}

impl RemoteFork for CriuCxl {
    type Checkpoint = CriuCheckpoint;

    fn name(&self) -> &'static str {
        "CRIU-CXL"
    }

    fn checkpoint(&self, node: &mut Node, pid: Pid) -> Result<CriuCheckpoint, RforkError> {
        let node_id = node.id();
        let model = node.model().clone();

        // ---- Walk the process (read-only) and capture state. ----
        let (core, mm_img, captured, footprint_pages) = {
            let process = node.process(pid)?;
            let core = CoreImage::capture(&process.task);
            let mm_img = MmImage {
                vmas: process.mm.vmas.iter().cloned().collect(),
            };
            let mut captured: Vec<(VirtPageNum, bool, PageData)> = Vec::new();
            let mut footprint_pages = 0u64;
            for (vpn, pte) in process.mm.page_table.iter_populated() {
                if !pte.is_present() {
                    continue;
                }
                footprint_pages += 1;
                // CRIU skips clean private-file pages: they are re-faulted
                // from the (identical) root fs on the restore side.
                if pte.flags().contains(PteFlags::FILE) && !pte.is_dirty() {
                    continue;
                }
                let data = match pte.target().expect("present pte") {
                    PhysAddr::Local(pfn) => node.frames().data(pfn).clone(),
                    PhysAddr::Cxl(page) => node.device().read_page(page, node_id)?,
                };
                captured.push((vpn, pte.is_dirty(), data));
            }
            (core, mm_img, captured, footprint_pages)
        };

        // ---- Store the page payload in a device region. ----
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let dir = format!("ckpt/{}-{}/", core.comm, id);
        let device = Arc::clone(node.device());
        let guard = device.create_region_guarded(&format!("criu:{}{}", core.comm, id));
        let region = guard.id();
        let page_ids = node.device().alloc_batch(region, captured.len() as u64)?;
        let mut pagemap = PagemapImage::default();
        for (i, ((vpn, dirty, data), page)) in captured.into_iter().zip(&page_ids).enumerate() {
            node.device().write_page(*page, data, node_id)?;
            pagemap.entries.push(PagemapEntry {
                vpn: vpn.0,
                dirty,
                page_index: i as u64,
            });
        }

        // ---- Serialize the images onto the shared filesystem. ----
        let core_bytes = core.encode()?;
        let mm_bytes = mm_img.encode()?;
        let pagemap_bytes = pagemap.encode();
        let meta_bytes = (core_bytes.len() + mm_bytes.len() + pagemap_bytes.len()) as u64;
        self.fs
            .write_file(&format!("{dir}core.img"), &core_bytes, node_id)?;
        self.fs
            .write_file(&format!("{dir}mm.img"), &mm_bytes, node_id)?;
        self.fs
            .write_file(&format!("{dir}pagemap.img"), &pagemap_bytes, node_id)?;

        // ---- Cost: serialize everything + stream it into CXL. ----
        let payload_bytes = pagemap.entries.len() as u64 * PAGE_SIZE;
        let cost = model.serialize(meta_bytes + payload_bytes)
            + model.cxl_write_copy(meta_bytes + payload_bytes)
            + SimDuration::from_nanos(model.image_file_open_ns) * 3;
        node.clock_mut().advance(cost);
        node.counters_note("criu_checkpoint");

        let cxl_pages = page_ids.len() as u64 + meta_bytes.div_ceil(PAGE_SIZE);
        let region = guard.commit();
        Ok(CriuCheckpoint {
            meta: CheckpointMeta {
                comm: core.comm.clone(),
                footprint_pages,
                cxl_pages,
                created_at: node.now(),
                checkpoint_cost: cost,
                vma_count: mm_img.vmas.len(),
            },
            dir,
            pages_region: region,
            pages: page_ids,
        })
    }

    fn restore_with(
        &self,
        checkpoint: &CriuCheckpoint,
        node: &mut Node,
        _options: RestoreOptions,
    ) -> Result<Restored, RforkError> {
        let node_id = node.id();
        let model = node.model().clone();

        // ---- Read and deserialize the images. ----
        let core_bytes = self
            .fs
            .read_file(&format!("{}core.img", checkpoint.dir), node_id)?;
        let mm_bytes = self
            .fs
            .read_file(&format!("{}mm.img", checkpoint.dir), node_id)?;
        let pagemap_bytes = self
            .fs
            .read_file(&format!("{}pagemap.img", checkpoint.dir), node_id)?;
        let core = CoreImage::decode(&core_bytes)?;
        let mm_img = MmImage::decode(&mm_bytes)?;
        let pagemap = PagemapImage::decode(&pagemap_bytes)?;
        if pagemap.entries.len() != checkpoint.pages.len() {
            return Err(RforkError::BadImage(format!(
                "pagemap has {} entries but payload region has {} pages",
                pagemap.entries.len(),
                checkpoint.pages.len()
            )));
        }

        let meta_bytes = (core_bytes.len() + mm_bytes.len() + pagemap_bytes.len()) as u64;
        let payload_bytes = pagemap.entries.len() as u64 * PAGE_SIZE;
        let mut cost = SimDuration::from_nanos(model.process_create_ns)
            + SimDuration::from_nanos(model.image_file_open_ns) * 3
            + model.deserialize(meta_bytes + payload_bytes);

        // ---- Rebuild the process. ----
        let pid = node.spawn(&core.comm)?;
        if let Err(e) =
            Self::populate_restored(checkpoint, node, pid, &core, &mm_img, &pagemap, &mut cost)
        {
            // Roll back the half-restored process so its frames return to
            // the node.
            let _ = node.kill(pid);
            return Err(e);
        }

        node.clock_mut().advance(cost);
        node.counters_note("criu_restore");
        Ok(Restored {
            pid,
            restore_latency: cost,
        })
    }

    fn meta<'c>(&self, checkpoint: &'c CriuCheckpoint) -> &'c CheckpointMeta {
        &checkpoint.meta
    }

    fn release_checkpoint(
        &self,
        checkpoint: CriuCheckpoint,
        node: &Node,
    ) -> Result<u64, RforkError> {
        let pages = checkpoint.pages.len() as u64;
        self.release(checkpoint, node)?;
        Ok(pages)
    }
}

impl CriuCxl {
    fn populate_restored(
        checkpoint: &CriuCheckpoint,
        node: &mut Node,
        pid: Pid,
        core: &CoreImage,
        mm_img: &MmImage,
        pagemap: &PagemapImage,
        cost: &mut SimDuration,
    ) -> Result<(), RforkError> {
        let node_id = node.id();
        let model = node.model().clone();
        {
            let process = node.process_mut(pid)?;
            process.task.comm = core.comm.clone();
            process.task.regs = core.regs;
            process.task.fds = core.restore_fds();
            process.task.ns.pid_ns = core.pid_ns;
            process.task.ns.mount_ns = core.mount_ns;
        }
        *cost += SimDuration::from_nanos(model.file_reopen_ns) * core.fds.len() as u64;

        // VMAs.
        *cost += SimDuration::from_nanos(model.fork_vma_copy_ns) * mm_img.vmas.len() as u64;
        node.with_process_ctx(pid, |p, _| -> Result<(), RforkError> {
            for vma in &mm_img.vmas {
                p.mm.vmas.insert(vma.clone()).map_err(RforkError::from)?;
            }
            Ok(())
        })??;

        // ---- Copy every page to local memory. ----
        let payload_bytes = pagemap.entries.len() as u64 * PAGE_SIZE;
        *cost += model.cxl_copy(payload_bytes);
        *cost += SimDuration::from_nanos(model.fork_pte_copy_ns) * pagemap.entries.len() as u64;
        for entry in &pagemap.entries {
            let data = node
                .device()
                .read_page(checkpoint.pages[entry.page_index as usize], node_id)?;
            node.with_process_ctx(pid, |p, ctx| -> Result<(), RforkError> {
                let pfn = ctx.frames.alloc(data).map_err(RforkError::from)?;
                let vpn = VirtPageNum(entry.vpn);
                let writable = p.mm.vmas.find(vpn).map(|v| v.prot.write).unwrap_or(false);
                let mut flags = PteFlags::PRESENT;
                if writable {
                    flags |= PteFlags::WRITABLE;
                }
                if entry.dirty {
                    flags |= PteFlags::DIRTY;
                }
                p.mm.install_mapping(vpn, PhysAddr::Local(pfn), flags, true);
                Ok(())
            })??;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_mem::CxlDevice;
    use node_os::fs::SharedFs;
    use node_os::mm::Access;
    use node_os::vma::Protection;
    use node_os::NodeConfig;

    struct Cluster {
        device: Arc<CxlDevice>,
        src: Node,
        dst: Node,
        criu: CriuCxl,
    }

    fn cluster() -> Cluster {
        let device = Arc::new(CxlDevice::with_capacity_mib(128));
        let rootfs = Arc::new(SharedFs::new());
        rootfs.create("/lib/librt.so", 32 * PAGE_SIZE, 5);
        let src = Node::with_rootfs(
            NodeConfig::default().with_id(0).with_local_mem_mib(64),
            Arc::clone(&device),
            Arc::clone(&rootfs),
        );
        let dst = Node::with_rootfs(
            NodeConfig::default().with_id(1).with_local_mem_mib(64),
            Arc::clone(&device),
            rootfs,
        );
        let criu = CriuCxl::new(Arc::new(CxlFs::new(Arc::clone(&device))));
        Cluster {
            device,
            src,
            dst,
            criu,
        }
    }

    /// Builds a test process: 16 anon pages written, 8 file pages read.
    fn build_process(node: &mut Node) -> Pid {
        let pid = node.spawn("victim").unwrap();
        {
            let p = node.process_mut(pid).unwrap();
            p.task.regs = node_os::process::Registers::seeded(0xFEED);
            p.mm.map_anonymous(0, 16, Protection::read_write(), "heap")
                .unwrap();
            p.mm.map_file(1000, 8, Protection::read_exec(), "/lib/librt.so", 0)
                .unwrap();
            p.task.fds.open(node_os::process::FileDescriptor {
                path: "/lib/librt.so".into(),
                offset: 64,
                writable: false,
            });
        }
        for i in 0..16 {
            node.access(pid, i, Access::Write).unwrap();
        }
        for i in 1000..1008 {
            node.access(pid, i, Access::Read).unwrap();
        }
        pid
    }

    #[test]
    fn checkpoint_captures_dirty_but_skips_clean_file_pages() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        let ckpt = c.criu.checkpoint(&mut c.src, pid).unwrap();
        // 16 anon dirty pages captured; 8 clean file pages skipped.
        assert_eq!(ckpt.page_count(), 16);
        assert_eq!(c.criu.meta(&ckpt).footprint_pages, 24);
        assert_eq!(c.criu.meta(&ckpt).vma_count, 2);
        assert!(c.criu.meta(&ckpt).checkpoint_cost > SimDuration::ZERO);
        // Images exist on the shared fs.
        assert_eq!(c.criu.fs().list(&ckpt.dir).len(), 3);
    }

    #[test]
    fn restore_reproduces_memory_and_registers() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        // Scribble a recognizable byte into page 3.
        let pte = c.src.process(pid).unwrap().mm.translate(VirtPageNum(3));
        let Some(PhysAddr::Local(pfn)) = pte.target() else {
            panic!()
        };
        c.src
            .with_process_ctx(pid, |_, ctx| ctx.frames.data_mut(pfn).write(7, &[0xCD]))
            .unwrap();

        let ckpt = c.criu.checkpoint(&mut c.src, pid).unwrap();
        let restored = c.criu.restore(&ckpt, &mut c.dst).unwrap();

        let child = c.dst.process(restored.pid).unwrap();
        assert_eq!(child.task.regs, node_os::process::Registers::seeded(0xFEED));
        assert_eq!(child.task.comm, "victim");
        assert_eq!(child.task.fds.open_count(), 1);
        // Child's page 3 holds the parent's byte, copied to LOCAL memory.
        let cpte = child.mm.translate(VirtPageNum(3));
        let Some(PhysAddr::Local(cpfn)) = cpte.target() else {
            panic!("CRIU restores to local memory")
        };
        assert_eq!(c.dst.frames().data(cpfn).byte_at(7), 0xCD);
        // All 16 captured pages are local: memory consumption ≈ footprint.
        assert_eq!(child.mm.private_local_pages(), 16);
        assert_eq!(child.mm.mapped_cxl_pages(), 0);
    }

    #[test]
    fn restored_child_is_isolated_from_checkpoint() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        let ckpt = c.criu.checkpoint(&mut c.src, pid).unwrap();
        let r1 = c.criu.restore(&ckpt, &mut c.dst).unwrap();
        // Child writes; a second restore must still see original data.
        c.dst.access(r1.pid, 0, Access::Write).unwrap();
        let fp_before = c.device.fingerprint(ckpt.pages[0]).unwrap();
        let r2 = c.criu.restore(&ckpt, &mut c.dst).unwrap();
        assert_ne!(r1.pid, r2.pid);
        assert_eq!(c.device.fingerprint(ckpt.pages[0]).unwrap(), fp_before);
    }

    #[test]
    fn restore_latency_scales_with_footprint() {
        let mut c = cluster();
        let small = {
            let pid = c.src.spawn("small").unwrap();
            c.src
                .process_mut(pid)
                .unwrap()
                .mm
                .map_anonymous(0, 64, Protection::read_write(), "heap")
                .unwrap();
            for i in 0..64 {
                c.src.access(pid, i, Access::Write).unwrap();
            }
            pid
        };
        let large = {
            let pid = c.src.spawn("large").unwrap();
            c.src
                .process_mut(pid)
                .unwrap()
                .mm
                .map_anonymous(1 << 20, 2048, Protection::read_write(), "heap")
                .unwrap();
            for i in 0..2048 {
                c.src.access(pid, (1 << 20) + i, Access::Write).unwrap();
            }
            pid
        };
        let ck_s = c.criu.checkpoint(&mut c.src, small).unwrap();
        let ck_l = c.criu.checkpoint(&mut c.src, large).unwrap();
        let r_s = c.criu.restore(&ck_s, &mut c.dst).unwrap();
        let r_l = c.criu.restore(&ck_l, &mut c.dst).unwrap();
        assert!(
            r_l.restore_latency > r_s.restore_latency * 4,
            "restore is dominated by per-byte work: {} vs {}",
            r_l.restore_latency,
            r_s.restore_latency
        );
    }

    #[test]
    fn file_pages_fault_major_on_restore_node() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        let ckpt = c.criu.checkpoint(&mut c.src, pid).unwrap();
        let restored = c.criu.restore(&ckpt, &mut c.dst).unwrap();
        // Clean file page was not restored: faults from the root fs.
        let o = c.dst.access(restored.pid, 1000, Access::Read).unwrap();
        assert_eq!(o.fault, Some(node_os::mm::FaultKind::FileMajor));
    }

    #[test]
    fn release_frees_device_space() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        let used_before = c.device.used_pages();
        let ckpt = c.criu.checkpoint(&mut c.src, pid).unwrap();
        assert!(c.device.used_pages() > used_before);
        c.criu.release(ckpt, &c.src).unwrap();
        assert_eq!(c.device.used_pages(), used_before);
    }

    #[test]
    fn missing_images_error() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        let ckpt = c.criu.checkpoint(&mut c.src, pid).unwrap();
        c.criu.fs().remove(&format!("{}mm.img", ckpt.dir)).unwrap();
        assert!(matches!(
            c.criu.restore(&ckpt, &mut c.dst),
            Err(RforkError::Cxl(_))
        ));
    }
}
