//! Mitosis-CXL: the state-of-the-art remote-fork baseline.
//!
//! Mitosis (OSDI '23) "creates a shadow immutable copy of the parent
//! process in the memory of the same node, while serializing the OS state
//! … Then, it transfers the serialized OS state to the remote node using
//! one-sided RDMA operations, and deserializes it to create a new process
//! … By default, the forked process is resumed without copying the
//! parent's memory pages. As the forked process executes, it triggers
//! special page faults that copy such pages from the parent node lazily"
//! (§2.3.2). The paper ports it to CXL by replacing the RDMA verbs with
//! page copies over shared CXL memory, so "each 'remote' fault thus
//! includes the latency to store and fetch data from CXL memory" (§6.2).
//!
//! This crate reproduces that adapted design:
//!
//! * **Checkpoint** takes a *shadow copy* of every resident page into the
//!   parent node's local memory (cheap local streaming copies — this is
//!   why Mitosis checkpoints ≈1.5× faster than CXLfork, §7.1) and encodes
//!   a compact OS-state descriptor (task, VMAs, per-page records).
//! * **Restore** ships the descriptor over CXL, decodes it (the per-PTE
//!   decoding that costs Mitosis up to 15 ms for BERT, §7.1), rebuilds the
//!   task and VMA tree, and installs a *migrate-on-access* backing: every
//!   first touch of a page takes a remote fault that copies it from the
//!   parent's shadow via a CXL store+fetch pair. Nothing is shared between
//!   siblings — each child materializes its own local copy of every page
//!   it touches, which is why Mitosis consumes 24× the local memory of a
//!   local fork for BERT (Fig. 3c).
//!
//! The design also inherits Mitosis's lifecycle coupling: the checkpoint
//! pins the parent node's shadow pages, so the parent cannot release them
//! until all remote children exit (§3.1) — modelled by
//! [`MitosisCheckpoint::shadow_pages`] accounting against the parent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use cxl_mem::{PageData, PAGE_SIZE};
use node_os::addr::{Pid, VirtPageNum};
use node_os::mm::{BackingSource, CxlBacking, CxlTierPolicy};
use node_os::process::{FdTable, FileDescriptor, Registers};
use node_os::vma::{Protection, Vma, VmaKind};
use node_os::{CapturedPage, Node};
use rfork::wire::{ImageReader, ImageWriter};
use rfork::{CheckpointMeta, RemoteFork, RestoreOptions, Restored, RforkError};
use simclock::SimDuration;

/// Magic of a Mitosis OS-state descriptor.
pub const DESCRIPTOR_MAGIC: u32 = 0x3170_5150;

/// The Mitosis-CXL mechanism.
///
/// Stateless; the per-fork state lives in [`MitosisCheckpoint`].
#[derive(Debug, Default)]
pub struct MitosisCxl;

/// A Mitosis checkpoint: the serialized OS-state descriptor plus the
/// parent-resident shadow copy of the process pages.
#[derive(Debug)]
pub struct MitosisCheckpoint {
    meta: CheckpointMeta,
    /// Encoded OS-state descriptor (what gets shipped over CXL at
    /// restore).
    descriptor: Vec<u8>,
    /// The shadow copy: `(vpn, contents)` of every resident page, in the
    /// descriptor's page-record order.
    shadow: Vec<(u64, Arc<PageData>)>,
}

impl MitosisCheckpoint {
    /// Pages pinned in the parent node's local memory by the shadow copy.
    pub fn shadow_pages(&self) -> u64 {
        self.shadow.len() as u64
    }

    /// Size of the OS-state descriptor in bytes.
    pub fn descriptor_bytes(&self) -> u64 {
        self.descriptor.len() as u64
    }
}

impl MitosisCxl {
    /// Creates the mechanism.
    pub fn new() -> Self {
        MitosisCxl
    }

    fn encode_descriptor(
        comm: &str,
        regs: &Registers,
        fds: &[FileDescriptor],
        pid_ns: u64,
        mount_ns: u64,
        vmas: &[Vma],
        pages: &[CapturedPage],
    ) -> Result<Vec<u8>, RforkError> {
        let mut w = ImageWriter::new(DESCRIPTOR_MAGIC);
        w.put_str(comm)?;
        for r in regs.gpr {
            w.put_u64(r);
        }
        w.put_u64(regs.rip);
        w.put_u64(regs.rsp);
        w.put_u64(pid_ns);
        w.put_u64(mount_ns);
        w.put_u32(fds.len() as u32);
        for fd in fds {
            w.put_str(&fd.path)?;
            w.put_u64(fd.offset);
            w.put_bool(fd.writable);
        }
        w.put_u32(vmas.len() as u32);
        for v in vmas {
            w.put_u64(v.start);
            w.put_u64(v.end);
            w.put_bool(v.prot.read);
            w.put_bool(v.prot.write);
            w.put_bool(v.prot.exec);
            w.put_str(&v.label)?;
            match &v.kind {
                VmaKind::Anonymous => w.put_u16(0),
                VmaKind::SharedAnonymous => w.put_u16(2),
                VmaKind::File {
                    path,
                    file_start_page,
                } => {
                    w.put_u16(1);
                    w.put_str(path)?;
                    w.put_u64(*file_start_page);
                }
            }
        }
        // Per-page records (vpn + flag bits); contents stay in the shadow.
        w.put_u64(pages.len() as u64);
        for p in pages {
            w.put_u64(p.vpn.0);
            w.put_bool(p.pte.is_dirty());
            w.put_bool(p.accessed);
            w.put_bool(p.pte.flags().contains(node_os::pte::PteFlags::FILE));
        }
        Ok(w.into_bytes())
    }
}

/// Decoded descriptor contents.
struct Descriptor {
    comm: String,
    regs: Registers,
    fds: Vec<FileDescriptor>,
    pid_ns: u64,
    mount_ns: u64,
    vmas: Vec<Vma>,
    /// The page records' vpns (their D, A and FILE bits are decoded and
    /// dropped: the restore rebuilds no PTE from them).
    pages: Vec<u64>,
}

fn decode_descriptor(bytes: &[u8]) -> Result<Descriptor, RforkError> {
    let mut r = ImageReader::new(bytes, DESCRIPTOR_MAGIC)?;
    let comm = r.get_str()?.to_owned();
    let mut gpr = [0u64; 16];
    for g in &mut gpr {
        *g = r.get_u64()?;
    }
    let rip = r.get_u64()?;
    let rsp = r.get_u64()?;
    let pid_ns = r.get_u64()?;
    let mount_ns = r.get_u64()?;
    let nfds = r.get_u32()? as usize;
    let mut fds = Vec::with_capacity(nfds);
    for _ in 0..nfds {
        fds.push(FileDescriptor {
            path: r.get_str()?.to_owned(),
            offset: r.get_u64()?,
            writable: r.get_bool()?,
        });
    }
    let nvmas = r.get_u32()? as usize;
    let mut vmas = Vec::with_capacity(nvmas);
    for _ in 0..nvmas {
        let start = r.get_u64()?;
        let end = r.get_u64()?;
        let prot = Protection {
            read: r.get_bool()?,
            write: r.get_bool()?,
            exec: r.get_bool()?,
        };
        let label = r.get_str()?.to_owned();
        let kind = match r.get_u16()? {
            0 => VmaKind::Anonymous,
            1 => VmaKind::File {
                path: r.get_str()?.to_owned(),
                file_start_page: r.get_u64()?,
            },
            t => {
                return Err(RforkError::BadImage(format!(
                    "unknown vma kind tag {t} in mitosis descriptor"
                )))
            }
        };
        let mut vma = Vma::anonymous(start, end, prot, &label);
        vma.kind = kind;
        vmas.push(vma);
    }
    let npages = r.get_u64()? as usize;
    let mut pages = Vec::with_capacity(npages);
    for _ in 0..npages {
        pages.push(r.get_u64()?);
        for _ in 0..3 {
            r.get_bool()?;
        }
    }
    Ok(Descriptor {
        comm,
        regs: Registers { gpr, rip, rsp },
        fds,
        pid_ns,
        mount_ns,
        vmas,
        pages,
    })
}

impl RemoteFork for MitosisCxl {
    type Checkpoint = MitosisCheckpoint;

    fn name(&self) -> &'static str {
        "Mitosis-CXL"
    }

    fn checkpoint(&self, node: &mut Node, pid: Pid) -> Result<MitosisCheckpoint, RforkError> {
        let model = node.model().clone();

        let capture = node
            .capture(pid, |_| true)
            .map_err(|e| RforkError::during("checkpoint_read", e))?;
        let (comm, descriptor, vma_count) = {
            let process = node.process(pid)?;
            let vmas: Vec<Vma> = process.mm.vmas.iter().cloned().collect();
            let fds: Vec<FileDescriptor> =
                process.task.fds.iter().map(|(_, d)| d.clone()).collect();
            let descriptor = MitosisCxl::encode_descriptor(
                &process.task.comm,
                &process.task.regs,
                &fds,
                process.task.ns.pid_ns,
                process.task.ns.mount_ns,
                &vmas,
                &capture.pages,
            )?;
            (process.task.comm.clone(), descriptor, vmas.len())
        };
        let shadow: Vec<(u64, Arc<PageData>)> = (capture.pages.iter())
            .zip(capture.data)
            .map(|(page, data)| (page.vpn.0, Arc::new(data)))
            .collect();

        // Cost: local shadow copy + per-PTE descriptor encoding, plus any
        // backoff the capture's read retried with. No CXL traffic at
        // checkpoint time — that is the point of Mitosis.
        let cost = model.local_copy(shadow.len() as u64 * PAGE_SIZE)
            + SimDuration::from_nanos(model.descriptor_encode_pte_ns) * shadow.len() as u64
            + model.serialize(descriptor.len() as u64)
            + capture.backoff;
        node.clock_mut().advance(cost);
        node.add_transient_retries(capture.retries);

        Ok(MitosisCheckpoint {
            meta: CheckpointMeta {
                comm,
                footprint_pages: capture.footprint,
                cxl_pages: 0,
                created_at: node.now(),
                checkpoint_cost: cost,
                vma_count,
            },
            descriptor,
            shadow,
        })
    }

    fn restore_with(
        &self,
        checkpoint: &MitosisCheckpoint,
        node: &mut Node,
        _options: RestoreOptions,
    ) -> Result<Restored, RforkError> {
        let model = node.model().clone();
        let d = decode_descriptor(&checkpoint.descriptor)?;

        // Cost: ship the descriptor over CXL (store on the parent side,
        // fetch on ours), then decode it per PTE and rebuild OS state.
        let desc_bytes = checkpoint.descriptor.len() as u64;
        let mut cost = SimDuration::from_nanos(model.process_create_ns)
            + model.cxl_write_copy(desc_bytes)
            + model.cxl_copy(desc_bytes)
            + SimDuration::from_nanos(model.descriptor_decode_pte_ns) * d.pages.len() as u64
            + SimDuration::from_nanos(model.fork_vma_copy_ns) * d.vmas.len() as u64
            + SimDuration::from_nanos(model.file_reopen_ns) * d.fds.len() as u64;

        let pid = node.spawn(&d.comm)?;
        {
            let process = node.process_mut(pid)?;
            process.task.regs = d.regs;
            process.task.ns.pid_ns = d.pid_ns;
            process.task.ns.mount_ns = d.mount_ns;
            let mut fds = FdTable::new();
            for fd in &d.fds {
                fds.open(fd.clone());
            }
            process.task.fds = fds;
        }

        // Backing map: every shadow page is pull-able from the parent.
        let mut backing = CxlBacking::with_capacity(d.pages.len());
        for (&record, (vpn, data)) in d.pages.iter().zip(&checkpoint.shadow) {
            debug_assert_eq!(record, *vpn, "descriptor/shadow order");
            backing.insert(VirtPageNum(record), BackingSource::Remote(Arc::clone(data)));
        }
        let backing = Arc::new(backing);
        node.with_process_ctx(pid, |p, _| -> Result<(), RforkError> {
            for vma in &d.vmas {
                p.mm.vmas.insert(vma.clone()).map_err(RforkError::from)?;
            }
            p.mm.set_policy(CxlTierPolicy::MigrateOnAccess);
            p.mm.set_backing(backing);
            Ok(())
        })??;

        // Restores resume without copying any page data.
        cost += SimDuration::from_nanos(model.rebase_pointer_ns) * d.pages.len() as u64;
        node.clock_mut().advance(cost);
        Ok(Restored {
            pid,
            restore_latency: cost,
        })
    }

    fn meta<'c>(&self, checkpoint: &'c MitosisCheckpoint) -> &'c CheckpointMeta {
        &checkpoint.meta
    }

    /// Mitosis pulls pages lazily; a child typically materializes the
    /// touched fraction of the footprint, approaching the whole footprint
    /// for long-lived instances. Estimate half.
    fn restore_memory_estimate(
        &self,
        checkpoint: &MitosisCheckpoint,
        _options: RestoreOptions,
    ) -> u64 {
        checkpoint.meta.footprint_pages / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_mem::CxlDevice;
    use node_os::fs::SharedFs;
    use node_os::mm::{Access, FaultKind};
    use node_os::{NodeConfig, PhysAddr};

    struct Cluster {
        src: Node,
        dst: Node,
        mitosis: MitosisCxl,
    }

    fn cluster() -> Cluster {
        let device = Arc::new(CxlDevice::with_capacity_mib(64));
        let rootfs = Arc::new(SharedFs::new());
        rootfs.create("/lib/libm.so", 16 * PAGE_SIZE, 8);
        Cluster {
            src: Node::with_rootfs(
                NodeConfig::default().with_id(0).with_local_mem_mib(64),
                Arc::clone(&device),
                Arc::clone(&rootfs),
            ),
            dst: Node::with_rootfs(
                NodeConfig::default().with_id(1).with_local_mem_mib(64),
                device,
                rootfs,
            ),
            mitosis: MitosisCxl::new(),
        }
    }

    fn build_process(node: &mut Node) -> Pid {
        let pid = node.spawn("fn").unwrap();
        {
            let p = node.process_mut(pid).unwrap();
            p.task.regs = Registers::seeded(0xB0B);
            p.mm.map_anonymous(0, 32, Protection::read_write(), "heap")
                .unwrap();
            p.mm.map_file(500, 8, Protection::read_exec(), "/lib/libm.so", 0)
                .unwrap();
        }
        for i in 0..32 {
            node.access(pid, i, Access::Write).unwrap();
        }
        for i in 500..504 {
            node.access(pid, i, Access::Read).unwrap();
        }
        pid
    }

    #[test]
    fn checkpoint_shadows_all_resident_pages_locally() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        let device_used = c.src.device().used_pages();
        let ckpt = c.mitosis.checkpoint(&mut c.src, pid).unwrap();
        assert_eq!(ckpt.shadow_pages(), 36); // 32 anon + 4 touched file pages
        assert_eq!(c.mitosis.meta(&ckpt).footprint_pages, 36);
        assert_eq!(
            c.mitosis.meta(&ckpt).cxl_pages,
            0,
            "no CXL use at checkpoint"
        );
        assert_eq!(c.src.device().used_pages(), device_used);
        assert!(ckpt.descriptor_bytes() > 0);
    }

    #[test]
    fn restore_is_lazy_and_faults_pull_remotely() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        let ckpt = c.mitosis.checkpoint(&mut c.src, pid).unwrap();
        let frames_before = c.dst.frames().used();
        let restored = c.mitosis.restore(&ckpt, &mut c.dst).unwrap();
        // Restore copies no data pages.
        assert_eq!(c.dst.frames().used(), frames_before);
        let child = c.dst.process(restored.pid).unwrap();
        assert_eq!(child.task.regs, Registers::seeded(0xB0B));
        assert_eq!(child.mm.policy(), CxlTierPolicy::MigrateOnAccess);

        // First touch of any page takes a remote pull fault.
        let o = c.dst.access(restored.pid, 5, Access::Read).unwrap();
        assert_eq!(o.fault, Some(FaultKind::RemotePull));
        // Remote pull costs more than a plain CXL pull (store + fetch).
        let model = c.dst.model().clone();
        assert!(o.fault_cost > model.cxl_pull_fault());
        // Second touch: local, no fault.
        let o2 = c.dst.access(restored.pid, 5, Access::Read).unwrap();
        assert_eq!(o2.fault, None);
        assert_eq!(c.dst.frames().used(), frames_before + 1);
    }

    #[test]
    fn pulled_pages_carry_parent_content_and_isolate() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        // Scribble into parent page 3.
        let pte = c.src.process(pid).unwrap().mm.translate(VirtPageNum(3));
        let Some(PhysAddr::Local(pfn)) = pte.target() else {
            panic!()
        };
        c.src
            .with_process_ctx(pid, |_, ctx| ctx.frames.data_mut(pfn).write(9, &[0x77]))
            .unwrap();
        let ckpt = c.mitosis.checkpoint(&mut c.src, pid).unwrap();

        // Parent writes AFTER the checkpoint must not leak to children:
        // the shadow copy is immutable.
        c.src
            .with_process_ctx(pid, |_, ctx| ctx.frames.data_mut(pfn).write(9, &[0x99]))
            .unwrap();

        let r1 = c.mitosis.restore(&ckpt, &mut c.dst).unwrap();
        c.dst.access(r1.pid, 3, Access::Read).unwrap();
        let cpte = c.dst.process(r1.pid).unwrap().mm.translate(VirtPageNum(3));
        let Some(PhysAddr::Local(cpfn)) = cpte.target() else {
            panic!()
        };
        assert_eq!(
            c.dst.frames().data(cpfn).byte_at(9),
            0x77,
            "checkpoint-time value"
        );

        // Sibling children do not share pulled pages: each pays its own.
        let r2 = c.mitosis.restore(&ckpt, &mut c.dst).unwrap();
        c.dst.access(r2.pid, 3, Access::Write).unwrap();
        let c2 = c.dst.process(r2.pid).unwrap().mm.translate(VirtPageNum(3));
        let Some(PhysAddr::Local(c2pfn)) = c2.target() else {
            panic!()
        };
        assert_ne!(cpfn, c2pfn);
        assert_eq!(
            c.dst.process(r1.pid).unwrap().mm.private_local_pages()
                + c.dst.process(r2.pid).unwrap().mm.private_local_pages(),
            2,
            "one private copy per sibling"
        );
    }

    #[test]
    fn restore_latency_scales_with_page_table_size_not_footprint_bytes() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        let ckpt = c.mitosis.checkpoint(&mut c.src, pid).unwrap();
        let r = c.mitosis.restore(&ckpt, &mut c.dst).unwrap();
        // A CRIU-style restore of 36 pages would cost ≥ deserialize+copy of
        // 144 KiB ≈ 107 µs; Mitosis' lazy restore only pays descriptor
        // work.
        let model = c.dst.model().clone();
        let criu_like = model.deserialize(36 * PAGE_SIZE) + model.cxl_copy(36 * PAGE_SIZE);
        assert!(
            r.restore_latency < criu_like + SimDuration::from_nanos(model.process_create_ns),
            "mitosis {} vs criu-like {}",
            r.restore_latency,
            criu_like
        );
    }

    #[test]
    fn checkpoint_is_faster_than_criu_style_serialization() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        let ckpt = c.mitosis.checkpoint(&mut c.src, pid).unwrap();
        let model = c.src.model().clone();
        let criu_cost = model.serialize(36 * PAGE_SIZE) + model.cxl_write_copy(36 * PAGE_SIZE);
        assert!(
            c.mitosis.meta(&ckpt).checkpoint_cost < criu_cost,
            "shadow copy beats serialization"
        );
    }

    #[test]
    fn corrupted_descriptor_is_rejected() {
        let mut c = cluster();
        let pid = build_process(&mut c.src);
        let mut ckpt = c.mitosis.checkpoint(&mut c.src, pid).unwrap();
        ckpt.descriptor.truncate(10);
        assert!(matches!(
            c.mitosis.restore(&ckpt, &mut c.dst),
            Err(RforkError::BadImage(_))
        ));
    }
}
