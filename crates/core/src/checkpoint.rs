//! CXLfork checkpoint: copy process state to CXL memory and rebase it.
//!
//! Following §4.1, the checkpoint distinguishes *private* state — the task
//! structure, the memory descriptor (VMA tree + page tables), CPU
//! registers, and the process's private pages **including clean private
//! file mappings** — from *global* state (open files, namespaces). Private
//! state is copied to CXL memory as-is with streaming non-temporal stores
//! and then **rebased**: every pointer in the copied structures is
//! rewritten to a machine-independent CXL device page number, so any OS
//! instance in the cluster can attach and dereference it. Global state is
//! lightly serialized (paths and permissions only).
//!
//! The checkpointed page-table leaves preserve the parent's Accessed and
//! Dirty bits (the Accessed bit read from the runtime A-bit bitmap), which
//! later drive dirty-page prefetch (§4.2.1) and hybrid tiering (§4.3).

use std::sync::{Arc, OnceLock};

use cxl_mem::{CxlPageId, RegionId, PAGE_SIZE};
use node_os::addr::{PhysAddr, Pid, VirtPageNum};
use node_os::mm::CxlBacking;
use node_os::page_table::PtLeaf;
use node_os::process::{FileDescriptor, Registers};
use node_os::pte::{Pte, PteFlags};
use node_os::vma::VmaBlock;
use node_os::Node;
use rfork::wire::{ImageReader, ImageWriter};
use rfork::{CheckpointMeta, RforkError};
use simclock::SimDuration;

/// Magic of the lightly-serialized global-state record.
pub const GLOBAL_STATE_MAGIC: u32 = 0xCF0C_0001;

/// Runs one device operation with bounded backoff on transient link
/// errors, accumulating the retry count and the (virtual) backoff delay
/// for the caller's cost model, and typing the give-up error as
/// [`RforkError::RetriesExhausted`].
pub(crate) fn dev_retry<T>(
    op: &'static str,
    retries: &mut u64,
    backoff: &mut SimDuration,
    f: impl FnMut() -> Result<T, cxl_mem::CxlError>,
) -> Result<T, RforkError> {
    let (res, report) = cxl_fault::with_backoff(f);
    *retries += u64::from(report.retries());
    *backoff = backoff.saturating_add(report.backoff);
    res.map_err(|e| {
        if e.is_transient() {
            RforkError::RetriesExhausted {
                op,
                attempts: report.attempts,
                last: e,
            }
        } else {
            RforkError::from(e)
        }
    })
}

/// The task's private state, checkpointed as-is (a bitwise copy in CXL
/// memory; no serialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskImage {
    /// Command name.
    pub comm: String,
    /// CPU context, restored verbatim.
    pub regs: Registers,
    /// Checkpointed PID namespace (§4.1: one of the two namespace kinds
    /// CXLfork checkpoints).
    pub pid_ns: u64,
    /// Checkpointed mount namespace.
    pub mount_ns: u64,
}

/// One checkpointed page-table leaf resident in CXL memory.
#[derive(Debug, Clone)]
pub struct CkptLeaf {
    /// Position in the page table (`vpn >> 9`).
    pub leaf_index: u64,
    /// The rebased, immutable leaf. Its runtime A bits and hot-hint bits
    /// stay writable for working-set monitoring (§4.3).
    pub leaf: Arc<PtLeaf>,
    /// The device page physically holding the leaf.
    pub backing: CxlPageId,
}

/// A CXLfork checkpoint: rebased OS structures plus process pages, all
/// resident in one CXL region.
#[derive(Debug)]
pub struct CxlForkCheckpoint {
    pub(crate) meta: CheckpointMeta,
    /// The device region holding every checkpoint *metadata* page (and,
    /// without a store, the data pages too).
    pub region: RegionId,
    /// The content-addressed store image holding the data pages, when
    /// the mechanism was built with [`crate::CxlFork::with_store`].
    pub image: Option<cxl_store::ImageId>,
    /// Private task state.
    pub task: TaskImage,
    /// Lightly-serialized global state (fd paths + permissions).
    pub(crate) global_bytes: Vec<u8>,
    /// Checkpointed VMA-tree leaf blocks, in address order.
    pub vma_blocks: Vec<(Arc<VmaBlock>, CxlPageId)>,
    /// Checkpointed page-table leaves, in address order.
    pub leaves: Vec<CkptLeaf>,
    /// The vpn → device-page map pull-based restores read, derived from
    /// `leaves` by the first one ([`CxlForkCheckpoint::backing`]).
    pub(crate) backing: OnceLock<Arc<CxlBacking>>,
    /// Checkpointed data pages.
    pub data_pages: u64,
    /// Pages whose checkpointed D bit is set.
    pub dirty_pages: u64,
    /// Those pages — `(vpn, device page)`, ascending — as the rebase
    /// walk met them: what a restore's dirty-page prefetch reads.
    pub(crate) dirty: Vec<(VirtPageNum, CxlPageId)>,
    /// Pages whose checkpointed A bit is set.
    pub accessed_pages: u64,
    /// Content fingerprint of every page `region` owned when the
    /// checkpoint was taken: the seal each restore re-verifies in debug
    /// builds (a checkpoint is never written after it is taken, §4.2.1).
    #[cfg(debug_assertions)]
    pub(crate) seal: Vec<(CxlPageId, u64)>,
}

impl CxlForkCheckpoint {
    /// Checkpoint metadata.
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// Iterates `(vpn, pte)` over every checkpointed page entry.
    pub fn iter_pages(&self) -> impl Iterator<Item = (VirtPageNum, Pte)> + '_ {
        self.leaves.iter().flat_map(|l| {
            l.leaf
                .iter_populated()
                .map(move |(slot, pte)| (VirtPageNum((l.leaf_index << 9) | slot as u64), pte))
        })
    }
}

/// Encodes the global state (open fds) for light serialization.
pub(crate) fn encode_global_state(fds: &[FileDescriptor]) -> Result<Vec<u8>, RforkError> {
    let mut w = ImageWriter::new(GLOBAL_STATE_MAGIC);
    w.put_u32(fds.len() as u32);
    for fd in fds {
        w.put_str(&fd.path)?;
        w.put_u64(fd.offset);
        w.put_bool(fd.writable);
    }
    Ok(w.into_bytes())
}

/// Decodes the global-state record.
pub(crate) fn decode_global_state(bytes: &[u8]) -> Result<Vec<FileDescriptor>, RforkError> {
    let mut r = ImageReader::new(bytes, GLOBAL_STATE_MAGIC)?;
    let n = r.get_u32()? as usize;
    let mut fds = Vec::with_capacity(n);
    for _ in 0..n {
        fds.push(FileDescriptor {
            path: r.get_str()?.to_owned(),
            offset: r.get_u64()?,
            writable: r.get_bool()?,
        });
    }
    Ok(fds)
}

/// Aborts a pending store image if the checkpoint fails before
/// publishing it, mirroring what the staged-region guard does for the
/// metadata region.
struct ImageGuard<'s> {
    store: &'s cxl_store::Store,
    image: cxl_store::ImageId,
    armed: bool,
}

impl ImageGuard<'_> {
    /// Publishes the image (catalog entry referencing `meta_region`) and
    /// disarms the rollback. Returns the image plus the journal pages
    /// the commit record cost (zero for a volatile store). A journal that
    /// cannot hold the image refuses: the guard stays armed and aborts it.
    fn commit(mut self, meta_region: RegionId) -> Result<(cxl_store::ImageId, u64), RforkError> {
        match self.store.commit_image(self.image, meta_region) {
            Ok(journal_pages) => {
                self.armed = false;
                Ok((self.image, journal_pages))
            }
            Err(cxl_store::StoreError::JournalFull { cause, .. }) => Err(cause.into()),
            Err(e) => panic!("image stays pending until the guard commits it: {e}"),
        }
    }
}

impl Drop for ImageGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // The image may already be gone if the store itself failed
            // mid-intern; rollback is best-effort either way.
            let _ = self.store.abort_image(self.image);
        }
    }
}

/// Takes a CXLfork checkpoint of `pid` on `node`.
///
/// Returns the checkpoint and charges the modelled cost to the node's
/// clock. With a store, data pages are interned (content-addressed,
/// deduped across images) instead of written privately.
pub(crate) fn take_checkpoint(
    node: &mut Node,
    pid: Pid,
    checkpoint_seq: u64,
    store: Option<&cxl_store::Store>,
    config: &crate::CxlForkConfig,
) -> Result<CxlForkCheckpoint, RforkError> {
    let node_id = node.id();
    let model = node.model().clone();
    let parallelism = config.parallelism;

    // ---- Gather the task, fd and VMA state (read-only). ----
    let (task, fds, vma_block_images) = {
        let process = node.process(pid)?;
        // §4.1: CXLfork does not support shared anonymous memory.
        if let Some(vma) = process
            .mm
            .vmas
            .iter()
            .find(|v| v.kind.is_shared_anonymous())
        {
            return Err(RforkError::Unsupported(format!(
                "shared anonymous mapping at vpn{:#x} (§4.1)",
                vma.start
            )));
        }
        let task = TaskImage {
            comm: process.task.comm.clone(),
            regs: process.task.regs,
            pid_ns: process.task.ns.pid_ns,
            mount_ns: process.task.ns.mount_ns,
        };
        let fds: Vec<FileDescriptor> = process.task.fds.iter().map(|(_, d)| d.clone()).collect();

        // VMA tree leaves: copy the blocks as-is.
        let vma_block_images: Vec<VmaBlock> = process
            .mm
            .vmas
            .blocks()
            .iter()
            .map(|slot| match slot {
                node_os::vma::VmaBlockSlot::Local(b) => b.clone(),
                node_os::vma::VmaBlockSlot::Attached { block, .. } => (**block).clone(),
            })
            .filter(|b| !b.is_empty())
            .collect();
        (task, fds, vma_block_images)
    };

    // ---- Copy pages + metadata into a fresh CXL *staging* region. ----
    // Two-phase commit: the region stays uncommitted (invisible to
    // restore) until every page is written, then `commit_region`
    // publishes it atomically — a crash mid-checkpoint can never leave a
    // half-visible checkpoint, only an orphaned staging region for the
    // lease GC. The guard additionally destroys the region if anything
    // below fails on this (live) node, so a failed checkpoint never
    // leaks device pages.
    let device = Arc::clone(node.device());
    let guard = device.create_region_staged_guarded(
        &format!("cxlfork:{}#{}", task.comm, checkpoint_seq),
        node_id,
        checkpoint_seq,
    );
    let region = guard.id();

    // ---- Capture every present page with its runtime A bit — the
    // parent's access pattern (§4.1) — and its contents, so they move in
    // one batched read + alloc + write per checkpoint: the fabric
    // round-trip is paid once per batch and the remaining pages pipeline
    // behind it (§4.1 streaming non-temporal copy). Pages still resident
    // on the device (a restored process re-checkpointed) are read in one
    // retried batch.
    let capture = node
        .capture(pid, |_| true)
        .map_err(|e| RforkError::during("checkpoint_read", e))?;
    let mut retries = capture.retries;
    let mut retry_backoff = capture.backoff;
    let datas = capture.data;

    // Data pages land either in the content-addressed store (deduped
    // across images, zero pages elided from the transfer) or privately
    // in the staging region. Either way the batch ops are built once and
    // reused verbatim across transient retry attempts, so each attempt
    // is exactly one batch op plus the policy's backoff — never a
    // rebuilt partial; `intern_pages` is additionally all-or-nothing per
    // attempt, so retries never double-count references.
    let mut image_guard: Option<ImageGuard<'_>> = None;
    let (dsts, interned) = if let Some(store) = store {
        let image = store.begin_image(
            &format!("cxlfork:{}#{}", task.comm, checkpoint_seq),
            node_id,
            checkpoint_seq,
            node.now(),
        );
        image_guard = Some(ImageGuard {
            store,
            image,
            armed: true,
        });
        let mut outcome = dev_retry(
            "checkpoint_intern",
            &mut retries,
            &mut retry_backoff,
            || store.intern_pages(image, &datas, node_id),
        )?;
        (std::mem::take(&mut outcome.pages), Some(outcome))
    } else {
        // With stream parallelism, stripe the data pages across shard
        // banks so the pipelined transfer has real per-bank work; at
        // the default parallelism this IS `alloc_batch`, page ids
        // included.
        let dsts = dev_retry("checkpoint_alloc", &mut retries, &mut retry_backoff, || {
            device.alloc_batch_striped(region, capture.pages.len() as u64, parallelism)
        })?;
        let pairs: Vec<(CxlPageId, cxl_mem::PageData)> = dsts.iter().copied().zip(datas).collect();
        if !pairs.is_empty() {
            dev_retry("checkpoint_copy", &mut retries, &mut retry_backoff, || {
                device.write_pages(&pairs, node_id)
            })?;
        }
        (dsts, None)
    };

    // REBASE: rewrite every copied entry to its machine-independent CXL
    // page number, read-only + CoW + checkpoint-pinned, keeping the
    // FILE / DIRTY bits and recording the runtime A bit as ACCESSED. One
    // device page physically stores each populated 512-entry leaf. The
    // leaves are all a migrate-on-access restore needs: it derives its
    // backing from them.
    let data_pages = capture.pages.len() as u64;
    let mut dirty: Vec<(VirtPageNum, CxlPageId)> = Vec::new();
    let mut accessed_pages = 0u64;
    let mut rebased_pointers = 0u64;
    let mut populated: Vec<(u64, PtLeaf)> = Vec::new();
    for (page, dst) in capture.pages.iter().zip(dsts.iter().copied()) {
        let mut flags = PteFlags::PRESENT | PteFlags::COW | PteFlags::CKPT_PIN;
        if page.pte.flags().contains(PteFlags::FILE) {
            flags |= PteFlags::FILE;
        }
        if page.accessed {
            flags |= PteFlags::ACCESSED;
            accessed_pages += 1;
        }
        if page.pte.is_dirty() {
            flags |= PteFlags::DIRTY;
            dirty.push((page.vpn, dst));
        }
        let leaf_index = page.vpn.leaf_index();
        if populated.last().is_none_or(|(last, _)| *last != leaf_index) {
            populated.push((leaf_index, PtLeaf::new()));
        }
        let (_, leaf) = populated.last_mut().expect("the leaf was pushed above");
        leaf.set(page.vpn.leaf_slot(), Pte::mapped(PhysAddr::Cxl(dst), flags));
        rebased_pointers += 1;
    }

    let leaf_backings = dev_retry("checkpoint_alloc", &mut retries, &mut retry_backoff, || {
        device.alloc_batch(region, populated.len() as u64)
    })?;
    let leaves: Vec<CkptLeaf> = populated
        .into_iter()
        .zip(leaf_backings)
        .map(|((leaf_index, leaf), backing)| CkptLeaf {
            leaf_index,
            leaf: Arc::new(leaf),
            backing,
        })
        .collect();

    // VMA blocks: one device page each, plus a rebased pointer per VMA.
    let vma_backings = dev_retry("checkpoint_alloc", &mut retries, &mut retry_backoff, || {
        device.alloc_batch(region, vma_block_images.len() as u64)
    })?;
    let mut vma_count = 0usize;
    let vma_blocks: Vec<(Arc<VmaBlock>, CxlPageId)> = vma_block_images
        .into_iter()
        .zip(vma_backings)
        .map(|(block, backing_page)| {
            vma_count += block.len();
            rebased_pointers += block.len() as u64;
            (Arc::new(block), backing_page)
        })
        .collect();

    // Task image: one device page.
    let task_backing = dev_retry("checkpoint_alloc", &mut retries, &mut retry_backoff, || {
        device.alloc_batch(region, 1)
    })?;

    // Global state: light serialization of fd paths + permissions.
    let global_bytes = encode_global_state(&fds)?;

    // ---- Cost model (§4.1, §8): one pipelined streaming transfer for
    // every checkpointed page (data + leaf + VMA + task), plus rebase,
    // plus whatever backoff the transient-fault retries accrued. A
    // one-page checkpoint costs exactly the scalar write path.
    // With a store, only the pages whose content actually crossed the
    // fabric count (dedup hits and elided zero pages moved nothing).
    // Durable stores additionally journal each intern batch; those
    // records ride the same batched write path and are charged here.
    let data_transfer = interned.as_ref().map_or(data_pages, |o| o.written);
    let journal_transfer = interned.as_ref().map_or(0, |o| o.journal_pages);
    let copied_pages =
        data_transfer + journal_transfer + leaves.len() as u64 + vma_blocks.len() as u64 + 1;
    let copied_bytes = copied_pages * PAGE_SIZE;
    // One costing path: `PipelineModel` over the per-bank partition of
    // the pages actually written (data + leaf + VMA + task backings).
    // `parallelism <= 1` is its serial degenerate case, not a branch
    // here. Journal records are an append-only log on one bank and stay
    // serial whatever the stream count.
    let data_written: &[CxlPageId] = interned.as_ref().map_or(&dsts, |o| &o.written_pages);
    let stream_partition = device.shard_partition(
        data_written
            .iter()
            .copied()
            .chain(leaves.iter().map(|l| l.backing))
            .chain(vma_blocks.iter().map(|(_, backing)| *backing))
            .chain(task_backing.iter().copied()),
    );
    // The fabric is charged the whole transfer — journal records ride
    // bank 0's port with the log — and answers with the queueing delay
    // this checkpoint suffers under contention: exactly zero detached
    // (the default) or idle.
    let mut charged = stream_partition.clone();
    if let Some(slot) = charged.first_mut() {
        *slot += journal_transfer;
    }
    let fabric_wait = device.fabric_charge(node.now(), &charged);
    let copy_cost = model
        .pipeline(parallelism)
        .with_queue_delay(fabric_wait)
        .batch_write(&stream_partition, interned.is_some())
        + model.cxl_batch_write(journal_transfer);
    let rebase_cost = SimDuration::from_nanos(model.rebase_pointer_ns) * rebased_pointers;
    let serialize_cost = model.serialize(global_bytes.len() as u64);
    let cost = copy_cost + rebase_cost + serialize_cost + retry_backoff;
    let t0 = node.now();
    node.clock_mut().advance(cost);
    node.add_transient_retries(retries);

    let region_usage = device.region_usage(region)?;
    // Phase two: every page is in place — publish atomically, then
    // commit the store image (which records the committed region as its
    // metadata region) and disarm the region's cleanup guard. A store
    // that refuses the commit leaves both guards to roll back.
    device.commit_region(region)?;
    let mut cost = cost;
    let mut commit_cost = SimDuration::ZERO;
    let image = match image_guard {
        Some(g) => {
            let (image, commit_journal_pages) = g.commit(region)?;
            // The commit marker is itself a journaled write (possibly
            // with a compaction snapshot behind it); it lands strictly
            // after the publish, so its cost is charged here.
            if commit_journal_pages > 0 {
                commit_cost = model.cxl_batch_write(commit_journal_pages);
                node.clock_mut().advance(commit_cost);
                cost += commit_cost;
            }
            Some(image)
        }
        None => None,
    };
    let region = guard.commit();

    if cxl_telemetry::is_armed() {
        // The phase children partition [t0, t0+cost] contiguously, so
        // their durations sum exactly to the parent span (Fig. 7a) —
        // including the post-publish journal commit, which a durable
        // store charges after the region is live; recording the span
        // here (after the commit) is what keeps `checkpoint.latency`
        // and the closed span reconciled with the `PorterReport` e2e
        // time.
        let track = node_id.0;
        cxl_telemetry::span_open(
            "core.checkpoint",
            track,
            t0,
            &[("pages", data_pages), ("bytes", copied_bytes)],
        );
        let mut cursor = t0;
        let mut phases = vec![
            ("checkpoint.copy_pages", copy_cost),
            ("checkpoint.rebase", rebase_cost),
            ("checkpoint.serialize", serialize_cost),
            ("checkpoint.retry_backoff", retry_backoff),
        ];
        if commit_cost > SimDuration::ZERO {
            phases.push(("checkpoint.commit_journal", commit_cost));
        }
        for (phase, d) in phases {
            let end = cursor + d;
            cxl_telemetry::record_span(&format!("core.{phase}"), track, cursor, end, &[]);
            cxl_telemetry::counter_add("core", &format!("phase.{phase}"), None, d.as_nanos());
            if phase == "checkpoint.copy_pages" {
                // Decides what is *emitted*, not what is charged: a
                // single stream has no per-stream children to show.
                if parallelism > 1 {
                    // Per-stream children partition the copy phase: each
                    // stream starts with the phase and runs its own
                    // critical path (clamped to the phase — the modelled
                    // cost may be the serial floor).
                    let pipeline = model.pipeline(parallelism);
                    for (i, load) in pipeline.stream_loads(&stream_partition).iter().enumerate() {
                        let stream_end =
                            cursor + pipeline.stream_write_cost(*load, interned.is_some()).min(d);
                        cxl_telemetry::record_span(
                            "core.checkpoint.copy_pages.stream",
                            track,
                            cursor,
                            stream_end,
                            &[("stream", i as u64), ("pages", *load)],
                        );
                    }
                }
            }
            cursor = end;
        }
        cxl_telemetry::span_close(track, cursor);
        cxl_telemetry::timer_record("core", "checkpoint.latency", Some(track), cost);
    }
    Ok(CxlForkCheckpoint {
        meta: CheckpointMeta {
            comm: task.comm.clone(),
            footprint_pages: capture.footprint,
            // Pages this checkpoint added to the device: its metadata
            // region plus (with a store) the freshly interned data pages
            // — shared content was already resident.
            cxl_pages: region_usage.pages + interned.as_ref().map_or(0, |o| o.fresh),
            created_at: node.now(),
            checkpoint_cost: cost,
            vma_count,
        },
        region,
        image,
        task,
        global_bytes,
        vma_blocks,
        leaves,
        backing: OnceLock::new(),
        data_pages,
        dirty_pages: dirty.len() as u64,
        dirty,
        accessed_pages,
        #[cfg(debug_assertions)]
        seal: device
            .live_pages()
            .into_iter()
            .filter(|&(_, owner)| owner == region)
            .map(|(page, _)| (page, device.fingerprint(page).expect("a live page")))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_state_roundtrip() {
        let fds = vec![
            FileDescriptor {
                path: "/a".into(),
                offset: 1,
                writable: true,
            },
            FileDescriptor {
                path: "/b/c".into(),
                offset: 0,
                writable: false,
            },
        ];
        let bytes = encode_global_state(&fds).unwrap();
        assert_eq!(decode_global_state(&bytes).unwrap(), fds);
    }

    #[test]
    fn corrupt_global_state_rejected() {
        let bytes = encode_global_state(&[]).unwrap();
        assert!(decode_global_state(&bytes[..3]).is_err());
    }
}
