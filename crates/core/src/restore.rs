//! CXLfork restore: attach checkpointed state in (almost) constant time.
//!
//! The restore path implements §4.2:
//!
//! * a new process is created on the target node (in practice inside a
//!   ghost container, §5) and its *reconfigurable* state — network
//!   namespace, cgroup — is inherited from the restore-side caller;
//! * **global state is redone**: fds are reopened from their checkpointed
//!   paths, the mount and PID namespaces are restored from the checkpoint;
//! * **private state is attached, not copied**: only the upper levels of
//!   the page-table and VMA trees are allocated locally; the checkpointed
//!   leaves are linked in by CXL page number (§4.2.1). No data page is
//!   copied — the process resumes instantly and loads hit CXL directly,
//!   while stores take migrate-on-write CoW faults.
//!
//! The three tiering policies (§4.3) shape what "attach" means:
//!
//! * **MoW** attaches every leaf and (optionally) prefetches the
//!   checkpoint-dirty pages into local memory, since >95 % of pages the
//!   parent wrote are written again by children (§4.2.1);
//! * **MoA** attaches nothing: the page table starts empty and every first
//!   touch pulls the page from CXL;
//! * **Hybrid** materializes per-policy local leaf copies in which A-set
//!   (or user-hinted hot) pages are *armed* to migrate on first access and
//!   the rest stay mapped read-only in CXL.

use std::sync::Arc;

use node_os::addr::{PhysAddr, Pid};
use node_os::mm::{BackingSource, CxlBacking, CxlTierPolicy};
use node_os::page_table::{AttachedLeaf, PtLeaf};
use node_os::process::FdTable;
use node_os::pte::{Pte, PteFlags};
use node_os::Node;
use rfork::{RestoreOptions, Restored, RforkError, TierPolicy};
use simclock::SimDuration;

use crate::checkpoint::{decode_global_state, dev_retry, CxlForkCheckpoint};

impl CxlForkCheckpoint {
    /// The vpn → device-page map migrate-on-access restores pull through:
    /// every checkpointed entry's CXL page, in ascending vpn order.
    /// Derived from the leaves by the first such restore and shared by
    /// every later one; a checkpoint never pull-restored never builds it.
    pub(crate) fn backing(&self) -> &Arc<CxlBacking> {
        self.backing.get_or_init(|| {
            let mut backing = CxlBacking::with_capacity(self.data_pages as usize);
            for (vpn, pte) in self.iter_pages() {
                let Some(PhysAddr::Cxl(page)) = pte.target() else {
                    panic!("checkpoint entry {vpn} is not mapped in CXL: {pte:?}");
                };
                backing.insert(vpn, BackingSource::Device(page));
            }
            Arc::new(backing)
        })
    }
}

/// Restores a process from `checkpoint` onto `node` with `options`,
/// charging the cost to the node's clock.
pub(crate) fn restore(
    checkpoint: &CxlForkCheckpoint,
    node: &mut Node,
    options: RestoreOptions,
    config: &crate::CxlForkConfig,
) -> Result<Restored, RforkError> {
    let model = node.model().clone();
    let device = Arc::clone(node.device());

    // Two-phase-commit gate: an *uncommitted* region is a torn
    // checkpoint whose writer died mid-copy — it must never be
    // restorable, no matter how plausible its contents look.
    match device.region_committed(checkpoint.region) {
        Some(true) => {}
        Some(false) => {
            return Err(RforkError::BadImage(format!(
                "checkpoint region {} is an unpublished staging region",
                checkpoint.region
            )))
        }
        None => {
            return Err(RforkError::BadImage(format!(
                "checkpoint region {} no longer exists",
                checkpoint.region
            )))
        }
    }

    let mut cost = SimDuration::from_nanos(model.process_create_ns);

    // ---- Global state: redo operations from the light serialization. ----
    let fds = decode_global_state(&checkpoint.global_bytes)?;
    cost += model.deserialize(checkpoint.global_bytes.len() as u64);
    cost += SimDuration::from_nanos(model.file_reopen_ns) * fds.len() as u64;

    let pid = node.spawn(&checkpoint.task.comm)?;
    {
        let process = node.process_mut(pid)?;
        process.task.regs = checkpoint.task.regs;
        process.task.ns.pid_ns = checkpoint.task.pid_ns;
        process.task.ns.mount_ns = checkpoint.task.mount_ns;
        // net_ns / cgroup / sched stay inherited from the caller (§4.2).
        let mut table = FdTable::new();
        for fd in &fds {
            table.open(fd.clone());
        }
        process.task.fds = table;
    }

    match attach_state(checkpoint, node, options, pid, cost, config) {
        Ok(restored) => Ok(restored),
        Err(e) => {
            // Roll back the half-restored process: a failed restore
            // (exhausted device retries, poisoned checkpoint page, frame
            // exhaustion) must not leak a zombie address space.
            let _ = node.kill(pid);
            Err(e)
        }
    }
}

/// Attaches VMA/page-table state and runs prefetch — everything after
/// the process shell exists. Split out so [`restore`] can roll the
/// process back on any failure.
fn attach_state(
    checkpoint: &CxlForkCheckpoint,
    node: &mut Node,
    options: RestoreOptions,
    pid: Pid,
    mut cost: SimDuration,
    config: &crate::CxlForkConfig,
) -> Result<Restored, RforkError> {
    let parallelism = config.parallelism;
    let node_id = node.id();
    let model = node.model().clone();
    let device = Arc::clone(node.device());
    let mut retries = 0u64;
    let mut retry_backoff = SimDuration::ZERO;
    // Cost accrued so far is the global-state redo (process create +
    // deserialize + fd reopen); everything added below is attach, then
    // prefetch. The splits feed the Fig. 7a phase breakdown.
    let global_redo_cost = cost;

    // ---- VMA tree: attach the checkpointed leaf blocks. ----
    cost += SimDuration::from_nanos(model.vma_leaf_attach_ns) * checkpoint.vma_blocks.len() as u64;
    node.with_process_ctx(pid, |p, _| {
        for (block, backing) in &checkpoint.vma_blocks {
            p.mm.vmas.attach_block(Arc::clone(block), *backing);
        }
    })?;

    // ---- Page table: policy-dependent attach. ----
    match options.policy {
        TierPolicy::MigrateOnWrite => {
            let mut dirs_created = 0u64;
            node.with_process_ctx(pid, |p, _| {
                for leaf in &checkpoint.leaves {
                    dirs_created += p.mm.page_table.attach_leaf(
                        leaf.leaf_index,
                        AttachedLeaf {
                            leaf: Arc::clone(&leaf.leaf),
                            backing: leaf.backing,
                        },
                    );
                }
                p.mm.set_policy(CxlTierPolicy::MigrateOnWrite);
            })?;
            cost +=
                SimDuration::from_nanos(model.pt_leaf_attach_ns) * checkpoint.leaves.len() as u64;
            cost += SimDuration::from_nanos(model.pt_upper_alloc_ns) * dirs_created;
        }
        TierPolicy::MigrateOnAccess => {
            // No leaves attached, no entries populated: every first access
            // takes a CXL pull fault (§4.3).
            node.with_process_ctx(pid, |p, _| {
                p.mm.set_policy(CxlTierPolicy::MigrateOnAccess);
                p.mm.set_backing(Arc::clone(checkpoint.backing()));
            })?;
        }
        TierPolicy::Hybrid => {
            // Materialize local leaves: A-set (or user-hinted) entries are
            // armed fetch-on-access — or, under the §4.3 alternative the
            // paper evaluated and rejected, copied to local memory right
            // now — and the rest stay mapped in CXL.
            let mut dirs_created = 0u64;
            let mut install: Vec<(u64, PtLeaf)> = Vec::with_capacity(checkpoint.leaves.len());
            // Hot entries to sync-prefetch: (leaf position in `install`,
            // slot, pte, device page). Deferred so the whole hot set moves
            // in one batched device read.
            let mut hot_fills: Vec<(usize, usize, Pte, cxl_mem::CxlPageId)> = Vec::new();
            for ckpt_leaf in &checkpoint.leaves {
                let mut local = PtLeaf::new();
                for (slot, pte) in ckpt_leaf.leaf.iter_populated() {
                    let hot = pte.is_accessed() || ckpt_leaf.leaf.hot_bits().get(slot);
                    let target = pte.target().expect("checkpoint entries are mapped");
                    if hot && options.sync_hot_prefetch {
                        // Copy the hot page to local memory during the
                        // restore itself (inflates restore latency).
                        let PhysAddr::Cxl(page) = target else {
                            unreachable!("checkpoint targets are CXL pages")
                        };
                        hot_fills.push((install.len(), slot, pte, page));
                        continue;
                    }
                    let new = if hot {
                        Pte::armed(
                            target,
                            pte.flags()
                                .without(PteFlags::PRESENT | PteFlags::CKPT_PIN)
                                .union(PteFlags::FETCH_ON_ACCESS),
                        )
                    } else {
                        pte.without_flags(PteFlags::CKPT_PIN)
                    };
                    local.set(slot, new);
                }
                install.push((ckpt_leaf.leaf_index, local));
            }
            // One pipelined batch read for the whole hot set, then one
            // frame-allocation sweep; a batch of one costs exactly the
            // old per-page prefetch.
            if !hot_fills.is_empty() {
                let hot_pages: Vec<cxl_mem::CxlPageId> =
                    hot_fills.iter().map(|(_, _, _, page)| *page).collect();
                let hot_data =
                    dev_retry("restore_prefetch", &mut retries, &mut retry_backoff, || {
                        device.read_pages(&hot_pages, node_id)
                    })?;
                let pfns = node
                    .with_process_ctx(pid, |p, ctx| {
                        hot_data
                            .into_iter()
                            .map(|data| {
                                let pfn = ctx.frames.alloc(data)?;
                                p.mm.note_private_page();
                                Ok(pfn)
                            })
                            .collect::<Result<Vec<_>, node_os::OsError>>()
                    })
                    .map_err(RforkError::from)?
                    .map_err(RforkError::from)?;
                for ((leaf_pos, slot, pte, _), pfn) in hot_fills.iter().zip(pfns) {
                    install[*leaf_pos].1.set(
                        *slot,
                        pte.without_flags(PteFlags::CKPT_PIN)
                            .retarget(PhysAddr::Local(pfn)),
                    );
                }
                // The hot set splits across shard banks and the batch
                // read costs the bottleneck stream's critical path — at
                // the default `parallelism = 1` that is the single-stream
                // batched read. An attached fabric adds the queueing
                // delay this read finds on its ports (exactly zero
                // detached or idle).
                let partition = device.shard_partition(hot_pages.iter().copied());
                let fabric_wait = device.fabric_charge(node.now(), &partition);
                cost += model
                    .pipeline(parallelism)
                    .with_queue_delay(fabric_wait)
                    .batch_read(&partition);
            }
            node.with_process_ctx(pid, |p, _| {
                for (leaf_index, local) in install {
                    dirs_created += p.mm.page_table.install_local_leaf(leaf_index, local);
                }
                p.mm.set_policy(CxlTierPolicy::Hybrid);
            })?;
            // Each materialized leaf costs one CXL leaf read.
            cost += model.cxl_copy(checkpoint.leaves.len() as u64 * cxl_mem::PAGE_SIZE);
            cost += SimDuration::from_nanos(model.pt_upper_alloc_ns) * dirs_created;
        }
    }

    let attach_cost = cost - global_redo_cost;

    // ---- Optional dirty-page prefetch (§4.2.1). ----
    let mut prefetched = 0u64;
    if options.prefetch_dirty && options.policy != TierPolicy::MigrateOnAccess {
        // The checkpoint listed its D-bit pages once, in the rebase walk.
        let dirty = &checkpoint.dirty;
        if !dirty.is_empty() {
            // One batched device read for the whole dirty set, then one
            // fill sweep installing the mappings. A single dirty page
            // costs exactly the old per-page path.
            let dirty_pages: Vec<cxl_mem::CxlPageId> = dirty.iter().map(|(_, p)| *p).collect();
            let data = dev_retry("restore_prefetch", &mut retries, &mut retry_backoff, || {
                device.read_pages(&dirty_pages, node_id)
            })?;
            let filled = node.with_process_ctx(pid, |p, ctx| {
                p.mm.fill_pages(
                    dirty.iter().map(|(vpn, _)| *vpn).zip(data),
                    PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::DIRTY,
                    ctx,
                )
            })?;
            // Memory-constrained nodes can run out of frames mid-prefetch;
            // `restore` rolls the half-restored process back.
            let filled = filled.map_err(RforkError::from)?;
            prefetched = filled.installed;
            // Prefetch costs the per-shard critical path of the dirty
            // set, clamped by the serial charge for the pages actually
            // installed (fill can skip already-present pages). Fabric
            // queueing delay rides on both sides of the clamp —
            // contention slows pipelined and serial prefetch alike.
            let partition = device.shard_partition(dirty_pages.iter().copied());
            let fabric_wait = device.fabric_charge(node.now(), &partition);
            cost += model
                .pipeline(parallelism)
                .with_queue_delay(fabric_wait)
                .batch_read(&partition)
                .min(model.prefetch_pages(filled.installed) + fabric_wait);
            // Installing a mapping may leaf-CoW an attached leaf: one
            // local copy of the 4 KiB leaf each.
            cost += model.cxl_copy(cxl_mem::PAGE_SIZE) * filled.leaf_cows;
        }
    }

    let prefetch_cost = cost - global_redo_cost - attach_cost;
    cost += retry_backoff;
    let t0 = node.now();
    node.clock_mut().advance(cost);
    node.add_transient_retries(retries);
    if cxl_telemetry::is_armed() {
        // Phase children partition [t0, t0+cost] contiguously, so their
        // durations sum exactly to the parent restore span.
        let track = node_id.0;
        cxl_telemetry::span_open(
            "core.restore",
            track,
            t0,
            &[("pages", checkpoint.data_pages), ("prefetched", prefetched)],
        );
        let mut cursor = t0;
        for (phase, d) in [
            ("restore.global_redo", global_redo_cost),
            ("restore.attach", attach_cost),
            ("restore.prefetch", prefetch_cost),
            ("restore.retry_backoff", retry_backoff),
        ] {
            let end = cursor + d;
            cxl_telemetry::record_span(&format!("core.{phase}"), track, cursor, end, &[]);
            cxl_telemetry::counter_add("core", &format!("phase.{phase}"), None, d.as_nanos());
            cursor = end;
        }
        cxl_telemetry::span_close(track, cursor);
    }
    Ok(Restored {
        pid,
        restore_latency: cost,
    })
}
