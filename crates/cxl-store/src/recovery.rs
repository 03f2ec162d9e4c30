//! Rebuilding the store from the device alone: locate the authoritative
//! journal generation, replay it through [`Books::apply`], reconcile the
//! device against the books that come out.

use std::collections::BTreeSet;

use cxl_mem::{CxlDevice, CxlPageId, NodeId, RegionId, RegionKind};

use crate::journal::{self, JournalEntry, Record};
use crate::{must, retry, Books, ImageMeta, Inner, StoreStats, DATA_REGION_NAME};

/// Everything [`crate::Store::recover`] did, for failover accounting and
/// the crashpoint sweep's determinism checks. Bit-identical for identical
/// device states.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal generation replayed.
    pub journal_generation: u64,
    /// Sealed records replayed.
    pub entries_replayed: u64,
    /// Bytes of torn journal tail truncated (a record whose commit
    /// marker never landed).
    pub torn_tail_bytes: u64,
    /// Committed images in the recovered catalog.
    pub committed_images: u64,
    /// Pending (mid-checkpoint) images rolled back — their coordinator
    /// died, so they can never complete.
    pub rolled_back_pending: u64,
    /// Live data-region pages no journal record referenced (interned but
    /// never journaled, or half-freed) — freed by reconciliation.
    pub freed_leaked_pages: u64,
    /// Checkpoint metadata regions destroyed: half-finished
    /// release/evictions plus committed regions orphaned by a crash
    /// between the device commit and the journal commit record.
    pub destroyed_meta_regions: u64,
    /// Stale or invalid journal generations destroyed (half-finished
    /// compactions).
    pub stale_generations_destroyed: u64,
    /// Index entries whose device page's content fingerprint no longer
    /// matches the journal's record — always 0 unless the device is
    /// corrupt.
    pub fingerprint_mismatches: u64,
    /// Journal pages read during scan + replay; charge
    /// `cxl_batch_read(pages_scanned)` to the virtual clock.
    pub pages_scanned: u64,
    /// Pages written compacting the recovered journal; charge
    /// `cxl_batch_write(compaction_pages_written)`.
    pub compaction_pages_written: u64,
}

/// Everything of [`crate::Store::recover`] short of the closing
/// compaction: the recovered state, and the report so far.
pub(crate) fn recover(device: &CxlDevice, node: NodeId) -> (Inner, RecoveryReport) {
    let mut report = RecoveryReport::default();

    // Locate the authoritative journal: the highest generation with
    // a valid superblock. Generations without one are half-finished
    // compactions (staged but never published) — stale.
    let found = journal::find_generations(device);
    assert!(
        !found.is_empty(),
        "Store::recover: no journal on the device — was the store created durable?"
    );
    let mut chosen: Option<(journal::FoundGeneration, journal::LoadedGeneration)> = None;
    let mut stale: Vec<RegionId> = Vec::new();
    for f in found.iter().rev() {
        if chosen.is_none() {
            // Recovery cannot proceed without the log.
            let loaded = retry(|| journal::load_generation(device, f, node));
            if let Some(loaded) = must("journal scan failed past retries", loaded) {
                chosen = Some((f.clone(), loaded));
                continue;
            }
        }
        stale.push(f.region);
    }
    #[allow(
        clippy::expect_used,
        reason = "compaction publishes the new superblock before destroying the old generation, so a journaled device always has at least one valid root"
    )]
    let (gen, loaded) = chosen.expect("no valid journal superblock — journal root lost");
    report.journal_generation = gen.generation;
    report.pages_scanned = loaded.pages_scanned;
    report.entries_replayed = loaded.log.entries.len() as u64;
    report.torn_tail_bytes = loaded.log.torn_bytes;

    // Replay the record stream into fresh books. The pages a record
    // frees are not freed here — the device is reconciled once, below,
    // against the final index — but the regions it dooms are kept.
    let mut books = Books::default();
    let mut doomed_meta: Vec<RegionId> = Vec::new();
    for entry in &loaded.log.entries {
        doomed_meta.extend(books.apply(entry).doomed_meta);
    }

    // The coordinator died: every image still pending was
    // mid-checkpoint and can never complete. Abort all of them, as
    // `reclaim_orphan_pending` does for one dead node's.
    let orphans = books.pending_where(|_| true);
    report.rolled_back_pending = orphans.len() as u64;
    for image in orphans {
        books.apply(&JournalEntry {
            seq: 0,
            owner: node.0,
            epoch: 0,
            record: Record::Abort { image },
        });
    }
    books.index.drop_unreferenced();
    report.committed_images = books.images.len() as u64;

    // The store's data region is found by its fixed name — there is
    // no catalog to consult before recovery.
    #[allow(
        clippy::expect_used,
        reason = "with_config creates the data region before journal generation 0, so any journaled device has one"
    )]
    let data_region = device
        .regions()
        .into_iter()
        .find(|(_, u)| u.kind == RegionKind::Data && u.name == DATA_REGION_NAME)
        .map(|(r, _)| r)
        .expect("durable store data region missing from the device");

    // Reconcile the device against the rebuilt index: any live
    // data-region page the index does not reference was leaked by a
    // crash between the device write and the journal record (or
    // between the journal record and the free) — free it.
    let index = &books.index;
    let referenced: BTreeSet<CxlPageId> = index.iter().map(|e| e.page).collect();
    let leaked: Vec<CxlPageId> = device
        .live_pages()
        .into_iter()
        .filter(|(p, r)| *r == data_region && !referenced.contains(p))
        .map(|(p, _)| p)
        .collect();
    if !leaked.is_empty() {
        report.freed_leaked_pages = retry(|| device.free_batch(&leaked)).unwrap_or(0);
    }

    // Cross-check rebuilt refcounts against on-device content: every
    // indexed fingerprint must match its page's actual bytes.
    if index.len() > 0 {
        let pages: Vec<CxlPageId> = index.iter().map(|e| e.page).collect();
        // Read-only and retried; recovery must not silently skip the
        // integrity check.
        let actual = retry(|| device.fingerprint_pages(&pages));
        let actual = must("fingerprint cross-check failed past retries", actual);
        report.fingerprint_mismatches = index
            .iter()
            .zip(&actual)
            .filter(|(entry, got)| entry.fingerprint != **got)
            .count() as u64;
    }

    // Finish half-done destructive mutations: metadata regions whose
    // release/evict was journaled but whose destruction may not have
    // happened. Destroy is idempotent here (BadRegion ignored).
    for region in doomed_meta {
        if device.destroy_region(region).is_ok() {
            report.destroyed_meta_regions += 1;
        }
    }

    // Sweep orphaned checkpoint metadata: a committed region nobody
    // in the recovered catalog references means the crash landed
    // between the device-side region commit and the journal's Commit
    // record. Staging regions are left to lease reclamation (the
    // store cannot judge other nodes' liveness).
    let staging: BTreeSet<RegionId> = device.staging_regions().iter().map(|s| s.region).collect();
    let kept: BTreeSet<RegionId> = (books.images.values())
        .filter_map(ImageMeta::meta_region)
        .collect();
    for (region, usage) in device.regions() {
        if usage.kind == RegionKind::Data
            && region != data_region
            && !staging.contains(&region)
            && !kept.contains(&region)
            && device.destroy_region(region).is_ok()
        {
            report.destroyed_meta_regions += 1;
        }
    }

    // Drop stale/invalid journal generations and resume the live one.
    for region in stale {
        if device.destroy_region(region).is_ok() {
            report.stale_generations_destroyed += 1;
        }
    }
    let inner = Inner {
        region: data_region,
        books,
        stats: StoreStats::default(),
        journal: Some(journal::resume(&gen, loaded)),
    };
    (inner, report)
}
