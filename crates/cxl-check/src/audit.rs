//! The cross-layer invariant auditor.
//!
//! [`audit_node`] walks every process on a [`Node`] and balances the four
//! reference ledgers against each other:
//!
//! * every PTE target must resolve — local targets to a live frame,
//!   CXL targets (present, armed or in a backing map) to a live device
//!   page;
//! * every live frame's refcount must equal the references the walk can
//!   account for: mapping PTEs, page-cache entries, and external pins the
//!   caller declares (template registries, measurement harnesses);
//! * copy-on-write isolation must hold — no writable mapping of a shared
//!   frame, no PTE that is simultaneously `COW` and `WRITABLE`;
//! * no translation may outlive its VMA.
//!
//! [`audit_device`] checks the device's own books (slab ↔ `used_pages`
//! counter ↔ per-region accounting), and [`audit_device_with_live`]
//! additionally reports regions no declared owner references — leaked
//! checkpoints. [`audit_cluster`] runs every auditor over a deployment.
//!
//! All checks are read-only walks over accessor APIs; the auditor holds
//! no state between runs and never mutates the structures it audits.

use std::collections::{BTreeMap, BTreeSet};

use cxl_mem::{CxlDevice, RegionId};
use node_os::addr::PhysAddr;
use node_os::mm::{BackingSource, CxlTierPolicy};
use node_os::pte::PteFlags;
use node_os::{Node, Pfn};

use crate::Violation;

/// A configurable audit of one node's memory ledgers.
///
/// The plain [`audit_node`] entry point covers nodes whose frames are
/// referenced only by PTEs and the page cache. Subsystems that hold frame
/// references *outside* any process — e.g. a template registry pinning a
/// warmed page set — declare those pins with
/// [`with_external_refs`](NodeAudit::with_external_refs) so the refcount
/// balance still closes.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use cxl_mem::CxlDevice;
/// use node_os::{mm::Access, vma::Protection, Node, NodeConfig};
///
/// # fn main() -> Result<(), node_os::OsError> {
/// let device = Arc::new(CxlDevice::with_capacity_mib(16));
/// let mut node = Node::new(NodeConfig::default(), device);
/// let pid = node.spawn("worker")?;
/// node.process_mut(pid)?.mm.map_anonymous(0, 4, Protection::read_write(), "heap")?;
/// node.access(pid, 0, Access::Write)?;
/// assert!(cxl_check::audit_node(&node).is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NodeAudit<'a> {
    node: &'a Node,
    external: BTreeMap<u64, u32>,
}

impl<'a> NodeAudit<'a> {
    /// Starts an audit of `node` with no external frame references.
    pub fn new(node: &'a Node) -> Self {
        NodeAudit {
            node,
            external: BTreeMap::new(),
        }
    }

    /// Declares frame references held outside any process or the page
    /// cache (one reference per occurrence in `pins`).
    #[must_use]
    pub fn with_external_refs(mut self, pins: impl IntoIterator<Item = Pfn>) -> Self {
        for pfn in pins {
            *self.external.entry(pfn.0).or_insert(0) += 1;
        }
        self
    }

    /// Runs the audit, returning every violation found (empty = clean).
    pub fn run(&self) -> Vec<Violation> {
        let node = self.node;
        let node_id = node.id();
        let device = node.device();
        let frames = node.frames();
        let mut out = Vec::new();
        // Accountable references per frame: external pins, then PTEs and
        // page-cache entries as the walk finds them.
        let mut expected: BTreeMap<u64, u32> = self.external.clone();

        for pid in node.pids() {
            let process = node.process(pid).expect("listed pid exists");
            let mm = &process.mm;
            for (vpn, pte) in mm.page_table.iter_populated() {
                let flags = pte.flags();
                if flags.contains(PteFlags::COW) && flags.contains(PteFlags::WRITABLE) {
                    out.push(Violation::CowWritablePte {
                        node: node_id,
                        pid,
                        vpn: vpn.0,
                    });
                }
                let vma = mm.vmas.find(vpn);
                if vma.is_none() {
                    out.push(Violation::PteOutsideVma {
                        node: node_id,
                        pid,
                        vpn: vpn.0,
                    });
                }
                match pte.target() {
                    None => {}
                    Some(PhysAddr::Local(pfn)) => {
                        let refcount = frames.refcount(pfn);
                        if refcount == 0 {
                            out.push(Violation::DanglingLocalPte {
                                node: node_id,
                                pid,
                                vpn: vpn.0,
                                pfn,
                            });
                            continue;
                        }
                        *expected.entry(pfn.0).or_insert(0) += 1;
                        let shared_anon = vma.is_some_and(|v| v.kind.is_shared_anonymous());
                        if pte.is_present() && pte.is_writable() && refcount > 1 && !shared_anon {
                            out.push(Violation::WritableSharedFrame {
                                node: node_id,
                                pid,
                                vpn: vpn.0,
                                pfn,
                                refcount,
                            });
                        }
                    }
                    Some(PhysAddr::Cxl(page)) if device.page_region(page).is_none() => {
                        out.push(Violation::DanglingCxlPte {
                            node: node_id,
                            pid,
                            vpn: vpn.0,
                            page,
                        });
                    }
                    Some(PhysAddr::Cxl(_)) => {}
                }
            }

            // A migrate-on-access backing map is consulted on every fault
            // at a vpn with no installed translation, so its device
            // sources must stay live as long as such a fault can happen.
            // (Already-pulled pages leave a stale-but-never-consulted
            // entry behind; those are exempt.)
            if mm.policy() == CxlTierPolicy::MigrateOnAccess {
                if let Some(backing) = mm.backing() {
                    for (vpn, source) in backing.iter() {
                        if !mm.page_table.get(vpn).is_present() {
                            if let BackingSource::Device(page) = *source {
                                if device.page_region(page).is_none() {
                                    out.push(Violation::DanglingBackingPage {
                                        node: node_id,
                                        pid,
                                        vpn: vpn.0,
                                        page,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        for (path, file_page, pfn) in node.page_cache().entries() {
            if frames.refcount(pfn) == 0 {
                out.push(Violation::DanglingCacheEntry {
                    node: node_id,
                    path: path.to_owned(),
                    file_page,
                    pfn,
                });
            } else {
                *expected.entry(pfn.0).or_insert(0) += 1;
            }
        }

        for (pfn, refcount) in frames.live_pfns() {
            let counted = expected.get(&pfn.0).copied().unwrap_or(0);
            if counted == 0 {
                out.push(Violation::FrameLeak {
                    node: node_id,
                    pfn,
                    refcount,
                });
            } else if counted != refcount {
                out.push(Violation::RefcountSkew {
                    node: node_id,
                    pfn,
                    actual: refcount,
                    expected: counted,
                });
            }
        }

        out
    }
}

/// Audits one node with no external frame references. See [`NodeAudit`]
/// for the full builder.
pub fn audit_node(node: &Node) -> Vec<Violation> {
    NodeAudit::new(node).run()
}

/// Audits the device's internal accounting: the `used_pages` counter
/// against the page slab, every region's page count against the slab
/// pages that name it as owner, and every page-pool shard's counter
/// against the live pages bucketed into its offset range (the per-shard
/// counters must also sum to the device-wide counter).
pub fn audit_device(device: &CxlDevice) -> Vec<Violation> {
    let mut out = Vec::new();
    let live = device.live_pages();
    let regions: BTreeMap<RegionId, _> = device.regions().into_iter().collect();

    let counted = device.used_pages();
    if counted != live.len() as u64 {
        out.push(Violation::DeviceAccounting {
            counted,
            live: live.len() as u64,
        });
    }

    // Bucket every live page into the shard whose offset range contains
    // it; each shard's own counter must agree with its bucket, and the
    // counters must sum back to the device-wide ledger.
    let shards = device.shard_usage();
    let mut per_shard: Vec<u64> = vec![0; shards.len()];
    for (page, _) in &live {
        if let Some(i) = shards
            .iter()
            .position(|s| page.0 >= s.base_page && page.0 < s.base_page + s.capacity_pages)
        {
            per_shard[i] += 1;
        }
    }
    for (shard, bucketed) in shards.iter().zip(&per_shard) {
        if shard.used_pages != *bucketed {
            out.push(Violation::ShardAccounting {
                shard: shard.index,
                base_page: shard.base_page,
                counted: shard.used_pages,
                live: *bucketed,
            });
        }
    }
    let shard_sum: u64 = shards.iter().map(|s| s.used_pages).sum();
    if shard_sum != counted {
        out.push(Violation::ShardSumSkew { counted, shard_sum });
    }

    let mut per_region: BTreeMap<RegionId, u64> = BTreeMap::new();
    for (page, region) in live {
        if regions.contains_key(&region) {
            *per_region.entry(region).or_insert(0) += 1;
        } else {
            out.push(Violation::OrphanCxlPage { page, region });
        }
    }
    for (region, usage) in &regions {
        let live_owned = per_region.get(region).copied().unwrap_or(0);
        if usage.pages != live_owned {
            out.push(Violation::RegionAccounting {
                region: *region,
                counted: usage.pages,
                live: live_owned,
            });
        }
    }
    out
}

/// Audits the device and additionally reports every region absent from
/// `known_live` — device memory no declared owner (checkpoint store,
/// live checkpoint handle) can ever reclaim.
pub fn audit_device_with_live(
    device: &CxlDevice,
    known_live: impl IntoIterator<Item = RegionId>,
) -> Vec<Violation> {
    let mut out = audit_device(device);
    let known: BTreeSet<RegionId> = known_live.into_iter().collect();
    for (region, usage) in device.regions() {
        if !known.contains(&region) {
            out.push(Violation::RegionLeak {
                region,
                name: usage.name,
                pages: usage.pages,
            });
        }
    }
    out
}

/// Audits the checkpoint store's content index against the image catalog
/// and the device:
///
/// * every index entry's refcount must equal the references the
///   committed + pending images account for (with multiplicity), and
///   every image-held fingerprint must have an index entry — otherwise
///   [`Violation::ContentIndexSkew`];
/// * every index entry's device page must be live and its current
///   content must still hash to the fingerprint that names it —
///   otherwise [`Violation::DanglingIndexEntry`].
///
/// Like the other auditors this is a read-only walk: content is verified
/// through [`CxlDevice::fingerprint_pages`], which moves no counters and
/// triggers no fault hooks.
pub fn audit_store(store: &cxl_store::Store) -> Vec<Violation> {
    let mut out = Vec::new();
    let device = store.device();
    let index = store.index_snapshot();
    let mut expected = store.live_reference_counts();

    // Batch-fingerprint the whole index; one dead page fails the batch,
    // so fall back to per-page probes to attribute the failure.
    let pages: Vec<cxl_mem::CxlPageId> = index.iter().map(|e| e.page).collect();
    let observed: Vec<Option<u64>> = match device.fingerprint_pages(&pages) {
        Ok(fps) => fps.into_iter().map(Some).collect(),
        Err(_) => pages.iter().map(|&p| device.fingerprint(p).ok()).collect(),
    };

    for (entry, observed) in index.iter().zip(observed) {
        if observed != Some(entry.fingerprint) {
            out.push(Violation::DanglingIndexEntry {
                fingerprint: entry.fingerprint,
                page: entry.page,
                observed,
            });
        }
        let counted = expected.remove(&entry.fingerprint).unwrap_or(0);
        if entry.refs != counted {
            out.push(Violation::ContentIndexSkew {
                fingerprint: entry.fingerprint,
                page: entry.page,
                actual: entry.refs,
                expected: counted,
            });
        }
    }
    // Fingerprints some image still references but the index forgot.
    for (fingerprint, counted) in expected {
        out.push(Violation::ContentIndexSkew {
            fingerprint,
            page: cxl_mem::CxlPageId(u64::MAX),
            actual: 0,
            expected: counted,
        });
    }
    out
}

/// Audits a durable store's journal against its in-DRAM books.
///
/// Loads the highest journal generation with a valid superblock through
/// the unmodelled snapshot path (no clock charge, no fault hooks) and
/// checks two invariants a quiescent store must satisfy:
///
/// * the committed stream has **no torn tail** — a torn tail means a
///   crashed append that recovery never truncated
///   ([`Violation::JournalTornTail`]);
/// * replaying the stream yields exactly the reference counts the live
///   content index records, fingerprint by fingerprint
///   ([`Violation::RecoveryRefcountSkew`]).
///
/// A volatile store (no journal on the device) audits clean — there is
/// nothing to cross-check.
pub fn audit_journal(store: &cxl_store::Store) -> Vec<Violation> {
    use cxl_store::journal;

    let mut out = Vec::new();
    let device = store.device();
    let found = journal::find_generations(device);
    if found.is_empty() {
        return out;
    }
    let mut chosen = None;
    for f in found.iter().rev() {
        if let Some(loaded) = journal::snapshot_generation(device, f) {
            chosen = Some((f, loaded));
            break;
        }
    }
    let Some((gen, loaded)) = chosen else {
        // Generations exist but none has a valid superblock: the
        // journal root is lost. Flag the newest region.
        let newest = found.last().expect("found is non-empty");
        out.push(Violation::JournalTornTail {
            region: newest.region,
            committed_bytes: 0,
            torn_bytes: 0,
        });
        return out;
    };
    if loaded.log.torn_bytes > 0 {
        out.push(Violation::JournalTornTail {
            region: gen.region,
            committed_bytes: loaded.log.committed_bytes,
            torn_bytes: loaded.log.torn_bytes,
        });
    }

    let journal_refs = journal::replay_reference_counts(&loaded.log.entries);
    let mut index_refs: BTreeMap<u64, u64> = store
        .index_snapshot()
        .into_iter()
        .map(|e| (e.fingerprint, e.refs))
        .collect();
    for (fingerprint, jrefs) in journal_refs {
        let irefs = index_refs.remove(&fingerprint).unwrap_or(0);
        if jrefs != irefs {
            out.push(Violation::RecoveryRefcountSkew {
                fingerprint,
                journal_refs: jrefs,
                index_refs: irefs,
            });
        }
    }
    // Fingerprints the index holds but the journal never explains.
    for (fingerprint, irefs) in index_refs {
        out.push(Violation::RecoveryRefcountSkew {
            fingerprint,
            journal_refs: 0,
            index_refs: irefs,
        });
    }
    out
}

/// Audits a whole deployment after a trace: every node's memory ledgers
/// (each node paired with the frames its containers pin outside any
/// process, declared as external references), the shared device's
/// books, the image store's content index if there is one, and the
/// staging regions of owners not in `live`.
///
/// It takes the cluster's parts rather than a `cxlporter::CxlPorter`:
/// `cxlporter`'s unit tests link this crate as a dev-dependency, and a
/// porter type from that second copy of `cxlporter` would not be theirs.
pub fn audit_cluster<'a, P: IntoIterator<Item = Pfn>>(
    nodes: impl IntoIterator<Item = (&'a Node, P)>,
    device: &CxlDevice,
    store: Option<&cxl_store::Store>,
    live: impl IntoIterator<Item = cxl_mem::NodeId>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (node, pins) in nodes {
        out.extend(NodeAudit::new(node).with_external_refs(pins).run());
    }
    out.extend(audit_device(device));
    if let Some(store) = store {
        out.extend(audit_store(store));
    }
    out.extend(audit_staging(device, live));
    out
}

/// Audits checkpoint staging regions against the set of live owners:
/// every *uncommitted* region whose owner is not in `live_owners` is a
/// torn checkpoint that lease reclamation should have destroyed, and is
/// reported as an [`Violation::OrphanStagingRegion`].
///
/// Committed regions are never flagged — a published checkpoint
/// legitimately outlives its writer (that is the whole point of
/// two-phase commit). Run this after crash recovery to prove the orphan
/// GC actually ran.
pub fn audit_staging(
    device: &CxlDevice,
    live_owners: impl IntoIterator<Item = cxl_mem::NodeId>,
) -> Vec<Violation> {
    let live: BTreeSet<cxl_mem::NodeId> = live_owners.into_iter().collect();
    device
        .staging_regions()
        .into_iter()
        .filter(|s| !live.contains(&s.owner))
        .map(|s| Violation::OrphanStagingRegion {
            region: s.region,
            owner: s.owner,
            epoch: s.epoch,
            pages: s.pages,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cxl_mem::{CxlDevice, PageData};
    use node_os::mm::Access;
    use node_os::vma::Protection;
    use node_os::{NodeConfig, NodeId};

    use super::*;

    fn test_node() -> Node {
        let device = Arc::new(CxlDevice::with_capacity_mib(16));
        Node::new(NodeConfig::default().with_id(0), device)
    }

    #[test]
    fn fresh_process_audits_clean() {
        let mut node = test_node();
        let pid = node.spawn("w").unwrap();
        node.process_mut(pid)
            .unwrap()
            .mm
            .map_anonymous(0, 8, Protection::read_write(), "heap")
            .unwrap();
        for vpn in 0..4 {
            node.access(pid, vpn, Access::Write).unwrap();
        }
        assert_eq!(audit_node(&node), Vec::new());
    }

    #[test]
    fn local_fork_cow_audits_clean() {
        let mut node = test_node();
        let pid = node.spawn("parent").unwrap();
        node.process_mut(pid)
            .unwrap()
            .mm
            .map_anonymous(0, 8, Protection::read_write(), "heap")
            .unwrap();
        for vpn in 0..8 {
            node.access(pid, vpn, Access::Write).unwrap();
        }
        let (child, _) = node.local_fork(pid).unwrap();
        assert_eq!(audit_node(&node), Vec::new());
        // Child writes break the sharing; still clean.
        node.access(child, 3, Access::Write).unwrap();
        assert_eq!(audit_node(&node), Vec::new());
    }

    #[test]
    fn file_mappings_balance_through_page_cache() {
        let mut node = test_node();
        node.rootfs().create("/lib/a.so", 8 * 4096, 0xA5);
        let p1 = node.spawn("a").unwrap();
        let p2 = node.spawn("b").unwrap();
        for pid in [p1, p2] {
            node.process_mut(pid)
                .unwrap()
                .mm
                .map_file(0, 4, Protection::read_only(), "/lib/a.so", 0)
                .unwrap();
            for vpn in 0..4 {
                node.access(pid, vpn, Access::Read).unwrap();
            }
        }
        assert_eq!(audit_node(&node), Vec::new());
        // Reclaiming the cache keeps the books balanced too.
        node.drop_page_cache();
        assert_eq!(audit_node(&node), Vec::new());
    }

    #[test]
    fn skipped_dec_ref_reports_refcount_skew() {
        let mut node = test_node();
        let pid = node.spawn("w").unwrap();
        node.process_mut(pid)
            .unwrap()
            .mm
            .map_anonymous(0, 4, Protection::read_write(), "heap")
            .unwrap();
        node.access(pid, 0, Access::Write).unwrap();
        let pte = node
            .process(pid)
            .unwrap()
            .mm
            .page_table
            .get(node_os::VirtPageNum(0));
        let Some(PhysAddr::Local(pfn)) = pte.target() else {
            panic!("expected local mapping");
        };
        // A fork path that bumps the refcount and then forgets the
        // matching dec_ref leaves the allocator one reference high.
        node.frames_mut().inc_ref(pfn);
        let violations = audit_node(&node);
        // The phantom reference both skews the count and makes the
        // (still writable) mapping a CoW-isolation hazard.
        assert!(violations.contains(&Violation::RefcountSkew {
            node: NodeId(0),
            pfn,
            actual: 2,
            expected: 1,
        }));
        assert!(violations.contains(&Violation::WritableSharedFrame {
            node: NodeId(0),
            pid,
            vpn: 0,
            pfn,
            refcount: 2,
        }));
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn unreferenced_frame_reports_leak() {
        let mut node = test_node();
        let pfn = node.frames_mut().alloc(PageData::pattern(1)).unwrap();
        let violations = audit_node(&node);
        assert_eq!(
            violations,
            vec![Violation::FrameLeak {
                node: NodeId(0),
                pfn,
                refcount: 1,
            }]
        );
        // Declaring the pin as external closes the balance again.
        assert_eq!(
            NodeAudit::new(&node).with_external_refs([pfn]).run(),
            Vec::new()
        );
    }

    #[test]
    fn skipped_lease_reclamation_is_flagged_and_gc_clears_it() {
        // Negative test proving the orphan GC is load-bearing: a node
        // dies mid-checkpoint, leaving an uncommitted staging region. If
        // lease reclamation is deliberately skipped, the auditor must
        // flag the orphan; after the GC runs, the books close again.
        let device = Arc::new(CxlDevice::with_capacity_mib(16));
        let dead = cxl_mem::NodeId(2);

        // The crashed writer got three pages into its copy.
        let staged = device.create_region_staged("ckpt:torn#4", dead, 4);
        for _ in 0..3 {
            let page = device.alloc_page(staged).unwrap();
            device.write_page(page, PageData::pattern(9), dead).unwrap();
        }
        // An earlier *committed* checkpoint of the same (now dead) owner
        // must never be flagged — published checkpoints legitimately
        // outlive their writer.
        let published = device.create_region_staged("ckpt:good#3", dead, 3);
        let page = device.alloc_page(published).unwrap();
        device.write_page(page, PageData::pattern(1), dead).unwrap();
        device.commit_region(published).unwrap();

        // GC skipped: exactly the torn region is reported as orphaned.
        let live = [cxl_mem::NodeId(0), cxl_mem::NodeId(1)];
        assert_eq!(
            audit_staging(&device, live),
            vec![Violation::OrphanStagingRegion {
                region: staged,
                owner: dead,
                epoch: 4,
                pages: 3,
            }]
        );
        // While its owner is still considered live, nothing is wrong.
        assert_eq!(audit_staging(&device, [dead]), Vec::new());

        // Run the GC the recovery path would have run; the audit closes.
        let report = cxl_fault::reclaim_dead(&device, &[dead]);
        assert_eq!(report.regions, 1);
        assert_eq!(report.pages, 3);
        assert_eq!(audit_staging(&device, live), Vec::new());
        assert_eq!(audit_device(&device), Vec::new());
        // The committed checkpoint survived reclamation.
        assert_eq!(device.region_committed(published), Some(true));
    }

    #[test]
    fn sharded_device_books_balance_through_batch_churn() {
        // The shard audit reconciles per-shard counters against live
        // pages bucketed by offset range, across allocation, partial
        // frees and region destruction.
        let device = CxlDevice::with_shards(64, 8);
        let a = device.create_region("ckpt:a");
        let b = device.create_region("ckpt:b");
        let pa = device.alloc_batch(a, 23).unwrap();
        let _pb = device.alloc_batch(b, 17).unwrap();
        assert!(
            device
                .shard_usage()
                .iter()
                .filter(|s| s.used_pages > 0)
                .count()
                > 1
        );
        assert_eq!(audit_device(&device), Vec::new());
        device.free_batch(&pa[3..11]).unwrap();
        assert_eq!(audit_device(&device), Vec::new());
        device.destroy_region(b).unwrap();
        assert_eq!(audit_device(&device), Vec::new());
    }

    #[test]
    fn store_index_balances_and_forced_refcount_skew_is_reported() {
        let device = Arc::new(CxlDevice::with_capacity_mib(16));
        let store = cxl_store::Store::new(Arc::clone(&device));
        let owner = cxl_mem::NodeId(0);
        let img = store.begin_image("fn:a#1", owner, 1, simclock::SimTime::ZERO);
        let datas = vec![PageData::pattern(7), PageData::pattern(7), PageData::Zero];
        let outcome = store.intern_pages(img, &datas, owner).unwrap();
        let meta = device.create_region("ckpt:a");
        store.commit_image(img, meta).unwrap();
        assert_eq!(audit_store(&store), Vec::new());

        // A lost dec_ref (or phantom inc) desynchronizes the index from
        // the catalog: exactly one ContentIndexSkew, naming the entry.
        let fp = PageData::pattern(7).fingerprint();
        store.debug_force_refs(fp, 9);
        assert_eq!(
            audit_store(&store),
            vec![Violation::ContentIndexSkew {
                fingerprint: fp,
                page: outcome.pages[0],
                actual: 9,
                expected: 2,
            }]
        );
        // Restoring the true count closes the books again.
        store.debug_force_refs(fp, 2);
        assert_eq!(audit_store(&store), Vec::new());
    }

    #[test]
    fn dead_or_mutated_index_pages_are_reported_as_dangling() {
        let device = Arc::new(CxlDevice::with_capacity_mib(16));
        let store = cxl_store::Store::new(Arc::clone(&device));
        let owner = cxl_mem::NodeId(0);
        let img = store.begin_image("fn:a#1", owner, 1, simclock::SimTime::ZERO);
        let outcome = store
            .intern_pages(img, &[PageData::pattern(7)], owner)
            .unwrap();
        let meta = device.create_region("ckpt:a");
        store.commit_image(img, meta).unwrap();

        // An index entry pointing at a freed device page: dangling (the
        // page is dead) and skewed (no image accounts for it).
        let scratch = device.create_region("scratch");
        let dead = device.alloc_page(scratch).unwrap();
        device.free_page(dead).unwrap();
        store.debug_plant_index_entry(0xDEAD, dead, 1);
        let violations = audit_store(&store);
        assert!(violations.contains(&Violation::DanglingIndexEntry {
            fingerprint: 0xDEAD,
            page: dead,
            observed: None,
        }));
        assert!(violations.contains(&Violation::ContentIndexSkew {
            fingerprint: 0xDEAD,
            page: dead,
            actual: 1,
            expected: 0,
        }));
        assert_eq!(violations.len(), 2);

        // Mutating an interned page behind the store's back breaks the
        // content addressing contract: the entry's fingerprint no longer
        // matches what the page holds.
        store.debug_plant_index_entry(0xDEAD, outcome.pages[0], 0);
        let fp = PageData::pattern(7).fingerprint();
        device
            .write_page(outcome.pages[0], PageData::pattern(99), owner)
            .unwrap();
        let violations = audit_store(&store);
        assert!(violations.contains(&Violation::DanglingIndexEntry {
            fingerprint: fp,
            page: outcome.pages[0],
            observed: Some(PageData::pattern(99).fingerprint()),
        }));
    }

    #[test]
    fn journal_audit_flags_replay_skew_and_torn_tail() {
        use cxl_store::journal;

        let device = Arc::new(CxlDevice::with_capacity_mib(16));
        let store = cxl_store::Store::with_config(
            Arc::clone(&device),
            cxl_store::StoreConfig {
                durable: true,
                ..cxl_store::StoreConfig::default()
            },
        );
        let owner = cxl_mem::NodeId(0);
        let img = store.begin_image("fn:a#1", owner, 1, simclock::SimTime::ZERO);
        store
            .intern_pages(img, &[PageData::pattern(7)], owner)
            .unwrap();
        let meta = device.create_region("ckpt:a");
        store.commit_image(img, meta).unwrap();
        assert_eq!(audit_journal(&store), Vec::new());

        // A volatile store has no journal to disagree with.
        let volatile = cxl_store::Store::new(Arc::new(CxlDevice::with_capacity_mib(1)));
        assert_eq!(audit_journal(&volatile), Vec::new());

        // Forge a *sealed* Intern record claiming a phantom reference:
        // replay now accounts for one more ref than the live index.
        let gen = journal::find_generations(&device).pop().unwrap();
        let loaded = journal::snapshot_generation(&device, &gen).unwrap();
        let entry = &store.index_snapshot()[0];
        let (fp, page) = (entry.fingerprint, entry.page);
        let payload = journal::encode_payload(&journal::JournalEntry {
            seq: 999,
            owner: 0,
            epoch: 0,
            record: journal::Record::Intern {
                image: 999,
                entries: vec![(fp, page.0)],
            },
        });
        let mut rec = Vec::new();
        rec.extend_from_slice(&0x4A4C_5843u32.to_le_bytes()); // record magic
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&payload);
        rec.push(0xA5); // seal marker
        let off = loaded.log.committed_bytes as usize;
        let page_idx = off / cxl_mem::PAGE_SIZE as usize;
        let in_off = off % cxl_mem::PAGE_SIZE as usize;
        assert!(
            in_off + rec.len() <= cxl_mem::PAGE_SIZE as usize,
            "forged record must fit in the tail page's slack"
        );
        let jpage = loaded.data_pages[page_idx];
        let mut raw = vec![0u8; cxl_mem::PAGE_SIZE as usize];
        device.snapshot_pages(&[jpage]).unwrap()[0].read(0, &mut raw);
        raw[in_off..in_off + rec.len()].copy_from_slice(&rec);
        device
            .write_page(jpage, PageData::from_bytes(&raw), owner)
            .unwrap();
        assert_eq!(
            audit_journal(&store),
            vec![Violation::RecoveryRefcountSkew {
                fingerprint: fp,
                journal_refs: 2,
                index_refs: 1,
            }]
        );

        // Unseal the forged record (zero its marker): the phantom ref is
        // gone but the bytes are now a torn tail recovery never saw.
        raw[in_off + rec.len() - 1] = 0;
        device
            .write_page(jpage, PageData::from_bytes(&raw), owner)
            .unwrap();
        assert_eq!(
            audit_journal(&store),
            vec![Violation::JournalTornTail {
                region: gen.region,
                committed_bytes: loaded.log.committed_bytes,
                torn_bytes: 8 + payload.len() as u64,
            }]
        );
    }

    #[test]
    fn device_books_balance_and_region_leak_is_reported() {
        let device = Arc::new(CxlDevice::with_capacity_mib(16));
        let region = device.create_region("ckpt");
        let page = device.alloc_page(region).unwrap();
        device
            .write_page(page, PageData::pattern(7), NodeId(0))
            .unwrap();
        assert_eq!(audit_device(&device), Vec::new());
        assert_eq!(audit_device_with_live(&device, [region]), Vec::new());
        let leaks = audit_device_with_live(&device, []);
        assert_eq!(
            leaks,
            vec![Violation::RegionLeak {
                region,
                name: "ckpt".to_owned(),
                pages: 1,
            }]
        );
    }
}
