//! Cross-layer invariant checker for the simulated memory system.
//!
//! The simulation spreads one logical fact — "who owns this page" — over
//! four data structures on different layers: page-table entries
//! ([`node_os::page_table::PageTable`]), the refcounting frame allocator
//! ([`node_os::frame::FrameAllocator`]), the per-node page cache
//! ([`node_os::pagecache::PageCache`]) and the shared device's region map
//! ([`cxl_mem::CxlDevice`]). Each layer keeps its own books; a bug in any
//! fork, restore or reclamation path shows up as the books disagreeing
//! long before it corrupts an observable result. This crate audits the
//! books against each other and returns every disagreement as a typed
//! [`Violation`] — it never panics on a broken invariant, so tests can
//! assert on the exact violation class they seeded.
//!
//! [`audit`] walks a [`node_os::Node`] (PTEs ↔ frame refcounts ↔ page
//! cache ↔ VMAs) and a [`cxl_mem::CxlDevice`] (slab ↔ region
//! accounting), cross-validating every reference; [`audit_cluster`] runs
//! every auditor over a whole deployment.
//!
//! Two checks live elsewhere, because they run at the operation they
//! guard: every CXLfork checkpoint carries its own seal, re-verified by
//! each restore in debug builds, and [`cxl_mem::lockdep`] checks each
//! lock acquisition against one declared lock order.
//!
//! The crate is test support: the crates it audits take it as a
//! dev-dependency, and only the `cxlfork-bench` scenarios link it
//! normally. Nothing the release benchmark builds depends on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use cxl_mem::{CxlPageId, NodeId, RegionId};
use node_os::{Pfn, Pid};

pub mod audit;

pub use audit::{
    audit_cluster, audit_device, audit_device_with_live, audit_journal, audit_node, audit_staging,
    audit_store, NodeAudit,
};

/// One detected cross-layer invariant violation.
///
/// Violations are data, not panics: auditors return every disagreement
/// they find so negative tests can assert on the exact class they seeded
/// and production callers can log or fail as they prefer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// A PTE targets a local frame the allocator says is dead.
    DanglingLocalPte {
        /// Node the process runs on.
        node: NodeId,
        /// Owning process.
        pid: Pid,
        /// Virtual page number of the entry.
        vpn: u64,
        /// The dead frame.
        pfn: Pfn,
    },
    /// A PTE (present or armed) targets a CXL page the device says is
    /// free.
    DanglingCxlPte {
        /// Node the process runs on.
        node: NodeId,
        /// Owning process.
        pid: Pid,
        /// Virtual page number of the entry.
        vpn: u64,
        /// The freed device page.
        page: CxlPageId,
    },
    /// A checkpoint backing map references a CXL page the device says is
    /// free (the checkpoint was reclaimed under a live restore).
    DanglingBackingPage {
        /// Node the process runs on.
        node: NodeId,
        /// Owning process.
        pid: Pid,
        /// Virtual page number of the backing entry.
        vpn: u64,
        /// The freed device page.
        page: CxlPageId,
    },
    /// The page cache holds a frame the allocator says is dead.
    DanglingCacheEntry {
        /// Node whose cache is broken.
        node: NodeId,
        /// Cached file path.
        path: String,
        /// Page index within the file.
        file_page: u64,
        /// The dead frame.
        pfn: Pfn,
    },
    /// A frame's refcount disagrees with the number of references the
    /// audit can account for (PTEs + page-cache entries + declared
    /// external pins).
    RefcountSkew {
        /// Node owning the frame.
        node: NodeId,
        /// The frame.
        pfn: Pfn,
        /// Refcount the allocator reports.
        actual: u32,
        /// References the audit counted.
        expected: u32,
    },
    /// A live frame with no accountable reference at all — local memory
    /// that can never be reclaimed.
    FrameLeak {
        /// Node owning the frame.
        node: NodeId,
        /// The leaked frame.
        pfn: Pfn,
        /// Refcount the allocator still reports.
        refcount: u32,
    },
    /// A writable present mapping of a frame shared with other references
    /// — a store through it would be visible to every sharer, breaking
    /// copy-on-write isolation.
    WritableSharedFrame {
        /// Node the process runs on.
        node: NodeId,
        /// Owning process.
        pid: Pid,
        /// Virtual page number of the writable mapping.
        vpn: u64,
        /// The shared frame.
        pfn: Pfn,
        /// Its refcount (> 1).
        refcount: u32,
    },
    /// A PTE with both `COW` and `WRITABLE` set — contradictory flags
    /// that make a write skip its copy.
    CowWritablePte {
        /// Node the process runs on.
        node: NodeId,
        /// Owning process.
        pid: Pid,
        /// Virtual page number of the entry.
        vpn: u64,
    },
    /// A populated PTE at an address no VMA covers — `munmap` tore down
    /// the area but left the translation behind.
    PteOutsideVma {
        /// Node the process runs on.
        node: NodeId,
        /// Owning process.
        pid: Pid,
        /// Virtual page number of the stray entry.
        vpn: u64,
    },
    /// The device's `used_pages` counter disagrees with its page slab.
    DeviceAccounting {
        /// What `used_pages()` reports.
        counted: u64,
        /// Live slots actually in the slab.
        live: u64,
    },
    /// A region's page counter disagrees with the slab pages that name it
    /// as their owner.
    RegionAccounting {
        /// The region.
        region: RegionId,
        /// What the region map records.
        counted: u64,
        /// Live slab pages owned by the region.
        live: u64,
    },
    /// A page-pool shard's `used_pages` counter disagrees with the live
    /// slab pages whose global ids fall inside its offset range.
    ShardAccounting {
        /// Shard index (ascending offset ranges).
        shard: usize,
        /// First global page id the shard owns.
        base_page: u64,
        /// What the shard's counter records.
        counted: u64,
        /// Live slab pages bucketed into the shard's range.
        live: u64,
    },
    /// The per-shard `used_pages` counters do not sum to the device-wide
    /// `used_pages` counter — the region-table books and the shard books
    /// have diverged.
    ShardSumSkew {
        /// What the device-wide `used_pages()` counter reports.
        counted: u64,
        /// Sum of the per-shard counters.
        shard_sum: u64,
    },
    /// A live device page whose owning region is gone from the region map
    /// — unreclaimable device memory.
    OrphanCxlPage {
        /// The orphaned page.
        page: CxlPageId,
        /// The region it still names as owner.
        region: RegionId,
    },
    /// A region that none of the declared live owners (checkpoints,
    /// stores) references — a leaked checkpoint.
    RegionLeak {
        /// The leaked region.
        region: RegionId,
        /// Region name given at creation.
        name: String,
        /// Pages still held.
        pages: u64,
    },
    /// A checkpoint-store content-index entry whose refcount disagrees
    /// with the image references the catalog can account for.
    ContentIndexSkew {
        /// Content fingerprint of the entry.
        fingerprint: u64,
        /// Device page the index maps the fingerprint to.
        page: CxlPageId,
        /// Refcount the index records.
        actual: u64,
        /// References counted across the image catalog (committed and
        /// pending images, with multiplicity).
        expected: u64,
    },
    /// A checkpoint-store content-index entry whose device page is gone,
    /// or whose stored content no longer hashes to the fingerprint that
    /// names it.
    DanglingIndexEntry {
        /// Content fingerprint the index records.
        fingerprint: u64,
        /// The dead or mutated device page.
        page: CxlPageId,
        /// Fingerprint of the page's current content (`None` if the
        /// page is no longer live on the device).
        observed: Option<u64>,
    },
    /// The store journal's committed stream is followed by a torn
    /// (unsealed or truncated) tail record. Recovery truncates torn
    /// tails; seeing one on a live store means a crashed append was
    /// never recovered — or no generation has a valid superblock at
    /// all (reported with zero `committed_bytes`).
    JournalTornTail {
        /// The journal generation's region.
        region: RegionId,
        /// Bytes of sealed, replayable records before the tear.
        committed_bytes: u64,
        /// Bytes of the torn tail record.
        torn_bytes: u64,
    },
    /// A content fingerprint whose journal-replayed reference count
    /// disagrees with the store's in-DRAM index — recovery (or a
    /// journaling bug) rebuilt different books than the store kept.
    RecoveryRefcountSkew {
        /// The fingerprint.
        fingerprint: u64,
        /// References the journal replay accounts for.
        journal_refs: u64,
        /// References the live index records.
        index_refs: u64,
    },
    /// An uncommitted checkpoint staging region whose owner is not in
    /// the live set — a torn checkpoint the lease GC failed to reclaim.
    OrphanStagingRegion {
        /// The orphaned staging region.
        region: RegionId,
        /// The (dead) owner recorded at creation.
        owner: cxl_mem::NodeId,
        /// The owner's checkpoint epoch.
        epoch: u64,
        /// Device pages stranded in the region.
        pages: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DanglingLocalPte {
                node,
                pid,
                vpn,
                pfn,
            } => write!(
                f,
                "{node} {pid}: pte at vpn{vpn:#x} targets dead frame {pfn}"
            ),
            Violation::DanglingCxlPte {
                node,
                pid,
                vpn,
                page,
            } => write!(
                f,
                "{node} {pid}: pte at vpn{vpn:#x} targets freed device page {page}"
            ),
            Violation::DanglingBackingPage {
                node,
                pid,
                vpn,
                page,
            } => write!(
                f,
                "{node} {pid}: backing map at vpn{vpn:#x} references freed device page {page}"
            ),
            Violation::DanglingCacheEntry {
                node,
                path,
                file_page,
                pfn,
            } => write!(
                f,
                "{node}: page cache entry {path}:{file_page} holds dead frame {pfn}"
            ),
            Violation::RefcountSkew {
                node,
                pfn,
                actual,
                expected,
            } => write!(
                f,
                "{node}: frame {pfn} refcount is {actual}, audit accounts for {expected}"
            ),
            Violation::FrameLeak {
                node,
                pfn,
                refcount,
            } => write!(
                f,
                "{node}: frame {pfn} is live (refcount {refcount}) with no accountable reference"
            ),
            Violation::WritableSharedFrame {
                node,
                pid,
                vpn,
                pfn,
                refcount,
            } => write!(
                f,
                "{node} {pid}: writable mapping at vpn{vpn:#x} of shared frame {pfn} \
                 (refcount {refcount})"
            ),
            Violation::CowWritablePte { node, pid, vpn } => write!(
                f,
                "{node} {pid}: pte at vpn{vpn:#x} is both COW and WRITABLE"
            ),
            Violation::PteOutsideVma { node, pid, vpn } => write!(
                f,
                "{node} {pid}: populated pte at vpn{vpn:#x} outside every vma"
            ),
            Violation::DeviceAccounting { counted, live } => write!(
                f,
                "device: used_pages says {counted} but the slab holds {live} live pages"
            ),
            Violation::RegionAccounting {
                region,
                counted,
                live,
            } => write!(
                f,
                "device: {region} records {counted} pages but owns {live} live slab pages"
            ),
            Violation::ShardAccounting {
                shard,
                base_page,
                counted,
                live,
            } => write!(
                f,
                "device: shard {shard} (base page {base_page}) records {counted} used pages \
                 but {live} live pages fall in its range"
            ),
            Violation::ShardSumSkew { counted, shard_sum } => write!(
                f,
                "device: used_pages says {counted} but the shard counters sum to {shard_sum}"
            ),
            Violation::OrphanCxlPage { page, region } => write!(
                f,
                "device: live page {page} names destroyed {region} as owner"
            ),
            Violation::RegionLeak {
                region,
                name,
                pages,
            } => write!(
                f,
                "device: {region} ({name:?}, {pages} pages) is referenced by no live owner"
            ),
            Violation::ContentIndexSkew {
                fingerprint,
                page,
                actual,
                expected,
            } => write!(
                f,
                "store: index entry {fingerprint:#018x} ({page}) records {actual} refs, \
                 catalog accounts for {expected}"
            ),
            Violation::DanglingIndexEntry {
                fingerprint,
                page,
                observed,
            } => match observed {
                Some(observed) => write!(
                    f,
                    "store: index entry {fingerprint:#018x} maps to {page} whose content \
                     hashes to {observed:#018x}"
                ),
                None => write!(
                    f,
                    "store: index entry {fingerprint:#018x} maps to dead device page {page}"
                ),
            },
            Violation::JournalTornTail {
                region,
                committed_bytes,
                torn_bytes,
            } => write!(
                f,
                "journal {region}: {torn_bytes} torn bytes after {committed_bytes} committed — \
                 a crashed append was never recovered"
            ),
            Violation::RecoveryRefcountSkew {
                fingerprint,
                journal_refs,
                index_refs,
            } => write!(
                f,
                "journal: fingerprint {fingerprint:#018x} replays to {journal_refs} refs, \
                 the live index records {index_refs}"
            ),
            Violation::OrphanStagingRegion {
                region,
                owner,
                epoch,
                pages,
            } => write!(
                f,
                "device: staging region {region} (owner {owner}, epoch {epoch}, {pages} pages) \
                 outlived its dead owner without reclamation"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let v = Violation::RefcountSkew {
            node: NodeId(0),
            pfn: Pfn(7),
            actual: 3,
            expected: 2,
        };
        let s = v.to_string();
        assert!(s.contains("refcount is 3"), "{s}");
        assert!(s.contains("accounts for 2"), "{s}");

        let s = Violation::ShardAccounting {
            shard: 3,
            base_page: 24,
            counted: 5,
            live: 4,
        }
        .to_string();
        assert!(s.contains("shard 3"), "{s}");
        assert!(s.contains("records 5"), "{s}");
        assert!(s.contains("4 live pages"), "{s}");
        let s = Violation::ShardSumSkew {
            counted: 9,
            shard_sum: 8,
        }
        .to_string();
        assert!(s.contains("says 9"), "{s}");
        assert!(s.contains("sum to 8"), "{s}");
    }
}
