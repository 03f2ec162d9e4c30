//! Virtual memory areas and the attachable VMA tree.
//!
//! Serverless address spaces contain hundreds of VMAs ("their number grows
//! to the order of hundreds, due to the many dependencies of popular FaaS
//! languages such as Python", §4.2.1), which makes rebuilding the VMA tree
//! a measurable part of restore cost. CXLfork therefore checkpoints the
//! tree's **leaf blocks** to CXL memory and attaches them on restore,
//! copying a block to local memory only when a VMA in it is updated or
//! needs its file-system callbacks re-registered — both rare.
//!
//! [`VmaTree`] models that structure: an ordered sequence of blocks, each
//! holding up to [`VMAS_PER_BLOCK`] non-overlapping VMAs, where a block is
//! either node-local (mutable) or attached from a checkpoint (shared,
//! immutable, copy-on-update).

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cxl_mem::CxlPageId;

use crate::addr::VirtPageNum;
use crate::error::OsError;
use crate::PAGE_SIZE;

/// Maximum VMAs per tree block. Sixteen ~200-byte VMA records fill most of
/// a 4 KiB checkpoint page, mirroring the paper's "checkpointed leaves" of
/// the VMA tree.
pub const VMAS_PER_BLOCK: usize = 16;

/// Page protection of a VMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Protection {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetches allowed.
    pub exec: bool,
}

impl Protection {
    /// `r--`
    pub const fn read_only() -> Self {
        Protection {
            read: true,
            write: false,
            exec: false,
        }
    }

    /// `rw-`
    pub const fn read_write() -> Self {
        Protection {
            read: true,
            write: true,
            exec: false,
        }
    }

    /// `r-x`
    pub const fn read_exec() -> Self {
        Protection {
            read: true,
            write: false,
            exec: true,
        }
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.exec { 'x' } else { '-' }
        )
    }
}

/// What backs a VMA.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[allow(
    clippy::exhaustive_enums,
    reason = "the backing kinds checkpoint and restore must each handle"
)]
pub enum VmaKind {
    /// Anonymous memory (heap, stack, arenas) — zero-filled on first touch.
    Anonymous,
    /// Anonymous memory shared between processes (`MAP_SHARED`). CXLfork
    /// "does not currently support shared anonymous memory mappings"
    /// (§4.1) and rejects checkpoints that contain them.
    SharedAnonymous,
    /// A private file mapping (library, runtime module). `file_start_page`
    /// is the file page mapped at the VMA's first page.
    File {
        /// Path on the shared root filesystem.
        path: String,
        /// File page backing the first page of the VMA.
        file_start_page: u64,
    },
}

impl VmaKind {
    /// `true` for file-backed VMAs.
    pub fn is_file(&self) -> bool {
        matches!(self, VmaKind::File { .. })
    }

    /// `true` for shared anonymous mappings.
    pub fn is_shared_anonymous(&self) -> bool {
        matches!(self, VmaKind::SharedAnonymous)
    }
}

/// One virtual memory area: a page range, protection, backing and label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vma {
    /// First page (inclusive).
    pub start: u64,
    /// Last page (exclusive).
    pub end: u64,
    /// Protection bits.
    pub prot: Protection,
    /// Backing.
    pub kind: VmaKind,
    /// Human-readable label (`"heap"`, `"libpython"`, …).
    pub label: String,
}

impl Vma {
    /// Creates an anonymous VMA over `[start, end)` pages.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or inverted.
    pub fn anonymous(start: u64, end: u64, prot: Protection, label: &str) -> Self {
        assert!(start < end, "empty vma {start}..{end}");
        Vma {
            start,
            end,
            prot,
            kind: VmaKind::Anonymous,
            label: label.to_owned(),
        }
    }

    /// Creates a private file-backed VMA.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or inverted.
    pub fn file(start: u64, end: u64, prot: Protection, path: &str, file_start_page: u64) -> Self {
        assert!(start < end, "empty vma {start}..{end}");
        Vma {
            start,
            end,
            prot,
            kind: VmaKind::File {
                path: path.to_owned(),
                file_start_page,
            },
            label: path.rsplit('/').next().unwrap_or(path).to_owned(),
        }
    }

    /// `true` if `vpn` falls inside the VMA.
    #[inline]
    pub fn contains(&self, vpn: VirtPageNum) -> bool {
        (self.start..self.end).contains(&vpn.0)
    }

    /// Number of pages covered.
    #[inline]
    pub fn pages(&self) -> u64 {
        self.end - self.start
    }

    /// Number of bytes covered.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.pages() * PAGE_SIZE
    }

    /// For a file VMA, the file page backing `vpn`.
    ///
    /// Returns `None` for anonymous VMAs or out-of-range pages.
    pub fn file_page_for(&self, vpn: VirtPageNum) -> Option<(&str, u64)> {
        match &self.kind {
            VmaKind::File {
                path,
                file_start_page,
            } if self.contains(vpn) => {
                Some((path.as_str(), file_start_page + (vpn.0 - self.start)))
            }
            _ => None,
        }
    }
}

/// A leaf block of the VMA tree: up to [`VMAS_PER_BLOCK`] sorted,
/// non-overlapping VMAs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmaBlock {
    vmas: Vec<Vma>,
}

impl VmaBlock {
    /// An empty block.
    pub fn new() -> Self {
        VmaBlock::default()
    }

    /// Builds a block from sorted VMAs.
    ///
    /// # Panics
    ///
    /// Panics if more than [`VMAS_PER_BLOCK`] VMAs are given or they are
    /// not sorted by start.
    pub fn from_vmas(vmas: Vec<Vma>) -> Self {
        assert!(vmas.len() <= VMAS_PER_BLOCK, "block overflow");
        assert!(
            vmas.windows(2).all(|w| w[0].end <= w[1].start),
            "block vmas must be sorted and disjoint"
        );
        VmaBlock { vmas }
    }

    /// The VMAs in the block.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Number of VMAs.
    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    /// `true` if the block has no VMAs.
    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }

    fn first_start(&self) -> Option<u64> {
        self.vmas.first().map(|v| v.start)
    }

    fn find(&self, vpn: VirtPageNum) -> Option<&Vma> {
        Some(&self.vmas[self.position(vpn)?])
    }

    /// The index of the VMA containing `vpn`.
    fn position(&self, vpn: VirtPageNum) -> Option<usize> {
        self.vmas
            .binary_search_by(|v| {
                if v.end <= vpn.0 {
                    std::cmp::Ordering::Less
                } else if v.start > vpn.0 {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
    }
}

/// A block position in the tree.
#[derive(Debug, Clone)]
#[allow(clippy::exhaustive_enums, reason = "a block is node-local or attached")]
pub enum VmaBlockSlot {
    /// A node-local, mutable block.
    Local(VmaBlock),
    /// A checkpointed, CXL-resident shared block.
    Attached {
        /// The shared block.
        block: Arc<VmaBlock>,
        /// Device page storing the block.
        backing: CxlPageId,
    },
}

impl VmaBlockSlot {
    fn block(&self) -> &VmaBlock {
        match self {
            VmaBlockSlot::Local(b) => b,
            VmaBlockSlot::Attached { block, .. } => block,
        }
    }

    /// `true` for attached (checkpoint) blocks.
    pub fn is_attached(&self) -> bool {
        matches!(self, VmaBlockSlot::Attached { .. })
    }
}

/// Outcome of an operation that may localize an attached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VmaTouchOutcome {
    /// `true` if an attached block was copied to local memory.
    pub block_cow: bool,
}

/// Where [`VmaTree::find_local`] last found a VMA: a (block, VMA) index
/// pair, checked on every use, so an edit of the tree can make it stale
/// but never wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmaCursor {
    block: usize,
    vma: usize,
}

/// The per-process VMA tree.
///
/// # Example
///
/// ```
/// use node_os::vma::{Protection, Vma, VmaTree};
/// use node_os::VirtPageNum;
///
/// # fn main() -> Result<(), node_os::OsError> {
/// let mut tree = VmaTree::new();
/// tree.insert(Vma::anonymous(16, 32, Protection::read_write(), "heap"))?;
/// assert!(tree.find(VirtPageNum(20)).is_some());
/// assert!(tree.find(VirtPageNum(40)).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct VmaTree {
    blocks: Vec<VmaBlockSlot>,
    block_cow_events: u64,
}

impl VmaTree {
    /// An empty tree.
    pub fn new() -> Self {
        VmaTree::default()
    }

    /// Total VMAs.
    pub fn vma_count(&self) -> usize {
        self.blocks.iter().map(|b| b.block().len()).sum()
    }

    /// Total pages covered by all VMAs.
    pub fn total_pages(&self) -> u64 {
        self.iter().map(Vma::pages).sum()
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of attached blocks.
    pub fn attached_block_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_attached()).count()
    }

    /// Block-CoW events since creation.
    pub fn block_cow_events(&self) -> u64 {
        self.block_cow_events
    }

    /// Iterates all VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.blocks.iter().flat_map(|b| b.block().vmas().iter())
    }

    /// Finds the VMA containing `vpn`.
    pub fn find(&self, vpn: VirtPageNum) -> Option<&Vma> {
        let idx = self.block_index_for(vpn.0)?;
        self.blocks[idx].block().find(vpn)
    }

    /// Index of the block that could contain page `vpn` (the last block
    /// whose first VMA starts at or before it).
    fn block_index_for(&self, vpn: u64) -> Option<usize> {
        if self.blocks.is_empty() {
            return None;
        }
        let mut idx = match self
            .blocks
            .binary_search_by_key(&vpn, |b| b.block().first_start().unwrap_or(u64::MAX))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        // Skip over empty blocks defensively.
        while idx > 0 && self.blocks[idx].block().is_empty() {
            idx -= 1;
        }
        Some(idx)
    }

    /// The VMA containing `vpn`, with its block made node-local first
    /// (VMA-leaf CoW + on-demand global-state reconstruction, §4.2.1): the
    /// one VMA lookup a fault makes. `cursor` holds the (block, VMA)
    /// position of the last answer; it is checked on every use, and a
    /// local block whose VMA still contains `vpn` answers without a
    /// search. Any other cursor, stale after an edit of the tree or not,
    /// costs the search it would have saved, and the search moves it.
    pub fn find_local(
        &mut self,
        vpn: VirtPageNum,
        cursor: &mut VmaCursor,
    ) -> Option<(&Vma, VmaTouchOutcome)> {
        let hit = match self.blocks.get(cursor.block) {
            Some(VmaBlockSlot::Local(block)) => block
                .vmas
                .get(cursor.vma)
                .is_some_and(|vma| vma.contains(vpn)),
            _ => false,
        };
        let touch = if hit {
            VmaTouchOutcome::default()
        } else {
            let block = self.block_index_for(vpn.0)?;
            *cursor = VmaCursor {
                block,
                vma: self.blocks[block].block().position(vpn)?,
            };
            self.localize(block)
        };
        let vma = &self.blocks[cursor.block].block().vmas[cursor.vma];
        Some((vma, touch))
    }

    fn localize(&mut self, idx: usize) -> VmaTouchOutcome {
        if let VmaBlockSlot::Attached { block, .. } = &self.blocks[idx] {
            let copy = (**block).clone();
            self.blocks[idx] = VmaBlockSlot::Local(copy);
            self.block_cow_events += 1;
            VmaTouchOutcome { block_cow: true }
        } else {
            VmaTouchOutcome::default()
        }
    }

    /// Inserts a VMA, keeping blocks sorted/disjoint and splitting a full
    /// block in two. Attached blocks are localized first.
    ///
    /// # Errors
    ///
    /// [`OsError::MappingOverlap`] if the range intersects an existing
    /// VMA.
    pub fn insert(&mut self, vma: Vma) -> Result<VmaTouchOutcome, OsError> {
        // Overlap check against neighbours.
        for existing in self.iter() {
            if vma.start < existing.end && existing.start < vma.end {
                return Err(OsError::MappingOverlap(VirtPageNum(vma.start)));
            }
        }
        if self.blocks.is_empty() {
            self.blocks.push(VmaBlockSlot::Local(VmaBlock::new()));
        }
        let idx = self.block_index_for(vma.start).expect("non-empty blocks");
        let outcome = self.localize(idx);
        let VmaBlockSlot::Local(block) = &mut self.blocks[idx] else {
            unreachable!("localized above")
        };
        let pos = block
            .vmas
            .binary_search_by_key(&vma.start, |v| v.start)
            .unwrap_err();
        block.vmas.insert(pos, vma);
        if block.vmas.len() > VMAS_PER_BLOCK {
            let tail = block.vmas.split_off(block.vmas.len() / 2);
            self.blocks
                .insert(idx + 1, VmaBlockSlot::Local(VmaBlock { vmas: tail }));
        }
        Ok(outcome)
    }

    /// Removes the VMA containing `vpn`, returning it (whole-VMA munmap).
    /// Localizes the block if attached.
    pub fn remove(&mut self, vpn: VirtPageNum) -> Option<(Vma, VmaTouchOutcome)> {
        let idx = self.block_index_for(vpn.0)?;
        self.blocks[idx].block().find(vpn)?;
        let outcome = self.localize(idx);
        let VmaBlockSlot::Local(block) = &mut self.blocks[idx] else {
            unreachable!("localized above")
        };
        let pos = block.vmas.iter().position(|v| v.contains(vpn))?;
        let vma = block.vmas.remove(pos);
        if block.vmas.is_empty() && self.blocks.len() > 1 {
            self.blocks.remove(idx);
        }
        Some((vma, outcome))
    }

    /// Changes the protection of the VMA containing `vpn` (whole-VMA
    /// mprotect). Returns the touch outcome, or `None` if uncovered.
    pub fn set_protection(
        &mut self,
        vpn: VirtPageNum,
        prot: Protection,
    ) -> Option<VmaTouchOutcome> {
        let idx = self.block_index_for(vpn.0)?;
        self.blocks[idx].block().find(vpn)?;
        let outcome = self.localize(idx);
        let VmaBlockSlot::Local(block) = &mut self.blocks[idx] else {
            unreachable!("localized above")
        };
        let pos = block.vmas.iter().position(|v| v.contains(vpn))?;
        block.vmas[pos].prot = prot;
        Some(outcome)
    }

    /// Appends an attached (checkpointed) block. Blocks must be appended
    /// in address order; this is what restore does while walking the
    /// checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty or out of order.
    pub fn attach_block(&mut self, block: Arc<VmaBlock>, backing: CxlPageId) {
        assert!(!block.is_empty(), "cannot attach an empty vma block");
        if let Some(last) = self.blocks.last() {
            let last_end = last.block().vmas().last().map_or(0, |v| v.end);
            assert!(
                block.first_start().unwrap_or(0) >= last_end,
                "attached blocks must be appended in address order"
            );
        }
        self.blocks.push(VmaBlockSlot::Attached { block, backing });
    }

    /// Read-only view of the block slots (for checkpoint walks).
    pub fn blocks(&self) -> &[VmaBlockSlot] {
        &self.blocks
    }
}

impl<'a> IntoIterator for &'a VmaTree {
    type Item = &'a Vma;
    type IntoIter = Box<dyn Iterator<Item = &'a Vma> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anon(start: u64, end: u64) -> Vma {
        Vma::anonymous(start, end, Protection::read_write(), "t")
    }

    #[test]
    fn insert_and_find() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 20)).unwrap();
        t.insert(anon(30, 40)).unwrap();
        t.insert(anon(0, 5)).unwrap();
        assert_eq!(t.vma_count(), 3);
        assert_eq!(t.total_pages(), 10 + 10 + 5);
        assert!(t.find(VirtPageNum(0)).is_some());
        assert!(t.find(VirtPageNum(4)).is_some());
        assert!(t.find(VirtPageNum(5)).is_none());
        assert!(t.find(VirtPageNum(15)).is_some());
        assert!(t.find(VirtPageNum(25)).is_none());
        assert_eq!(t.find(VirtPageNum(35)).unwrap().start, 30);
    }

    #[test]
    fn overlap_rejected() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 20)).unwrap();
        assert!(matches!(
            t.insert(anon(15, 25)),
            Err(OsError::MappingOverlap(_))
        ));
        assert!(matches!(
            t.insert(anon(5, 11)),
            Err(OsError::MappingOverlap(_))
        ));
        // Adjacent is fine.
        t.insert(anon(20, 25)).unwrap();
        t.insert(anon(5, 10)).unwrap();
        assert_eq!(t.vma_count(), 3);
    }

    #[test]
    fn blocks_split_when_full() {
        let mut t = VmaTree::new();
        for i in 0..(VMAS_PER_BLOCK as u64 + 4) {
            t.insert(anon(i * 10, i * 10 + 5)).unwrap();
        }
        assert!(t.block_count() >= 2);
        // Everything still findable and ordered.
        let starts: Vec<u64> = t.iter().map(|v| v.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        for i in 0..(VMAS_PER_BLOCK as u64 + 4) {
            assert!(t.find(VirtPageNum(i * 10 + 2)).is_some(), "vma {i}");
        }
    }

    #[test]
    fn remove_returns_vma() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 20)).unwrap();
        t.insert(anon(30, 40)).unwrap();
        let (v, _) = t.remove(VirtPageNum(15)).unwrap();
        assert_eq!(v.start, 10);
        assert!(t.find(VirtPageNum(15)).is_none());
        assert!(t.remove(VirtPageNum(15)).is_none());
        assert_eq!(t.vma_count(), 1);
    }

    #[test]
    fn attached_block_is_shared_until_touched() {
        let shared = Arc::new(VmaBlock::from_vmas(vec![anon(0, 8), anon(8, 16)]));
        let mut a = VmaTree::new();
        let mut b = VmaTree::new();
        a.attach_block(Arc::clone(&shared), CxlPageId(1));
        b.attach_block(Arc::clone(&shared), CxlPageId(1));
        assert_eq!(a.attached_block_count(), 1);
        assert!(a.find(VirtPageNum(3)).is_some());

        // Mutation in A localizes A's copy only.
        let o = a
            .set_protection(VirtPageNum(3), Protection::read_only())
            .unwrap();
        assert!(o.block_cow);
        assert_eq!(a.block_cow_events(), 1);
        assert_eq!(a.attached_block_count(), 0);
        assert!(!a.find(VirtPageNum(3)).unwrap().prot.write);
        assert!(
            b.find(VirtPageNum(3)).unwrap().prot.write,
            "sharer unaffected"
        );
        assert_eq!(shared.vmas()[0].prot, Protection::read_write());
    }

    #[test]
    fn find_local_localizes_only_a_covering_attached_block() {
        let mut t = VmaTree::new();
        t.insert(anon(0, 4)).unwrap();
        t.attach_block(
            Arc::new(VmaBlock::from_vmas(vec![anon(10, 20)])),
            CxlPageId(0),
        );
        let mut cursor = VmaCursor::default();
        let (vma, touch) = t.find_local(VirtPageNum(1), &mut cursor).unwrap();
        assert_eq!((vma.start, touch.block_cow), (0, false));
        assert!(t.find_local(VirtPageNum(7), &mut cursor).is_none());
        assert!(t.find_local(VirtPageNum(100), &mut cursor).is_none());
        assert_eq!(t.attached_block_count(), 1);
        let (vma, touch) = t.find_local(VirtPageNum(12), &mut cursor).unwrap();
        assert_eq!((vma.start, touch.block_cow), (10, true));
        let (_, touch) = t.find_local(VirtPageNum(19), &mut cursor).unwrap();
        assert!(!touch.block_cow, "the block is local now");
        assert_eq!(t.block_cow_events(), 1);
    }

    /// The two searches a fault made before [`VmaTree::find_local`]:
    /// localize the block whose VMA covers `vpn`, then find that VMA
    /// again from the top.
    fn ensure_local_then_find(t: &mut VmaTree, vpn: VirtPageNum) -> Option<(Vma, bool)> {
        let idx = t.block_index_for(vpn.0)?;
        t.blocks[idx].block().find(vpn)?;
        let touch = t.localize(idx);
        Some((t.find(vpn)?.clone(), touch.block_cow))
    }

    /// Everything of a tree a lookup may change: each block's VMAs and
    /// whether it is attached, and the block-CoW count.
    fn shape(t: &VmaTree) -> (Vec<(bool, Vec<Vma>)>, u64) {
        let blocks = t.blocks.iter();
        let blocks = blocks.map(|b| (b.is_attached(), b.block().vmas.clone()));
        (blocks.collect(), t.block_cow_events())
    }

    proptest::proptest! {
        /// One cursor carried across random inserts, removals,
        /// protection changes and attached blocks answers every lookup
        /// with the VMA, the block CoW and the tree afterwards that the
        /// two-search path gives on a twin tree.
        #[test]
        fn find_local_with_a_carried_cursor_equals_ensure_local_then_find(
            ops in proptest::collection::vec((0u8..8, 0u64..1_200, 1u64..40), 1..200),
        ) {
            let mut t = VmaTree::new();
            let mut oracle = VmaTree::new();
            let mut cursor = VmaCursor::default();
            let mut last = 0u64;
            for (op, at, len) in ops {
                match op {
                    0 => {
                        let vma = anon(at, at + len);
                        proptest::prop_assert_eq!(
                            t.insert(vma.clone()).is_ok(),
                            oracle.insert(vma).is_ok()
                        );
                    }
                    1 => {
                        let removed = t.remove(VirtPageNum(at)).map(|(v, o)| (v, o.block_cow));
                        let expected = oracle.remove(VirtPageNum(at)).map(|(v, o)| (v, o.block_cow));
                        proptest::prop_assert_eq!(removed, expected);
                    }
                    2 => {
                        let prot = Protection::read_only();
                        proptest::prop_assert_eq!(
                            t.set_protection(VirtPageNum(at), prot),
                            oracle.set_protection(VirtPageNum(at), prot)
                        );
                    }
                    3 => {
                        // A checkpoint block of `len % 4 + 1` VMAs past
                        // every VMA, shared by both trees.
                        let end = t.iter().last().map_or(0, |v| v.end);
                        let vmas = (0..len % 4 + 1).map(|i| anon(end + at % 8 + 6 * i, end + at % 8 + 6 * i + 5));
                        let block = Arc::new(VmaBlock::from_vmas(vmas.collect()));
                        t.attach_block(Arc::clone(&block), CxlPageId(at));
                        oracle.attach_block(block, CxlPageId(at));
                    }
                    _ => {
                        // Mostly short strides from the last lookup, as a
                        // run's faults make, sometimes a jump.
                        let vpn = VirtPageNum(if op == 7 { at } else { last + len % 8 });
                        last = vpn.0;
                        let found = t
                            .find_local(vpn, &mut cursor)
                            .map(|(v, touch)| (v.clone(), touch.block_cow));
                        proptest::prop_assert_eq!(found, ensure_local_then_find(&mut oracle, vpn));
                    }
                }
                proptest::prop_assert_eq!(shape(&t), shape(&oracle));
            }
        }
    }

    #[test]
    fn insert_after_attach_localizes() {
        let shared = Arc::new(VmaBlock::from_vmas(vec![anon(0, 8)]));
        let mut t = VmaTree::new();
        t.attach_block(shared, CxlPageId(0));
        let o = t.insert(anon(100, 110)).unwrap();
        assert!(o.block_cow);
        assert_eq!(t.vma_count(), 2);
    }

    #[test]
    #[should_panic(expected = "address order")]
    fn attach_out_of_order_panics() {
        let mut t = VmaTree::new();
        t.attach_block(
            Arc::new(VmaBlock::from_vmas(vec![anon(100, 110)])),
            CxlPageId(0),
        );
        t.attach_block(
            Arc::new(VmaBlock::from_vmas(vec![anon(0, 10)])),
            CxlPageId(1),
        );
    }

    #[test]
    fn file_vma_maps_file_pages() {
        let v = Vma::file(100, 110, Protection::read_exec(), "/usr/lib/x.so", 5);
        assert_eq!(v.label, "x.so");
        assert!(v.kind.is_file());
        assert_eq!(
            v.file_page_for(VirtPageNum(103)),
            Some(("/usr/lib/x.so", 8))
        );
        assert_eq!(v.file_page_for(VirtPageNum(99)), None);
        assert_eq!(anon(0, 1).file_page_for(VirtPageNum(0)), None);
    }

    #[test]
    fn protection_display() {
        assert_eq!(Protection::read_write().to_string(), "rw-");
        assert_eq!(Protection::read_exec().to_string(), "r-x");
        assert_eq!(Protection::read_only().to_string(), "r--");
    }

    #[test]
    #[should_panic(expected = "empty vma")]
    fn empty_vma_rejected() {
        let _ = anon(5, 5);
    }
}
