//! A 4-level page table, stored as its leaves, with attachable, shareable
//! leaves.
//!
//! This is the structure CXLfork's headline optimization manipulates
//! (§4.2.1): a restore allocates and initializes **only the upper levels**
//! of the tree in node-local memory and *attaches* the checkpointed leaf
//! tables, which live in CXL memory and are shared — immutably — by every
//! process cloned from the same checkpoint, across nodes.
//!
//! The simulation needs two things from the upper levels: how many
//! directory pages a walk creates (charged in virtual time) and the
//! ascending leaf order. Both follow from the leaves alone, so the table
//! is one map keyed by leaf index (`vpn >> 9`): a level-2 directory exists
//! exactly when some leaf shares its `leaf_index >> 9`, and a level-3
//! directory when some leaf shares its `leaf_index >> 18` (directories are
//! never freed, and each one is created together with a leaf under it).
//!
//! Two kinds of mutation are possible on an attached leaf:
//!
//! * **Entry updates** (mapping changes, CoW resolution) first copy the
//!   whole 512-entry leaf to local memory — a *leaf CoW*, signalled to the
//!   caller through [`SetOutcome`] so the fault path can charge its cost.
//!   This models the paper's "unused bit in the PTE structure to track any
//!   OS attempt to update them … it lazily copies the entire leaf to local
//!   memory" (§4.2.1).
//! * **Accessed-bit updates**, which the paper explicitly allows on shared
//!   CXL PTEs ("its page-table walks will update the A bits on the CXL
//!   PTEs", §4.3). These go to an atomic side bitmap ([`AccessBits`])
//!   attached to every leaf, so they never force a copy, and user space can
//!   reset them to re-estimate working sets.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cxl_mem::CxlPageId;

use crate::addr::VirtPageNum;
use crate::pte::{Pte, PteFlags};
use crate::PTES_PER_LEAF;

/// Atomic per-slot Accessed bits for one leaf (512 bits in 8 words).
///
/// These model the hardware A-bit updates that page walks perform on
/// checkpointed (shared, otherwise-immutable) PTE leaves.
#[derive(Default)]
pub struct AccessBits {
    words: [AtomicU64; 8],
}

impl AccessBits {
    /// All-clear bits.
    pub fn new() -> Self {
        AccessBits::default()
    }

    #[inline]
    fn split(slot: usize) -> (usize, u64) {
        debug_assert!(slot < PTES_PER_LEAF);
        (slot / 64, 1u64 << (slot % 64))
    }

    /// Sets the bit for `slot`. A bit already set costs one load: the
    /// atomic read-modify-write runs only when the bit is clear.
    #[inline]
    pub fn set(&self, slot: usize) {
        let (w, m) = Self::split(slot);
        if self.words[w].load(Ordering::Relaxed) & m == 0 {
            self.words[w].fetch_or(m, Ordering::Relaxed);
        }
    }

    /// Reads the bit for `slot`.
    #[inline]
    pub fn get(&self, slot: usize) -> bool {
        let (w, m) = Self::split(slot);
        self.words[w].load(Ordering::Relaxed) & m != 0
    }

    /// Clears every bit (the user-space A-bit reset interface, §4.3).
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones())
            .sum()
    }
}

impl Clone for AccessBits {
    fn clone(&self) -> Self {
        let out = AccessBits::new();
        for (i, w) in self.words.iter().enumerate() {
            out.words[i].store(w.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        out
    }
}

impl fmt::Debug for AccessBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AccessBits({} set)", self.count())
    }
}

/// One page-table leaf: 512 PTEs plus runtime A bits and user hot-page
/// hint bits.
#[derive(Debug, Clone)]
pub struct PtLeaf {
    entries: Vec<Pte>,
    accessed: AccessBits,
    hot: AccessBits,
}

impl PtLeaf {
    /// An all-empty leaf.
    pub fn new() -> Self {
        PtLeaf {
            entries: vec![Pte::EMPTY; PTES_PER_LEAF],
            accessed: AccessBits::new(),
            hot: AccessBits::new(),
        }
    }

    /// Reads the PTE at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 512`.
    #[inline]
    pub fn get(&self, slot: usize) -> Pte {
        self.entries[slot]
    }

    /// Writes the PTE at `slot` (owned leaves only; attached leaves go
    /// through leaf CoW in [`PageTable::set`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 512`.
    #[inline]
    pub fn set(&mut self, slot: usize, pte: Pte) {
        self.entries[slot] = pte;
    }

    /// The runtime Accessed-bit bitmap.
    #[inline]
    pub fn access_bits(&self) -> &AccessBits {
        &self.accessed
    }

    /// The user-populated hot-page hint bitmap (§4.3 "User-Identified Hot
    /// Pages"): profilers write it through a dedicated interface, and
    /// hybrid-tiering restores consult it alongside the checkpointed A
    /// bits. Writable even on shared (checkpointed) leaves.
    #[inline]
    pub fn hot_bits(&self) -> &AccessBits {
        &self.hot
    }

    /// Number of present entries.
    pub fn present_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_present()).count()
    }

    /// Number of non-empty entries (present or armed).
    pub fn populated_count(&self) -> usize {
        self.entries.iter().filter(|e| !e.is_empty()).count()
    }

    /// Iterates `(slot, pte)` over non-empty entries.
    pub fn iter_populated(&self) -> impl Iterator<Item = (usize, Pte)> + '_ {
        self.entries
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, e)| !e.is_empty())
    }
}

impl Default for PtLeaf {
    fn default() -> Self {
        PtLeaf::new()
    }
}

/// A checkpointed leaf attached from CXL memory.
#[derive(Debug, Clone)]
pub struct AttachedLeaf {
    /// The shared, immutable leaf (its A-bit bitmap stays writable).
    pub leaf: Arc<PtLeaf>,
    /// The device page that physically stores this leaf (one leaf is
    /// exactly one 4 KiB page of 512 × 8-byte PTEs).
    pub backing: CxlPageId,
}

/// A leaf of the table: node-local and mutable, or attached.
#[derive(Debug, Clone)]
#[allow(clippy::exhaustive_enums, reason = "a leaf is node-local or attached")]
pub enum LeafSlot {
    /// An ordinary node-local leaf.
    Local(PtLeaf),
    /// A checkpointed, CXL-resident shared leaf.
    Attached(AttachedLeaf),
}

impl LeafSlot {
    /// The leaf, regardless of locality.
    #[inline]
    pub fn leaf(&self) -> &PtLeaf {
        match self {
            LeafSlot::Local(l) => l,
            LeafSlot::Attached(a) => &a.leaf,
        }
    }

    /// Reads a PTE regardless of locality.
    #[inline]
    pub fn get(&self, slot: usize) -> Pte {
        self.leaf().get(slot)
    }

    /// The leaf's runtime A bits.
    #[inline]
    pub fn access_bits(&self) -> &AccessBits {
        self.leaf().access_bits()
    }

    /// `true` for an attached (checkpoint) leaf.
    #[inline]
    pub fn is_attached(&self) -> bool {
        matches!(self, LeafSlot::Attached(_))
    }

    /// Copies an attached leaf to a private local one — a leaf CoW —
    /// dropping the checkpoint pin from its entries and keeping its
    /// runtime A bits. Returns whether it copied; a local leaf stays as
    /// it is.
    fn make_local(&mut self) -> bool {
        let LeafSlot::Attached(att) = self else {
            return false;
        };
        let mut copy = (*att.leaf).clone();
        for i in 0..PTES_PER_LEAF {
            let e = copy.get(i);
            if !e.is_empty() {
                copy.set(i, e.without_flags(PteFlags::CKPT_PIN));
            }
        }
        *self = LeafSlot::Local(copy);
        true
    }

    /// Writes the entry at `slot` of a local leaf; a no-op on an attached
    /// one, which [`LeafSlot::make_local`] copies first.
    fn set(&mut self, slot: usize, pte: Pte) {
        if let LeafSlot::Local(leaf) = self {
            leaf.set(slot, pte);
        }
    }

    /// Sets the D bit of the entry at `slot` if it is populated. Only
    /// local leaves take it (writable mappings always live in local
    /// leaves after CoW resolution); a no-op on attached leaves, whose D
    /// bits "are never updated, as these pages are attached as read-only"
    /// (§4.3).
    #[inline]
    pub(crate) fn mark_dirty(&mut self, slot: usize) {
        if let LeafSlot::Local(leaf) = self {
            let e = leaf.get(slot);
            if !e.is_empty() && !e.flags().contains(PteFlags::DIRTY) {
                leaf.set(slot, e.with_flags(PteFlags::DIRTY));
            }
        }
    }
}

/// Result of a [`PageTable::set`] walk, for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetOutcome {
    /// Upper-level directory pages created by this walk.
    pub dirs_created: u64,
    /// `true` if an attached leaf had to be copied to local memory first
    /// (a page-table leaf CoW, §4.2.1).
    pub leaf_cow: bool,
    /// `true` if a fresh (empty) leaf was allocated.
    pub leaf_created: bool,
}

/// A 4-level page table, held as its leaves in ascending leaf-index
/// order.
///
/// # Example
///
/// ```
/// use node_os::page_table::PageTable;
/// use node_os::pte::{Pte, PteFlags};
/// use node_os::{PhysAddr, Pfn, VirtPageNum};
///
/// let mut pt = PageTable::new();
/// let vpn = VirtPageNum(0x1234);
/// let pte = Pte::mapped(PhysAddr::Local(Pfn(7)), PteFlags::PRESENT);
/// pt.set(vpn, pte);
/// assert_eq!(pt.get(vpn), pte);
/// assert_eq!(pt.get(VirtPageNum(0x9999)), Pte::EMPTY);
/// ```
#[derive(Debug, Default)]
pub struct PageTable {
    /// Leaves keyed by leaf index (`vpn >> 9`).
    leaves: BTreeMap<u64, LeafSlot>,
    leaf_cow_events: u64,
}

impl PageTable {
    /// An empty table (root directory only).
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Reads the PTE for `vpn` ([`Pte::EMPTY`] if unmapped). Never touches
    /// A bits: an access sets them on its leaf
    /// ([`LeafSlot::access_bits`]).
    pub fn get(&self, vpn: VirtPageNum) -> Pte {
        match self.leaf_for(vpn) {
            Some(slot) => slot.get(vpn.leaf_slot()),
            None => Pte::EMPTY,
        }
    }

    /// Returns the leaf covering `vpn`, if any.
    pub fn leaf_for(&self, vpn: VirtPageNum) -> Option<&LeafSlot> {
        self.leaves.get(&vpn.leaf_index())
    }

    /// The one insert path for whole leaves: puts `leaf` at
    /// `leaf_index`, replacing any leaf there, and reports whether the
    /// index was new and the directory pages the walk down to a new one
    /// creates.
    fn insert(&mut self, leaf_index: u64, leaf: LeafSlot) -> SetOutcome {
        if self.leaves.insert(leaf_index, leaf).is_some() {
            return SetOutcome::default();
        }
        SetOutcome {
            dirs_created: self.dirs_created_by(leaf_index),
            leaf_cow: false,
            leaf_created: true,
        }
    }

    /// The directory pages the walk down to the leaf just created at
    /// `leaf_index` created on the way.
    fn dirs_created_by(&self, leaf_index: u64) -> u64 {
        debug_assert!(
            leaf_index >> (VirtPageNum::BITS - 9) == 0,
            "leaf index {leaf_index:#x} is past the {}-bit VPN space",
            VirtPageNum::BITS
        );
        // The directory over `leaf_index >> shift` is new if the new leaf
        // is alone under it. A level-2 directory with another leaf under
        // it has a level-3 parent that has one too.
        let alone = |shift: u32| {
            let first = leaf_index >> shift << shift;
            let others = self.leaves.range(first..first + (1 << shift)).nth(1);
            others.is_none()
        };
        if alone(9) {
            1 + u64::from(alone(18))
        } else {
            0
        }
    }

    /// Writes the PTE for `vpn`, creating directories and the leaf as
    /// needed. If the covering leaf is attached, it is first copied to
    /// local memory (leaf CoW) — the outcome reports this so the caller can
    /// charge the copy.
    pub fn set(&mut self, vpn: VirtPageNum, pte: Pte) -> SetOutcome {
        let (mut outcome, _) = self.set_in_leaf(vpn, pte);
        if outcome.leaf_created {
            outcome.dirs_created = self.dirs_created_by(vpn.leaf_index());
        }
        outcome
    }

    /// [`PageTable::set`] as one map operation that hands back the leaf
    /// it wrote (the local copy after a leaf CoW), so an access run can
    /// go on in it. Leaves `dirs_created` at zero: the fault path does not
    /// charge directory pages.
    pub(crate) fn set_in_leaf(
        &mut self,
        vpn: VirtPageNum,
        pte: Pte,
    ) -> (SetOutcome, &mut LeafSlot) {
        let mut outcome = SetOutcome::default();
        let slot = match self.leaves.entry(vpn.leaf_index()) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                outcome.leaf_created = true;
                slot.insert(LeafSlot::Local(PtLeaf::new()))
            }
        };
        outcome.leaf_cow = slot.make_local();
        self.leaf_cow_events += u64::from(outcome.leaf_cow);
        slot.set(vpn.leaf_slot(), pte);
        (outcome, slot)
    }

    /// Rewrites the populated entries of `pages`, in ascending order:
    /// `update` sees each entry and returns the one to write, or `None`
    /// to leave it. Only the leaves over `pages` are visited, and a
    /// leaf is copied local (a leaf CoW) at its first rewritten entry, as
    /// a per-page [`PageTable::set`] would.
    pub(crate) fn update_range(
        &mut self,
        pages: Range<u64>,
        mut update: impl FnMut(Pte) -> Option<Pte>,
    ) {
        if pages.is_empty() {
            return;
        }
        let span = pages.start >> 9..=(pages.end - 1) >> 9;
        for (&leaf_index, slot) in self.leaves.range_mut(span) {
            let base = leaf_index << 9;
            let first = pages.start.max(base) - base;
            let end = pages.end.min(base + PTES_PER_LEAF as u64) - base;
            for s in first as usize..end as usize {
                let pte = slot.get(s);
                if pte.is_empty() {
                    continue;
                }
                if let Some(new) = update(pte) {
                    self.leaf_cow_events += u64::from(slot.make_local());
                    slot.set(s, new);
                }
            }
        }
    }

    /// Clears the PTE for `vpn`, returning the previous entry. Triggers a
    /// leaf CoW if the covering leaf is attached.
    pub fn unmap(&mut self, vpn: VirtPageNum) -> (Pte, SetOutcome) {
        let old = self.get(vpn);
        if old.is_empty() {
            return (old, SetOutcome::default());
        }
        let outcome = self.set(vpn, Pte::EMPTY);
        (old, outcome)
    }

    /// Reads the runtime A bit for `vpn`.
    pub fn is_accessed(&self, vpn: VirtPageNum) -> bool {
        self.leaf_for(vpn)
            .is_some_and(|slot| slot.access_bits().get(vpn.leaf_slot()))
    }

    /// Returns the leaf covering `vpn` for A/D-bit maintenance, if any
    /// (mapping changes go through [`PageTable::set`] and its leaf CoW).
    pub(crate) fn leaf_for_mut(&mut self, vpn: VirtPageNum) -> Option<&mut LeafSlot> {
        self.leaves.get_mut(&vpn.leaf_index())
    }

    /// Attaches a checkpointed leaf at `leaf_index` (= `vpn >> 9`),
    /// replacing anything previously there. Returns the number of
    /// directory pages created on the way down — the only allocation the
    /// constant-time restore pays (§4.2.1).
    pub fn attach_leaf(&mut self, leaf_index: u64, attached: AttachedLeaf) -> u64 {
        self.insert(leaf_index, LeafSlot::Attached(attached))
            .dirs_created
    }

    /// Installs a local leaf wholesale at `leaf_index` (used by hybrid
    /// tiering, which materializes per-policy local copies of checkpoint
    /// leaves at restore time). Returns directories created.
    pub fn install_local_leaf(&mut self, leaf_index: u64, leaf: PtLeaf) -> u64 {
        self.insert(leaf_index, LeafSlot::Local(leaf)).dirs_created
    }

    /// Iterates `(leaf_index, &LeafSlot)` over all leaves, in ascending
    /// leaf-index order.
    pub fn leaves(&self) -> impl Iterator<Item = (u64, &LeafSlot)> + '_ {
        self.leaves
            .iter()
            .map(|(&leaf_index, slot)| (leaf_index, slot))
    }

    /// Iterates `(vpn, pte)` over all populated (present or armed)
    /// entries, in ascending VPN order.
    pub fn iter_populated(&self) -> impl Iterator<Item = (VirtPageNum, Pte)> + '_ {
        self.leaves().flat_map(|(leaf_index, slot)| {
            slot.leaf()
                .iter_populated()
                .map(move |(s, pte)| (VirtPageNum((leaf_index << 9) | s as u64), pte))
        })
    }

    /// Number of currently attached (checkpoint) leaves.
    pub fn attached_leaf_count(&self) -> usize {
        self.leaves.values().filter(|s| s.is_attached()).count()
    }

    /// Leaf-CoW events since creation.
    pub fn leaf_cow_events(&self) -> u64 {
        self.leaf_cow_events
    }

    /// Clears the Accessed and Dirty record of every mapping: runtime A
    /// bits on all leaves, and D flags in local leaves. CXLporter invokes
    /// this after a function's first invocation so the bits capture the
    /// steady-state access pattern rather than initialization (§5).
    /// Attached leaves only have their (side-band) A bits cleared — their
    /// entries are immutable.
    pub fn clear_ad_bits(&mut self) {
        for slot in self.leaves.values_mut() {
            slot.leaf().access_bits().clear_all();
            if let LeafSlot::Local(leaf) = slot {
                for i in 0..PTES_PER_LEAF {
                    let e = leaf.get(i);
                    if !e.is_empty() {
                        leaf.set(i, e.without_flags(PteFlags::DIRTY | PteFlags::ACCESSED));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Pfn, PhysAddr};

    fn pte(pfn: u64) -> Pte {
        Pte::mapped(
            PhysAddr::Local(Pfn(pfn)),
            PteFlags::PRESENT | PteFlags::WRITABLE,
        )
    }

    #[test]
    fn set_get_roundtrip_across_levels() {
        let mut pt = PageTable::new();
        // Spread VPNs across distinct L4/L3/L2 indices.
        let vpns = [
            0u64,
            1,
            511,
            512,
            1 << 18,
            (1 << 27) | 5,
            (35 << 27) | (7 << 18) | 123,
        ];
        for (i, &v) in vpns.iter().enumerate() {
            pt.set(VirtPageNum(v), pte(i as u64));
        }
        for (i, &v) in vpns.iter().enumerate() {
            assert_eq!(pt.get(VirtPageNum(v)), pte(i as u64), "vpn {v:#x}");
        }
        assert_eq!(pt.get(VirtPageNum(0xdead_beef)), Pte::EMPTY);
    }

    #[test]
    fn set_reports_created_structures() {
        let mut pt = PageTable::new();
        let o1 = pt.set(VirtPageNum(0), pte(1));
        assert_eq!(o1.dirs_created, 2); // L3 + L2 dirs under the root
        assert!(o1.leaf_created);
        assert!(!o1.leaf_cow);
        let o2 = pt.set(VirtPageNum(1), pte(2));
        assert_eq!(o2.dirs_created, 0);
        assert!(!o2.leaf_created);
        // A new leaf under the same L2 directory, then one under the same
        // L3 directory only, then one under a new L3 directory.
        assert_eq!(pt.set(VirtPageNum(512), pte(3)).dirs_created, 0);
        assert_eq!(pt.set(VirtPageNum(1 << 18), pte(4)).dirs_created, 1);
        assert_eq!(pt.set(VirtPageNum(1 << 27), pte(5)).dirs_created, 2);
    }

    #[test]
    fn unmap_returns_old_entry() {
        let mut pt = PageTable::new();
        pt.set(VirtPageNum(9), pte(5));
        let (old, _) = pt.unmap(VirtPageNum(9));
        assert_eq!(old, pte(5));
        assert_eq!(pt.get(VirtPageNum(9)), Pte::EMPTY);
        let (old2, o2) = pt.unmap(VirtPageNum(9));
        assert!(old2.is_empty());
        assert_eq!(o2, SetOutcome::default());
    }

    #[test]
    fn attached_leaf_reads_through() {
        let mut shared = PtLeaf::new();
        shared.set(3, pte(77).with_flags(PteFlags::CKPT_PIN));
        let shared = Arc::new(shared);
        let mut pt = PageTable::new();
        let dirs = pt.attach_leaf(
            0,
            AttachedLeaf {
                leaf: Arc::clone(&shared),
                backing: CxlPageId(1),
            },
        );
        assert_eq!(dirs, 2);
        assert_eq!(pt.get(VirtPageNum(3)).target(), pte(77).target());
        assert_eq!(pt.attached_leaf_count(), 1);
    }

    #[test]
    fn write_to_attached_leaf_triggers_leaf_cow_and_preserves_sharers() {
        let mut shared = PtLeaf::new();
        shared.set(0, pte(10).with_flags(PteFlags::CKPT_PIN));
        shared.set(1, pte(11).with_flags(PteFlags::CKPT_PIN));
        let shared = Arc::new(shared);

        let mut pt_a = PageTable::new();
        let mut pt_b = PageTable::new();
        for pt in [&mut pt_a, &mut pt_b] {
            pt.attach_leaf(
                0,
                AttachedLeaf {
                    leaf: Arc::clone(&shared),
                    backing: CxlPageId(1),
                },
            );
        }

        let o = pt_a.set(VirtPageNum(0), pte(99));
        assert!(o.leaf_cow);
        assert_eq!(pt_a.leaf_cow_events(), 1);
        assert_eq!(pt_a.get(VirtPageNum(0)), pte(99));
        // The copy keeps the untouched neighbour entry, minus the pin.
        assert_eq!(pt_a.get(VirtPageNum(1)).target(), pte(11).target());
        assert!(!pt_a
            .get(VirtPageNum(1))
            .flags()
            .contains(PteFlags::CKPT_PIN));
        // The other sharer and the checkpoint itself are unaffected.
        assert_eq!(pt_b.get(VirtPageNum(0)).target(), pte(10).target());
        assert!(pt_b.leaf_for(VirtPageNum(0)).unwrap().is_attached());
        assert_eq!(shared.get(0).target(), pte(10).target());
        // Second write to the same (now local) leaf: no second CoW.
        let o2 = pt_a.set(VirtPageNum(5), pte(55));
        assert!(!o2.leaf_cow);
    }

    #[test]
    fn accessed_bits_work_on_attached_leaves_without_cow() {
        let mut shared = PtLeaf::new();
        shared.set(7, pte(1));
        let shared = Arc::new(shared);
        let mut pt = PageTable::new();
        pt.attach_leaf(
            0,
            AttachedLeaf {
                leaf: Arc::clone(&shared),
                backing: CxlPageId(0),
            },
        );
        assert!(!pt.is_accessed(VirtPageNum(7)));
        pt.leaf_for(VirtPageNum(7)).unwrap().access_bits().set(7);
        assert!(pt.is_accessed(VirtPageNum(7)));
        // The A bit is visible through the shared checkpoint leaf (hybrid
        // tiering's continuous working-set monitor reads it there).
        assert!(shared.access_bits().get(7));
        // And user space can reset it.
        shared.access_bits().clear_all();
        assert!(!pt.is_accessed(VirtPageNum(7)));
        // No leaf CoW happened.
        assert_eq!(pt.leaf_cow_events(), 0);
        assert!(pt.leaf_for(VirtPageNum(7)).unwrap().is_attached());
    }

    #[test]
    fn dirty_marking_only_touches_local_leaves() {
        let mut pt = PageTable::new();
        pt.set(VirtPageNum(4), pte(4));
        pt.leaf_for_mut(VirtPageNum(4)).unwrap().mark_dirty(4);
        assert!(pt.get(VirtPageNum(4)).is_dirty());

        let mut shared = PtLeaf::new();
        shared.set(0, pte(1));
        let shared = Arc::new(shared);
        let mut pt2 = PageTable::new();
        pt2.attach_leaf(
            1,
            AttachedLeaf {
                leaf: Arc::clone(&shared),
                backing: CxlPageId(0),
            },
        );
        pt2.leaf_for_mut(VirtPageNum(512)).unwrap().mark_dirty(0);
        assert!(
            !pt2.get(VirtPageNum(512)).is_dirty(),
            "attached D bits never update"
        );
    }

    #[test]
    fn iter_populated_reconstructs_vpns() {
        let mut pt = PageTable::new();
        let vpns = [5u64, 600, (2 << 18) + 9];
        for &v in &vpns {
            pt.set(VirtPageNum(v), pte(v));
        }
        let got: Vec<u64> = pt.iter_populated().map(|(v, _)| v.0).collect();
        assert_eq!(got, vec![5, 600, (2 << 18) + 9]);
        assert_eq!(pt.leaves().count(), 3);
    }

    #[test]
    fn install_local_leaf_replaces_slot() {
        let mut pt = PageTable::new();
        let mut leaf = PtLeaf::new();
        leaf.set(1, pte(42));
        pt.install_local_leaf(2, leaf);
        assert_eq!(pt.get(VirtPageNum((2 << 9) | 1)), pte(42));
        assert_eq!(pt.attached_leaf_count(), 0);
    }

    #[test]
    fn access_bits_count_and_clear() {
        let b = AccessBits::new();
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(511);
        assert_eq!(b.count(), 4);
        assert!(b.get(63) && b.get(64));
        assert!(!b.get(1));
        let c = b.clone();
        b.clear_all();
        assert_eq!(b.count(), 0);
        assert_eq!(c.count(), 4, "clone is independent");
    }
}
