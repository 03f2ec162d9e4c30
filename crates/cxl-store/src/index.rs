//! The refcounted content index: a slab of `{fingerprint, page, refs}`
//! entries addressed by [`Slot`], plus an ordered map that is consulted
//! only to *find* content by fingerprint.
//!
//! Images reference content by slot, so taking and dropping references is
//! an array index; the map is probed once per run of equal fingerprints
//! when content is interned, and touched again only when an entry's count
//! reaches zero. Nothing outside this module sees the map.
//!
//! Slot numbers are host-side names and never observable: every view of
//! the index handed out ([`ContentIndex::iter`]) is in fingerprint order,
//! journal records carry the fingerprint read back through the slot, and
//! pages are freed in the order their last reference is dropped — so the
//! order slots are handed out in cannot reach journal bytes, device page
//! ids, or recovery.

use std::collections::btree_map::Entry as MapEntry;
use std::collections::BTreeMap;

use cxl_mem::CxlPageId;

use crate::IndexEntrySnapshot;

/// Position of an entry in the slab.
pub(crate) type Slot = u32;

#[derive(Debug)]
struct Entry {
    fingerprint: u64,
    page: CxlPageId,
    refs: u64,
}

/// Device page of an entry that is reserved but not yet bound, or free.
const NO_PAGE: CxlPageId = CxlPageId(u64::MAX);

#[derive(Debug, Default)]
pub(crate) struct ContentIndex {
    entries: Vec<Entry>,
    /// Vacated slab positions, reused last-in first-out before the slab
    /// grows.
    free: Vec<Slot>,
    by_fingerprint: BTreeMap<u64, Slot>,
}

impl ContentIndex {
    /// The slot holding `fingerprint`, if indexed.
    pub(crate) fn find(&self, fingerprint: u64) -> Option<Slot> {
        self.by_fingerprint.get(&fingerprint).copied()
    }

    /// The slot holding `fingerprint` — with one map probe — reserving a
    /// slot with no page and no references when the content is new
    /// (`true`). A reserved slot must be [bound](Self::bind) or
    /// [given back](Self::vacate) before anyone else sees the index.
    pub(crate) fn find_or_reserve(&mut self, fingerprint: u64) -> (Slot, bool) {
        match self.by_fingerprint.entry(fingerprint) {
            MapEntry::Occupied(found) => (*found.get(), false),
            MapEntry::Vacant(vacant) => {
                let entry = Entry {
                    fingerprint,
                    page: NO_PAGE,
                    refs: 0,
                };
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.entries[slot as usize] = entry;
                        slot
                    }
                    None => {
                        self.entries.push(entry);
                        (self.entries.len() - 1) as Slot
                    }
                };
                vacant.insert(slot);
                (slot, true)
            }
        }
    }

    /// Names the device page behind a reserved slot.
    pub(crate) fn bind(&mut self, slot: Slot, page: CxlPageId) {
        self.entries[slot as usize].page = page;
    }

    /// Takes `n` more references on `slot`; returns its device page.
    pub(crate) fn add_refs(&mut self, slot: Slot, n: u64) -> CxlPageId {
        let entry = &mut self.entries[slot as usize];
        entry.refs += n;
        entry.page
    }

    /// Drops one reference on `slot`. The last one forgets the content
    /// and returns the device page that held it.
    pub(crate) fn release(&mut self, slot: Slot) -> Option<CxlPageId> {
        let entry = &mut self.entries[slot as usize];
        entry.refs -= 1;
        if entry.refs > 0 {
            return None;
        }
        let page = entry.page;
        self.vacate(slot);
        Some(page)
    }

    /// Forgets every entry nobody references (replay's final sweep).
    pub(crate) fn drop_unreferenced(&mut self) {
        let entries = &self.entries;
        let free = &mut self.free;
        self.by_fingerprint.retain(|_, &mut slot| {
            let keep = entries[slot as usize].refs > 0;
            if !keep {
                free.push(slot);
            }
            keep
        });
    }

    /// Forgets the content in `slot` and queues the slot for reuse. Also
    /// how a failed attempt gives its reserved slots back: undone in
    /// reverse order, the next attempt is handed the same slots again.
    pub(crate) fn vacate(&mut self, slot: Slot) {
        self.by_fingerprint
            .remove(&self.entries[slot as usize].fingerprint);
        self.free.push(slot);
    }

    /// The fingerprint of the content in `slot`.
    pub(crate) fn fingerprint(&self, slot: Slot) -> u64 {
        self.entries[slot as usize].fingerprint
    }

    /// Overwrites the count of `slot` (test hook).
    pub(crate) fn set_refs(&mut self, slot: Slot, refs: u64) {
        self.entries[slot as usize].refs = refs;
    }

    /// Indexed contents.
    pub(crate) fn len(&self) -> usize {
        self.by_fingerprint.len()
    }

    /// Slab positions ever handed out (occupied plus vacated).
    pub(crate) fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Every entry, fingerprint-ordered.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = IndexEntrySnapshot> + '_ {
        self.by_fingerprint.iter().map(|(&fingerprint, &slot)| {
            let entry = &self.entries[slot as usize];
            IndexEntrySnapshot {
                fingerprint,
                page: entry.page,
                refs: entry.refs,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vacated_slots_are_reused_before_the_slab_grows() {
        let mut index = ContentIndex::default();
        let slots: Vec<Slot> = (10..14u64)
            .map(|fp| {
                let (slot, fresh) = index.find_or_reserve(fp);
                assert!(fresh);
                index.bind(slot, CxlPageId(fp * 2));
                index.add_refs(slot, 1);
                slot
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        assert_eq!(index.find_or_reserve(12), (2, false));

        assert_eq!(index.release(1), Some(CxlPageId(22)));
        assert_eq!(index.release(3), Some(CxlPageId(26)));
        assert_eq!(index.find(11), None);
        // Last vacated, first reused; then the other hole; then growth.
        assert_eq!(index.find_or_reserve(99), (3, true));
        assert_eq!(index.find_or_reserve(98), (1, true));
        assert_eq!(index.find_or_reserve(97), (4, true));
        assert_eq!(index.slots(), 5);
    }

    #[test]
    fn vacating_reservations_in_reverse_hands_the_same_slots_out_again() {
        let mut index = ContentIndex::default();
        for fp in 0..3u64 {
            let (slot, _) = index.find_or_reserve(fp);
            index.bind(slot, CxlPageId(fp));
            index.add_refs(slot, 1);
        }
        index.release(1);
        let reserved: Vec<Slot> = [7u64, 8]
            .iter()
            .map(|&fp| index.find_or_reserve(fp).0)
            .collect();
        assert_eq!(reserved, vec![1, 3]);
        for &slot in reserved.iter().rev() {
            index.vacate(slot);
        }
        assert_eq!(index.len(), 2);
        assert_eq!(index.find(7), None);
        // The same attempt again is handed the same slots.
        assert_eq!(index.find_or_reserve(7), (1, true));
        assert_eq!(index.find_or_reserve(8), (3, true));
    }

    #[test]
    fn iteration_is_fingerprint_ordered_whatever_the_slot_order() {
        let mut index = ContentIndex::default();
        for fp in [30u64, 10, 20] {
            let (slot, _) = index.find_or_reserve(fp);
            index.bind(slot, CxlPageId(fp + 1));
            index.add_refs(slot, fp);
        }
        let seen: Vec<_> = (index.iter())
            .map(|e| (e.fingerprint, e.page, e.refs))
            .collect();
        assert_eq!(
            seen,
            vec![
                (10, CxlPageId(11), 10),
                (20, CxlPageId(21), 20),
                (30, CxlPageId(31), 30)
            ]
        );
    }
}
