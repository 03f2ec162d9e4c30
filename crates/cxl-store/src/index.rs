//! The refcounted content index: a slab of `{fingerprint, page, refs}`
//! entries addressed by [`Slot`], plus an ordered hash table of
//! `(fingerprint, slot)` cells that is consulted only to *find* content
//! by fingerprint.
//!
//! Images reference content by slot, so taking and dropping references is
//! an array index; the table is probed once per run of equal fingerprints
//! when content is interned, and touched again only when an entry's count
//! reaches zero. Nothing outside this module sees the table.
//!
//! The table is linear probing ordered as in Amble and Knuth's ordered
//! hash tables. A fingerprint's home cell is its top `home_bits` bits, so
//! homes rise with fingerprints; every run of occupied cells is kept in
//! ascending order (an insert shifts the rest of its run one cell right,
//! a removal shifts displaced cells back); cells past the last home form
//! a tail that grows as needed, so runs never wrap. Then the occupied
//! cells, read front to back, are in fingerprint order: a sorted array
//! with gaps. Find, insert and remove stop at the first cell not below
//! the fingerprint, in expected O(1) probes at the load kept (the table
//! doubles before it is half full). Skewed fingerprints cost only time —
//! one long run behaves like a sorted array's shifting — never a wrong
//! answer.
//!
//! Slot numbers are host-side names and never observable: every view of
//! the index handed out ([`ContentIndex::iter`]) is in fingerprint order,
//! journal records carry the fingerprint read back through the slot, and
//! pages are freed in the order their last reference is dropped — so the
//! order slots are handed out in cannot reach journal bytes, device page
//! ids, or recovery.

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

/// One cell of the ordered table: a fingerprint and the slot holding its
/// entry, or [`EMPTY`].
#[derive(Debug, Clone, Copy)]
struct Cell {
    fingerprint: u64,
    slot: Slot,
}

/// The slot of a cell that holds nothing (the slab never grows this long).
const EMPTY: Slot = Slot::MAX;

const VACANT: Cell = Cell {
    fingerprint: 0,
    slot: EMPTY,
};

/// Home bits of the first table: 16 homes.
const FIRST_HOME_BITS: u32 = 4;

/// Tail cells a table has room for before a push past its end would
/// double its allocation. Under fingerprints drawn uniformly a tail is a
/// few cells long.
const TAIL_ROOM: usize = 64;

#[derive(Debug, Default)]
pub(crate) struct ContentIndex {
    entries: Vec<Entry>,
    /// Vacated slab positions, reused last-in first-out before the slab
    /// grows.
    free: Vec<Slot>,
    /// The ordered table: `1 << home_bits` home cells, then the tail.
    /// Empty until the first insert.
    cells: Vec<Cell>,
    home_bits: u32,
    /// Occupied cells.
    len: usize,
}

impl ContentIndex {
    /// The home cell of `fingerprint`: its top `home_bits` bits.
    fn home(&self, fingerprint: u64) -> usize {
        fingerprint.checked_shr(64 - self.home_bits).unwrap_or(0) as usize
    }

    /// The cell holding `fingerprint` (`Ok`), or the cell it belongs in
    /// (`Err`): the first one from its home on that is empty or holds a
    /// larger fingerprint.
    fn search(&self, fingerprint: u64) -> Result<usize, usize> {
        let mut at = self.home(fingerprint);
        while let Some(cell) = self.cells.get(at) {
            if cell.slot == EMPTY || cell.fingerprint > fingerprint {
                return Err(at);
            }
            if cell.fingerprint == fingerprint {
                return Ok(at);
            }
            at += 1;
        }
        Err(at)
    }

    /// Puts `cell` at `at`, shifting the rest of its run one cell right
    /// (into the tail if the run reaches the end).
    fn insert_at(&mut self, at: usize, cell: Cell) {
        let gap = (self.cells[at..].iter())
            .position(|c| c.slot == EMPTY)
            .map_or(self.cells.len(), |i| at + i);
        if gap == self.cells.len() {
            self.cells.push(VACANT);
        }
        self.cells.copy_within(at..gap, at + 1);
        self.cells[at] = cell;
        self.len += 1;
    }

    /// Empties the cell at `at`, shifting the displaced cells after it
    /// back one cell each until one sits at its home or the run ends.
    fn remove_at(&mut self, at: usize) {
        let mut hole = at;
        while let Some(&next) = self.cells.get(hole + 1) {
            if next.slot == EMPTY || self.home(next.fingerprint) > hole {
                break;
            }
            self.cells[hole] = next;
            hole += 1;
        }
        self.cells[hole] = VACANT;
        self.len -= 1;
    }

    /// Rebuilds the table with twice the homes in one ascending pass:
    /// each cell lands at its home or just past the one before it.
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.cells);
        self.home_bits = (self.home_bits + 1).max(FIRST_HOME_BITS);
        self.cells = Vec::with_capacity((1 << self.home_bits) + TAIL_ROOM);
        self.cells.resize(1 << self.home_bits, VACANT);
        let mut next = 0;
        for cell in old.into_iter().filter(|c| c.slot != EMPTY) {
            let at = self.home(cell.fingerprint).max(next);
            if at == self.cells.len() {
                self.cells.push(VACANT);
            }
            self.cells[at] = cell;
            next = at + 1;
        }
    }

    /// The slot holding `fingerprint`, if indexed.
    pub(crate) fn find(&self, fingerprint: u64) -> Option<Slot> {
        self.search(fingerprint).ok().map(|at| self.cells[at].slot)
    }

    /// The slot holding `fingerprint` — with one table search — reserving
    /// a slot with no page and no references when the content is new
    /// (`true`). A reserved slot must be [bound](Self::bind) or
    /// [given back](Self::vacate) before anyone else sees the index.
    pub(crate) fn find_or_reserve(&mut self, fingerprint: u64) -> (Slot, bool) {
        let at = match self.search(fingerprint) {
            Ok(at) => return (self.cells[at].slot, false),
            // At most half the homes taken; the empty table (no home
            // bits) always grows first.
            Err(at) if 2 * (self.len + 1) <= 1 << self.home_bits => at,
            Err(_) => {
                self.grow();
                self.search(fingerprint).unwrap_or_else(|at| at)
            }
        };
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
        self.insert_at(at, Cell { fingerprint, slot });
        (slot, true)
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
    /// Slots are queued for reuse in fingerprint order.
    pub(crate) fn drop_unreferenced(&mut self) {
        let mut at = 0;
        while let Some(&cell) = self.cells.get(at) {
            if cell.slot != EMPTY && self.entries[cell.slot as usize].refs == 0 {
                // The next cell of the run, if any, shifts into `at`.
                self.remove_at(at);
                self.free.push(cell.slot);
            } else {
                at += 1;
            }
        }
    }

    /// Forgets the content in `slot` and queues the slot for reuse. Also
    /// how a failed attempt gives its reserved slots back: undone in
    /// reverse order, the next attempt is handed the same slots again.
    pub(crate) fn vacate(&mut self, slot: Slot) {
        if let Ok(at) = self.search(self.entries[slot as usize].fingerprint) {
            self.remove_at(at);
        }
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
        self.len
    }

    /// Slab positions ever handed out (occupied plus vacated).
    pub(crate) fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Every entry, fingerprint-ordered: the occupied cells front to
    /// back.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = IndexEntrySnapshot> + '_ {
        Occupied::new(&self.cells, self.len).map(|cell| {
            let entry = &self.entries[cell.slot as usize];
            IndexEntrySnapshot {
                fingerprint: cell.fingerprint,
                page: entry.page,
                refs: entry.refs,
            }
        })
    }
}

/// The occupied cells of a table, front to back, counted. Occupancy is
/// read a block of 64 cells at a time into a mask whose set bits are then
/// visited in order, so the scan does not branch on every cell.
struct Occupied<'a> {
    cells: &'a [Cell],
    /// First cell of the block `mask` describes.
    base: usize,
    /// The block's occupied cells not visited yet.
    mask: u64,
    /// Occupied cells not visited yet.
    left: usize,
}

impl<'a> Occupied<'a> {
    fn new(cells: &'a [Cell], len: usize) -> Self {
        Occupied {
            cells,
            base: 0,
            mask: occupancy(&cells[..cells.len().min(64)]),
            left: len,
        }
    }
}

/// Bit `i` set iff `block[i]` is occupied.
fn occupancy(block: &[Cell]) -> u64 {
    (block.iter().enumerate()).fold(0, |mask, (i, c)| mask | u64::from(c.slot != EMPTY) << i)
}

impl Iterator for Occupied<'_> {
    type Item = Cell;

    fn next(&mut self) -> Option<Cell> {
        while self.mask == 0 {
            // An occupied cell is left, so a later block holds it.
            if self.left == 0 {
                return None;
            }
            self.base += 64;
            let end = self.cells.len().min(self.base + 64);
            self.mask = occupancy(&self.cells[self.base..end]);
        }
        let at = self.base + self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        self.left -= 1;
        Some(self.cells[at])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Occupied<'_> {}

#[cfg(test)]
mod tests;
