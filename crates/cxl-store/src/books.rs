//! The store's books — content index, image table, next image id — and
//! the one function that changes them.
//!
//! A journal record *is* the description of a mutation: the live store
//! appends it and then calls [`Books::apply`]; [`crate::Store::recover`]
//! decodes it from the device and calls the same [`Books::apply`]. There
//! is no second set of transitions for replay to drift from. What a
//! record frees is not the books' to do: `apply` returns the [`Effects`]
//! the device is still owed, the live mutator pays them at once, and
//! replay drops the page list (it reconciles the device once, against the
//! final books) and keeps the doomed regions.
//!
//! The one exception is interning. Its live half is
//! [`crate::Store::intern_pages`] — device first, journal second, one
//! index probe per run of equal fingerprints — and only the replay half of
//! [`Record::Intern`] lives here.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use cxl_mem::{CxlPageId, NodeId, RegionId};
use simclock::{SimDuration, SimTime};

use crate::index::{ContentIndex, Slot};
use crate::journal::{self, ImageRecord, ImageRef, JournalEntry, Record};
use crate::{ImageId, IndexEntrySnapshot, StoreError};

/// Virtual time as wire-format nanoseconds since the epoch.
pub(crate) fn time_nanos(t: SimTime) -> u64 {
    t.duration_since(SimTime::ZERO).as_nanos()
}

/// Wire-format nanoseconds back to virtual time.
fn nanos_time(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

/// Where an image is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageState {
    /// Begun but not committed (mid-checkpoint): invisible to restores
    /// and to eviction.
    Pending,
    /// Published.
    Committed {
        /// The checkpoint's metadata region (leaves, VMA blocks, task,
        /// globals) — destroyed along with the image on eviction.
        meta_region: RegionId,
    },
}

/// Per-image entry of the image table.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageMeta {
    /// Human-readable label (mirrors the checkpoint region name).
    pub label: String,
    /// Node that took the checkpoint.
    pub owner: NodeId,
    /// Checkpoint epoch (the mechanism's sequence number).
    pub epoch: u64,
    /// Pinned images are never evicted.
    pub pinned: bool,
    /// A node currently depending on this image (running instances
    /// restored from it). While the holder's lease is live in the
    /// [`cxl_fault::LeaseTable`], the image is exempt from eviction.
    pub lease: Option<NodeId>,
    /// Virtual time the image was created.
    pub created_at: SimTime,
    /// Virtual time of the most recent restore (eviction is
    /// LRU-by-last-restore).
    pub last_restore: SimTime,
    /// Pending or committed.
    pub state: ImageState,
    /// Content-index slots referenced by this image, with multiplicity.
    pub(crate) slots: Vec<Slot>,
}

impl ImageMeta {
    /// The checkpoint's metadata region, once committed.
    pub fn meta_region(&self) -> Option<RegionId> {
        match self.state {
            ImageState::Pending => None,
            ImageState::Committed { meta_region } => Some(meta_region),
        }
    }

    /// Whether the image is published.
    pub(crate) fn is_committed(&self) -> bool {
        self.meta_region().is_some()
    }

    /// The record that takes this image out of the books: an abort while
    /// pending; once committed a release, or with `evict` an eviction.
    pub(crate) fn removal_record(&self, image: u64, evict: bool) -> Record {
        match self.state {
            ImageState::Pending => Record::Abort { image },
            ImageState::Committed { meta_region } if evict => Record::Evict {
                image,
                meta_region: meta_region.0,
            },
            ImageState::Committed { meta_region } => Record::Release {
                image,
                meta_region: meta_region.0,
            },
        }
    }

    /// The (owner, epoch) tags journal records about this image carry.
    pub(crate) fn tags(&self) -> (NodeId, u64) {
        (self.owner, self.epoch)
    }
}

/// What the device is still owed after a record was applied.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Effects {
    /// Data pages nobody references any more, in the order the last
    /// reference to each was dropped — the order the allocator will hand
    /// them out again.
    pub free: Vec<CxlPageId>,
    /// The removed image's metadata region. An eviction destroys it, a
    /// release leaves it to the mechanism that owns it, and recovery
    /// destroys it for whichever of the two died first.
    pub doomed_meta: Option<RegionId>,
}

/// The store's whole DRAM state that the journal describes.
#[derive(Debug)]
pub struct Books {
    /// Refcounted content: fingerprint → device page.
    pub(crate) index: ContentIndex,
    /// Every pending and committed image, by id.
    pub(crate) images: BTreeMap<u64, ImageMeta>,
    pub(crate) next_image: u64,
}

impl Default for Books {
    fn default() -> Self {
        Books {
            index: ContentIndex::default(),
            images: BTreeMap::new(),
            next_image: 1,
        }
    }
}

/// Drops one reference per listed slot; returns the device pages whose
/// last reference that was, in drop order.
pub(crate) fn drop_slot_refs(index: &mut ContentIndex, slots: &[Slot]) -> Vec<CxlPageId> {
    slots
        .iter()
        .filter_map(|&slot| index.release(slot))
        .collect()
}

impl Books {
    /// Performs `entry`'s effect on the books. Total: a record that does
    /// not fit the state it meets (forged, or its predecessor was lost)
    /// changes what it can and owes nothing.
    pub fn apply(&mut self, entry: &JournalEntry) -> Effects {
        let mut owed = Effects::default();
        match &entry.record {
            Record::Snapshot(s) => {
                self.next_image = s.next_image;
                self.index = ContentIndex::default();
                for &(fp, page) in &s.index {
                    let (slot, _) = self.index.find_or_reserve(fp);
                    self.index.bind(slot, CxlPageId(page));
                }
                let committed = |r: &ImageRecord| ImageState::Committed {
                    meta_region: RegionId(r.meta_region),
                };
                self.images = s
                    .catalog
                    .iter()
                    .map(|r| (r, committed(r)))
                    .chain(s.pending.iter().map(|r| (r, ImageState::Pending)))
                    .map(|(r, state)| (r.id, self.image_from_record(r, state)))
                    .collect();
            }
            Record::Begin {
                image,
                created_at,
                label,
            } => {
                self.next_image = self.next_image.max(image + 1);
                let created_at = nanos_time(*created_at);
                self.images.insert(
                    *image,
                    ImageMeta {
                        label: label.clone(),
                        owner: NodeId(entry.owner),
                        epoch: entry.epoch,
                        pinned: false,
                        lease: None,
                        created_at,
                        last_restore: created_at,
                        state: ImageState::Pending,
                        slots: Vec::new(),
                    },
                );
            }
            Record::Intern { image, entries } => {
                // A record for an image that is not pending still counts
                // against the index: references nobody holds, so nobody
                // drops.
                let mut held = self.images.get_mut(image).filter(|m| !m.is_committed());
                for &(fp, page) in entries {
                    let (slot, fresh) = self.index.find_or_reserve(fp);
                    if fresh {
                        self.index.bind(slot, CxlPageId(page));
                    }
                    self.index.add_refs(slot, 1);
                    if let Some(meta) = held.as_deref_mut() {
                        meta.slots.push(slot);
                    }
                }
            }
            Record::Commit { image, meta_region } => {
                if let Some(meta) = self.in_state(*image, false) {
                    meta.state = ImageState::Committed {
                        meta_region: RegionId(*meta_region),
                    };
                }
            }
            Record::Abort { image } => owed.free = self.remove(*image, false),
            Record::Release { image, meta_region } | Record::Evict { image, meta_region } => {
                owed.free = self.remove(*image, true);
                owed.doomed_meta = Some(RegionId(*meta_region));
            }
            Record::SetPinned { image, pinned } => {
                if let Some(meta) = self.in_state(*image, true) {
                    meta.pinned = *pinned;
                }
            }
            Record::SetLease { image, holder } => {
                if let Some(meta) = self.in_state(*image, true) {
                    meta.lease = holder.map(NodeId);
                }
            }
        }
        owed
    }

    /// Rehydrates a snapshot's image record, taking one reference per
    /// fingerprint. A fingerprint the snapshot's own index does not list
    /// (corrupt journal) holds no reference.
    fn image_from_record(&mut self, r: &ImageRecord, state: ImageState) -> ImageMeta {
        let slots = r
            .fingerprints
            .iter()
            .filter_map(|&fp| {
                let slot = self.index.find(fp)?;
                self.index.add_refs(slot, 1);
                Some(slot)
            })
            .collect();
        ImageMeta {
            label: r.label.clone(),
            owner: NodeId(r.owner),
            epoch: r.epoch,
            pinned: r.pinned,
            lease: r.lease.map(NodeId),
            created_at: nanos_time(r.created_at),
            last_restore: nanos_time(r.last_restore),
            state,
            slots,
        }
    }

    /// The entry for `image` if it is committed (`true`) or pending
    /// (`false`) as asked.
    pub(crate) fn in_state(&mut self, image: u64, committed: bool) -> Option<&mut ImageMeta> {
        self.images
            .get_mut(&image)
            .filter(|m| m.is_committed() == committed)
    }

    /// Forgets `image` if it is in the state asked for and drops its
    /// references; returns the pages that orphaned.
    fn remove(&mut self, image: u64, committed: bool) -> Vec<CxlPageId> {
        match self.images.entry(image) {
            Entry::Occupied(e) if e.get().is_committed() == committed => {
                drop_slot_refs(&mut self.index, &e.remove().slots)
            }
            _ => Vec::new(),
        }
    }

    /// What a live mutator validates before it journals anything: the
    /// entry for `image` if it is committed / pending as `op` needs, the
    /// typed refusal otherwise.
    pub(crate) fn require(
        &self,
        image: ImageId,
        committed: bool,
        op: &'static str,
    ) -> Result<&ImageMeta, StoreError> {
        match self.images.get(&image.0) {
            None => Err(StoreError::UnknownImage { image, op }),
            Some(meta) if meta.is_committed() == committed => Ok(meta),
            Some(_) if committed => Err(StoreError::NotCommitted { image, op }),
            Some(_) => Err(StoreError::AlreadyCommitted { image, op }),
        }
    }

    /// Committed images, ascending by id.
    pub(crate) fn committed(&self) -> impl Iterator<Item = (u64, &ImageMeta)> {
        self.images
            .iter()
            .filter(|(_, m)| m.is_committed())
            .map(|(&id, m)| (id, m))
    }

    /// Ids of the pending images `orphaned` picks, ascending.
    pub(crate) fn pending_where(&self, orphaned: impl Fn(&ImageMeta) -> bool) -> Vec<u64> {
        self.images
            .iter()
            .filter(|(_, m)| !m.is_committed() && orphaned(m))
            .map(|(&id, _)| id)
            .collect()
    }

    /// The id the next `Begin` will carry.
    pub fn next_image(&self) -> u64 {
        self.next_image
    }

    /// The content index, fingerprint-ordered.
    pub fn index_snapshot(&self) -> Vec<IndexEntrySnapshot> {
        self.index.iter().collect()
    }

    /// Reference counts the index *should* hold, recomputed from the
    /// image table (fingerprint → multiplicity).
    pub fn live_reference_counts(&self) -> BTreeMap<u64, u64> {
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for &slot in self.images.values().flat_map(|m| &m.slots) {
            *counts.entry(self.index.fingerprint(slot)).or_insert(0) += 1;
        }
        counts
    }

    /// Every image as the snapshot encoder reads it — committed ones,
    /// then pending ones, each list ascending by id — with fingerprints
    /// read back through the slots in intern order.
    fn image_refs(&self) -> [Vec<ImageRef<'_, impl ExactSizeIterator<Item = u64> + '_>>; 2] {
        let mut lists = [Vec::new(), Vec::new()];
        for (&id, m) in &self.images {
            lists[usize::from(!m.is_committed())].push(ImageRef {
                id,
                label: &m.label,
                owner: m.owner.0,
                epoch: m.epoch,
                pinned: m.pinned,
                lease: m.lease.map(|n| n.0),
                created_at: time_nanos(m.created_at),
                last_restore: time_nanos(m.last_restore),
                meta_region: m.meta_region().map(|r| r.0),
                fingerprints: m.slots.iter().map(|&slot| self.index.fingerprint(slot)),
            });
        }
        lists
    }

    /// Stream bytes of the snapshot record [`Books::encode_snapshot`]
    /// writes, framing and commit marker included.
    pub(crate) fn snapshot_len(&self) -> u64 {
        journal::snapshot_record_len(self.index.len(), self.image_refs().iter().flatten())
    }

    /// Appends the books as a compaction snapshot's payload: index entries
    /// in fingerprint order, then the image lists.
    pub fn encode_snapshot(&self, buf: &mut Vec<u8>) {
        let [committed, pending] = self.image_refs();
        let images = committed.iter().chain(&pending);
        buf.reserve(journal::snapshot_record_len(self.index.len(), images) as usize);
        journal::encode_snapshot_into(
            buf,
            self.next_image,
            self.index.iter().map(|e| (e.fingerprint, e.page.0)),
            committed.into_iter(),
            pending.into_iter(),
        );
    }
}
