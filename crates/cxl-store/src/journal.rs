//! Device-resident write-ahead journal for store metadata.
//!
//! The store's content index, image catalog, and pin/lease state live in
//! coordinator DRAM; the paper's durability claim — images in
//! fabric-attached memory survive the node that made them — is only as
//! good as the metadata needed to *find* them. A durable store therefore
//! logs every mutation to a journal held in a dedicated
//! [`cxl_mem::RegionKind::Metadata`] region on the device itself, so any
//! surviving node can rebuild the catalog after the coordinator dies
//! ([`crate::Store::recover`]).
//!
//! # On-device layout
//!
//! Each journal *generation* is one metadata region named
//! `cxl-store:journal#<gen>` holding:
//!
//! * a **superblock page** — `[magic "CXLS"][generation u64]
//!   [page count u32][data page ids u64...]` — the only discovery root a
//!   recovering node needs (device page ids are not contiguous, so the
//!   byte order of the log is recorded in-band);
//! * **data pages** carrying the record stream.
//!
//! # Record format
//!
//! Records are byte-stable little-endian, in the style of `rfork::wire`:
//!
//! ```text
//! record  := [magic u32 "CXLJ"] [len u32] [payload; len bytes] [marker u8 = 0xA5]
//! payload := [tag u8] [seq u64] [owner u32] [epoch u64] [per-type fields]
//! ```
//!
//! The trailing **commit marker** is written in a *separate* device write
//! from the header+payload, so a crash between the two leaves a real
//! torn tail: replay accepts a record only when its marker byte is
//! intact and truncates the log at the first record without one. Zero
//! bytes (freshly allocated pages are zeroed) terminate the log.
//!
//! # Ordering discipline
//!
//! * **Constructive** mutations (interning pages) touch the device
//!   first and journal second — a crash in between leaks device pages,
//!   which recovery detects (live data-region pages no journal record
//!   references) and frees.
//! * **Destructive** mutations (abort/release/evict) journal first and
//!   free second — a crash in between leaves the free half-done, which
//!   recovery finishes idempotently.
//!
//! Compaction rewrites the surviving state as one [`Record::Snapshot`]
//! into a *new* generation and destroys the old ones only after the new
//! superblock is durable; recovery picks the highest generation with a
//! valid superblock, so a crash at any point of compaction loses
//! nothing.

use cxl_mem::{CxlDevice, CxlError, CxlPageId, NodeId, PageData, RegionId, PAGE_SIZE};

/// Record magic: "CXLJ" little-endian.
const RECORD_MAGIC: u32 = 0x4A4C_5843;
/// Superblock magic: "CXLS" little-endian.
const SUPER_MAGIC: u32 = 0x534C_5843;
/// Data-page ids one superblock page holds behind its 16-byte header.
const SUPERBLOCK_MAX_PAGES: u64 = (PAGE_SIZE - 16) / 8;
/// Commit marker byte sealing a record.
const MARKER: u8 = 0xA5;
/// Region-name prefix for journal generations.
pub const JOURNAL_REGION_PREFIX: &str = "cxl-store:journal#";

/// Refuses a record stream of `bytes`: one generation's data pages must
/// all be listed in its single superblock page (chaining superblocks is
/// future work). Typed as the device exhaustion it is for the caller —
/// `requested` pages against the `available` list slots — and not
/// transient: the same stream is refused again until the journal is
/// compacted or the images shrink.
///
/// # Errors
///
/// [`CxlError::OutOfDeviceMemory`] when `bytes` needs more than
/// `SUPERBLOCK_MAX_PAGES` (510) data pages.
pub fn check_capacity(bytes: u64) -> Result<(), CxlError> {
    let requested = bytes.div_ceil(PAGE_SIZE);
    if requested > SUPERBLOCK_MAX_PAGES {
        return Err(CxlError::OutOfDeviceMemory {
            requested,
            available: SUPERBLOCK_MAX_PAGES,
        });
    }
    Ok(())
}

/// One journaled store mutation. Field order here is the wire order.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::exhaustive_enums,
    reason = "the journal wire format: a new record is a format change every replay match must see"
)]
pub enum Record {
    /// `begin_image`: a pending image was registered.
    Begin {
        /// Image id.
        image: u64,
        /// Creation virtual time, nanoseconds.
        created_at: u64,
        /// Image label.
        label: String,
    },
    /// `intern_pages`: content references were published. Entries carry
    /// the fingerprint → device-page binding **with multiplicity** (a
    /// dedup hit repeats an existing binding), so replay rebuilds exact
    /// refcounts.
    Intern {
        /// Image id.
        image: u64,
        /// `(fingerprint, device page)` per input page, in input order.
        entries: Vec<(u64, u64)>,
    },
    /// `commit_image`: a pending image moved to the catalog.
    Commit {
        /// Image id.
        image: u64,
        /// The checkpoint's committed metadata region.
        meta_region: u64,
    },
    /// `abort_image`: a pending image was abandoned.
    Abort {
        /// Image id.
        image: u64,
    },
    /// `release_image`: a committed image was released by its owner.
    Release {
        /// Image id.
        image: u64,
        /// Metadata region the mechanism will destroy; recovery destroys
        /// it if the crash landed between journal and destruction.
        meta_region: u64,
    },
    /// Watermark/GC eviction of a committed image.
    Evict {
        /// Image id.
        image: u64,
        /// Metadata region the eviction destroys.
        meta_region: u64,
    },
    /// `set_pinned`.
    SetPinned {
        /// Image id.
        image: u64,
        /// New pin state.
        pinned: bool,
    },
    /// `set_lease`.
    SetLease {
        /// Image id.
        image: u64,
        /// New lease holder (`None` clears).
        holder: Option<u32>,
    },
    /// Compaction: the complete surviving state. Replay resets to this
    /// and continues with any records after it.
    Snapshot(SnapshotState),
}

impl Record {
    const TAG_BEGIN: u8 = 1;
    const TAG_INTERN: u8 = 2;
    const TAG_COMMIT: u8 = 3;
    const TAG_ABORT: u8 = 4;
    const TAG_RELEASE: u8 = 5;
    const TAG_EVICT: u8 = 6;
    const TAG_SET_PINNED: u8 = 7;
    const TAG_SET_LEASE: u8 = 8;
    const TAG_SNAPSHOT: u8 = 9;

    fn tag(&self) -> u8 {
        match self {
            Record::Begin { .. } => Self::TAG_BEGIN,
            Record::Intern { .. } => Self::TAG_INTERN,
            Record::Commit { .. } => Self::TAG_COMMIT,
            Record::Abort { .. } => Self::TAG_ABORT,
            Record::Release { .. } => Self::TAG_RELEASE,
            Record::Evict { .. } => Self::TAG_EVICT,
            Record::SetPinned { .. } => Self::TAG_SET_PINNED,
            Record::SetLease { .. } => Self::TAG_SET_LEASE,
            Record::Snapshot(_) => Self::TAG_SNAPSHOT,
        }
    }
}

/// The full store state carried by a [`Record::Snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotState {
    /// Next image id to hand out.
    pub next_image: u64,
    /// Content index: `(fingerprint, device page)`; refcounts are
    /// rebuilt from image multiplicities on replay.
    pub index: Vec<(u64, u64)>,
    /// Committed images.
    pub catalog: Vec<ImageRecord>,
    /// Pending images (mid-checkpoint at snapshot time).
    pub pending: Vec<ImageRecord>,
}

/// One image's catalog entry on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageRecord {
    /// Image id.
    pub id: u64,
    /// Label.
    pub label: String,
    /// Owning node.
    pub owner: u32,
    /// Checkpoint epoch.
    pub epoch: u64,
    /// Pin state.
    pub pinned: bool,
    /// Lease holder.
    pub lease: Option<u32>,
    /// Creation virtual time, nanoseconds.
    pub created_at: u64,
    /// Last-restore virtual time, nanoseconds.
    pub last_restore: u64,
    /// Metadata region id (`u64::MAX` while pending).
    pub meta_region: u64,
    /// Referenced fingerprints, with multiplicity.
    pub fingerprints: Vec<u64>,
}

/// A decoded record with its header tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Append sequence number (monotone within a generation).
    pub seq: u64,
    /// Node the mutation was performed on behalf of.
    pub owner: u32,
    /// Checkpoint epoch tag.
    pub epoch: u64,
    /// The mutation.
    pub record: Record,
}

// --- little-endian codec helpers -----------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len()).unwrap_or(u16::MAX);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&bytes[..len as usize]);
}

fn put_opt_u32(buf: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_u32(buf, v);
        }
        None => buf.push(0),
    }
}

/// An [`ImageRecord`] as the encoder reads it: borrowed, with the
/// fingerprints as an iterator, so the store can encode a snapshot from
/// its own books without first copying them into records.
#[derive(Debug)]
pub struct ImageRef<'a, F> {
    /// Image id.
    pub id: u64,
    /// Label.
    pub label: &'a str,
    /// Owning node.
    pub owner: u32,
    /// Checkpoint epoch.
    pub epoch: u64,
    /// Pin state.
    pub pinned: bool,
    /// Lease holder.
    pub lease: Option<u32>,
    /// Creation virtual time, nanoseconds.
    pub created_at: u64,
    /// Last-restore virtual time, nanoseconds.
    pub last_restore: u64,
    /// Metadata region id; `None` while pending (`u64::MAX` on the wire).
    pub meta_region: Option<u64>,
    /// Referenced fingerprints, with multiplicity.
    pub fingerprints: F,
}

impl ImageRecord {
    fn as_ref(&self) -> ImageRef<'_, impl ExactSizeIterator<Item = u64> + '_> {
        ImageRef {
            id: self.id,
            label: &self.label,
            owner: self.owner,
            epoch: self.epoch,
            pinned: self.pinned,
            lease: self.lease,
            created_at: self.created_at,
            last_restore: self.last_restore,
            meta_region: Some(self.meta_region),
            fingerprints: self.fingerprints.iter().copied(),
        }
    }
}

fn put_image_record(buf: &mut Vec<u8>, r: ImageRef<'_, impl ExactSizeIterator<Item = u64>>) {
    put_u64(buf, r.id);
    put_str(buf, r.label);
    put_u32(buf, r.owner);
    put_u64(buf, r.epoch);
    buf.push(u8::from(r.pinned));
    put_opt_u32(buf, r.lease);
    put_u64(buf, r.created_at);
    put_u64(buf, r.last_restore);
    put_u64(buf, r.meta_region.unwrap_or(u64::MAX));
    put_u32(buf, r.fingerprints.len() as u32);
    for fp in r.fingerprints {
        put_u64(buf, fp);
    }
}

/// The fields of a `Snapshot` record, from any source that can walk them.
fn put_snapshot<'a, F: ExactSizeIterator<Item = u64>>(
    buf: &mut Vec<u8>,
    next_image: u64,
    index: impl ExactSizeIterator<Item = (u64, u64)>,
    catalog: impl ExactSizeIterator<Item = ImageRef<'a, F>>,
    pending: impl ExactSizeIterator<Item = ImageRef<'a, F>>,
) {
    put_u64(buf, next_image);
    put_u32(buf, index.len() as u32);
    for (fp, page) in index {
        put_u64(buf, fp);
        put_u64(buf, page);
    }
    put_u32(buf, catalog.len() as u32);
    for r in catalog {
        put_image_record(buf, r);
    }
    put_u32(buf, pending.len() as u32);
    for r in pending {
        put_image_record(buf, r);
    }
}

/// The tags every payload starts with.
fn put_entry_header(buf: &mut Vec<u8>, tag: u8, seq: u64, owner: u32, epoch: u64) {
    buf.push(tag);
    put_u64(buf, seq);
    put_u32(buf, owner);
    put_u64(buf, epoch);
}

/// A bounds-checked little-endian reader; every getter returns `None`
/// past the end, so a torn payload can never panic the parser.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))? as usize;
        let bytes = self.take(len)?;
        Some(String::from_utf8_lossy(bytes).into_owned())
    }

    fn opt_u32(&mut self) -> Option<Option<u32>> {
        match self.u8()? {
            0 => Some(None),
            _ => Some(Some(self.u32()?)),
        }
    }

    fn image_record(&mut self) -> Option<ImageRecord> {
        Some(ImageRecord {
            id: self.u64()?,
            label: self.string()?,
            owner: self.u32()?,
            epoch: self.u64()?,
            pinned: self.u8()? != 0,
            lease: self.opt_u32()?,
            created_at: self.u64()?,
            last_restore: self.u64()?,
            meta_region: self.u64()?,
            fingerprints: self.list(Self::u64)?,
        })
    }

    /// A `u32` count, then that many items. The count is device bytes:
    /// it may claim anything, and must not size an allocation.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }
}

/// Encodes one entry's payload (tag + header tags + fields), without the
/// record framing.
pub fn encode_payload(entry: &JournalEntry) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_payload_into(&mut buf, entry);
    buf
}

/// [`encode_payload`] appending to `buf` — how the store frames records
/// straight into the journal mirror.
pub fn encode_payload_into(buf: &mut Vec<u8>, entry: &JournalEntry) {
    put_entry_header(buf, entry.record.tag(), entry.seq, entry.owner, entry.epoch);
    match &entry.record {
        Record::Begin {
            image,
            created_at,
            label,
        } => {
            put_u64(buf, *image);
            put_u64(buf, *created_at);
            put_str(buf, label);
        }
        Record::Intern { image, entries } => {
            put_u64(buf, *image);
            put_u32(buf, entries.len() as u32);
            for &(fp, page) in entries {
                put_u64(buf, fp);
                put_u64(buf, page);
            }
        }
        Record::Commit { image, meta_region }
        | Record::Release { image, meta_region }
        | Record::Evict { image, meta_region } => {
            put_u64(buf, *image);
            put_u64(buf, *meta_region);
        }
        Record::Abort { image } => put_u64(buf, *image),
        Record::SetPinned { image, pinned } => {
            put_u64(buf, *image);
            buf.push(u8::from(*pinned));
        }
        Record::SetLease { image, holder } => {
            put_u64(buf, *image);
            put_opt_u32(buf, *holder);
        }
        Record::Snapshot(s) => put_snapshot(
            buf,
            s.next_image,
            s.index.iter().copied(),
            s.catalog.iter().map(ImageRecord::as_ref),
            s.pending.iter().map(ImageRecord::as_ref),
        ),
    }
}

/// Appends the payload of a compaction's one entry — a
/// [`Record::Snapshot`] with `seq` 0, owner `u32::MAX`, epoch 0 — to
/// `buf`, walking the state where it lives instead of through a
/// [`SnapshotState`] copy of it. Byte-identical to
/// [`encode_payload_into`] on the equivalent owned entry.
pub fn encode_snapshot_into<'a, F: ExactSizeIterator<Item = u64>>(
    buf: &mut Vec<u8>,
    next_image: u64,
    index: impl ExactSizeIterator<Item = (u64, u64)>,
    catalog: impl ExactSizeIterator<Item = ImageRef<'a, F>>,
    pending: impl ExactSizeIterator<Item = ImageRef<'a, F>>,
) {
    put_entry_header(buf, Record::TAG_SNAPSHOT, 0, u32::MAX, 0);
    put_snapshot(buf, next_image, index, catalog, pending);
}

/// Stream bytes of the sealed record [`encode_snapshot_into`] produces for
/// `index_len` index entries and `images` — record framing and commit
/// marker included — so a caller can tell whether a compaction would fit
/// one generation without encoding it.
pub fn snapshot_record_len<'a, F: ExactSizeIterator<Item = u64> + 'a>(
    index_len: usize,
    images: impl Iterator<Item = &'a ImageRef<'a, F>>,
) -> u64 {
    // Fixed fields of put_image_record, then of frame + header + put_snapshot.
    let images: usize = images
        .map(|r| {
            let lease = if r.lease.is_some() { 5 } else { 1 };
            51 + r.label.len().min(usize::from(u16::MAX)) + lease + 8 * r.fingerprints.len()
        })
        .sum();
    (8 + 21 + 8 + 4 + 16 * index_len + 4 + 4 + images + 1) as u64
}

/// Decodes one payload. `None` on truncation or an unknown tag.
pub fn decode_payload(payload: &[u8]) -> Option<JournalEntry> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    let seq = r.u64()?;
    let owner = r.u32()?;
    let epoch = r.u64()?;
    let record = match tag {
        Record::TAG_BEGIN => Record::Begin {
            image: r.u64()?,
            created_at: r.u64()?,
            label: r.string()?,
        },
        Record::TAG_INTERN => Record::Intern {
            image: r.u64()?,
            entries: r.list(|r| Some((r.u64()?, r.u64()?)))?,
        },
        Record::TAG_COMMIT => Record::Commit {
            image: r.u64()?,
            meta_region: r.u64()?,
        },
        Record::TAG_ABORT => Record::Abort { image: r.u64()? },
        Record::TAG_RELEASE => Record::Release {
            image: r.u64()?,
            meta_region: r.u64()?,
        },
        Record::TAG_EVICT => Record::Evict {
            image: r.u64()?,
            meta_region: r.u64()?,
        },
        Record::TAG_SET_PINNED => Record::SetPinned {
            image: r.u64()?,
            pinned: r.u8()? != 0,
        },
        Record::TAG_SET_LEASE => Record::SetLease {
            image: r.u64()?,
            holder: r.opt_u32()?,
        },
        Record::TAG_SNAPSHOT => Record::Snapshot(SnapshotState {
            next_image: r.u64()?,
            index: r.list(|r| Some((r.u64()?, r.u64()?)))?,
            catalog: r.list(Reader::image_record)?,
            pending: r.list(Reader::image_record)?,
        }),
        _ => return None,
    };
    Some(JournalEntry {
        seq,
        owner,
        epoch,
        record,
    })
}

/// Result of parsing a raw journal byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedLog {
    /// Sealed (marker-intact) records, in append order.
    pub entries: Vec<JournalEntry>,
    /// Byte offset of the end of the last sealed record — where a
    /// recovered journal resumes appending.
    pub committed_bytes: u64,
    /// Bytes of torn tail truncated (a record fragment whose commit
    /// marker never landed). Zero for a cleanly sealed log.
    pub torn_bytes: u64,
}

/// Parses a journal byte stream, truncating at the first record whose
/// commit marker is missing or corrupt. Zero bytes terminate the log
/// cleanly (freshly allocated journal pages are zeroed).
pub fn parse_log(buf: &[u8]) -> ParsedLog {
    let mut entries = Vec::new();
    let mut pos = 0usize;
    let torn_bytes = loop {
        let remaining = &buf[pos..];
        let Some((header, _)) = remaining.split_first_chunk::<8>() else {
            // Not even a full header fits: any nonzero residue is a torn
            // header fragment.
            break trailing_nonzero(remaining);
        };
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if magic == 0 {
            // Freshly allocated pages are zeroed: clean end of log.
            break 0;
        }
        if magic != RECORD_MAGIC {
            // Corrupt header — no further record is sealed.
            break trailing_nonzero(remaining);
        }
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        let payload_end = pos + 8 + len;
        let sealed = buf.get(payload_end) == Some(&MARKER);
        let decoded = buf
            .get(pos + 8..payload_end)
            .and_then(decode_payload)
            .filter(|_| sealed);
        let Some(entry) = decoded else {
            // Header landed but the payload or marker did not: torn
            // tail. The header's length field bounds the fragment
            // (trailing payload bytes may legitimately be zero).
            break (8 + len).min(remaining.len()) as u64;
        };
        entries.push(entry);
        pos = payload_end + 1;
    };
    ParsedLog {
        entries,
        committed_bytes: pos as u64,
        torn_bytes,
    }
}

/// Length of `buf` up to and including its last nonzero byte.
fn trailing_nonzero(buf: &[u8]) -> u64 {
    buf.iter()
        .rposition(|&b| b != 0)
        .map_or(0, |i| i as u64 + 1)
}

/// Appends one unsealed record to `buf`: magic, length, then the payload
/// `encode` writes in place. Returns the record's byte offset.
fn frame_record(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
    let start = buf.len();
    put_u32(buf, RECORD_MAGIC);
    put_u32(buf, 0);
    encode(buf);
    let len = (buf.len() - start - 8) as u32;
    buf[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
    start as u64
}

// --- the device-resident log ---------------------------------------------

/// A live journal generation: the DRAM mirror plus the device region
/// backing it. All device traffic goes through the store's batched
/// `write_pages`/`read_pages` paths; the caller charges the virtual
/// clock for the page counts these methods return.
#[derive(Debug)]
pub struct Journal {
    region: RegionId,
    generation: u64,
    super_page: CxlPageId,
    data_pages: Vec<CxlPageId>,
    /// DRAM mirror of the record stream (excludes the superblock).
    buf: Vec<u8>,
    next_seq: u64,
}

impl Journal {
    /// Creates generation `generation` on `device`: a fresh metadata
    /// region with an empty superblock.
    ///
    /// # Errors
    ///
    /// Device allocation/write failures (including injected faults).
    pub fn create(device: &CxlDevice, generation: u64) -> Result<Journal, CxlError> {
        let (mut journal, _) = Journal::stage(device, generation, Vec::new(), 0)?;
        if let Err(e) = journal.publish(device) {
            let _ = journal.destroy(device);
            return Err(e);
        }
        Ok(journal)
    }

    /// Builds generation `generation` around the sealed record stream
    /// `buf` — region, data pages, bytes — but **no superblock**. Returns
    /// the journal plus pages written; on error nothing is left behind.
    fn stage(
        device: &CxlDevice,
        generation: u64,
        buf: Vec<u8>,
        next_seq: u64,
    ) -> Result<(Journal, u64), CxlError> {
        let end = buf.len() as u64;
        check_capacity(end)?;
        let region = device.create_region_meta(&format!("{JOURNAL_REGION_PREFIX}{generation}"));
        let pages = device.alloc_batch(region, 1 + end.div_ceil(PAGE_SIZE));
        let staged = pages.and_then(|pages| {
            let mut journal = Journal {
                region,
                generation,
                super_page: pages[0],
                data_pages: pages[1..].to_vec(),
                buf,
                next_seq,
            };
            let written = journal.flush_range(device, 0, end)?;
            Ok((journal, written))
        });
        if staged.is_err() {
            let _ = device.destroy_region(region);
        }
        staged
    }

    /// The generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Sequence number of the next record to be sealed.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn write_superblock(&mut self, device: &CxlDevice) -> Result<(), CxlError> {
        let mut sb = Vec::with_capacity(16 + 8 * self.data_pages.len());
        put_u32(&mut sb, SUPER_MAGIC);
        put_u64(&mut sb, self.generation);
        put_u32(&mut sb, self.data_pages.len() as u32);
        for p in &self.data_pages {
            put_u64(&mut sb, p.0);
        }
        device.write_pages_owned(
            vec![(self.super_page, PageData::from_bytes(&sb))],
            NodeId(u32::MAX),
        )?;
        Ok(())
    }

    /// Ensures the data pages cover `bytes` of record stream, updating
    /// the superblock when pages are added. Returns pages written.
    fn reserve(&mut self, device: &CxlDevice, bytes: u64) -> Result<u64, CxlError> {
        check_capacity(bytes)?;
        let need = bytes.div_ceil(PAGE_SIZE) as usize;
        if need <= self.data_pages.len() {
            return Ok(0);
        }
        let listed = self.data_pages.len();
        let fresh = device.alloc_batch(self.region, (need - listed) as u64)?;
        self.data_pages.extend(fresh);
        // Superblock first: a crash after this write but before the new
        // pages carry bytes just makes replay end at their zero fill.
        if let Err(e) = self.write_superblock(device) {
            // Not listed after all: a later append must not take the
            // pages for covered and write records where no reader looks.
            let _ = device.free_batch(&self.data_pages.split_off(listed));
            return Err(e);
        }
        Ok(1)
    }

    /// Writes the dirty byte range `[from, to)` of the mirror to the
    /// device, whole pages at a time. Each page is built once, here, and
    /// handed to the device to keep. Returns pages written.
    fn flush_range(&mut self, device: &CxlDevice, from: u64, to: u64) -> Result<u64, CxlError> {
        if to <= from {
            return Ok(0);
        }
        let first = (from / PAGE_SIZE) as usize;
        let last = to.div_ceil(PAGE_SIZE) as usize;
        let writes: Vec<(CxlPageId, PageData)> = (first..last)
            .map(|pi| {
                let start = pi * PAGE_SIZE as usize;
                let end = (start + PAGE_SIZE as usize).min(self.buf.len());
                (
                    self.data_pages[pi],
                    PageData::from_bytes(&self.buf[start..end]),
                )
            })
            .collect();
        let written = writes.len() as u64;
        device.write_pages_owned(writes, NodeId(u32::MAX))?;
        Ok(written)
    }

    /// Phase one of an append, DRAM half: frames a record header at the
    /// tail of the mirror and lets `encode` append the payload behind it
    /// (no marker yet — the record is *not* sealed). Returns the record's
    /// byte offset for [`Journal::flush_from`].
    pub fn frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
        frame_record(&mut self.buf, encode)
    }

    /// Phase one of an append, device half: writes the mirror from byte
    /// `start` (what [`Journal::frame`] returned) to its end. Returns
    /// journal pages written.
    ///
    /// # Errors
    ///
    /// Device allocation/write failures, or [`check_capacity`]'s refusal.
    /// The frame stays in the mirror, so a retry is the same call again;
    /// a caller that gives up takes it out with [`Journal::unframe`].
    pub fn flush_from(&mut self, device: &CxlDevice, start: u64) -> Result<u64, CxlError> {
        // Reserve through the marker byte so sealing never allocates.
        let total = self.buf.len() as u64 + 1;
        let mut pages = self.reserve(device, total)?;
        pages += self.flush_range(device, start, self.buf.len() as u64)?;
        Ok(pages)
    }

    /// Drops the unsealed frame at byte `start` from the mirror again:
    /// whatever part of it reached the device is a torn tail the next
    /// append overwrites.
    pub fn unframe(&mut self, start: u64) {
        self.buf.truncate(start as usize);
    }

    /// Phase two of an append: writes the commit marker, sealing the
    /// record. Returns journal pages written.
    ///
    /// # Errors
    ///
    /// Device write failures. The mirror drops the marker again so a
    /// retry re-frames exactly one marker byte.
    pub fn seal(&mut self, device: &CxlDevice) -> Result<u64, CxlError> {
        let start = self.buf.len() as u64;
        self.buf.push(MARKER);
        let written = self.flush_range(device, start, self.buf.len() as u64);
        match written {
            Ok(_) => self.next_seq += 1,
            Err(_) => self.buf.truncate(start as usize),
        }
        written
    }

    /// Whether the record stream has outgrown `limit` bytes and should
    /// be compacted into a fresh generation.
    pub fn wants_compaction(&self, limit: u64) -> bool {
        self.buf.len() as u64 > limit
    }

    /// Compaction phase one: builds generation `generation` around one
    /// sealed record (the state snapshot `encode` writes, expected to
    /// carry `seq` 0) — region, data pages, payload, and marker — but
    /// **no superblock**. Until [`Journal::publish`] runs, recovery
    /// cannot see this generation, so a crash anywhere in between leaves
    /// the previous generation authoritative. Returns the journal plus
    /// pages written.
    ///
    /// # Errors
    ///
    /// [`check_capacity`]'s refusal of a snapshot one generation cannot
    /// hold (nothing was created), or device allocation/write failures
    /// (the half-built region is destroyed before returning).
    pub fn stage_compacted(
        device: &CxlDevice,
        generation: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(Journal, u64), CxlError> {
        let mut buf = Vec::new();
        frame_record(&mut buf, encode);
        buf.push(MARKER);
        Journal::stage(device, generation, buf, 1)
    }

    /// Compaction phase two: writes the superblock, making this the
    /// highest *valid* generation — the one recovery will pick. Returns
    /// pages written (always 1 on success).
    ///
    /// # Errors
    ///
    /// Device write failures; retryable (the superblock write is
    /// idempotent).
    pub fn publish(&mut self, device: &CxlDevice) -> Result<u64, CxlError> {
        self.write_superblock(device)?;
        Ok(1)
    }

    /// Destroys this generation's region, returning pages freed.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadRegion`] if already destroyed.
    pub fn destroy(self, device: &CxlDevice) -> Result<u64, CxlError> {
        device.destroy_region(self.region)
    }
}

/// A journal generation discovered on the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoundGeneration {
    /// The generation's region.
    pub region: RegionId,
    /// Generation number parsed from the region name.
    pub generation: u64,
}

/// Scans the device for journal generations (metadata regions named
/// `cxl-store:journal#<gen>`), lowest generation first.
pub fn find_generations(device: &CxlDevice) -> Vec<FoundGeneration> {
    let mut found: Vec<FoundGeneration> = device
        .regions()
        .into_iter()
        .filter(|(_, usage)| usage.kind == cxl_mem::RegionKind::Metadata)
        .filter_map(|(region, usage)| {
            let gen = usage
                .name
                .strip_prefix(JOURNAL_REGION_PREFIX)?
                .parse()
                .ok()?;
            Some(FoundGeneration {
                region,
                generation: gen,
            })
        })
        .collect();
    found.sort_by_key(|g| g.generation);
    found
}

/// A journal generation loaded back from the device.
#[derive(Debug)]
pub struct LoadedGeneration {
    /// Parsed record stream.
    pub log: ParsedLog,
    /// Raw committed byte stream (for resuming appends).
    pub buf: Vec<u8>,
    /// Superblock + data pages read.
    pub pages_scanned: u64,
    /// The data pages, in stream order.
    pub data_pages: Vec<CxlPageId>,
    /// Superblock page.
    pub super_page: CxlPageId,
}

/// Reads one generation's byte stream back through the modelled
/// `read_pages` path (the caller charges `cxl_batch_read(pages_scanned)`
/// to the virtual clock). Returns `None` if the superblock is missing or
/// invalid — a generation whose compaction never completed.
///
/// # Errors
///
/// Device read failures (including injected faults).
pub fn load_generation(
    device: &CxlDevice,
    found: &FoundGeneration,
    node: NodeId,
) -> Result<Option<LoadedGeneration>, CxlError> {
    read_generation(device, found, Some(node))
}

/// Reads one generation back through the *unmodelled* snapshot path:
/// no virtual-clock charge, no fault hooks, no node attribution. This
/// is the auditors' loader — [`load_generation`] is the recovery one.
/// Returns `None` for a generation without a valid superblock.
pub fn snapshot_generation(
    device: &CxlDevice,
    found: &FoundGeneration,
) -> Option<LoadedGeneration> {
    read_generation(device, found, None).ok().flatten()
}

/// The body behind [`load_generation`] and [`snapshot_generation`]:
/// with `reader` set every read is a modelled, fault-injectable
/// `read_pages` by that node; without it an unmodelled `snapshot_pages`
/// (the same switch `CxlDevice::gather` takes).
fn read_generation(
    device: &CxlDevice,
    found: &FoundGeneration,
    reader: Option<NodeId>,
) -> Result<Option<LoadedGeneration>, CxlError> {
    let read = |pages: &[CxlPageId]| match reader {
        Some(node) => device.read_pages(pages, node),
        None => device.snapshot_pages(pages),
    };
    // The superblock page is the region's lowest-id page only by
    // convention; find it by parsing. A generation's region holds the
    // superblock plus data pages; try each page as superblock root.
    let pages: Vec<CxlPageId> = device
        .live_pages()
        .into_iter()
        .filter(|(_, r)| *r == found.region)
        .map(|(p, _)| p)
        .collect();
    let contents = read(&pages)?;
    let mut pages_scanned = pages.len() as u64;
    let mut raw = vec![0u8; PAGE_SIZE as usize];
    for (candidate, data) in pages.iter().zip(&contents) {
        data.read(0, &mut raw);
        let mut r = Reader::new(&raw);
        if r.u32() != Some(SUPER_MAGIC) || r.u64() != Some(found.generation) {
            continue;
        }
        // The count is device bytes: a corrupt or poisoned page may
        // claim anything. More ids than one page holds is not a
        // superblock — and must not size an allocation.
        let Some(count) = r.u32().filter(|&n| u64::from(n) <= SUPERBLOCK_MAX_PAGES) else {
            continue;
        };
        let Some(data_pages) = (0..count)
            .map(|_| r.u64().map(CxlPageId))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        // Read the data pages in stream order. Pages already read above
        // were a discovery sweep; the stream read is the modelled one.
        let mut buf = Vec::with_capacity(data_pages.len() * PAGE_SIZE as usize);
        for page in &read(&data_pages)? {
            page.read(0, &mut raw);
            buf.extend_from_slice(&raw);
        }
        pages_scanned += data_pages.len() as u64;
        let log = parse_log(&buf);
        buf.truncate(log.committed_bytes as usize);
        return Ok(Some(LoadedGeneration {
            log,
            buf,
            pages_scanned,
            data_pages,
            super_page: *candidate,
        }));
    }
    Ok(None)
}

/// Replays a record stream into the content-index reference counts it
/// implies: `fingerprint → refs`, counting multiplicity across every
/// live (pending or committed) image. This is the auditors' oracle —
/// the store's in-DRAM index must agree with it at quiescence.
pub fn replay_reference_counts(entries: &[JournalEntry]) -> std::collections::BTreeMap<u64, u64> {
    use std::collections::BTreeMap;
    let mut images: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut refs: BTreeMap<u64, u64> = BTreeMap::new();
    let drop_image =
        |images: &mut BTreeMap<u64, Vec<u64>>, refs: &mut BTreeMap<u64, u64>, image: u64| {
            for fp in images.remove(&image).unwrap_or_default() {
                if let Some(r) = refs.get_mut(&fp) {
                    *r = r.saturating_sub(1);
                    if *r == 0 {
                        refs.remove(&fp);
                    }
                }
            }
        };
    for entry in entries {
        match &entry.record {
            Record::Snapshot(s) => {
                images.clear();
                refs.clear();
                for rec in s.catalog.iter().chain(s.pending.iter()) {
                    images.insert(rec.id, rec.fingerprints.clone());
                    for &fp in &rec.fingerprints {
                        *refs.entry(fp).or_default() += 1;
                    }
                }
            }
            Record::Begin { image, .. } => {
                images.insert(*image, Vec::new());
            }
            Record::Intern { image, entries } => {
                let held = images.entry(*image).or_default();
                for &(fp, _) in entries {
                    held.push(fp);
                    *refs.entry(fp).or_default() += 1;
                }
            }
            Record::Commit { .. } | Record::SetPinned { .. } | Record::SetLease { .. } => {}
            Record::Abort { image }
            | Record::Release { image, .. }
            | Record::Evict { image, .. } => {
                drop_image(&mut images, &mut refs, *image);
            }
        }
    }
    refs
}

/// Rebuilds a live [`Journal`] from a loaded generation so the recovered
/// store can keep appending where the committed stream ended.
pub fn resume(found: &FoundGeneration, loaded: LoadedGeneration) -> Journal {
    let next_seq = loaded.log.entries.last().map_or(0, |e| e.seq + 1);
    Journal {
        region: found.region,
        generation: found.generation,
        super_page: loaded.super_page,
        data_pages: loaded.data_pages,
        buf: loaded.buf,
        next_seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, record: Record) -> JournalEntry {
        JournalEntry {
            seq,
            owner: 3,
            epoch: 9,
            record,
        }
    }

    fn sample_records() -> Vec<JournalEntry> {
        vec![
            entry(
                0,
                Record::Begin {
                    image: 1,
                    created_at: 123,
                    label: "img-a".into(),
                },
            ),
            entry(
                1,
                Record::Intern {
                    image: 1,
                    entries: vec![(0xdead, 7), (0xbeef, 8), (0xdead, 7)],
                },
            ),
            entry(
                2,
                Record::Commit {
                    image: 1,
                    meta_region: 4,
                },
            ),
            entry(
                3,
                Record::SetPinned {
                    image: 1,
                    pinned: true,
                },
            ),
            entry(
                4,
                Record::SetLease {
                    image: 1,
                    holder: Some(2),
                },
            ),
            entry(
                5,
                Record::SetLease {
                    image: 1,
                    holder: None,
                },
            ),
            entry(
                6,
                Record::Release {
                    image: 1,
                    meta_region: 4,
                },
            ),
            entry(7, Record::Abort { image: 2 }),
            entry(
                8,
                Record::Evict {
                    image: 3,
                    meta_region: 5,
                },
            ),
            entry(
                9,
                Record::Snapshot(SnapshotState {
                    next_image: 4,
                    index: vec![(0xdead, 7)],
                    catalog: vec![ImageRecord {
                        id: 1,
                        label: "img-a".into(),
                        owner: 3,
                        epoch: 9,
                        pinned: true,
                        lease: None,
                        created_at: 123,
                        last_restore: 456,
                        meta_region: 4,
                        fingerprints: vec![0xdead, 0xdead],
                    }],
                    pending: vec![],
                }),
            ),
        ]
    }

    /// Phase one of an append: frame, then write out, no marker.
    fn append_unsealed(j: &mut Journal, device: &CxlDevice, e: &JournalEntry) {
        let start = j.frame(|buf| encode_payload_into(buf, e));
        j.flush_from(device, start).unwrap();
    }

    fn frame(entries: &[JournalEntry]) -> Vec<u8> {
        let mut buf = Vec::new();
        for e in entries {
            let payload = encode_payload(e);
            put_u32(&mut buf, RECORD_MAGIC);
            put_u32(&mut buf, payload.len() as u32);
            buf.extend_from_slice(&payload);
            buf.push(MARKER);
        }
        buf
    }

    #[test]
    fn every_record_type_round_trips() {
        for e in sample_records() {
            let payload = encode_payload(&e);
            assert_eq!(decode_payload(&payload), Some(e));
        }
    }

    #[test]
    fn snapshot_encoded_from_borrowed_state_matches_the_owned_record() {
        let Some(Record::Snapshot(mut state)) = sample_records().pop().map(|e| e.record) else {
            panic!("the last sample is the snapshot");
        };
        state.pending.push(ImageRecord {
            id: 2,
            label: "img-b".into(),
            owner: 4,
            epoch: 10,
            pinned: false,
            lease: Some(4),
            created_at: 789,
            last_restore: 789,
            meta_region: u64::MAX,
            fingerprints: vec![0xdead],
        });
        let mut borrowed = Vec::new();
        encode_snapshot_into(
            &mut borrowed,
            state.next_image,
            state.index.iter().copied(),
            state.catalog.iter().map(ImageRecord::as_ref),
            state.pending.iter().map(ImageRecord::as_ref),
        );
        let owned = JournalEntry {
            seq: 0,
            owner: u32::MAX,
            epoch: 0,
            record: Record::Snapshot(state.clone()),
        };
        assert_eq!(borrowed, encode_payload(&owned));
        assert_eq!(decode_payload(&borrowed), Some(owned));
        // Framing and marker included, without encoding anything.
        let images: Vec<_> = (state.catalog.iter().chain(&state.pending))
            .map(ImageRecord::as_ref)
            .collect();
        assert_eq!(
            snapshot_record_len(state.index.len(), images.iter()),
            8 + borrowed.len() as u64 + 1
        );
    }

    #[test]
    fn superblock_limit_is_refused_where_the_page_list_grows() {
        let limit = SUPERBLOCK_MAX_PAGES * PAGE_SIZE;
        assert!(check_capacity(limit).is_ok());
        let full = CxlError::OutOfDeviceMemory {
            requested: SUPERBLOCK_MAX_PAGES + 1,
            available: SUPERBLOCK_MAX_PAGES,
        };
        assert_eq!(check_capacity(limit + 1), Err(full.clone()));
        assert!(!full.is_transient());

        // An append that would need a 511th data page: refused before
        // any page is allocated or the superblock rewritten.
        let device = CxlDevice::new(1024);
        let mut j = Journal::create(&device, 0).unwrap();
        let small = entry(0, Record::Abort { image: 1 });
        append_unsealed(&mut j, &device, &small);
        j.seal(&device).unwrap();
        let used = device.used_pages();
        let start = j.frame(|buf| buf.resize(buf.len() + limit as usize, 0xEE));
        assert_eq!(j.flush_from(&device, start), Err(full.clone()));
        assert_eq!(device.used_pages(), used);
        // Taken out of the mirror, the frame leaves no trace: the next
        // record lands where it would have, and the log reloads clean.
        j.unframe(start);
        let next = entry(1, Record::Abort { image: 2 });
        assert_eq!(j.next_seq(), 1, "the refused record took no number");
        append_unsealed(&mut j, &device, &next);
        j.seal(&device).unwrap();
        let found = find_generations(&device);
        let loaded = load_generation(&device, &found[0], NodeId(0)).unwrap();
        let log = loaded.unwrap().log;
        assert_eq!((log.entries, log.torn_bytes), (vec![small, next], 0));

        // A compaction snapshot one generation cannot hold: refused
        // before its region exists.
        let staged = Journal::stage_compacted(&device, 1, |buf| buf.resize(limit as usize, 0xEE));
        assert_eq!(staged.err(), Some(full));
        assert_eq!(find_generations(&device).len(), 1);
    }

    #[test]
    fn parse_accepts_sealed_records_and_zero_tail() {
        let records = sample_records();
        let mut buf = frame(&records);
        let committed = buf.len() as u64;
        buf.extend_from_slice(&[0u8; 64]); // fresh-page zero fill
        let log = parse_log(&buf);
        assert_eq!(log.entries, records);
        assert_eq!(log.committed_bytes, committed);
        assert_eq!(log.torn_bytes, 0);
    }

    #[test]
    fn missing_marker_truncates_the_tail() {
        let records = sample_records();
        let mut buf = frame(&records[..2]);
        let committed = buf.len() as u64;
        // Frame a third record but drop its marker (crash between the
        // payload write and the marker write).
        let payload = encode_payload(&records[2]);
        put_u32(&mut buf, RECORD_MAGIC);
        put_u32(&mut buf, payload.len() as u32);
        buf.extend_from_slice(&payload);
        let log = parse_log(&buf);
        assert_eq!(log.entries, records[..2].to_vec());
        assert_eq!(log.committed_bytes, committed);
        assert_eq!(log.torn_bytes, 8 + payload.len() as u64);
    }

    #[test]
    fn truncated_payload_is_torn_not_a_panic() {
        let records = sample_records();
        let mut buf = frame(&records[..1]);
        let committed = buf.len() as u64;
        let payload = encode_payload(&records[1]);
        put_u32(&mut buf, RECORD_MAGIC);
        put_u32(&mut buf, payload.len() as u32);
        buf.extend_from_slice(&payload[..payload.len() / 2]);
        let log = parse_log(&buf);
        assert_eq!(log.entries, records[..1].to_vec());
        assert_eq!(log.committed_bytes, committed);
        assert!(log.torn_bytes > 0);
    }

    #[test]
    fn corrupt_magic_ends_the_log_as_torn() {
        let records = sample_records();
        let mut buf = frame(&records[..1]);
        buf.extend_from_slice(&[0xFF, 0x13, 0x37, 0x00, 0x01]);
        let log = parse_log(&buf);
        assert_eq!(log.entries, records[..1].to_vec());
        assert!(log.torn_bytes > 0);
    }

    #[test]
    fn journal_appends_and_reloads_from_the_device() {
        let device = CxlDevice::new(64);
        let mut j = Journal::create(&device, 0).unwrap();
        let records = sample_records();
        for e in &records {
            append_unsealed(&mut j, &device, e);
            j.seal(&device).unwrap();
        }

        let found = find_generations(&device);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].generation, 0);
        let loaded = load_generation(&device, &found[0], NodeId(0))
            .unwrap()
            .expect("superblock is valid");
        assert_eq!(loaded.log.entries, records);
        assert_eq!(loaded.log.torn_bytes, 0);

        // Resuming appends continues the sequence and stays readable.
        let mut resumed = resume(&found[0], loaded);
        assert_eq!(resumed.next_seq(), records.len() as u64);
        let extra = entry(records.len() as u64, Record::Abort { image: 9 });
        append_unsealed(&mut resumed, &device, &extra);
        resumed.seal(&device).unwrap();
        let reloaded = load_generation(&device, &found[0], NodeId(0))
            .unwrap()
            .unwrap();
        assert_eq!(reloaded.log.entries.len(), records.len() + 1);
        assert_eq!(reloaded.log.entries.last(), Some(&extra));
    }

    #[test]
    fn staged_compaction_is_invisible_until_published() {
        let device = CxlDevice::new(64);
        let mut old = Journal::create(&device, 0).unwrap();
        let e = entry(0, Record::Abort { image: 1 });
        append_unsealed(&mut old, &device, &e);
        old.seal(&device).unwrap();

        let snap = entry(0, Record::Snapshot(SnapshotState::default()));
        let (mut staged, written) =
            Journal::stage_compacted(&device, 1, |buf| encode_payload_into(buf, &snap)).unwrap();
        assert!(written > 0);
        // Both regions exist, but gen 1 has no superblock yet: a crash
        // here leaves gen 0 authoritative.
        let found = find_generations(&device);
        assert_eq!(found.len(), 2);
        assert!(load_generation(&device, &found[1], NodeId(0))
            .unwrap()
            .is_none());
        // Publishing the superblock flips authority to gen 1.
        staged.publish(&device).unwrap();
        let loaded = load_generation(&device, &found[1], NodeId(0))
            .unwrap()
            .unwrap();
        assert_eq!(loaded.log.entries, vec![snap]);
        old.destroy(&device).unwrap();
        assert_eq!(find_generations(&device).len(), 1);
    }

    #[test]
    fn hostile_superblock_page_count_is_skipped_not_allocated() {
        let device = CxlDevice::new(64);
        let mut old = Journal::create(&device, 0).unwrap();
        let e = entry(0, Record::Abort { image: 1 });
        append_unsealed(&mut old, &device, &e);
        old.seal(&device).unwrap();
        let snap = entry(0, Record::Snapshot(SnapshotState::default()));
        let (staged, _) =
            Journal::stage_compacted(&device, 1, |buf| encode_payload_into(buf, &snap)).unwrap();

        // Plant a page in generation 1's region that carries the right
        // magic and generation but claims `u32::MAX` data pages (32 GiB
        // of ids), then one claiming a single id more than a page holds.
        for count in [u32::MAX, SUPERBLOCK_MAX_PAGES as u32 + 1] {
            let mut sb = Vec::new();
            put_u32(&mut sb, SUPER_MAGIC);
            put_u64(&mut sb, 1);
            put_u32(&mut sb, count);
            device
                .write_pages(&[(staged.super_page, PageData::from_bytes(&sb))], NodeId(0))
                .unwrap();
            let found = find_generations(&device);
            // Not a valid superblock: no abort, no error, and recovery's
            // highest-valid-generation walk falls back to generation 0.
            assert!(load_generation(&device, &found[1], NodeId(0))
                .unwrap()
                .is_none());
            assert!(snapshot_generation(&device, &found[1]).is_none());
            let loaded = load_generation(&device, &found[0], NodeId(0))
                .unwrap()
                .unwrap();
            assert_eq!(loaded.log.entries, vec![e.clone()]);
        }
    }

    #[test]
    fn unsealed_append_is_invisible_until_the_marker_lands() {
        let device = CxlDevice::new(64);
        let mut j = Journal::create(&device, 0).unwrap();
        let e = entry(0, Record::Abort { image: 1 });
        append_unsealed(&mut j, &device, &e);
        // No marker: the record is torn on reload.
        let found = find_generations(&device);
        let loaded = load_generation(&device, &found[0], NodeId(0))
            .unwrap()
            .unwrap();
        assert!(loaded.log.entries.is_empty());
        assert!(loaded.log.torn_bytes > 0);
        // Sealing makes it visible.
        j.seal(&device).unwrap();
        let loaded = load_generation(&device, &found[0], NodeId(0))
            .unwrap()
            .unwrap();
        assert_eq!(loaded.log.entries, vec![e]);
        assert_eq!(loaded.log.torn_bytes, 0);
    }
}
