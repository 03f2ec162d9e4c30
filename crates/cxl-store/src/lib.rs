//! Content-addressed checkpoint image store over the simulated CXL
//! device.
//!
//! The paper keeps checkpoint images resident in a *finite* CXL device
//! and shares them across restores. Before this crate the workspace
//! deduplicated only clones of the *same* checkpoint: two function
//! templates whose address spaces contain identical runtime, library, or
//! zero pages paid for every byte twice, and nothing ever evicted — the
//! device simply filled until allocation exhaustion.
//!
//! [`Store`] fixes both halves:
//!
//! * **Cross-image dedup.** A refcounted content index maps the 64-bit
//!   page fingerprint ([`PageData::fingerprint`]) to one device page;
//!   images reference its entries by slab slot, so only *finding* content
//!   costs a map probe.
//!   `CxlFork::checkpoint` routes its batched data-page writes through
//!   [`Store::intern_pages`]; a page whose content is already resident
//!   (in *any* image) resolves to the existing device page and moves no
//!   bytes. Zero pages are elided entirely from the transfer: freshly
//!   allocated device pages are already zeroed, so the canonical zero
//!   page costs one allocation and no write, ever.
//! * **Capacity-pressure GC.** An image table tracks per-image
//!   metadata — owner, epoch, pinned/lease state (leases from
//!   [`cxl_fault::LeaseTable`]), last-restore virtual time — and drives
//!   watermark eviction: when device utilization
//!   crosses the high watermark, unpinned images whose lease holder is
//!   not live are evicted in LRU-by-last-restore order until utilization
//!   falls below the low watermark. A restore of an evicted image gets a
//!   typed miss from the mechanism (never stale bytes), and the porter
//!   re-checkpoints on the next eligible invocation.
//!
//! Interning is all-or-nothing per attempt: a failed allocation or write
//! rolls the attempt's device pages back and leaves the index untouched,
//! so `cxl_fault::with_backoff`-style retries never double-count
//! references.
//!
//! # Crash durability
//!
//! All of the state above lives in coordinator DRAM; by itself it dies
//! with the coordinator even though every data page survives on the
//! device. A store created with [`StoreConfig::durable`] additionally
//! write-ahead-journals every mutation to a device-resident metadata
//! region (see [`journal`]) so that [`Store::recover`] can rebuild the
//! index, image table, and pin/lease state from the surviving device
//! alone. The journal record is the one description of a mutation: a live
//! mutator appends it and hands it to [`Books::apply`], recovery decodes
//! it and hands it to the same function (`books.rs`; `recovery.rs` is
//! locate / replay / reconcile; this file is the public API).
//! Mutations follow a strict ordering discipline — constructive device
//! work (page interning) lands *before* its journal record, destructive
//! work (free/destroy) lands *after* — so that a crash at any
//! instruction boundary leaves a state recovery can roll forward or
//! back. The [`cxl_fault::CrashpointHook`] sites threaded through every
//! mutator let the crashpoint sweep in `tests/` prove exactly that.
//!
//! Journal writes ride the same batched `write_pages` path as data and
//! are charged to the virtual clock via [`InternOutcome::journal_pages`]
//! and [`Store::commit_image`]'s return value. Control-plane records
//! (begin, pin, lease) are sub-page and *uncharged* — a documented
//! modeling approximation, since their callers do not own a clock.
//! [`Store::touch_restore`] is deliberately **not** journaled: logging
//! every restore would put a device write on the restore fast path, so
//! after recovery LRU eviction falls back to creation order until new
//! restores refresh it.

// Device path: a panic here would bypass an injected fault's recovery, so
// each `unwrap`/`expect` names its invariant in an `#[allow]` (DESIGN.md §12).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub use cxl_fabric::PlacementPolicy;
use cxl_fault::{with_backoff, BackoffPolicy, CrashpointHook, LeaseTable};
use cxl_mem::lockdep::TrackedMutex;
use cxl_mem::{CxlDevice, CxlError, CxlPageId, NodeId, PageData, RegionId, PAGE_SIZE};
use simclock::SimTime;

mod books;
mod index;
pub mod journal;
mod recovery;

pub use books::{Books, Effects, ImageMeta, ImageState};
use index::Slot;
use journal::{Journal, JournalEntry, Record};
pub use recovery::RecoveryReport;

/// Telemetry layer name for store counters.
const TELEMETRY_LAYER: &str = "cxlstore";

/// Name of the store-owned committed region holding deduped data pages.
/// Fixed so [`Store::recover`] can find it with no catalog to consult.
const DATA_REGION_NAME: &str = "cxl-store:data";

/// Runs a device operation, retrying transient errors with the default
/// bounded backoff. The backoff is not charged to any clock: store
/// mutators do not own one.
fn retry<T>(op: impl FnMut() -> Result<T, CxlError>) -> Result<T, CxlError> {
    with_backoff(&BackoffPolicy::default(), op).0
}

/// Unwraps the result of a device operation the store cannot go on
/// without; `what` names it in the panic.
#[allow(
    clippy::expect_used,
    reason = "every caller retried transients (rate ~2e-4) with backoff first, P(persistent failure) ~ 1.6e-15; past that a store that cannot write or read its journal must not claim durability, and the failure is unrecoverable by design"
)]
fn must<T>(what: &str, res: Result<T, CxlError>) -> T {
    res.expect(what)
}

/// Typed failure for store mutators that take an [`ImageId`]. Earlier
/// versions silently no-opped on unknown or wrong-state ids, which made
/// caller bugs (double release, commit of an aborted image) invisible.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The image id is not known to the store — never created here, or
    /// already aborted/released/evicted.
    UnknownImage {
        /// The offending id.
        image: ImageId,
        /// The mutator that rejected it.
        op: &'static str,
    },
    /// The mutation requires a *pending* image, but the id is already
    /// committed to the catalog.
    AlreadyCommitted {
        /// The offending id.
        image: ImageId,
        /// The mutator that rejected it.
        op: &'static str,
    },
    /// The mutation requires a *committed* image, but the id is still
    /// pending (mid-checkpoint).
    NotCommitted {
        /// The offending id.
        image: ImageId,
        /// The mutator that rejected it.
        op: &'static str,
    },
    /// The journal cannot hold the mutation's record, or the snapshot the
    /// books would compact into afterwards (see
    /// [`journal::check_capacity`]) — or, rarely, the record's write
    /// failed past retries; `cause` says which. Nothing was journaled and
    /// nothing changed.
    JournalFull {
        /// The image the mutation was about.
        image: ImageId,
        /// The mutator that gave up.
        op: &'static str,
        /// The refusal.
        cause: CxlError,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (image, op, what) = match self {
            StoreError::UnknownImage { image, op } => (image, op, "is not known to the store"),
            StoreError::AlreadyCommitted { image, op } => (image, op, "is already committed"),
            StoreError::NotCommitted { image, op } => (image, op, "is pending, not committed"),
            StoreError::JournalFull { image, op, cause } => {
                return write!(f, "{op}: the journal cannot hold {image}: {cause}");
            }
        };
        write!(f, "{op}: {image} {what}")
    }
}

impl std::error::Error for StoreError {}

/// Identifies one checkpoint image in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImageId(pub u64);

impl fmt::Display for ImageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "image#{}", self.0)
    }
}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Device utilization (`used_pages / capacity`) above which eviction
    /// starts.
    pub high_watermark: f64,
    /// Utilization eviction drives down to once it starts (hysteresis so
    /// the store does not thrash at the boundary).
    pub low_watermark: f64,
    /// Write-ahead-journal every mutation to a device-resident metadata
    /// region so [`Store::recover`] can rebuild the store after
    /// coordinator death. Off by default: journaling costs device writes
    /// on every mutation.
    pub durable: bool,
    /// Journal size (bytes of record stream) above which
    /// [`Store::commit_image`] compacts it into a fresh generation
    /// holding one state snapshot. Only meaningful when `durable`.
    pub journal_compact_bytes: u64,
    /// How fresh content allocations spread across the device's banks
    /// (and thus its fabric ports): [`PlacementPolicy::Locality`] (the
    /// default) packs them first-fit, bit-identical to the
    /// pre-placement store; [`PlacementPolicy::Stripe`] spreads each
    /// intern batch round-robin across every bank, trading allocator
    /// locality for balanced per-port fabric load under contention.
    pub placement: PlacementPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            high_watermark: 0.85,
            low_watermark: 0.70,
            durable: false,
            journal_compact_bytes: 256 * 1024,
            placement: PlacementPolicy::Locality,
        }
    }
}

impl StoreConfig {
    /// # Panics
    ///
    /// Panics unless `0 < low_watermark <= high_watermark <= 1`.
    fn assert_watermarks(&self) {
        assert!(
            self.low_watermark > 0.0
                && self.low_watermark <= self.high_watermark
                && self.high_watermark <= 1.0,
            "store watermarks must satisfy 0 < low <= high <= 1, got {self:?}"
        );
    }
}

/// What one [`Store::intern_pages`] call did, page-accounted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternOutcome {
    /// The device page backing each input page, **in input order**.
    /// Shared content repeats the same page id.
    pub pages: Vec<CxlPageId>,
    /// Device pages newly allocated by this call (content not previously
    /// resident), including a canonical zero page if one was minted.
    pub fresh: u64,
    /// Pages whose bytes actually crossed the fabric (`fresh` minus the
    /// zero pages elided because fresh allocations are already zeroed).
    pub written: u64,
    /// Input pages resolved to an already-resident device page.
    pub shared: u64,
    /// Input pages that were all-zero (always transfer-free).
    pub zero: u64,
    /// Journal pages written for this batch's `Intern` record (0 unless
    /// the store is durable). Callers fold this into the checkpoint's
    /// copied-page charge.
    pub journal_pages: u64,
    /// The device pages whose bytes actually crossed the fabric
    /// (`written` of them) — the concrete page set a pipelined
    /// checkpoint partitions by shard to cost the transfer.
    pub written_pages: Vec<CxlPageId>,
}

/// Monotonic counters describing store activity since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total pages interned (inputs to [`Store::intern_pages`]).
    pub interned_pages: u64,
    /// Inputs resolved to an existing device page (cross- or
    /// intra-image).
    pub deduped_pages: u64,
    /// Device pages newly allocated for content.
    pub fresh_pages: u64,
    /// Zero-page inputs whose transfer was elided.
    pub zero_elided: u64,
    /// Images evicted under capacity pressure.
    pub evicted_images: u64,
    /// Device pages freed by eviction/GC/release (data + metadata).
    pub evicted_pages: u64,
    /// Images released explicitly by their owner.
    pub released_images: u64,
    /// Device pages written to the metadata journal (0 unless durable).
    pub journal_pages_written: u64,
}

impl StoreStats {
    /// Fabric bytes the store avoided moving (dedup hits plus elided
    /// zero writes).
    pub fn bytes_saved(&self) -> u64 {
        (self.deduped_pages + self.zero_elided) * PAGE_SIZE
    }

    /// Interned-to-written ratio (1.0 = no sharing; higher = better).
    pub fn dedup_ratio(&self) -> f64 {
        let written = self.fresh_pages.saturating_sub(self.zero_elided);
        self.interned_pages as f64 / written.max(1) as f64
    }
}

/// A content-index entry as seen by auditors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntrySnapshot {
    /// Content fingerprint.
    pub fingerprint: u64,
    /// Device page holding that content.
    pub page: CxlPageId,
    /// Number of image references (with multiplicity).
    pub refs: u64,
}

/// What one eviction/GC sweep freed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionReport {
    /// Images removed from the catalog.
    pub images: u64,
    /// Device pages freed (shared data pages whose refcount reached
    /// zero, plus each image's metadata region).
    pub pages: u64,
}

#[derive(Debug)]
struct Inner {
    /// The store-owned committed region holding all deduped data pages.
    region: RegionId,
    /// Content index, image table, next image id: what the journal
    /// describes, changed only by [`Books::apply`] and `intern_pages`.
    books: Books,
    stats: StoreStats,
    /// The live write-ahead journal (durable stores only).
    journal: Option<Journal>,
}

/// The content-addressed checkpoint image store. Cheap to share
/// (`Arc<Store>`); all methods take `&self`.
#[derive(Debug)]
pub struct Store {
    device: Arc<CxlDevice>,
    config: StoreConfig,
    inner: TrackedMutex<Inner>,
    /// Crashpoint observer for the sweep harness (see
    /// [`Store::set_crash_hook`]). Behind its own lock so arming does
    /// not contend with mutations; `crash_armed` is the fast-path gate.
    crash_hook: TrackedMutex<Option<Arc<dyn CrashpointHook>>>,
    crash_armed: AtomicBool,
}

impl Store {
    /// Creates a store over `device` with default watermarks.
    pub fn new(device: Arc<CxlDevice>) -> Self {
        Store::with_config(device, StoreConfig::default())
    }

    /// Creates a store with explicit configuration. A durable config
    /// creates journal generation 0 on the device before any mutation
    /// can run.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low_watermark <= high_watermark <= 1`, or if a
    /// durable journal cannot be created past retries.
    pub fn with_config(device: Arc<CxlDevice>, config: StoreConfig) -> Self {
        config.assert_watermarks();
        let region = device.create_region(DATA_REGION_NAME);
        let journal = config.durable.then(|| {
            let created = retry(|| Journal::create(&device, 0));
            must("creating the store journal failed past retries", created)
        });
        let inner = Inner {
            region,
            books: Books::default(),
            stats: StoreStats::default(),
            journal,
        };
        Store::assemble(device, config, inner)
    }

    fn assemble(device: Arc<CxlDevice>, config: StoreConfig, inner: Inner) -> Self {
        Store {
            device,
            config,
            inner: TrackedMutex::new("cxl_store.inner", inner),
            crash_hook: TrackedMutex::new("cxl_store.crash_hook", None),
            crash_armed: AtomicBool::new(false),
        }
    }

    /// Rebuilds a store from the device alone — the coordinator that
    /// owned the previous [`Store`] is dead and its DRAM gone. Replays
    /// the highest valid journal generation (truncating any torn tail at
    /// the last commit marker) through the same [`Books::apply`] the live
    /// mutators use, rolls back images that were still
    /// pending (their checkpoints can never complete), reconciles the
    /// device — frees leaked data pages, destroys half-released and
    /// orphaned checkpoint metadata regions — cross-checks rebuilt
    /// refcounts against on-device content fingerprints, and compacts
    /// the journal into a fresh generation. Deterministic: the same
    /// device state always yields a bit-identical [`RecoveryReport`].
    ///
    /// The caller charges the virtual clock with
    /// `cxl_batch_read(report.pages_scanned)` plus
    /// `cxl_batch_write(report.compaction_pages_written)` — the
    /// replay-time cost the porter surfaces as `journal_replay_ns`.
    ///
    /// # Panics
    ///
    /// Panics unless `config.durable` (and the watermarks are valid), if
    /// the device holds no valid journal generation (the store was never
    /// durable, or the journal root itself was lost), or on persistent
    /// device failure past retries.
    pub fn recover(
        device: Arc<CxlDevice>,
        config: StoreConfig,
        node: NodeId,
    ) -> (Store, RecoveryReport) {
        assert!(config.durable, "Store::recover requires a durable config");
        config.assert_watermarks();
        let (inner, mut report) = recovery::recover(&device, node);
        let store = Store::assemble(device, config, inner);
        // Compact at once, so the next crash replays one snapshot
        // instead of the whole history.
        report.compaction_pages_written = store.compact_journal();

        for (counter, value) in [
            ("recovered_images", report.committed_images),
            ("recovery_replayed_entries", report.entries_replayed),
            ("recovery_freed_leaked_pages", report.freed_leaked_pages),
        ] {
            cxl_telemetry::counter_add(TELEMETRY_LAYER, counter, Some(node.0), value);
        }
        if report.torn_tail_bytes > 0 {
            cxl_telemetry::counter_add(TELEMETRY_LAYER, "recovery_torn_tails", Some(node.0), 1);
        }
        (store, report)
    }

    /// Installs (or clears) the crashpoint observer. Every mutator
    /// reports named sites through it — a `cxl_fault::Recorder`
    /// enumerates the injection points, a `cxl_fault::Killer` simulates
    /// coordinator death at one of them.
    pub fn set_crash_hook(&self, hook: Option<Arc<dyn CrashpointHook>>) {
        self.crash_armed.store(hook.is_some(), Ordering::Relaxed);
        *self.crash_hook.lock() = hook;
    }

    /// Reports reaching `site` to the installed hook, if any. A killing
    /// hook panics here with a `CrashpointKill` payload; the unwind
    /// abandons the mutation exactly where it stood, modeling the
    /// coordinator's DRAM vanishing mid-operation.
    fn crashpoint(&self, site: &'static str) {
        if !self.crash_armed.load(Ordering::Relaxed) {
            return;
        }
        let hook = self.crash_hook.lock().clone();
        if let Some(hook) = hook {
            hook.reached(site);
        }
    }

    /// Appends `record` to the journal as one sealed record (no-op for
    /// non-durable stores). `mid_site` fires between the payload write
    /// and the commit-marker write — the torn-tail crash window. Returns
    /// the entry as journaled and the journal pages written.
    ///
    /// # Errors
    ///
    /// The payload could not be written — [`journal::check_capacity`]'s
    /// refusal, or a device failure past retries. The frame is taken out
    /// of the mirror again: nothing was journaled.
    fn journal_append(
        &self,
        inner: &mut Inner,
        (owner, epoch): (NodeId, u64),
        record: Record,
        mid_site: Option<&'static str>,
    ) -> Result<(JournalEntry, u64), CxlError> {
        let mut entry = JournalEntry {
            seq: 0,
            owner: owner.0,
            epoch,
            record,
        };
        let Some(j) = inner.journal.as_mut() else {
            return Ok((entry, 0));
        };
        entry.seq = j.next_seq();
        let start = j.frame(|buf| journal::encode_payload_into(buf, &entry));
        let flushed = retry(|| j.flush_from(&self.device, start));
        let mut pages = flushed.inspect_err(|_| j.unframe(start))?;
        if let Some(site) = mid_site {
            self.crashpoint(site);
        }
        // The marker byte was reserved with the payload.
        let sealed = retry(|| j.seal(&self.device));
        pages += must("journal seal failed past retries", sealed);
        inner.stats.journal_pages_written += pages;
        Ok((entry, pages))
    }

    /// How every mutator but `intern_pages` changes the books: journal
    /// the record, fire `after_site`, [apply](Books::apply) it. Returns
    /// what the device is still owed and the journal pages written.
    ///
    /// # Errors
    ///
    /// [`Store::journal_append`]'s: the books are untouched.
    fn try_log(
        &self,
        inner: &mut Inner,
        tags: (NodeId, u64),
        record: Record,
        [mid_site, after_site]: [Option<&'static str>; 2],
    ) -> Result<(Effects, u64), CxlError> {
        let (entry, pages) = self.journal_append(inner, tags, record, mid_site)?;
        if let Some(site) = after_site {
            self.crashpoint(site);
        }
        Ok((inner.books.apply(&entry), pages))
    }

    /// [`Store::try_log`] for the mutators that have no error to return:
    /// their records are a few dozen bytes.
    fn log(
        &self,
        inner: &mut Inner,
        tags: (NodeId, u64),
        record: Record,
        after_site: Option<&'static str>,
    ) -> Effects {
        let logged = self.try_log(inner, tags, record, [None, after_site]);
        must("journal append failed past retries", logged).0
    }

    /// Rewrites the surviving state as one `Snapshot` record in a new
    /// journal generation, then destroys the old one. Ordering makes any
    /// crash safe: the new generation has no superblock (is invisible to
    /// recovery) until `publish`, and the old generation is destroyed
    /// only after the new one is authoritative.
    fn compact_journal_locked(&self, inner: &mut Inner) -> u64 {
        let Some(old) = inner.journal.take() else {
            return 0;
        };
        let generation = old.generation() + 1;
        // `stage_compacted` destroys its half-built region before
        // erroring, so retries are clean; `commit_image` refuses books
        // whose snapshot one generation cannot hold before they get here.
        let staged = retry(|| {
            Journal::stage_compacted(&self.device, generation, |buf| {
                inner.books.encode_snapshot(buf);
            })
        });
        let (mut fresh, mut pages) = must("journal compaction failed past retries", staged);
        self.crashpoint("compact.after_snapshot_write");
        // The superblock write is idempotent.
        let published = retry(|| fresh.publish(&self.device));
        pages += must("journal publish failed past retries", published);
        self.crashpoint("compact.after_publish");
        let _ = old.destroy(&self.device);
        self.crashpoint("compact.after_destroy_old");
        inner.journal = Some(fresh);
        inner.stats.journal_pages_written += pages;
        pages
    }

    /// Compacts the journal now regardless of size (maintenance hook).
    /// Returns journal pages written; 0 for non-durable stores.
    pub fn compact_journal(&self) -> u64 {
        let mut inner = self.inner.lock();
        self.compact_journal_locked(&mut inner)
    }

    /// The device this store allocates from.
    pub fn device(&self) -> &Arc<CxlDevice> {
        &self.device
    }

    /// The store's watermark configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// The committed region owning every deduped data page.
    pub fn data_region(&self) -> RegionId {
        self.inner.lock().region
    }

    /// Activity counters since creation.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    /// Registers a new (pending) image. The image holds no pages until
    /// [`Store::intern_pages`] runs, and is invisible to eviction until
    /// [`Store::commit_image`].
    pub fn begin_image(&self, label: &str, owner: NodeId, epoch: u64, now: SimTime) -> ImageId {
        let mut inner = self.inner.lock();
        let image = inner.books.next_image();
        let record = Record::Begin {
            image,
            created_at: books::time_nanos(now),
            label: label.to_owned(),
        };
        self.crashpoint("begin.before_journal");
        let after_site = Some("begin.after_journal");
        self.log(&mut inner, (owner, epoch), record, after_site);
        ImageId(image)
    }

    /// The device half of an intern attempt: allocates one page per
    /// missed content under the placement policy and writes the non-zero
    /// ones. Returns every allocated page (in `payload` order) and the
    /// ones whose bytes crossed the fabric. On a failed write the
    /// allocations are freed again.
    fn place_misses(
        &self,
        region: RegionId,
        payload: &[&PageData],
        node: NodeId,
    ) -> Result<(Vec<CxlPageId>, Vec<CxlPageId>), CxlError> {
        // One stream is first-fit packing: `alloc_batch`, page ids included.
        let streams = match self.config.placement {
            PlacementPolicy::Locality => 1,
            PlacementPolicy::Stripe => u32::try_from(self.device.shard_count()).unwrap_or(u32::MAX),
        };
        let pages = payload.len() as u64;
        let allocated = self.device.alloc_batch_striped(region, pages, streams)?;
        // Crash here: pages allocated but unjournaled — recovery frees
        // them as leaked.
        self.crashpoint("intern.after_alloc");
        // Fresh allocations are already zeroed, so only non-zero misses
        // cross the fabric.
        let writes: Vec<(CxlPageId, PageData)> = payload
            .iter()
            .zip(&allocated)
            .filter(|(d, _)| !matches!(d, PageData::Zero))
            .map(|(d, &p)| (p, (*d).clone()))
            .collect();
        let written_pages = writes.iter().map(|(p, _)| *p).collect();
        if let Err(e) = self.device.write_pages_owned(writes, node) {
            // Roll the attempt back so a retry starts from scratch.
            self.free_pages(&allocated);
            return Err(e);
        }
        // Crash here: content written but unjournaled — still leaked
        // pages from recovery's point of view. Constructive ordering:
        // device first, journal second.
        self.crashpoint("intern.after_data_write");
        Ok((allocated, written_pages))
    }

    /// Interns a batch of page contents for `image`, returning the
    /// backing device page for each input **in input order**. Content
    /// already resident (in any image, or earlier in this batch) resolves
    /// to the existing page and moves no bytes; zero pages cost one
    /// allocation ever and no write. Callers charge
    /// `LatencyModel::cxl_batch_write(outcome.written)` for the transfer.
    ///
    /// All-or-nothing per attempt: on error every device page this call
    /// allocated is freed again and the index is untouched, so wrapping
    /// the call in `cxl_fault::with_backoff` retries cannot double-count
    /// references.
    ///
    /// The one mutator that does not go through [`Books::apply`]:
    /// constructive ordering puts the device work before the record, and
    /// the record names pages only the device work can know.
    ///
    /// # Errors
    ///
    /// Propagates device allocation/write failures (including injected
    /// faults), and the journal's refusal of an `Intern` record one
    /// generation cannot hold ([`journal::check_capacity`]; not
    /// transient).
    ///
    /// # Panics
    ///
    /// Panics if `image` is not a pending image of this store.
    pub fn intern_pages(
        &self,
        image: ImageId,
        data: &[PageData],
        node: NodeId,
    ) -> Result<InternOutcome, CxlError> {
        let mut inner = self.inner.lock();
        let epoch = match inner.books.require(image, false, "intern_pages") {
            Ok(meta) => meta.epoch,
            Err(e) => panic!("{e}"),
        };

        // Resolve each run of equal fingerprints (zero pages arrive in
        // long runs) with one index probe; content seen for the first
        // time reserves a slot and is queued for allocation.
        let fps: Vec<u64> = data.iter().map(PageData::fingerprint).collect();
        let mut slots: Vec<Slot> = Vec::with_capacity(fps.len());
        let mut missed: Vec<Slot> = Vec::new();
        let mut miss_payload: Vec<&PageData> = Vec::new();
        let mut pos = 0;
        let index = &mut inner.books.index;
        for run in fps.chunk_by(|a, b| a == b) {
            let (slot, fresh) = index.find_or_reserve(run[0]);
            if fresh {
                missed.push(slot);
                miss_payload.push(&data[pos]);
            }
            slots.resize(slots.len() + run.len(), slot);
            pos += run.len();
        }
        let shared = (fps.len() - missed.len()) as u64;
        let zero = data.iter().filter(|d| matches!(d, PageData::Zero)).count() as u64;

        let (allocated, written_pages) = match self.place_misses(inner.region, &miss_payload, node)
        {
            Ok(placed) => placed,
            Err(e) => {
                // All-or-nothing: the attempt's reservations go back, so
                // a retry starts from the index it found.
                for &slot in missed.iter().rev() {
                    inner.books.index.vacate(slot);
                }
                return Err(e);
            }
        };

        // Device state is in place — publish to the index.
        let index = &mut inner.books.index;
        for (&slot, &page) in missed.iter().zip(&allocated) {
            index.bind(slot, page);
        }
        let mut pages = Vec::with_capacity(fps.len());
        for run in slots.chunk_by(|a, b| a == b) {
            let page = index.add_refs(run[0], run.len() as u64);
            pages.resize(pages.len() + run.len(), page);
        }

        // Journal the published bindings (fingerprint → device page,
        // with multiplicity) so replay rebuilds exact refcounts.
        let record = Record::Intern {
            image: image.0,
            entries: fps.iter().copied().zip(pages.iter().map(|p| p.0)).collect(),
        };
        let mid_site = Some("intern.after_journal_payload");
        let journal_pages = match self.journal_append(&mut inner, (node, epoch), record, mid_site) {
            Ok((_, journal_pages)) => journal_pages,
            Err(e) => {
                // The record cannot be journaled: take the references
                // back, which frees exactly the pages placed above.
                let orphaned = books::drop_slot_refs(&mut inner.books.index, &slots);
                self.free_pages(&orphaned);
                return Err(e);
            }
        };
        self.crashpoint("intern.after_marker");
        if let Some(meta) = inner.books.images.get_mut(&image.0) {
            meta.slots.extend_from_slice(&slots);
        }

        let fresh = allocated.len() as u64;
        let written = written_pages.len() as u64;
        let stats = &mut inner.stats;
        stats.interned_pages += fps.len() as u64;
        stats.deduped_pages += shared;
        stats.fresh_pages += fresh;
        stats.zero_elided += fresh - written;
        for (counter, value) in [
            ("interned", fps.len() as u64),
            ("dedup_hits", shared),
            ("fresh_pages", fresh),
            ("bytes_saved", (fps.len() as u64 - written) * PAGE_SIZE),
        ] {
            cxl_telemetry::counter_add(TELEMETRY_LAYER, counter, Some(node.0), value);
        }
        self.crashpoint("intern.after_publish");
        Ok(InternOutcome {
            pages,
            fresh,
            written,
            shared,
            zero,
            journal_pages,
            written_pages,
        })
    }

    /// Publishes a pending image. `meta_region` is the
    /// checkpoint's committed metadata region; eviction destroys it along
    /// with the image's data references. Returns journal pages written
    /// (commit record plus any compaction this commit triggered) for the
    /// caller to charge to the virtual clock; 0 for non-durable stores.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyCommitted`] if `image` is already committed,
    /// [`StoreError::UnknownImage`] if it is not pending,
    /// [`StoreError::JournalFull`] if one journal generation cannot hold
    /// the `Commit` record, or the snapshot of books with this image in
    /// them — the image stays pending, for the caller to abort.
    pub fn commit_image(&self, image: ImageId, meta_region: RegionId) -> Result<u64, StoreError> {
        let op = "commit_image";
        let mut inner = self.inner.lock();
        let tags = inner.books.require(image, false, op)?.tags();
        let record = Record::Commit {
            image: image.0,
            meta_region: meta_region.0,
        };
        let full = |cause| StoreError::JournalFull { image, op, cause };
        if inner.journal.is_some() {
            // A commit moves the image between the snapshot's two lists
            // and changes no length: refuse now what the compaction
            // after the sealed record could not write.
            journal::check_capacity(inner.books.snapshot_len()).map_err(full)?;
        }
        // Crash here (or mid-record): no sealed Commit — recovery rolls
        // the image back as pending and sweeps its orphaned meta region.
        self.crashpoint("commit.before_journal");
        // Crash after: the sealed Commit is the durability point — the
        // image survives into the recovered catalog.
        let sites = [Some("commit.mid_record"), Some("commit.after_journal")];
        let (_, mut pages) = self
            .try_log(&mut inner, tags, record, sites)
            .map_err(full)?;
        let limit = self.config.journal_compact_bytes;
        let journal = inner.journal.as_ref();
        if journal.is_some_and(|j| j.wants_compaction(limit)) {
            pages += self.compact_journal_locked(&mut inner);
        }
        Ok(pages)
    }

    /// The one way an image leaves the books: by the record its state
    /// names — `Abort` while pending, `Release` or (`evict`) `Evict` once
    /// committed. Destructive ordering: journal first, free second —
    /// recovery re-applies a journaled removal idempotently. `sites` fire
    /// after the record is sealed and after the device is paid: the
    /// orphaned data pages freed and, for an eviction, the metadata region
    /// destroyed. Returns pages freed.
    fn remove_image(
        &self,
        inner: &mut Inner,
        image: u64,
        evict: bool,
        sites: Option<[&'static str; 2]>,
    ) -> u64 {
        let Some(meta) = inner.books.images.get(&image) else {
            return 0;
        };
        let (tags, record) = (meta.tags(), meta.removal_record(image, evict));
        let owed = self.log(inner, tags, record, sites.map(|s| s[0]));
        let mut freed = self.free_pages(&owed.free);
        if let Some(region) = owed.doomed_meta.filter(|_| evict) {
            freed += self.device.destroy_region(region).unwrap_or(0);
        }
        if let Some(sites) = sites {
            self.crashpoint(sites[1]);
        }
        freed
    }

    /// Abandons a pending image (failed checkpoint), dropping its index
    /// references and freeing any now-unreferenced device pages. Returns
    /// the number of data pages freed.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyCommitted`] if `image` is committed (release
    /// it instead), [`StoreError::UnknownImage`] if it is not pending.
    pub fn abort_image(&self, image: ImageId) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock();
        inner.books.require(image, false, "abort_image")?;
        let sites = Some(["abort.after_journal", "abort.after_free"]);
        Ok(self.remove_image(&mut inner, image.0, false, sites))
    }

    /// True while `image` is restorable (committed and not evicted).
    pub fn is_live(&self, image: ImageId) -> bool {
        self.inner.lock().books.in_state(image.0, true).is_some()
    }

    /// A copy of the image's entry, if live.
    pub fn image_meta(&self, image: ImageId) -> Option<ImageMeta> {
        self.inner.lock().books.in_state(image.0, true).cloned()
    }

    /// Ids of every committed image, ascending.
    pub fn images(&self) -> Vec<ImageId> {
        let inner = self.inner.lock();
        inner.books.committed().map(|(id, _)| ImageId(id)).collect()
    }

    /// Records a successful restore at `now` (LRU bookkeeping). No-op
    /// for unknown ids. Deliberately **not** journaled — a device write
    /// per restore would tax the fast path; after recovery, LRU falls
    /// back to creation order until restores refresh it.
    pub fn touch_restore(&self, image: ImageId, now: SimTime) {
        self.crashpoint("restore.touch");
        if let Some(meta) = self.inner.lock().books.in_state(image.0, true) {
            meta.last_restore = meta.last_restore.max(now);
        }
    }

    /// Pins or unpins an image. Pinned images are never evicted.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotCommitted`] for pending images,
    /// [`StoreError::UnknownImage`] otherwise-unknown ids.
    pub fn set_pinned(&self, image: ImageId, pinned: bool) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        let tags = inner.books.require(image, true, "set_pinned")?.tags();
        let record = Record::SetPinned {
            image: image.0,
            pinned,
        };
        self.log(&mut inner, tags, record, Some("pin.after_journal"));
        Ok(())
    }

    /// Marks `holder` as depending on the image (e.g. running instances
    /// restored from it). While the holder's lease is live, the image is
    /// exempt from eviction. `None` clears the lease.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotCommitted`] for pending images,
    /// [`StoreError::UnknownImage`] otherwise-unknown ids.
    pub fn set_lease(&self, image: ImageId, holder: Option<NodeId>) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        let tags = inner.books.require(image, true, "set_lease")?.tags();
        let record = Record::SetLease {
            image: image.0,
            holder: holder.map(|n| n.0),
        };
        self.log(&mut inner, tags, record, Some("lease.after_journal"));
        Ok(())
    }

    /// Releases a committed image: drops its index references, frees
    /// now-unreferenced data pages, and forgets the entry. The
    /// metadata region is the caller's to destroy (the mechanism owns
    /// it) — but the journal records it, so crash recovery destroys it
    /// if the caller died first. Returns the number of data pages freed.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotCommitted`] for pending images,
    /// [`StoreError::UnknownImage`] otherwise-unknown ids.
    pub fn release_image(&self, image: ImageId) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock();
        inner.books.require(image, true, "release_image")?;
        let sites = Some(["release.after_journal", "release.after_free"]);
        let freed = self.remove_image(&mut inner, image.0, false, sites);
        inner.stats.released_images += 1;
        inner.stats.evicted_pages += freed;
        Ok(freed)
    }

    /// Evicts images until device utilization is at or below the low
    /// watermark — but only once it exceeds the high watermark
    /// (hysteresis). Candidates are committed images that are not pinned
    /// and whose lease holder (if any) is not live in `leases` at `now`;
    /// they go in LRU-by-last-restore order (ties: lowest id). Each
    /// eviction frees the image's unshared data pages and destroys its
    /// metadata region.
    pub fn evict_to_low_watermark(&self, leases: &LeaseTable, now: SimTime) -> EvictionReport {
        self.evict_to_low_watermark_except(leases, now, &BTreeSet::new())
    }

    /// [`Store::evict_to_low_watermark`] with an in-memory protection
    /// set: images in `keep` are skipped even when unpinned and
    /// unleased. The porter passes the images its live instances were
    /// restored from — their lease holder may have crashed, but the
    /// restored processes on surviving nodes still map the image's
    /// device pages, so freeing them would leave dangling PTEs. The set
    /// is deliberately not journaled: it is derived state, rebuilt by
    /// any successor from its own instance table.
    pub fn evict_to_low_watermark_except(
        &self,
        leases: &LeaseTable,
        now: SimTime,
        keep: &BTreeSet<u64>,
    ) -> EvictionReport {
        if self.device.utilization() <= self.config.high_watermark {
            return EvictionReport::default();
        }
        self.evict_while(leases, now, keep, |device| {
            device.utilization() > self.config.low_watermark
        })
    }

    /// Evicts (same candidate rules as
    /// [`Store::evict_to_low_watermark`]) until at least `pages` device
    /// pages are free, regardless of watermarks — the porter's
    /// capacity-aware placement hook. Returns what was freed; check
    /// `device.free_pages()` afterwards to see whether the goal was met.
    pub fn evict_for(&self, pages: u64, leases: &LeaseTable, now: SimTime) -> EvictionReport {
        self.evict_for_except(pages, leases, now, &BTreeSet::new())
    }

    /// [`Store::evict_for`] with the same protection set as
    /// [`Store::evict_to_low_watermark_except`].
    pub fn evict_for_except(
        &self,
        pages: u64,
        leases: &LeaseTable,
        now: SimTime,
        keep: &BTreeSet<u64>,
    ) -> EvictionReport {
        self.evict_while(leases, now, keep, |device| device.free_pages() < pages)
    }

    /// Aborts pending images whose owner's lease has lapsed — the
    /// store-side half of crash-orphan reclamation
    /// ([`cxl_fault::reclaim_orphans`] destroys the on-device staging
    /// regions; this drops the index references a dead node's
    /// mid-checkpoint intern calls took). Returns data pages freed.
    pub fn reclaim_orphan_pending(&self, leases: &LeaseTable, now: SimTime) -> u64 {
        let mut inner = self.inner.lock();
        let orphans = inner.books.pending_where(|m| !leases.is_live(m.owner, now));
        orphans
            .into_iter()
            .map(|id| self.remove_image(&mut inner, id, false, None))
            .sum()
    }

    /// The content index, for auditors ([`IndexEntrySnapshot`] per
    /// entry, fingerprint-ordered).
    pub fn index_snapshot(&self) -> Vec<IndexEntrySnapshot> {
        self.inner.lock().books.index_snapshot()
    }

    /// Reference counts the index *should* hold, recomputed from the
    /// committed and pending images (fingerprint → multiplicity).
    pub fn live_reference_counts(&self) -> BTreeMap<u64, u64> {
        self.inner.lock().books.live_reference_counts()
    }

    /// Test hook: runs `f` on the live books, for comparing them with
    /// books folded from the journal.
    #[doc(hidden)]
    pub fn debug_with_books<R>(&self, f: impl FnOnce(&Books) -> R) -> R {
        f(&self.inner.lock().books)
    }

    /// Test hook: overwrites an index entry's refcount, desynchronizing
    /// it from the catalog (seeds `ContentIndexSkew`).
    #[doc(hidden)]
    pub fn debug_force_refs(&self, fingerprint: u64, refs: u64) {
        let index = &mut self.inner.lock().books.index;
        if let Some(slot) = index.find(fingerprint) {
            index.set_refs(slot, refs);
        }
    }

    /// Test hook: plants an index entry pointing at an arbitrary (e.g.
    /// freed) device page (seeds `DanglingIndexEntry`).
    #[doc(hidden)]
    pub fn debug_plant_index_entry(&self, fingerprint: u64, page: CxlPageId, refs: u64) {
        let index = &mut self.inner.lock().books.index;
        let (slot, _) = index.find_or_reserve(fingerprint);
        index.bind(slot, page);
        index.set_refs(slot, refs);
    }

    /// Test hook: slab positions the content index has ever handed out
    /// (occupied plus vacated) — grows only when no vacated slot is left.
    #[doc(hidden)]
    pub fn debug_index_slots(&self) -> usize {
        self.inner.lock().books.index.slots()
    }

    fn evictable(meta: &ImageMeta, leases: &LeaseTable, now: SimTime) -> bool {
        !meta.pinned && meta.lease.is_none_or(|holder| !leases.is_live(holder, now))
    }

    /// Evicts LRU-first while `keep_going(device)` holds and candidates
    /// remain.
    fn evict_while(
        &self,
        leases: &LeaseTable,
        now: SimTime,
        keep: &BTreeSet<u64>,
        keep_going: impl Fn(&CxlDevice) -> bool,
    ) -> EvictionReport {
        let mut report = EvictionReport::default();
        while keep_going(&self.device) {
            let mut inner = self.inner.lock();
            let victim = inner
                .books
                .committed()
                .filter(|(id, m)| !keep.contains(id) && Self::evictable(m, leases, now))
                .min_by_key(|(id, m)| (m.last_restore, *id))
                .map(|(id, _)| id);
            let Some(id) = victim else {
                break;
            };
            // Frees the image's unshared data pages and destroys its
            // metadata region.
            let sites = Some(["evict.after_journal", "evict.after_free"]);
            let freed = self.remove_image(&mut inner, id, true, sites);
            inner.stats.evicted_images += 1;
            inner.stats.evicted_pages += freed;
            report.images += 1;
            report.pages += freed;
        }
        if report.images > 0 {
            cxl_telemetry::counter_add(TELEMETRY_LAYER, "evicted_images", None, report.images);
            cxl_telemetry::counter_add(TELEMETRY_LAYER, "evicted_pages", None, report.pages);
            cxl_telemetry::record_span(
                "cxlstore.evict",
                0,
                now,
                now,
                &[("images", report.images), ("pages", report.pages)],
            );
        }
        report
    }

    /// Frees `pages` in one batch. Returns pages freed.
    fn free_pages(&self, pages: &[CxlPageId]) -> u64 {
        if pages.is_empty() {
            return 0;
        }
        // `free_batch` is all-or-nothing and its fault hook fires before
        // any mutation, so retrying a transient fault cannot double-free;
        // giving up instead would leak the pages for the store's
        // lifetime.
        retry(|| self.device.free_batch(pages)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimDuration;

    fn device() -> Arc<CxlDevice> {
        Arc::new(CxlDevice::new(256))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn intern(
        store: &Store,
        label: &str,
        data: &[PageData],
        now: SimTime,
    ) -> (ImageId, InternOutcome) {
        let img = store.begin_image(label, NodeId(0), 1, now);
        let out = store.intern_pages(img, data, NodeId(0)).unwrap();
        let meta = store.device().create_region(label);
        store.commit_image(img, meta).unwrap();
        (img, out)
    }

    #[test]
    fn identical_content_across_images_shares_one_device_page() {
        let store = Store::new(device());
        let payload = vec![PageData::pattern(7), PageData::pattern(8)];
        let (_, a) = intern(&store, "a", &payload, t(1));
        let (_, b) = intern(&store, "b", &payload, t(2));
        assert_eq!(a.fresh, 2);
        assert_eq!(a.written, 2);
        assert_eq!(b.fresh, 0);
        assert_eq!(b.shared, 2);
        assert_eq!(a.pages, b.pages, "second image reuses the same pages");
        let stats = store.stats();
        assert_eq!(stats.interned_pages, 4);
        assert_eq!(stats.deduped_pages, 2);
        assert_eq!(stats.bytes_saved(), 2 * PAGE_SIZE);
    }

    #[test]
    fn stripe_placement_spreads_fresh_pages_across_banks() {
        // Locality (the default) packs a miss batch first-fit — same
        // page ids the store always produced — while stripe spreads it
        // across every bank so each fabric port carries an even share.
        let payload: Vec<PageData> = (1..=16u64).map(PageData::pattern).collect();

        let d = Arc::new(CxlDevice::with_shards(256, 8));
        let store = Store::new(Arc::clone(&d));
        let (_, out) = intern(&store, "packed", &payload, t(1));
        let counts = d.shard_partition(out.written_pages.iter().copied());
        assert_eq!(counts[0], 16, "locality packs into the first bank");

        let d = Arc::new(CxlDevice::with_shards(256, 8));
        let store = Store::with_config(
            Arc::clone(&d),
            StoreConfig {
                placement: PlacementPolicy::Stripe,
                ..StoreConfig::default()
            },
        );
        let (_, out) = intern(&store, "striped", &payload, t(1));
        assert_eq!(out.fresh, 16);
        let counts = d.shard_partition(out.written_pages.iter().copied());
        assert_eq!(counts, vec![2; 8], "stripe balances every bank");
    }

    #[test]
    fn zero_pages_cost_one_allocation_and_no_write() {
        let d = device();
        let store = Store::new(Arc::clone(&d));
        let reads_before = d.stats().total_writes();
        let payload = vec![PageData::Zero, PageData::Zero, PageData::Zero];
        let (_, out) = intern(&store, "z", &payload, t(1));
        assert_eq!(out.fresh, 1, "one canonical zero page");
        assert_eq!(out.written, 0, "zero transfer elided");
        assert_eq!(out.zero, 3);
        assert_eq!(out.shared, 2, "second and third hit the canonical page");
        assert_eq!(out.pages[0], out.pages[1]);
        assert_eq!(d.stats().total_writes(), reads_before, "no bytes moved");
        // A later image's zeroes share the same canonical page.
        let (_, out2) = intern(&store, "z2", &[PageData::Zero], t(2));
        assert_eq!(out2.fresh, 0);
        assert_eq!(out2.pages[0], out.pages[0]);
    }

    #[test]
    fn release_frees_unshared_pages_but_keeps_shared_content() {
        let d = device();
        let store = Store::new(Arc::clone(&d));
        let shared_page = PageData::pattern(1);
        let (a, _) = intern(
            &store,
            "a",
            &[shared_page.clone(), PageData::pattern(2)],
            t(1),
        );
        let (_b, outb) = intern(
            &store,
            "b",
            &[shared_page.clone(), PageData::pattern(3)],
            t(2),
        );
        let used = d.used_pages();
        let freed = store.release_image(a).unwrap();
        assert_eq!(freed, 1, "only a's private page is freed");
        assert_eq!(d.used_pages(), used - 1);
        assert!(!store.is_live(a));
        // b's view of the shared page still resolves and reads back.
        let data = d.read_page(outb.pages[0], NodeId(0)).unwrap();
        assert_eq!(data, shared_page);
    }

    #[test]
    fn aborting_a_pending_image_rolls_its_references_back() {
        let d = device();
        let store = Store::new(Arc::clone(&d));
        let (_, committed) = intern(&store, "keep", &[PageData::pattern(9)], t(1));
        let before = d.used_pages();
        let img = store.begin_image("doomed", NodeId(1), 2, t(2));
        store
            .intern_pages(
                img,
                &[PageData::pattern(9), PageData::pattern(10)],
                NodeId(1),
            )
            .unwrap();
        assert_eq!(store.abort_image(img).unwrap(), 1, "private page freed");
        assert_eq!(d.used_pages(), before);
        // The surviving image's content is untouched.
        assert_eq!(
            d.read_page(committed.pages[0], NodeId(0)).unwrap(),
            PageData::pattern(9)
        );
        // Index holds exactly one entry again.
        assert_eq!(store.index_snapshot().len(), 1);
    }

    #[test]
    fn failed_intern_is_all_or_nothing() {
        use cxl_mem::DeviceOp;
        let d = device();
        let store = Store::new(Arc::clone(&d));
        let (_, _) = intern(&store, "base", &[PageData::pattern(1)], t(1));
        let used = d.used_pages();
        let snapshot = store.index_snapshot();

        // Inject a write fault: the intern attempt must roll back.
        #[derive(Debug)]
        struct FailWrites;
        impl cxl_mem::FaultHook for FailWrites {
            fn inject(
                &self,
                op: DeviceOp,
                _page: Option<CxlPageId>,
                _node: NodeId,
            ) -> Option<CxlError> {
                (op == DeviceOp::Write).then_some(CxlError::Transient { op: "write" })
            }
        }
        d.set_fault_hook(Some(Arc::new(FailWrites)));
        let img = store.begin_image("fails", NodeId(0), 2, t(2));
        let err = store
            .intern_pages(
                img,
                &[PageData::pattern(1), PageData::pattern(2)],
                NodeId(0),
            )
            .unwrap_err();
        assert!(err.is_transient());
        d.set_fault_hook(None);

        assert_eq!(d.used_pages(), used, "allocations rolled back");
        assert_eq!(store.index_snapshot(), snapshot, "index untouched");
        // The retry succeeds and refcounts end up right (refs=2 for the
        // shared fingerprint, not 3).
        let out = store
            .intern_pages(
                img,
                &[PageData::pattern(1), PageData::pattern(2)],
                NodeId(0),
            )
            .unwrap();
        assert_eq!(out.fresh, 1);
        let refs: Vec<u64> = store.index_snapshot().iter().map(|e| e.refs).collect();
        assert_eq!(refs.iter().sum::<u64>(), 3);
    }

    #[test]
    fn eviction_is_lru_and_respects_pins_and_leases() {
        let d = Arc::new(CxlDevice::new(64));
        let store = Store::with_config(
            Arc::clone(&d),
            StoreConfig {
                high_watermark: 0.3,
                low_watermark: 0.2,
                ..StoreConfig::default()
            },
        );
        let mut leases = LeaseTable::new(SimDuration::from_secs(10));
        leases.renew(NodeId(2), t(100));

        // Four images, ten private pages each.
        let mk = |i: u64, now| {
            let data: Vec<PageData> = (0..10).map(|p| PageData::pattern(i * 100 + p)).collect();
            intern(&store, &format!("img{i}"), &data, now).0
        };
        let a = mk(1, t(1)); // LRU
        let b = mk(2, t(2));
        let c = mk(3, t(3));
        let e = mk(4, t(4));
        store.set_pinned(b, true).unwrap();
        store.set_lease(c, Some(NodeId(2))).unwrap(); // live lease at t(100)
        store.touch_restore(a, t(50)); // now e is LRU, then a

        assert!(d.utilization() > 0.3);
        let report = store.evict_to_low_watermark(&leases, t(100));
        // e (last_restore t4) goes first, then a (t50); b pinned and c
        // leased survive even though utilization stays high.
        assert_eq!(report.images, 2);
        assert!(!store.is_live(e) && !store.is_live(a));
        assert!(store.is_live(b) && store.is_live(c));

        // Once the lease lapses, c becomes evictable; b never does.
        let report = store.evict_to_low_watermark(&leases, t(200));
        assert_eq!(report.images, 1);
        assert!(!store.is_live(c));
        assert!(store.is_live(b));
        let report = store.evict_to_low_watermark(&leases, t(201));
        assert_eq!(report.images, 0, "only the pinned image remains");
        assert!(store.is_live(b));
    }

    #[test]
    fn hysteresis_below_high_watermark_evicts_nothing() {
        let d = Arc::new(CxlDevice::new(1024));
        let store = Store::new(Arc::clone(&d));
        let leases = LeaseTable::new(SimDuration::from_secs(10));
        let (img, _) = intern(&store, "small", &[PageData::pattern(1)], t(1));
        let report = store.evict_to_low_watermark(&leases, t(2));
        assert_eq!(report, EvictionReport::default());
        assert!(store.is_live(img));
    }

    #[test]
    fn orphaned_pending_images_are_reclaimed_when_the_lease_lapses() {
        let d = device();
        let store = Store::new(Arc::clone(&d));
        let mut leases = LeaseTable::new(SimDuration::from_secs(5));
        leases.renew(NodeId(1), t(1));
        let img = store.begin_image("torn", NodeId(1), 1, t(1));
        store
            .intern_pages(
                img,
                &[PageData::pattern(1), PageData::pattern(2)],
                NodeId(1),
            )
            .unwrap();
        // Lease still live: nothing reclaimed.
        assert_eq!(store.reclaim_orphan_pending(&leases, t(2)), 0);
        // Lease lapsed: the torn image's pages come back.
        assert_eq!(store.reclaim_orphan_pending(&leases, t(60)), 2);
        assert_eq!(d.used_pages(), 0);
        assert!(store.index_snapshot().is_empty());
    }

    #[test]
    fn reference_counts_reconcile_with_the_catalog() {
        let store = Store::new(device());
        let shared = PageData::pattern(5);
        intern(&store, "a", &[shared.clone(), PageData::pattern(6)], t(1));
        intern(&store, "b", &[shared.clone(), shared.clone()], t(2));
        let expected = store.live_reference_counts();
        for e in store.index_snapshot() {
            assert_eq!(expected.get(&e.fingerprint), Some(&e.refs));
        }
        assert_eq!(expected.values().sum::<u64>(), 4);
    }

    #[test]
    fn mutators_return_typed_errors_instead_of_silent_no_ops() {
        let store = Store::new(device());
        let ghost = ImageId(99);
        assert_eq!(
            store.commit_image(ghost, RegionId(1)),
            Err(StoreError::UnknownImage {
                image: ghost,
                op: "commit_image"
            })
        );
        assert_eq!(
            store.abort_image(ghost),
            Err(StoreError::UnknownImage {
                image: ghost,
                op: "abort_image"
            })
        );
        assert_eq!(
            store.release_image(ghost),
            Err(StoreError::UnknownImage {
                image: ghost,
                op: "release_image"
            })
        );
        assert_eq!(
            store.set_pinned(ghost, true),
            Err(StoreError::UnknownImage {
                image: ghost,
                op: "set_pinned"
            })
        );
        assert_eq!(
            store.set_lease(ghost, None),
            Err(StoreError::UnknownImage {
                image: ghost,
                op: "set_lease"
            })
        );

        // Pending images: commit works once, committed-only mutators
        // reject with NotCommitted until then.
        let img = store.begin_image("typed", NodeId(0), 1, t(1));
        assert_eq!(
            store.set_pinned(img, true),
            Err(StoreError::NotCommitted {
                image: img,
                op: "set_pinned"
            })
        );
        assert_eq!(
            store.release_image(img),
            Err(StoreError::NotCommitted {
                image: img,
                op: "release_image"
            })
        );
        let meta = store.device().create_region("typed-meta");
        store.commit_image(img, meta).unwrap();
        // Double commit and late abort both surface AlreadyCommitted.
        assert_eq!(
            store.commit_image(img, meta),
            Err(StoreError::AlreadyCommitted {
                image: img,
                op: "commit_image"
            })
        );
        assert_eq!(
            store.abort_image(img),
            Err(StoreError::AlreadyCommitted {
                image: img,
                op: "abort_image"
            })
        );
        // After release, the id is unknown — a double release says so.
        store.release_image(img).unwrap();
        assert_eq!(
            store.release_image(img),
            Err(StoreError::UnknownImage {
                image: img,
                op: "release_image"
            })
        );
    }

    #[test]
    fn apply_is_total_a_record_that_meets_the_wrong_state_changes_nothing() {
        let store = Store::new(device());
        let (committed, _) = intern(&store, "committed", &[PageData::pattern(1)], t(1));
        let pending = store.begin_image("pending", NodeId(0), 2, t(2));
        store
            .intern_pages(pending, &[PageData::pattern(2)], NodeId(0))
            .unwrap();
        let (c, p) = (committed.0, pending.0);
        let misfits = [
            Record::Commit {
                image: c,
                meta_region: 77,
            },
            Record::Abort { image: c },
            Record::Abort { image: 99 },
            Record::SetPinned {
                image: p,
                pinned: true,
            },
            Record::SetLease {
                image: p,
                holder: Some(3),
            },
        ];
        let mut books = store.debug_with_books(|live| {
            let mut payload = Vec::new();
            live.encode_snapshot(&mut payload);
            let mut copy = Books::default();
            copy.apply(&journal::decode_payload(&payload).unwrap());
            copy
        });
        let render = |books: &Books| {
            let mut payload = Vec::new();
            books.encode_snapshot(&mut payload);
            (payload, books.index_snapshot())
        };
        let before = render(&books);
        for record in misfits {
            let entry = JournalEntry {
                seq: 0,
                owner: 9,
                epoch: 9,
                record,
            };
            assert_eq!(books.apply(&entry), Effects::default(), "{entry:?}");
            assert_eq!(render(&books), before, "{entry:?}");
        }
        // A removal of a pending image by a committed image's record
        // removes nothing, but still dooms the region it names — recovery
        // destroys it idempotently.
        let entry = JournalEntry {
            seq: 0,
            owner: 9,
            epoch: 9,
            record: Record::Evict {
                image: p,
                meta_region: 55,
            },
        };
        let owed = books.apply(&entry);
        assert_eq!((owed.free, owed.doomed_meta), (vec![], Some(RegionId(55))));
        assert_eq!(render(&books), before);
    }

    #[test]
    fn an_intern_that_cannot_be_journaled_is_rolled_back_whole() {
        use cxl_mem::DeviceOp;
        // Journal pages are written on behalf of no node.
        #[derive(Debug)]
        struct FailJournalWrites;
        impl cxl_mem::FaultHook for FailJournalWrites {
            fn inject(
                &self,
                op: DeviceOp,
                _page: Option<CxlPageId>,
                node: NodeId,
            ) -> Option<CxlError> {
                (op == DeviceOp::Write && node == NodeId(u32::MAX))
                    .then_some(CxlError::Transient { op: "write" })
            }
        }
        let d = Arc::new(CxlDevice::new(1024));
        let store = Store::with_config(Arc::clone(&d), durable_config());
        let (_, _) = intern(&store, "base", &[PageData::pattern(1)], t(1));
        let img = store.begin_image("fails", NodeId(0), 2, t(2));
        let (used, index, stats) = (d.used_pages(), store.index_snapshot(), store.stats());
        // Enough pages that the record needs journal pages of its own.
        let mut data = vec![PageData::pattern(1), PageData::Zero];
        data.extend((2..400).map(PageData::pattern));

        d.set_fault_hook(Some(Arc::new(FailJournalWrites)));
        let err = store.intern_pages(img, &data, NodeId(0)).unwrap_err();
        d.set_fault_hook(None);
        assert!(err.is_transient());
        assert_eq!(d.used_pages(), used, "placed pages freed again");
        assert_eq!(store.index_snapshot(), index, "references taken back");
        assert_eq!(store.stats(), stats);

        // The retry journals, and recovery sees one Intern record.
        let out = store.intern_pages(img, &data, NodeId(0)).unwrap();
        assert_eq!((out.fresh, out.shared), (399, 1));
        let meta = d.create_region("fails-meta");
        store.commit_image(img, meta).unwrap();
        let expected = store.index_snapshot();
        drop(store);
        let (recovered, report) = Store::recover(Arc::clone(&d), durable_config(), NodeId(1));
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(recovered.index_snapshot(), expected);
    }

    fn durable_config() -> StoreConfig {
        StoreConfig {
            durable: true,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn durable_store_recovers_catalog_index_and_flags() {
        let d = device();
        let store = Store::with_config(Arc::clone(&d), durable_config());
        let shared = PageData::pattern(5);

        let a = store.begin_image("img-a", NodeId(1), 1, t(1));
        let out_a = store
            .intern_pages(a, &[shared.clone(), PageData::pattern(6)], NodeId(1))
            .unwrap();
        assert!(out_a.journal_pages > 0, "durable interns write the journal");
        let meta_a = d.create_region("img-a-meta");
        store.commit_image(a, meta_a).unwrap();
        store.set_pinned(a, true).unwrap();

        let b = store.begin_image("img-b", NodeId(2), 2, t(2));
        store
            .intern_pages(b, &[shared.clone(), PageData::Zero], NodeId(2))
            .unwrap();
        let meta_b = d.create_region("img-b-meta");
        store.commit_image(b, meta_b).unwrap();
        store.set_lease(b, Some(NodeId(2))).unwrap();

        // A released image must stay gone after recovery.
        let c = store.begin_image("img-c", NodeId(1), 3, t(3));
        store
            .intern_pages(c, &[PageData::pattern(77)], NodeId(1))
            .unwrap();
        let meta_c = d.create_region("img-c-meta");
        store.commit_image(c, meta_c).unwrap();
        store.release_image(c).unwrap();
        d.destroy_region(meta_c).unwrap();

        let index_before = store.index_snapshot();
        let expect_next = store.begin_image("probe", NodeId(1), 4, t(4));
        store.abort_image(expect_next).unwrap();
        drop(store); // coordinator dies; only the device survives

        let (recovered, report) = Store::recover(Arc::clone(&d), durable_config(), NodeId(3));
        assert_eq!(report.committed_images, 2);
        assert_eq!(report.rolled_back_pending, 0);
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(report.freed_leaked_pages, 0);
        assert_eq!(report.fingerprint_mismatches, 0);
        assert!(report.pages_scanned > 0);
        assert!(report.compaction_pages_written > 0);

        assert!(recovered.is_live(a) && recovered.is_live(b));
        assert!(!recovered.is_live(c));
        let meta = recovered.image_meta(a).unwrap();
        assert!(meta.pinned);
        assert_eq!(meta.owner, NodeId(1));
        assert_eq!(meta.meta_region(), Some(meta_a));
        assert_eq!(recovered.image_meta(b).unwrap().lease, Some(NodeId(2)));
        assert_eq!(recovered.index_snapshot(), index_before);

        // Recovery is deterministic: same device state, same report.
        drop(recovered);
        let (again, report2) = Store::recover(Arc::clone(&d), durable_config(), NodeId(3));
        let mut expected = report.clone();
        // The re-recovery replays the compacted journal (one snapshot)
        // and sees the fresh generation number.
        expected.journal_generation += 1;
        expected.entries_replayed = 1;
        expected.pages_scanned = report2.pages_scanned;
        assert_eq!(report2, expected);

        // Ids never repeat across the crash.
        let next = again.begin_image("post", NodeId(3), 5, t(9));
        assert!(next.0 > expect_next.0);
    }

    #[test]
    fn recovery_frees_pages_interned_but_never_journaled() {
        let d = device();
        let store = Store::with_config(Arc::clone(&d), durable_config());
        let (a, _) = intern(&store, "keep", &[PageData::pattern(1)], t(1));

        // Model a crash between the device write and the journal record:
        // pages land in the data region with no Intern record. The crash
        // sweep reaches this state via the `intern.after_data_write`
        // crashpoint; here we plant it directly.
        let region = store.data_region();
        let orphaned = d.alloc_batch(region, 3).unwrap();
        d.write_pages(&[(orphaned[0], PageData::pattern(9))], NodeId(1))
            .unwrap();
        drop(store);

        let (recovered, report) = Store::recover(Arc::clone(&d), durable_config(), NodeId(0));
        assert_eq!(report.freed_leaked_pages, 3);
        assert_eq!(report.committed_images, 1);
        assert!(recovered.is_live(a));
        // Device accounting is balanced: exactly the surviving image's
        // page, its meta region page count, and the journal remain.
        assert_eq!(recovered.index_snapshot().len(), 1);
    }
}
