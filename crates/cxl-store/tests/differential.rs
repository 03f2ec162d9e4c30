//! Differential test of the store's content index against a naive model.
//!
//! The store updates its index once per *run* of equal fingerprints; the
//! model below does what the store did before that: one step per page,
//! one refcount at a time, freeing a page the moment its count reaches
//! zero. Seeded random sequences of begin / intern / commit / abort /
//! release / evict with duplicate-heavy payloads (long zero runs, the same
//! seed repeated inside one batch, the same bytes in two representations)
//! must leave the two in the same state after every step — page ids
//! included, because the order pages are freed in is the order the device
//! hands them out again, and each intern's fresh pages are striped across
//! the device's banks.
//!
//! The index is a slab whose slots images hold: the same runs check that
//! a slot vacated by a release is reused by the next new content (the
//! slab is never longer than the most entries that were ever live at
//! once), and that recovery rebuilds the same entries — fingerprint,
//! device page and count — from the journal alone.
//!
//! The live mutators and recovery share one `Books::apply`; what only the
//! live side does (the intern body, the order records are appended in) is
//! held to it here: after every step of the durable runs the journal is
//! decoded from the device and folded through `apply` into fresh books,
//! which must equal the live store's.

use std::collections::BTreeMap;
use std::sync::Arc;

use cxl_fault::LeaseTable;
use cxl_mem::{CxlDevice, CxlError, CxlPageId, NodeId, PageData, PAGE_SIZE};
use cxl_store::journal::{self, JournalEntry, Record, SnapshotState};
use cxl_store::{Books, ImageId, Store, StoreConfig, StoreError};
use simclock::{SimDuration, SimTime};

const DEVICE_PAGES: u64 = 256;
/// `CxlDevice::new` splits the device into this many equal banks.
const BANKS: u64 = 8;
const BANK_PAGES: u64 = DEVICE_PAGES / BANKS;
const STEPS: usize = 400;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A batch made of runs: zero pages, one of a few pattern seeds, the
/// verbatim bytes of one of those patterns, or an all-zero byte page.
fn payload(rng: &mut Rng) -> Vec<PageData> {
    let mut pages = Vec::new();
    for _ in 0..1 + rng.below(6) {
        let longest = if rng.below(3) == 0 { 24 } else { 3 };
        let run = 1 + rng.below(longest);
        let seed = 100 + rng.below(40) as u64;
        let page = match rng.below(8) {
            0..=2 => PageData::Zero,
            3..=5 => PageData::pattern(seed),
            6 => {
                let mut bytes = vec![0u8; PAGE_SIZE as usize];
                PageData::pattern(seed).read(0, &mut bytes);
                PageData::from_bytes(&bytes)
            }
            _ => PageData::from_bytes(&[]),
        };
        pages.extend(std::iter::repeat_n(page, run));
    }
    pages
}

/// The fingerprint of all-zero content, in any representation.
fn zero_fingerprint() -> u64 {
    PageData::Zero.fingerprint()
}

/// One bank of the device's allocator: freed pages come back last-in
/// first-out, then the slab grows.
#[derive(Default, Clone)]
struct Bank {
    freed: Vec<CxlPageId>,
    grown: u64,
}

impl Bank {
    /// Takes up to `want` pages from bank `b`; fewer only when it is full.
    fn fill(&mut self, b: u64, want: u64, out: &mut Vec<CxlPageId>) -> u64 {
        let mut got = 0;
        while got < want {
            let page = match self.freed.pop() {
                Some(page) => page,
                None if self.grown < BANK_PAGES => {
                    self.grown += 1;
                    CxlPageId(b * BANK_PAGES + self.grown - 1)
                }
                None => break,
            };
            out.push(page);
            got += 1;
        }
        got
    }
}

#[derive(Default)]
struct Model {
    /// fingerprint → (device page, references), one count per page.
    index: BTreeMap<u64, (CxlPageId, u64)>,
    /// Fingerprints each pending or committed image references, in
    /// intern order.
    images: BTreeMap<u64, Vec<u64>>,
    /// The allocator, one bank per `BANK_PAGES` page ids.
    banks: Vec<Bank>,
    /// Pages another region holds for the whole run.
    ballast: u64,
    /// Most index entries live at once so far (ops only ever grow or only
    /// ever shrink the index, so op boundaries see every peak).
    peak_entries: usize,
    /// Index entries ever created.
    minted: usize,
}

impl Model {
    /// A model of the device after `ballast` pages went to another
    /// region first-fit, bank 0 first.
    fn new(ballast: u64) -> Self {
        let mut model = Model {
            banks: vec![Bank::default(); BANKS as usize],
            ballast,
            ..Model::default()
        };
        let mut held = Vec::new();
        for (b, bank) in (0..).zip(&mut model.banks) {
            bank.fill(b, ballast - held.len() as u64, &mut held);
        }
        model
    }

    /// One intern's `n` fresh pages: bank `b` gets `n / BANKS` of them,
    /// plus one while `b < n % BANKS`; what a full bank cannot take is
    /// then taken first-fit, bank 0 first.
    fn alloc(&mut self, n: u64) -> Vec<CxlPageId> {
        let mut out = Vec::new();
        let mut remaining = n;
        for (b, bank) in (0..).zip(&mut self.banks) {
            let share = n / BANKS + u64::from(b < n % BANKS);
            remaining -= bank.fill(b, share, &mut out);
        }
        for (b, bank) in (0..).zip(&mut self.banks) {
            remaining -= bank.fill(b, remaining, &mut out);
        }
        assert_eq!(remaining, 0, "the model's device is full");
        out
    }

    /// Interns page by page, placing the content seen for the first time
    /// as one batch; returns the backing page of each input, how many
    /// were first seen, and how many of those were written: all but
    /// all-zero content, whatever its representation (fresh device pages
    /// are already zeroed).
    fn intern(&mut self, image: ImageId, data: &[PageData]) -> (Vec<CxlPageId>, u64, u64) {
        let fps: Vec<u64> = data.iter().map(PageData::fingerprint).collect();
        let mut first_seen: Vec<u64> = Vec::new();
        for &fp in &fps {
            if !self.index.contains_key(&fp) && !first_seen.contains(&fp) {
                first_seen.push(fp);
            }
        }
        let fresh = first_seen.len() as u64;
        let written = first_seen.iter().filter(|&&fp| fp != zero_fingerprint());
        let written = written.count() as u64;
        for (fp, page) in first_seen.into_iter().zip(self.alloc(fresh)) {
            self.index.insert(fp, (page, 0));
        }
        let mut pages = Vec::new();
        for fp in fps {
            let entry = self.index.get_mut(&fp).expect("placed above");
            entry.1 += 1;
            pages.push(entry.0);
            self.images.entry(image.0).or_default().push(fp);
        }
        self.peak_entries = self.peak_entries.max(self.index.len());
        self.minted += fresh as usize;
        (pages, fresh, written)
    }

    /// Drops an image's references page by page; returns pages freed.
    fn drop_image(&mut self, image: ImageId) -> u64 {
        let mut freed = 0;
        for fp in self.images.remove(&image.0).expect("model knows the image") {
            let entry = self
                .index
                .get_mut(&fp)
                .expect("referenced content is indexed");
            entry.1 -= 1;
            if entry.1 == 0 {
                let page = self.index.remove(&fp).expect("present").0;
                self.banks[(page.0 / BANK_PAGES) as usize].freed.push(page);
                freed += 1;
            }
        }
        freed
    }
}

/// The store's index, reference recount and device contents against the
/// model. `exact_pages` also compares page ids (a volatile store shares
/// its device with nobody; a durable one shares it with the journal).
fn check(store: &Store, model: &Model, exact_pages: bool, step: &str) {
    let snapshot = store.index_snapshot();
    let got: Vec<(u64, u64)> = snapshot.iter().map(|e| (e.fingerprint, e.refs)).collect();
    let want: Vec<(u64, u64)> = model.index.iter().map(|(&fp, e)| (fp, e.1)).collect();
    assert_eq!(got, want, "refcounts after {step}");
    let recount: Vec<(u64, u64)> = store.live_reference_counts().into_iter().collect();
    assert_eq!(recount, want, "catalog recount after {step}");
    let pages: Vec<CxlPageId> = snapshot.iter().map(|e| e.page).collect();
    let resident = store
        .device()
        .fingerprint_pages(&pages)
        .expect("live pages");
    let indexed: Vec<u64> = snapshot.iter().map(|e| e.fingerprint).collect();
    assert_eq!(resident, indexed, "resident content after {step}");
    if exact_pages {
        let want: Vec<CxlPageId> = model.index.values().map(|e| e.0).collect();
        assert_eq!(pages, want, "page ids after {step}");
        let used = model.index.len() as u64 + model.ballast;
        assert_eq!(store.device().used_pages(), used);
    }
}

/// The books as the snapshot encoder renders them: `next_image`, index
/// bindings, and every image — state, flags, times, fingerprints in
/// intern order. (Slot numbers are host-side names and differ between a
/// live index and a replayed one; nothing here shows them.)
fn rendered(books: &Books) -> SnapshotState {
    let mut payload = Vec::new();
    books.encode_snapshot(&mut payload);
    match journal::decode_payload(&payload) {
        Some(JournalEntry {
            record: Record::Snapshot(state),
            ..
        }) => state,
        other => panic!("a snapshot payload decodes to a snapshot, got {other:?}"),
    }
}

/// Decodes the journal from the device, folds its entries through
/// `Books::apply` into fresh books, and compares them with the live
/// store's: index triples, image table, `next_image`.
fn check_replay(device: &CxlDevice, store: &Store, step: &str) {
    let generation = (journal::find_generations(device).pop()).expect("a durable store journals");
    let loaded = journal::snapshot_generation(device, &generation).expect("valid superblock");
    assert_eq!(loaded.log.torn_bytes, 0, "torn tail after {step}");
    let mut replayed = Books::default();
    for entry in &loaded.log.entries {
        replayed.apply(entry);
    }
    store.debug_with_books(|live| {
        assert_eq!(
            replayed.index_snapshot(),
            live.index_snapshot(),
            "replayed index after {step}"
        );
        assert_eq!(
            rendered(&replayed),
            rendered(live),
            "replayed image table after {step}"
        );
        assert_eq!(replayed.next_image(), live.next_image(), "after {step}");
    });
}

/// Applies what an eviction flavour did to the model: its victims are the
/// committed images that vanished, oldest first.
fn apply_evictions(store: &Store, model: &mut Model, committed: &mut Vec<ImageId>, pages: u64) {
    let live = store.images();
    let mut freed = 0;
    committed.retain(|image| {
        let kept = live.contains(image);
        if !kept {
            freed += model.drop_image(*image);
        }
        kept
    });
    assert_eq!(pages, freed, "eviction freed what the model freed");
}

/// One seeded run. `ballast` pages go to another region before the store
/// interns anything, filling banks first-fit, so that interns meet full
/// banks and take their share first-fit elsewhere.
fn run(seed: u64, durable: bool, ballast: u64) -> (Arc<CxlDevice>, Store, Model) {
    let config = StoreConfig {
        high_watermark: 0.08,
        low_watermark: 0.04,
        durable,
        // Small enough that the sequence compacts the journal many times.
        journal_compact_bytes: 4096,
    };
    let device = Arc::new(CxlDevice::new(DEVICE_PAGES));
    let store = Store::with_config(Arc::clone(&device), config);
    let leases = LeaseTable::new(SimDuration::from_secs(1));
    let node = NodeId(0);
    let mut rng = Rng(seed);
    assert_eq!(device.shard_count() as u64, BANKS, "the model's banks");
    let ballast_region = device.create_region("ballast");
    device.alloc_batch(ballast_region, ballast).expect("fits");
    let mut model = Model::new(ballast);
    let mut pending: Vec<ImageId> = Vec::new();
    let mut committed: Vec<ImageId> = Vec::new();
    let exact = !durable;

    for step in 0..STEPS {
        let now = SimTime::from_nanos(step as u64 + 1);
        let what = match rng.below(10) {
            0 | 1 if pending.len() < 3 => {
                let image = store.begin_image("img", node, step as u64, now);
                model.images.insert(image.0, Vec::new());
                pending.push(image);
                "begin"
            }
            0..=4 if !pending.is_empty() => {
                let image = pending[rng.below(pending.len())];
                let data = payload(&mut rng);
                let out = store.intern_pages(image, &data, node).expect("device fits");
                let (pages, fresh, written) = model.intern(image, &data);
                let zero = (data.iter())
                    .filter(|d| d.fingerprint() == zero_fingerprint())
                    .count() as u64;
                assert_eq!((out.fresh, out.shared), (fresh, data.len() as u64 - fresh));
                assert_eq!(out.zero, zero, "zero pages by content");
                assert_eq!(out.written, written, "only non-zero content is written");
                if exact {
                    assert_eq!(out.pages, pages, "input-order backing pages");
                }
                "intern"
            }
            5 if !pending.is_empty() => {
                let image = pending.swap_remove(rng.below(pending.len()));
                let meta = device.create_region("meta");
                store.commit_image(image, meta).expect("pending");
                committed.push(image);
                committed.sort();
                "commit"
            }
            6 if !pending.is_empty() => {
                let image = pending.swap_remove(rng.below(pending.len()));
                let freed = store.abort_image(image).expect("pending");
                assert_eq!(freed, model.drop_image(image));
                "abort"
            }
            7 if !committed.is_empty() => {
                let image = committed.remove(rng.below(committed.len()));
                let meta = store.image_meta(image).and_then(|m| m.meta_region());
                let meta = meta.expect("live");
                let freed = store.release_image(image).expect("committed");
                assert_eq!(freed, model.drop_image(image));
                device
                    .destroy_region(meta)
                    .expect("release leaves it to us");
                "release"
            }
            8 => {
                let report = if rng.below(2) == 0 {
                    store.evict_for(device.free_pages() + 1, &leases, now)
                } else {
                    store.evict_to_low_watermark(&leases, now)
                };
                apply_evictions(&store, &mut model, &mut committed, report.pages);
                "evict"
            }
            _ => continue,
        };
        let at = format!("step {step} ({what}, seed {seed})");
        check(&store, &model, exact, &at);
        if durable {
            check_replay(&device, &store, &at);
        }
        // Vacated slots are reused before the slab grows: it is exactly
        // as long as the index was at its fullest.
        assert_eq!(
            store.debug_index_slots(),
            model.peak_entries,
            "slab length after step {step} ({what}, seed {seed})"
        );
    }
    assert!(
        model.minted > 2 * model.peak_entries,
        "seed {seed}: the run must mint far more entries than the slab has slots"
    );
    (device, store, model)
}

#[test]
fn store_differential_volatile_matches_per_page_model_page_for_page() {
    for seed in [1, 2025, 6502] {
        run(seed, false, 0);
        // Bank 0 full and bank 1 nearly so: shares fall back first-fit.
        run(seed, false, 2 * BANK_PAGES - 4);
    }
}

#[test]
fn store_differential_durable_matches_model_and_recovers_to_it() {
    for seed in [3, 2025, 6502] {
        let (device, store, mut model) = run(seed, true, 0);
        let config = store.config();
        let pending: Vec<u64> = model
            .images
            .keys()
            .copied()
            .filter(|&id| !store.is_live(ImageId(id)))
            .collect();
        let before = store.index_snapshot();
        drop(store);
        // Recovery replays the journal and rolls pending images back.
        let (recovered, report) = Store::recover(device, config, NodeId(1));
        assert_eq!(report.fingerprint_mismatches, 0);
        assert_eq!(report.rolled_back_pending, pending.len() as u64);
        for id in pending {
            model.drop_image(ImageId(id));
        }
        check(
            &recovered,
            &model,
            false,
            &format!("recovery (seed {seed})"),
        );
        // Same entries on the same device pages as before the crash,
        // less what only the rolled-back images referenced.
        let survived: Vec<_> = before
            .into_iter()
            .filter_map(|mut entry| {
                entry.refs = model.index.get(&entry.fingerprint)?.1;
                Some(entry)
            })
            .collect();
        assert_eq!(recovered.index_snapshot(), survived, "seed {seed}");
    }
}

/// Folds every live journal-region page — page id, then its 4096 bytes —
/// into an FNV-1a hash, generations and page ids ascending.
fn fold_journal_region(device: &CxlDevice, hash: &mut u64) {
    let mut fold = |byte: u8| *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    let live = device.live_pages();
    let mut raw = vec![0u8; PAGE_SIZE as usize];
    for generation in cxl_store::journal::find_generations(device) {
        let pages: Vec<CxlPageId> = live
            .iter()
            .filter(|(_, region)| *region == generation.region)
            .map(|(page, _)| *page)
            .collect();
        let contents = device.snapshot_pages(&pages).expect("live pages");
        for (page, data) in pages.iter().zip(&contents) {
            page.0.to_le_bytes().into_iter().for_each(&mut fold);
            data.read(0, &mut raw);
            raw.iter().copied().for_each(&mut fold);
        }
    }
}

/// One fixed intern / commit / release / evict / compact / abort script
/// against a durable store whose 1 KiB limit lets B's commit compact.
/// The journal region is hashed after every step (compaction destroys the
/// previous generation, so the end state alone would hide most records).
/// The page count was recorded on the commit *before* the content index
/// became a slab and journal pages single-copy: slot numbering, the
/// snapshot encoder and the owning device write may not move one byte or
/// one page write. The region hash was re-recorded when the page
/// fingerprint became keyed word mixes with a closed form for pattern
/// pages (the records carry fingerprint values; every record kept its
/// length, so the page count held). Both were re-recorded together for
/// two causes: a commit compacts only once the records after the
/// generation's snapshot outgrow it (43 → 41 pages: C's commit no
/// longer compacts), and interns stripe their fresh pages
/// across the device's banks (the `Intern` records and snapshots carry
/// the new page ids; with striping alone the count stays 43 and only the
/// hash moves).
#[test]
fn journal_golden_fixed_script_pins_pages_written_and_region_bytes() {
    const GOLDEN_JOURNAL_PAGES_WRITTEN: u64 = 41;
    const GOLDEN_REGION_FNV: u64 = 14_930_756_822_010_032_464;

    let device = Arc::new(CxlDevice::new(DEVICE_PAGES));
    let store = Store::with_config(
        Arc::clone(&device),
        StoreConfig {
            durable: true,
            journal_compact_bytes: 1024,
            ..StoreConfig::default()
        },
    );
    let leases = LeaseTable::new(SimDuration::from_secs(1));
    let node = NodeId(2);
    let at = |step: u64| SimTime::from_nanos(1_000 * step);
    let pat = PageData::pattern;
    let as_bytes = |page: &PageData| {
        let mut bytes = vec![0u8; PAGE_SIZE as usize];
        page.read(0, &mut bytes);
        PageData::from_bytes(&bytes)
    };
    let mut hash = 0xcbf2_9ce4_8422_2325u64;

    // A: an intra-batch duplicate, a zero run, one content in two
    // representations.
    let a = store.begin_image("golden:a", node, 1, at(1));
    let mut data = vec![pat(1), pat(2), pat(3)];
    data.extend(std::iter::repeat_n(PageData::Zero, 5));
    data.extend([pat(1), as_bytes(&pat(2))]);
    store.intern_pages(a, &data, node).expect("device fits");
    fold_journal_region(&device, &mut hash);
    let meta_a = device.create_region("golden:meta-a");
    store.commit_image(a, meta_a).expect("pending");
    fold_journal_region(&device, &mut hash);

    // B: dedups against A, adds 37 pages; its commit outgrows the
    // compaction limit.
    let b = store.begin_image("golden:b", NodeId(3), 2, at(2));
    let mut data = vec![pat(1)];
    data.extend((4..=40).map(pat));
    data.extend(std::iter::repeat_n(PageData::Zero, 3));
    store
        .intern_pages(b, &data, NodeId(3))
        .expect("device fits");
    fold_journal_region(&device, &mut hash);
    let meta_b = device.create_region("golden:meta-b");
    store.commit_image(b, meta_b).expect("pending");
    store.set_pinned(b, true).expect("committed");
    store.set_lease(b, Some(NodeId(3))).expect("committed");
    fold_journal_region(&device, &mut hash);

    // Releasing A frees the index entries only it held (2, 3); C then
    // interns new content into whatever the index hands back.
    store.release_image(a).expect("committed");
    device.destroy_region(meta_a).expect("ours to destroy");
    fold_journal_region(&device, &mut hash);
    let c = store.begin_image("golden:c", node, 3, at(3));
    let mut data: Vec<PageData> = (50..=60).map(pat).collect();
    data.extend([pat(2), PageData::Zero, pat(50)]);
    store.intern_pages(c, &data, node).expect("device fits");
    fold_journal_region(&device, &mut hash);
    let meta_c = device.create_region("golden:meta-c");
    store.commit_image(c, meta_c).expect("pending");
    store.touch_restore(c, at(4));
    fold_journal_region(&device, &mut hash);

    // Eviction takes B (unpinned, lease lapsed, least recently restored).
    store.set_pinned(b, false).expect("committed");
    let report = store.evict_for(device.free_pages() + 1, &leases, at(5_000_000));
    assert_eq!(report.images, 1);
    assert!(!store.is_live(b) && store.is_live(c));
    fold_journal_region(&device, &mut hash);

    store.compact_journal();
    fold_journal_region(&device, &mut hash);

    // D: a pending image in the snapshot, then aborted.
    let d = store.begin_image("golden:d", node, 4, at(6));
    store
        .intern_pages(d, &[pat(60), pat(70), PageData::Zero], node)
        .expect("device fits");
    store.compact_journal();
    fold_journal_region(&device, &mut hash);
    store.abort_image(d).expect("pending");
    fold_journal_region(&device, &mut hash);

    assert_eq!(
        (store.stats().journal_pages_written, hash),
        (GOLDEN_JOURNAL_PAGES_WRITTEN, GOLDEN_REGION_FNV),
        "journal pages written / FNV of the journal region after every step"
    );
}

/// A durable store on a `pages`-page device, with one small committed
/// image so the books are not empty, and both store auditors.
fn durable_store_with_one_image(pages: u64) -> (Arc<CxlDevice>, Store) {
    let device = Arc::new(CxlDevice::new(pages));
    let config = StoreConfig {
        durable: true,
        ..StoreConfig::default()
    };
    let store = Store::with_config(Arc::clone(&device), config);
    let keep = store.begin_image("limits:keep", NodeId(0), 1, SimTime::from_nanos(1));
    let data = [PageData::pattern(1), PageData::Zero];
    store.intern_pages(keep, &data, NodeId(0)).expect("fits");
    let meta = device.create_region("limits:meta-keep");
    store.commit_image(keep, meta).expect("pending");
    (device, store)
}

fn audits(store: &Store) -> Vec<cxl_check::Violation> {
    let mut violations = cxl_check::audit_store(store);
    violations.extend(cxl_check::audit_journal(store));
    violations
}

/// One superblock page lists 510 data pages, 2 088 960 bytes of record
/// stream. An `Intern` record is 16 bytes a page: 131 000 pages of it do
/// not fit, whatever they hold (here zeroes: one device page).
#[test]
fn superblock_limit_intern_record_too_large_is_a_typed_error_and_leaks_nothing() {
    let (device, store) = durable_store_with_one_image(64);
    let image = store.begin_image("limits:huge", NodeId(1), 2, SimTime::from_nanos(2));
    let (used, stats, index) = (device.used_pages(), store.stats(), store.index_snapshot());

    let data = vec![PageData::Zero; 131_000];
    let err = store.intern_pages(image, &data, NodeId(1)).unwrap_err();
    assert!(
        matches!(err, CxlError::OutOfDeviceMemory { requested, available: 510 } if requested > 510),
        "{err:?}"
    );
    assert!(!err.is_transient(), "a retry would be refused the same way");
    assert_eq!(device.used_pages(), used, "no device page leaked");
    assert_eq!(store.stats(), stats, "nothing was counted");
    assert_eq!(store.index_snapshot(), index, "no reference was kept");
    assert_eq!(audits(&store), vec![]);

    // The image is still pending and the journal still appends: a batch
    // that fits goes through, and the store replays to what it holds.
    let out = store.intern_pages(image, &data[..1_000], NodeId(1));
    assert_eq!(out.expect("fits").shared, 1_000);
    store.abort_image(image).expect("pending");
    assert_eq!(store.index_snapshot(), index);
    assert_eq!(audits(&store), vec![]);
    check_replay(&device, &store, "the refused intern");
}

/// A snapshot spends 16 bytes on each distinct page plus 8 on each
/// reference, an `Intern` record 16 on each page: an image of new,
/// all-distinct content can be journaled into a generation that the
/// snapshot with it in it would outgrow. Six images of zero-page
/// references (cheap: one device page) bring the snapshot to 1.94 MB of
/// the 2.09 MB one generation holds, each commit compacting; 7 500
/// distinct pages then journal (120 KB) and cannot be snapshot (+180 KB).
/// The commit is refused before its record is written, so the image can
/// still be aborted — a sealed `Commit` followed by a compaction that
/// cannot be written would be a committed image nobody can snapshot.
#[test]
fn superblock_limit_commit_with_unsnapshotable_books_is_a_typed_error_and_leaks_nothing() {
    let (device, store) = durable_store_with_one_image(1 << 14);
    let zeroes = vec![PageData::Zero; 50_000];
    for (epoch, refs) in [50_000, 50_000, 50_000, 50_000, 29_000, 14_000]
        .into_iter()
        .enumerate()
    {
        let filler = store.begin_image("limits:z", NodeId(0), epoch as u64, SimTime::ZERO);
        let out = store.intern_pages(filler, &zeroes[..refs], NodeId(0));
        assert_eq!(out.expect("the record fits").shared, refs as u64);
        let meta = device.create_region("limits:meta-z");
        store.commit_image(filler, meta).expect("the snapshot fits");
    }

    let image = store.begin_image("limits:w", NodeId(1), 9, SimTime::from_nanos(2));
    let data: Vec<PageData> = (1_000..8_500).map(PageData::pattern).collect();
    let out = store.intern_pages(image, &data, NodeId(1));
    assert_eq!(out.expect("the record fits").fresh, 7_500);
    let meta = device.create_region("limits:meta-w");
    let (used, stats) = (device.used_pages(), store.stats());

    let err = store.commit_image(image, meta).unwrap_err();
    let StoreError::JournalFull { cause, .. } = &err else {
        panic!("expected JournalFull, got {err:?}");
    };
    assert!(
        matches!(cause, CxlError::OutOfDeviceMemory { requested, available: 510 } if *requested > 510),
        "{cause:?}"
    );
    assert!(!store.is_live(image), "the image stays pending");
    assert_eq!(device.used_pages(), used, "no device page moved");
    assert_eq!(store.stats(), stats, "no journal page was written");
    assert_eq!(audits(&store), vec![]);

    // What core's `ImageGuard` and staging-region guard do next.
    assert_eq!(store.abort_image(image).expect("still pending"), 7_500);
    device.destroy_region(meta).expect("ours");
    assert_eq!(store.index_snapshot().len(), 2, "the first image's two");
    assert_eq!(audits(&store), vec![]);
    check_replay(&device, &store, "the refused commit");
}
