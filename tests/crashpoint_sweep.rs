//! Exhaustive crashpoint sweep over the durable store: enumerate every
//! injection site a checkpoint→dedup→evict→restore scenario reaches,
//! kill the coordinator at each one, recover from the surviving device,
//! and prove the recovered state is sound — zero `cxl-check`
//! violations, balanced device-page accounting, byte-identical
//! surviving contents, and bit-identical per-seed [`RecoveryReport`]s.
//!
//! The kill is a panic (`CrashpointKill`), not an error return: a crash
//! must not run the victim's rollback code. The harness drops every
//! DRAM structure after the unwind — only the device survives, exactly
//! the failure model of fabric-attached CXL memory.
//!
//! Environment knobs for the CI smoke (full sweep by default):
//!
//! * `CRASH_SWEEP_POSITIONS` — sweep only the first N injection
//!   positions;
//! * `CRASH_SWEEP_SEEDS` — use only the first N seeds.

use std::collections::BTreeMap;
use std::sync::Arc;

use cxl_check::{audit_device, audit_device_with_live, audit_journal, audit_store};
use cxl_fault::{run_to_crash, CrashpointHook, Killer, LeaseTable, Recorder};
use cxl_mem::{CxlDevice, NodeId, PageData, PAGE_SIZE};
use cxl_store::{journal, ImageId, RecoveryReport, Store, StoreConfig};
use simclock::{SimDuration, SimTime};

const SEEDS: [u64; 3] = [7, 1984, 4242];

fn config() -> StoreConfig {
    StoreConfig {
        durable: true,
        ..StoreConfig::default()
    }
}

fn device() -> Arc<CxlDevice> {
    Arc::new(CxlDevice::with_capacity_mib(16))
}

fn pat(seed: u64, i: u64) -> PageData {
    PageData::pattern(1 + seed * 10_000 + i)
}

/// Every page content the scenario ever interns, by fingerprint — the
/// oracle for byte-identity after recovery.
fn authored_contents(seed: u64) -> BTreeMap<u64, PageData> {
    let mut map = BTreeMap::new();
    for i in [1, 2, 3, 4, 7, 8, 9, 20, 21] {
        let d = pat(seed, i);
        map.insert(d.fingerprint(), d);
    }
    map.insert(PageData::Zero.fingerprint(), PageData::Zero);
    map
}

/// The sites [`scenario`] reaches, in order — the same for every seed.
/// Recorded at f98969d, before the store's mutators were rebuilt around
/// one `apply`: a rewrite that moves, drops or adds a site fails here by
/// name, instead of only shifting what each kill position means.
const RECORDED_SITE_SEQUENCE: [&str; 52] = [
    // image A: begin, intern, commit
    "begin.before_journal",
    "begin.after_journal",
    "intern.after_alloc",
    "intern.after_data_write",
    "intern.after_journal_payload",
    "intern.after_marker",
    "intern.after_publish",
    "commit.before_journal",
    "commit.mid_record",
    "commit.after_journal",
    // image B
    "begin.before_journal",
    "begin.after_journal",
    "intern.after_alloc",
    "intern.after_data_write",
    "intern.after_journal_payload",
    "intern.after_marker",
    "intern.after_publish",
    "commit.before_journal",
    "commit.mid_record",
    "commit.after_journal",
    // pin A, lease B
    "pin.after_journal",
    "lease.after_journal",
    // image C: begin, intern, abort
    "begin.before_journal",
    "begin.after_journal",
    "intern.after_alloc",
    "intern.after_data_write",
    "intern.after_journal_payload",
    "intern.after_marker",
    "intern.after_publish",
    "abort.after_journal",
    "abort.after_free",
    // image D
    "begin.before_journal",
    "begin.after_journal",
    "intern.after_alloc",
    "intern.after_data_write",
    "intern.after_journal_payload",
    "intern.after_marker",
    "intern.after_publish",
    "commit.before_journal",
    "commit.mid_record",
    "commit.after_journal",
    // unlease and release B, touch A and D, unpin and evict A, compact
    "lease.after_journal",
    "release.after_journal",
    "release.after_free",
    "restore.touch",
    "restore.touch",
    "pin.after_journal",
    "evict.after_journal",
    "evict.after_free",
    "compact.after_snapshot_write",
    "compact.after_publish",
    "compact.after_destroy_old",
];

/// The deterministic scenario under test. Walks the full mutation
/// surface of the durable store: begin/intern (with intra- and
/// cross-image dedup and a zero page), commit, pin, lease, restore
/// touch, abort, release, watermark eviction, and an explicit journal
/// compaction. Every step threads the installed crashpoint hook.
fn scenario(device: &Arc<CxlDevice>, hook: Arc<dyn CrashpointHook>, seed: u64) {
    let store = Store::with_config(Arc::clone(device), config());
    store.set_crash_hook(Some(hook));
    let t0 = SimTime::from_nanos(1_000_000_000);

    // Image A: intra-batch dup (two p1) plus a zero page.
    let a = store.begin_image("sweep:a", NodeId(1), 1, t0);
    let data_a = [
        pat(seed, 1),
        pat(seed, 2),
        pat(seed, 3),
        pat(seed, 4),
        PageData::Zero,
        pat(seed, 1),
    ];
    store.intern_pages(a, &data_a, NodeId(1)).expect("intern a");
    let meta_a = device.create_region("sweep:meta-a");
    store.commit_image(a, meta_a).expect("commit a");

    // Image B: dedups p1/p2 against A.
    let b = store.begin_image("sweep:b", NodeId(2), 2, t0);
    let data_b = [pat(seed, 1), pat(seed, 2), pat(seed, 7), pat(seed, 8)];
    store.intern_pages(b, &data_b, NodeId(2)).expect("intern b");
    let meta_b = device.create_region("sweep:meta-b");
    store.commit_image(b, meta_b).expect("commit b");

    // Pin/lease flips, each a journaled control-plane record.
    store.set_pinned(a, true).expect("pin a");
    store.set_lease(b, Some(NodeId(2))).expect("lease b");

    // Image C: an aborted probe — its refs must unwind.
    let c = store.begin_image("sweep:c", NodeId(1), 3, t0);
    store
        .intern_pages(c, &[pat(seed, 9)], NodeId(1))
        .expect("intern c");
    store.abort_image(c).expect("abort c");

    // Image D: the survivor whose contents the sweep verifies after
    // every recovery; shares p2 with A so A's eviction exercises the
    // shared-page refcount path.
    let d = store.begin_image("sweep:d", NodeId(1), 4, t0);
    let data_d = [pat(seed, 2), pat(seed, 20), pat(seed, 21)];
    store.intern_pages(d, &data_d, NodeId(1)).expect("intern d");
    let meta_d = device.create_region("sweep:meta-d");
    store.commit_image(d, meta_d).expect("commit d");

    // Release B; its meta region is destroyed the way the checkpoint
    // mechanism would (recovery must finish the job if we die between).
    store.set_lease(b, None).expect("unlease b");
    store.release_image(b).expect("release b");
    device.destroy_region(meta_b).expect("destroy meta b");

    // LRU fix-up, then watermark eviction claims A (D restored later,
    // so A is least-recently-used once unpinned).
    store.touch_restore(a, t0 + SimDuration::from_secs(1));
    store.touch_restore(d, t0 + SimDuration::from_secs(2));
    store.set_pinned(a, false).expect("unpin a");
    let leases = LeaseTable::new(SimDuration::from_secs(3600));
    // Demand one page beyond what is free: the sweep device is huge, so
    // this forces exactly one LRU eviction (A) regardless of capacity.
    let target = device.free_pages() + 1;
    let evicted = store.evict_for(target, &leases, t0 + SimDuration::from_secs(10));
    assert!(evicted.images >= 1, "eviction must claim image A");
    assert!(store.is_live(d), "survivor D must not be evicted");

    // Force a full compaction cycle (stage → publish → destroy-old).
    store.compact_journal();
}

/// Recovers the store from the surviving device and checks every
/// postcondition the sweep promises. Returns the report for the
/// bit-identity comparison.
fn recover_and_verify(
    device: &Arc<CxlDevice>,
    seed: u64,
    position: u64,
    site: &str,
) -> RecoveryReport {
    let (recovered, report) = Store::recover(Arc::clone(device), config(), NodeId(0));
    let ctx = format!("seed {seed}, kill position {position} ({site})");

    assert_eq!(
        report.fingerprint_mismatches, 0,
        "{ctx}: recovered index must pass the fingerprint cross-check: {report:?}"
    );

    // Zero violations across every auditor.
    let mut violations = audit_device(device);
    violations.extend(audit_store(&recovered));
    violations.extend(audit_journal(&recovered));
    let mut live: Vec<cxl_mem::RegionId> = vec![recovered.data_region()];
    live.extend(journal::find_generations(device).iter().map(|g| g.region));
    for id in 1..=8u64 {
        if let Some(meta) = recovered.image_meta(ImageId(id)) {
            live.extend(meta.meta_region());
        }
    }
    violations.extend(audit_device_with_live(device, live));
    assert!(violations.is_empty(), "{ctx}: {violations:?}");

    // Balanced page accounting: every live device page is owned by a
    // region the audits above accepted, and the used-page counter
    // matches the slab (audit_device); additionally, the data region
    // holds exactly the index's pages — nothing leaked, nothing
    // double-freed.
    let index = recovered.index_snapshot();
    let data_pages: u64 = device
        .regions()
        .into_iter()
        .find(|(r, _)| *r == recovered.data_region())
        .map(|(_, usage)| usage.pages)
        .expect("data region exists");
    assert_eq!(
        data_pages,
        index.len() as u64,
        "{ctx}: data region pages must equal index entries"
    );

    // Byte-identical contents: every surviving index page still holds
    // exactly the bytes the scenario authored for its fingerprint.
    let authored = authored_contents(seed);
    for entry in &index {
        let expected = authored
            .get(&entry.fingerprint)
            .unwrap_or_else(|| panic!("{ctx}: unknown fingerprint {:#x}", entry.fingerprint));
        let actual = &device
            .snapshot_pages(&[entry.page])
            .expect("index page is live")[0];
        let (mut want, mut got) = (vec![0u8; PAGE_SIZE as usize], vec![0u8; PAGE_SIZE as usize]);
        expected.read(0, &mut want);
        actual.read(0, &mut got);
        assert_eq!(
            want, got,
            "{ctx}: content of {:#x} diverged",
            entry.fingerprint
        );
    }

    report
}

fn env_limit(name: &str) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

/// One full sweep for one seed: record the site sequence, then kill at
/// every position (bounded by `CRASH_SWEEP_POSITIONS`) and verify
/// recovery. Returns the per-position recovery reports.
fn sweep(seed: u64) -> Vec<RecoveryReport> {
    // Recording pass: a clean end-to-end run enumerating every site.
    let rec_device = device();
    let recorder = Arc::new(Recorder::new());
    scenario(
        &rec_device,
        Arc::clone(&recorder) as Arc<dyn CrashpointHook>,
        seed,
    );
    let sequence = recorder.sequence();
    assert_eq!(
        sequence, RECORDED_SITE_SEQUENCE,
        "seed {seed}: site sequence"
    );
    let distinct = recorder.site_counts();
    assert!(
        sequence.len() >= 30,
        "the sweep must cover >= 30 injection positions, got {}: {distinct:?}",
        sequence.len()
    );
    assert!(
        distinct.len() >= 15,
        "the sweep must cover >= 15 distinct sites, got {}: {distinct:?}",
        distinct.len()
    );

    // The clean run must itself verify (position = past-the-end).
    let mut reports = Vec::new();
    reports.push(recover_and_verify(
        &rec_device,
        seed,
        sequence.len() as u64,
        "no-crash",
    ));

    // Kill-and-recover at every position.
    let bound = sequence.len().min(env_limit("CRASH_SWEEP_POSITIONS"));
    for (position, expected_site) in sequence.iter().enumerate().take(bound) {
        let dev = device();
        let killer = Arc::new(Killer::kill_at(position as u64));
        let outcome =
            run_to_crash(|| scenario(&dev, Arc::clone(&killer) as Arc<dyn CrashpointHook>, seed));
        let kill = outcome.expect_err("killer must fire inside the scenario");
        assert_eq!(kill.ordinal, position as u64);
        assert_eq!(&kill.site, expected_site, "site order must be stable");
        // The coordinator is dead: its Store was dropped by the unwind.
        // Only the device survives; recover from it.
        reports.push(recover_and_verify(&dev, seed, position as u64, kill.site));
    }
    reports
}

#[test]
fn every_crashpoint_recovers_with_zero_violations() {
    let seed_bound = SEEDS.len().min(env_limit("CRASH_SWEEP_SEEDS"));
    for &seed in &SEEDS[..seed_bound] {
        let first = sweep(seed);
        // Bit-identical per-seed reports: the whole sweep re-run must
        // reproduce every recovery exactly.
        let second = sweep(seed);
        assert_eq!(
            first, second,
            "seed {seed}: recovery must be bit-identical across sweep runs"
        );
    }
}
