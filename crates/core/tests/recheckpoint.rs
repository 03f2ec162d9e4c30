//! Re-checkpointing chains: checkpoint a *restored* process and restore
//! from the new checkpoint. The paper's lifecycle decoupling (§3.1/§4.1)
//! means a checkpoint never depends on the OS instance — or earlier
//! checkpoint — it came from, so chains must work and old generations must
//! be independently reclaimable.

use std::sync::Arc;

use cxl_mem::CxlDevice;
use cxlfork::CxlFork;
use node_os::addr::{PhysAddr, VirtPageNum};
use node_os::fs::SharedFs;
use node_os::mm::Access;
use node_os::vma::Protection;
use node_os::{Node, NodeConfig};
use rfork::{RemoteFork, RestoreOptions, TierPolicy};

fn cluster(n: usize) -> (Vec<Node>, Arc<CxlDevice>) {
    let device = Arc::new(CxlDevice::with_capacity_mib(256));
    let rootfs = Arc::new(SharedFs::new());
    let nodes = (0..n)
        .map(|i| {
            Node::with_rootfs(
                NodeConfig::default()
                    .with_id(i as u32)
                    .with_local_mem_mib(128),
                Arc::clone(&device),
                Arc::clone(&rootfs),
            )
        })
        .collect();
    (nodes, device)
}

const PAGES: u64 = 64;

fn byte_of(node: &mut Node, pid: node_os::Pid, device: &CxlDevice, vpn: u64) -> u8 {
    node.access(pid, vpn, Access::Read).unwrap();
    let pte = node.process(pid).unwrap().mm.translate(VirtPageNum(vpn));
    match pte.target().unwrap() {
        PhysAddr::Local(pfn) => node.frames().data(pfn).byte_at(0),
        PhysAddr::Cxl(page) => device.read_page(page, node.id()).unwrap().byte_at(0),
    }
}

#[test]
fn checkpoint_of_a_restored_process_carries_its_mutations() {
    let (mut nodes, device) = cluster(3);
    let fork = CxlFork::new();

    // Generation 0 on node 0.
    let p0 = nodes[0].spawn("gen0").unwrap();
    nodes[0]
        .process_mut(p0)
        .unwrap()
        .mm
        .map_anonymous(0, PAGES, Protection::read_write(), "heap")
        .unwrap();
    for i in 0..PAGES {
        nodes[0].access(p0, i, Access::Write).unwrap();
    }
    // Distinctive byte in page 3.
    let pte = nodes[0].process(p0).unwrap().mm.translate(VirtPageNum(3));
    let Some(PhysAddr::Local(pfn)) = pte.target() else {
        panic!()
    };
    nodes[0]
        .with_process_ctx(p0, |_, ctx| ctx.frames.data_mut(pfn).write(0, &[0x11]))
        .unwrap();
    let ckpt0 = fork.checkpoint(&mut nodes[0], p0).unwrap();

    // Generation 1: restore on node 1, mutate page 3, re-checkpoint.
    let r1 = fork.restore(&ckpt0, &mut nodes[1]).unwrap();
    nodes[1].access(r1.pid, 3, Access::Write).unwrap();
    let pte = nodes[1]
        .process(r1.pid)
        .unwrap()
        .mm
        .translate(VirtPageNum(3));
    let Some(PhysAddr::Local(pfn1)) = pte.target() else {
        panic!("written page is local")
    };
    nodes[1]
        .with_process_ctx(r1.pid, |_, ctx| ctx.frames.data_mut(pfn1).write(0, &[0x22]))
        .unwrap();
    // The restored process's page table mixes attached CXL leaves and
    // local (CoW'd) pages; checkpointing must flatten all of it.
    let ckpt1 = fork.checkpoint(&mut nodes[1], r1.pid).unwrap();
    assert_eq!(ckpt1.meta().footprint_pages, PAGES);

    // Generation 2: restore on node 2 and verify both histories.
    let r2 = fork.restore(&ckpt1, &mut nodes[2]).unwrap();
    assert_eq!(
        byte_of(&mut nodes[2], r2.pid, &device, 3),
        0x22,
        "gen1's write"
    );
    // A fresh clone of gen0 still sees the original byte.
    let r0b = fork.restore(&ckpt0, &mut nodes[2]).unwrap();
    assert_eq!(
        byte_of(&mut nodes[2], r0b.pid, &device, 3),
        0x11,
        "gen0 pristine"
    );
}

#[test]
fn old_generations_are_independently_reclaimable() {
    let (mut nodes, device) = cluster(2);
    let fork = CxlFork::new();

    let p0 = nodes[0].spawn("gen0").unwrap();
    nodes[0]
        .process_mut(p0)
        .unwrap()
        .mm
        .map_anonymous(0, PAGES, Protection::read_write(), "heap")
        .unwrap();
    for i in 0..PAGES {
        nodes[0].access(p0, i, Access::Write).unwrap();
    }
    let before = device.used_pages();
    let ckpt0 = fork.checkpoint(&mut nodes[0], p0).unwrap();
    let r1 = fork.restore(&ckpt0, &mut nodes[1]).unwrap();
    let ckpt1 = fork.checkpoint(&mut nodes[1], r1.pid).unwrap();

    // Gen-1's checkpoint copied everything it needed; gen-0 can go.
    fork.release(ckpt0, &nodes[0]).unwrap();

    // Gen-1 restores still work and read correct data. (The r1 process
    // itself had attached gen-0 leaves — a real kernel would refcount the
    // region; the simulation requires the operator to kill attachers
    // first, which the porter's recycle path does.)
    nodes[1].kill(r1.pid).unwrap();
    let r2 = fork.restore(&ckpt1, &mut nodes[0]).unwrap();
    nodes[0].access(r2.pid, 5, Access::Read).unwrap();

    fork.release(ckpt1, &nodes[0]).unwrap();
    nodes[0].kill(r2.pid).unwrap();
    assert_eq!(device.used_pages(), before, "both generations reclaimed");
}

#[test]
fn hybrid_restore_of_a_recheckpoint_respects_new_access_bits() {
    let (mut nodes, _device) = cluster(2);
    let fork = CxlFork::new();

    let p0 = nodes[0].spawn("gen0").unwrap();
    nodes[0]
        .process_mut(p0)
        .unwrap()
        .mm
        .map_anonymous(0, PAGES, Protection::read_write(), "heap")
        .unwrap();
    for i in 0..PAGES {
        nodes[0].access(p0, i, Access::Write).unwrap();
    }
    let ckpt0 = fork.checkpoint(&mut nodes[0], p0).unwrap();

    // Restore gen 1, clear its A bits, then touch only pages 0..8.
    let r1 = fork
        .restore_with(
            &ckpt0,
            &mut nodes[1],
            RestoreOptions {
                policy: TierPolicy::MigrateOnWrite,
                prefetch_dirty: false,
                sync_hot_prefetch: false,
            },
        )
        .unwrap();
    nodes[1]
        .with_process_ctx(r1.pid, |p, _| p.mm.page_table.clear_ad_bits())
        .unwrap();
    ckpt0.reset_access_bits(); // shared leaves: reset those too
    for i in 0..8 {
        nodes[1].access(r1.pid, i, Access::Read).unwrap();
    }
    let ckpt1 = fork.checkpoint(&mut nodes[1], r1.pid).unwrap();
    assert_eq!(ckpt1.accessed_pages, 8, "gen1's steady-state A bits");

    // A hybrid restore of gen 1 arms exactly those eight pages.
    let r2 = fork
        .restore_with(
            &ckpt1,
            &mut nodes[0],
            RestoreOptions {
                policy: TierPolicy::Hybrid,
                prefetch_dirty: false,
                sync_hot_prefetch: false,
            },
        )
        .unwrap();
    let hot = nodes[0].access(r2.pid, 2, Access::Read).unwrap();
    assert_eq!(hot.fault, Some(node_os::mm::FaultKind::CxlPull));
    let cold = nodes[0].access(r2.pid, 20, Access::Read).unwrap();
    assert_eq!(cold.fault, None);
    assert!(cold.cxl_tier);
}

/// A durable store journals 16 bytes per checkpointed page, and one
/// journal generation holds 510 pages of records: with compaction off,
/// the sixteenth checkpoint of an 8192-page process is one `Intern`
/// record too many. The checkpoint fails with the journal's typed
/// refusal — no panic — and both guards roll back: the pending image is
/// aborted, the staging region destroyed, device usage where it was.
#[test]
fn checkpoint_the_journal_cannot_hold_fails_typed_and_leaves_nothing_behind() {
    use cxl_mem::CxlError;
    use cxl_store::{Store, StoreConfig};
    use rfork::RforkError;

    const HEAP: u64 = 8192;
    let (mut nodes, device) = cluster(1);
    let store = Arc::new(Store::with_config(
        Arc::clone(&device),
        StoreConfig {
            durable: true,
            journal_compact_bytes: u64::MAX,
            ..StoreConfig::default()
        },
    ));
    let fork = CxlFork::with_store(Arc::clone(&store));
    let node = &mut nodes[0];
    let pid = node.spawn("wide").unwrap();
    let mm = &mut node.process_mut(pid).unwrap().mm;
    mm.map_anonymous(0, HEAP, Protection::read_write(), "heap")
        .unwrap();
    for vpn in 0..HEAP {
        node.access(pid, vpn, Access::Write).unwrap();
    }

    let kept: Vec<_> = (0..15)
        .map(|_| fork.checkpoint(node, pid).expect("the record fits"))
        .collect();
    let (used, stats) = (device.used_pages(), store.stats());
    let err = fork.checkpoint(node, pid).unwrap_err();
    assert!(
        matches!(
            err,
            RforkError::Cxl(CxlError::OutOfDeviceMemory { requested, available: 510 })
                if requested > 510
        ),
        "{err:?}"
    );
    assert_eq!(device.used_pages(), used, "no device page leaked");
    assert!(device.staging_regions().is_empty(), "staging region gone");
    assert_eq!(store.images().len(), kept.len());
    let refs: u64 = store.index_snapshot().iter().map(|e| e.refs).sum();
    assert_eq!(refs, 15 * HEAP, "the pending image's references dropped");
    assert_eq!(store.stats().interned_pages, stats.interned_pages);
    let mut violations = cxl_check::audit_device(&device);
    violations.extend(cxl_check::audit_store(&store));
    violations.extend(cxl_check::audit_journal(&store));
    assert!(violations.is_empty(), "{violations:?}");

    // Releasing checkpoints does not shrink a journal that never
    // compacts, but compaction does: after it the same checkpoint fits.
    store.compact_journal();
    let again = fork
        .checkpoint(node, pid)
        .expect("a compacted journal has room");
    assert_eq!(again.data_pages, HEAP);
}
