//! Negative tests: seed real cross-layer violations through the full
//! CXLfork checkpoint/restore stack and require the auditor to name
//! them. A checker that only ever sees clean states is untested — these
//! are the seeded-bug half of its contract.

use std::sync::Arc;

use cxl_check::{SealRegistry, Violation};
use cxl_mem::{CxlDevice, CxlPageId, NodeId};
use cxlfork::CxlFork;
use node_os::addr::PhysAddr;
use node_os::fs::SharedFs;
use node_os::mm::Access;
use node_os::vma::Protection;
use node_os::{Node, NodeConfig, Pid};
use rfork::{RemoteFork, RestoreOptions, TierPolicy};

const HEAP_PAGES: u64 = 16;

fn cluster() -> (Node, Node, Arc<CxlDevice>) {
    let device = Arc::new(CxlDevice::with_capacity_mib(64));
    let rootfs = Arc::new(SharedFs::new());
    let src = Node::with_rootfs(
        NodeConfig::default().with_id(0).with_local_mem_mib(64),
        Arc::clone(&device),
        Arc::clone(&rootfs),
    );
    let dst = Node::with_rootfs(
        NodeConfig::default().with_id(1).with_local_mem_mib(64),
        Arc::clone(&device),
        rootfs,
    );
    (src, dst, device)
}

fn build_victim(node: &mut Node) -> Pid {
    let pid = node.spawn("victim").unwrap();
    node.process_mut(pid)
        .unwrap()
        .mm
        .map_anonymous(0, HEAP_PAGES, Protection::read_write(), "heap")
        .unwrap();
    for i in 0..HEAP_PAGES {
        node.access(pid, i, Access::Write).unwrap();
    }
    pid
}

/// First CXL data page of a checkpoint.
fn first_ckpt_page(ckpt: &cxlfork::CxlForkCheckpoint) -> CxlPageId {
    let (_, pte) = ckpt.iter_pages().next().expect("checkpoint has pages");
    let Some(PhysAddr::Cxl(page)) = pte.target() else {
        panic!("checkpoint pages live on the device");
    };
    page
}

#[test]
fn freed_checkpoint_page_is_reported_as_dangling_and_unsealed() {
    let (mut src, mut dst, device) = cluster();
    let pid = build_victim(&mut src);
    let fork = CxlFork::new();
    let ckpt = fork.checkpoint(&mut src, pid).unwrap();
    let mut seals = SealRegistry::new();
    seals.seal_region(&device, ckpt.region).unwrap();
    // A zero-copy clone whose armed PTEs point straight at the device.
    let opts = RestoreOptions {
        policy: TierPolicy::MigrateOnWrite,
        prefetch_dirty: false,
        sync_hot_prefetch: false,
    };
    fork.restore_with(&ckpt, &mut dst, opts).unwrap();
    assert_eq!(
        cxl_check::audit_node(&dst),
        Vec::new(),
        "clean before sabotage"
    );
    assert_eq!(seals.verify(&device), Vec::new());

    // Sabotage: free one checkpoint data page behind everyone's back —
    // the double-free / premature-release bug class.
    let page = first_ckpt_page(&ckpt);
    device.free_page(page).unwrap();

    // The auditor sees every armed mapping of that page as dangling.
    let violations = cxl_check::audit_node(&dst);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::DanglingCxlPte { page: p, .. } if *p == page)),
        "expected a DanglingCxlPte for {page}, got {violations:?}"
    );
    // The source keeps running on its local frames and stays clean.
    assert_eq!(cxl_check::audit_node(&src), Vec::new());
    // And the seal checker reports the sealed page as gone.
    let violations = seals.verify(&device);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::SealMissingPage { page: p, .. } if *p == page)),
        "expected a SealMissingPage for {page}, got {violations:?}"
    );
}

#[test]
fn mutating_a_sealed_checkpoint_page_is_reported() {
    let (mut src, _dst, device) = cluster();
    let pid = build_victim(&mut src);
    let fork = CxlFork::new();
    let ckpt = fork.checkpoint(&mut src, pid).unwrap();
    let mut seals = SealRegistry::new();
    seals.seal_region(&device, ckpt.region).unwrap();
    assert_eq!(seals.verify(&device), Vec::new(), "clean before sabotage");

    // Sabotage: scribble over a checkpoint data page — the stray-writer
    // bug class the paper's immutable checkpoints exclude by design.
    let page = first_ckpt_page(&ckpt);
    let before = device.fingerprint(page).unwrap();
    let mut data = device.read_page(page, NodeId(1)).unwrap();
    data.fill_pattern(0xBAD_5EED);
    device.write_page(page, data, NodeId(1)).unwrap();
    assert_ne!(device.fingerprint(page).unwrap(), before, "sabotage took");

    let violations = seals.verify(&device);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::SealMismatch { page: p, .. } if *p == page)),
        "expected a SealMismatch for {page}, got {violations:?}"
    );
    // Region accounting is still balanced — only the content is wrong.
    assert_eq!(cxl_check::audit_device(&device), Vec::new());
}
