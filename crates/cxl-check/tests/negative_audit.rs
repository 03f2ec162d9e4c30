//! Negative tests: seed real cross-layer violations through the full
//! CXLfork checkpoint/restore stack and require the auditor — and the
//! seal every checkpoint carries in debug builds — to name them. A
//! checker that only ever sees clean states is untested — these are the
//! seeded-bug half of its contract.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cxl_check::Violation;
use cxl_mem::{CxlDevice, CxlPageId, NodeId, PageData};
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

/// A zero-copy restore: armed PTEs point straight at the device, and no
/// checkpoint page is read on the way.
fn zero_copy() -> RestoreOptions {
    RestoreOptions {
        policy: TierPolicy::MigrateOnWrite,
        prefetch_dirty: false,
        sync_hot_prefetch: false,
    }
}

/// Restores `ckpt` on `node`, which must panic on the checkpoint's seal.
fn assert_restore_trips_the_seal(
    fork: &CxlFork,
    ckpt: &cxlfork::CxlForkCheckpoint,
    node: &mut Node,
) {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        fork.restore_with(ckpt, node, zero_copy())
    }));
    let Err(payload) = caught else {
        panic!("the restore must trip the seal");
    };
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("restore mutated or freed sealed checkpoint pages"),
        "{message}"
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "the seal is a debug-build check")]
fn freed_checkpoint_page_is_reported_as_dangling_and_unsealed() {
    let (mut src, mut dst, device) = cluster();
    let pid = build_victim(&mut src);
    let fork = CxlFork::new();
    let ckpt = fork.checkpoint(&mut src, pid).unwrap();
    fork.restore_with(&ckpt, &mut dst, zero_copy()).unwrap();
    assert_eq!(
        cxl_check::audit_node(&dst),
        Vec::new(),
        "clean before sabotage"
    );

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
    // And the checkpoint's own seal refuses the next restore.
    assert_restore_trips_the_seal(&fork, &ckpt, &mut dst);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "the seal is a debug-build check")]
fn mutating_a_sealed_checkpoint_page_is_reported() {
    let (mut src, mut dst, device) = cluster();
    let pid = build_victim(&mut src);
    let fork = CxlFork::new();
    let ckpt = fork.checkpoint(&mut src, pid).unwrap();

    // Sabotage: scribble over a checkpoint data page — the stray-writer
    // bug class the paper's immutable checkpoints exclude by design.
    let page = first_ckpt_page(&ckpt);
    let before = device.fingerprint(page).unwrap();
    device
        .write_page(page, PageData::pattern(0xBAD_5EED), NodeId(1))
        .unwrap();
    assert_ne!(device.fingerprint(page).unwrap(), before, "sabotage took");

    // Region accounting is still balanced — only the content is wrong,
    // and the checkpoint's own seal is what names it.
    assert_eq!(cxl_check::audit_device(&device), Vec::new());
    assert_restore_trips_the_seal(&fork, &ckpt, &mut dst);
}
