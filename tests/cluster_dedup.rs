//! Integration tests for cluster-wide state deduplication: many CXLfork
//! clones across many nodes share one checkpoint's CXL pages, page-table
//! leaves and VMA blocks, while staying perfectly isolated on writes.

use std::sync::Arc;

use cxl_mem::CxlDevice;
use cxlfork::CxlFork;
use node_os::addr::{PhysAddr, VirtPageNum};
use node_os::fs::SharedFs;
use node_os::mm::Access;
use node_os::vma::Protection;
use node_os::{Node, NodeConfig, Pid};
use rfork::{RemoteFork, RestoreOptions, TierPolicy};

const NODES: usize = 4;
const CLONES_PER_NODE: usize = 4;
const HEAP_PAGES: u64 = 256;

fn cluster() -> (Vec<Node>, Arc<CxlDevice>) {
    let device = Arc::new(CxlDevice::with_capacity_mib(256));
    let rootfs = Arc::new(SharedFs::new());
    let nodes = (0..NODES)
        .map(|i| {
            Node::with_rootfs(
                NodeConfig::default()
                    .with_id(i as u32)
                    .with_local_mem_mib(256),
                Arc::clone(&device),
                Arc::clone(&rootfs),
            )
        })
        .collect();
    (nodes, device)
}

/// Post-condition: every node's page tables, frame ledger and VMA tree
/// are mutually consistent and the device's region books balance.
fn audit_clean(nodes: &[Node], device: &CxlDevice) {
    let mut violations = Vec::new();
    for node in nodes {
        violations.extend(cxl_check::audit_node(node));
    }
    violations.extend(cxl_check::audit_device(device));
    assert!(
        violations.is_empty(),
        "cross-layer audit failed: {violations:?}"
    );
}

fn build_parent(node: &mut Node) -> Pid {
    let pid = node.spawn("shared-fn").unwrap();
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

#[test]
fn sixteen_clones_share_one_checkpoint_without_device_growth() {
    let (mut nodes, device) = cluster();
    let parent = build_parent(&mut nodes[0]);
    let fork = CxlFork::new();
    let ckpt = fork.checkpoint(&mut nodes[0], parent).unwrap();
    let device_after_ckpt = device.used_pages();

    let opts = RestoreOptions {
        policy: TierPolicy::MigrateOnWrite,
        prefetch_dirty: false,
        sync_hot_prefetch: false,
    };
    let mut clones = Vec::new();
    for (node_idx, node) in nodes.iter_mut().enumerate() {
        for _ in 0..CLONES_PER_NODE {
            let frames_before = node.frames().used();
            let r = fork.restore_with(&ckpt, node, opts).unwrap();
            assert_eq!(node.frames().used(), frames_before, "zero-copy restore");
            clones.push((node_idx, r.pid));
        }
    }
    // 16 clones later: not one extra page on the device.
    assert_eq!(device.used_pages(), device_after_ckpt);

    // Every clone maps the same physical CXL page for vpn 0.
    let mut targets = std::collections::BTreeSet::new();
    for (n, pid) in &clones {
        let pte = nodes[*n]
            .process(*pid)
            .unwrap()
            .mm
            .translate(VirtPageNum(0));
        targets.insert(format!("{:?}", pte.target()));
    }
    assert_eq!(targets.len(), 1, "all clones share one physical page");

    // All clones read identical bytes.
    for (n, pid) in &clones {
        let o = nodes[*n].access(*pid, 0, Access::Read).unwrap();
        assert_eq!(o.fault, None);
    }
    audit_clean(&nodes, &device);
}

#[test]
fn writes_by_any_clone_never_leak_to_siblings_or_checkpoint() {
    let (mut nodes, device) = cluster();
    let parent = build_parent(&mut nodes[0]);
    let fork = CxlFork::new();
    let ckpt = fork.checkpoint(&mut nodes[0], parent).unwrap();
    let opts = RestoreOptions {
        policy: TierPolicy::MigrateOnWrite,
        prefetch_dirty: false,
        sync_hot_prefetch: false,
    };

    let a = fork.restore_with(&ckpt, &mut nodes[1], opts).unwrap();
    let b = fork.restore_with(&ckpt, &mut nodes[2], opts).unwrap();

    // Fingerprint every checkpoint page.
    let before: Vec<u64> = ckpt
        .iter_pages()
        .map(|(_, pte)| {
            let Some(PhysAddr::Cxl(p)) = pte.target() else {
                panic!()
            };
            device.fingerprint(p).unwrap()
        })
        .collect();

    // Clone A writes every page.
    for i in 0..HEAP_PAGES {
        nodes[1].access(a.pid, i, Access::Write).unwrap();
    }
    assert_eq!(
        nodes[1].process(a.pid).unwrap().mm.private_local_pages(),
        HEAP_PAGES,
        "A took private copies"
    );

    // B still reads pristine data from CXL, fault-free.
    for i in 0..HEAP_PAGES {
        let o = nodes[2].access(b.pid, i, Access::Read).unwrap();
        assert_eq!(o.fault, None);
        assert!(o.cxl_tier);
    }
    assert_eq!(nodes[2].process(b.pid).unwrap().mm.private_local_pages(), 0);

    // Checkpoint untouched.
    let after: Vec<u64> = ckpt
        .iter_pages()
        .map(|(_, pte)| {
            let Some(PhysAddr::Cxl(p)) = pte.target() else {
                panic!()
            };
            device.fingerprint(p).unwrap()
        })
        .collect();
    assert_eq!(before, after);
    audit_clean(&nodes, &device);
}

#[test]
fn shared_page_table_leaves_are_copied_per_writer_only() {
    let (mut nodes, device) = cluster();
    let parent = build_parent(&mut nodes[0]);
    let fork = CxlFork::new();
    let ckpt = fork.checkpoint(&mut nodes[0], parent).unwrap();
    let opts = RestoreOptions {
        policy: TierPolicy::MigrateOnWrite,
        prefetch_dirty: false,
        sync_hot_prefetch: false,
    };
    let a = fork.restore_with(&ckpt, &mut nodes[1], opts).unwrap();
    let b = fork.restore_with(&ckpt, &mut nodes[2], opts).unwrap();

    let leaves = ckpt.leaves.len();
    assert_eq!(
        nodes[1]
            .process(a.pid)
            .unwrap()
            .mm
            .page_table
            .attached_leaf_count(),
        leaves
    );
    // A writes one page: exactly one leaf is copied locally.
    nodes[1].access(a.pid, 0, Access::Write).unwrap();
    assert_eq!(
        nodes[1]
            .process(a.pid)
            .unwrap()
            .mm
            .page_table
            .attached_leaf_count(),
        leaves - 1
    );
    // B's attachments are untouched.
    assert_eq!(
        nodes[2]
            .process(b.pid)
            .unwrap()
            .mm
            .page_table
            .attached_leaf_count(),
        leaves
    );
    audit_clean(&nodes, &device);
}

#[test]
fn working_set_monitoring_aggregates_across_nodes() {
    let (mut nodes, device) = cluster();
    let parent = build_parent(&mut nodes[0]);
    let fork = CxlFork::new();
    let ckpt = fork.checkpoint(&mut nodes[0], parent).unwrap();
    ckpt.reset_access_bits();

    let opts = RestoreOptions {
        policy: TierPolicy::MigrateOnWrite,
        prefetch_dirty: false,
        sync_hot_prefetch: false,
    };
    // Clones on different nodes touch disjoint ranges; the shared A bits
    // see the union (cluster-wide working-set estimation, §4.3).
    let a = fork.restore_with(&ckpt, &mut nodes[1], opts).unwrap();
    let b = fork.restore_with(&ckpt, &mut nodes[2], opts).unwrap();
    for i in 0..10 {
        nodes[1].access(a.pid, i, Access::Read).unwrap();
    }
    for i in 100..120 {
        nodes[2].access(b.pid, i, Access::Read).unwrap();
    }
    assert_eq!(ckpt.working_set().hot_pages, 30);
    audit_clean(&nodes, &device);
}

#[test]
fn release_returns_all_device_pages_even_with_live_clones() {
    let (mut nodes, device) = cluster();
    let parent = build_parent(&mut nodes[0]);
    let fork = CxlFork::new();
    let before = device.used_pages();
    let ckpt = fork.checkpoint(&mut nodes[0], parent).unwrap();
    let r = fork.restore(&ckpt, &mut nodes[1]).unwrap();
    // Pull everything the clone needs before the checkpoint goes away.
    for i in 0..HEAP_PAGES {
        nodes[1].access(r.pid, i, Access::Write).unwrap();
    }
    fork.release(ckpt, &nodes[0]).unwrap();
    assert_eq!(device.used_pages(), before);
    // The clone keeps running on its private copies.
    let o = nodes[1].access(r.pid, 5, Access::Read).unwrap();
    assert_eq!(o.fault, None);
    audit_clean(&nodes, &device);
}
