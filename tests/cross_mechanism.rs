//! Integration tests exercising the remote-fork mechanisms through
//! the common [`rfork::RemoteFork`] interface on the same workload, and
//! verifying functional equivalence: every mechanism must produce a child
//! that computes the same result — they differ only in cost and memory
//! placement.

use std::sync::Arc;

use criu_cxl::CriuCxl;
use cxl_fault::{FaultSchedule, Injector};
use cxl_mem::{CxlDevice, CxlFs, DeviceOp, PageData};
use cxlfork::CxlFork;
use mitosis_cxl::MitosisCxl;
use node_os::addr::{PhysAddr, VirtPageNum};
use node_os::fs::SharedFs;
use node_os::mm::Access;
use node_os::process::Registers;
use node_os::vma::Protection;
use node_os::{Node, NodeConfig, Pid};
use rfork::{RemoteFork, RestoreOptions, Restored};
use trenv_cxl::TrEnvCxl;

struct Cluster {
    device: Arc<CxlDevice>,
    src: Node,
    dst: Node,
}

/// Post-condition: the given nodes' memory ledgers and the device's
/// region books are consistent. Live checkpoints
/// are fine — the audit verifies balance, not emptiness.
fn audit_clean(nodes: &[&Node], device: &CxlDevice) {
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

impl Cluster {
    fn audit_clean(&self) {
        audit_clean(&[&self.src, &self.dst], &self.device);
    }
}

fn cluster() -> Cluster {
    let device = Arc::new(CxlDevice::with_capacity_mib(512));
    let rootfs = Arc::new(SharedFs::new());
    rootfs.create("/opt/app/lib.so", 64 * 4096, 0xAA);
    Cluster {
        src: Node::with_rootfs(
            NodeConfig::default().with_id(0).with_local_mem_mib(512),
            Arc::clone(&device),
            Arc::clone(&rootfs),
        ),
        dst: Node::with_rootfs(
            NodeConfig::default().with_id(1).with_local_mem_mib(512),
            Arc::clone(&device),
            rootfs,
        ),
        device,
    }
}

/// Builds a process with recognizable state in every category: written
/// anonymous pages, read file pages, registers, fds, namespaces.
fn build_victim(node: &mut Node) -> Pid {
    let pid = node.spawn("victim").unwrap();
    {
        let p = node.process_mut(pid).unwrap();
        p.task.regs = Registers::seeded(0xDEAD_BEEF);
        p.task.ns.pid_ns = 77;
        p.task.ns.mount_ns = 88;
        p.mm.map_anonymous(0, 64, Protection::read_write(), "heap")
            .unwrap();
        p.mm.map_file(1 << 16, 32, Protection::read_exec(), "/opt/app/lib.so", 0)
            .unwrap();
        p.task.fds.open(node_os::process::FileDescriptor {
            path: "/opt/app/lib.so".into(),
            offset: 4096,
            writable: false,
        });
    }
    for i in 0..64 {
        node.access(pid, i, Access::Write).unwrap();
    }
    for i in 0..16 {
        node.access(pid, (1 << 16) + i, Access::Read).unwrap();
    }
    pid
}

/// Writes a distinctive byte into anon page 7 of `pid`.
fn scribble(node: &mut Node, pid: Pid, value: u8) {
    let pte = node.process(pid).unwrap().mm.translate(VirtPageNum(7));
    let Some(PhysAddr::Local(pfn)) = pte.target() else {
        panic!("page 7 should be local on the source");
    };
    node.with_process_ctx(pid, |_, ctx| ctx.frames.data_mut(pfn).write(123, &[value]))
        .unwrap();
}

/// Reads the byte at offset 123 of anon page 7 of a restored child,
/// wherever it lives (local frame or CXL page).
fn child_byte(node: &mut Node, device: &CxlDevice, pid: Pid) -> u8 {
    // Ensure the page is mapped (MoA restores start empty).
    node.access(pid, 7, Access::Read).unwrap();
    let pte = node.process(pid).unwrap().mm.translate(VirtPageNum(7));
    match pte.target().expect("mapped after access") {
        PhysAddr::Local(pfn) => node.frames().data(pfn).byte_at(123),
        PhysAddr::Cxl(page) => {
            let data = device.read_page(page, node.id()).unwrap();
            data.byte_at(123)
        }
    }
}

fn verify_restored(c: &mut Cluster, restored: &Restored, mech_name: &str) {
    let child = c.dst.process(restored.pid).unwrap();
    assert_eq!(
        child.task.regs,
        Registers::seeded(0xDEAD_BEEF),
        "{mech_name}: registers survive"
    );
    assert_eq!(child.task.ns.pid_ns, 77, "{mech_name}: pid ns restored");
    assert_eq!(child.task.ns.mount_ns, 88, "{mech_name}: mount ns restored");
    assert_eq!(
        child.task.fds.open_count(),
        1,
        "{mech_name}: fds reopened from paths"
    );
    assert_eq!(
        child.task.fds.get(0).unwrap().path,
        "/opt/app/lib.so",
        "{mech_name}: fd path preserved"
    );
    let byte = child_byte(&mut c.dst, &c.device, restored.pid);
    assert_eq!(byte, 0x5A, "{mech_name}: memory contents preserved");
}

#[test]
fn criu_preserves_full_process_state() {
    let mut c = cluster();
    let pid = build_victim(&mut c.src);
    scribble(&mut c.src, pid, 0x5A);
    let criu = CriuCxl::new(Arc::new(CxlFs::new(Arc::clone(&c.device))));
    let ckpt = criu.checkpoint(&mut c.src, pid).unwrap();
    let restored = criu.restore(&ckpt, &mut c.dst).unwrap();
    verify_restored(&mut c, &restored, "CRIU-CXL");
    c.audit_clean();
}

#[test]
fn mitosis_preserves_full_process_state() {
    let mut c = cluster();
    let pid = build_victim(&mut c.src);
    scribble(&mut c.src, pid, 0x5A);
    let mitosis = MitosisCxl::new();
    let ckpt = mitosis.checkpoint(&mut c.src, pid).unwrap();
    let restored = mitosis.restore(&ckpt, &mut c.dst).unwrap();
    verify_restored(&mut c, &restored, "Mitosis-CXL");
    c.audit_clean();
}

#[test]
fn cxlfork_preserves_full_process_state_under_every_policy() {
    for options in [
        rfork::RestoreOptions::mow(),
        rfork::RestoreOptions::moa(),
        rfork::RestoreOptions::hybrid(),
        rfork::RestoreOptions {
            policy: rfork::TierPolicy::MigrateOnWrite,
            prefetch_dirty: false,
            sync_hot_prefetch: false,
        },
    ] {
        let mut c = cluster();
        let pid = build_victim(&mut c.src);
        scribble(&mut c.src, pid, 0x5A);
        let fork = CxlFork::new();
        let ckpt = fork.checkpoint(&mut c.src, pid).unwrap();
        let restored = fork.restore_with(&ckpt, &mut c.dst, options).unwrap();
        verify_restored(&mut c, &restored, &format!("CXLfork-{}", options.policy));
        c.audit_clean();
    }
}

#[test]
fn children_of_different_mechanisms_are_mutually_isolated() {
    let mut c = cluster();
    let pid = build_victim(&mut c.src);
    scribble(&mut c.src, pid, 0x5A);

    let fork = CxlFork::new();
    let mitosis = MitosisCxl::new();
    let fckpt = fork.checkpoint(&mut c.src, pid).unwrap();
    let mckpt = mitosis.checkpoint(&mut c.src, pid).unwrap();

    let r1 = fork.restore(&fckpt, &mut c.dst).unwrap();
    let r2 = mitosis.restore(&mckpt, &mut c.dst).unwrap();

    // Child 1 writes page 7; child 2 must still see the original byte.
    c.dst.access(r1.pid, 7, Access::Write).unwrap();
    let pte = c.dst.process(r1.pid).unwrap().mm.translate(VirtPageNum(7));
    let Some(PhysAddr::Local(pfn)) = pte.target() else {
        panic!()
    };
    c.dst
        .with_process_ctx(r1.pid, |_, ctx| {
            ctx.frames.data_mut(pfn).write(123, &[0xFF]);
        })
        .unwrap();
    assert_eq!(child_byte(&mut c.dst, &c.device, r2.pid), 0x5A);
    c.audit_clean();
}

#[test]
fn cxlfork_rejects_shared_anonymous_mappings() {
    // §4.1: "CXLfork does not currently support shared anonymous memory
    // mappings."
    let mut c = cluster();
    let pid = build_victim(&mut c.src);
    {
        let p = c.src.process_mut(pid).unwrap();
        let mut vma =
            node_os::vma::Vma::anonymous(1 << 20, (1 << 20) + 8, Protection::read_write(), "shm");
        vma.kind = node_os::vma::VmaKind::SharedAnonymous;
        p.mm.vmas.insert(vma).unwrap();
    }
    let fork = CxlFork::new();
    let used_before = c.device.used_pages();
    let err = fork.checkpoint(&mut c.src, pid).unwrap_err();
    assert!(matches!(err, rfork::RforkError::Unsupported(_)), "{err}");
    assert_eq!(c.device.used_pages(), used_before, "nothing leaked");
    c.audit_clean();
}

#[test]
fn failed_checkpoints_leak_no_device_pages() {
    // A device too small for the process's checkpoint: every mechanism
    // must fail cleanly, leaving the device exactly as it was.
    let device = Arc::new(CxlDevice::new(16)); // 64 KiB device
    let rootfs = Arc::new(SharedFs::new());
    let mut src = Node::with_rootfs(
        NodeConfig::default().with_id(0).with_local_mem_mib(64),
        Arc::clone(&device),
        rootfs,
    );
    let pid = src.spawn("big").unwrap();
    src.process_mut(pid)
        .unwrap()
        .mm
        .map_anonymous(0, 64, Protection::read_write(), "heap")
        .unwrap();
    for i in 0..64 {
        src.access(pid, i, Access::Write).unwrap();
    }

    let used_before = device.used_pages();
    let fork = CxlFork::new();
    assert!(fork.checkpoint(&mut src, pid).is_err());
    assert_eq!(device.used_pages(), used_before, "cxlfork leaked");

    let criu = CriuCxl::new(Arc::new(CxlFs::new(Arc::clone(&device))));
    assert!(criu.checkpoint(&mut src, pid).is_err());
    assert_eq!(device.used_pages(), used_before, "criu leaked");

    let trenv = trenv_cxl::TrEnvCxl::new();
    assert!(trenv.checkpoint(&mut src, pid).is_err());
    assert_eq!(device.used_pages(), used_before, "trenv leaked");
    // Failed checkpoints must also leave the source node's ledgers intact
    // (no half-built template pinning frames, no stray refcounts).
    audit_clean(&[&src], &device);
}

#[test]
fn restore_latency_ordering_matches_the_paper() {
    // CRIU >> Mitosis > CXLfork for a non-trivial footprint.
    let mut c = cluster();
    let pid = build_victim(&mut c.src);

    let criu = CriuCxl::new(Arc::new(CxlFs::new(Arc::clone(&c.device))));
    let mitosis = MitosisCxl::new();
    let fork = CxlFork::new();
    let c1 = criu.checkpoint(&mut c.src, pid).unwrap();
    let c2 = mitosis.checkpoint(&mut c.src, pid).unwrap();
    let c3 = fork.checkpoint(&mut c.src, pid).unwrap();

    let r1 = criu.restore(&c1, &mut c.dst).unwrap();
    let r2 = mitosis.restore(&c2, &mut c.dst).unwrap();
    let r3 = fork
        .restore_with(
            &c3,
            &mut c.dst,
            rfork::RestoreOptions {
                policy: rfork::TierPolicy::MigrateOnWrite,
                prefetch_dirty: false,
                sync_hot_prefetch: false,
            },
        )
        .unwrap();

    assert!(
        r1.restore_latency > r2.restore_latency,
        "CRIU {} vs Mitosis {}",
        r1.restore_latency,
        r2.restore_latency
    );
    assert!(
        r2.restore_latency > r3.restore_latency,
        "Mitosis {} vs CXLfork {}",
        r2.restore_latency,
        r3.restore_latency
    );
    c.audit_clean();
}

#[test]
fn checkpoint_cost_ordering_matches_the_paper() {
    // Mitosis < CXLfork << CRIU.
    let mut c = cluster();
    let pid = build_victim(&mut c.src);
    let criu = CriuCxl::new(Arc::new(CxlFs::new(Arc::clone(&c.device))));
    let mitosis = MitosisCxl::new();
    let fork = CxlFork::new();
    let c1 = criu.checkpoint(&mut c.src, pid).unwrap();
    let c2 = mitosis.checkpoint(&mut c.src, pid).unwrap();
    let c3 = fork.checkpoint(&mut c.src, pid).unwrap();
    let (k1, k2, k3) = (
        criu.meta(&c1).checkpoint_cost,
        mitosis.meta(&c2).checkpoint_cost,
        fork.meta(&c3).checkpoint_cost,
    );
    assert!(k2 < k3, "Mitosis {k2} < CXLfork {k3}");
    assert!(k3 < k1, "CXLfork {k3} < CRIU {k1}");
    c.audit_clean();
}

/// Every page of `vpns`, read through `pid`'s own mappings (a read access
/// first maps what a lazy restore left unmapped).
fn contents(node: &mut Node, device: &CxlDevice, pid: Pid, vpns: &[u64]) -> Vec<PageData> {
    vpns.iter()
        .map(|&vpn| {
            node.access(pid, vpn, Access::Read).unwrap();
            let pte = node.process(pid).unwrap().mm.translate(VirtPageNum(vpn));
            match pte.target().expect("mapped after a read") {
                PhysAddr::Local(pfn) => node.frames().data(pfn).clone(),
                PhysAddr::Cxl(page) => device.read_page(page, node.id()).unwrap(),
            }
        })
        .collect()
}

/// Checkpoints a CXLfork migrate-on-write child, whose pages all stay on
/// the device, with the mechanism `make` builds over the cluster's device:
/// once clean, once with the first device read failing transiently. The
/// second must retry it, cost exactly one backoff step more, book one
/// retry, and restore bit-identically.
fn recheckpoint_through_one_transient_read<M: RemoteFork>(make: impl FnOnce(&Arc<CxlDevice>) -> M) {
    let mut c = cluster();
    let mechanism = make(&c.device);
    let name = mechanism.name();
    let pid = build_victim(&mut c.src);
    scribble(&mut c.src, pid, 0x5A);
    let fork = CxlFork::new();
    let parent = fork.checkpoint(&mut c.src, pid).unwrap();
    let mow = RestoreOptions {
        policy: rfork::TierPolicy::MigrateOnWrite,
        prefetch_dirty: false,
        sync_hot_prefetch: false,
    };
    let child = fork.restore_with(&parent, &mut c.dst, mow).unwrap().pid;
    let pt = &c.dst.process(child).unwrap().mm.page_table;
    let vpns: Vec<u64> = (pt.iter_populated())
        .inspect(|(vpn, pte)| assert!(pte.target().unwrap().is_cxl(), "{vpn}"))
        .map(|(vpn, _)| vpn.0)
        .collect();
    assert_eq!(vpns.len(), 64 + 16);
    let want = contents(&mut c.dst, &c.device, child, &vpns);

    let clean = mechanism.checkpoint(&mut c.dst, child).unwrap();
    let retries = c.dst.counters().transient_retries;
    let injector = Arc::new(Injector::from_schedule(
        FaultSchedule::new().transient_after(DeviceOp::Read, 0, 1),
    ));
    injector.arm(&c.device);
    let faulted = mechanism.checkpoint(&mut c.dst, child);
    c.device.set_fault_hook(None);
    let faulted = faulted.unwrap_or_else(|e| panic!("{name}: {e:?}"));
    assert_eq!(injector.stats().transients, 1, "{name}");
    assert_eq!(
        mechanism.meta(&faulted).checkpoint_cost,
        mechanism.meta(&clean).checkpoint_cost + cxl_fault::retry::BACKOFF_BASE,
        "{name}: one backoff step"
    );
    assert_eq!(c.dst.counters().transient_retries - retries, 1, "{name}");

    let restored = mechanism.restore(&faulted, &mut c.src).unwrap();
    assert!(
        contents(&mut c.src, &c.device, restored.pid, &vpns) == want,
        "{name}: the restored child differs"
    );
}

#[test]
fn every_mechanism_retries_a_transient_read_of_a_cxl_resident_child() {
    recheckpoint_through_one_transient_read(|_| CxlFork::new());
    recheckpoint_through_one_transient_read(|device| {
        CriuCxl::new(Arc::new(CxlFs::new(Arc::clone(device))))
    });
    recheckpoint_through_one_transient_read(|_| TrEnvCxl::new());
    recheckpoint_through_one_transient_read(|_| MitosisCxl::new());
}
