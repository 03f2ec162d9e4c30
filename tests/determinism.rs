//! Whole-system determinism: a simulator is only trustworthy if identical
//! inputs produce bit-identical outputs. These tests replay full
//! autoscaler traces and fork pipelines twice and require exact equality
//! of every reported number.

mod common;

use std::sync::Arc;

use common::run_audited;
use cxlporter::{Cluster, CxlPorter, PorterConfig};
use rfork::RemoteFork;
use simclock::LatencyModel;
use trace_gen::{generate, TraceConfig};

/// Post-condition: node ledgers and device books are consistent after a
/// pipeline run.
fn audit_clean(nodes: &[&node_os::Node], device: &cxl_mem::CxlDevice) {
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

fn trace(seed: u64) -> Vec<trace_gen::Invocation> {
    generate(&TraceConfig {
        duration_secs: 8.0,
        total_rps: 35.0,
        ..TraceConfig::paper_default(vec!["Json".into(), "Float".into(), "Linpack".into()], seed)
    })
}

#[test]
fn porter_runs_are_bit_identical() {
    let run = || {
        let cluster = Cluster::new(2, 2048, 8192, LatencyModel::calibrated());
        let mut porter = CxlPorter::new(
            cluster,
            cxlfork::CxlFork::new(),
            PorterConfig {
                checkpoint_after: 4,
                ..PorterConfig::cxlfork_dynamic()
            },
        );
        let mut report = run_audited(&mut porter, &trace(99));
        (
            report.overall.p50(),
            report.overall.p99(),
            report.overall.mean(),
            report.warm_hits,
            report.restores,
            report.full_cold,
            report.recycles,
            report.dropped,
            report.checkpoints,
            report.peak_local_pages.clone(),
            report.final_cxl_pages,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn fork_pipelines_are_bit_identical() {
    let run = || {
        let device = Arc::new(cxl_mem::CxlDevice::with_capacity_mib(2048));
        let rootfs = Arc::new(node_os::fs::SharedFs::new());
        let mut src = node_os::Node::with_rootfs(
            node_os::NodeConfig::default()
                .with_id(0)
                .with_local_mem_mib(1024),
            Arc::clone(&device),
            Arc::clone(&rootfs),
        );
        let mut dst = node_os::Node::with_rootfs(
            node_os::NodeConfig::default()
                .with_id(1)
                .with_local_mem_mib(1024),
            Arc::clone(&device),
            rootfs,
        );
        let spec = faas::by_name("Linpack").unwrap();
        let (pid, init) = faas::deploy_cold(&mut src, &spec).unwrap();
        faas::warm_for_checkpoint(&mut src, pid, &spec, 8).unwrap();
        let fork = cxlfork::CxlFork::new();
        let ckpt = fork.checkpoint(&mut src, pid).unwrap();
        let restored = fork.restore(&ckpt, &mut dst).unwrap();
        let inv = faas::run_invocation(&mut dst, restored.pid, &spec, 0).unwrap();
        audit_clean(&[&src, &dst], &device);
        (
            init.total,
            fork.meta(&ckpt).checkpoint_cost,
            fork.meta(&ckpt).cxl_pages,
            ckpt.dirty_pages,
            ckpt.accessed_pages,
            restored.restore_latency,
            inv.total,
            inv.faults,
            dst.frames().used(),
            device.used_pages(),
            src.now(),
            dst.now(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn mechanisms_see_identical_source_state() {
    // Checkpointing the same process twice with the same mechanism gives
    // checkpoints with identical metadata (content equality is covered by
    // per-mechanism tests).
    let device = Arc::new(cxl_mem::CxlDevice::with_capacity_mib(2048));
    let rootfs = Arc::new(node_os::fs::SharedFs::new());
    let mut src = node_os::Node::with_rootfs(
        node_os::NodeConfig::default()
            .with_id(0)
            .with_local_mem_mib(1024),
        Arc::clone(&device),
        rootfs,
    );
    let spec = faas::by_name("Pyaes").unwrap();
    let (pid, _) = faas::deploy_cold(&mut src, &spec).unwrap();
    faas::warm_for_checkpoint(&mut src, pid, &spec, 4).unwrap();
    let fork = cxlfork::CxlFork::new();
    let a = fork.checkpoint(&mut src, pid).unwrap();
    let b = fork.checkpoint(&mut src, pid).unwrap();
    assert_eq!(a.meta().footprint_pages, b.meta().footprint_pages);
    assert_eq!(a.data_pages, b.data_pages);
    assert_eq!(a.dirty_pages, b.dirty_pages);
    assert_eq!(a.accessed_pages, b.accessed_pages);
    assert_eq!(a.leaves.len(), b.leaves.len());
    assert_eq!(a.vma_blocks.len(), b.vma_blocks.len());
    audit_clean(&[&src], &device);
}
