//! Test support shared by the integration tests that run porter traces.

use cxl_mem::NodeId;
use cxlporter::{CxlPorter, PorterReport};
use rfork::RemoteFork;
use trace_gen::Invocation;

/// Runs `trace` on `porter`, then asserts the cluster audit
/// ([`cxl_check::audit_cluster`], container pins declared through
/// [`CxlPorter::pinned_frames`]) finds every ledger balanced: how every
/// trace these tests run ends.
pub fn run_audited<M: RemoteFork>(porter: &mut CxlPorter<M>, trace: &[Invocation]) -> PorterReport {
    let report = porter.run_trace(trace);
    let cluster = &porter.cluster;
    let violations = cxl_check::audit_cluster(
        cluster
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node, porter.pinned_frames(i))),
        &cluster.device,
        porter.image_store().map(|s| &**s),
        cluster.live_nodes().map(|i| NodeId(i as u32)),
    );
    assert!(
        violations.is_empty(),
        "cluster invariants violated after trace: {violations:?}"
    );
    report
}
