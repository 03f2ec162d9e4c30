//! Static-vs-runtime lockdep cross-check over the *real* workspace:
//! drive the device and store under the `check` feature so runtime
//! lockdep records actual `(held, acquired)` class edges, then lint the
//! committed source tree with those edges and assert the two graphs
//! agree — no static cycle, no contradiction, the
//! `cxl_mem.device.regions → cxl_mem.device.shard*` ordering covered by
//! a runtime `shardNN` edge, and the static graph exactly the seven
//! edges below (a refactor that hides an acquisition from the extractor
//! must fail here, not silently shrink the graph).
//!
//! Everything lives in one `#[test]` because runtime lockdep's edge
//! graph is process-global: a second test in this binary would see (and
//! have to filter) the first one's edges.

use std::path::Path;
use std::sync::Arc;

use cxl_lint::lint_workspace;
use cxl_mem::lockdep::{lock_order_edges, reset_lock_graph};
use cxl_mem::{CxlDevice, CxlPageId, NodeId, PageData};
use cxl_store::Store;
use simclock::SimTime;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn runtime_lockdep_agrees_with_the_static_graph() {
    reset_lock_graph();

    // Drive the sharded device across enough pages to touch several
    // shards under the region-table lock, then the store's intern path
    // (store lock held over device batch calls).
    let device = Arc::new(CxlDevice::with_shards(256, 8));
    let region = device.create_region("lint-cross-check");
    let pages = device.alloc_batch(region, 64).expect("alloc");
    let writes: Vec<(CxlPageId, PageData)> = pages[..16]
        .iter()
        .copied()
        .zip((0..16u64).map(PageData::pattern))
        .collect();
    device.write_pages(&writes, NodeId(0)).expect("write");
    device.read_pages(&pages[..16], NodeId(0)).expect("read");
    device.free_batch(&pages).expect("free");

    let store = Store::new(device.clone());
    let image = store.begin_image("img", NodeId(0), 0, SimTime::ZERO);
    let payload: Vec<PageData> = (0..32u64).map(PageData::pattern).collect();
    store
        .intern_pages(image, &payload, NodeId(0))
        .expect("intern");
    let meta = device.create_region("lint-cross-check:meta");
    store.commit_image(image, meta).expect("image is pending");
    store.release_image(image).expect("image is committed");

    let runtime: Vec<(String, String)> = lock_order_edges()
        .into_iter()
        .map(|(h, a)| (h.to_string(), a.to_string()))
        .collect();
    assert!(
        !runtime.is_empty(),
        "the check feature must be on for this test (dev-dep enables it)"
    );
    // The driven workload must have taken a shard lock under the region
    // table, or the cross-check below proves nothing.
    assert!(
        runtime
            .iter()
            .any(|(h, a)| h == "cxl_mem.device.regions" && a.starts_with("cxl_mem.device.shard")),
        "runtime edges: {runtime:?}"
    );

    // Lint the committed tree against those runtime edges.
    let root = workspace_root();
    let report = lint_workspace(root, Some(&runtime)).expect("walk workspace");

    // No static cycle, no static/runtime contradiction — on the real
    // tree, with real edges.
    assert!(
        report.is_clean(),
        "workspace must lint clean: {:?}",
        report.violations
    );

    // The static graph of the committed tree, edge for edge.
    let static_edges: Vec<(&str, &str)> = report
        .lock_edges
        .iter()
        .map(|(h, a)| (h.as_str(), a.as_str()))
        .collect();
    assert_eq!(
        static_edges,
        [
            ("cxl_mem.device.regions", "cxl_mem.device.shard*"),
            ("cxl_store.inner", "cxl_fault.crashpoint"),
            ("cxl_store.inner", "cxl_fault.injector"),
            ("cxl_store.inner", "cxl_mem.device.hook"),
            ("cxl_store.inner", "cxl_mem.device.regions"),
            ("cxl_store.inner", "cxl_mem.device.shard*"),
            ("cxl_store.inner", "cxl_store.crash_hook"),
        ]
    );

    // The regions → shard* ordering is exactly what runtime lockdep
    // observed (it must be covered, not a gap).
    assert!(
        !report
            .coverage_gaps
            .iter()
            .any(|(h, a)| h == "cxl_mem.device.regions" && a == "cxl_mem.device.shard*"),
        "regions → shard* was driven above, must not be a coverage gap: {:?}",
        report.coverage_gaps
    );

    // And a fabricated descending shard edge — the discipline the device
    // must never exhibit — is flagged as a contradiction.
    let mut poisoned = runtime.clone();
    poisoned.push((
        "cxl_mem.device.shard07".to_string(),
        "cxl_mem.device.shard03".to_string(),
    ));
    let report = lint_workspace(root, Some(&poisoned)).expect("walk workspace");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "lock-order-contradiction"),
        "descending shard edge must contradict the declared family order"
    );
}
