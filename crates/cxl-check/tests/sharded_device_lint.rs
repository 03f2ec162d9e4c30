//! CI gate for the sharded device (DESIGN.md §10): drives batched and
//! scalar traffic across every page-pool shard, then runs the full
//! device audit — shard-counter reconciliation included. In a debug
//! build lockdep checks every shard acquisition as it happens
//! (`cxl_mem.device.regions` → one `cxl_mem.device.shard` at a time),
//! so a nested shard lock or an inversion panics mid-churn.

use cxl_mem::{CxlDevice, NodeId, PageData, DEFAULT_SHARDS};

#[test]
fn sharded_device_batch_churn_audits_clean_with_no_lock_cycle() {
    let device = CxlDevice::with_shards(256, DEFAULT_SHARDS);
    let node = NodeId(0);

    // Batch allocation spanning several shards, from two regions.
    let a = device.create_region("ckpt:a");
    let b = device.create_region("ckpt:b");
    let pa = device.alloc_batch(a, 100).unwrap();
    let pb = device.alloc_batch(b, 60).unwrap();

    // Batched data traffic across every touched shard...
    let writes: Vec<_> = pa.iter().map(|&p| (p, PageData::pattern(p.0))).collect();
    device.write_pages(&writes, node).unwrap();
    let back = device.read_pages(&pa, node).unwrap();
    assert_eq!(back.len(), pa.len());

    // ...interleaved with scalar ops on the same shards.
    device
        .write_page(pb[0], PageData::pattern(7), node)
        .unwrap();
    assert_eq!(device.read_page(pb[0], node).unwrap(), PageData::pattern(7));

    // Partial free, then whole-region destruction.
    device.free_batch(&pa[10..40]).unwrap();
    device.destroy_region(b).unwrap();

    // The churn really exercised the partition, and all four ledgers
    // (slab ↔ used_pages ↔ regions ↔ shard counters) still balance.
    let active = device
        .shard_usage()
        .iter()
        .filter(|s| s.used_pages > 0)
        .count();
    assert!(active > 1, "batch churn must span shards, got {active}");
    assert_eq!(cxl_check::audit_device(&device), Vec::new());
}
