//! Scalability sweep (§8 "Scalability to a high number of nodes"): one
//! checkpoint, restored and executed on 2–64 nodes concurrently with a
//! deep queue of clones per node.
//!
//! The paper could not study many nodes on its two-VM prototype; the
//! simulation can. Reported per cluster size: per-clone restore latency
//! (flat — restores only touch the checkpoint read-only), total CXL read
//! traffic during the clones' first invocation (grows linearly with the
//! clone count — the bandwidth pressure §8 anticipates), and device pages
//! (flat — dedup is perfect).
//!
//! Run with `cargo bench -p cxlfork-bench --bench scalability_nodes`.

use cxlfork_bench::format::{ms, print_table};
use rfork::{RemoteFork, RestoreOptions};
use simclock::LatencyModel;
use std::sync::Arc;

fn main() {
    let spec = faas::by_name("Json").expect("Json in suite");
    let mut rows = Vec::new();
    for nodes in [2usize, 4, 8, 16, 32, 64] {
        let device = Arc::new(cxl_mem::CxlDevice::with_capacity_mib(8192));
        let rootfs = Arc::new(node_os::fs::SharedFs::new());
        let mut cluster: Vec<node_os::Node> = (0..nodes)
            .map(|i| {
                node_os::Node::with_rootfs(
                    node_os::NodeConfig::default()
                        .with_id(i as u32)
                        .with_local_mem_mib(1024)
                        .with_model(LatencyModel::calibrated()),
                    Arc::clone(&device),
                    Arc::clone(&rootfs),
                )
            })
            .collect();

        let (pid, _) = faas::deploy_cold(&mut cluster[0], &spec).expect("deploy fits");
        faas::warm_for_checkpoint(&mut cluster[0], pid, &spec, 15).expect("warm");
        let fork = cxlfork::CxlFork::new();
        let ckpt = fork
            .checkpoint(&mut cluster[0], pid)
            .expect("checkpoint fits");
        let device_pages = device.used_pages();
        let before = device.stats();

        let mut restore_total = simclock::SimDuration::ZERO;
        let mut exec_total = simclock::SimDuration::ZERO;
        // A deep per-node queue: every target node restores and runs
        // four clones back to back, so the large sizes stress both the
        // device's read path and per-node memory.
        let clones_per_node = 4;
        let mut clones = 0u64;
        for node in cluster.iter_mut().skip(1) {
            for _ in 0..clones_per_node {
                let r = fork
                    .restore_with(&ckpt, node, RestoreOptions::mow())
                    .expect("restore fits");
                restore_total += r.restore_latency;
                let inv = faas::run_invocation(node, r.pid, &spec, 0).expect("invocation");
                exec_total += inv.total;
                clones += 1;
            }
        }
        let after = device.stats();
        rows.push(vec![
            nodes.to_string(),
            clones.to_string(),
            ms(restore_total / clones),
            ms(exec_total / clones),
            format!(
                "{:.1}",
                (after.bytes_read.values().sum::<u64>() - before.bytes_read.values().sum::<u64>())
                    as f64
                    / 1048576.0
            ),
            device_pages.to_string(),
            (device.used_pages() - device_pages).to_string(),
        ]);
    }
    print_table(
        "Scalability: one Json checkpoint cloned across N nodes (restore latency flat; CXL read traffic scales with clones; device pages flat = perfect dedup)",
        &[
            "nodes", "clones", "restore/clone", "exec/clone", "CXL-read-MiB", "device-pages", "extra-pages",
        ],
        &rows,
    );
    println!("\n§8: in a large cluster, aggregate CXL bandwidth becomes the bottleneck — the traffic column is the quantity to provision for.");
}
