//! The simulated CXL-interconnected cluster.

use std::sync::Arc;

use cxl_mem::CxlDevice;
use node_os::fs::SharedFs;
use node_os::{Node, NodeConfig};
use simclock::LatencyModel;

/// A cluster of nodes sharing one CXL device and one root filesystem.
///
/// The evaluation platform is a two-node cluster (one VM per socket) with
/// a 16 GiB CXL device (§6.1); the builder accepts any geometry.
#[derive(Debug)]
pub struct Cluster {
    /// The compute nodes.
    pub nodes: Vec<Node>,
    /// The shared CXL memory device.
    pub device: Arc<CxlDevice>,
    /// The shared root filesystem.
    pub rootfs: Arc<SharedFs>,
    /// Per-node failure flags: a failed node takes no new placements.
    failed: Vec<bool>,
}

impl Cluster {
    /// Builds a cluster of `node_count` nodes with `node_mem_mib` of local
    /// DRAM each and a `cxl_mib` CXL device.
    pub fn new(node_count: usize, node_mem_mib: u64, cxl_mib: u64, model: LatencyModel) -> Self {
        let device = Arc::new(CxlDevice::with_capacity_mib(cxl_mib));
        Cluster::with_device(node_count, node_mem_mib, device, model)
    }

    /// Builds a cluster over an **existing** CXL device. This is the
    /// failover path: fabric-attached memory outlives the coordinator
    /// that populated it, so a successor cluster attaches to the same
    /// device and recovers the durable state it finds there instead of
    /// starting from an empty device.
    pub fn with_device(
        node_count: usize,
        node_mem_mib: u64,
        device: Arc<CxlDevice>,
        model: LatencyModel,
    ) -> Self {
        let rootfs = Arc::new(SharedFs::new());
        let nodes = (0..node_count)
            .map(|i| {
                Node::with_rootfs(
                    NodeConfig::default()
                        .with_id(i as u32)
                        .with_local_mem_mib(node_mem_mib)
                        .with_model(model.clone()),
                    Arc::clone(&device),
                    Arc::clone(&rootfs),
                )
            })
            .collect();
        Cluster {
            failed: vec![false; node_count],
            nodes,
            device,
            rootfs,
        }
    }

    /// Utilization scaled to integers for exact comparison.
    fn scaled_load(&self, idx: usize) -> u64 {
        (self.nodes[idx].frames().utilization() * 1e9) as u64
    }

    /// Index of the live node with the most free local memory, or `None`
    /// when every node has failed.
    ///
    /// A plain scan of the live nodes' allocators at call time: nothing
    /// is cached, so memory freed by any path counts at the very next
    /// placement. Ties break toward the **lowest node index** (the
    /// minimum is over `(load, node)`), so an evenly loaded cluster
    /// places on the first live node and repeated runs schedule
    /// identically.
    pub fn least_loaded(&self) -> Option<usize> {
        self.live_nodes()
            .map(|i| (self.scaled_load(i), i))
            .min()
            .map(|(_, i)| i)
    }

    /// Marks a node as failed; it is skipped by placement from now on.
    pub fn mark_failed(&mut self, idx: usize) {
        self.failed[idx] = true;
    }

    /// Whether `idx` has been marked failed.
    pub fn is_failed(&self, idx: usize) -> bool {
        self.failed.get(idx).copied().unwrap_or(true)
    }

    /// Indices of the nodes still live.
    pub fn live_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| !self.failed[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_shares_device_and_rootfs() {
        let c = Cluster::new(3, 64, 128, LatencyModel::calibrated());
        assert_eq!(c.nodes.len(), 3);
        c.rootfs.create("/shared", 10, 1);
        for n in &c.nodes {
            assert!(n.rootfs().exists("/shared"));
            assert!(Arc::ptr_eq(n.device(), &c.device));
        }
    }

    #[test]
    fn least_loaded_prefers_free_node() {
        let mut c = Cluster::new(2, 64, 16, LatencyModel::calibrated());
        // Load node 0.
        for _ in 0..1000 {
            c.nodes[0].frames_mut().alloc_zeroed().unwrap();
        }
        assert_eq!(c.least_loaded(), Some(1));
    }

    #[test]
    fn least_loaded_skips_failed_nodes() {
        let mut c = Cluster::new(3, 64, 16, LatencyModel::calibrated());
        // Node 2 is the emptiest but dead; placement must skip it.
        for _ in 0..1000 {
            c.nodes[0].frames_mut().alloc_zeroed().unwrap();
        }
        for _ in 0..500 {
            c.nodes[1].frames_mut().alloc_zeroed().unwrap();
        }
        c.mark_failed(2);
        assert!(c.is_failed(2));
        assert_eq!(c.least_loaded(), Some(1));
        assert_eq!(c.live_nodes().collect::<Vec<_>>(), vec![0, 1]);
        // A fully failed cluster has nowhere to place.
        c.mark_failed(0);
        c.mark_failed(1);
        assert_eq!(c.least_loaded(), None);
    }

    #[test]
    fn least_loaded_breaks_ties_toward_lowest_index() {
        // An evenly loaded cluster always places on the first live node.
        let mut c = Cluster::new(4, 64, 16, LatencyModel::calibrated());
        assert_eq!(c.least_loaded(), Some(0), "all empty: lowest index wins");
        c.mark_failed(0);
        assert_eq!(c.least_loaded(), Some(1), "ties among live nodes only");
        // Load node 1: nodes 2 and 3 now tie for emptiest.
        for _ in 0..100 {
            c.nodes[1].frames_mut().alloc_zeroed().unwrap();
        }
        assert_eq!(c.least_loaded(), Some(2), "equal load: lowest index wins");
        // Strictly lighter nodes still beat index order.
        for i in 2..4 {
            for _ in 0..200 {
                c.nodes[i].frames_mut().alloc_zeroed().unwrap();
            }
        }
        assert_eq!(c.least_loaded(), Some(1), "strict improvement wins");
    }

    #[test]
    fn least_loaded_sees_an_untracked_load_decrease() {
        let mut c = Cluster::new(3, 64, 16, LatencyModel::calibrated());
        // Load node 0 heaviest; it falls behind 1 and 2 in a lookup.
        let held: Vec<_> = (0..600)
            .map(|_| c.nodes[0].frames_mut().alloc_zeroed().unwrap())
            .collect();
        for i in 1..3 {
            for _ in 0..300 {
                c.nodes[i].frames_mut().alloc_zeroed().unwrap();
            }
        }
        assert_eq!(c.least_loaded(), Some(1));
        // Freed with no notification of any kind: node 0 must win next.
        for pfn in held {
            c.nodes[0].frames_mut().dec_ref(pfn);
        }
        assert_eq!(c.least_loaded(), Some(0));
    }
}
