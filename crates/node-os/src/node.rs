//! The node runtime: clock, memory, cache, process table.

use std::collections::BTreeMap;
use std::sync::Arc;

use simclock::stats::Counters;
use simclock::{LatencyModel, SimClock, SimDuration, SimTime};

use cxl_mem::{CxlDevice, NodeId};

use crate::addr::Pid;
use crate::cache::{CacheConfig, LlcCache};
use crate::error::OsError;
use crate::frame::FrameAllocator;
use crate::fs::SharedFs;
use crate::mm::{Access, AccessOutcome, AddressSpace, MmContext};
use crate::pagecache::PageCache;
use crate::process::Task;

/// Configuration for one simulated node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Fabric node id.
    pub id: u32,
    /// Local DRAM capacity in MiB (the evaluation VMs have tens of GiB;
    /// Fig. 10c shrinks this to 50 % / 25 %).
    pub local_mem_mib: u64,
    /// LLC geometry.
    pub cache: CacheConfig,
    /// Latency model.
    pub model: LatencyModel,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            id: 0,
            local_mem_mib: 8192,
            cache: CacheConfig::default(),
            model: LatencyModel::calibrated(),
        }
    }
}

impl NodeConfig {
    /// Sets the node id.
    pub fn with_id(mut self, id: u32) -> Self {
        self.id = id;
        self
    }

    /// Sets the local memory capacity in MiB.
    pub fn with_local_mem_mib(mut self, mib: u64) -> Self {
        self.local_mem_mib = mib;
        self
    }

    /// Sets the latency model.
    pub fn with_model(mut self, model: LatencyModel) -> Self {
        self.model = model;
        self
    }
}

/// One process: task + address space.
#[derive(Debug)]
pub struct Process {
    /// Task structure (registers, fds, namespaces, scheduling).
    pub task: Task,
    /// The address space.
    pub mm: AddressSpace,
}

/// A simulated compute node attached to the CXL fabric.
///
/// Owns a virtual clock, a frame allocator, an LLC model and a process
/// table; shares the [`CxlDevice`] and [`SharedFs`] with its peers.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use cxl_mem::CxlDevice;
/// use node_os::{Node, NodeConfig, mm::Access, vma::Protection};
///
/// # fn main() -> Result<(), node_os::OsError> {
/// let device = Arc::new(CxlDevice::with_capacity_mib(64));
/// let mut node = Node::new(NodeConfig::default(), device);
/// let pid = node.spawn("worker")?;
/// node.process_mut(pid)?.mm.map_anonymous(0, 16, Protection::read_write(), "heap")?;
/// node.access(pid, 0, Access::Write)?;
/// assert_eq!(node.counters().get("fault_anon_zero_fill"), 1);
/// node.kill(pid)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    clock: SimClock,
    model: LatencyModel,
    frames: FrameAllocator,
    cache: LlcCache,
    device: Arc<CxlDevice>,
    rootfs: Arc<SharedFs>,
    page_cache: PageCache,
    processes: BTreeMap<Pid, Process>,
    next_pid: u64,
    counters: Counters,
}

impl Node {
    /// Creates a node with its own private root filesystem (single-node
    /// tests). Cluster simulations should use [`Node::with_rootfs`] so all
    /// nodes see identical paths (§4.1).
    pub fn new(config: NodeConfig, device: Arc<CxlDevice>) -> Self {
        Node::with_rootfs(config, device, Arc::new(SharedFs::new()))
    }

    /// Creates a node sharing `rootfs` with its peers.
    pub fn with_rootfs(config: NodeConfig, device: Arc<CxlDevice>, rootfs: Arc<SharedFs>) -> Self {
        Node {
            id: NodeId(config.id),
            clock: SimClock::new(),
            frames: FrameAllocator::with_capacity_mib(config.local_mem_mib),
            cache: LlcCache::new(config.cache),
            model: config.model,
            device,
            rootfs,
            page_cache: PageCache::new(),
            processes: BTreeMap::new(),
            next_pid: 1,
            counters: Counters::new(),
        }
    }

    /// The node's fabric id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current virtual time on this node.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The node's clock.
    pub fn clock_mut(&mut self) -> &mut SimClock {
        &mut self.clock
    }

    /// The latency model.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// The shared CXL device.
    pub fn device(&self) -> &Arc<CxlDevice> {
        &self.device
    }

    /// The shared root filesystem.
    pub fn rootfs(&self) -> &Arc<SharedFs> {
        &self.rootfs
    }

    /// The local frame allocator.
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }

    /// Mutable access to the frame allocator (capacity experiments).
    pub fn frames_mut(&mut self) -> &mut FrameAllocator {
        &mut self.frames
    }

    /// The LLC model.
    pub fn cache(&self) -> &LlcCache {
        &self.cache
    }

    /// Event counters (faults by kind, cache hits/misses).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Resets the event counters.
    pub fn reset_counters(&mut self) {
        self.counters = Counters::new();
    }

    /// Increments a named event counter (fork mechanisms record their
    /// operations here).
    pub fn counters_note(&mut self, name: &str) {
        self.counters.incr(name);
    }

    /// Adds `n` to a named event counter (e.g. retry totals).
    pub fn counters_add(&mut self, name: &str, n: u64) {
        self.counters.add(name, n);
    }

    /// The node's page cache.
    pub fn page_cache(&self) -> &PageCache {
        &self.page_cache
    }

    /// Drops all clean cached file pages, returning how many frames were
    /// freed — the node's reclamation path under memory pressure.
    pub fn drop_page_cache(&mut self) -> u64 {
        self.page_cache.clear(&mut self.frames)
    }

    /// Creates an empty process.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility
    /// with per-process resource limits.
    pub fn spawn(&mut self, comm: &str) -> Result<Pid, OsError> {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.processes.insert(
            pid,
            Process {
                task: Task::new(pid, comm),
                mm: AddressSpace::new(),
            },
        );
        Ok(pid)
    }

    /// Inserts a fully formed process (restore paths build the process
    /// outside and hand it over). Returns its new pid.
    pub fn adopt(&mut self, mut process: Process) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        process.task.pid = pid;
        self.processes.insert(pid, process);
        pid
    }

    /// Looks up a process.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if `pid` is not live on this node.
    pub fn process(&self, pid: Pid) -> Result<&Process, OsError> {
        self.processes.get(&pid).ok_or(OsError::NoSuchProcess(pid))
    }

    /// Mutable process lookup.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if `pid` is not live on this node.
    pub fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, OsError> {
        self.processes
            .get_mut(&pid)
            .ok_or(OsError::NoSuchProcess(pid))
    }

    /// Live pids, in creation order.
    pub fn pids(&self) -> Vec<Pid> {
        self.processes.keys().copied().collect()
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Runs `f` with simultaneous mutable access to one process and the
    /// node's fault context — the borrow-splitting primitive the fork
    /// mechanisms are built on.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if `pid` is not live on this node.
    pub fn with_process_ctx<R>(
        &mut self,
        pid: Pid,
        f: impl FnOnce(&mut Process, &mut MmContext<'_>) -> R,
    ) -> Result<R, OsError> {
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        let mut ctx = MmContext {
            frames: &mut self.frames,
            cache: &mut self.cache,
            device: &self.device,
            rootfs: &self.rootfs,
            model: &self.model,
            page_cache: &mut self.page_cache,
            node: self.id,
        };
        Ok(f(process, &mut ctx))
    }

    /// Simulates one memory access by `pid` to virtual page `vpn`,
    /// advancing the node clock and updating counters.
    ///
    /// # Errors
    ///
    /// Propagates address-space errors ([`OsError::BadAddress`],
    /// [`OsError::OutOfMemory`], …).
    pub fn access(&mut self, pid: Pid, vpn: u64, access: Access) -> Result<AccessOutcome, OsError> {
        let outcome = self.with_process_ctx(pid, |p, ctx| {
            p.mm.access(crate::addr::VirtPageNum(vpn), access, ctx)
        })??;
        self.clock.advance(outcome.cost);
        if let Some(kind) = outcome.fault {
            self.counters.incr(kind.counter_name());
        }
        if outcome.pt_leaf_cow {
            self.counters.incr("pt_leaf_cow");
        }
        if outcome.vma_block_cow {
            self.counters.incr("vma_block_cow");
        }
        self.counters.incr(if outcome.cache_hit {
            "llc_hit"
        } else {
            "llc_miss"
        });
        if outcome.cxl_tier && !outcome.cache_hit {
            self.counters.incr("cxl_line_access");
        }
        if outcome.retries > 0 {
            self.counters
                .add("cxl_transient_retry", u64::from(outcome.retries));
        }
        if cxl_telemetry::is_armed() {
            let node = self.id.0;
            if let Some(kind) = outcome.fault {
                cxl_telemetry::counter_add("node_os", kind.counter_name(), Some(node), 1);
                cxl_telemetry::timer_record(
                    "node_os",
                    "fault.latency",
                    Some(node),
                    outcome.fault_cost,
                );
            }
            if outcome.retries > 0 {
                cxl_telemetry::counter_add(
                    "node_os",
                    "cxl_transient_retry",
                    Some(node),
                    u64::from(outcome.retries),
                );
            }
            cxl_telemetry::counter_add(
                "node_os",
                if outcome.cache_hit {
                    "llc_hit"
                } else {
                    "llc_miss"
                },
                Some(node),
                1,
            );
        }
        Ok(outcome)
    }

    /// Forks `parent` locally: CoW-shares its anonymous memory, clones its
    /// task. Returns the child pid and the modelled fork latency (already
    /// charged to the clock).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if `parent` is not live;
    /// [`OsError::OutOfMemory`] if page-table duplication cannot allocate.
    pub fn local_fork(&mut self, parent: Pid) -> Result<(Pid, SimDuration), OsError> {
        let (forked, task) =
            self.with_process_ctx(parent, |p, ctx| (p.mm.fork_into(ctx), p.task.clone()))?;
        let (child_mm, cost) = forked?;
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let mut child_task = task;
        child_task.pid = pid;
        self.processes.insert(
            pid,
            Process {
                task: child_task,
                mm: child_mm,
            },
        );
        self.clock.advance(cost);
        self.counters.incr("local_fork");
        cxl_telemetry::counter_add("node_os", "local_fork", Some(self.id.0), 1);
        cxl_telemetry::timer_record("node_os", "local_fork.latency", Some(self.id.0), cost);
        Ok((pid, cost))
    }

    /// Terminates `pid`, releasing all its local frames.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if `pid` is not live on this node.
    pub fn kill(&mut self, pid: Pid) -> Result<(), OsError> {
        let mut process = self
            .processes
            .remove(&pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        let mut ctx = MmContext {
            frames: &mut self.frames,
            cache: &mut self.cache,
            device: &self.device,
            rootfs: &self.rootfs,
            model: &self.model,
            page_cache: &mut self.page_cache,
            node: self.id,
        };
        process.mm.teardown(&mut ctx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::Protection;

    fn node() -> Node {
        Node::new(
            NodeConfig::default().with_local_mem_mib(16),
            Arc::new(CxlDevice::with_capacity_mib(16)),
        )
    }

    #[test]
    fn spawn_access_kill_lifecycle() {
        let mut n = node();
        let pid = n.spawn("t").unwrap();
        assert_eq!(n.process_count(), 1);
        n.process_mut(pid)
            .unwrap()
            .mm
            .map_anonymous(0, 8, Protection::read_write(), "heap")
            .unwrap();
        let before = n.now();
        n.access(pid, 3, Access::Write).unwrap();
        assert!(n.now() > before, "clock advanced");
        assert_eq!(n.frames().used(), 1);
        n.kill(pid).unwrap();
        assert_eq!(n.frames().used(), 0);
        assert!(matches!(n.process(pid), Err(OsError::NoSuchProcess(_))));
        assert!(matches!(n.kill(pid), Err(OsError::NoSuchProcess(_))));
    }

    #[test]
    fn counters_track_faults_and_cache() {
        let mut n = node();
        let pid = n.spawn("t").unwrap();
        n.process_mut(pid)
            .unwrap()
            .mm
            .map_anonymous(0, 8, Protection::read_write(), "heap")
            .unwrap();
        n.access(pid, 0, Access::Write).unwrap();
        n.access(pid, 0, Access::Read).unwrap();
        assert_eq!(n.counters().get("fault_anon_zero_fill"), 1);
        assert_eq!(n.counters().get("llc_hit"), 1);
        assert_eq!(n.counters().get("llc_miss"), 1);
        n.reset_counters();
        assert_eq!(n.counters().get("llc_hit"), 0);
    }

    #[test]
    fn local_fork_creates_child_sharing_memory() {
        let mut n = node();
        let parent = n.spawn("parent").unwrap();
        n.process_mut(parent)
            .unwrap()
            .mm
            .map_anonymous(0, 4, Protection::read_write(), "heap")
            .unwrap();
        n.access(parent, 0, Access::Write).unwrap();
        let frames_before = n.frames().used();
        let (child, cost) = n.local_fork(parent).unwrap();
        assert!(cost > SimDuration::ZERO);
        assert_eq!(
            n.frames().used(),
            frames_before,
            "fork allocates no data frames"
        );
        assert_eq!(n.process(child).unwrap().task.comm, "parent");
        assert_ne!(child, parent);
        // Child write isolates.
        n.access(child, 0, Access::Write).unwrap();
        assert_eq!(n.frames().used(), frames_before + 1);
        assert_eq!(n.counters().get("fault_local_cow"), 1);
    }

    #[test]
    fn adopt_assigns_fresh_pid() {
        let mut n = node();
        let p = Process {
            task: Task::new(Pid(0), "adopted"),
            mm: AddressSpace::new(),
        };
        let pid = n.adopt(p);
        assert_eq!(n.process(pid).unwrap().task.pid, pid);
    }

    #[test]
    fn nodes_share_rootfs_when_asked() {
        let device = Arc::new(CxlDevice::with_capacity_mib(4));
        let rootfs = Arc::new(SharedFs::new());
        rootfs.create("/app", 4096, 1);
        let a = Node::with_rootfs(
            NodeConfig::default().with_id(0),
            Arc::clone(&device),
            Arc::clone(&rootfs),
        );
        let b = Node::with_rootfs(NodeConfig::default().with_id(1), device, rootfs);
        assert!(a.rootfs().exists("/app"));
        assert!(b.rootfs().exists("/app"));
        assert_eq!(a.id(), NodeId(0));
        assert_eq!(b.id(), NodeId(1));
    }
}
