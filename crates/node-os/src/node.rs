//! The node runtime: clock, memory, cache, process table.

use std::collections::BTreeMap;
use std::sync::Arc;

use simclock::{LatencyModel, SimClock, SimDuration, SimTime};

use cxl_mem::{CxlDevice, NodeId};

use crate::addr::Pid;
use crate::cache::{CacheConfig, LlcCache};
use crate::error::OsError;
use crate::frame::FrameAllocator;
use crate::fs::SharedFs;
use crate::mm::{Access, AccessOutcome, AddressSpace, FaultKind, MmContext};
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
    /// Latency model.
    pub model: LatencyModel,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            id: 0,
            local_mem_mib: 8192,
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

/// A node's event books: faults by kind, the LLC outcome of every
/// access, and the transient CXL errors retried away.
///
/// Fixed fields, one update per [`Node::access`]; the names the reports
/// use are rendered only by [`NodeCounters::get`], and reach telemetry
/// only through [`Node::publish_counters_since`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeCounters {
    faults: [u64; FaultKind::ALL.len()],
    /// Accesses the LLC intercepted.
    pub llc_hits: u64,
    /// Accesses that went to memory.
    pub llc_misses: u64,
    /// Transient CXL errors retried away by accesses, checkpoints and
    /// restores on this node.
    pub transient_retries: u64,
}

impl NodeCounters {
    /// Faults of `kind` taken.
    pub fn faults(&self, kind: FaultKind) -> u64 {
        self.faults[kind as usize]
    }

    /// The count reported under `name`: a [`FaultKind::counter_name`],
    /// `llc_hit`, `llc_miss` or `cxl_transient_retry`. Any other name
    /// counts 0.
    pub fn get(&self, name: &str) -> u64 {
        match name {
            "llc_hit" => self.llc_hits,
            "llc_miss" => self.llc_misses,
            "cxl_transient_retry" => self.transient_retries,
            _ => FaultKind::ALL
                .into_iter()
                .find(|k| k.counter_name() == name)
                .map_or(0, |k| self.faults(k)),
        }
    }

    /// Every name [`get`](Self::get) answers with a count.
    fn names() -> impl Iterator<Item = &'static str> {
        FaultKind::ALL
            .into_iter()
            .map(FaultKind::counter_name)
            .chain(["llc_hit", "llc_miss", "cxl_transient_retry"])
    }

    fn record(&mut self, outcome: &AccessOutcome) {
        if let Some(kind) = outcome.fault {
            self.faults[kind as usize] += 1;
        }
        if outcome.cache_hit {
            self.llc_hits += 1;
        } else {
            self.llc_misses += 1;
        }
        self.transient_retries += u64::from(outcome.retries);
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
    counters: NodeCounters,
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
            cache: LlcCache::new(CacheConfig::default()),
            model: config.model,
            device,
            rootfs,
            page_cache: PageCache::new(),
            processes: BTreeMap::new(),
            next_pid: 1,
            counters: NodeCounters::default(),
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

    /// A snapshot of the node's event books.
    pub fn counters(&self) -> NodeCounters {
        self.counters
    }

    /// Books `n` transient CXL errors that a checkpoint or restore on
    /// this node retried away, and publishes them.
    pub fn add_transient_retries(&mut self, n: u64) {
        let before = self.counters;
        self.counters.transient_retries += n;
        self.publish_counters_since(before);
    }

    /// Publishes what the books gained since `before`: one
    /// `node_os.<name>{node=}` telemetry counter per
    /// [`NodeCounters::get`] name that moved. Telemetry keeps no copy of
    /// its own; whoever drives the node publishes each stretch of work
    /// once. No-op while unarmed.
    pub fn publish_counters_since(&self, before: NodeCounters) {
        if !cxl_telemetry::is_armed() {
            return;
        }
        for name in NodeCounters::names() {
            let delta = self.counters.get(name) - before.get(name);
            if delta > 0 {
                cxl_telemetry::counter_add("node_os", name, Some(self.id.0), delta);
            }
        }
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
    /// advancing the node clock and updating counters. Makes no telemetry
    /// call: the caller publishes the books once per batch
    /// ([`publish_counters_since`](Self::publish_counters_since)).
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
        self.counters.record(&outcome);
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
        cxl_telemetry::counter_add("node_os", "local_fork", Some(self.id.0), 1);
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
        let first = n.counters();
        assert_eq!(first.faults(FaultKind::AnonZeroFill), 1);
        assert_eq!(first.llc_hits, 1);
        assert_eq!(first.llc_misses, 1);
        // Books only grow: a window is the difference of two snapshots.
        n.access(pid, 0, Access::Read).unwrap();
        let now = n.counters();
        assert_eq!(now.llc_hits - first.llc_hits, 1);
        assert_eq!(now.llc_misses - first.llc_misses, 0);
        assert_eq!(now.get("fault_anon_zero_fill"), 1);
    }

    /// The books against an independent tally: a seeded script over a
    /// parent, its local-fork child and a pull-policy process reaches all
    /// eight fault kinds while an injector fires transient read errors.
    #[test]
    fn counters_equal_an_independent_tally_of_access_outcomes() {
        use crate::mm::{BackingPage, BackingSource, CxlBacking, CxlTierPolicy};
        use crate::pte::PteFlags;
        use crate::{PhysAddr, VirtPageNum};
        use cxl_mem::PageData;
        use rand::Rng;

        let device = Arc::new(CxlDevice::with_capacity_mib(16));
        let rootfs = Arc::new(SharedFs::new());
        rootfs.create("/lib/app.so", 16 * crate::PAGE_SIZE, 5);
        let mut n = Node::with_rootfs(
            NodeConfig::default().with_local_mem_mib(16),
            Arc::clone(&device),
            rootfs,
        );
        let region = device.create_region("ckpt");
        let mut cxl_pages = Vec::new();
        for i in 0..48 {
            let page = device.alloc_page(region).unwrap();
            device
                .write_page(page, PageData::pattern(i), NodeId(9))
                .unwrap();
            cxl_pages.push(page);
        }

        // Parent: anonymous heap, a file mapping, and CXL-resident CoW
        // pages (migrate-on-write).
        let parent = n.spawn("parent").unwrap();
        {
            let mm = &mut n.process_mut(parent).unwrap().mm;
            mm.map_anonymous(0, 64, Protection::read_write(), "heap")
                .unwrap();
            mm.map_file(100, 16, Protection::read_exec(), "/lib/app.so", 0)
                .unwrap();
            mm.map_anonymous(200, 16, Protection::read_write(), "ckpt")
                .unwrap();
            for (i, page) in cxl_pages[..16].iter().enumerate() {
                mm.install_mapping(
                    VirtPageNum(200 + i as u64),
                    PhysAddr::Cxl(*page),
                    PteFlags::PRESENT | PteFlags::COW,
                    false,
                );
            }
        }
        // Puller: migrate-on-access from the device and from another
        // node's memory.
        let puller = n.spawn("puller").unwrap();
        {
            let mm = &mut n.process_mut(puller).unwrap().mm;
            mm.map_anonymous(300, 32, Protection::read_write(), "pulled")
                .unwrap();
            mm.set_policy(CxlTierPolicy::MigrateOnAccess);
            let mut backing = CxlBacking::new();
            for (i, page) in cxl_pages[16..].iter().enumerate() {
                let source = if i < 16 {
                    BackingSource::Device(*page)
                } else {
                    BackingSource::Remote(Arc::new(PageData::pattern(100 + i as u64)))
                };
                backing.insert(
                    VirtPageNum(300 + i as u64),
                    BackingPage {
                        source,
                        accessed: true,
                        dirty: false,
                        file_backed: false,
                    },
                );
            }
            mm.set_backing(Arc::new(backing));
        }

        let injector = Arc::new(cxl_fault::Injector::from_plan(
            cxl_fault::FaultPlan::new(11).with_transient_rate(0.2),
        ));
        injector.arm(&device);

        let mut faults = [0u64; FaultKind::ALL.len()];
        let (mut hits, mut misses, mut retries) = (0u64, 0u64, 0u64);
        let mut rng = simclock::rng::seeded(26);
        let ranges: [(u64, u64, bool); 3] = [(0, 64, true), (100, 116, false), (200, 216, true)];
        let mut run = |n: &mut Node, pids: &[Pid], steps: usize| {
            for _ in 0..steps {
                let pid = pids[rng.gen_range(0..pids.len())];
                let (vpn, writable) = if pid == puller {
                    (rng.gen_range(300..332), true)
                } else {
                    let (lo, hi, writable) = ranges[rng.gen_range(0..ranges.len())];
                    (rng.gen_range(lo..hi), writable)
                };
                let access = if writable && rng.gen_range(0u8..2) == 0 {
                    Access::Write
                } else {
                    Access::Read
                };
                // A read whose retries run out is an error, and books
                // nothing on either side.
                let Ok(o) = n.access(pid, vpn, access) else {
                    continue;
                };
                if let Some(kind) = o.fault {
                    faults[FaultKind::ALL.iter().position(|k| *k == kind).unwrap()] += 1;
                }
                if o.cache_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                retries += u64::from(o.retries);
            }
        };
        run(&mut n, &[parent, puller], 400);
        // The child shares the parent's heap copy-on-write and re-faults
        // its file pages from the warm page cache.
        let (child, _) = n.local_fork(parent).unwrap();
        run(&mut n, &[parent, child, puller], 800);
        device.set_fault_hook(None);

        let books = n.counters();
        for (kind, tallied) in FaultKind::ALL.into_iter().zip(faults) {
            assert!(tallied > 0, "the script never reached {kind:?}");
            assert_eq!(books.faults(kind), tallied, "{kind:?}");
            assert_eq!(books.get(kind.counter_name()), books.faults(kind));
        }
        assert!(retries > 0, "the injector never fired");
        assert_eq!(
            (books.llc_hits, books.llc_misses, books.transient_retries),
            (hits, misses, retries)
        );
        assert_eq!(books.get("llc_hit"), books.llc_hits);
        assert_eq!(books.get("llc_miss"), books.llc_misses);
        assert_eq!(books.get("cxl_transient_retry"), books.transient_retries);
        assert_eq!(books.get("no_such_event"), 0);
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
