//! The node runtime: clock, memory, cache, process table.

use std::collections::BTreeMap;
use std::sync::Arc;

use simclock::{LatencyModel, SimClock, SimDuration, SimTime};

use cxl_mem::{CxlDevice, NodeId, PageData};

use crate::addr::{PhysAddr, Pid, VirtPageNum};
use crate::cache::{CacheConfig, LlcCache};
use crate::error::OsError;
use crate::frame::FrameAllocator;
use crate::fs::SharedFs;
use crate::mm::{Access, AccessOutcome, AddressSpace, FaultKind, MmContext};
use crate::pagecache::PageCache;
use crate::process::Task;
use crate::pte::Pte;

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
/// Fixed fields, one update per access outcome ([`Node::access_run`]);
/// the names the reports use are rendered only by [`NodeCounters::get`],
/// and reach telemetry only through [`Node::publish_counters_since`].
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

/// One present page met by [`Node::capture`] and kept by its `keep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapturedPage {
    /// The page's virtual page number.
    pub vpn: VirtPageNum,
    /// The entry as the page table holds it. Its `ACCESSED` flag is no
    /// access record (an attached leaf bakes in its checkpoint's);
    /// `accessed` is.
    pub pte: Pte,
    /// The runtime A bit, read from the leaf's bitmap beside the entry.
    pub accessed: bool,
}

/// What [`Node::capture`] took of a process's memory.
#[derive(Debug, Default)]
pub struct Capture {
    /// Present pages, kept or not: the process's footprint.
    pub footprint: u64,
    /// The kept pages, in ascending vpn order.
    pub pages: Vec<CapturedPage>,
    /// The kept pages' contents, in the same order.
    pub data: Vec<PageData>,
    /// Transient device errors the read retried away.
    pub retries: u64,
    /// The virtual backoff those retries accrued: zero without faults.
    /// The caller charges it to its cost.
    pub backoff: SimDuration,
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
        let (processes, mut ctx, ..) = self.split();
        let process = processes.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))?;
        Ok(f(process, &mut ctx))
    }

    /// The node's fields borrowed apart: the process table, the fault
    /// context, the clock and the books.
    fn split(
        &mut self,
    ) -> (
        &mut BTreeMap<Pid, Process>,
        MmContext<'_>,
        &mut SimClock,
        &mut NodeCounters,
    ) {
        let ctx = MmContext {
            frames: &mut self.frames,
            cache: &mut self.cache,
            device: &self.device,
            rootfs: &self.rootfs,
            model: &self.model,
            page_cache: &mut self.page_cache,
            node: self.id,
        };
        (
            &mut self.processes,
            ctx,
            &mut self.clock,
            &mut self.counters,
        )
    }

    /// Simulates one memory access by `pid` to virtual page `vpn`: a
    /// one-page [`access_run`](Self::access_run).
    ///
    /// # Errors
    ///
    /// Propagates address-space errors ([`OsError::BadAddress`],
    /// [`OsError::OutOfMemory`], …).
    pub fn access(&mut self, pid: Pid, vpn: u64, access: Access) -> Result<AccessOutcome, OsError> {
        let mut outcome = AccessOutcome::default();
        self.access_run(pid, [VirtPageNum(vpn)], access, |o| outcome = o)?;
        Ok(outcome)
    }

    /// Simulates `access` by `pid` to every page of `vpns`, in order, as
    /// one run (DESIGN.md §4): the process is looked up once and the page
    /// table walked once per leaf. Each outcome advances the node clock
    /// and the books, then goes to `book`. A failing page books nothing
    /// and ends the run. Makes no telemetry call: the caller publishes
    /// the books once per batch
    /// ([`publish_counters_since`](Self::publish_counters_since)).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if `pid` is not live; otherwise the
    /// first failing page's address-space error ([`OsError::BadAddress`],
    /// [`OsError::OutOfMemory`], …).
    pub fn access_run(
        &mut self,
        pid: Pid,
        vpns: impl IntoIterator<Item = VirtPageNum>,
        access: Access,
        mut book: impl FnMut(AccessOutcome),
    ) -> Result<(), OsError> {
        let (processes, mut ctx, clock, counters) = self.split();
        let process = processes.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))?;
        process.mm.access_run(vpns, access, &mut ctx, |outcome| {
            clock.advance(outcome.cost);
            counters.record(&outcome);
            book(outcome);
        })
    }

    /// Captures `pid`'s memory for a checkpoint (§4.1): one walk over the
    /// page table's leaves, in ascending vpn order, meets every present
    /// page with its runtime A bit; `keep` picks the pages whose contents
    /// to return. A kept local frame is cloned; the kept pages resident
    /// on the CXL device move in one batched read, retried with
    /// [`cxl_fault::with_backoff`] on transient errors. The result is
    /// allocated once, sized by the leaves' present counts.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if `pid` is not live;
    /// [`OsError::DeviceRetriesExhausted`] or [`OsError::Cxl`] if the read
    /// fails.
    pub fn capture(&self, pid: Pid, mut keep: impl FnMut(Pte) -> bool) -> Result<Capture, OsError> {
        let process = self.process(pid)?;
        let leaves = || process.mm.page_table.leaves();
        let footprint: usize = leaves().map(|(_, slot)| slot.leaf().present_count()).sum();
        let mut out = Capture {
            footprint: footprint as u64,
            pages: Vec::with_capacity(footprint),
            data: Vec::with_capacity(footprint),
            ..Capture::default()
        };
        // Kept pages resident on the device, and where each one's
        // contents go in `out.data`.
        let mut device_pages = Vec::new();
        let mut device_at = Vec::new();
        for (leaf_index, slot) in leaves() {
            let bits = slot.access_bits();
            for (s, pte) in slot.leaf().iter_populated() {
                // An armed entry is not resident: its restore re-arms it.
                if !pte.is_present() || !keep(pte) {
                    continue;
                }
                out.pages.push(CapturedPage {
                    vpn: VirtPageNum((leaf_index << 9) | s as u64),
                    pte,
                    accessed: bits.get(s),
                });
                match pte.target().expect("a present entry has a target") {
                    PhysAddr::Local(pfn) => out.data.push(self.frames.data(pfn).clone()),
                    PhysAddr::Cxl(page) => {
                        device_at.push(out.data.len());
                        device_pages.push(page);
                        out.data.push(PageData::Zero);
                    }
                }
            }
        }
        if !device_pages.is_empty() {
            let (read, report) =
                crate::error::with_backoff(|| self.device.read_pages(&device_pages, self.id));
            out.retries = u64::from(report.retries());
            out.backoff = report.backoff;
            for (at, data) in device_at.into_iter().zip(read?) {
                out.data[at] = data;
            }
        }
        Ok(out)
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
        let (processes, mut ctx, ..) = self.split();
        let mut process = processes.remove(&pid).ok_or(OsError::NoSuchProcess(pid))?;
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
        use crate::mm::{BackingSource, CxlBacking, CxlTierPolicy};
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
                backing.insert(VirtPageNum(300 + i as u64), source);
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

    /// One step of the run-equivalence script.
    enum Step {
        /// `access` to `vpns`, in order, by the `proc`-th process.
        Run {
            proc: usize,
            vpns: Vec<u64>,
            access: Access,
        },
        /// A local fork of the parent; the child becomes process 3.
        Fork,
        /// A second migrate-on-access restore from the puller's backing
        /// into a fresh process, which becomes process 4.
        Restore,
        /// `munmap` of the `proc`-th process's VMA holding `vpn`, then a
        /// fresh anonymous mapping of the same range.
        Remap { proc: usize, vpn: u64 },
        /// `mprotect` of the `proc`-th process's VMA holding `vpn`.
        Protect { proc: usize, vpn: u64, write: bool },
    }

    /// Everything a replay leaves behind that the two ways of issuing a
    /// run must agree on.
    #[derive(Debug, PartialEq)]
    struct Replay {
        /// Per page issued: `(step, position in the run, outcome)`.
        outcomes: Vec<(usize, usize, Result<AccessOutcome, String>)>,
        /// Per `munmap` or `mprotect` step: `(step, result)`.
        edits: Vec<(usize, String)>,
        now: SimTime,
        counters: NodeCounters,
        frames_used: u64,
        /// The LLC's state: each set's lines in LRU order, and the books.
        llc: String,
        /// Per process: every populated PTE with its runtime A bit.
        entries: Vec<(Pid, VirtPageNum, crate::pte::Pte, bool)>,
        /// Per process: private pages, leaf CoWs and VMA-block CoWs.
        books: Vec<(Pid, u64, u64, u64)>,
    }

    /// The mapped ranges of each process the script draws runs from.
    /// All are writable but the library at 2048 of the parent and its
    /// child. The parent's range at 2200 and the pullers' range span two
    /// VMAs that meet inside one page-table leaf.
    const PROC_RANGES: [&[(u64, u64)]; 5] = [
        &[(0, 1100), (2048, 2112), (2200, 2300), (4096, 4160)],
        &[(300, 700)],
        &[(7900, 9216), (9216, 9280)],
        &[(0, 1100), (2048, 2112), (2200, 2300), (4096, 4160)],
        &[(300, 700)],
    ];

    /// A seeded script: a fixed prologue (a store run that localizes the
    /// attached VMA block on its first page, copies an attached leaf in
    /// its middle and revisits pages after the copy; a load run across
    /// two attached leaves into armed entries; a store run that copies
    /// the other attached leaf and stores to the same page again at
    /// once; store runs that fault across a VMA boundary inside one
    /// leaf; 150 load faults in one leaf, then a load run over the same
    /// pages, which fill more than two LLC batches without a fault; a
    /// full batch followed at once by a fault in the same leaf; a store
    /// run over clean pages that sets D bits inside batches and revisits
    /// pages within one), then random runs — sequential stretches that may cross
    /// leaf boundaries, revisit their own pages, or hit an unmapped page
    /// part-way — with one local fork a third of the way in, a second
    /// migrate-on-access restore half way, and an `munmap` + remap or an
    /// `mprotect` every 30 steps.
    fn run_script(seed: u64) -> Vec<Step> {
        use rand::Rng;
        let mut rng = simclock::rng::seeded(seed);
        let mut steps = vec![
            Step::Run {
                proc: 2,
                vpns: (8186..8200).chain(8193..8196).collect(),
                access: Access::Write,
            },
            Step::Run {
                proc: 2,
                vpns: (8700..8710).chain(9214..9220).collect(),
                access: Access::Read,
            },
            Step::Run {
                proc: 2,
                vpns: vec![8800, 8800, 8801],
                access: Access::Write,
            },
            Step::Run {
                proc: 1,
                vpns: (490..515).collect(),
                access: Access::Write,
            },
            Step::Run {
                proc: 0,
                vpns: (2225..2240).collect(),
                access: Access::Write,
            },
            Step::Run {
                proc: 0,
                vpns: (0..150).collect(),
                access: Access::Read,
            },
            Step::Run {
                proc: 0,
                vpns: (0..150).collect(),
                access: Access::Read,
            },
            Step::Run {
                proc: 0,
                vpns: (0..64).chain(150..160).collect(),
                access: Access::Read,
            },
            Step::Run {
                proc: 0,
                vpns: (0..100).chain(0..30).collect(),
                access: Access::Write,
            },
        ];
        let mut live: usize = 3;
        for i in 0..360 {
            if i == 120 {
                steps.push(Step::Fork);
                live = 4;
            }
            if i == 180 {
                steps.push(Step::Restore);
                live = 5;
            }
            let proc = rng.gen_range(0..live);
            let ranges = PROC_RANGES[proc];
            let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
            let start = rng.gen_range(lo..hi);
            if i % 30 == 29 {
                steps.push(if rng.gen_range(0u8..2) == 0 {
                    Step::Remap { proc, vpn: start }
                } else {
                    let write = rng.gen_range(0u8..2) == 0;
                    Step::Protect {
                        proc,
                        vpn: start,
                        write,
                    }
                });
            }
            let len = rng.gen_range(1..48u64);
            let mut vpns: Vec<u64> = (start..(start + len).min(hi)).collect();
            if rng.gen_range(0u8..4) == 0 {
                let again = rng.gen_range(1..=vpns.len());
                vpns.extend_from_within(..again);
            }
            if rng.gen_range(0u8..10) == 0 {
                let at = rng.gen_range(0..=vpns.len());
                vpns.insert(at, 60_000);
            }
            let access = if rng.gen_range(0u8..3) == 0 {
                Access::Write
            } else {
                Access::Read
            };
            steps.push(Step::Run { proc, vpns, access });
        }
        steps
    }

    /// Builds a node of `mib` MiB with three processes — a parent with
    /// a heap, a read-only library, a writable file mapping and
    /// migrate-on-write CXL pages; a migrate-on-access puller backed by
    /// the device and by another node's memory; and a hybrid restore
    /// with attached page-table leaves, armed entries and an attached
    /// VMA block — and replays `script` on it, each run whole through
    /// [`Node::access_run`] or page by page through [`Node::access`].
    fn replay_script(mib: u64, script: &[Step], whole: bool) -> Replay {
        use crate::mm::{BackingSource, CxlBacking, CxlTierPolicy};
        use crate::page_table::{AttachedLeaf, PtLeaf};
        use crate::pte::{Pte, PteFlags};
        use crate::vma::{Vma, VmaBlock};
        use crate::PhysAddr;
        use cxl_mem::PageData;

        let device = Arc::new(CxlDevice::with_capacity_mib(16));
        let rootfs = Arc::new(SharedFs::new());
        rootfs.create("/lib/app.so", 64 * crate::PAGE_SIZE, 5);
        rootfs.create("/data.bin", 32 * crate::PAGE_SIZE, 6);
        let mut n = Node::with_rootfs(
            NodeConfig::default().with_local_mem_mib(mib),
            Arc::clone(&device),
            rootfs,
        );
        let region = device.create_region("ckpt");
        let cxl_page = |seed: u64| {
            let page = device.alloc_page(region).unwrap();
            device
                .write_page(page, PageData::pattern(seed), NodeId(9))
                .unwrap();
            page
        };
        let rw = Protection::read_write();

        let parent = n.spawn("parent").unwrap();
        let mm = &mut n.process_mut(parent).unwrap().mm;
        mm.map_anonymous(0, 1100, rw, "heap").unwrap();
        mm.map_file(2048, 64, Protection::read_exec(), "/lib/app.so", 0)
            .unwrap();
        mm.map_file(2200, 32, rw, "/data.bin", 0).unwrap();
        mm.map_anonymous(2232, 68, rw, "arena").unwrap();
        mm.map_anonymous(4096, 64, rw, "ckpt").unwrap();
        for vpn in 4096..4160 {
            let target = PhysAddr::Cxl(cxl_page(vpn));
            mm.install_mapping(
                VirtPageNum(vpn),
                target,
                PteFlags::PRESENT | PteFlags::COW,
                false,
            );
        }

        let mut backing = CxlBacking::new();
        for vpn in 300..700 {
            let source = if vpn < 500 {
                BackingSource::Device(cxl_page(vpn))
            } else {
                BackingSource::Remote(Arc::new(PageData::pattern(vpn)))
            };
            backing.insert(VirtPageNum(vpn), source);
        }
        let backing = Arc::new(backing);
        let restore_puller = |n: &mut Node, name: &str| {
            let pid = n.spawn(name).unwrap();
            let mm = &mut n.process_mut(pid).unwrap().mm;
            mm.map_anonymous(300, 200, rw, "pulled").unwrap();
            mm.map_anonymous(500, 200, rw, "pulled-remote").unwrap();
            mm.set_policy(CxlTierPolicy::MigrateOnAccess);
            mm.set_backing(Arc::clone(&backing));
            pid
        };
        let puller = restore_puller(&mut n, "puller");

        // Leaves 16 and 17 (vpns 8192..9216) are attached checkpoint
        // leaves; 7900..8192 is plain heap below them; leaf 18 holds
        // armed (fetch-on-access) entries.
        let restored = n.spawn("restored").unwrap();
        let mut attached = Vec::new();
        for leaf_index in [16u64, 17] {
            let mut leaf = PtLeaf::new();
            for slot in 0..crate::PTES_PER_LEAF {
                let target = PhysAddr::Cxl(cxl_page((leaf_index << 9) + slot as u64));
                let flags = PteFlags::PRESENT | PteFlags::COW | PteFlags::CKPT_PIN;
                leaf.set(slot, Pte::mapped(target, flags));
            }
            let backing = cxl_page(leaf_index);
            attached.push((
                leaf_index,
                AttachedLeaf {
                    leaf: Arc::new(leaf),
                    backing,
                },
            ));
        }
        let armed: Vec<_> = (9216..9280).map(|vpn| (vpn, cxl_page(vpn))).collect();
        let block_page = cxl_page(0);
        let mm = &mut n.process_mut(restored).unwrap().mm;
        let block = VmaBlock::from_vmas(vec![
            Vma::anonymous(7900, 9216, rw, "ckpt"),
            Vma::anonymous(9216, 9280, rw, "hot"),
        ]);
        mm.vmas.attach_block(Arc::new(block), block_page);
        for (leaf_index, leaf) in attached {
            mm.page_table.attach_leaf(leaf_index, leaf);
        }
        for (vpn, page) in armed {
            let pte = Pte::armed(PhysAddr::Cxl(page), PteFlags::FETCH_ON_ACCESS);
            mm.page_table.set(VirtPageNum(vpn), pte);
        }
        mm.set_policy(CxlTierPolicy::Hybrid);

        let injector = Arc::new(cxl_fault::Injector::from_plan(
            cxl_fault::FaultPlan::new(11).with_transient_rate(0.1),
        ));
        injector.arm(&device);

        let mut pids = vec![parent, puller, restored];
        let mut outcomes = Vec::new();
        let mut edits = Vec::new();
        for (step, op) in script.iter().enumerate() {
            let (proc, vpns, access) = match op {
                Step::Run { proc, vpns, access } => (proc, vpns, access),
                Step::Fork => {
                    pids.push(n.local_fork(parent).unwrap().0);
                    continue;
                }
                Step::Restore => {
                    pids.push(restore_puller(&mut n, "puller-2"));
                    continue;
                }
                Step::Remap { proc, vpn } => {
                    let vpn = VirtPageNum(*vpn);
                    let remapped = n.with_process_ctx(pids[*proc], |p, ctx| {
                        let (vma, cost) = p.mm.munmap(vpn, ctx).unwrap();
                        p.mm.map_anonymous(vma.start, vma.pages(), rw, "remapped")
                            .unwrap();
                        cost
                    });
                    edits.push((step, format!("{remapped:?}")));
                    continue;
                }
                Step::Protect { proc, vpn, write } => {
                    let prot = if *write { rw } else { Protection::read_only() };
                    let protected = n.with_process_ctx(pids[*proc], |p, ctx| {
                        p.mm.mprotect(VirtPageNum(*vpn), prot, ctx)
                    });
                    edits.push((step, format!("{protected:?}")));
                    continue;
                }
            };
            let (pid, access) = (pids[*proc], *access);
            let mut pos = 0;
            let mut record = |o: Result<AccessOutcome, OsError>| {
                outcomes.push((step, pos, o.map_err(|e| format!("{e:?}"))));
                pos += 1;
            };
            if whole {
                let pages = vpns.iter().map(|v| VirtPageNum(*v));
                if let Err(e) = n.access_run(pid, pages, access, |o| record(Ok(o))) {
                    record(Err(e));
                }
            } else {
                for vpn in vpns {
                    let o = n.access(pid, *vpn, access);
                    let failed = o.is_err();
                    record(o);
                    if failed {
                        break;
                    }
                }
            }
        }
        device.set_fault_hook(None);

        let mut entries = Vec::new();
        let mut books = Vec::new();
        for pid in n.pids() {
            let mm = &n.process(pid).unwrap().mm;
            for (vpn, pte) in mm.page_table.iter_populated() {
                entries.push((pid, vpn, pte, mm.page_table.is_accessed(vpn)));
            }
            books.push((
                pid,
                mm.private_local_pages(),
                mm.page_table.leaf_cow_events(),
                mm.vmas.block_cow_events(),
            ));
        }
        Replay {
            outcomes,
            edits,
            now: n.now(),
            counters: n.counters(),
            frames_used: n.frames().used(),
            llc: format!("{:?}", n.cache()),
            entries,
            books,
        }
    }

    /// A run equals its pages: one seeded script, replayed as whole
    /// runs through [`Node::access_run`] and page by page through
    /// [`Node::access`] on identically built nodes, gives the same
    /// outcome sequence, clock, books, frames, PTEs with A/D bits and
    /// LLC state (each set's LRU order, hits and misses). The script
    /// reaches all eight fault kinds, runs of more than one LLC batch
    /// without a fault, a fault right after a full batch, a store run
    /// over a full batch, a VMA-block CoW, a leaf CoW in the middle of
    /// a run, faults that cross a VMA boundary inside one leaf, runs
    /// after `munmap`,
    /// `mprotect` and a local fork, a second migrate-on-access restore
    /// into a fresh process, transient device errors, and runs that end
    /// in `BadAddress`, a protection violation or (on the 2 MiB node)
    /// running out of memory.
    #[test]
    fn an_access_run_equals_its_pages_one_by_one() {
        for (mib, seed) in [(16, 37), (2, 38)] {
            let script = run_script(seed);
            let whole = replay_script(mib, &script, true);
            let paged = replay_script(mib, &script, false);
            let errors: Vec<&str> = whole
                .outcomes
                .iter()
                .filter_map(|(_, _, o)| o.as_ref().err().map(String::as_str))
                .collect();
            let has = |error: &str| errors.iter().any(|e| e.starts_with(error));
            let edits_ok = whole.edits.iter().filter(|(_, e)| e.starts_with("Ok"));
            assert!(edits_ok.count() >= 10, "{mib} MiB: {:?}", whole.edits);
            assert!(
                has("BadAddress") && has("ProtectionViolation"),
                "{mib} MiB: {errors:?}"
            );
            if mib == 2 {
                assert!(has("OutOfMemory"), "the small node never ran out");
                assert!(whole.outcomes.iter().any(|(_, _, o)| o.is_ok()));
            } else {
                for kind in FaultKind::ALL {
                    assert!(whole.counters.faults(kind) > 0, "never reached {kind:?}");
                }
                let mid_run_leaf_cow = whole
                    .outcomes
                    .iter()
                    .any(|(_, pos, o)| *pos > 0 && o.as_ref().is_ok_and(|o| o.pt_leaf_cow));
                assert!(mid_run_leaf_cow, "no leaf CoW inside a run");
                assert!(
                    whole.counters.transient_retries > 0,
                    "the injector never fired"
                );
                // Per run: more than one LLC batch without a fault, a
                // fault right after a full batch, a store over a full one.
                let mut batched = [false; 3];
                for (step, op) in script.iter().enumerate() {
                    let Step::Run { access, .. } = op else {
                        continue;
                    };
                    let no_fault: Vec<Option<bool>> = whole
                        .outcomes
                        .iter()
                        .filter(|(s, _, _)| *s == step)
                        .map(|(_, _, o)| o.as_ref().ok().map(|o| o.fault.is_none()))
                        .collect();
                    if no_fault.len() > 64 && no_fault[..64].iter().all(|c| *c == Some(true)) {
                        batched[0] |= no_fault[64] == Some(true);
                        batched[1] |= no_fault[64] == Some(false);
                        batched[2] |= *access == Access::Write;
                    }
                }
                assert_eq!(batched, [true; 3], "batches: long, then a fault, a store");
            }
            for (i, (w, p)) in whole.outcomes.iter().zip(&paged.outcomes).enumerate() {
                assert_eq!(w, p, "{mib} MiB: outcome {i} (step, position, outcome) differs: whole run left, page by page right");
            }
            assert_eq!(
                whole.outcomes.len(),
                paged.outcomes.len(),
                "{mib} MiB: outcome count"
            );
            assert_eq!(whole, paged, "{mib} MiB: end state");
        }
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

    /// `capture` against an independent per-page walk (`iter_populated`,
    /// `is_accessed`, one `read_page` per device page) over local anon
    /// and file pages, an attached checkpoint leaf with an armed entry
    /// and stale `ACCESSED` flags baked in, and a leaf copied local from
    /// one (which keeps those flags): the same pages, A bits, contents
    /// and device book, whatever `keep` picks.
    #[test]
    fn capture_equals_a_per_page_walk() {
        use crate::page_table::{AttachedLeaf, PtLeaf};
        use crate::pte::PteFlags;
        use cxl_fault::{FaultSchedule, Injector};
        use cxl_mem::DeviceOp;

        let device = Arc::new(CxlDevice::with_capacity_mib(16));
        let rootfs = Arc::new(SharedFs::new());
        rootfs.create("/lib/app.so", 16 * crate::PAGE_SIZE, 5);
        let mut n = Node::with_rootfs(
            NodeConfig::default().with_local_mem_mib(16),
            Arc::clone(&device),
            rootfs,
        );
        let region = device.create_region("ckpt");
        let checkpoint_leaf = |seed: u64| {
            let mut leaf = PtLeaf::new();
            for slot in 0..24u64 {
                let page = device.alloc_page(region).unwrap();
                let data = PageData::pattern(seed + slot);
                device.write_page(page, data, NodeId(9)).unwrap();
                let target = PhysAddr::Cxl(page);
                let mut flags = PteFlags::PRESENT | PteFlags::COW | PteFlags::CKPT_PIN;
                // The previous generation's record: every third entry.
                if slot % 3 == 0 {
                    flags |= PteFlags::ACCESSED;
                }
                let pte = if slot == 23 {
                    Pte::armed(target, PteFlags::FETCH_ON_ACCESS)
                } else {
                    Pte::mapped(target, flags)
                };
                leaf.set(slot as usize, pte);
            }
            // This generation's accesses: every second entry, and an
            // empty slot, which must not materialize.
            for slot in (0..24).step_by(2).chain([100]) {
                leaf.access_bits().set(slot);
            }
            AttachedLeaf {
                leaf: Arc::new(leaf),
                backing: device.alloc_page(region).unwrap(),
            }
        };

        let pid = n.spawn("captured").unwrap();
        {
            let mm = &mut n.process_mut(pid).unwrap().mm;
            mm.map_anonymous(0, 64, Protection::read_write(), "heap")
                .unwrap();
            mm.map_file(100, 16, Protection::read_exec(), "/lib/app.so", 0)
                .unwrap();
            mm.map_anonymous(1024, 1024, Protection::read_write(), "ckpt")
                .unwrap();
            mm.page_table.attach_leaf(2, checkpoint_leaf(100));
            mm.page_table.attach_leaf(3, checkpoint_leaf(200));
        }
        for vpn in 0..40 {
            n.access(pid, vpn, Access::Write).unwrap();
        }
        for vpn in 100..108 {
            n.access(pid, vpn, Access::Read).unwrap();
        }
        // A write copies leaf 3 local: its entries keep their stale flags
        // and the copy keeps the runtime A bits.
        n.access(pid, 3 * 512 + 5, Access::Write).unwrap();
        assert!(!n
            .process(pid)
            .unwrap()
            .mm
            .page_table
            .leaf_for(VirtPageNum(1541))
            .unwrap()
            .is_attached());

        let criu_keep = |pte: Pte| pte.is_dirty() || !pte.flags().contains(PteFlags::FILE);
        let keeps: [(&str, &dyn Fn(Pte) -> bool); 3] = [
            ("all", &|_| true),
            ("dirty or anonymous", &criu_keep),
            ("none", &|_| false),
        ];
        for (name, keep) in keeps {
            let before = device.stats();
            let capture = n.capture(pid, keep).unwrap();
            let captured = device.stats();

            let pt = &n.process(pid).unwrap().mm.page_table;
            let mut footprint = 0;
            let mut pages = Vec::new();
            let mut data = Vec::new();
            for (vpn, pte) in pt.iter_populated() {
                if !pte.is_present() {
                    continue;
                }
                footprint += 1;
                if !keep(pte) {
                    continue;
                }
                let accessed = pt.is_accessed(vpn);
                pages.push(CapturedPage { vpn, pte, accessed });
                data.push(match pte.target().unwrap() {
                    PhysAddr::Local(pfn) => n.frames().data(pfn).clone(),
                    PhysAddr::Cxl(page) => device.read_page(page, n.id()).unwrap(),
                });
            }
            let walked = device.stats();

            assert_eq!(capture.footprint, footprint, "{name}");
            assert_eq!(capture.pages, pages, "{name}");
            assert!(capture.data == data, "{name}: contents");
            assert_eq!((capture.retries, capture.backoff), (0, SimDuration::ZERO));
            assert_eq!(
                captured.total_reads() - before.total_reads(),
                walked.total_reads() - captured.total_reads(),
                "{name}: one batched read books what the per-page reads do"
            );
        }

        // The walk met every kind of page, and a stale generation's A is
        // discarded: the record is the runtime bit alone.
        let all = n.capture(pid, |_| true).unwrap();
        assert_eq!(all.footprint, 40 + 8 + 2 * 23);
        let find = |vpn: u64| all.pages.iter().find(|p| p.vpn.0 == vpn).copied();
        let stale = find(2 * 512 + 3).unwrap();
        assert!(
            stale.pte.is_accessed() && !stale.accessed,
            "stale generation A discarded"
        );
        let stale_copied = find(3 * 512 + 9).unwrap();
        assert!(stale_copied.pte.is_accessed() && !stale_copied.accessed);
        assert!(find(2 * 512 + 4).unwrap().accessed);
        assert!(
            find(2 * 512 + 23).is_none(),
            "an armed entry is not resident"
        );
        assert!(all
            .pages
            .iter()
            .any(|p| p.pte.flags().contains(PteFlags::FILE)));

        // A transient read is retried for one backoff step; four exhaust
        // the policy.
        for (transients, expected) in [(1, Ok(1)), (4, Err(4))] {
            let injector = Arc::new(Injector::from_schedule(
                FaultSchedule::new().transient_after(DeviceOp::Read, 0, transients),
            ));
            injector.arm(&device);
            let got = n.capture(pid, |_| true);
            device.set_fault_hook(None);
            match (got, expected) {
                (Ok(capture), Ok(retries)) => {
                    assert_eq!(capture.retries, retries);
                    assert_eq!(capture.backoff, cxl_fault::retry::BACKOFF_BASE);
                    assert!(capture.data == all.data, "retried contents");
                }
                (Err(OsError::DeviceRetriesExhausted { attempts, .. }), Err(want)) => {
                    assert_eq!(attempts, want);
                }
                (got, _) => panic!("{transients} transient(s): {got:?}"),
            }
        }
    }
}
