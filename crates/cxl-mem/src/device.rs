//! The shared CXL memory device.
//!
//! # Sharding
//!
//! The page pool is partitioned into up to [`MAX_SHARDS`] *shards* by
//! contiguous page-offset range: shard `i` owns global page ids
//! `[i * pages_per_shard, (i+1) * pages_per_shard)`. Each shard keeps its
//! own slot slab, recycled-slot free list, and traffic counters behind its
//! own [`TrackedRwLock`], so data-path reads and writes to different
//! offset ranges never contend — and lockdep still sees every
//! acquisition, per shard class.
//!
//! The region table (and with it the device-wide `used_pages` counter)
//! lives behind a separate lock that doubles as the allocation
//! serialization point. The lock order is strictly
//! `cxl_mem.device.regions` → `cxl_mem.device.shardNN` (ascending shard
//! index, one shard at a time); data-path page reads/writes take only the
//! owning shard's lock.

// Device path: a panic here would bypass an injected fault's recovery, so
// each `unwrap`/`expect` names its invariant in an `#[allow]` (DESIGN.md §12).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::fabric::{FabricAttachment, FabricLink};
use crate::injection::{DeviceOp, FaultHook};
use crate::lockdep::TrackedRwLock;
use simclock::{SimDuration, SimTime};

use crate::{CxlError, CxlPageId, NodeId, PageData, RegionId, PAGE_SIZE};

/// Telemetry layer name for device metrics (`cxl_mem.reads{node=}` …).
/// Counters mirror [`CxlDeviceStats`] exactly — same increment sites,
/// same units — so telemetry can be reconciled against device stats as a
/// second witness. Lock order: telemetry is recorded while a device
/// lock is held and never calls back into the device.
const TELEMETRY_LAYER: &str = "cxl_mem";

/// Upper bound on the shard count. Lockdep tracks lock *classes* as
/// `&'static str` names, so every possible shard needs a pre-declared
/// class; sixteen is plenty for a simulated device.
pub const MAX_SHARDS: usize = 16;

/// Default shard count used by [`CxlDevice::new`] /
/// [`CxlDevice::with_capacity_mib`].
pub const DEFAULT_SHARDS: usize = 8;

/// One lockdep class per possible shard (see [`MAX_SHARDS`]).
static SHARD_CLASSES: [&str; MAX_SHARDS] = [
    "cxl_mem.device.shard00",
    "cxl_mem.device.shard01",
    "cxl_mem.device.shard02",
    "cxl_mem.device.shard03",
    "cxl_mem.device.shard04",
    "cxl_mem.device.shard05",
    "cxl_mem.device.shard06",
    "cxl_mem.device.shard07",
    "cxl_mem.device.shard08",
    "cxl_mem.device.shard09",
    "cxl_mem.device.shard10",
    "cxl_mem.device.shard11",
    "cxl_mem.device.shard12",
    "cxl_mem.device.shard13",
    "cxl_mem.device.shard14",
    "cxl_mem.device.shard15",
];

/// The fabric-attached CXL memory device, shared by all nodes.
///
/// Thread-safe: all methods take `&self`; wrap the device in an
/// [`std::sync::Arc`] and hand one handle to each simulated node. Every
/// access records per-node counters so experiments can report locality and
/// traffic; latency is charged by callers via
/// [`simclock::LatencyModel`] (scalar ops via the per-page costs, the
/// `*_batch`/`*_pages` ops via the batched `cxl_batch_read` /
/// `cxl_batch_write` costs).
///
/// # Example
///
/// ```
/// use cxl_mem::{CxlDevice, NodeId, PageData};
///
/// # fn main() -> Result<(), cxl_mem::CxlError> {
/// let dev = CxlDevice::with_capacity_mib(16);
/// let region = dev.create_region("ckpt");
/// let pages = dev.alloc_batch(region, 4)?;
/// let writes: Vec<_> = pages.iter().map(|&p| (p, PageData::pattern(1))).collect();
/// dev.write_pages(&writes, NodeId(0))?;
/// assert_eq!(dev.read_page(pages[0], NodeId(1))?, PageData::pattern(1));
/// assert_eq!(dev.used_pages(), 4);
/// dev.destroy_region(region)?;
/// assert_eq!(dev.used_pages(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CxlDevice {
    capacity_pages: u64,
    /// Pages owned by each shard except possibly the last (offset-range
    /// partition stride); always ≥ 1 when any shard exists.
    pages_per_shard: u64,
    shards: Vec<PageShard>,
    /// Region table plus the device-wide `used_pages` counter. Taking
    /// this write lock is what serializes allocation, freeing and region
    /// destruction; page liveness cannot change while it is held.
    regions: TrackedRwLock<RegionTable>,
    /// Fault-injection hook (see [`crate::FaultHook`]). Kept outside the
    /// state locks: the hook fires *before* state is touched, and an armed
    /// flag keeps the unhooked fast path to one relaxed atomic load.
    hook: TrackedRwLock<Option<Arc<dyn FaultHook>>>,
    hook_armed: AtomicBool,
    /// Fabric attachment (see [`crate::FabricLink`]). Same structure as
    /// the fault hook: charged *after* a batched transfer's state
    /// changes, with an armed flag keeping the unattached fast path to
    /// one relaxed atomic load and a delay of exactly zero.
    fabric: TrackedRwLock<Option<FabricAttachment>>,
    fabric_armed: AtomicBool,
}

/// One offset-range shard of the page pool.
#[derive(Debug)]
struct PageShard {
    /// First global page id owned by this shard.
    base: u64,
    /// Pages owned by this shard.
    capacity: u64,
    state: TrackedRwLock<ShardState>,
}

#[derive(Debug, Default)]
struct ShardState {
    /// Slab of page slots, indexed by *shard-local* offset; `None` marks
    /// a freed slot awaiting reuse.
    slots: Vec<Option<PageSlot>>,
    /// Recycled shard-local slot indexes (LIFO).
    free: Vec<u64>,
    used: u64,
    /// Per-shard traffic counters; [`CxlDevice::stats`] merges them, so
    /// device-wide totals stay increment-exact.
    stats: CxlDeviceStats,
}

#[derive(Debug, Default)]
struct RegionTable {
    regions: BTreeMap<RegionId, Region>,
    next_region: u64,
    /// Device-wide allocated-page count. Mutated only under this table's
    /// write lock, which makes the capacity check + shard sweep in
    /// [`CxlDevice::alloc_batch`] atomic.
    used_pages: u64,
}

#[derive(Debug)]
struct PageSlot {
    data: PageData,
    region: RegionId,
}

#[derive(Debug)]
struct Region {
    name: String,
    pages: u64,
    /// Two-phase commit state: regions start committed unless created via
    /// the staged API; an uncommitted region is a checkpoint in flight and
    /// must never be restored from.
    committed: bool,
    /// Node that owns the staging region (for lease-based orphan GC).
    owner: Option<NodeId>,
    /// Owner-supplied epoch (checkpoint sequence number).
    epoch: u64,
    /// What the region holds (see [`RegionKind`]); recovery scans use
    /// this to find metadata regions without parsing names.
    kind: RegionKind,
}

/// What a region holds. Most regions carry checkpoint page *data*;
/// [`RegionKind::Metadata`] marks device-resident bookkeeping (e.g. the
/// store's write-ahead journal) that crash recovery must locate before
/// any catalog exists to name it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RegionKind {
    /// Checkpoint page data (the default for every pre-existing API).
    #[default]
    Data,
    /// Device-resident bookkeeping: journals, catalogs, recovery state.
    Metadata,
}

/// Per-node traffic counters for the device.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CxlDeviceStats {
    /// Read operations per node.
    pub reads: BTreeMap<NodeId, u64>,
    /// Written bytes per node.
    pub bytes_written: BTreeMap<NodeId, u64>,
    /// Read bytes per node.
    pub bytes_read: BTreeMap<NodeId, u64>,
    /// Write operations per node.
    pub writes: BTreeMap<NodeId, u64>,
}

impl CxlDeviceStats {
    /// Total read operations across all nodes.
    pub fn total_reads(&self) -> u64 {
        self.reads.values().sum()
    }

    /// Total write operations across all nodes.
    pub fn total_writes(&self) -> u64 {
        self.writes.values().sum()
    }

    /// Adds every counter from `other` into `self` (used to fold
    /// per-shard counters into the device-wide view).
    pub fn merge(&mut self, other: &CxlDeviceStats) {
        for (node, v) in &other.reads {
            *self.reads.entry(*node).or_insert(0) += v;
        }
        for (node, v) in &other.bytes_written {
            *self.bytes_written.entry(*node).or_insert(0) += v;
        }
        for (node, v) in &other.bytes_read {
            *self.bytes_read.entry(*node).or_insert(0) += v;
        }
        for (node, v) in &other.writes {
            *self.writes.entry(*node).or_insert(0) += v;
        }
    }
}

/// Usage summary for one region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionUsage {
    /// Region name supplied at creation.
    pub name: String,
    /// Live pages in the region.
    pub pages: u64,
    /// Live bytes (pages × 4 KiB).
    pub bytes: u64,
    /// What the region holds (data vs. device-resident metadata).
    pub kind: RegionKind,
}

/// Usage summary for one page-pool shard, as reported by
/// [`CxlDevice::shard_usage`] for the `cxl-check` shard-accounting audit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardUsage {
    /// Shard index (ascending offset ranges).
    pub index: usize,
    /// First global page id owned by the shard.
    pub base_page: u64,
    /// Pages owned by the shard.
    pub capacity_pages: u64,
    /// Pages currently allocated in the shard.
    pub used_pages: u64,
}

/// Summary of one *uncommitted* (staging) region, as reported by
/// [`CxlDevice::staging_regions`] for lease-based orphan reclamation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagingRegion {
    /// The region id.
    pub region: RegionId,
    /// Region name supplied at creation.
    pub name: String,
    /// Node that was building the checkpoint.
    pub owner: NodeId,
    /// Owner-supplied epoch (checkpoint sequence number).
    pub epoch: u64,
    /// Pages currently allocated into the region.
    pub pages: u64,
}

impl CxlDevice {
    /// Creates a device with a capacity given in pages and the default
    /// shard count ([`DEFAULT_SHARDS`]).
    pub fn new(capacity_pages: u64) -> Self {
        CxlDevice::with_shards(capacity_pages, DEFAULT_SHARDS)
    }

    /// Creates a device with an explicit shard count (clamped to
    /// `1..=`[`MAX_SHARDS`]). Shards partition the page-id space into
    /// contiguous offset ranges of `capacity_pages.div_ceil(shards)`
    /// pages; a small device may end up with fewer (non-empty) shards
    /// than requested.
    pub fn with_shards(capacity_pages: u64, shards: usize) -> Self {
        let requested = shards.clamp(1, MAX_SHARDS) as u64;
        let pages_per_shard = capacity_pages.div_ceil(requested).max(1);
        let count = capacity_pages.div_ceil(pages_per_shard);
        let shards = (0..count)
            .map(|i| {
                let base = i * pages_per_shard;
                PageShard {
                    base,
                    capacity: pages_per_shard.min(capacity_pages - base),
                    state: TrackedRwLock::new(SHARD_CLASSES[i as usize], ShardState::default()),
                }
            })
            .collect();
        CxlDevice {
            capacity_pages,
            pages_per_shard,
            shards,
            regions: TrackedRwLock::new("cxl_mem.device.regions", RegionTable::default()),
            hook: TrackedRwLock::new("cxl_mem.device.hook", None),
            hook_armed: AtomicBool::new(false),
            fabric: TrackedRwLock::new("cxl_mem.device.fabric", None),
            fabric_armed: AtomicBool::new(false),
        }
    }

    /// Installs (or, with `None`, removes) the fault-injection hook.
    ///
    /// The hook is consulted before every read, write, allocation and
    /// free; see [`FaultHook`]. With no hook installed the data path pays
    /// one relaxed atomic load.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        let mut slot = self.hook.write();
        self.hook_armed.store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    /// Consults the fault hook (if armed) about one operation.
    fn injected(&self, op: DeviceOp, page: Option<CxlPageId>, node: NodeId) -> Option<CxlError> {
        if !self.hook_armed.load(Ordering::Relaxed) {
            return None;
        }
        let hook = self.hook.read().clone()?;
        hook.inject(op, page, node)
    }

    /// Attaches this device to a fabric as device `device_index`, or
    /// detaches it with `None`.
    ///
    /// Once attached, callers that charge batched transfer costs should
    /// also charge [`CxlDevice::fabric_charge`]; with no fabric the
    /// charge is a single relaxed atomic load returning zero delay, so
    /// the default single-device configuration is bit-identical to the
    /// pre-fabric simulation.
    pub fn attach_fabric(&self, link: Option<(Arc<dyn FabricLink>, u32)>) {
        let mut slot = self.fabric.write();
        self.fabric_armed.store(link.is_some(), Ordering::Release);
        *slot = link.map(|(link, device_index)| FabricAttachment { link, device_index });
    }

    /// Whether a fabric is attached (one relaxed atomic load).
    pub fn fabric_armed(&self) -> bool {
        self.fabric_armed.load(Ordering::Relaxed)
    }

    /// Charges one batched transfer of `shard_pages[i]` pages through
    /// each shard `i` to the attached fabric at virtual time `now`,
    /// returning the queueing delay it suffered. Exactly zero when no
    /// fabric is attached or the batch is empty.
    pub fn fabric_charge(&self, now: SimTime, shard_pages: &[u64]) -> SimDuration {
        if !self.fabric_armed.load(Ordering::Relaxed) {
            return SimDuration::ZERO;
        }
        if shard_pages.iter().all(|&n| n == 0) {
            return SimDuration::ZERO;
        }
        let Some(attachment) = self.fabric.read().clone() else {
            return SimDuration::ZERO;
        };
        let port_bytes: Vec<u64> = shard_pages.iter().map(|n| n * PAGE_SIZE).collect();
        attachment
            .link
            .charge_transfer(attachment.device_index, now, &port_bytes)
    }

    /// Creates a device with a capacity given in MiB (the evaluation
    /// platform has a 16 GiB DIMM; tests use much smaller devices).
    pub fn with_capacity_mib(mib: u64) -> Self {
        CxlDevice::new(mib * 1024 * 1024 / PAGE_SIZE)
    }

    /// Total device capacity, in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Number of page-pool shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pages per shard (the offset-range partition stride). Page id `p`
    /// lives in shard `p / pages_per_shard()`; fabric tooling uses this
    /// to map pages onto switch ports without holding device locks.
    pub fn pages_per_shard(&self) -> u64 {
        self.pages_per_shard
    }

    /// Maps a global page id to `(shard index, shard-local index)`, or
    /// `None` if the id is outside the device.
    fn shard_of(&self, page: CxlPageId) -> Option<(usize, u64)> {
        if page.0 >= self.capacity_pages {
            return None;
        }
        let s = (page.0 / self.pages_per_shard) as usize;
        Some((s, page.0 - self.shards[s].base))
    }

    /// Currently allocated pages.
    pub fn used_pages(&self) -> u64 {
        self.regions.read().used_pages
    }

    /// Currently free pages.
    pub fn free_pages(&self) -> u64 {
        self.capacity_pages - self.used_pages()
    }

    /// Fraction of the device in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity_pages == 0 {
            return 1.0;
        }
        self.used_pages() as f64 / self.capacity_pages as f64
    }

    /// Per-shard usage summary (the `used_pages` values sum to
    /// [`CxlDevice::used_pages`]; the `cxl-check` shard audit verifies
    /// exactly that). Taken under the region-table lock, so the snapshot
    /// is consistent.
    pub fn shard_usage(&self) -> Vec<ShardUsage> {
        let _pin = self.regions.read();
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardUsage {
                index,
                base_page: shard.base,
                capacity_pages: shard.capacity,
                used_pages: shard.state.read().used,
            })
            .collect()
    }

    /// Creates a new (empty) region.
    pub fn create_region(&self, name: &str) -> RegionId {
        self.create_region_inner(name, true, None, 0, RegionKind::Data)
    }

    /// Creates a new (empty, committed) *metadata* region — device-
    /// resident bookkeeping such as the store's write-ahead journal.
    /// Crash recovery locates these by [`RegionKind::Metadata`] via
    /// [`CxlDevice::regions`], before any catalog exists to name them.
    pub fn create_region_meta(&self, name: &str) -> RegionId {
        self.create_region_inner(name, true, None, 0, RegionKind::Metadata)
    }

    /// Creates a new *staging* region for a two-phase checkpoint commit:
    /// the region exists and accepts allocations/writes, but stays
    /// uncommitted — invisible to restore — until
    /// [`CxlDevice::commit_region`] atomically publishes it. `owner` and
    /// `epoch` identify the checkpointing node so lease-based GC can
    /// reclaim the region if that node dies mid-checkpoint.
    pub fn create_region_staged(&self, name: &str, owner: NodeId, epoch: u64) -> RegionId {
        self.create_region_inner(name, false, Some(owner), epoch, RegionKind::Data)
    }

    fn create_region_inner(
        &self,
        name: &str,
        committed: bool,
        owner: Option<NodeId>,
        epoch: u64,
        kind: RegionKind,
    ) -> RegionId {
        let mut rt = self.regions.write();
        let id = RegionId(rt.next_region);
        rt.next_region += 1;
        rt.regions.insert(
            id,
            Region {
                name: name.to_owned(),
                pages: 0,
                committed,
                owner,
                epoch,
                kind,
            },
        );
        id
    }

    /// Atomically publishes a staging region (phase two of the checkpoint
    /// commit). Idempotent on already-committed regions.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadRegion`] if the region does not exist.
    pub fn commit_region(&self, region: RegionId) -> Result<(), CxlError> {
        let mut rt = self.regions.write();
        let r = rt
            .regions
            .get_mut(&region)
            .ok_or(CxlError::BadRegion(region))?;
        r.committed = true;
        Ok(())
    }

    /// Whether `region` has been committed (`None` if it does not exist).
    pub fn region_committed(&self, region: RegionId) -> Option<bool> {
        let rt = self.regions.read();
        rt.regions.get(&region).map(|r| r.committed)
    }

    /// Lists every *uncommitted* staging region, for orphan reclamation
    /// and the `cxl-check` staging audit.
    pub fn staging_regions(&self) -> Vec<StagingRegion> {
        let rt = self.regions.read();
        rt.regions
            .iter()
            .filter(|(_, r)| !r.committed)
            .map(|(id, r)| StagingRegion {
                region: *id,
                name: r.name.clone(),
                owner: r.owner.unwrap_or(NodeId(u32::MAX)),
                epoch: r.epoch,
                pages: r.pages,
            })
            .collect()
    }

    /// Allocates one zeroed page into `region`.
    ///
    /// # Errors
    ///
    /// [`CxlError::OutOfDeviceMemory`] if the device is full;
    /// [`CxlError::BadRegion`] if the region does not exist.
    pub fn alloc_page(&self, region: RegionId) -> Result<CxlPageId, CxlError> {
        Ok(self.alloc_batch(region, 1)?[0])
    }

    /// Allocates `n` zeroed pages into `region` as one batch.
    ///
    /// All-or-nothing: on failure no pages are allocated. Shards are
    /// filled first-fit in ascending offset order, recycling freed slots
    /// (LIFO) before extending a shard's slab — which keeps page-id
    /// sequences identical to the pre-shard allocator for alloc-only
    /// workloads. The fault hook is consulted once per *non-empty*
    /// batch; a zero-page batch is a no-op — it cannot fault, costs
    /// nothing and touches no telemetry.
    ///
    /// # Errors
    ///
    /// [`CxlError::OutOfDeviceMemory`] if fewer than `n` pages are free;
    /// [`CxlError::BadRegion`] if the region does not exist.
    pub fn alloc_batch(&self, region: RegionId, n: u64) -> Result<Vec<CxlPageId>, CxlError> {
        self.alloc_batch_striped(region, n, 1)
    }

    /// Fills up to `want` zeroed pages from one shard into `out`,
    /// recycling freed slots (LIFO) before extending the slab; returns
    /// how many pages it produced (less than `want` only when the shard
    /// is full). The caller holds the region-table write lock, so page
    /// liveness is pinned across the per-shard lock acquisitions.
    fn fill_from_shard(
        shard: &PageShard,
        region: RegionId,
        want: u64,
        out: &mut Vec<CxlPageId>,
    ) -> u64 {
        let mut st = shard.state.write();
        let mut got = 0u64;
        while got < want {
            let local = if let Some(l) = st.free.pop() {
                st.slots[l as usize] = Some(PageSlot {
                    data: PageData::zeroed(),
                    region,
                });
                l
            } else if (st.slots.len() as u64) < shard.capacity {
                st.slots.push(Some(PageSlot {
                    data: PageData::zeroed(),
                    region,
                }));
                (st.slots.len() - 1) as u64
            } else {
                break;
            };
            st.used += 1;
            out.push(CxlPageId(shard.base + local));
            got += 1;
        }
        got
    }

    /// Allocates `n` zeroed pages into `region`, **striping** the batch
    /// across up to `streams` shards in balanced shares so a pipelined
    /// transfer has real per-bank work to overlap. First-fit allocation
    /// ([`CxlDevice::alloc_batch`], which is this call with one stream)
    /// packs small working sets entirely into shard 0, which would leave
    /// a multi-stream pipeline with one populated bank; checkpointing
    /// with `parallelism > 1` passes its stream count instead.
    ///
    /// Shares that do not fit their target shard (a full bank) fall back
    /// to a first-fit sweep over every shard, so the call succeeds
    /// whenever `alloc_batch` would — striping is a placement hint, not
    /// a capacity contract. All-or-nothing, the empty batch and the
    /// fault-hook consult are as documented on `alloc_batch`.
    ///
    /// # Errors
    ///
    /// Same as [`CxlDevice::alloc_batch`].
    pub fn alloc_batch_striped(
        &self,
        region: RegionId,
        n: u64,
        streams: u32,
    ) -> Result<Vec<CxlPageId>, CxlError> {
        if n == 0 {
            // Still validate the region — an empty batch must be free,
            // not a way to smuggle a dangling region id past the table.
            if !self.regions.read().regions.contains_key(&region) {
                return Err(CxlError::BadRegion(region));
            }
            return Ok(Vec::new());
        }
        // Allocations are not attributed to a node at this layer; the
        // sentinel id keeps the hook signature uniform.
        if let Some(err) = self.injected(DeviceOp::Alloc, None, NodeId(u32::MAX)) {
            return Err(err);
        }
        let mut rt = self.regions.write();
        if !rt.regions.contains_key(&region) {
            return Err(CxlError::BadRegion(region));
        }
        let available = self.capacity_pages - rt.used_pages;
        if n > available {
            return Err(CxlError::OutOfDeviceMemory {
                requested: n,
                available,
            });
        }
        let mut out = Vec::with_capacity(n as usize);
        let mut remaining = n;
        if streams > 1 {
            let lanes = (streams as usize).min(self.shards.len()).max(1) as u64;
            for (i, shard) in self.shards.iter().take(lanes as usize).enumerate() {
                let share = (n / lanes + u64::from((i as u64) < n % lanes)).min(remaining);
                remaining -= Self::fill_from_shard(shard, region, share, &mut out);
            }
        }
        // First-fit over the whole pool: the entire batch for one stream,
        // the shortfall from full banks for a striped one.
        for shard in &self.shards {
            if remaining == 0 {
                break;
            }
            remaining -= Self::fill_from_shard(shard, region, remaining, &mut out);
        }
        debug_assert_eq!(remaining, 0, "capacity check vs shard sweep drifted");
        rt.used_pages += n;
        if let Some(r) = rt.regions.get_mut(&region) {
            r.pages += n;
        }
        cxl_telemetry::counter_add(TELEMETRY_LAYER, "pages_allocated", None, n);
        Ok(out)
    }

    /// Partitions a page set by owning shard: returns one count per
    /// shard (`len == shard_count`), in shard order, of how many of the
    /// given pages each bank holds. Pages outside the device are
    /// skipped — the caller is costing a transfer, not validating ids.
    /// This is the shape [`simclock::PipelineModel`]-style critical-path
    /// costing consumes.
    pub fn shard_partition(&self, pages: impl IntoIterator<Item = CxlPageId>) -> Vec<u64> {
        let mut counts = vec![0u64; self.shards.len()];
        for p in pages {
            if let Some((s, _)) = self.shard_of(p) {
                counts[s] += 1;
            }
        }
        counts
    }

    /// Allocates enough pages in `region` to back `bytes` of checkpointed
    /// metadata, returning the pages. Zero bytes allocates zero pages.
    ///
    /// # Errors
    ///
    /// Same as [`CxlDevice::alloc_batch`].
    pub fn alloc_bytes(&self, region: RegionId, bytes: u64) -> Result<Vec<CxlPageId>, CxlError> {
        let pages = bytes.div_ceil(PAGE_SIZE);
        self.alloc_batch(region, pages)
    }

    /// Frees one page.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] if the page is not live.
    pub fn free_page(&self, page: CxlPageId) -> Result<(), CxlError> {
        self.free_batch(std::slice::from_ref(&page)).map(|_| ())
    }

    /// Frees a batch of pages, returning how many were freed (always
    /// `pages.len()` on success).
    ///
    /// All-or-nothing: every page must be live and listed exactly once,
    /// or nothing is freed. The fault hook is consulted once per page in
    /// input order — the same consult sequence the scalar-era per-page
    /// loop produced, so seeded fault schedules fire identically.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] on the first dead, duplicate or
    /// out-of-range page.
    pub fn free_batch(&self, pages: &[CxlPageId]) -> Result<u64, CxlError> {
        for &p in pages {
            if let Some(err) = self.injected(DeviceOp::Free, Some(p), NodeId(u32::MAX)) {
                return Err(err);
            }
        }
        if pages.is_empty() {
            return Ok(0);
        }
        // One sort answers "is any page listed twice?" for the whole
        // batch; only a batch that fails it pays to find which page.
        let mut sorted = pages.to_vec();
        sorted.sort_unstable();
        let has_duplicate = sorted.windows(2).any(|w| w[0] == w[1]);
        let mut by_shard: BTreeMap<usize, Vec<(u64, CxlPageId)>> = BTreeMap::new();
        for (i, &p) in pages.iter().enumerate() {
            let (s, l) = self.shard_of(p).ok_or(CxlError::BadPage(p))?;
            if has_duplicate && pages[..i].contains(&p) {
                return Err(CxlError::BadPage(p));
            }
            by_shard.entry(s).or_default().push((l, p));
        }
        let mut rt = self.regions.write();
        // Validate-then-free in two sweeps. Holding the region-table
        // write lock pins page liveness (alloc/free/destroy all need it),
        // so the validation verdict cannot go stale between sweeps, and
        // each sweep takes only one shard lock at a time, in ascending
        // order.
        for (&s, locals) in &by_shard {
            let st = self.shards[s].state.read();
            for &(l, p) in locals {
                if st.slots.get(l as usize).and_then(Option::as_ref).is_none() {
                    return Err(CxlError::BadPage(p));
                }
            }
        }
        let mut freed = 0u64;
        for (&s, locals) in &by_shard {
            let mut st = self.shards[s].state.write();
            for &(l, _) in locals {
                #[allow(
                    clippy::expect_used,
                    reason = "liveness is pinned by the region-table write lock held since the batch was validated"
                )]
                let slot = st.slots[l as usize]
                    .take()
                    .expect("liveness pinned under the region-table lock");
                st.free.push(l);
                st.used -= 1;
                if let Some(r) = rt.regions.get_mut(&slot.region) {
                    r.pages -= 1;
                }
                freed += 1;
            }
        }
        rt.used_pages -= freed;
        cxl_telemetry::counter_add(TELEMETRY_LAYER, "pages_freed", None, freed);
        Ok(freed)
    }

    /// Destroys a region, freeing all its pages. Returns the number of pages
    /// freed. This is CXLporter's checkpoint-reclamation primitive (§5).
    ///
    /// # Errors
    ///
    /// [`CxlError::BadRegion`] if the region does not exist.
    pub fn destroy_region(&self, region: RegionId) -> Result<u64, CxlError> {
        let mut rt = self.regions.write();
        let info = rt
            .regions
            .remove(&region)
            .ok_or(CxlError::BadRegion(region))?;
        let mut freed = 0;
        for shard in &self.shards {
            let mut st = shard.state.write();
            let ShardState {
                slots, free, used, ..
            } = &mut *st;
            for (l, slot) in slots.iter_mut().enumerate() {
                if matches!(slot, Some(s) if s.region == region) {
                    *slot = None;
                    free.push(l as u64);
                    *used -= 1;
                    freed += 1;
                }
            }
        }
        debug_assert_eq!(freed, info.pages, "region page accounting drifted");
        rt.used_pages -= freed;
        cxl_telemetry::counter_add(TELEMETRY_LAYER, "pages_freed", None, freed);
        Ok(freed)
    }

    /// Usage summary of one region.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadRegion`] if the region does not exist.
    pub fn region_usage(&self, region: RegionId) -> Result<RegionUsage, CxlError> {
        let rt = self.regions.read();
        let r = rt.regions.get(&region).ok_or(CxlError::BadRegion(region))?;
        Ok(RegionUsage {
            name: r.name.clone(),
            pages: r.pages,
            bytes: r.pages * PAGE_SIZE,
            kind: r.kind,
        })
    }

    /// Lists all live regions with their usage.
    pub fn regions(&self) -> Vec<(RegionId, RegionUsage)> {
        let rt = self.regions.read();
        rt.regions
            .iter()
            .map(|(id, r)| {
                (
                    *id,
                    RegionUsage {
                        name: r.name.clone(),
                        pages: r.pages,
                        bytes: r.pages * PAGE_SIZE,
                        kind: r.kind,
                    },
                )
            })
            .collect()
    }

    /// Lists every live page with its owning region, for cross-layer
    /// auditing (`cxl-check` validates that region page counts, the used
    /// counter, per-shard counts and per-page ownership all agree).
    /// Taken under the region-table lock so the sweep over shards sees a
    /// consistent liveness snapshot.
    pub fn live_pages(&self) -> Vec<(CxlPageId, RegionId)> {
        let _pin = self.regions.read();
        let mut out = Vec::new();
        for shard in &self.shards {
            let st = shard.state.read();
            out.extend(st.slots.iter().enumerate().filter_map(|(l, slot)| {
                slot.as_ref()
                    .map(|s| (CxlPageId(shard.base + l as u64), s.region))
            }));
        }
        out
    }

    /// Returns the region owning `page`, or `None` if the page is not
    /// live (freed, or never allocated).
    pub fn page_region(&self, page: CxlPageId) -> Option<RegionId> {
        let (s, l) = self.shard_of(page)?;
        let st = self.shards[s].state.read();
        st.slots
            .get(l as usize)
            .and_then(Option::as_ref)
            .map(|slot| slot.region)
    }

    /// Reads `buf.len()` bytes at `offset` within `page`, on behalf of
    /// `node`.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] if the page is not live.
    ///
    /// # Panics
    ///
    /// Panics if the byte range leaves the page.
    pub fn read(
        &self,
        page: CxlPageId,
        offset: u64,
        buf: &mut [u8],
        node: NodeId,
    ) -> Result<(), CxlError> {
        if let Some(err) = self.injected(DeviceOp::Read, Some(page), node) {
            return Err(err);
        }
        let (s, l) = self.shard_of(page).ok_or(CxlError::BadPage(page))?;
        let mut st = self.shards[s].state.write();
        let len = buf.len() as u64;
        let slot = st
            .slots
            .get(l as usize)
            .and_then(Option::as_ref)
            .ok_or(CxlError::BadPage(page))?;
        slot.data.read(offset, buf);
        *st.stats.reads.entry(node).or_insert(0) += 1;
        *st.stats.bytes_read.entry(node).or_insert(0) += len;
        cxl_telemetry::counter_add(TELEMETRY_LAYER, "reads", Some(node.0), 1);
        cxl_telemetry::counter_add(TELEMETRY_LAYER, "bytes_read", Some(node.0), len);
        Ok(())
    }

    /// Writes `data` at `offset` within `page`, on behalf of `node`.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] if the page is not live.
    ///
    /// # Panics
    ///
    /// Panics if the byte range leaves the page.
    pub fn write(
        &self,
        page: CxlPageId,
        offset: u64,
        data: &[u8],
        node: NodeId,
    ) -> Result<(), CxlError> {
        if let Some(err) = self.injected(DeviceOp::Write, Some(page), node) {
            return Err(err);
        }
        let (s, l) = self.shard_of(page).ok_or(CxlError::BadPage(page))?;
        let mut st = self.shards[s].state.write();
        let slot = st
            .slots
            .get_mut(l as usize)
            .and_then(Option::as_mut)
            .ok_or(CxlError::BadPage(page))?;
        slot.data.write(offset, data);
        *st.stats.writes.entry(node).or_insert(0) += 1;
        *st.stats.bytes_written.entry(node).or_insert(0) += data.len() as u64;
        cxl_telemetry::counter_add(TELEMETRY_LAYER, "writes", Some(node.0), 1);
        cxl_telemetry::counter_add(
            TELEMETRY_LAYER,
            "bytes_written",
            Some(node.0),
            data.len() as u64,
        );
        Ok(())
    }

    /// Replaces the full contents of `page` (the checkpoint bulk-copy path,
    /// modelling non-temporal stores, §8). Scalar form of
    /// [`CxlDevice::write_pages`] — a batch of one, with identical
    /// counter increments.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] if the page is not live.
    pub fn write_page(
        &self,
        page: CxlPageId,
        data: PageData,
        node: NodeId,
    ) -> Result<(), CxlError> {
        self.write_batch([(page, data)], node, |writes, _| {
            std::mem::take(&mut writes[0].1)
        })
    }

    /// Replaces the full contents of every `(page, data)` pair as one
    /// batched transfer. Counters advance by exactly the same amounts as
    /// the equivalent sequence of scalar [`CxlDevice::write_page`] calls
    /// (grouped per shard), and the fault hook is consulted once per page
    /// in input order before any data moves. Callers charge
    /// `LatencyModel::cxl_batch_write(pairs.len())` for the transfer.
    ///
    /// Clones each page into the device slab: for callers that replay
    /// the same batch across retries. [`CxlDevice::write_pages_owned`]
    /// runs the same body and moves the pages in instead.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] if any page is not live; earlier pages in
    /// the batch may already have been written (exactly like a failed
    /// scalar loop), but no counters are recorded for a shard whose
    /// sweep failed.
    pub fn write_pages(
        &self,
        writes: &[(CxlPageId, PageData)],
        node: NodeId,
    ) -> Result<(), CxlError> {
        self.write_batch(writes, node, |writes, pos| writes[pos].1.clone())
    }

    /// [`CxlDevice::write_pages`] for a batch the caller is done with:
    /// each page's contents move into the device slab instead of being
    /// cloned into it (the journal builds every 4 KiB page exactly once
    /// this way).
    ///
    /// # Errors
    ///
    /// As [`CxlDevice::write_pages`].
    pub fn write_pages_owned(
        &self,
        writes: Vec<(CxlPageId, PageData)>,
        node: NodeId,
    ) -> Result<(), CxlError> {
        self.write_batch(writes, node, |writes, pos| {
            std::mem::take(&mut writes[pos].1)
        })
    }

    /// The body behind both batched writes; `contents` yields what goes
    /// into the slab for the pair at a position (a clone, or the page
    /// itself).
    fn write_batch<W: AsRef<[(CxlPageId, PageData)]>>(
        &self,
        mut writes: W,
        node: NodeId,
        contents: impl Fn(&mut W, usize) -> PageData,
    ) -> Result<(), CxlError> {
        for (p, _) in writes.as_ref() {
            if let Some(err) = self.injected(DeviceOp::Write, Some(*p), node) {
                return Err(err);
            }
        }
        let mut by_shard: BTreeMap<usize, Vec<(u64, usize)>> = BTreeMap::new();
        for (pos, (p, _)) in writes.as_ref().iter().enumerate() {
            let (s, l) = self.shard_of(*p).ok_or(CxlError::BadPage(*p))?;
            by_shard.entry(s).or_default().push((l, pos));
        }
        for (&s, entries) in &by_shard {
            let mut st = self.shards[s].state.write();
            for &(l, pos) in entries {
                let slot = st
                    .slots
                    .get_mut(l as usize)
                    .and_then(Option::as_mut)
                    .ok_or(CxlError::BadPage(writes.as_ref()[pos].0))?;
                slot.data = contents(&mut writes, pos);
            }
            let k = entries.len() as u64;
            *st.stats.writes.entry(node).or_insert(0) += k;
            *st.stats.bytes_written.entry(node).or_insert(0) += k * PAGE_SIZE;
            cxl_telemetry::counter_add(TELEMETRY_LAYER, "writes", Some(node.0), k);
            cxl_telemetry::counter_add(
                TELEMETRY_LAYER,
                "bytes_written",
                Some(node.0),
                k * PAGE_SIZE,
            );
        }
        Ok(())
    }

    /// Returns a copy of the full contents of `page` (the CoW-fault /
    /// migrate-on-access pull path). Scalar form of
    /// [`CxlDevice::read_pages`] — a batch of one, with identical
    /// counter increments.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] if the page is not live.
    pub fn read_page(&self, page: CxlPageId, node: NodeId) -> Result<PageData, CxlError> {
        let mut out = self.read_pages(std::slice::from_ref(&page), node)?;
        Ok(out.remove(0))
    }

    /// Reads the full contents of every page as one batched transfer,
    /// returning the copies **in input order**. Counters advance by
    /// exactly the same amounts as the equivalent sequence of scalar
    /// [`CxlDevice::read_page`] calls (grouped per shard), and the fault
    /// hook is consulted once per page in input order before any data
    /// moves. Callers charge `LatencyModel::cxl_batch_read(pages.len())`
    /// for the transfer.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] if any page is not live; no counters are
    /// recorded for a shard whose sweep failed.
    pub fn read_pages(&self, pages: &[CxlPageId], node: NodeId) -> Result<Vec<PageData>, CxlError> {
        for &p in pages {
            if let Some(err) = self.injected(DeviceOp::Read, Some(p), node) {
                return Err(err);
            }
        }
        self.gather(pages, Some(node), PageData::clone)
    }

    /// The scaffold behind [`CxlDevice::read_pages`],
    /// [`CxlDevice::fingerprint_pages`] and [`CxlDevice::snapshot_pages`]:
    /// groups `pages` by owning shard, visits each shard once (ascending,
    /// one lock at a time) and returns `get(contents)` for every page
    /// **in input order**. With `reader` set the visit is a modelled
    /// transfer — that node's read counters advance by the shard's page
    /// count once its sweep succeeded, under the shard's write lock;
    /// without it the sweep is a read-locked audit that moves nothing.
    #[allow(
        clippy::expect_used,
        reason = "the shard sweep writes every input position or returns Err before the collect"
    )]
    fn gather<T>(
        &self,
        pages: &[CxlPageId],
        reader: Option<NodeId>,
        get: impl Fn(&PageData) -> T,
    ) -> Result<Vec<T>, CxlError> {
        let mut by_shard: BTreeMap<usize, Vec<(u64, usize)>> = BTreeMap::new();
        for (pos, &p) in pages.iter().enumerate() {
            let (s, l) = self.shard_of(p).ok_or(CxlError::BadPage(p))?;
            by_shard.entry(s).or_default().push((l, pos));
        }
        let mut out: Vec<Option<T>> = pages.iter().map(|_| None).collect();
        for (&s, entries) in &by_shard {
            let mut sweep = |slots: &[Option<PageSlot>]| -> Result<(), CxlError> {
                for &(l, pos) in entries {
                    let slot = slots
                        .get(l as usize)
                        .and_then(Option::as_ref)
                        .ok_or(CxlError::BadPage(pages[pos]))?;
                    out[pos] = Some(get(&slot.data));
                }
                Ok(())
            };
            if let Some(node) = reader {
                let mut st = self.shards[s].state.write();
                sweep(&st.slots)?;
                let k = entries.len() as u64;
                *st.stats.reads.entry(node).or_insert(0) += k;
                *st.stats.bytes_read.entry(node).or_insert(0) += k * PAGE_SIZE;
                cxl_telemetry::counter_add(TELEMETRY_LAYER, "reads", Some(node.0), k);
                cxl_telemetry::counter_add(
                    TELEMETRY_LAYER,
                    "bytes_read",
                    Some(node.0),
                    k * PAGE_SIZE,
                );
            } else {
                let st = self.shards[s].state.read();
                sweep(&st.slots)?;
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every input position visited in the shard sweep"))
            .collect())
    }

    /// Content fingerprint of a page, for immutability assertions in tests.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] if the page is not live.
    pub fn fingerprint(&self, page: CxlPageId) -> Result<u64, CxlError> {
        let (s, l) = self.shard_of(page).ok_or(CxlError::BadPage(page))?;
        let st = self.shards[s].state.read();
        let slot = st
            .slots
            .get(l as usize)
            .and_then(Option::as_ref)
            .ok_or(CxlError::BadPage(page))?;
        Ok(slot.data.fingerprint())
    }

    /// Content fingerprints of every page, **in input order**, grouped by
    /// shard (like [`CxlDevice::read_pages`]) so hashing a whole
    /// checkpoint image acquires each shard lock once instead of once per
    /// page. Like the scalar [`CxlDevice::fingerprint`], this is an
    /// integrity primitive, not a modelled transfer: no traffic counters
    /// advance and the fault hook is not consulted. A batch of one
    /// returns exactly what the scalar call does.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] if any page is not live.
    pub fn fingerprint_pages(&self, pages: &[CxlPageId]) -> Result<Vec<u64>, CxlError> {
        self.gather(pages, None, PageData::fingerprint)
    }

    /// Copies the full contents of every page **in input order** without
    /// advancing traffic counters or consulting the fault hook — an
    /// integrity/audit primitive like [`CxlDevice::fingerprint_pages`],
    /// not a modelled transfer. Recovery audits use it to compare journal
    /// claims against resident bytes; callers that *model* the read (and
    /// want fault injection) use [`CxlDevice::read_pages`] instead.
    ///
    /// # Errors
    ///
    /// [`CxlError::BadPage`] if any page is not live.
    pub fn snapshot_pages(&self, pages: &[CxlPageId]) -> Result<Vec<PageData>, CxlError> {
        self.gather(pages, None, PageData::clone)
    }

    /// Creates a region wrapped in a [`RegionGuard`] that destroys it on
    /// drop unless [`RegionGuard::commit`]ed — the pattern checkpoint
    /// builders use so a failed (e.g. out-of-device-memory) checkpoint
    /// never leaks a partial region.
    pub fn create_region_guarded<'d>(&'d self, name: &str) -> RegionGuard<'d> {
        RegionGuard {
            device: self,
            region: self.create_region(name),
            armed: true,
        }
    }

    /// Like [`CxlDevice::create_region_guarded`], but the region starts
    /// as an uncommitted staging region (see
    /// [`CxlDevice::create_region_staged`]). Callers publish with
    /// [`CxlDevice::commit_region`] and then disarm the guard with
    /// [`RegionGuard::commit`].
    pub fn create_region_staged_guarded<'d>(
        &'d self,
        name: &str,
        owner: NodeId,
        epoch: u64,
    ) -> RegionGuard<'d> {
        RegionGuard {
            device: self,
            region: self.create_region_staged(name, owner, epoch),
            armed: true,
        }
    }

    /// Snapshot of the traffic counters, merged across shards. Totals are
    /// increment-exact: every scalar or batch operation advanced exactly
    /// one shard's counters by the amounts the scalar path always used.
    pub fn stats(&self) -> CxlDeviceStats {
        let mut merged = CxlDeviceStats::default();
        for shard in &self.shards {
            merged.merge(&shard.state.read().stats);
        }
        merged
    }

    /// Resets all traffic counters (between experiment phases).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.state.write().stats = CxlDeviceStats::default();
        }
    }
}

/// A region that is destroyed (with all its pages) when dropped, unless
/// committed.
///
/// # Example
///
/// ```
/// use cxl_mem::CxlDevice;
///
/// let dev = CxlDevice::new(8);
/// {
///     let guard = dev.create_region_guarded("ckpt");
///     dev.alloc_page(guard.id()).unwrap();
///     // guard dropped without commit: pages freed
/// }
/// assert_eq!(dev.used_pages(), 0);
/// let guard = dev.create_region_guarded("ckpt2");
/// dev.alloc_page(guard.id()).unwrap();
/// let region = guard.commit(); // keep it
/// assert_eq!(dev.used_pages(), 1);
/// # let _ = region;
/// ```
#[derive(Debug)]
pub struct RegionGuard<'d> {
    device: &'d CxlDevice,
    region: RegionId,
    armed: bool,
}

impl RegionGuard<'_> {
    /// The guarded region's id.
    pub fn id(&self) -> RegionId {
        self.region
    }

    /// Disarms the guard and returns the region, which now lives until
    /// explicitly destroyed.
    pub fn commit(mut self) -> RegionId {
        self.armed = false;
        self.region
    }

    /// Disarms the guard *without* destroying the region, leaving it in
    /// whatever commit state it has. Simulates the owner crashing
    /// mid-checkpoint: the staging region stays behind for the lease GC
    /// (or the `cxl-check` staging audit) to find.
    pub fn abandon(mut self) -> RegionId {
        self.armed = false;
        self.region
    }
}

impl Drop for RegionGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.device.destroy_region(self.region);
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test-local countdowns, counters and call logs behind raw std mutexes; tracking them would pollute the lockdep class graph the tests assert on"
)]
mod tests {
    use super::*;

    fn dev() -> CxlDevice {
        CxlDevice::new(64)
    }

    #[test]
    fn region_guard_cleans_up_on_drop_and_commits() {
        let d = dev();
        {
            let g = d.create_region_guarded("tmp");
            d.alloc_batch(g.id(), 3).unwrap();
            assert_eq!(d.used_pages(), 3);
        }
        assert_eq!(d.used_pages(), 0, "dropped guard frees pages");
        let g = d.create_region_guarded("kept");
        d.alloc_batch(g.id(), 2).unwrap();
        let region = g.commit();
        assert_eq!(d.used_pages(), 2);
        assert!(d.region_usage(region).is_ok());
    }

    #[test]
    fn alloc_and_free_track_usage() {
        let d = dev();
        let r = d.create_region("r");
        let pages = d.alloc_batch(r, 10).unwrap();
        assert_eq!(d.used_pages(), 10);
        assert_eq!(d.free_pages(), 54);
        d.free_page(pages[3]).unwrap();
        assert_eq!(d.used_pages(), 9);
        // Freed slot is recycled.
        let p = d.alloc_page(r).unwrap();
        assert_eq!(p, pages[3]);
    }

    #[test]
    fn alloc_is_all_or_nothing() {
        let d = dev();
        let r = d.create_region("r");
        let err = d.alloc_batch(r, 65).unwrap_err();
        assert_eq!(
            err,
            CxlError::OutOfDeviceMemory {
                requested: 65,
                available: 64
            }
        );
        assert_eq!(d.used_pages(), 0);
    }

    #[test]
    fn alloc_into_missing_region_fails() {
        let d = dev();
        let bogus = RegionId(99);
        assert_eq!(d.alloc_page(bogus).unwrap_err(), CxlError::BadRegion(bogus));
    }

    #[test]
    fn fresh_pages_are_zeroed_even_after_reuse() {
        let d = dev();
        let r = d.create_region("r");
        let p = d.alloc_page(r).unwrap();
        d.write(p, 0, &[0xFF; 8], NodeId(0)).unwrap();
        d.free_page(p).unwrap();
        let p2 = d.alloc_page(r).unwrap();
        assert_eq!(p2, p);
        let mut buf = [0xAAu8; 8];
        d.read(p2, 0, &mut buf, NodeId(0)).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn cross_node_visibility() {
        let d = dev();
        let r = d.create_region("r");
        let p = d.alloc_page(r).unwrap();
        d.write_page(p, PageData::pattern(5), NodeId(0)).unwrap();
        assert_eq!(d.read_page(p, NodeId(1)).unwrap(), PageData::pattern(5));
    }

    #[test]
    fn destroy_region_frees_all_its_pages_only() {
        let d = dev();
        let ra = d.create_region("a");
        let rb = d.create_region("b");
        let pa = d.alloc_batch(ra, 5).unwrap();
        let pb = d.alloc_batch(rb, 3).unwrap();
        assert_eq!(d.destroy_region(ra).unwrap(), 5);
        assert_eq!(d.used_pages(), 3);
        assert_eq!(d.fingerprint(pa[0]).unwrap_err(), CxlError::BadPage(pa[0]));
        assert!(d.fingerprint(pb[0]).is_ok());
        // Region gone.
        assert!(d.region_usage(ra).is_err());
        assert_eq!(d.region_usage(rb).unwrap().pages, 3);
    }

    #[test]
    fn stats_count_per_node_traffic() {
        let d = dev();
        let r = d.create_region("r");
        let p = d.alloc_page(r).unwrap();
        d.write(p, 0, &[1, 2, 3], NodeId(0)).unwrap();
        let mut buf = [0u8; 2];
        d.read(p, 0, &mut buf, NodeId(1)).unwrap();
        d.read(p, 0, &mut buf, NodeId(1)).unwrap();
        let s = d.stats();
        assert_eq!(s.writes[&NodeId(0)], 1);
        assert_eq!(s.bytes_written[&NodeId(0)], 3);
        assert_eq!(s.reads[&NodeId(1)], 2);
        assert_eq!(s.bytes_read[&NodeId(1)], 4);
        assert_eq!(s.total_reads(), 2);
        d.reset_stats();
        assert_eq!(d.stats().total_reads(), 0);
    }

    #[test]
    fn utilization_and_alloc_bytes() {
        let d = dev();
        let r = d.create_region("r");
        let pages = d.alloc_bytes(r, PAGE_SIZE * 3 + 1).unwrap();
        assert_eq!(pages.len(), 4);
        assert!((d.utilization() - 4.0 / 64.0).abs() < 1e-12);
        assert!(d.alloc_bytes(r, 0).unwrap().is_empty());
    }

    #[test]
    fn device_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CxlDevice>();
    }

    #[test]
    fn sharded_layout_partitions_capacity() {
        let d = CxlDevice::with_shards(64, 8);
        assert_eq!(d.shard_count(), 8);
        let su = d.shard_usage();
        assert_eq!(su.iter().map(|s| s.capacity_pages).sum::<u64>(), 64);
        let mut next = 0;
        for s in &su {
            assert_eq!(s.base_page, next, "shard ranges must be contiguous");
            next += s.capacity_pages;
        }
        // Uneven capacity still partitions exactly, possibly with fewer
        // shards than requested.
        let d = CxlDevice::with_shards(10, 8);
        let su = d.shard_usage();
        assert_eq!(su.iter().map(|s| s.capacity_pages).sum::<u64>(), 10);
        assert!(su.len() <= 8);
        // Single shard degenerates to the pre-shard layout.
        assert_eq!(CxlDevice::with_shards(64, 1).shard_count(), 1);
        // Requested counts are clamped to the class table.
        assert!(CxlDevice::with_shards(1 << 20, 10_000).shard_count() <= MAX_SHARDS);
    }

    #[test]
    fn batch_ops_round_trip_across_shards_in_input_order() {
        let d = CxlDevice::with_shards(64, 8);
        let r = d.create_region("r");
        let pages = d.alloc_batch(r, 20).unwrap(); // spans three shards
        assert_eq!(d.used_pages(), 20);
        // Request order deliberately interleaves shards.
        let mut order: Vec<CxlPageId> = Vec::new();
        for i in 0..10 {
            order.push(pages[19 - i]);
            order.push(pages[i]);
        }
        let writes: Vec<(CxlPageId, PageData)> = order
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, PageData::pattern(i as u64)))
            .collect();
        d.write_pages(&writes, NodeId(0)).unwrap();
        let datas = d.read_pages(&order, NodeId(1)).unwrap();
        assert_eq!(datas.len(), order.len());
        for (i, data) in datas.iter().enumerate() {
            assert_eq!(*data, PageData::pattern(i as u64), "batch slot {i}");
        }
    }

    #[test]
    fn batch_stats_match_scalar_increments_exactly() {
        let batch = CxlDevice::with_shards(64, 8);
        let scalar = CxlDevice::with_shards(64, 8);
        let rb = batch.create_region("r");
        let rs = scalar.create_region("r");
        let pb = batch.alloc_batch(rb, 12).unwrap();
        let ps: Vec<_> = (0..12).map(|_| scalar.alloc_page(rs).unwrap()).collect();
        assert_eq!(pb, ps, "batch and scalar allocation orders agree");
        let writes: Vec<_> = pb.iter().map(|&p| (p, PageData::pattern(9))).collect();
        batch.write_pages(&writes, NodeId(2)).unwrap();
        batch.read_pages(&pb, NodeId(3)).unwrap();
        for &p in &ps {
            scalar
                .write_page(p, PageData::pattern(9), NodeId(2))
                .unwrap();
            scalar.read_page(p, NodeId(3)).unwrap();
        }
        assert_eq!(
            batch.stats(),
            scalar.stats(),
            "counters must stay increment-exact"
        );
    }

    #[test]
    fn fingerprint_pages_matches_scalar_and_input_order() {
        let d = CxlDevice::with_shards(64, 8);
        let r = d.create_region("r");
        let pages = d.alloc_batch(r, 20).unwrap(); // spans three shards
        let writes: Vec<(CxlPageId, PageData)> = pages
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, PageData::pattern(i as u64)))
            .collect();
        d.write_pages(&writes, NodeId(0)).unwrap();
        // Request order deliberately interleaves shards.
        let mut order: Vec<CxlPageId> = Vec::new();
        for i in 0..10 {
            order.push(pages[19 - i]);
            order.push(pages[i]);
        }
        let stats_before = d.stats();
        let batch = d.fingerprint_pages(&order).unwrap();
        assert_eq!(batch.len(), order.len());
        for (i, (&p, &fp)) in order.iter().zip(&batch).enumerate() {
            assert_eq!(fp, d.fingerprint(p).unwrap(), "batch slot {i}");
        }
        // Batch-of-1 ≡ scalar, and fingerprinting (either form) records
        // no traffic.
        assert_eq!(
            d.fingerprint_pages(std::slice::from_ref(&pages[3]))
                .unwrap(),
            vec![d.fingerprint(pages[3]).unwrap()]
        );
        assert_eq!(d.stats(), stats_before, "fingerprinting is traffic-free");
        // A dead page fails the whole batch.
        let mut doomed = order.clone();
        doomed.push(CxlPageId(63));
        assert_eq!(
            d.fingerprint_pages(&doomed).unwrap_err(),
            CxlError::BadPage(CxlPageId(63))
        );
        assert!(d.fingerprint_pages(&[]).unwrap().is_empty());
    }

    #[test]
    fn free_batch_is_all_or_nothing() {
        let d = CxlDevice::with_shards(64, 8);
        let r = d.create_region("r");
        let pages = d.alloc_batch(r, 10).unwrap();
        let mut doomed = pages.clone();
        doomed.push(CxlPageId(63)); // never allocated
        assert_eq!(
            d.free_batch(&doomed).unwrap_err(),
            CxlError::BadPage(CxlPageId(63))
        );
        assert_eq!(d.used_pages(), 10, "failed batch free must free nothing");
        // Duplicates are rejected before any page is freed.
        let dup = [pages[0], pages[1], pages[0]];
        assert_eq!(d.free_batch(&dup).unwrap_err(), CxlError::BadPage(pages[0]));
        assert_eq!(d.used_pages(), 10);
        assert_eq!(d.free_batch(&pages).unwrap(), 10);
        assert_eq!(d.used_pages(), 0);
    }

    #[test]
    fn empty_batches_are_noops() {
        let d = CxlDevice::with_shards(16, 4);
        let r = d.create_region("r");
        assert!(d.alloc_batch(r, 0).unwrap().is_empty());
        assert!(d.read_pages(&[], NodeId(0)).unwrap().is_empty());
        d.write_pages(&[], NodeId(0)).unwrap();
        assert_eq!(d.free_batch(&[]).unwrap(), 0);
        assert_eq!(d.stats(), CxlDeviceStats::default());
        assert_eq!(d.used_pages(), 0);
    }

    #[test]
    fn shard_usage_reconciles_with_used_pages() {
        let d = CxlDevice::with_shards(64, 8);
        let r = d.create_region("r");
        let pages = d.alloc_batch(r, 23).unwrap();
        d.free_batch(&pages[5..9]).unwrap();
        let su = d.shard_usage();
        assert_eq!(
            su.iter().map(|s| s.used_pages).sum::<u64>(),
            d.used_pages(),
            "per-shard used counts must sum to the device total"
        );
        // Every live page falls inside exactly one shard's offset range.
        for (p, _) in d.live_pages() {
            let owners = su
                .iter()
                .filter(|s| p.0 >= s.base_page && p.0 < s.base_page + s.capacity_pages)
                .count();
            assert_eq!(owners, 1, "page {p:?} must map to exactly one shard");
        }
    }

    #[test]
    fn staged_regions_commit_atomically() {
        let d = dev();
        let r = d.create_region_staged("staging", NodeId(3), 7);
        d.alloc_batch(r, 2).unwrap();
        assert_eq!(d.region_committed(r), Some(false));
        let staged = d.staging_regions();
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].owner, NodeId(3));
        assert_eq!(staged[0].epoch, 7);
        assert_eq!(staged[0].pages, 2);
        d.commit_region(r).unwrap();
        assert_eq!(d.region_committed(r), Some(true));
        assert!(d.staging_regions().is_empty());
        // Idempotent; plain regions are born committed.
        d.commit_region(r).unwrap();
        assert_eq!(d.region_committed(d.create_region("plain")), Some(true));
        assert_eq!(d.region_committed(RegionId(99)), None);
        assert_eq!(
            d.commit_region(RegionId(99)).unwrap_err(),
            CxlError::BadRegion(RegionId(99))
        );
    }

    #[test]
    fn abandoned_staged_guard_leaves_orphan_behind() {
        let d = dev();
        let region = {
            let g = d.create_region_staged_guarded("staging", NodeId(1), 4);
            d.alloc_batch(g.id(), 3).unwrap();
            g.abandon()
        };
        assert_eq!(d.used_pages(), 3, "abandon keeps pages");
        assert_eq!(d.region_committed(region), Some(false));
        assert_eq!(d.staging_regions().len(), 1);
    }

    #[derive(Debug)]
    struct FailNthRead {
        countdown: std::sync::Mutex<u64>,
    }

    impl FaultHook for FailNthRead {
        fn inject(
            &self,
            op: DeviceOp,
            _page: Option<CxlPageId>,
            _node: NodeId,
        ) -> Option<CxlError> {
            if op != DeviceOp::Read {
                return None;
            }
            let mut n = self.countdown.lock().unwrap();
            if *n == 0 {
                *n = u64::MAX; // fire once
                Some(CxlError::Transient { op: op.name() })
            } else {
                *n -= 1;
                None
            }
        }
    }

    #[test]
    fn fault_hook_vetoes_operations_and_unhooks_cleanly() {
        let d = dev();
        let r = d.create_region("r");
        let p = d.alloc_page(r).unwrap();
        d.set_fault_hook(Some(Arc::new(FailNthRead {
            countdown: std::sync::Mutex::new(1),
        })));
        assert!(d.read_page(p, NodeId(0)).is_ok(), "first read passes");
        assert_eq!(
            d.read_page(p, NodeId(0)).unwrap_err(),
            CxlError::Transient { op: "read" }
        );
        assert!(d.read_page(p, NodeId(0)).is_ok(), "hook fires once");
        d.set_fault_hook(None);
        assert!(d.read_page(p, NodeId(0)).is_ok());
    }

    #[test]
    fn fault_hook_sees_batch_reads_per_page_in_input_order() {
        let d = CxlDevice::with_shards(64, 8);
        let r = d.create_region("r");
        let pages = d.alloc_batch(r, 4).unwrap();
        d.set_fault_hook(Some(Arc::new(FailNthRead {
            countdown: std::sync::Mutex::new(2),
        })));
        // The batch consults the hook once per page in input order, so the
        // third page trips the schedule — exactly where the scalar loop
        // would have tripped it — and the whole batch fails before any
        // counter advances.
        assert_eq!(
            d.read_pages(&pages, NodeId(0)).unwrap_err(),
            CxlError::Transient { op: "read" }
        );
        assert_eq!(d.stats().total_reads(), 0, "failed batch counts nothing");
    }

    #[derive(Debug, Default)]
    struct CountAllocConsults {
        consults: std::sync::Mutex<u64>,
    }

    impl FaultHook for CountAllocConsults {
        fn inject(&self, op: DeviceOp, _: Option<CxlPageId>, _: NodeId) -> Option<CxlError> {
            if op == DeviceOp::Alloc {
                *self.consults.lock().unwrap() += 1;
            }
            None
        }
    }

    #[test]
    fn zero_length_alloc_batch_is_free_and_skips_the_fault_hook() {
        let d = dev();
        let r = d.create_region("r");
        let hook = Arc::new(CountAllocConsults::default());
        d.set_fault_hook(Some(hook.clone()));
        assert!(d.alloc_batch(r, 0).unwrap().is_empty());
        assert!(d.alloc_batch_striped(r, 0, 8).unwrap().is_empty());
        assert!(d.alloc_bytes(r, 0).unwrap().is_empty());
        assert_eq!(
            *hook.consults.lock().unwrap(),
            0,
            "an empty batch must not consult the fault hook"
        );
        assert_eq!(d.used_pages(), 0);
        // A non-empty batch still consults exactly once.
        d.alloc_batch(r, 1).unwrap();
        assert_eq!(*hook.consults.lock().unwrap(), 1);
        // An empty batch is free, not unvalidated: a dangling region id
        // still errors.
        let bogus = RegionId(99);
        assert_eq!(
            d.alloc_batch(bogus, 0).unwrap_err(),
            CxlError::BadRegion(bogus)
        );
    }

    /// A fabric stub that charges 1 ns per byte seen and records calls.
    #[derive(Debug, Default)]
    struct RecordingLink {
        calls: std::sync::Mutex<Vec<(u32, u64, Vec<u64>)>>,
    }

    impl FabricLink for RecordingLink {
        fn charge_transfer(&self, device: u32, now: SimTime, port_bytes: &[u64]) -> SimDuration {
            let total: u64 = port_bytes.iter().sum();
            self.calls
                .lock()
                .unwrap()
                .push((device, now.as_nanos(), port_bytes.to_vec()));
            SimDuration::from_nanos(total)
        }
    }

    #[test]
    fn fabric_attachment_charges_only_when_armed_and_non_empty() {
        let d = CxlDevice::with_shards(64, 8);
        let r = d.create_region("r");
        let pages = d.alloc_batch_striped(r, 8, 4).unwrap();
        let counts = d.shard_partition(pages.iter().copied());
        let now = SimTime::from_nanos(5);

        // Detached: zero delay, no fabric consulted.
        assert!(!d.fabric_armed());
        assert_eq!(d.fabric_charge(now, &counts), SimDuration::ZERO);

        let link = Arc::new(RecordingLink::default());
        d.attach_fabric(Some((link.clone(), 3)));
        assert!(d.fabric_armed());

        // Empty batches stay free and never reach the link.
        assert_eq!(d.fabric_charge(now, &[0, 0, 0]), SimDuration::ZERO);
        assert!(link.calls.lock().unwrap().is_empty());

        // A real batch forwards its per-shard byte counts and device id.
        let delay = d.fabric_charge(now, &counts);
        assert_eq!(delay, SimDuration::from_nanos(8 * PAGE_SIZE));
        {
            let calls = link.calls.lock().unwrap();
            assert_eq!(calls.len(), 1);
            let (device, t, bytes) = &calls[0];
            assert_eq!(*device, 3);
            assert_eq!(*t, 5);
            assert_eq!(
                bytes,
                &vec![
                    2 * PAGE_SIZE,
                    2 * PAGE_SIZE,
                    2 * PAGE_SIZE,
                    2 * PAGE_SIZE,
                    0,
                    0,
                    0,
                    0
                ]
            );
        }

        d.attach_fabric(None);
        assert!(!d.fabric_armed());
        assert_eq!(d.fabric_charge(now, &counts), SimDuration::ZERO);
        assert_eq!(link.calls.lock().unwrap().len(), 1);
    }

    #[test]
    fn striped_alloc_spreads_the_batch_across_shards() {
        let d = CxlDevice::with_shards(64, 8);
        let r = d.create_region("r");
        let pages = d.alloc_batch_striped(r, 16, 4).unwrap();
        assert_eq!(pages.len(), 16);
        let counts = d.shard_partition(pages.iter().copied());
        assert_eq!(counts, vec![4, 4, 4, 4, 0, 0, 0, 0]);
        // More streams than shards clamps to the shard count.
        let more = d.alloc_batch_striped(r, 8, 32).unwrap();
        let counts = d.shard_partition(more.iter().copied());
        assert_eq!(counts, vec![1; 8]);
        assert_eq!(d.used_pages(), 24);
    }

    #[test]
    fn striped_alloc_with_one_stream_matches_first_fit_exactly() {
        let a = CxlDevice::with_shards(64, 8);
        let b = CxlDevice::with_shards(64, 8);
        let ra = a.create_region("r");
        let rb = b.create_region("r");
        // streams <= 1 must delegate: byte-identical page-id sequences.
        assert_eq!(
            a.alloc_batch_striped(ra, 10, 1).unwrap(),
            b.alloc_batch(rb, 10).unwrap()
        );
        assert_eq!(
            a.alloc_batch_striped(ra, 5, 0).unwrap(),
            b.alloc_batch(rb, 5).unwrap()
        );
    }

    #[test]
    fn striped_alloc_falls_back_when_target_banks_are_full() {
        // 8 pages per shard (64 / 8). Fill shard 0 completely, then
        // stripe 14 pages over 2 streams: stream 0's share cannot fit in
        // shard 0, so the shortfall first-fits into later shards — the
        // call still succeeds whenever a plain batch would.
        let d = CxlDevice::with_shards(64, 8);
        let r = d.create_region("r");
        let fill = d.alloc_batch(r, 8).unwrap();
        assert_eq!(
            d.shard_partition(fill.iter().copied()),
            vec![8, 0, 0, 0, 0, 0, 0, 0]
        );
        let pages = d.alloc_batch_striped(r, 14, 2).unwrap();
        assert_eq!(pages.len(), 14);
        let counts = d.shard_partition(pages.iter().copied());
        assert_eq!(counts.iter().sum::<u64>(), 14);
        assert_eq!(counts[0], 0, "shard 0 was full");
        assert_eq!(counts[1], 8, "stream 1's share landed in shard 1");
        // All-or-nothing past capacity, even striped.
        assert_eq!(
            d.alloc_batch_striped(r, 64, 4).unwrap_err(),
            CxlError::OutOfDeviceMemory {
                requested: 64,
                available: 42
            }
        );
        assert_eq!(d.used_pages(), 22);
    }

    #[test]
    fn shard_partition_counts_pages_per_bank() {
        let d = CxlDevice::with_shards(64, 4);
        let r = d.create_region("r");
        let pages = d.alloc_batch_striped(r, 6, 3).unwrap();
        let counts = d.shard_partition(pages.iter().copied());
        assert_eq!(counts.len(), d.shard_count());
        assert_eq!(counts, vec![2, 2, 2, 0]);
        // Out-of-range ids are skipped, not counted.
        let bogus = [CxlPageId(u64::MAX)];
        assert_eq!(d.shard_partition(bogus.iter().copied()), vec![0; 4]);
        assert!(d.shard_partition([]).iter().all(|&c| c == 0));
    }
}
