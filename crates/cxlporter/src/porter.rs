//! The CXLporter autoscaler (§5).
//!
//! CXLporter scales function instances up and down across a
//! CXL-interconnected cluster using a pluggable remote-fork mechanism. It
//! performs the five operations §5 lists:
//!
//! 1. **appropriately-timed checkpoints** — a function is checkpointed
//!    after its 16th invocation (JIT warm-up), and its A/D bits are
//!    cleared after the first invocation so the checkpoint records the
//!    steady-state access pattern;
//! 2. **an object store of checkpoints** keyed by function;
//! 3. **a pool of ghost containers** — pre-provisioned empty containers
//!    (512 KiB each) that absorb the ≈130 ms container-creation cost;
//! 4. **tiering-policy control** — by default migrate-on-write; functions
//!    whose latency approaches their SLO are promoted to hybrid tiering,
//!    unless node memory exceeds the HighMem threshold (90 %);
//! 5. **dynamic keep-alive windows** — shrunk to 10 s under memory
//!    pressure so idle instances are reclaimed faster.

use std::collections::BTreeMap;
use std::sync::Arc;

use cxl_fabric::{DevicePool, PlacementPolicy};
use cxl_fault::{reclaim_dead, reclaim_orphans, CrashSchedule, LeaseTable, NodeCrash};
use cxl_mem::NodeId;
use cxl_sim::EventQueue;
use cxl_store::ImageId;
use node_os::addr::Pid;
use node_os::OsError;
use rfork::{RemoteFork, RestoreOptions, TierPolicy};
use simclock::stats::LatencyHistogram;
use simclock::{SimDuration, SimTime};
use trace_gen::{Invocation, TraceError};

use faas::{Catalog, Container, FunctionSpec};

use crate::cluster::Cluster;
use crate::store::ObjectStore;

/// Autoscaler configuration.
#[derive(Debug, Clone)]
pub struct PorterConfig {
    /// Checkpoint a function after this many invocations (§5: 16).
    pub checkpoint_after: u64,
    /// Keep-alive window with ample memory (minutes in production; the
    /// paper cites multi-minute windows).
    pub keep_alive: SimDuration,
    /// Keep-alive window under memory pressure (§5: 10 s).
    pub pressure_keep_alive: SimDuration,
    /// Local-memory utilization above which a node counts as pressured
    /// (§5/§6.2: HighMem = 90 %).
    pub high_mem_threshold: f64,
    /// Ghost containers pre-provisioned per node.
    pub ghost_pool_per_node: usize,
    /// Whether the mechanism restores into ghost containers (CXLfork and
    /// Mitosis do; CRIU "is not compatible with ghost containers", §6.2).
    pub use_ghost_containers: bool,
    /// Dynamically switch tiering policies based on SLO + memory
    /// pressure. When `false`, `static_policy` is always used.
    pub dynamic_tiering: bool,
    /// Policy used when `dynamic_tiering` is off.
    pub static_policy: TierPolicy,
    /// SLO multiplier over the observed warm latency.
    pub slo_factor: f64,
    /// Interval between A-bit maintenance resets.
    pub maintenance_interval: SimDuration,
    /// CXL device utilization above which stored checkpoints are
    /// reclaimed, coldest first (§5: CXLporter "is also responsible for
    /// reclaiming checkpoints under CXL memory pressure").
    pub cxl_reclaim_threshold: f64,
    /// Per-function keep-alive overrides (the paper leaves "different
    /// window sizes for different functions" as future work, §5; CXLfork's
    /// cheap restores make short windows safe for functions with fast
    /// cold paths).
    pub per_function_keep_alive: BTreeMap<String, SimDuration>,
    /// Liveness-lease duration: a node that stops renewing for this long
    /// is presumed dead and its checkpoint staging regions reclaimable.
    pub lease_ttl: SimDuration,
    /// Fraction of each function's runtime (library) pages backed by
    /// shared runtime images (see `faas::FunctionSpec::template_overlap`);
    /// applied when the porter resolves an invocation's spec. 0 keeps the
    /// historical fully-private layout.
    pub template_overlap: f64,
    /// Per-owner fairness quotas for multi-tenant traces. `None` (the
    /// default) disables quota metering entirely and reproduces the
    /// historical dispatch behaviour byte-for-byte.
    pub fairness: Option<FairnessConfig>,
    /// Image-placement policy across the fabric device pool (only
    /// meaningful once [`CxlPorter::with_device_pool`] attaches one).
    /// `Locality` pins every checkpoint of a function to one
    /// seed-derived device; `Stripe` round-robins consecutive
    /// checkpoints across the pool.
    pub placement: PlacementPolicy,
}

/// Per-owner dispatch quotas.
///
/// With fairness on, an arrival whose owner already has
/// `max_inflight_per_owner` instances busy is *deferred*: re-enqueued
/// at the earliest instant one of those instances frees up, up to
/// `max_deferrals` times, after which it is dropped (`fair_drops`).
/// This bounds how far a single bursty tenant can push everyone else's
/// queue-wait tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairnessConfig {
    /// Maximum concurrently busy instances per owner. A quota of 0
    /// drops every arrival of every owner (useful only in tests).
    pub max_inflight_per_owner: usize,
    /// Deferral budget per arrival before it is dropped.
    pub max_deferrals: u32,
}

impl Default for FairnessConfig {
    fn default() -> Self {
        FairnessConfig {
            max_inflight_per_owner: 8,
            max_deferrals: 16,
        }
    }
}

impl Default for PorterConfig {
    fn default() -> Self {
        PorterConfig {
            checkpoint_after: 16,
            keep_alive: SimDuration::from_secs(600),
            pressure_keep_alive: SimDuration::from_secs(10),
            high_mem_threshold: 0.9,
            ghost_pool_per_node: 10,
            use_ghost_containers: true,
            dynamic_tiering: true,
            static_policy: TierPolicy::MigrateOnWrite,
            slo_factor: 1.3,
            maintenance_interval: SimDuration::from_secs(10),
            cxl_reclaim_threshold: 0.9,
            per_function_keep_alive: BTreeMap::new(),
            lease_ttl: SimDuration::from_secs(30),
            template_overlap: 0.0,
            fairness: None,
            placement: PlacementPolicy::Locality,
        }
    }
}

impl PorterConfig {
    /// The full CXLporter configuration (dynamic tiering, ghosts).
    pub fn cxlfork_dynamic() -> Self {
        PorterConfig::default()
    }

    /// CXLfork with migrate-on-write pinned statically (the
    /// `CXLfork-MoW` variant of Fig. 10).
    pub fn cxlfork_static_mow() -> Self {
        PorterConfig {
            dynamic_tiering: false,
            static_policy: TierPolicy::MigrateOnWrite,
            ..PorterConfig::default()
        }
    }

    /// Mitosis-CXL: ghost containers, no tiering choice (the mechanism is
    /// inherently migrate-on-access).
    pub fn mitosis() -> Self {
        PorterConfig {
            dynamic_tiering: false,
            static_policy: TierPolicy::MigrateOnAccess,
            ..PorterConfig::default()
        }
    }

    /// CRIU-CXL: no ghost containers (checkpoints restore from the
    /// filesystem into freshly created containers, §6.2).
    pub fn criu() -> Self {
        PorterConfig {
            use_ghost_containers: false,
            dynamic_tiering: false,
            static_policy: TierPolicy::MigrateOnWrite,
            ..PorterConfig::default()
        }
    }
}

/// Position of a [`Function`] in the porter's table: what instances and
/// arrivals compare instead of name strings.
type FnId = usize;

/// One function name the porter has seen arrive, resolved once.
#[derive(Debug)]
struct Function {
    /// The catalog entry with [`PorterConfig::template_overlap`] applied.
    spec: Arc<FunctionSpec>,
    /// The entry for `spec.name`, under which the function's instances
    /// are filed: the catalog resolves names case-insensitively, idle
    /// instances are matched on the exact spelling.
    filed_under: FnId,
    /// Keep-alive window of an idle instance on an unpressured node.
    keep_alive: SimDuration,
    /// Latency tracking for SLO-driven tiering. This and the two fields
    /// below are kept in the `filed_under` entry only: however an arrival
    /// spells the name, the function has one set of them.
    stats: FnStats,
    /// Checkpoints of this function routed through the device pool.
    checkpoint_seq: u64,
    /// Pool device the function's latest image was placed on.
    fabric_home: Option<u32>,
}

/// Instants before which no idle instance can be past its keep-alive
/// window: the minimum over instances of `last_used` plus a window.
/// [`CxlPorter::evict_expired`] recomputes both on every scan; in between
/// they are only ever lowered, wherever a `last_used` is written, so they
/// stay lower bounds while instances come and go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExpiryFloor {
    /// With each instance's own window: holds while no node is pressured.
    calm: SimTime,
    /// With the smaller of its own and the pressure window: holds
    /// whatever the nodes' memory does. Never after `calm`.
    pressured: SimTime,
}

impl ExpiryFloor {
    /// No instances: nothing expires, ever.
    const NEVER: ExpiryFloor = ExpiryFloor {
        calm: SimTime::from_nanos(u64::MAX),
        pressured: SimTime::from_nanos(u64::MAX),
    };

    /// Lowers the floors for an instance last used at `last_used` whose
    /// own keep-alive window is `own`.
    fn cover(&mut self, last_used: SimTime, own: SimDuration, pressure: SimDuration) {
        self.calm = self.calm.min(last_used + own);
        self.pressured = self.pressured.min(last_used + own.min(pressure));
    }
}

/// One live function instance.
#[derive(Debug)]
struct Instance {
    /// Stable identifier (vector positions shift under reclamation).
    id: u64,
    node: usize,
    container: Container,
    pid: Pid,
    function: FnId,
    /// Owning tenant of the invocation that created the instance.
    owner: u32,
    busy_until: SimTime,
    last_used: SimTime,
    invocations: u64,
    /// `true` if this instance was cold-deployed (checkpoint candidate).
    cold_started: bool,
    /// The store image the instance was restored from, if any. MoW/MoA
    /// restores keep mapping the image's device pages for the life of
    /// the process, so the porter shields these images from capacity
    /// eviction even after their lease holder crashes.
    image: Option<u64>,
}

/// Per-function latency tracking for SLO-driven tiering (§5: CXLporter
/// "monitors the tail and average latency of function instances").
#[derive(Debug, Default, Clone)]
struct FnStats {
    /// EWMA over all request latencies.
    ewma_ns: f64,
    /// EWMA over warm-instance latencies only — the signal that
    /// CXL-resident read-only data is slowing steady-state execution.
    ewma_warm_ns: f64,
    /// Best warm latency ever seen (the function's local-memory speed).
    min_warm_ns: u64,
    /// Warm invocations that individually exceeded the SLO.
    slo_breaches: u32,
}

impl FnStats {
    fn observe(&mut self, latency: SimDuration, warm: bool) {
        let ns = latency.as_nanos() as f64;
        self.ewma_ns = if self.ewma_ns == 0.0 {
            ns
        } else {
            0.8 * self.ewma_ns + 0.2 * ns
        };
        if warm {
            self.ewma_warm_ns = if self.ewma_warm_ns == 0.0 {
                ns
            } else {
                0.8 * self.ewma_warm_ns + 0.2 * ns
            };
            let ns = latency.as_nanos();
            if self.min_warm_ns == 0 || ns < self.min_warm_ns {
                self.min_warm_ns = ns;
            }
        }
    }

    /// Records SLO breaches after the minimum is known. Called with the
    /// same warm samples as [`FnStats::observe`].
    fn note_breach(&mut self, latency: SimDuration, slo_factor: f64) {
        if self.min_warm_ns > 0 && latency.as_nanos() as f64 > self.min_warm_ns as f64 * slo_factor
        {
            self.slo_breaches += 1;
        }
    }

    /// `true` once warm executions have repeatedly exceeded the SLO
    /// relative to the best observed warm latency (tail-sensitive, as §5's
    /// "monitors the tail and average latency").
    fn over_slo(&self, slo_factor: f64) -> bool {
        self.slo_breaches >= 3
            || (self.min_warm_ns > 0 && self.ewma_warm_ns > self.min_warm_ns as f64 * slo_factor)
    }
}

/// Aggregated results of a trace run.
///
/// Equality is derived so determinism tests can compare whole reports:
/// two runs of the same trace with the same fault/crash seeds must
/// produce identical reports, bit for bit.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PorterReport {
    /// End-to-end latency per function.
    pub per_function: BTreeMap<String, LatencyHistogram>,
    /// End-to-end latency across all requests.
    pub overall: LatencyHistogram,
    /// Requests served by an idle warm instance.
    pub warm_hits: u64,
    /// Requests served by restoring from a checkpoint.
    pub restores: u64,
    /// Requests served by a full cold deployment.
    pub full_cold: u64,
    /// Requests dropped because memory could not be reclaimed.
    pub dropped: u64,
    /// Idle instances recycled for memory.
    pub recycles: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Checkpoints reclaimed under CXL memory pressure.
    pub checkpoint_reclaims: u64,
    /// Restores that ran under hybrid tiering.
    pub hybrid_restores: u64,
    /// Peak local-memory pages per node.
    pub peak_local_pages: Vec<u64>,
    /// CXL device pages in use at the end of the run.
    pub final_cxl_pages: u64,
    /// Node crashes the run absorbed without stopping.
    pub crashes_survived: u64,
    /// In-flight invocations re-dispatched to a surviving node after a
    /// crash (each also lands in `warm_hits`/`restores`/`full_cold`).
    pub redispatched: u64,
    /// In-flight invocations lost to a crash that no surviving node
    /// could absorb.
    pub work_lost: u64,
    /// Transient CXL device errors absorbed by retry, summed over nodes.
    pub device_retries: u64,
    /// Orphaned checkpoint staging regions the lease GC reclaimed.
    pub orphan_regions_reclaimed: u64,
    /// Device pages freed with those regions.
    pub orphan_pages_reclaimed: u64,
    /// Restores that found their backing store image evicted; the stale
    /// checkpoint was dropped and the request re-deployed cold (which
    /// re-checkpoints on the usual schedule).
    pub image_misses: u64,
    /// Store images the capacity-pressure GC evicted during maintenance.
    pub image_evictions: u64,
    /// Data pages the checkpoint store deduplicated away over the run
    /// (zero at the end of a run without an image store).
    pub store_deduped_pages: u64,
    /// Committed images adopted from a dead coordinator's journal
    /// ([`CxlPorter::adopt_recovered_store`]) and re-leased to the
    /// survivor instead of being lost and re-deployed cold.
    pub recovered_images: u64,
    /// Virtual time the adopting node spent replaying the journal
    /// (batched read of the scanned log plus the compacted snapshot
    /// write).
    pub journal_replay_ns: u64,
    /// Arrivals the per-owner fairness quota deferred (zero unless
    /// [`PorterConfig::fairness`] is set).
    pub fair_deferrals: u64,
    /// Arrivals dropped after exhausting their deferral budget.
    pub fair_drops: u64,
    /// Requests served (dispatched without being dropped) per owner.
    pub per_owner_served: BTreeMap<u32, u64>,
    /// Events the dispatch loop popped across `run_trace` calls
    /// (arrivals + crashes + fairness deferrals).
    pub engine_events: u64,
    /// Checkpoints routed to each fabric pool device (empty without a
    /// [`CxlPorter::with_device_pool`] pool).
    pub fabric_placements: BTreeMap<u32, u64>,
}

impl PorterReport {
    /// Fraction of requests that hit a warm instance.
    pub fn warm_ratio(&self) -> f64 {
        let total = self.warm_hits + self.restores + self.full_cold + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }
}

/// The autoscaler, generic over the remote-fork mechanism.
///
/// # Example
///
/// ```
/// use cxlporter::{Cluster, CxlPorter, PorterConfig};
/// use cxlfork::CxlFork;
/// use trace_gen::{generate, TraceConfig};
///
/// let cluster = Cluster::new(2, 4096, 8192, simclock::LatencyModel::calibrated());
/// let mut porter = CxlPorter::new(cluster, CxlFork::new(), PorterConfig::cxlfork_dynamic());
/// let trace = generate(&TraceConfig {
///     duration_secs: 2.0,
///     total_rps: 4.0,
///     ..TraceConfig::paper_default(vec!["Float".into(), "Json".into()], 7)
/// });
/// let report = porter.run_trace(&trace);
/// assert!(report.overall.len() as usize <= trace.len());
/// ```
#[derive(Debug)]
pub struct CxlPorter<M: RemoteFork> {
    mech: M,
    config: PorterConfig,
    /// The cluster (public for post-run inspection).
    pub cluster: Cluster,
    store: ObjectStore<M::Checkpoint>,
    instances: Vec<Instance>,
    ghost_pools: Vec<Vec<Container>>,
    report: PorterReport,
    next_container_id: u64,
    next_instance_id: u64,
    last_maintenance: SimTime,
    measure_from: SimTime,
    crash_schedule: CrashSchedule,
    leases: LeaseTable,
    torn_epoch: u64,
    image_store: Option<Arc<cxl_store::Store>>,
    catalog: Catalog,
    /// Every arrival name resolved so far, and where to find it.
    functions: Vec<Function>,
    fn_ids: BTreeMap<String, FnId>,
    expiry_floor: ExpiryFloor,
    device_pool: Option<Arc<DevicePool>>,
}

/// Event alphabet of a porter trace run. Ordering within the queue's
/// `(time, seq)` key reproduces the historical straight-line replay
/// exactly: crashes are enqueued before arrivals (lower seq ⇒ a crash
/// due at an arrival's instant fires first, like the old inclusive
/// `due()` drain), and arrivals are enqueued in trace order (same-time
/// arrivals keep their FIFO order).
#[derive(Debug)]
enum PorterEvent {
    /// A scheduled node crash.
    Crash(NodeCrash),
    /// Arrival of `trace[idx]`.
    Arrival(usize),
    /// A fairness-deferred arrival of `trace[idx]`, re-dispatched at
    /// the event's firing time.
    Deferred {
        /// Trace index of the deferred invocation.
        idx: usize,
        /// Deferrals so far, counted against the budget.
        attempts: u32,
    },
}

impl<M: RemoteFork> CxlPorter<M> {
    /// Builds the autoscaler and pre-provisions the ghost pools (charged
    /// to the node clocks at t = 0, off every request's critical path).
    pub fn new(mut cluster: Cluster, mech: M, config: PorterConfig) -> Self {
        let mut next_container_id = 1;
        let mut ghost_pools = Vec::with_capacity(cluster.nodes.len());
        for node in &mut cluster.nodes {
            let mut pool = Vec::new();
            if config.use_ghost_containers {
                for _ in 0..config.ghost_pool_per_node {
                    if let Ok((c, _)) = Container::create(node, next_container_id) {
                        next_container_id += 1;
                        pool.push(c);
                    }
                }
            }
            ghost_pools.push(pool);
        }
        let mut leases = LeaseTable::new(config.lease_ttl);
        for idx in 0..cluster.nodes.len() {
            leases.renew(NodeId(idx as u32), SimTime::ZERO);
        }
        CxlPorter {
            mech,
            config,
            cluster,
            store: ObjectStore::new(),
            instances: Vec::new(),
            ghost_pools,
            report: PorterReport::default(),
            next_container_id,
            next_instance_id: 1,
            last_maintenance: SimTime::ZERO,
            measure_from: SimTime::ZERO,
            crash_schedule: CrashSchedule::new(),
            leases,
            torn_epoch: 0,
            image_store: None,
            catalog: Catalog::table1(),
            functions: Vec::new(),
            fn_ids: BTreeMap::new(),
            expiry_floor: ExpiryFloor::NEVER,
            device_pool: None,
        }
    }

    /// Replaces the function catalog invocations resolve against. The
    /// default is the Table 1 suite (matching the historical
    /// `faas::by_name` lookup); cluster-scale scenarios install their
    /// synthetic per-tenant namespaces here.
    ///
    /// # Panics
    ///
    /// If an arrival has already been resolved against the current
    /// catalog (resolutions are cached for the porter's lifetime).
    #[must_use]
    pub fn with_catalog(mut self, catalog: Catalog) -> Self {
        assert!(
            self.functions.is_empty(),
            "install the catalog before the first trace runs"
        );
        self.catalog = catalog;
        self
    }

    /// The table position of the function an arrival names, resolving
    /// the name against the catalog the first time it is seen. `None` for
    /// names the catalog does not know.
    fn function_id(&mut self, name: &str) -> Option<FnId> {
        if let Some(&id) = self.fn_ids.get(name) {
            return Some(id);
        }
        let spec = self.catalog.get(name)?.clone();
        let spec = Arc::new(spec.with_template_overlap(self.config.template_overlap));
        let keep_alive = self
            .config
            .per_function_keep_alive
            .get(&spec.name)
            .copied()
            .unwrap_or(self.config.keep_alive);
        let id = self.functions.len();
        self.fn_ids.insert(name.to_owned(), id);
        self.functions.push(Function {
            spec: Arc::clone(&spec),
            filed_under: id,
            keep_alive,
            stats: FnStats::default(),
            checkpoint_seq: 0,
            fabric_home: None,
        });
        if spec.name != name {
            self.functions[id].filed_under = self.function_id(&spec.name)?;
        }
        Some(id)
    }

    /// Lowers the expiry floor for an instance of `function` whose
    /// `last_used` was just set to `last_used`.
    fn note_last_used(&mut self, function: FnId, last_used: SimTime) {
        self.expiry_floor.cover(
            last_used,
            self.functions[function].keep_alive,
            self.config.pressure_keep_alive,
        );
    }

    /// Files a new instance.
    fn admit(&mut self, instance: Instance) {
        self.note_last_used(instance.function, instance.last_used);
        self.instances.push(instance);
    }

    /// The function catalog invocations resolve against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Attaches a content-addressed checkpoint image store. The
    /// mechanism must route its checkpoints through the same store (see
    /// `CxlFork::with_store`); the porter then leases each published
    /// image to its owner node, runs the store's watermark GC on the
    /// maintenance tick, and turns a restore of an evicted image into a
    /// cold re-deployment instead of a dropped request.
    #[must_use]
    pub fn with_image_store(mut self, store: Arc<cxl_store::Store>) -> Self {
        self.image_store = Some(store);
        self
    }

    /// The attached checkpoint image store, if any.
    pub fn image_store(&self) -> Option<&Arc<cxl_store::Store>> {
        self.image_store.as_ref()
    }

    /// Attaches a fabric device pool. Before every checkpoint the porter
    /// picks a pool device under [`PorterConfig::placement`] and routes
    /// the cluster device's fabric charges to that device's switch ports
    /// (page *data* still lives on the single simulated cluster device —
    /// the pool models where the traffic lands, not a second copy).
    /// Restores of a function charge the device its image was placed on.
    #[must_use]
    pub fn with_device_pool(mut self, pool: Arc<DevicePool>) -> Self {
        assert!(
            !pool.is_empty(),
            "device pool must have at least one device"
        );
        self.device_pool = Some(pool);
        self
    }

    /// The attached fabric device pool, if any.
    pub fn device_pool(&self) -> Option<&Arc<DevicePool>> {
        self.device_pool.as_ref()
    }

    /// Routes the cluster device's fabric charges to the pool device the
    /// placement policy picks for `function`'s next checkpoint, and
    /// remembers that device as the function's fabric home for restores.
    fn route_fabric_for_checkpoint(&mut self, function: FnId) {
        let Some(pool) = &self.device_pool else {
            return;
        };
        let f = &mut self.functions[function];
        let idx = pool.place_with(self.config.placement, fnv64(&f.spec.name), f.checkpoint_seq);
        f.checkpoint_seq += 1;
        let device = u32::try_from(idx).unwrap_or(u32::MAX);
        f.fabric_home = Some(device);
        *self.report.fabric_placements.entry(device).or_insert(0) += 1;
        cxl_telemetry::counter_add("cxlporter", "fabric.placement", Some(device), 1);
        let link: Arc<dyn cxl_mem::FabricLink> = pool.topology().clone();
        self.cluster.device.attach_fabric(Some((link, device)));
    }

    /// Routes fabric charges to the device `function`'s image landed on
    /// (no-op if the function was never placed — e.g. restored from an
    /// adopted store — in which case the last routing stays in effect).
    fn route_fabric_for_restore(&mut self, function: FnId) {
        let Some(pool) = &self.device_pool else {
            return;
        };
        if let Some(device) = self.functions[function].fabric_home {
            let link: Arc<dyn cxl_mem::FabricLink> = pool.topology().clone();
            self.cluster.device.attach_fabric(Some((link, device)));
        }
    }

    /// Adopts a checkpoint store recovered from a dead coordinator's
    /// journal (see [`cxl_store::Store::recover`] — the caller runs it
    /// so the same `Arc` can also be wired into the mechanism, e.g.
    /// `CxlFork::with_store`): installs `store` as this porter's image
    /// store, re-leases every recovered committed image to `adopter`
    /// (so the watermark GC cannot reclaim them before their functions
    /// re-register), and charges the replay traffic — one batched read
    /// of the scanned journal pages plus one batched write of the
    /// compacted snapshot — to `adopter`'s clock.
    ///
    /// Post-failover re-checkpoints then dedup against the recovered
    /// index instead of re-copying every page cold; the adoption lands
    /// in the report as `recovered_images` and `journal_replay_ns`.
    ///
    /// # Panics
    ///
    /// If `adopter` is not a node of this cluster, or `store` is not
    /// backed by this cluster's device.
    pub fn adopt_recovered_store(
        &mut self,
        store: Arc<cxl_store::Store>,
        recovery: &cxl_store::RecoveryReport,
        adopter: NodeId,
    ) {
        let node = adopter.0 as usize;
        assert!(
            node < self.cluster.nodes.len(),
            "adopter must be a cluster node"
        );
        assert!(
            Arc::ptr_eq(store.device(), &self.cluster.device),
            "adopted store must live on this cluster's device"
        );
        let model = self.cluster.nodes[node].model();
        let replay = model.cxl_batch_read(recovery.pages_scanned)
            + model.cxl_batch_write(recovery.compaction_pages_written);
        self.cluster.nodes[node].clock_mut().advance(replay);
        let now = self.cluster.nodes[node].now();
        self.leases.renew(adopter, now);
        for image in store.images() {
            store
                .set_lease(image, Some(adopter))
                .expect("recovered catalog lists only committed images");
        }
        self.report.recovered_images += recovery.committed_images;
        self.report.journal_replay_ns += replay.as_nanos();
        if cxl_telemetry::is_armed() {
            cxl_telemetry::counter_add(
                "cxlporter",
                "recovered_images",
                None,
                recovery.committed_images,
            );
            cxl_telemetry::counter_add("cxlporter", "journal_replay_ns", None, replay.as_nanos());
        }
        self.image_store = Some(store);
    }

    /// Installs the node-crash schedule [`run_trace`](Self::run_trace)
    /// consumes: each due crash kills a node mid-run and the porter fails
    /// its work over to the survivors.
    pub fn set_crash_schedule(&mut self, schedule: CrashSchedule) {
        self.crash_schedule = schedule;
    }

    /// Excludes requests arriving before `t` from the latency histograms
    /// and counters (they still execute and warm the system). The
    /// evaluation warms every function past its checkpoint before
    /// measuring, so the steady-state tail is not polluted by first-ever
    /// deployments.
    pub fn set_measure_from(&mut self, t: SimTime) {
        self.measure_from = t;
    }

    /// The underlying mechanism.
    pub fn mechanism(&self) -> &M {
        &self.mech
    }

    /// Runs a trace to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the trace is out of order (see
    /// [`try_run_trace`](Self::try_run_trace) for the fallible form).
    pub fn run_trace(&mut self, trace: &[Invocation]) -> PorterReport {
        match self.try_run_trace(trace) {
            Ok(report) => report,
            Err(e) => panic!("invalid trace: {e}"),
        }
    }

    /// Runs a trace to completion by draining one event queue.
    ///
    /// The trace is validated first: arrival times must be
    /// non-decreasing. A queue-driven replay would otherwise silently
    /// *reorder* an out-of-order trace (the heap dispatches by time),
    /// diverging from what the caller generated — so the porter refuses
    /// it instead.
    ///
    /// Scheduling: every crash due within the trace horizon and every
    /// arrival becomes an event in one `(time, seq)`-ordered queue;
    /// fairness deferrals (when [`PorterConfig::fairness`] is set)
    /// re-enqueue dispatches mid-run. With fairness off, the event
    /// order — and therefore the report — is bit-identical to the
    /// historical straight-line replay.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfOrder`] for a non-monotonic trace;
    /// nothing is dispatched in that case.
    pub fn try_run_trace(&mut self, trace: &[Invocation]) -> Result<PorterReport, TraceError> {
        for (i, w) in trace.windows(2).enumerate() {
            if w[1].time < w[0].time {
                return Err(TraceError::OutOfOrder {
                    index: i + 1,
                    time: w[1].time,
                    prev: w[0].time,
                });
            }
        }
        if let Some(last) = trace.last() {
            let mut queue = EventQueue::new();
            // Crashes first: lower seq than any same-instant arrival,
            // matching the old loop's inclusive `due(inv.time)` drain.
            // Crashes beyond the last arrival stay pending in the
            // schedule, exactly as the straight-line replay left them.
            for crash in self.crash_schedule.due(last.time) {
                queue.push(crash.at, PorterEvent::Crash(crash));
            }
            for (idx, inv) in trace.iter().enumerate() {
                queue.push(inv.time, PorterEvent::Arrival(idx));
            }
            // The dispatch loop. Handlers may push follow-up events, but
            // never into the past of the event being dispatched: results
            // would then depend on dispatch interleaving.
            let mut now = SimTime::ZERO;
            while let Some(ev) = queue.pop() {
                assert!(
                    ev.at >= now,
                    "event queue dispatched backwards: {} after {}",
                    ev.at.as_nanos(),
                    now.as_nanos()
                );
                now = ev.at;
                self.report.engine_events += 1;
                match ev.event {
                    PorterEvent::Crash(crash) => self.handle_crash(crash),
                    PorterEvent::Arrival(idx) => {
                        let inv = &trace[idx];
                        self.maintenance_tick(inv.time);
                        self.dispatch_arrival(inv, idx, 0, &mut queue);
                    }
                    PorterEvent::Deferred { idx, attempts } => {
                        self.maintenance_tick(ev.at);
                        let retry = Invocation {
                            time: ev.at,
                            function: trace[idx].function.clone(),
                            owner: trace[idx].owner,
                        };
                        self.dispatch_arrival(&retry, idx, attempts, &mut queue);
                    }
                }
            }
        }
        let mut report = std::mem::take(&mut self.report);
        // Backstop GC: a crash after the last maintenance tick may have
        // left staging orphans the lease pass never saw.
        let dead: Vec<NodeId> = (0..self.cluster.nodes.len())
            .filter(|&i| self.cluster.is_failed(i))
            .map(|i| NodeId(i as u32))
            .collect();
        if !dead.is_empty() {
            let r = reclaim_dead(&self.cluster.device, &dead);
            report.orphan_regions_reclaimed += r.regions;
            report.orphan_pages_reclaimed += r.pages;
        }
        report.device_retries = self
            .cluster
            .nodes
            .iter()
            .map(|n| n.counters().get("cxl_transient_retry"))
            .sum();
        report.peak_local_pages = self
            .cluster
            .nodes
            .iter()
            .map(|n| n.frames().peak_used())
            .collect();
        report.final_cxl_pages = self.cluster.device.used_pages();
        if let Some(istore) = &self.image_store {
            report.store_deduped_pages = istore.stats().deduped_pages;
        }
        // Post-condition (`check` builds): a full trace must leave every
        // memory ledger in the cluster balanced.
        #[cfg(feature = "check")]
        {
            let violations = self.audit();
            assert!(
                violations.is_empty(),
                "cluster invariants violated after trace: {violations:?}"
            );
        }
        Ok(report)
    }

    /// Dispatches one (possibly deferred) arrival, metering the owner's
    /// fairness quota first when one is configured.
    fn dispatch_arrival(
        &mut self,
        inv: &Invocation,
        idx: usize,
        attempts: u32,
        queue: &mut EventQueue<PorterEvent>,
    ) {
        if let Some(fairness) = self.config.fairness {
            let (busy, next_free) = self.owner_busy(inv.owner, inv.time);
            if busy >= fairness.max_inflight_per_owner {
                match next_free {
                    Some(at) if attempts < fairness.max_deferrals => {
                        self.report.fair_deferrals += 1;
                        queue.push(
                            at,
                            PorterEvent::Deferred {
                                idx,
                                attempts: attempts + 1,
                            },
                        );
                    }
                    _ => {
                        // Budget exhausted — or a zero quota, which has
                        // no busy instance to wait on.
                        self.report.fair_drops += 1;
                    }
                }
                return;
            }
        }
        let dropped_before = self.report.dropped;
        self.handle(inv);
        if self.report.dropped == dropped_before {
            *self.report.per_owner_served.entry(inv.owner).or_default() += 1;
        }
    }

    /// Counts `owner`'s busy instances at `now` and the earliest
    /// instant one of them frees up.
    fn owner_busy(&self, owner: u32, now: SimTime) -> (usize, Option<SimTime>) {
        let mut busy = 0;
        let mut next_free: Option<SimTime> = None;
        for inst in &self.instances {
            if inst.owner == owner && inst.busy_until > now {
                busy += 1;
                next_free = Some(next_free.map_or(inst.busy_until, |t| t.min(inst.busy_until)));
            }
        }
        (busy, next_free)
    }

    /// Store images some live instance was restored from: their device
    /// pages are still mapped by running processes, so capacity
    /// eviction must not free them (even when the image's lease holder
    /// has crashed — the restores outlive the checkpointing node).
    fn referenced_images(&self) -> std::collections::BTreeSet<u64> {
        self.instances.iter().filter_map(|i| i.image).collect()
    }

    fn maintenance_tick(&mut self, now: SimTime) {
        if now - self.last_maintenance >= self.config.maintenance_interval {
            self.last_maintenance = now;
            // Liveness: every surviving node renews its lease, then one
            // GC pass reclaims staging regions whose owner's lease has
            // lapsed (crashed nodes stop renewing).
            let live: Vec<usize> = self.cluster.live_nodes().collect();
            for &idx in &live {
                self.leases.renew(NodeId(idx as u32), now);
            }
            let r = reclaim_orphans(&self.cluster.device, &self.leases, now);
            self.report.orphan_regions_reclaimed += r.regions;
            self.report.orphan_pages_reclaimed += r.pages;
            let referenced = self.referenced_images();
            if let Some(istore) = &self.image_store {
                // Capacity-pressure GC: pending images whose writer's
                // lease lapsed roll back first, then LRU watermark
                // eviction (lease-protected images of live nodes and
                // images still mapped by running restores survive; a
                // crashed node's unreferenced images are fair game).
                istore.reclaim_orphan_pending(&self.leases, now);
                let evicted = istore.evict_to_low_watermark_except(&self.leases, now, &referenced);
                self.report.image_evictions += evicted.images;
            }
            for (_, entry) in self.store.iter() {
                self.mech.maintain(&entry.checkpoint);
            }
        }
    }

    /// Fails `crash.node` over to the surviving nodes: tears down every
    /// instance and ghost on the dead node, revokes its lease (so its
    /// staging orphans become reclaimable immediately), and re-dispatches
    /// the invocations that were executing at the instant of the crash.
    ///
    /// Exactly-once accounting: a crashed in-flight invocation either
    /// re-runs once on a survivor (`redispatched`) or is counted in
    /// `work_lost` — never both, and never silently dropped. The CXL
    /// device survives the crash, so published checkpoints keep serving
    /// restores; a crash `mid_checkpoint` leaves a torn staging region
    /// behind that two-phase commit keeps invisible to restores until the
    /// lease GC destroys it.
    fn handle_crash(&mut self, crash: NodeCrash) {
        let node = crash.node;
        if node >= self.cluster.nodes.len() || self.cluster.is_failed(node) {
            return;
        }
        if crash.mid_checkpoint {
            // The node dies partway through a checkpoint copy: its
            // staging region stays uncommitted (invisible to restores)
            // and its pages are stranded until reclamation.
            self.torn_epoch += 1;
            let region = self.cluster.device.create_region_staged(
                &format!("crash:n{node}#torn{}", self.torn_epoch),
                NodeId(node as u32),
                self.torn_epoch,
            );
            let _ = self.cluster.device.alloc_batch(region, 4);
        }

        // Tear down everything on the dead node. Containers are destroyed
        // outright (their host is gone), never recycled into a pool.
        let mut in_flight: Vec<(String, u32)> = Vec::new();
        let mut idx = 0;
        while idx < self.instances.len() {
            if self.instances[idx].node == node {
                let inst = self.instances.swap_remove(idx);
                if inst.busy_until > crash.at {
                    let name = self.functions[inst.function].spec.name.clone();
                    in_flight.push((name, inst.owner));
                }
                let mut container = inst.container;
                let _ = container.recycle(&mut self.cluster.nodes[node]);
                let _ = container.destroy(&mut self.cluster.nodes[node]);
            } else {
                idx += 1;
            }
        }
        let ghosts: Vec<Container> = self.ghost_pools[node].drain(..).collect();
        for ghost in ghosts {
            let _ = ghost.destroy(&mut self.cluster.nodes[node]);
        }
        self.cluster.nodes[node].drop_page_cache();
        self.cluster.mark_failed(node);
        self.leases.revoke(NodeId(node as u32));
        self.report.crashes_survived += 1;

        // Re-dispatch: each lost invocation re-enters the normal
        // dispatch path at the crash instant. A retry the survivors
        // cannot place is lost work, not a dropped request.
        let redispatched_before = self.report.redispatched;
        let lost_before = self.report.work_lost;
        in_flight.sort();
        for (function, owner) in in_flight {
            let retry = Invocation {
                time: crash.at,
                function,
                owner,
            };
            let dropped_before = self.report.dropped;
            self.handle(&retry);
            if self.report.dropped > dropped_before {
                self.report.dropped = dropped_before;
                self.report.work_lost += 1;
            } else {
                self.report.redispatched += 1;
            }
        }
        if cxl_telemetry::is_armed() {
            cxl_telemetry::counter_add("cxlporter", "crashes_survived", None, 1);
            let redispatched = self.report.redispatched - redispatched_before;
            if redispatched > 0 {
                cxl_telemetry::counter_add("cxlporter", "redispatched", None, redispatched);
            }
            let lost = self.report.work_lost - lost_before;
            if lost > 0 {
                cxl_telemetry::counter_add("cxlporter", "work_lost", None, lost);
            }
        }
    }

    fn handle(&mut self, inv: &Invocation) {
        let Some(function) = self.function_id(&inv.function) else {
            return;
        };
        let spec = Arc::clone(&self.functions[function].spec);
        let now = inv.time;
        self.evict_expired(now);

        // Warm path: an idle instance of this function.
        if let Some(at) = self.find_idle(function, now) {
            let i = &self.instances[at];
            let (id, node, pid, inv_idx) = (i.id, i.node, i.pid, i.invocations);
            self.note_queue_wait(node, now);
            self.cluster.nodes[node].clock_mut().advance_to(now);
            debug_assert!(!self.cluster.is_failed(node), "dispatch to a crashed node");
            match self.invoke_with_reclaim(node, pid, &spec, inv_idx, now) {
                Some(result) => {
                    self.report.warm_hits += 1;
                    cxl_telemetry::counter_add("cxlporter", "warm_hits", None, 1);
                    self.finish(id, now, SimDuration::ZERO, result, &spec, true);
                }
                None => {
                    self.drop_instance_by_id(id);
                    self.report.dropped += 1;
                }
            }
            return;
        }

        // Cold path.
        let filed_under = self.functions[function].filed_under;
        match self.cold_start(&spec, filed_under, now, inv.owner) {
            Some((id, startup)) => {
                let (node, pid) = {
                    let i = self.instance(id).expect("just created");
                    (i.node, i.pid)
                };
                match self.invoke_with_reclaim(node, pid, &spec, 0, now) {
                    Some(result) => {
                        self.finish(id, now, startup, result, &spec, false);
                    }
                    None => {
                        self.drop_instance_by_id(id);
                        self.report.dropped += 1;
                    }
                }
            }
            None => {
                self.report.dropped += 1;
            }
        }
    }

    /// Records how long the invocation waited for its target node's
    /// virtual clock (the node is still busy with earlier work) — the
    /// queueing portion of the request timeline.
    fn note_queue_wait(&self, node: usize, now: SimTime) {
        if !cxl_telemetry::is_armed() {
            return;
        }
        let node_now = self.cluster.nodes[node].now();
        if node_now > now {
            let track = node as u32;
            cxl_telemetry::record_span("cxlporter.queue", track, now, node_now, &[]);
            cxl_telemetry::timer_record("cxlporter", "queue.latency", Some(track), node_now - now);
        }
    }

    fn instance(&self, id: u64) -> Option<&Instance> {
        self.instances.iter().find(|i| i.id == id)
    }

    fn instance_pos(&self, id: u64) -> Option<usize> {
        self.instances.iter().position(|i| i.id == id)
    }

    /// Completes a request: records latency, schedules the instance,
    /// clears A/D bits after the first invocation, and checkpoints after
    /// the sixteenth (§5).
    fn finish(
        &mut self,
        id: u64,
        now: SimTime,
        startup: SimDuration,
        result: faas::InvocationResult,
        spec: &FunctionSpec,
        warm: bool,
    ) {
        let latency = startup + result.total;
        let idx = self
            .instance_pos(id)
            .expect("instance survives its own invocation (reclaim excludes it)");
        let inst = &mut self.instances[idx];
        inst.invocations += 1;
        inst.busy_until = now + latency;
        inst.last_used = inst.busy_until;
        let (function, last_used) = (inst.function, inst.last_used);
        let node = inst.node;
        let pid = inst.pid;
        let invocations = inst.invocations;
        let cold_started = inst.cold_started;
        self.note_last_used(function, last_used);

        if now >= self.measure_from {
            // Probe first: `entry` would clone the name per invocation.
            let per_function = &mut self.report.per_function;
            match per_function.get_mut(&spec.name) {
                Some(histogram) => histogram.record(latency),
                None => (per_function.entry(spec.name.clone()).or_default()).record(latency),
            }
            self.report.overall.record(latency);
            if cxl_telemetry::is_armed() {
                cxl_telemetry::timer_record("cxlporter", "e2e", None, latency);
                cxl_telemetry::timer_record(
                    "cxlporter",
                    &format!("e2e.{}", spec.name),
                    None,
                    latency,
                );
            }
        }
        let slo_factor = self.config.slo_factor;
        let stats = &mut self.functions[function].stats;
        stats.observe(latency, warm);
        if warm {
            stats.note_breach(latency, slo_factor);
        }

        if cold_started {
            if invocations == 1 {
                // §5: clear A/D after the first invocation so the bits
                // capture the steady state.
                let _ = faas::engine::clear_ad_bits(&mut self.cluster.nodes[node], pid);
            }
            if invocations == self.config.checkpoint_after && !self.store.contains(&spec.name) {
                // Make room first if the device is short (a checkpoint
                // needs roughly the footprint plus metadata).
                self.reclaim_cxl_for(
                    spec.footprint_pages() + spec.footprint_pages() / 16,
                    "",
                    now,
                );
                self.route_fabric_for_checkpoint(function);
                let ckpt = match self.mech.checkpoint(&mut self.cluster.nodes[node], pid) {
                    Ok(c) => Some(c),
                    Err(_) => {
                        // Device full: evict everything evictable and retry
                        // once.
                        self.reclaim_cxl_for(u64::MAX, "", now);
                        self.mech
                            .checkpoint(&mut self.cluster.nodes[node], pid)
                            .ok()
                    }
                };
                if let Some(ckpt) = ckpt {
                    if let Some(istore) = &self.image_store {
                        if let Some(image) = self.mech.image_id(&ckpt) {
                            // Lease-protect the published image: the
                            // watermark GC only reclaims it once its
                            // owner node stops renewing (crash) or the
                            // porter releases the checkpoint.
                            istore
                                .set_lease(ImageId(image), Some(NodeId(node as u32)))
                                .expect("freshly published image is committed");
                        }
                    }
                    self.store.put(&spec.name, ckpt, now);
                    self.report.checkpoints += 1;
                    cxl_telemetry::counter_add("cxlporter", "checkpoints", None, 1);
                    self.reclaim_cxl_pressure(&spec.name);
                }
            }
        }
    }

    /// Position of the most recently used idle instance of `function`.
    fn find_idle(&self, function: FnId, now: SimTime) -> Option<usize> {
        self.instances
            .iter()
            .enumerate()
            .filter(|(_, i)| i.function == function && i.busy_until <= now)
            .max_by_key(|(_, i)| i.last_used)
            .map(|(at, _)| at)
    }

    /// Runs an invocation, reclaiming idle instances on OOM (the
    /// memory-constrained runtime "has to recycle containers to serve
    /// requests", §7.2).
    fn invoke_with_reclaim(
        &mut self,
        node: usize,
        pid: Pid,
        spec: &FunctionSpec,
        inv_idx: u64,
        now: SimTime,
    ) -> Option<faas::InvocationResult> {
        for _attempt in 0..3 {
            match faas::run_invocation(&mut self.cluster.nodes[node], pid, spec, inv_idx) {
                Ok(r) => return Some(r),
                Err(OsError::OutOfMemory { .. }) => {
                    if !self.reclaim_one(node, now, Some(pid)) {
                        return None;
                    }
                }
                Err(_) => return None,
            }
        }
        None
    }

    /// Cold start: restore from checkpoint if one exists, else full cold
    /// deployment. Returns the instance index and the startup latency.
    fn cold_start(
        &mut self,
        spec: &FunctionSpec,
        function: FnId,
        now: SimTime,
        owner: u32,
    ) -> Option<(u64, SimDuration)> {
        let node = self.cluster.least_loaded()?;
        debug_assert!(!self.cluster.is_failed(node), "placement on a crashed node");
        self.note_queue_wait(node, now);
        self.cluster.nodes[node].clock_mut().advance_to(now);

        // Re-checkpoint-on-miss: the store's capacity GC may have
        // evicted the image backing this function's checkpoint (its
        // owner crashed, or pressure outran the lease). Drop the stale
        // entry and fall through to a cold deployment, which
        // re-checkpoints on the usual schedule.
        if let Some(istore) = self.image_store.clone() {
            let stale = self.store.get(&spec.name).is_some_and(|entry| {
                self.mech
                    .image_id(&entry.checkpoint)
                    .is_some_and(|image| !istore.is_live(ImageId(image)))
            });
            if stale {
                if let Some(ckpt) = self.store.remove(&spec.name) {
                    let _ = self
                        .mech
                        .release_checkpoint(ckpt, &self.cluster.nodes[node]);
                }
                self.report.image_misses += 1;
                cxl_telemetry::counter_add("cxlporter", "image_misses", None, 1);
            }
        }

        if self.store.contains(&spec.name) {
            let options = self.choose_options(function, node);
            if options.policy == TierPolicy::Hybrid {
                self.report.hybrid_restores += 1;
            }
            // Memory pre-check against the policy's expected consumption.
            let estimate = {
                let entry = self.store.get(&spec.name).expect("checked above");
                self.mech
                    .restore_memory_estimate(&entry.checkpoint, options)
            };
            self.ensure_free(node, estimate + faas::BARE_CONTAINER_PAGES, now);

            let (container, container_cost) = self.claim_container(node, now)?;
            self.route_fabric_for_restore(function);
            // Placement + restore span; the mechanism's own
            // `core.restore` phase spans nest underneath it.
            cxl_telemetry::span_open(
                "cxlporter.restore",
                node as u32,
                self.cluster.nodes[node].now(),
                &[],
            );
            let restored = {
                let entry = self
                    .store
                    .get_for_restore(&spec.name)
                    .expect("checked above");
                self.mech
                    .restore_with(&entry.checkpoint, &mut self.cluster.nodes[node], options)
            };
            cxl_telemetry::span_close(node as u32, self.cluster.nodes[node].now());
            match restored {
                Ok(r) => {
                    let mut container = container;
                    container.attach_process(&spec.name, r.pid);
                    let id = self.next_instance_id;
                    self.next_instance_id += 1;
                    let image = self
                        .store
                        .get(&spec.name)
                        .and_then(|entry| self.mech.image_id(&entry.checkpoint));
                    self.admit(Instance {
                        id,
                        node,
                        container,
                        pid: r.pid,
                        function,
                        owner,
                        busy_until: now,
                        last_used: now,
                        invocations: 0,
                        cold_started: false,
                        image,
                    });
                    self.report.restores += 1;
                    if cxl_telemetry::is_armed() {
                        cxl_telemetry::counter_add("cxlporter", "restores", None, 1);
                        cxl_telemetry::timer_record(
                            "cxlporter",
                            "startup.latency",
                            Some(node as u32),
                            container_cost + r.restore_latency,
                        );
                    }
                    Some((id, container_cost + r.restore_latency))
                }
                Err(_) => {
                    // Give the container back and drop the request.
                    self.return_container(node, container);
                    None
                }
            }
        } else {
            // First-ever deployment: full container + state init.
            self.ensure_free(
                node,
                spec.footprint_pages() + faas::BARE_CONTAINER_PAGES,
                now,
            );
            let (container, container_cost) = self.create_container(node)?;
            cxl_telemetry::span_open(
                "cxlporter.cold_deploy",
                node as u32,
                self.cluster.nodes[node].now(),
                &[],
            );
            let deployed = faas::deploy_cold(&mut self.cluster.nodes[node], spec);
            cxl_telemetry::span_close(node as u32, self.cluster.nodes[node].now());
            match deployed {
                Ok((pid, init)) => {
                    let mut container = container;
                    container.attach_process(&spec.name, pid);
                    let id = self.next_instance_id;
                    self.next_instance_id += 1;
                    self.admit(Instance {
                        id,
                        node,
                        container,
                        pid,
                        function,
                        owner,
                        busy_until: now,
                        last_used: now,
                        invocations: 0,
                        cold_started: true,
                        image: None,
                    });
                    self.report.full_cold += 1;
                    if cxl_telemetry::is_armed() {
                        cxl_telemetry::counter_add("cxlporter", "full_cold", None, 1);
                        cxl_telemetry::timer_record(
                            "cxlporter",
                            "startup.latency",
                            Some(node as u32),
                            container_cost + init.total,
                        );
                    }
                    Some((id, container_cost + init.total))
                }
                Err(_) => {
                    self.return_container(node, container);
                    None
                }
            }
        }
    }

    /// SLO- and memory-driven tiering choice (§5).
    fn choose_options(&self, function: FnId, node: usize) -> RestoreOptions {
        if !self.config.dynamic_tiering {
            return match self.config.static_policy {
                TierPolicy::MigrateOnWrite => RestoreOptions::mow(),
                TierPolicy::MigrateOnAccess => RestoreOptions::moa(),
                TierPolicy::Hybrid => RestoreOptions::hybrid(),
            };
        }
        let util = self.cluster.nodes[node].frames().utilization();
        if util >= self.config.high_mem_threshold {
            // HighMem: no more hybrid promotions (§5).
            return RestoreOptions::mow();
        }
        let stats = &self.functions[function].stats;
        if stats.over_slo(self.config.slo_factor) {
            return RestoreOptions::hybrid();
        }
        RestoreOptions::mow()
    }

    /// Reclaims the coldest stored checkpoints while the CXL device is
    /// over the pressure threshold (§5). Never evicts `keep` (the
    /// checkpoint that was just stored).
    fn reclaim_cxl_pressure(&mut self, keep: &str) {
        while self.cluster.device.utilization() > self.config.cxl_reclaim_threshold {
            if !self.evict_coldest(keep) {
                break;
            }
        }
    }

    /// Reclaims coldest checkpoints until at least `pages` device pages
    /// are free (best effort). With an image store attached, its
    /// unprotected images (crashed owners, lease lapses) go first —
    /// they serve no restorable checkpoint — before live checkpoints
    /// are sacrificed.
    fn reclaim_cxl_for(&mut self, pages: u64, keep: &str, now: SimTime) {
        if let Some(istore) = self.image_store.clone() {
            let referenced = self.referenced_images();
            let evicted = istore.evict_for_except(pages, &self.leases, now, &referenced);
            self.report.image_evictions += evicted.images;
        }
        while self.cluster.device.free_pages() < pages {
            if !self.evict_coldest(keep) {
                break;
            }
        }
    }

    fn evict_coldest(&mut self, keep: &str) -> bool {
        let victim = self
            .store
            .iter()
            .filter(|(f, _)| *f != keep)
            .min_by_key(|(_, s)| s.restores)
            .map(|(f, _)| f.to_owned());
        let Some(victim) = victim else { return false };
        match self.store.remove(&victim) {
            Some(ckpt) => {
                let _ = self.mech.release_checkpoint(ckpt, &self.cluster.nodes[0]);
                self.report.checkpoint_reclaims += 1;
                true
            }
            None => false,
        }
    }

    fn claim_container(&mut self, node: usize, now: SimTime) -> Option<(Container, SimDuration)> {
        if self.config.use_ghost_containers {
            if let Some(c) = self.ghost_pools[node].pop() {
                let cost = c.trigger(&mut self.cluster.nodes[node]);
                // Background workers replenish the pool off the critical
                // path (§5: CXLporter "provisions and caches" the ghosts);
                // the ~130 ms creation cost is charged to the node's clock
                // but never to a request.
                let id = self.next_container_id;
                self.next_container_id += 1;
                if let Ok((fresh, _)) = Container::create(&mut self.cluster.nodes[node], id) {
                    self.ghost_pools[node].push(fresh);
                }
                return Some((c, cost));
            }
        }
        let created = self.create_container(node);
        if created.is_none() {
            // Last resort: reclaim and retry once.
            if self.reclaim_one(node, now, None) {
                return self.create_container(node);
            }
        }
        created
    }

    fn create_container(&mut self, node: usize) -> Option<(Container, SimDuration)> {
        let id = self.next_container_id;
        self.next_container_id += 1;
        Container::create(&mut self.cluster.nodes[node], id).ok()
    }

    fn return_container(&mut self, node: usize, container: Container) {
        if self.config.use_ghost_containers
            && self.ghost_pools[node].len() < self.config.ghost_pool_per_node
        {
            self.ghost_pools[node].push(container);
        } else {
            let _ = container.destroy(&mut self.cluster.nodes[node]);
        }
    }

    /// Reclaims idle instances on `node` until at least `pages` frames
    /// are free (best effort).
    fn ensure_free(&mut self, node: usize, pages: u64, now: SimTime) {
        while self.cluster.nodes[node].frames().available() < pages {
            if !self.reclaim_one(node, now, None) {
                break;
            }
        }
    }

    /// Kills the least-recently-used idle instance on `node`. Returns
    /// `false` if none exists.
    fn reclaim_one(&mut self, node: usize, now: SimTime, exclude_pid: Option<Pid>) -> bool {
        let victim = self
            .instances
            .iter()
            .enumerate()
            .filter(|(_, i)| i.node == node && i.busy_until <= now && Some(i.pid) != exclude_pid)
            .min_by_key(|(_, i)| i.last_used)
            .map(|(idx, _)| idx);
        match victim {
            Some(idx) => {
                self.drop_instance(idx);
                self.report.recycles += 1;
                true
            }
            None => {
                // No idle instance: drop the node's clean page cache (the
                // OS reclamation path for file pages).
                self.cluster.nodes[node].drop_page_cache() > 0
            }
        }
    }

    /// Evicts idle instances past their keep-alive window; the window
    /// shrinks to 10 s on pressured nodes (§5). Arrivals at or before the
    /// expiry floor skip the scan: nothing can have expired yet.
    fn evict_expired(&mut self, now: SimTime) {
        if now <= self.expiry_floor.pressured {
            return;
        }
        let threshold = self.config.high_mem_threshold;
        let pressured = |node: &node_os::Node| node.frames().utilization() >= threshold;
        if now <= self.expiry_floor.calm && !self.cluster.nodes.iter().any(pressured) {
            return;
        }
        let mut floor = ExpiryFloor::NEVER;
        let mut idx = 0;
        while idx < self.instances.len() {
            let i = &self.instances[idx];
            let own = self.functions[i.function].keep_alive;
            let window = if pressured(&self.cluster.nodes[i.node]) {
                self.config.pressure_keep_alive
            } else {
                own
            };
            if i.busy_until <= now && now - i.last_used > window {
                self.drop_instance(idx);
            } else {
                floor.cover(i.last_used, own, self.config.pressure_keep_alive);
                idx += 1;
            }
        }
        self.expiry_floor = floor;
    }

    /// Kills an instance (looked up by stable id) and recycles its
    /// container.
    fn drop_instance_by_id(&mut self, id: u64) {
        if let Some(idx) = self.instance_pos(id) {
            self.drop_instance(idx);
        }
    }

    /// Kills an instance and recycles its container.
    fn drop_instance(&mut self, idx: usize) {
        let mut inst = self.instances.swap_remove(idx);
        let node = inst.node;
        let _ = inst.container.recycle(&mut self.cluster.nodes[node]);
        self.return_container(node, inst.container);
    }

    /// Live instance count (for tests and reports).
    pub fn live_instances(&self) -> usize {
        self.instances.len()
    }

    /// Number of checkpoints stored.
    pub fn stored_checkpoints(&self) -> usize {
        self.store.len()
    }

    /// The checkpoint object store (for audits and tests).
    pub fn store(&self) -> &ObjectStore<M::Checkpoint> {
        &self.store
    }

    /// Runs the cross-layer invariant audit over the whole deployment:
    /// every node's memory ledgers, the shared device's region
    /// accounting, and the recorded lock-order graph. Returns every
    /// violation found (empty = clean). Only available with the `check`
    /// feature.
    #[cfg(feature = "check")]
    pub fn audit(&self) -> Vec<cxl_check::Violation> {
        let mut out = Vec::new();
        for (idx, node) in self.cluster.nodes.iter().enumerate() {
            // Containers pin their bare 512 KiB footprint outside any
            // process; declare those frames so the refcount balance
            // closes.
            let pins = self.ghost_pools[idx]
                .iter()
                .chain(
                    self.instances
                        .iter()
                        .filter(|i| i.node == idx)
                        .map(|i| &i.container),
                )
                .flat_map(|c| c.pinned_frames().iter().copied());
            out.extend(
                cxl_check::NodeAudit::new(node)
                    .with_external_refs(pins)
                    .run(),
            );
        }
        out.extend(cxl_check::audit_device(&self.cluster.device));
        if let Some(istore) = &self.image_store {
            out.extend(cxl_check::audit_store(istore));
        }
        out.extend(cxl_check::audit_staging(
            &self.cluster.device,
            self.cluster.live_nodes().map(|i| NodeId(i as u32)),
        ));
        out.extend(cxl_check::check_lock_order());
        out
    }
}

/// FNV-1a over the function name: a stable, platform-independent seed
/// for locality placement (`std` hashers are randomized per process,
/// which would break run-to-run determinism).
fn fnv64(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlfork::CxlFork;
    use node_os::mm::Access;
    use node_os::vma::Protection;
    use simclock::LatencyModel;

    const NODE_MEM_MIB: u64 = 128;

    fn one_node_porter(config: PorterConfig) -> CxlPorter<CxlFork> {
        let cluster = Cluster::new(1, NODE_MEM_MIB, 1024, LatencyModel::calibrated());
        CxlPorter::new(cluster, CxlFork::new(), config)
    }

    /// Serves one `Float` arrival at t = 0 and returns when its instance
    /// went idle.
    fn one_idle_instance(porter: &mut CxlPorter<CxlFork>) -> SimTime {
        porter.handle(&Invocation {
            time: SimTime::ZERO,
            function: "Float".into(),
            owner: 0,
        });
        assert_eq!(porter.live_instances(), 1);
        porter.instances[0].last_used
    }

    /// What a scan at `now` would leave alive, whatever the floor says.
    fn alive_after_forced_scan(porter: &mut CxlPorter<CxlFork>, now: SimTime) -> usize {
        porter.expiry_floor.calm = SimTime::ZERO;
        porter.expiry_floor.pressured = SimTime::ZERO;
        porter.evict_expired(now);
        porter.live_instances()
    }

    const TICK: SimDuration = SimDuration::from_nanos(1);

    #[test]
    fn idle_instance_expires_one_nanosecond_past_the_expiry_floor() {
        // A window below the 10 s pressure one: both floors are the
        // instant after which the instance is expired.
        let window = SimDuration::from_secs(5);
        let mut porter = one_node_porter(PorterConfig {
            keep_alive: window,
            ..PorterConfig::cxlfork_dynamic()
        });
        let idle_since = one_idle_instance(&mut porter);
        // Between scans a floor is only lowered: it still stands where
        // the instance's admission at t = 0 put it.
        assert_eq!(porter.expiry_floor.pressured, SimTime::ZERO + window);
        assert_eq!(alive_after_forced_scan(&mut porter, idle_since), 1);
        let floor = ExpiryFloor {
            calm: idle_since + window,
            pressured: idle_since + window,
        };
        assert_eq!(porter.expiry_floor, floor);

        // At the floor the scan is skipped — and would have found nothing.
        porter.evict_expired(floor.calm);
        assert_eq!(porter.live_instances(), 1);
        assert_eq!(alive_after_forced_scan(&mut porter, floor.calm), 1);
        assert_eq!(porter.expiry_floor, floor, "a scan recomputes the same");

        // One nanosecond later the scan runs and the instance is gone.
        porter.evict_expired(floor.calm + TICK);
        assert_eq!(porter.live_instances(), 0);
        assert_eq!(porter.expiry_floor, ExpiryFloor::NEVER);
    }

    #[test]
    fn node_turning_pressured_after_the_floor_was_computed_expires_on_time() {
        let config = PorterConfig::cxlfork_dynamic();
        let (pressure_window, calm_window) = (config.pressure_keep_alive, config.keep_alive);
        assert!(pressure_window < calm_window);
        let mut porter = one_node_porter(config);
        let idle_since = one_idle_instance(&mut porter);

        // A scan while the node is calm keeps the instance: its 600 s
        // window applies, the pressure window only bounds the lower floor.
        let early = idle_since + SimDuration::from_secs(1);
        assert_eq!(alive_after_forced_scan(&mut porter, early), 1);
        let floor = ExpiryFloor {
            calm: idle_since + calm_window,
            pressured: idle_since + pressure_window,
        };
        assert_eq!(porter.expiry_floor, floor);
        // Past the lower floor with every node calm, still no scan (one
        // would recompute the floors) and rightly none.
        let later = floor.pressured + SimDuration::from_secs(1);
        porter.expiry_floor.calm = floor.calm + TICK;
        porter.evict_expired(later);
        assert_eq!(porter.expiry_floor.calm, floor.calm + TICK);
        assert_eq!(alive_after_forced_scan(&mut porter, later), 1);
        assert_eq!(porter.expiry_floor, floor);

        // Only now does the node fill up past the HighMem threshold.
        let node = &mut porter.cluster.nodes[0];
        let hog = node.spawn("hog").unwrap();
        let pages = node.frames().available() * 19 / 20;
        node.process_mut(hog)
            .unwrap()
            .mm
            .map_anonymous(0, pages, Protection::read_write(), "hog")
            .unwrap();
        for vpn in 0..pages {
            node.access(hog, vpn, Access::Write).unwrap();
        }
        assert!(node.frames().utilization() >= porter.config.high_mem_threshold);

        // The floors computed while calm still hold: nothing expires at
        // the lower one, and one nanosecond past it the shrunken window
        // evicts the instance.
        porter.evict_expired(floor.pressured);
        assert_eq!(porter.live_instances(), 1);
        assert_eq!(alive_after_forced_scan(&mut porter, floor.pressured), 1);
        porter.evict_expired(floor.pressured + TICK);
        assert_eq!(porter.live_instances(), 0);
    }
    #[test]
    fn spellings_of_one_function_share_its_fabric_home_and_slo_statistics() {
        use cxl_fabric::{FabricConfig, FabricTopology};
        use cxl_mem::CxlDevice;

        let topology = Arc::new(FabricTopology::new(FabricConfig {
            devices: 2,
            ..FabricConfig::default()
        }));
        let devices = (0..2).map(|_| Arc::new(CxlDevice::new(64))).collect();
        let pool = Arc::new(DevicePool::attach(topology, devices));
        let mut porter = one_node_porter(PorterConfig {
            checkpoint_after: 2,
            // Stripe: a function's nth checkpoint lands on device n mod 2.
            placement: cxl_fabric::PlacementPolicy::Stripe,
            ..PorterConfig::cxlfork_dynamic()
        })
        .with_device_pool(pool);
        let arrive = |porter: &mut CxlPorter<CxlFork>, secs: u64, function: &str| {
            porter.handle(&Invocation {
                time: SimTime::ZERO + SimDuration::from_secs(secs),
                function: function.into(),
                owner: 0,
            });
        };

        // Two arrivals under the catalog's spelling: cold, then warm and
        // checkpointed — the function's first image, on device 0.
        arrive(&mut porter, 0, "Float");
        arrive(&mut porter, 1, "Float");
        assert_eq!(porter.report.checkpoints, 1);
        // The same function spelled differently finds no idle instance
        // (those are matched on the exact spelling) and restores — from
        // the image "Float" placed, charged to the device it was placed on.
        porter.cluster.device.attach_fabric(None);
        arrive(&mut porter, 2, "float");
        assert_eq!(porter.report.restores, 1);
        assert!(porter.cluster.device.fabric_armed(), "routed to its home");

        let (canonical, alias) = (porter.fn_ids["Float"], porter.fn_ids["float"]);
        assert_ne!(canonical, alias);
        assert_eq!(porter.functions[alias].filed_under, canonical);
        assert_eq!(porter.functions[canonical].filed_under, canonical);
        // One set of state, in the entry both are filed under: the
        // alias's own entry never holds any.
        let (kept, unused) = (&porter.functions[canonical], &porter.functions[alias]);
        assert_eq!((kept.checkpoint_seq, kept.fabric_home), (1, Some(0)));
        assert_eq!((unused.checkpoint_seq, unused.fabric_home), (0, None));
        assert!(kept.stats.ewma_ns > 0.0 && kept.stats.min_warm_ns > 0);
        assert_eq!(unused.stats.ewma_ns, 0.0);
        // All three latencies were observed by the one `FnStats`, and
        // filed under the one report key.
        let per_function: Vec<_> = porter.report.per_function.iter().collect();
        assert_eq!(per_function.len(), 1);
        assert_eq!(
            (per_function[0].0.as_str(), per_function[0].1.len()),
            ("Float", 3)
        );
    }
}
