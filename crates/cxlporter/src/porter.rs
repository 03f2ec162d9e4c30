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
//! 2. **an object store of checkpoints** keyed by function: each
//!    function's entry in the porter's function table holds its one
//!    checkpoint;
//! 3. **a pool of ghost containers** — pre-provisioned empty containers
//!    (512 KiB each) that absorb the ≈130 ms container-creation cost;
//! 4. **tiering-policy control** — by default migrate-on-write; functions
//!    whose latency approaches their SLO are promoted to hybrid tiering,
//!    unless node memory exceeds the HighMem threshold (90 %);
//! 5. **dynamic keep-alive windows** — shrunk to 10 s under memory
//!    pressure so idle instances are reclaimed faster.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

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

use faas::{Catalog, Container, FunctionSpec, BARE_CONTAINER_PAGES};

use crate::cluster::Cluster;
use crate::store::StoredCheckpoint;

/// Keep-alive window of an idle instance on a pressured node (§5: 10 s).
const PRESSURE_KEEP_ALIVE: SimDuration = SimDuration::from_secs(10);

/// Local-memory utilization at or above which a node counts as
/// pressured (§5/§6.2: HighMem = 90 %): no hybrid promotions, and the
/// pressure keep-alive window.
const HIGH_MEM_THRESHOLD: f64 = 0.9;

/// SLO multiplier over a function's best observed warm latency.
const SLO_FACTOR: f64 = 1.3;

/// Liveness-lease duration: a node that stops renewing for this long is
/// presumed dead and its checkpoint staging regions reclaimable.
const LEASE_TTL: SimDuration = SimDuration::from_secs(30);

/// Autoscaler configuration.
#[derive(Debug, Clone)]
pub struct PorterConfig {
    /// Checkpoint a function after this many invocations (§5: 16).
    pub checkpoint_after: u64,
    /// Keep-alive window with ample memory (minutes in production; the
    /// paper cites multi-minute windows).
    pub keep_alive: SimDuration,
    /// Ghost containers pre-provisioned per node.
    pub ghost_pool_per_node: usize,
    /// Whether the mechanism restores into ghost containers (CXLfork and
    /// Mitosis do; CRIU "is not compatible with ghost containers", §6.2).
    pub use_ghost_containers: bool,
    /// The tiering policy every restore uses; `None` chooses per restore
    /// from the function's SLO and the node's memory pressure (§5).
    pub tiering: Option<TierPolicy>,
    /// Interval between A-bit maintenance resets.
    pub maintenance_interval: SimDuration,
    /// CXL device utilization above which stored checkpoints are
    /// reclaimed, coldest first (§5: CXLporter "is also responsible for
    /// reclaiming checkpoints under CXL memory pressure").
    pub cxl_reclaim_threshold: f64,
    /// Per-owner fairness quotas for multi-tenant traces. `None` (the
    /// default) disables quota metering entirely and reproduces the
    /// historical dispatch behaviour byte-for-byte.
    pub fairness: Option<FairnessConfig>,
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
            ghost_pool_per_node: 10,
            use_ghost_containers: true,
            tiering: None,
            maintenance_interval: SimDuration::from_secs(10),
            cxl_reclaim_threshold: 0.9,
            fairness: None,
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
            tiering: Some(TierPolicy::MigrateOnWrite),
            ..PorterConfig::default()
        }
    }

    /// Mitosis-CXL: ghost containers, no tiering choice (the mechanism is
    /// inherently migrate-on-access).
    pub fn mitosis() -> Self {
        PorterConfig {
            tiering: Some(TierPolicy::MigrateOnAccess),
            ..PorterConfig::default()
        }
    }

    /// CRIU-CXL: no ghost containers (checkpoints restore from the
    /// filesystem into freshly created containers, §6.2).
    pub fn criu() -> Self {
        PorterConfig {
            use_ghost_containers: false,
            tiering: Some(TierPolicy::MigrateOnWrite),
            ..PorterConfig::default()
        }
    }
}

/// Position of a [`Function`] in the porter's table: what instances and
/// arrivals compare instead of name strings.
type FnId = usize;

/// One function name the porter has seen arrive, resolved once.
#[derive(Debug)]
struct Function<C> {
    /// The catalog entry, exactly as the catalog holds it.
    spec: Arc<FunctionSpec>,
    /// The entry for `spec.name`, under which the function's instances
    /// are filed: the catalog resolves names case-insensitively, idle
    /// instances are matched on the exact spelling.
    filed_under: FnId,
    /// Latency tracking for SLO-driven tiering, kept in the
    /// `filed_under` entry only: however an arrival spells the name, the
    /// function has one set of statistics.
    stats: FnStats,
    /// The function's stored checkpoint, likewise in the `filed_under`
    /// entry only (§5's object store: the evaluation has one tenant, so
    /// the function alone keys it).
    checkpoint: Option<StoredCheckpoint<C>>,
}

/// The expiry floor of an empty instance table: nothing expires, ever.
const NO_INSTANCES: SimTime = SimTime::from_nanos(u64::MAX);

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
    fn note_breach(&mut self, latency: SimDuration) {
        if self.min_warm_ns > 0 && latency.as_nanos() as f64 > self.min_warm_ns as f64 * SLO_FACTOR
        {
            self.slo_breaches += 1;
        }
    }

    /// `true` once warm executions have repeatedly exceeded the SLO
    /// relative to the best observed warm latency (tail-sensitive, as §5's
    /// "monitors the tail and average latency").
    fn over_slo(&self) -> bool {
        self.slo_breaches >= 3
            || (self.min_warm_ns > 0 && self.ewma_warm_ns > self.min_warm_ns as f64 * SLO_FACTOR)
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
    /// Transient CXL device errors absorbed by retry during this run,
    /// summed over nodes.
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
    /// Events the dispatch loop popped during this run (arrivals +
    /// crashes + fairness deferrals).
    pub engine_events: u64,
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

    /// Publishes the run's outcome counts as `cxlporter.*` telemetry
    /// counters, skipping zeros. The report is their only book;
    /// [`CxlPorter::try_run_trace`] publishes each finished report once.
    fn publish(&self) {
        if !cxl_telemetry::is_armed() {
            return;
        }
        for (name, n) in [
            ("warm_hits", self.warm_hits),
            ("restores", self.restores),
            ("full_cold", self.full_cold),
            ("checkpoints", self.checkpoints),
            ("image_misses", self.image_misses),
            ("crashes_survived", self.crashes_survived),
            ("redispatched", self.redispatched),
            ("work_lost", self.work_lost),
            ("recovered_images", self.recovered_images),
            ("journal_replay_ns", self.journal_replay_ns),
        ] {
            if n > 0 {
                cxl_telemetry::counter_add("cxlporter", name, None, n);
            }
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
///
/// // Every ledger in the cluster balances after the run; the frames the
/// // containers pin outside any process are declared to the audit.
/// let c = &porter.cluster;
/// let violations = cxl_check::audit_cluster(
///     c.nodes.iter().enumerate().map(|(i, node)| (node, porter.pinned_frames(i))),
///     &c.device,
///     porter.image_store().map(|s| &**s),
///     c.live_nodes().map(|i| cxl_mem::NodeId(i as u32)),
/// );
/// assert!(violations.is_empty(), "{violations:?}");
/// ```
#[derive(Debug)]
pub struct CxlPorter<M: RemoteFork> {
    mech: M,
    config: PorterConfig,
    /// The cluster (public for post-run inspection).
    pub cluster: Cluster,
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
    /// Built on first use when no scenario installs its own, so a porter
    /// given a catalog never builds the Table 1 suite it would discard.
    catalog: OnceLock<Catalog>,
    /// Every arrival name resolved so far, and where to find it.
    /// `functions` is in first-seen order; a walk that must be in name
    /// order goes through `fn_ids`.
    functions: Vec<Function<M::Checkpoint>>,
    fn_ids: BTreeMap<String, FnId>,
    /// A lower bound on every instance's `last_used`, so no idle instance
    /// can be past its keep-alive window before this plus the window.
    /// [`CxlPorter::evict_expired`] recomputes it on every scan; in
    /// between, admitting an instance lowers it and `last_used` only
    /// ever grows, so it stays a lower bound while instances come and go.
    expiry_floor: SimTime,
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
                let pool_frames = config.ghost_pool_per_node as u64 * BARE_CONTAINER_PAGES;
                node.frames_mut().reserve(pool_frames);
                for _ in 0..config.ghost_pool_per_node {
                    if let Ok((c, _)) = Container::create(node, next_container_id) {
                        next_container_id += 1;
                        pool.push(c);
                    }
                }
            }
            ghost_pools.push(pool);
        }
        let mut leases = LeaseTable::new(LEASE_TTL);
        for idx in 0..cluster.nodes.len() {
            leases.renew(NodeId(idx as u32), SimTime::ZERO);
        }
        CxlPorter {
            mech,
            config,
            cluster,
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
            catalog: OnceLock::new(),
            functions: Vec::new(),
            fn_ids: BTreeMap::new(),
            expiry_floor: NO_INSTANCES,
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
        self.catalog = OnceLock::from(catalog);
        self
    }

    /// The table position of the function an arrival names, resolving
    /// the name against the catalog the first time it is seen. `None` for
    /// names the catalog does not know.
    fn function_id(&mut self, name: &str) -> Option<FnId> {
        if let Some(&id) = self.fn_ids.get(name) {
            return Some(id);
        }
        let spec = Arc::new(self.catalog().get(name)?.clone());
        let id = self.functions.len();
        self.fn_ids.insert(name.to_owned(), id);
        self.functions.push(Function {
            spec: Arc::clone(&spec),
            filed_under: id,
            stats: FnStats::default(),
            checkpoint: None,
        });
        if spec.name != name {
            self.functions[id].filed_under = self.function_id(&spec.name)?;
        }
        Some(id)
    }

    /// Files a new instance.
    fn admit(&mut self, instance: Instance) {
        self.expiry_floor = self.expiry_floor.min(instance.last_used);
        self.instances.push(instance);
    }

    /// The function catalog invocations resolve against.
    pub fn catalog(&self) -> &Catalog {
        self.catalog.get_or_init(Catalog::table1)
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
        let retries_before = self.device_retries();
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
        report.device_retries = self.device_retries() - retries_before;
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
        report.publish();
        Ok(report)
    }

    /// Transient device errors retried away on every node, ever.
    fn device_retries(&self) -> u64 {
        self.cluster
            .nodes
            .iter()
            .map(|n| n.counters().transient_retries)
            .sum()
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
            for (_, _, entry) in self.stored() {
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
        in_flight.sort();
        for (function, owner) in in_flight {
            let retry = Invocation {
                time: crash.at,
                function: function.into(),
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
        let function = inst.function;
        let node = inst.node;
        let pid = inst.pid;
        let invocations = inst.invocations;
        let cold_started = inst.cold_started;

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
        let stats = &mut self.functions[function].stats;
        stats.observe(latency, warm);
        if warm {
            stats.note_breach(latency);
        }

        if cold_started {
            if invocations == 1 {
                // §5: clear A/D after the first invocation so the bits
                // capture the steady state.
                let _ = faas::engine::clear_ad_bits(&mut self.cluster.nodes[node], pid);
            }
            // `function` is the `filed_under` entry: `cold_start` files
            // every instance there.
            if invocations == self.config.checkpoint_after
                && self.functions[function].checkpoint.is_none()
            {
                // Make room first if the device is short (a checkpoint
                // needs roughly the footprint plus metadata).
                self.reclaim_cxl_for(spec.footprint_pages() + spec.footprint_pages() / 16, now);
                let ckpt = match self.mech.checkpoint(&mut self.cluster.nodes[node], pid) {
                    Ok(c) => Some(c),
                    Err(_) => {
                        // Device full: evict everything evictable and retry
                        // once.
                        self.reclaim_cxl_for(u64::MAX, now);
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
                    let slot = &mut self.functions[function].checkpoint;
                    debug_assert!(slot.is_none(), "a stored checkpoint would leak");
                    *slot = Some(StoredCheckpoint {
                        checkpoint: ckpt,
                        restores: 0,
                    });
                    self.report.checkpoints += 1;
                    self.reclaim_cxl_pressure(function);
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
        if let Some(istore) = &self.image_store {
            let stale = self.functions[function].checkpoint.take_if(|entry| {
                self.mech
                    .image_id(&entry.checkpoint)
                    .is_some_and(|image| !istore.is_live(ImageId(image)))
            });
            if let Some(entry) = stale {
                let _ = self
                    .mech
                    .release_checkpoint(entry.checkpoint, &self.cluster.nodes[node]);
                self.report.image_misses += 1;
            }
        }

        if self.functions[function].checkpoint.is_some() {
            let options = self.choose_options(function, node);
            if options.policy == TierPolicy::Hybrid {
                self.report.hybrid_restores += 1;
            }
            // Memory pre-check against the policy's expected consumption.
            let estimate = {
                let entry = self.functions[function].checkpoint.as_ref();
                let entry = entry.expect("checked above");
                self.mech
                    .restore_memory_estimate(&entry.checkpoint, options)
            };
            self.ensure_free(node, estimate + faas::BARE_CONTAINER_PAGES, now);

            let (container, container_cost) = self.claim_container(node, now)?;
            // Placement + restore span; the mechanism's own
            // `core.restore` phase spans nest underneath it.
            cxl_telemetry::span_open(
                "cxlporter.restore",
                node as u32,
                self.cluster.nodes[node].now(),
                &[],
            );
            let restored = {
                let entry = self.functions[function].checkpoint.as_mut();
                let entry = entry.expect("checked above");
                // Counted before the restore runs: a failed one counts too.
                entry.restores += 1;
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
                    let image = self.functions[function]
                        .checkpoint
                        .as_ref()
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
        if let Some(policy) = self.config.tiering {
            return match policy {
                TierPolicy::MigrateOnWrite => RestoreOptions::mow(),
                TierPolicy::MigrateOnAccess => RestoreOptions::moa(),
                TierPolicy::Hybrid => RestoreOptions::hybrid(),
            };
        }
        let util = self.cluster.nodes[node].frames().utilization();
        if util >= HIGH_MEM_THRESHOLD {
            // HighMem: no more hybrid promotions (§5).
            return RestoreOptions::mow();
        }
        let stats = &self.functions[function].stats;
        if stats.over_slo() {
            return RestoreOptions::hybrid();
        }
        RestoreOptions::mow()
    }

    /// Reclaims the coldest stored checkpoints while the CXL device is
    /// over the pressure threshold (§5). Never evicts `keep`'s (the
    /// checkpoint that was just stored).
    fn reclaim_cxl_pressure(&mut self, keep: FnId) {
        while self.cluster.device.utilization() > self.config.cxl_reclaim_threshold {
            if !self.evict_coldest(Some(keep)) {
                break;
            }
        }
    }

    /// Reclaims coldest checkpoints until at least `pages` device pages
    /// are free (best effort). With an image store attached, its
    /// unprotected images (crashed owners, lease lapses) go first —
    /// they serve no restorable checkpoint — before live checkpoints
    /// are sacrificed.
    fn reclaim_cxl_for(&mut self, pages: u64, now: SimTime) {
        if let Some(istore) = self.image_store.clone() {
            let referenced = self.referenced_images();
            let evicted = istore.evict_for_except(pages, &self.leases, now, &referenced);
            self.report.image_evictions += evicted.images;
        }
        while self.cluster.device.free_pages() < pages {
            if !self.evict_coldest(None) {
                break;
            }
        }
    }

    /// Releases the least-restored stored checkpoint other than
    /// `keep`'s, the first in name order on a tie. `false` if there is
    /// none.
    fn evict_coldest(&mut self, keep: Option<FnId>) -> bool {
        let victim = self
            .stored()
            .filter(|&(_, id, _)| Some(id) != keep)
            .min_by_key(|(_, _, entry)| entry.restores)
            .map(|(_, id, _)| id);
        let Some(entry) = victim.and_then(|id| self.functions[id].checkpoint.take()) else {
            return false;
        };
        let _ = self
            .mech
            .release_checkpoint(entry.checkpoint, &self.cluster.nodes[0]);
        self.report.checkpoint_reclaims += 1;
        true
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
    /// shrinks to 10 s on pressured nodes (§5). An arrival within the
    /// smaller of the two windows of the expiry floor skips the scan, and
    /// so does one within the calm window while no node is pressured:
    /// nothing can have expired yet.
    fn evict_expired(&mut self, now: SimTime) {
        let keep_alive = self.config.keep_alive;
        if now <= self.expiry_floor + keep_alive.min(PRESSURE_KEEP_ALIVE) {
            return;
        }
        let pressured = |node: &node_os::Node| node.frames().utilization() >= HIGH_MEM_THRESHOLD;
        if now <= self.expiry_floor + keep_alive && !self.cluster.nodes.iter().any(pressured) {
            return;
        }
        let mut floor = NO_INSTANCES;
        let mut idx = 0;
        while idx < self.instances.len() {
            let i = &self.instances[idx];
            let window = if pressured(&self.cluster.nodes[i.node]) {
                PRESSURE_KEEP_ALIVE
            } else {
                keep_alive
            };
            if i.busy_until <= now && now - i.last_used > window {
                self.drop_instance(idx);
            } else {
                floor = floor.min(i.last_used);
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
        self.stored().count()
    }

    /// The stored checkpoints by function name, in name order (for
    /// audits and tests).
    pub fn store(&self) -> Vec<(&str, &StoredCheckpoint<M::Checkpoint>)> {
        self.stored()
            .map(|(name, _, entry)| (name, entry))
            .collect()
    }

    /// The stored checkpoints in function-name order, each under its
    /// function's canonical name and table position. The walk goes
    /// through `fn_ids`, not `functions` (first-seen order): reclamation
    /// breaks restore-count ties by name, and [`CxlPorter::store`]'s
    /// order is what callers see.
    fn stored(&self) -> impl Iterator<Item = (&str, FnId, &StoredCheckpoint<M::Checkpoint>)> {
        self.fn_ids.iter().filter_map(|(name, &id)| {
            let f = &self.functions[id];
            let entry = f.checkpoint.as_ref().filter(|_| f.filed_under == id)?;
            Some((name.as_str(), id, entry))
        })
    }

    /// The local frames the containers on `node` pin outside any
    /// process (each one's bare 512 KiB footprint): its ghost pool and
    /// the containers of its live instances. A node audit must declare
    /// them as external references for the refcount balance to close.
    pub fn pinned_frames(&self, node: usize) -> impl Iterator<Item = node_os::Pfn> + '_ {
        self.ghost_pools[node]
            .iter()
            .chain(
                self.instances
                    .iter()
                    .filter(move |i| i.node == node)
                    .map(|i| &i.container),
            )
            .flat_map(|c| c.pinned_frames().iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlfork::CxlFork;
    use node_os::mm::Access;
    use node_os::vma::Protection;
    use simclock::LatencyModel;
    use trace_gen::TraceConfig;

    /// Where the floor tests start: past every keep-alive window they
    /// use, so a floor reset to zero always lets the next expiry check
    /// scan.
    const START: SimTime = SimTime::from_nanos(1_000 * 1_000_000_000);

    const TICK: SimDuration = SimDuration::from_nanos(1);

    fn one_node_porter(config: PorterConfig) -> CxlPorter<CxlFork> {
        let cluster = Cluster::new(1, 128, 1024, LatencyModel::calibrated());
        CxlPorter::new(cluster, CxlFork::new(), config)
    }

    /// Serves one `Float` arrival at [`START`] and returns when its
    /// instance went idle.
    fn one_idle_instance(porter: &mut CxlPorter<CxlFork>) -> SimTime {
        porter.handle(&Invocation {
            time: START,
            function: "Float".into(),
            owner: 0,
        });
        assert_eq!(porter.live_instances(), 1);
        porter.instances[0].last_used
    }

    /// What a scan at `now` would leave alive, whatever the floor says.
    fn alive_after_forced_scan(porter: &mut CxlPorter<CxlFork>, now: SimTime) -> usize {
        porter.expiry_floor = SimTime::ZERO;
        porter.evict_expired(now);
        assert_ne!(porter.expiry_floor, SimTime::ZERO, "the scan ran");
        porter.live_instances()
    }

    /// Takes `node` past the HighMem threshold with an anonymous hog.
    fn fill_past_high_mem(node: &mut node_os::Node) {
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
        assert!(node.frames().utilization() >= HIGH_MEM_THRESHOLD);
    }

    #[test]
    fn idle_instance_expires_one_nanosecond_past_the_expiry_floor() {
        // A window below the 10 s pressure one.
        let window = SimDuration::from_secs(5);
        let mut porter = one_node_porter(PorterConfig {
            keep_alive: window,
            ..PorterConfig::cxlfork_dynamic()
        });
        let idle_since = one_idle_instance(&mut porter);
        // Between scans the floor only moves down: it still stands where
        // the instance's admission put it.
        assert_eq!(porter.expiry_floor, START);
        assert_eq!(alive_after_forced_scan(&mut porter, idle_since), 1);
        assert_eq!(porter.expiry_floor, idle_since);

        // At the floor plus the window the scan is skipped — and would
        // have found nothing.
        let expiry = idle_since + window;
        porter.evict_expired(expiry);
        assert_eq!(porter.live_instances(), 1);
        assert_eq!(alive_after_forced_scan(&mut porter, expiry), 1);
        assert_eq!(
            porter.expiry_floor, idle_since,
            "a scan recomputes the same"
        );

        // One nanosecond later the scan runs and the instance is gone.
        porter.evict_expired(expiry + TICK);
        assert_eq!(porter.live_instances(), 0);
        assert_eq!(porter.expiry_floor, NO_INSTANCES);
        // An empty table never scans, even at the end of time.
        porter.evict_expired(SimTime::from_nanos(u64::MAX));
        assert_eq!(porter.expiry_floor, NO_INSTANCES);
    }

    #[test]
    fn node_turning_pressured_after_the_floor_was_computed_expires_on_time() {
        let config = PorterConfig::cxlfork_dynamic();
        assert!(PRESSURE_KEEP_ALIVE < config.keep_alive);
        let mut porter = one_node_porter(config);
        let idle_since = one_idle_instance(&mut porter);

        // A scan while the node is calm keeps the instance: its 600 s
        // window applies.
        let early = idle_since + SimDuration::from_secs(1);
        assert_eq!(alive_after_forced_scan(&mut porter, early), 1);
        assert_eq!(porter.expiry_floor, idle_since);
        // Past the pressure window with every node calm, still no scan
        // (one would raise a floor set below the truth) and rightly none.
        let later = idle_since + PRESSURE_KEEP_ALIVE + SimDuration::from_secs(1);
        let below = SimTime::from_nanos(idle_since.as_nanos() - 1);
        porter.expiry_floor = below;
        porter.evict_expired(later);
        assert_eq!(porter.expiry_floor, below);
        assert_eq!(alive_after_forced_scan(&mut porter, later), 1);
        assert_eq!(porter.expiry_floor, idle_since);

        // Only now does the node fill up past the HighMem threshold.
        fill_past_high_mem(&mut porter.cluster.nodes[0]);

        // The floor computed while calm still holds: nothing expires at
        // the pressure window's end, and one nanosecond past it the
        // shrunken window evicts the instance.
        let expiry = idle_since + PRESSURE_KEEP_ALIVE;
        porter.evict_expired(expiry);
        assert_eq!(porter.live_instances(), 1);
        assert_eq!(alive_after_forced_scan(&mut porter, expiry), 1);
        porter.evict_expired(expiry + TICK);
        assert_eq!(porter.live_instances(), 0);
    }

    #[test]
    fn expiry_floor_skips_only_scans_that_would_expire_nothing() {
        // A seeded three-function trace, replayed arrival by arrival: one
        // run keeps the floor, the other resets it before every arrival
        // so each arrival scans. Node 0 goes past HighMem halfway.
        let trace: Vec<Invocation> = trace_gen::generate(&TraceConfig {
            duration_secs: 40.0,
            total_rps: 3.0,
            ..TraceConfig::paper_default(vec!["Float".into(), "Json".into(), "Pyaes".into()], 11)
        })
        .into_iter()
        .map(|inv| Invocation {
            time: START + (inv.time - SimTime::ZERO),
            ..inv
        })
        .collect();
        let hog_at = trace.len() / 2;
        // Below the pressure window (`burst_scaleout`'s 6 s) and above it.
        for keep_alive in [SimDuration::from_secs(6), SimDuration::from_secs(600)] {
            let run = |scan_every_arrival: bool| {
                let cluster = Cluster::new(2, 256, 2048, LatencyModel::calibrated());
                let config = PorterConfig {
                    keep_alive,
                    ..PorterConfig::cxlfork_dynamic()
                };
                let mut porter = CxlPorter::new(cluster, CxlFork::new(), config);
                let mut steps = Vec::with_capacity(trace.len());
                for (n, inv) in trace.iter().enumerate() {
                    if n == hog_at {
                        fill_past_high_mem(&mut porter.cluster.nodes[0]);
                    }
                    if scan_every_arrival {
                        porter.expiry_floor = SimTime::ZERO;
                    }
                    let report = porter.run_trace(std::slice::from_ref(inv));
                    steps.push((report, porter.live_instances()));
                }
                // One audit per run: the floor changes when scans happen,
                // never what the books hold.
                crate::tests::run_audited(&mut porter, &[]);
                steps
            };
            let with_floor = run(false);
            assert_eq!(with_floor, run(true), "keep-alive {keep_alive:?}");
            // The replay does expire instances, calm or pressured.
            let shrank = with_floor.windows(2).filter(|w| w[1].1 < w[0].1).count();
            assert!(shrank > 0, "keep-alive {keep_alive:?}: nothing expired");
        }
    }

    #[test]
    fn spellings_of_one_function_share_one_entry_and_its_slo_statistics() {
        let mut porter = one_node_porter(PorterConfig {
            checkpoint_after: 2,
            ..PorterConfig::cxlfork_dynamic()
        });
        let arrive = |porter: &mut CxlPorter<CxlFork>, secs: u64, function: &str| {
            porter.handle(&Invocation {
                time: SimTime::ZERO + SimDuration::from_secs(secs),
                function: function.into(),
                owner: 0,
            });
        };

        // Two arrivals under the catalog's spelling: cold, then warm and
        // checkpointed.
        arrive(&mut porter, 0, "Float");
        arrive(&mut porter, 1, "Float");
        assert_eq!(porter.report.checkpoints, 1);
        // The same function spelled differently finds no idle instance
        // (those are matched on the exact spelling) and restores from the
        // image "Float" checkpointed.
        arrive(&mut porter, 2, "float");
        assert_eq!(porter.report.restores, 1);

        let (canonical, alias) = (porter.fn_ids["Float"], porter.fn_ids["float"]);
        assert_ne!(canonical, alias);
        assert_eq!(porter.functions[alias].filed_under, canonical);
        assert_eq!(porter.functions[canonical].filed_under, canonical);
        // Both spellings resolve to the one catalog spec; its statistics
        // live in the entry both are filed under, never in the alias's.
        assert_eq!(
            porter.functions[alias].spec,
            porter.functions[canonical].spec
        );
        let (kept, unused) = (&porter.functions[canonical], &porter.functions[alias]);
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

    #[test]
    fn stored_checkpoints_are_walked_in_name_order_and_every_restore_counts() {
        let mut porter = one_node_porter(PorterConfig {
            checkpoint_after: 2,
            ..PorterConfig::cxlfork_dynamic()
        });
        let arrive = |porter: &mut CxlPorter<CxlFork>, secs: u64, function: &str| {
            porter.handle(&Invocation {
                time: SimTime::ZERO + SimDuration::from_secs(secs),
                function: function.into(),
                owner: 0,
            });
        };
        let listed = |porter: &CxlPorter<CxlFork>| -> Vec<(String, u64)> {
            let store = porter.store();
            store
                .iter()
                .map(|(f, e)| ((*f).to_owned(), e.restores))
                .collect()
        };

        // "Json" is seen first and checkpointed first, so first-seen
        // order and name order disagree.
        for (secs, function) in [(0, "Json"), (1, "Json"), (2, "Float"), (3, "Float")] {
            arrive(&mut porter, secs, function);
        }
        assert_eq!(porter.report.checkpoints, 2);
        assert!(porter.fn_ids["Json"] < porter.fn_ids["Float"]);
        // Second spellings find no idle instance and restore, one each,
        // from the checkpoint filed under the catalog's spelling.
        arrive(&mut porter, 4, "float");
        arrive(&mut porter, 5, "json");
        assert_eq!(porter.report.restores, 2);
        let tied = vec![("Float".to_owned(), 1), ("Json".to_owned(), 1)];
        assert_eq!(listed(&porter), tied, "each function once, in name order");
        assert_eq!(porter.stored_checkpoints(), 2);

        // Equal restore counts: reclamation takes the first in name order.
        assert!(porter.evict_coldest(None));
        assert_eq!(porter.report.checkpoint_reclaims, 1);
        assert_eq!(listed(&porter), vec![("Json".to_owned(), 1)]);

        // A restore that fails still counts: destroy the checkpoint's
        // region behind the porter's back, and the next one is dropped.
        let json = porter.fn_ids["Json"];
        let stored = porter.functions[json].checkpoint.as_ref();
        let region = stored.expect("Json keeps its checkpoint").checkpoint.region;
        porter.cluster.device.destroy_region(region).unwrap();
        arrive(&mut porter, 6, "json");
        assert_eq!(porter.report.restores, 2);
        assert_eq!(porter.report.dropped, 1);
        assert_eq!(listed(&porter), vec![("Json".to_owned(), 2)]);
    }
}
