//! The deterministic fault injector.
//!
//! Faults come from two composable sources, both deterministic:
//!
//! * a [`FaultSchedule`] of explicit triggers — "fail the `k`-th read
//!   with poison" — counted per operation kind, for tests that need a
//!   fault in an exact place; and
//! * a [`FaultPlan`] of per-operation fault probabilities drawn from an
//!   RNG seeded via `simclock::rng::derived(seed, "cxl-fault.plan")`,
//!   for availability experiments that want faults "everywhere, fairly".
//!
//! Determinism hinges on one rule: the injector consumes randomness only
//! inside [`Injector::inject`], exactly once per probability it checks,
//! in device-op order. Two runs issuing the same operation sequence see
//! identical faults; changing the seed moves them.

use std::collections::{BTreeMap, BTreeSet};

use cxl_mem::lockdep::TrackedMutex;

use cxl_mem::{CxlError, CxlPageId, DeviceOp, FaultHook, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// What an armed trigger does to the matching operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Permanently poison the page the operation touches; this and every
    /// later access to that page fails with [`CxlError::Poisoned`].
    /// Ignored by operations without a page (allocations).
    Poison,
    /// Fail this and the next `burst - 1` operations of the same kind
    /// with [`CxlError::Transient`] (a link-level error burst).
    Transient {
        /// Number of consecutive matching operations to fail (≥ 1).
        burst: u32,
    },
    /// Report the device as out of memory for `burst` consecutive
    /// allocation attempts (simulated allocator exhaustion).
    AllocExhausted {
        /// Number of consecutive allocations to fail (≥ 1).
        burst: u32,
    },
}

/// One explicit trigger: fire `fault` on the `after`-th operation of
/// kind `op` (0-based, counted from injector arming).
///
/// A trigger may additionally target one fabric **port** (see
/// [`Injector::set_port_geometry`]): it still arms at the `after`-th
/// operation of its kind, but it and any burst it starts only fail
/// operations whose page rides the targeted port — a link-level error
/// is a property of one switch port, not of the whole device. With
/// `port: None` (every pre-existing constructor) behavior is
/// bit-identical to the un-ported injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trigger {
    /// Operation kind that this trigger counts and matches.
    pub op: DeviceOp,
    /// 0-based index of the matching operation to fail.
    pub after: u64,
    /// The fault to inject.
    pub fault: InjectedFault,
    /// Fabric port the fault is pinned to (`None` = whole device).
    pub port: Option<u32>,
}

/// An explicit, ordered set of fault triggers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    triggers: Vec<Trigger>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds an arbitrary trigger.
    #[must_use]
    pub fn with(mut self, trigger: Trigger) -> Self {
        self.triggers.push(trigger);
        self
    }

    /// Poison the page touched by the `after`-th operation of kind `op`.
    #[must_use]
    pub fn poison_after(self, op: DeviceOp, after: u64) -> Self {
        self.with(Trigger {
            op,
            after,
            fault: InjectedFault::Poison,
            port: None,
        })
    }

    /// Fail `burst` operations of kind `op` starting at the `after`-th
    /// with transient link errors.
    #[must_use]
    pub fn transient_after(self, op: DeviceOp, after: u64, burst: u32) -> Self {
        self.with(Trigger {
            op,
            after,
            fault: InjectedFault::Transient { burst },
            port: None,
        })
    }

    /// Like [`FaultSchedule::transient_after`], but the burst is pinned
    /// to one fabric `port`: it arms at the `after`-th operation of
    /// kind `op` and then fails the next `burst` operations of that
    /// kind *whose page rides the targeted port*. Requires the
    /// injector's port geometry to be set (see
    /// [`Injector::set_port_geometry`]); without it the burst never
    /// matches.
    #[must_use]
    pub fn transient_after_on_port(self, op: DeviceOp, after: u64, burst: u32, port: u32) -> Self {
        self.with(Trigger {
            op,
            after,
            fault: InjectedFault::Transient { burst },
            port: Some(port),
        })
    }

    /// Fail `burst` allocations starting at the `after`-th with
    /// out-of-device-memory.
    #[must_use]
    pub fn alloc_exhausted_after(self, after: u64, burst: u32) -> Self {
        self.with(Trigger {
            op: DeviceOp::Alloc,
            after,
            fault: InjectedFault::AllocExhausted { burst },
            port: None,
        })
    }

    /// Number of triggers in the schedule.
    pub fn len(&self) -> usize {
        self.triggers.len()
    }

    /// Whether the schedule has no triggers.
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }
}

/// Seeded probabilistic fault plan. All probabilities default to zero;
/// enable only what an experiment needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's RNG (derived with label
    /// `"cxl-fault.plan"`, so it does not share a stream with trace
    /// generation or crash scheduling).
    pub seed: u64,
    /// Probability that a read is hit by a transient link error.
    pub transient_per_read: f64,
    /// Probability that a write is hit by a transient link error.
    pub transient_per_write: f64,
    /// Probability that a read permanently poisons its page.
    pub poison_per_read: f64,
}

impl FaultPlan {
    /// A benign plan (all probabilities zero) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_per_read: 0.0,
            transient_per_write: 0.0,
            poison_per_read: 0.0,
        }
    }

    /// Sets the transient-error probability for both reads and writes.
    #[must_use]
    pub fn with_transient_rate(mut self, p: f64) -> Self {
        self.transient_per_read = p;
        self.transient_per_write = p;
        self
    }
}

/// Counters of injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient link errors injected.
    pub transients: u64,
    /// Pages poisoned (first hits only; repeat accesses to an already
    /// poisoned page count under `poison_hits`).
    pub poisons: u64,
    /// Accesses denied because the page was already poisoned.
    pub poison_hits: u64,
    /// Allocations failed with injected exhaustion.
    pub alloc_failures: u64,
}

impl FaultStats {
    /// Total injected failures.
    pub fn total(&self) -> u64 {
        self.transients + self.poisons + self.poison_hits + self.alloc_failures
    }
}

/// One injected fault, for determinism assertions: *which* operation
/// (by per-kind index) was failed, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Operation kind that was failed.
    pub op: DeviceOp,
    /// 0-based per-kind index of the failed operation.
    pub index: u64,
    /// Page involved, if any.
    pub page: Option<CxlPageId>,
}

/// Maximum retained [`FaultRecord`]s (enough for any test; keeps long
/// availability runs from accumulating unbounded logs).
const FAULT_LOG_CAP: usize = 256;

/// Page → fabric-port mapping, mirroring how the device's offset-range
/// shards land on switch ports (shard `i` rides port
/// `i % ports_per_device`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortGeometry {
    /// Pages per device shard ([`cxl_mem::CxlDevice::pages_per_shard`]).
    pub pages_per_shard: u64,
    /// Switch ports the device exposes.
    pub ports_per_device: u32,
}

impl PortGeometry {
    /// The fabric port a page's traffic rides.
    pub fn port_of(&self, page: CxlPageId) -> u32 {
        let shard = page.0 / self.pages_per_shard.max(1);
        u32::try_from(shard % u64::from(self.ports_per_device.max(1))).unwrap_or(0)
    }
}

/// Does an operation on `page` ride the targeted port? `None` targets
/// the whole device (always matches — the pre-port behavior); a
/// concrete port requires geometry and a page on that port.
fn port_hit(geometry: Option<PortGeometry>, port: Option<u32>, page: Option<CxlPageId>) -> bool {
    match port {
        None => true,
        Some(target) => match (geometry, page) {
            (Some(g), Some(p)) => g.port_of(p) == target,
            _ => false,
        },
    }
}

/// One active transient/exhaustion burst.
#[derive(Debug, Clone, Copy)]
struct Burst {
    op: DeviceOp,
    remaining: u32,
    oom: bool,
    /// Fabric port the burst is pinned to (`None` = whole device).
    port: Option<u32>,
}

#[derive(Debug)]
struct InjectorState {
    schedule: Vec<Trigger>,
    plan: Option<FaultPlan>,
    rng: Option<StdRng>,
    /// Per-kind operation counters (0-based index of the *next* op).
    counts: BTreeMap<DeviceOp, u64>,
    /// Pages permanently poisoned.
    poisoned: BTreeSet<CxlPageId>,
    /// Active transient/exhaustion bursts.
    bursts: Vec<Burst>,
    /// Page → port mapping for port-targeted triggers.
    geometry: Option<PortGeometry>,
    stats: FaultStats,
    log: Vec<FaultRecord>,
}

/// The deterministic fault injector; install on a device with
/// [`Injector::arm`] or `device.set_fault_hook(Some(arc))`.
#[derive(Debug)]
pub struct Injector {
    state: TrackedMutex<InjectorState>,
}

impl Injector {
    /// Builds an injector from an explicit schedule and an optional
    /// seeded plan.
    pub fn new(schedule: FaultSchedule, plan: Option<FaultPlan>) -> Self {
        let rng = plan
            .as_ref()
            .map(|p| simclock::rng::derived(p.seed, "cxl-fault.plan"));
        Injector {
            state: TrackedMutex::new(
                "cxl_fault.injector",
                InjectorState {
                    schedule: schedule.triggers,
                    plan,
                    rng,
                    counts: BTreeMap::new(),
                    poisoned: BTreeSet::new(),
                    bursts: Vec::new(),
                    geometry: None,
                    stats: FaultStats::default(),
                    log: Vec::new(),
                },
            ),
        }
    }

    /// An injector driven only by an explicit schedule.
    pub fn from_schedule(schedule: FaultSchedule) -> Self {
        Injector::new(schedule, None)
    }

    /// An injector driven only by a seeded plan.
    pub fn from_plan(plan: FaultPlan) -> Self {
        Injector::new(FaultSchedule::new(), Some(plan))
    }

    /// Installs this injector as the device's fault hook.
    pub fn arm(self: &std::sync::Arc<Self>, device: &cxl_mem::CxlDevice) {
        device.set_fault_hook(Some(self.clone()));
    }

    /// Sets the page → fabric-port mapping that port-targeted triggers
    /// (e.g. [`FaultSchedule::transient_after_on_port`]) resolve pages
    /// against. Untargeted triggers ignore it entirely.
    pub fn set_port_geometry(&self, geometry: PortGeometry) {
        self.state.lock().geometry = Some(geometry);
    }

    /// [`Injector::arm`] plus port geometry derived from the device's
    /// shard layout and the fabric's `ports_per_device`.
    pub fn arm_with_ports(
        self: &std::sync::Arc<Self>,
        device: &cxl_mem::CxlDevice,
        ports_per_device: u32,
    ) {
        self.set_port_geometry(PortGeometry {
            pages_per_shard: device.pages_per_shard(),
            ports_per_device,
        });
        self.arm(device);
    }

    /// Directly poisons a page (test convenience; no operation needed).
    pub fn poison_page(&self, page: CxlPageId) {
        let mut st = self.state.lock();
        if st.poisoned.insert(page) {
            st.stats.poisons += 1;
        }
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().stats.clone()
    }

    /// The log of injected faults (per-kind op index of each), capped at
    /// 256 entries. Two runs with the same seed produce identical logs;
    /// different seeds move the faults.
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        self.state.lock().log.clone()
    }
}

fn record(st: &mut InjectorState, op: DeviceOp, index: u64, page: Option<CxlPageId>) {
    if st.log.len() < FAULT_LOG_CAP {
        st.log.push(FaultRecord { op, index, page });
    }
}

impl FaultHook for Injector {
    fn inject(&self, op: DeviceOp, page: Option<CxlPageId>, _node: NodeId) -> Option<CxlError> {
        let mut st = self.state.lock();
        let st = &mut *st;
        let index = {
            let c = st.counts.entry(op).or_insert(0);
            let i = *c;
            *c += 1;
            i
        };

        // 1. Permanently poisoned pages fail every read/write.
        if let Some(p) = page {
            if matches!(op, DeviceOp::Read | DeviceOp::Write) && st.poisoned.contains(&p) {
                st.stats.poison_hits += 1;
                record(st, op, index, page);
                return Some(CxlError::Poisoned(p));
            }
        }

        // 2. Active error bursts from earlier triggers. A port-pinned
        // burst only fails operations whose page rides its port;
        // untargeted bursts (`port: None`) match exactly as before.
        if let Some(pos) = st
            .bursts
            .iter()
            .position(|b| b.op == op && b.remaining > 0 && port_hit(st.geometry, b.port, page))
        {
            let burst = &mut st.bursts[pos];
            burst.remaining -= 1;
            let oom = burst.oom;
            if burst.remaining == 0 {
                st.bursts.swap_remove(pos);
            }
            record(st, op, index, page);
            return Some(if oom {
                st.stats.alloc_failures += 1;
                CxlError::OutOfDeviceMemory {
                    requested: 0,
                    available: 0,
                }
            } else {
                st.stats.transients += 1;
                CxlError::Transient { op: op.name() }
            });
        }

        // 3. Scheduled triggers firing at this exact op index. A
        // port-pinned trigger arms at its index either way, but only
        // fails the current operation if it rides the targeted port;
        // otherwise the full burst stays pending for step 2 and the
        // operation falls through to the plan checks.
        if let Some(pos) = st
            .schedule
            .iter()
            .position(|t| t.op == op && t.after == index)
        {
            let trigger = st.schedule.swap_remove(pos);
            let on_port = port_hit(st.geometry, trigger.port, page);
            match trigger.fault {
                InjectedFault::Poison => {
                    if let Some(p) = page {
                        if on_port {
                            if st.poisoned.insert(p) {
                                st.stats.poisons += 1;
                            }
                            record(st, op, index, page);
                            return Some(CxlError::Poisoned(p));
                        }
                        // Off-port: the targeted page never came by.
                    }
                    // No page to poison (alloc): fall through benignly.
                }
                InjectedFault::Transient { burst } => {
                    if on_port {
                        if burst > 1 {
                            st.bursts.push(Burst {
                                op,
                                remaining: burst - 1,
                                oom: false,
                                port: trigger.port,
                            });
                        }
                        st.stats.transients += 1;
                        record(st, op, index, page);
                        return Some(CxlError::Transient { op: op.name() });
                    }
                    st.bursts.push(Burst {
                        op,
                        remaining: burst,
                        oom: false,
                        port: trigger.port,
                    });
                }
                InjectedFault::AllocExhausted { burst } => {
                    if on_port {
                        if burst > 1 {
                            st.bursts.push(Burst {
                                op,
                                remaining: burst - 1,
                                oom: true,
                                port: trigger.port,
                            });
                        }
                        st.stats.alloc_failures += 1;
                        record(st, op, index, page);
                        return Some(CxlError::OutOfDeviceMemory {
                            requested: 0,
                            available: 0,
                        });
                    }
                    st.bursts.push(Burst {
                        op,
                        remaining: burst,
                        oom: true,
                        port: trigger.port,
                    });
                }
            }
        }

        // 4. Seeded plan probabilities. Exactly one RNG draw per
        // probability per op, so the stream is a pure function of the op
        // sequence.
        if let Some(plan) = st.plan {
            let (transient_p, poison_p) = match op {
                DeviceOp::Read => (plan.transient_per_read, plan.poison_per_read),
                DeviceOp::Write => (plan.transient_per_write, 0.0),
                DeviceOp::Alloc | DeviceOp::Free => (0.0, 0.0),
            };
            let (transient_hit, poison_hit) = {
                #[allow(
                    clippy::expect_used,
                    reason = "constructor invariant — `new` always pairs a plan with its derived rng"
                )]
                let rng = st.rng.as_mut().expect("a plan always carries an rng");
                (
                    transient_p > 0.0 && rng.gen_f64_unit() < transient_p,
                    poison_p > 0.0 && rng.gen_f64_unit() < poison_p,
                )
            };
            if transient_hit {
                st.stats.transients += 1;
                record(st, op, index, page);
                return Some(CxlError::Transient { op: op.name() });
            }
            if poison_hit {
                if let Some(p) = page {
                    if st.poisoned.insert(p) {
                        st.stats.poisons += 1;
                    }
                    record(st, op, index, page);
                    return Some(CxlError::Poisoned(p));
                }
            }
        }

        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use cxl_mem::{CxlDevice, PageData};

    #[test]
    fn scheduled_transient_burst_fails_exact_ops() {
        let d = CxlDevice::new(16);
        let r = d.create_region("r");
        let p = d.alloc_page(r).unwrap();
        let inj = Arc::new(Injector::from_schedule(
            FaultSchedule::new().transient_after(DeviceOp::Read, 1, 2),
        ));
        inj.arm(&d);
        assert!(d.read_page(p, NodeId(0)).is_ok()); // read 0
        assert!(d.read_page(p, NodeId(0)).is_err()); // read 1 (trigger)
        assert!(d.read_page(p, NodeId(0)).is_err()); // read 2 (burst)
        assert!(d.read_page(p, NodeId(0)).is_ok()); // read 3
        assert_eq!(inj.stats().transients, 2);
        let log = inj.fault_log();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].op, log[0].index), (DeviceOp::Read, 1));
        assert_eq!((log[1].op, log[1].index), (DeviceOp::Read, 2));
    }

    #[test]
    fn poison_is_permanent_and_hits_writes_too() {
        let d = CxlDevice::new(16);
        let r = d.create_region("r");
        let p = d.alloc_page(r).unwrap();
        let inj = Arc::new(Injector::from_schedule(
            FaultSchedule::new().poison_after(DeviceOp::Read, 0),
        ));
        inj.arm(&d);
        assert_eq!(
            d.read_page(p, NodeId(0)).unwrap_err(),
            CxlError::Poisoned(p)
        );
        assert_eq!(
            d.read_page(p, NodeId(0)).unwrap_err(),
            CxlError::Poisoned(p)
        );
        assert_eq!(
            d.write_page(p, PageData::pattern(1), NodeId(0))
                .unwrap_err(),
            CxlError::Poisoned(p)
        );
        let s = inj.stats();
        assert_eq!((s.poisons, s.poison_hits), (1, 2));
    }

    #[test]
    fn alloc_exhaustion_fires_on_schedule() {
        let d = CxlDevice::new(16);
        let r = d.create_region("r");
        let inj = Arc::new(Injector::from_schedule(
            FaultSchedule::new().alloc_exhausted_after(1, 1),
        ));
        inj.arm(&d);
        assert!(d.alloc_page(r).is_ok());
        assert!(matches!(
            d.alloc_page(r).unwrap_err(),
            CxlError::OutOfDeviceMemory { .. }
        ));
        assert!(d.alloc_page(r).is_ok());
        assert_eq!(inj.stats().alloc_failures, 1);
    }

    #[test]
    fn port_targeted_burst_only_fails_traffic_on_its_port() {
        // 8 shards of 8 pages behind 4 ports: shard i → port i % 4, so
        // page 0 rides port 0 and page 8 (shard 1) rides port 1.
        let d = CxlDevice::with_shards(64, 8);
        let r = d.create_region("r");
        let on_port = d.alloc_page(r).unwrap(); // shard 0 → port 0
        let off_port = CxlPageId(8); // shard 1 → port 1
        let off_port = {
            // Land a page in shard 1 via striped allocation.
            let pages = d.alloc_batch_striped(r, 2, 2).unwrap();
            assert_eq!(
                pages[1].0 / d.pages_per_shard(),
                1,
                "second stripe lands in shard 1"
            );
            let _ = off_port;
            pages[1]
        };
        let inj = Arc::new(Injector::from_schedule(
            FaultSchedule::new().transient_after_on_port(DeviceOp::Read, 0, 2, 0),
        ));
        inj.arm_with_ports(&d, 4);

        // The trigger arms on read 0 — which rides port 1, so it is NOT
        // failed and the burst stays fully pending.
        assert!(d.read_page(off_port, NodeId(0)).is_ok());
        // Port-0 traffic now burns the burst...
        assert!(d.read_page(on_port, NodeId(0)).is_err());
        // ...port-1 traffic in between is untouched and consumes nothing...
        assert!(d.read_page(off_port, NodeId(0)).is_ok());
        assert!(d.read_page(on_port, NodeId(0)).is_err());
        // ...and once the burst is spent, port 0 recovers too.
        assert!(d.read_page(on_port, NodeId(0)).is_ok());
        assert_eq!(inj.stats().transients, 2);
    }

    #[test]
    fn port_targeted_burst_without_geometry_never_matches() {
        let d = CxlDevice::with_shards(64, 8);
        let r = d.create_region("r");
        let p = d.alloc_page(r).unwrap();
        let inj = Arc::new(Injector::from_schedule(
            FaultSchedule::new().transient_after_on_port(DeviceOp::Read, 0, 4, 0),
        ));
        inj.arm(&d); // no geometry
        for _ in 0..8 {
            assert!(d.read_page(p, NodeId(0)).is_ok());
        }
        assert_eq!(inj.stats().transients, 0);
    }

    #[test]
    fn untargeted_schedule_is_identical_with_geometry_set() {
        // Setting geometry must not perturb `port: None` triggers — the
        // single-device bit-identity contract.
        let run = |with_geometry: bool| {
            let d = CxlDevice::new(16);
            let r = d.create_region("r");
            let p = d.alloc_page(r).unwrap();
            let inj = Arc::new(Injector::from_schedule(
                FaultSchedule::new().transient_after(DeviceOp::Read, 1, 2),
            ));
            if with_geometry {
                inj.arm_with_ports(&d, 8);
            } else {
                inj.arm(&d);
            }
            let outcomes: Vec<bool> = (0..6).map(|_| d.read_page(p, NodeId(0)).is_ok()).collect();
            (outcomes, inj.fault_log())
        };
        assert_eq!(run(false), run(true));
    }

    fn plan_log(seed: u64) -> Vec<FaultRecord> {
        let d = CxlDevice::new(64);
        let r = d.create_region("r");
        let pages = d.alloc_batch(r, 8).unwrap();
        let inj = Arc::new(Injector::from_plan(
            FaultPlan::new(seed).with_transient_rate(0.2),
        ));
        inj.arm(&d);
        for i in 0..200u64 {
            let _ = d.read_page(pages[(i % 8) as usize], NodeId(0));
        }
        inj.fault_log()
    }

    #[test]
    fn plan_faults_are_seed_deterministic_and_seed_sensitive() {
        assert_eq!(plan_log(7), plan_log(7));
        assert_ne!(plan_log(7), plan_log(8), "seed moves the faults");
        assert!(!plan_log(7).is_empty(), "0.2 over 200 reads fires");
    }
}
