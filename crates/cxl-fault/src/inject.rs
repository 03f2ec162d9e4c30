//! The deterministic fault injector.
//!
//! Faults come from two composable sources, both deterministic:
//!
//! * a [`FaultSchedule`] of explicit triggers — "fail the `k`-th read
//!   with poison" — counted per operation kind, for tests that need a
//!   fault in an exact place; and
//! * a [`FaultPlan`]: a per-read/write transient-error probability drawn
//!   from an RNG seeded via `simclock::rng::derived(seed, "cxl-fault.plan")`,
//!   for availability experiments that want faults "everywhere, fairly".
//!
//! Determinism hinges on one rule: the injector consumes randomness only
//! inside [`Injector::inject`], exactly once per read or write it checks,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trigger {
    /// Operation kind that this trigger counts and matches.
    pub op: DeviceOp,
    /// 0-based index of the matching operation to fail.
    pub after: u64,
    /// The fault to inject.
    pub fault: InjectedFault,
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

/// Seeded probabilistic fault plan: transient link errors on reads and
/// writes. The rate defaults to zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's RNG (derived with label
    /// `"cxl-fault.plan"`, so it does not share a stream with trace
    /// generation or crash scheduling).
    pub seed: u64,
    /// Probability that a read or a write is hit by a transient link
    /// error.
    pub transient_rate: f64,
}

impl FaultPlan {
    /// A benign plan (rate zero) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
        }
    }

    /// Sets the transient-error probability for both reads and writes.
    #[must_use]
    pub fn with_transient_rate(mut self, p: f64) -> Self {
        self.transient_rate = p;
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

/// One active transient/exhaustion burst.
#[derive(Debug, Clone, Copy)]
struct Burst {
    op: DeviceOp,
    remaining: u32,
    oom: bool,
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

        // 2. Active error bursts from earlier triggers.
        if let Some(pos) = st.bursts.iter().position(|b| b.op == op && b.remaining > 0) {
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

        // 3. Scheduled triggers firing at this exact op index.
        if let Some(pos) = st
            .schedule
            .iter()
            .position(|t| t.op == op && t.after == index)
        {
            let trigger = st.schedule.swap_remove(pos);
            match trigger.fault {
                InjectedFault::Poison => {
                    if let Some(p) = page {
                        if st.poisoned.insert(p) {
                            st.stats.poisons += 1;
                        }
                        record(st, op, index, page);
                        return Some(CxlError::Poisoned(p));
                    }
                    // No page to poison (alloc): fall through benignly.
                }
                InjectedFault::Transient { burst } => {
                    if burst > 1 {
                        st.bursts.push(Burst {
                            op,
                            remaining: burst - 1,
                            oom: false,
                        });
                    }
                    st.stats.transients += 1;
                    record(st, op, index, page);
                    return Some(CxlError::Transient { op: op.name() });
                }
                InjectedFault::AllocExhausted { burst } => {
                    if burst > 1 {
                        st.bursts.push(Burst {
                            op,
                            remaining: burst - 1,
                            oom: true,
                        });
                    }
                    st.stats.alloc_failures += 1;
                    record(st, op, index, page);
                    return Some(CxlError::OutOfDeviceMemory {
                        requested: 0,
                        available: 0,
                    });
                }
            }
        }

        // 4. The seeded plan: exactly one RNG draw per read or write when
        // the rate is non-zero, so the stream is a pure function of the
        // op sequence.
        if let Some(plan) = st.plan {
            if plan.transient_rate > 0.0 && matches!(op, DeviceOp::Read | DeviceOp::Write) {
                #[allow(
                    clippy::expect_used,
                    reason = "constructor invariant — `new` always pairs a plan with its derived rng"
                )]
                let rng = st.rng.as_mut().expect("a plan always carries an rng");
                if rng.gen_f64_unit() < plan.transient_rate {
                    st.stats.transients += 1;
                    record(st, op, index, page);
                    return Some(CxlError::Transient { op: op.name() });
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

    /// FNV-1a over each record's operation, per-kind index and page.
    fn log_hash(log: &[FaultRecord]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in log {
            let page = r.page.map_or(u64::MAX, |p| p.0);
            for word in [r.op as u64, r.index, page] {
                for byte in word.to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The plan's fault stream, recorded literally: `cluster_trace` and
    /// `BENCH_availability.json` replay it, so one RNG draw per read or
    /// write (none per allocation or free) must stay exactly as it is.
    #[test]
    fn plan_fault_stream_is_pinned() {
        let d = CxlDevice::new(64);
        let r = d.create_region("r");
        let pages = d.alloc_batch(r, 8).unwrap();
        let inj = Arc::new(Injector::from_plan(
            FaultPlan::new(7).with_transient_rate(0.2),
        ));
        inj.arm(&d);
        for i in 0..240u64 {
            let page = pages[(i % 8) as usize];
            match i % 4 {
                0 | 3 => {
                    let _ = d.read_page(page, NodeId(0));
                }
                1 => {
                    let _ = d.write_page(page, PageData::pattern(i), NodeId(0));
                }
                _ => {
                    if let Ok(fresh) = d.alloc_page(r) {
                        let _ = d.free_page(fresh);
                    }
                }
            }
        }
        let log = inj.fault_log();
        assert!(log.iter().any(|r| r.op == DeviceOp::Write));
        assert_eq!((log.len(), log_hash(&log)), (42, 7_112_811_430_668_935_086));
    }

    /// The plan draws nothing for a region-table change: the same reads
    /// and writes fault identically with region ops between them.
    #[test]
    fn region_ops_leave_the_plan_fault_stream_unchanged() {
        let run = |with_regions: bool| {
            let d = CxlDevice::new(64);
            let r = d.create_region("r");
            let pages = d.alloc_batch(r, 8).unwrap();
            let inj = Arc::new(Injector::from_plan(
                FaultPlan::new(7).with_transient_rate(0.2),
            ));
            inj.arm(&d);
            for i in 0..240u64 {
                let page = pages[(i % 8) as usize];
                if i % 2 == 0 {
                    let _ = d.read_page(page, NodeId(0));
                } else {
                    let _ = d.write_page(page, PageData::pattern(i), NodeId(0));
                }
                if with_regions {
                    let staged = d.create_region_staged("s", NodeId(0), i);
                    d.commit_region(staged).unwrap();
                    d.destroy_region(staged).unwrap();
                }
            }
            inj.fault_log()
        };
        let log = run(true);
        assert!(log.len() > 10, "0.2 over 240 ops fires");
        assert_eq!(log, run(false));
    }
}
