//! Crashpoint sweep infrastructure: deterministic "kill the coordinator
//! *here*" injection for exhaustive crash-recovery proofs.
//!
//! Fabric-attached memory outlives the coordinator that wrote it, so a
//! coordinator crash leaves exactly one thing behind: the device state at
//! its last device operation. A crash point is therefore a device
//! operation boundary, and the sweep reaches every one through the
//! device's [`FaultHook`] — no subsystem threads sites of its own. It
//! runs the same deterministic scenario twice over:
//!
//! 1. **Record.** Run once with a [`Recorder`] installed to enumerate
//!    every mutating device operation, in order. Each sequence position
//!    is one distinct injection point.
//! 2. **Kill + recover.** For each position `n`, re-run the scenario
//!    with a [`Killer`] that panics with a [`CrashpointKill`] payload
//!    before the `n`‑th operation. The harness catches the unwind via
//!    [`run_to_crash`], drops every DRAM structure (the coordinator is
//!    dead), runs recovery from the surviving device, and asserts the
//!    recovered state is sound.
//!
//! Both hooks count every consult except [`DeviceOp::Read`]: a read
//! changes nothing that survives, so a kill before one reaches the same
//! state as a kill before the next mutation.
//!
//! The kill is a panic, not an error return, on purpose: a crash must
//! *not* execute the victim's error-handling/rollback code — exactly the
//! paths a `Result` would trigger. Unwinding out of the mutator models
//! the coordinator's DRAM vanishing mid-operation, leaving the device in
//! whatever half-written state the mutation had reached.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

use cxl_mem::lockdep::TrackedMutex;
use cxl_mem::{CxlError, CxlPageId, DeviceOp, FaultHook, NodeId};

/// Panic payload a [`Killer`] unwinds with — the simulated coordinator
/// death. [`run_to_crash`] catches exactly this payload (and only this
/// payload) and [`install_silent_kill_hook`] keeps it off stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashpointKill {
    /// The device operation the kill pre-empted.
    pub op: DeviceOp,
    /// Global 0-based index of the counted consult that fired (the
    /// sequence position from the recording pass).
    pub ordinal: u64,
}

impl fmt::Display for CrashpointKill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crashpoint kill before {}#{}",
            self.op.name(),
            self.ordinal
        )
    }
}

/// Recording hook: collects the ordered sequence of mutating device
/// operations a scenario performs, so the sweep knows every injection
/// point. Never vetoes.
#[derive(Debug)]
pub struct Recorder {
    ops: TrackedMutex<Vec<DeviceOp>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder {
            ops: TrackedMutex::new("cxl_fault.crashpoint", Vec::new()),
        }
    }

    /// The ordered operation sequence observed so far. Position `n` in
    /// this sequence is the injection point `Killer::kill_at(n)` fires on.
    pub fn sequence(&self) -> Vec<DeviceOp> {
        self.ops.lock().clone()
    }
}

impl FaultHook for Recorder {
    fn inject(&self, op: DeviceOp, _page: Option<CxlPageId>, _node: NodeId) -> Option<CxlError> {
        if op != DeviceOp::Read {
            self.ops.lock().push(op);
        }
        None
    }
}

/// Killing hook: panics with [`CrashpointKill`] at the `n`‑th counted
/// consult (0-based, reads excluded), then stays quiet — device work
/// done while the kill unwinds, or by recovery re-armed with the same
/// hook, must not die again. Never vetoes.
#[derive(Debug)]
pub struct Killer {
    target: u64,
    count: AtomicU64,
}

impl Killer {
    /// A killer that fires at sequence position `target`.
    pub fn kill_at(target: u64) -> Self {
        Killer {
            target,
            count: AtomicU64::new(0),
        }
    }
}

impl FaultHook for Killer {
    fn inject(&self, op: DeviceOp, _page: Option<CxlPageId>, _node: NodeId) -> Option<CxlError> {
        if op == DeviceOp::Read {
            return None;
        }
        let n = self.count.fetch_add(1, Ordering::Relaxed);
        if n == self.target {
            std::panic::panic_any(CrashpointKill { op, ordinal: n });
        }
        None
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// stderr backtrace for [`CrashpointKill`] payloads and forwards every
/// other panic to the previous hook unchanged. A sweep kills the
/// scenario hundreds of times; real panics must stay loud.
pub fn install_silent_kill_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashpointKill>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Runs `f`, catching a [`CrashpointKill`] unwind: `Ok(result)` if the
/// scenario ran to completion, `Err(kill)` if a [`Killer`] fired. Any
/// other panic is resumed — a sweep must never swallow a real failure.
///
/// Installs the silent kill hook as a side effect.
pub fn run_to_crash<R>(f: impl FnOnce() -> R) -> Result<R, CrashpointKill> {
    install_silent_kill_hook();
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<CrashpointKill>() {
            Ok(kill) => Err(*kill),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cxl_mem::{CxlDevice, PageData};

    use super::*;

    /// Region create, alloc, a two-page write, a read, a region commit,
    /// a free and a region destroy: seven counted consults around one read.
    fn scenario(device: &CxlDevice) -> u64 {
        let region = device.create_region_staged("r", NodeId(0), 1);
        let pages = device.alloc_batch(region, 2).unwrap();
        let writes = [
            (pages[0], PageData::pattern(1)),
            (pages[1], PageData::pattern(2)),
        ];
        device.write_pages(&writes, NodeId(0)).unwrap();
        device.read_pages(&pages, NodeId(0)).unwrap();
        device.commit_region(region).unwrap();
        device.free_page(pages[0]).unwrap();
        device.destroy_region(region).unwrap()
    }

    const SEQUENCE: [DeviceOp; 7] = [
        DeviceOp::Region,
        DeviceOp::Alloc,
        DeviceOp::Write,
        DeviceOp::Write,
        DeviceOp::Region,
        DeviceOp::Free,
        DeviceOp::Region,
    ];

    #[test]
    fn recorder_captures_the_ordered_sequence() {
        let device = CxlDevice::new(16);
        let rec = Arc::new(Recorder::new());
        device.set_fault_hook(Some(rec.clone()));
        assert_eq!(scenario(&device), 1);
        assert_eq!(rec.sequence(), SEQUENCE);
        // Reads alone never advance the ordinal.
        let region = device.create_region("more");
        let page = device.alloc_page(region).unwrap();
        let before = rec.sequence().len();
        for _ in 0..3 {
            device.read_page(page, NodeId(1)).unwrap();
        }
        assert_eq!(rec.sequence().len(), before);
    }

    #[test]
    fn create_commit_and_destroy_each_report_region_and_ignore_a_veto() {
        let device = CxlDevice::new(16);
        let rec = Arc::new(Recorder::new());
        device.set_fault_hook(Some(rec.clone()));
        let staged = device.create_region_staged("s", NodeId(0), 1);
        let plain = device.create_region("p");
        device.create_region_meta("m");
        device.commit_region(staged).unwrap();
        device.destroy_region(plain).unwrap();
        assert_eq!(rec.sequence(), [DeviceOp::Region; 5]);

        // Report-only: vetoing every region change fails none of them.
        let veto = Arc::new(crate::Injector::from_schedule(
            crate::FaultSchedule::new().transient_after(DeviceOp::Region, 0, 3),
        ));
        device.set_fault_hook(Some(veto.clone()));
        let region = device.create_region_staged("v", NodeId(0), 2);
        device.commit_region(region).unwrap();
        assert_eq!(device.region_committed(region), Some(true));
        assert_eq!(device.destroy_region(region), Ok(0));
        assert_eq!(device.region_committed(region), None);
        assert_eq!(veto.stats().transients, 3, "each change was vetoed");
    }

    #[test]
    fn killer_fires_at_each_position_and_run_to_crash_catches_it() {
        for (n, &op) in SEQUENCE.iter().enumerate() {
            let device = CxlDevice::new(16);
            let killer = Arc::new(Killer::kill_at(n as u64));
            device.set_fault_hook(Some(killer));
            let kill = run_to_crash(|| scenario(&device)).unwrap_err();
            assert_eq!(
                kill,
                CrashpointKill {
                    op,
                    ordinal: n as u64
                }
            );
        }
        // A target past the sequence end: the scenario completes.
        let device = CxlDevice::new(16);
        device.set_fault_hook(Some(Arc::new(Killer::kill_at(99))));
        assert_eq!(run_to_crash(|| scenario(&device)), Ok(1));
    }

    #[test]
    fn a_kill_at_the_first_write_of_a_batch_writes_no_page_of_it() {
        let device = CxlDevice::new(16);
        // Position 2 is the first write consult of the two-page batch.
        device.set_fault_hook(Some(Arc::new(Killer::kill_at(2))));
        let kill = run_to_crash(|| scenario(&device)).unwrap_err();
        assert_eq!(kill.op, DeviceOp::Write);
        device.set_fault_hook(None);
        let (pages, _): (Vec<CxlPageId>, Vec<_>) = device.live_pages().into_iter().unzip();
        assert_eq!(pages.len(), 2, "the allocation landed");
        let zero = PageData::Zero.fingerprint();
        for page in pages {
            assert_eq!(
                device.fingerprint(page).unwrap(),
                zero,
                "{page} was written"
            );
        }
        assert_eq!(device.stats().total_writes(), 0);
    }

    #[test]
    fn killer_stays_quiet_after_it_fires() {
        let device = CxlDevice::new(16);
        device.set_fault_hook(Some(Arc::new(Killer::kill_at(0))));
        assert!(run_to_crash(|| scenario(&device)).is_err());
        // Still installed: the same scenario now runs to completion,
        // as recovery re-armed with a spent killer would.
        assert_eq!(run_to_crash(|| scenario(&device)), Ok(1));
    }

    #[test]
    fn non_kill_panics_are_resumed() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = run_to_crash(|| panic!("real failure"));
        }));
        assert!(caught.is_err(), "a real panic must escape run_to_crash");
    }
}
