//! Deterministic fault injection and recovery primitives for the
//! simulated CXL fabric.
//!
//! CXLfork's availability argument — checkpoints live in fabric-attached
//! memory, so they survive compute-node crashes and restore anywhere —
//! only means something if the simulation can actually kill nodes and
//! corrupt device operations. This crate supplies the failure model:
//!
//! * [`Injector`]: a [`cxl_mem::FaultHook`] that fails device operations
//!   according to an explicit [`FaultSchedule`] ("poison the 3rd read")
//!   and/or a seeded [`FaultPlan`] (a per-read/write transient-error
//!   probability drawn from `simclock::rng::derived`). Both are deterministic: the same op
//!   sequence and seed always fault the same operations.
//! * [`retry`]: bounded exponential backoff for transient link errors,
//!   charged to the *virtual* clock so retry costs show up in reports.
//! * [`crash`]: seeded or explicit node-crash schedules consumed by the
//!   autoscaler's failover path.
//! * [`lease`]: epoch/lease-based reclamation of checkpoint staging
//!   regions orphaned by a dead node (the GC half of the two-phase
//!   checkpoint commit in `core::checkpoint`).
//! * [`crashpoint`]: coordinator-death injection for the crashpoint
//!   sweep — a [`Recorder`] and a [`Killer`], both `FaultHook`s, that
//!   enumerate and kill at device-operation boundaries.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cxl_mem::{CxlDevice, DeviceOp, NodeId};
//! use cxl_fault::{FaultSchedule, Injector};
//!
//! let device = CxlDevice::new(64);
//! let region = device.create_region("r");
//! let page = device.alloc_page(region).unwrap();
//!
//! // Fail the second read with a transient link error.
//! let schedule = FaultSchedule::new().transient_after(DeviceOp::Read, 1, 1);
//! let injector = Arc::new(Injector::from_schedule(schedule));
//! device.set_fault_hook(Some(injector.clone()));
//!
//! assert!(device.read_page(page, NodeId(0)).is_ok());
//! assert!(device.read_page(page, NodeId(0)).is_err());
//! assert!(device.read_page(page, NodeId(0)).is_ok());
//! assert_eq!(injector.stats().transients, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Device path: a panic here would bypass an injected fault's recovery, so
// each `unwrap`/`expect` names its invariant in an `#[allow]` (DESIGN.md §12).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod crash;
pub mod crashpoint;
mod inject;
pub mod lease;
pub mod retry;

pub use crash::{CrashSchedule, NodeCrash};
pub use crashpoint::{run_to_crash, CrashpointKill, Killer, Recorder};
pub use inject::{
    FaultPlan, FaultRecord, FaultSchedule, FaultStats, InjectedFault, Injector, Trigger,
};
pub use lease::{reclaim_dead, reclaim_orphans, LeaseTable, ReclaimReport};
pub use retry::{with_backoff, RetryReport};
