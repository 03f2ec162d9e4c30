//! Fault-injection hook point for the device.
//!
//! The device itself never decides to fail: a [`FaultHook`] installed via
//! [`CxlDevice::set_fault_hook`](crate::CxlDevice::set_fault_hook) is
//! consulted before every data-path operation and may veto it with a
//! [`CxlError`]. With no hook installed the check is a single relaxed
//! atomic load (zero-cost when off). The deterministic injector lives in
//! `crates/cxl-fault`; keeping only the trait here keeps `cxl-mem` free of
//! any policy or RNG dependency.

use crate::{CxlError, CxlPageId, NodeId};

/// Device data-path operations observable by a fault hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceOp {
    /// A read (`read`/`read_page`).
    Read,
    /// A write (`write`/`write_page`).
    Write,
    /// A page allocation (`alloc_page`/`alloc_batch`/`alloc_bytes`).
    Alloc,
    /// A page free (`free_page`).
    Free,
}

impl DeviceOp {
    /// Short lowercase name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DeviceOp::Read => "read",
            DeviceOp::Write => "write",
            DeviceOp::Alloc => "alloc",
            DeviceOp::Free => "free",
        }
    }
}

/// A fault-injection hook consulted before every device operation.
///
/// Returning `Some(err)` fails the operation with that error before it
/// touches device state; `None` lets it proceed. Implementations must be
/// deterministic given the sequence of calls — the simulator's
/// reproducibility guarantee extends to injected faults.
pub trait FaultHook: Send + Sync + std::fmt::Debug {
    /// Decide the fate of one operation. `page` is `None` for
    /// allocations (no page exists yet).
    fn inject(&self, op: DeviceOp, page: Option<CxlPageId>, node: NodeId) -> Option<CxlError>;
}
