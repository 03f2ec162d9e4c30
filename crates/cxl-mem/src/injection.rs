//! Fault-injection hook point for the device.
//!
//! The device itself never decides to fail: a [`FaultHook`] installed via
//! [`CxlDevice::set_fault_hook`](crate::CxlDevice::set_fault_hook) is
//! consulted before every device operation and may veto a data-path one
//! with a [`CxlError`]. With no hook installed the check is a single
//! relaxed atomic load (zero-cost when off). The deterministic injector
//! and the crashpoint sweep's recorder and killer live in
//! `crates/cxl-fault`; keeping only the trait here keeps `cxl-mem` free of
//! any policy or RNG dependency.

use crate::{CxlError, CxlPageId, NodeId};

/// Device operations observable by a fault hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(
    clippy::exhaustive_enums,
    reason = "the device's operation set; a hook that matches every arm must break when a new operation appears"
)]
pub enum DeviceOp {
    /// A read (`read`/`read_pages`).
    Read,
    /// A write (`write`/`write_pages`), consulted once per page.
    Write,
    /// A page allocation (`alloc_batch`/`alloc_batch_striped`), consulted
    /// once per non-empty batch.
    Alloc,
    /// A page free (`free_batch`), consulted once per page.
    Free,
    /// A region-table change: `create_region*`, `commit_region` or
    /// `destroy_region`. Report-only — the device ignores a veto, so a
    /// hook sees the change but cannot fail it.
    Region,
}

impl DeviceOp {
    /// Short lowercase name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DeviceOp::Read => "read",
            DeviceOp::Write => "write",
            DeviceOp::Alloc => "alloc",
            DeviceOp::Free => "free",
            DeviceOp::Region => "region",
        }
    }
}

/// A fault-injection hook consulted before every device operation.
///
/// Returning `Some(err)` fails the operation with that error before it
/// touches device state; `None` lets it proceed. The one exception is
/// [`DeviceOp::Region`], which is report-only: its veto is ignored.
/// Implementations must be deterministic given the sequence of calls —
/// the simulator's reproducibility guarantee extends to injected faults.
pub trait FaultHook: Send + Sync + std::fmt::Debug {
    /// Decide the fate of one operation. `page` is `None` for
    /// allocations (no page exists yet) and region-table changes.
    fn inject(&self, op: DeviceOp, page: Option<CxlPageId>, node: NodeId) -> Option<CxlError>;
}
