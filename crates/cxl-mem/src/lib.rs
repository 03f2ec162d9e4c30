//! A simulated CXL 3.0 fabric-attached shared memory device.
//!
//! This crate models the memory device CXLfork checkpoints to: a
//! byte-addressable pool of 4 KiB pages that every node in the cluster can
//! map and access coherently, addressed by **device-stable page numbers**
//! ([`CxlPageId`]) and byte offsets ([`CxlOffset`]) that mean the same thing
//! on every node — the property CXLfork's pointer *rebase* (§4.1) depends
//! on.
//!
//! What is real and what is modelled:
//!
//! * Page *contents* are real ([`PageData`]): copy-on-write isolation,
//!   checkpoint immutability, and cross-node sharing are functionally
//!   verified by byte comparison, not assumed. Contents use a compact
//!   zero/pattern/bytes representation so that multi-gigabyte simulated
//!   footprints do not cost multi-gigabyte host memory.
//! * Access *latency* is modelled by the caller using
//!   [`simclock::LatencyModel`]; the device records access counts per node
//!   so that bandwidth/locality experiments can be reported.
//!
//! The device also hosts:
//!
//! * **Regions** ([`RegionId`]): named page groups used for whole-checkpoint
//!   accounting and reclamation (CXLporter reclaims checkpoints under CXL
//!   memory pressure, §5).
//! * **An in-CXL shared filesystem** ([`CxlFs`]): the CRIU-CXL baseline
//!   serializes its image files onto this filesystem, exactly like the
//!   paper's evaluation setup (§6.2 "in-CXL-memory filesystem shared
//!   between the two VMs").
//!
//! # Example
//!
//! ```
//! use cxl_mem::{CxlDevice, NodeId};
//!
//! # fn main() -> Result<(), cxl_mem::CxlError> {
//! let dev = CxlDevice::with_capacity_mib(64);
//! let region = dev.create_region("checkpoint:bert");
//! let page = dev.alloc_page(region)?;
//! dev.write(page, 128, &[0xAB; 16], NodeId(0))?;
//! let mut buf = [0u8; 16];
//! dev.read(page, 128, &mut buf, NodeId(1))?;
//! assert_eq!(buf, [0xAB; 16]); // node 1 sees node 0's write
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Public error enums stay `#[non_exhaustive]`: fault classes grow, and
// downstream matches must keep a wildcard arm (DESIGN.md §12).
#![warn(clippy::exhaustive_enums)]

mod device;
mod error;
mod fabric;
mod fs;
mod ids;
mod injection;
pub mod lockdep;
mod page;

pub use device::{
    CxlDevice, CxlDeviceStats, RegionGuard, RegionKind, RegionUsage, ShardUsage, StagingRegion,
    DEFAULT_SHARDS, MAX_SHARDS,
};
pub use error::CxlError;
pub use fabric::FabricLink;
pub use fs::{CxlFile, CxlFs};
pub use ids::{CxlOffset, CxlPageId, NodeId, RegionId};
pub use injection::{DeviceOp, FaultHook};
pub use page::PageData;

/// Size of one device page in bytes (shared constant, re-exported from
/// [`simclock`]).
pub const PAGE_SIZE: u64 = simclock::PAGE_SIZE;
