//! A simulated per-node operating system kernel.
//!
//! CXLfork is, at heart, a set of manipulations of Linux memory-management
//! structures: it copies a process's page-table tree and VMA tree into CXL
//! memory, *rebases* their internal pointers onto device offsets, and later
//! *attaches* the immutable leaves of those trees into a new process on
//! another node (§4). Reproducing that faithfully requires the structures
//! themselves, so this crate implements the OS substrate the paper's kernel
//! work sits on:
//!
//! * [`frame::FrameAllocator`] — node-local physical memory with refcounted
//!   frames (for local-fork CoW sharing) and a hard capacity limit (for the
//!   memory-constrained CXLporter experiments, Fig. 10c).
//! * [`pte`] — page-table entries with Present/Writable/Accessed/Dirty bits
//!   plus the software bits CXLfork uses (CoW, checkpoint-pinned,
//!   fetch-on-access, user hot hint).
//! * [`page_table::PageTable`] — a 4-level page table, stored as one map of
//!   its leaves keyed by leaf index (directory pages are counted from
//!   leaf-index prefixes), whose *leaves* can be either node-local
//!   (mutable) or **attached**: shared, immutable, CXL-resident leaves
//!   referenced by device page number. Mutating an
//!   attached leaf triggers a leaf-level copy-on-write, exactly as §4.2.1
//!   describes. Attached leaves expose atomic Accessed-bit tracking (the
//!   one mutation §4.3 permits on checkpointed PTEs).
//! * [`vma`] — virtual memory areas and a [`vma::VmaTree`] organised in
//!   blocks that can likewise be attached from a checkpoint and copied on
//!   first update/fault.
//! * [`mm::AddressSpace`] — ties the two trees together with the fault
//!   state machine: anonymous zero-fill, file-backed major faults, local
//!   and CXL copy-on-write, CXL pull (migrate-on-access) faults, and the
//!   per-access LLC + memory-tier latency charging.
//! * [`cache::LlcCache`] — a set-associative last-level-cache model (flat
//!   ring sets probed by control bytes); the paper's warm-execution
//!   results hinge on whether a function's working set fits in the 64 MB
//!   LLC (§7.1).
//! * [`fs::SharedFs`] — the cluster-wide identical root filesystem that all
//!   remote-fork designs assume (§4.1).
//! * [`process`] / [`node::Node`] — tasks (registers, fd table,
//!   namespaces), process tables, and the node runtime gluing everything to
//!   a [`simclock::SimClock`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cxl_mem::CxlDevice;
//! use node_os::{Node, NodeConfig, mm::Access, vma::{Protection, VmaKind}};
//!
//! # fn main() -> Result<(), node_os::OsError> {
//! let device = Arc::new(CxlDevice::with_capacity_mib(64));
//! let mut node = Node::new(NodeConfig::default().with_id(0), device);
//! let pid = node.spawn("demo")?;
//! // Give the process 1 MiB of anonymous heap and touch it.
//! node.process_mut(pid)?.mm.map_anonymous(0x1000, 256, Protection::read_write(), "heap")?;
//! let outcome = node.access(pid, 0x1000, Access::Write)?;
//! assert!(outcome.fault.is_some()); // first touch zero-fills a frame
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Public error enums stay `#[non_exhaustive]`: fault classes grow, and
// downstream matches must keep a wildcard arm (DESIGN.md §12).
#![warn(clippy::exhaustive_enums)]

pub mod addr;
pub mod cache;
pub mod error;
pub mod frame;
pub mod fs;
pub mod mm;
pub mod node;
pub mod page_table;
pub mod pagecache;
pub mod process;
pub mod pte;
pub mod vma;

pub use addr::{Pfn, PhysAddr, Pid, VirtAddr, VirtPageNum};
pub use error::OsError;
pub use node::{Capture, CapturedPage, Node, NodeConfig};

/// Re-export of the fabric node identifier.
pub use cxl_mem::NodeId;

/// Size of one page in bytes.
pub const PAGE_SIZE: u64 = cxl_mem::PAGE_SIZE;

/// Number of PTEs in one page-table leaf (4 KiB / 8 B).
pub const PTES_PER_LEAF: usize = 512;
