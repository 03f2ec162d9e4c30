//! The deterministic event queue under the porter's cluster-scale trace
//! runs.
//!
//! [`EventQueue`] is a binary-heap priority queue of typed events keyed
//! by `(virtual time, sequence number)`. The sequence number is assigned
//! at insertion, so the ordering is **total**: no two [`Scheduled`]
//! events ever compare equal, ties in virtual time resolve to insertion
//! order, and a run is bit-reproducible regardless of heap internals.
//!
//! That is the whole crate. The dispatch loop (`while let Some(ev) =
//! queue.pop()`, with its "virtual time never runs backwards"
//! assertion) belongs to the one simulation that exists,
//! `cxlporter::CxlPorter::try_run_trace`.
//!
//! Everything here is pure virtual time: no wall clock, no ambient
//! randomness, no iteration over unordered containers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;

pub use queue::{EventQueue, Scheduled};
