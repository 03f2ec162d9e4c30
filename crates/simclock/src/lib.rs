//! Virtual time and latency modelling for the CXLfork simulation.
//!
//! Everything in the CXLfork reproduction that "takes time" is accounted on a
//! [`SimClock`] in integer nanoseconds rather than by sleeping. Subsystems
//! either *charge* a clock directly or *return* a [`SimDuration`] cost that
//! the caller accumulates. The constants the costs are derived from live in
//! [`LatencyModel`] and are calibrated against the measurements published in
//! the paper (e.g. a 391 ns CXL round trip, a 2.5 µs CXL copy-on-write
//! fault).
//!
//! The crate also provides [`stats::LatencyHistogram`], the exact-percentile
//! recorder behind the evaluation's P50/P99 tail-latency reports.
//!
//! # Example
//!
//! ```
//! use simclock::{SimClock, SimDuration, LatencyModel};
//!
//! let model = LatencyModel::calibrated();
//! let mut clock = SimClock::new();
//! clock.advance(model.cxl_read_round_trip());
//! clock.advance(SimDuration::from_micros(3));
//! assert_eq!(clock.now().as_nanos(), 391 + 3_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod latency;
mod time;

pub mod rng;
pub mod stats;

pub use clock::SimClock;
pub use latency::{LatencyModel, LatencyModelBuilder, PipelineModel, QueueingCurve, PAGE_SIZE};
pub use time::{SimDuration, SimTime};
