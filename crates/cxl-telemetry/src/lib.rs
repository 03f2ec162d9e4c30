//! # cxl-telemetry — virtual-clock-native observability
//!
//! The simulation's instruments: structured [`SpanRecord`]s charged to
//! `simclock` virtual time, a process-wide [`MetricsRegistry`] of
//! counters/gauges/latency timers keyed by `(layer, name, node)`, and two
//! exporters — Chrome `trace_event` JSON ([`chrome_trace`]) and the
//! stable [`BenchReport`] schema behind `BENCH_<scenario>.json`.
//!
//! ## Always-on, nearly-free
//!
//! Instrumentation calls are compiled into the hot paths of every layer
//! (`cxl-mem`, `node-os`, `core`, `cxlporter`, `faas`), but they are
//! inert until a sink is armed: the fast path is **one relaxed atomic
//! load** — the same discipline `cxl_mem::FaultHook` uses for fault
//! injection. No allocation, no lock, no formatting happens while
//! unarmed, and recording never advances a clock, so an armed run
//! observes byte-identical virtual-time behaviour to an unarmed one.
//!
//! ## Sessions
//!
//! A [`TelemetrySession`] arms the process-wide sink and collects
//! everything recorded until [`TelemetrySession::finish`] returns the
//! [`TelemetryData`]. Only one session exists at a time; concurrent
//! tests must serialize around it (the harness uses a static mutex).
//!
//! ```
//! use cxl_telemetry::{span, TelemetrySession};
//! use simclock::SimTime;
//!
//! let session = TelemetrySession::start();
//! cxl_telemetry::counter_add("cxl_mem", "bytes_read", Some(0), 4096);
//! let pages = 64u64;
//! span!(
//!     "checkpoint.copy_pages",
//!     0,
//!     SimTime::ZERO,
//!     SimTime::from_nanos(500),
//!     pages
//! );
//! let data = session.finish();
//! assert_eq!(data.registry.counter("cxl_mem", "bytes_read", Some(0)), 4096);
//! assert_eq!(data.spans.len(), 1);
//! assert_eq!(data.spans[0].attrs, vec![("pages".to_string(), 64)]);
//! ```

pub mod chrome;
pub mod json;
pub mod registry;
pub mod report;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

#[allow(
    clippy::disallowed_types,
    reason = "cxl-telemetry sits below cxl-mem in the layering, so lockdep's TrackedMutex is unavailable here"
)]
use parking_lot::Mutex;
use simclock::{SimDuration, SimTime};

pub use chrome::chrome_trace;
pub use json::{Json, JsonError};
pub use registry::{MetricKey, MetricsRegistry};
pub use report::{BenchReport, LatencySummary, SCHEMA_VERSION};
pub use span::{SpanBuffer, SpanRecord, TRACK_GLOBAL};

/// Fast-path flag: `true` only while a [`TelemetrySession`] is live.
/// Checked with one relaxed load before anything else happens.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The armed sink. Lock order: callers may hold device/node locks when
/// recording, so nothing inside this lock ever calls back into the
/// simulation layers.
#[allow(
    clippy::disallowed_types,
    reason = "leaf lock below the lockdep layer; nothing inside it calls back up (see lock-order note above)"
)]
static SINK: Mutex<Option<SinkState>> = Mutex::new(None);

#[derive(Debug, Default)]
struct SinkState {
    registry: MetricsRegistry,
    spans: SpanBuffer,
}

/// `true` while a telemetry session is armed (one relaxed atomic load).
#[inline]
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Adds `n` to counter `layer.name{node=}`. No-op while unarmed.
#[inline]
pub fn counter_add(layer: &str, name: &str, node: Option<u32>, n: u64) {
    if !is_armed() {
        return;
    }
    if let Some(state) = SINK.lock().as_mut() {
        state.registry.counter_add(layer, name, node, n);
    }
}

/// Sets gauge `layer.name{node=}` to `v`. No-op while unarmed.
#[inline]
pub fn gauge_set(layer: &str, name: &str, node: Option<u32>, v: i64) {
    if !is_armed() {
        return;
    }
    if let Some(state) = SINK.lock().as_mut() {
        state.registry.gauge_set(layer, name, node, v);
    }
}

/// Records one duration sample into timer `layer.name{node=}`. No-op
/// while unarmed.
#[inline]
pub fn timer_record(layer: &str, name: &str, node: Option<u32>, d: SimDuration) {
    if !is_armed() {
        return;
    }
    if let Some(state) = SINK.lock().as_mut() {
        state.registry.timer_record(layer, name, node, d);
    }
}

/// Records a complete leaf span. No-op while unarmed; `attrs` stays a
/// borrowed slice so the unarmed path allocates nothing.
#[inline]
pub fn record_span(name: &str, track: u32, start: SimTime, end: SimTime, attrs: &[(&str, u64)]) {
    if !is_armed() {
        return;
    }
    if let Some(state) = SINK.lock().as_mut() {
        let attrs = attrs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        state.spans.record(name, track, start, end, attrs);
    }
}

/// Opens a span on `track`; spans recorded before the matching
/// [`span_close`] nest one level deeper. No-op while unarmed.
#[inline]
pub fn span_open(name: &str, track: u32, start: SimTime, attrs: &[(&str, u64)]) {
    if !is_armed() {
        return;
    }
    if let Some(state) = SINK.lock().as_mut() {
        let attrs = attrs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        state.spans.open(name, track, start, attrs);
    }
}

/// Closes the innermost open span on `track`. No-op while unarmed or
/// when no span is open there (an unbalanced close is harmless).
#[inline]
pub fn span_close(track: u32, end: SimTime) {
    if !is_armed() {
        return;
    }
    if let Some(state) = SINK.lock().as_mut() {
        state.spans.close(track, end);
    }
}

/// Records a complete leaf span with identifier-named attributes.
///
/// ```
/// # use cxl_telemetry::span;
/// # use simclock::SimTime;
/// # let (t0, t1) = (SimTime::ZERO, SimTime::from_nanos(10));
/// let pages = 8u64;
/// span!("checkpoint.copy_pages", 0, t0, t1, pages);           // attr from variable
/// span!("checkpoint.rebase", 0, t0, t1, pointers = 3 + 4);    // attr from expression
/// span!("checkpoint.serialize", 0, t0, t1);                   // no attrs
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr, $track:expr, $start:expr, $end:expr $(,)?) => {
        $crate::record_span($name, $track, $start, $end, &[])
    };
    ($name:expr, $track:expr, $start:expr, $end:expr, $($attr:ident = $val:expr),+ $(,)?) => {
        $crate::record_span(
            $name,
            $track,
            $start,
            $end,
            &[$((stringify!($attr), ($val) as u64)),+],
        )
    };
    ($name:expr, $track:expr, $start:expr, $end:expr, $($attr:ident),+ $(,)?) => {
        $crate::record_span(
            $name,
            $track,
            $start,
            $end,
            &[$((stringify!($attr), ($attr) as u64)),+],
        )
    };
}

/// Everything one session recorded.
#[derive(Debug, Default)]
pub struct TelemetryData {
    /// The counters, gauges and timers.
    pub registry: MetricsRegistry,
    /// Finished spans in close order.
    pub spans: Vec<SpanRecord>,
}

/// RAII guard over the armed process-wide sink.
///
/// [`start`](TelemetrySession::start) arms, [`finish`](TelemetrySession::finish)
/// disarms and returns the [`TelemetryData`]; dropping without finishing
/// disarms and discards. Starting a new session replaces any prior one,
/// so concurrent users must serialize externally.
#[derive(Debug)]
pub struct TelemetrySession {
    finished: bool,
}

impl TelemetrySession {
    /// Arms the sink with a fresh registry and span buffer.
    pub fn start() -> TelemetrySession {
        *SINK.lock() = Some(SinkState::default());
        ARMED.store(true, Ordering::SeqCst);
        TelemetrySession { finished: false }
    }

    /// Disarms the sink and returns everything it recorded.
    pub fn finish(mut self) -> TelemetryData {
        self.finished = true;
        ARMED.store(false, Ordering::SeqCst);
        let state = SINK.lock().take().unwrap_or_default();
        TelemetryData {
            registry: state.registry,
            spans: state.spans.into_spans(),
        }
    }
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        if !self.finished {
            ARMED.store(false, Ordering::SeqCst);
            *SINK.lock() = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink is process-global; tests in this module serialize on it.
    #[allow(
        clippy::disallowed_types,
        reason = "test-only serialization of the process-global sink; below the lockdep layer"
    )]
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn unarmed_calls_record_nothing() {
        let _guard = TEST_LOCK.lock();
        assert!(!is_armed());
        counter_add("l", "c", None, 1);
        timer_record("l", "t", None, SimDuration::from_nanos(1));
        span!("x", 0, t(0), t(1));
        span_open("y", 0, t(0), &[]);
        span_close(0, t(1));

        let session = TelemetrySession::start();
        let data = session.finish();
        assert!(data.registry.is_empty(), "unarmed records must not leak in");
        assert!(data.spans.is_empty());
    }

    #[test]
    fn session_collects_and_disarms() {
        let _guard = TEST_LOCK.lock();
        let session = TelemetrySession::start();
        assert!(is_armed());
        counter_add("cxl_mem", "reads", Some(1), 3);
        gauge_set("cxlporter", "queue_depth", None, 5);
        span_open("core.checkpoint", 0, t(0), &[]);
        span!("core.checkpoint.copy_pages", 0, t(0), t(40), pages = 2);
        span_close(0, t(100));
        let data = session.finish();
        assert!(!is_armed());

        assert_eq!(data.registry.counter("cxl_mem", "reads", Some(1)), 3);
        assert_eq!(
            data.registry.gauge("cxlporter", "queue_depth", None),
            Some(5)
        );
        assert_eq!(data.spans.len(), 2);
        let child = &data.spans[0];
        let parent = &data.spans[1];
        assert_eq!(child.name, "core.checkpoint.copy_pages");
        assert_eq!(child.depth, 1);
        assert_eq!(child.attrs, vec![("pages".to_owned(), 2)]);
        assert_eq!(parent.name, "core.checkpoint");
        assert_eq!(parent.depth, 0);
        assert_eq!(parent.dur_ns(), 100);
    }

    #[test]
    fn drop_without_finish_disarms() {
        let _guard = TEST_LOCK.lock();
        {
            let _session = TelemetrySession::start();
            assert!(is_armed());
        }
        assert!(!is_armed());
        let session = TelemetrySession::start();
        let data = session.finish();
        assert!(data.registry.is_empty(), "dropped session must not leak");
    }

    #[test]
    fn span_macro_attr_forms() {
        let _guard = TEST_LOCK.lock();
        let session = TelemetrySession::start();
        let pages = 7u64;
        let node = 2u32;
        span!("a", 0, t(0), t(1), pages, node);
        span!("b", 0, t(0), t(1), bytes = 4096u64 * 2);
        span!("c", 0, t(0), t(1));
        let data = session.finish();
        assert_eq!(
            data.spans[0].attrs,
            vec![("pages".to_owned(), 7), ("node".to_owned(), 2)]
        );
        assert_eq!(data.spans[1].attrs, vec![("bytes".to_owned(), 8192)]);
        assert!(data.spans[2].attrs.is_empty());
    }
}
