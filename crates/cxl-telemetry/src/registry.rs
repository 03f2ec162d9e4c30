//! The process-wide metrics registry.
//!
//! Metrics are keyed by `(layer, name, node)` and render as
//! `layer.name{node=N}` — `layer` is the owning crate (`cxl_mem`,
//! `node_os`, `core`, `cxlporter`, `faas`, `bench`), `name` is a
//! dot-separated event name, and `node` is the fabric node id when the
//! metric is per-node. Two metric kinds exist:
//!
//! * **counters** — monotonically growing `u64` event/byte counts;
//! * **timers** — [`LatencyHistogram`]s of virtual durations, for exact
//!   P50/P99 reporting.

use std::collections::BTreeMap;
use std::fmt;

use simclock::stats::LatencyHistogram;
use simclock::SimDuration;

/// A metric identity: `layer.name{node=N}`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Owning layer (crate) name, e.g. `cxl_mem`.
    pub layer: String,
    /// Event name within the layer, e.g. `bytes_read`.
    pub name: String,
    /// Fabric node id for per-node metrics, `None` for process-wide ones.
    pub node: Option<u32>,
}

impl MetricKey {
    /// Builds a key.
    pub fn new(layer: &str, name: &str, node: Option<u32>) -> Self {
        MetricKey {
            layer: layer.to_owned(),
            name: name.to_owned(),
            node,
        }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "{}.{}{{node={}}}", self.layer, self.name, n),
            None => write!(f, "{}.{}", self.layer, self.name),
        }
    }
}

/// The registry of counters and timers.
///
/// # Example
///
/// ```
/// use cxl_telemetry::MetricsRegistry;
/// use simclock::SimDuration;
///
/// let mut r = MetricsRegistry::new();
/// r.counter_add("example", "bytes_read", Some(0), 4096);
/// r.timer_record("cxlporter", "e2e", None, SimDuration::from_millis(14));
/// assert_eq!(r.counter("example", "bytes_read", Some(0)), 4096);
/// assert_eq!(r.counter("example", "bytes_read", Some(1)), 0);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    timers: BTreeMap<MetricKey, LatencyHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// `true` if nothing has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.timers.is_empty()
    }

    /// Adds `n` to a counter.
    pub fn counter_add(&mut self, layer: &str, name: &str, node: Option<u32>, n: u64) {
        *self
            .counters
            .entry(MetricKey::new(layer, name, node))
            .or_insert(0) += n;
    }

    /// Reads a counter (zero if never written).
    pub fn counter(&self, layer: &str, name: &str, node: Option<u32>) -> u64 {
        self.counters
            .get(&MetricKey::new(layer, name, node))
            .copied()
            .unwrap_or(0)
    }

    /// Records one duration sample into a timer histogram.
    pub fn timer_record(&mut self, layer: &str, name: &str, node: Option<u32>, d: SimDuration) {
        self.timers
            .entry(MetricKey::new(layer, name, node))
            .or_default()
            .record(d);
    }

    /// The timer histogram for a key, if any samples were recorded.
    pub fn timer(&self, layer: &str, name: &str, node: Option<u32>) -> Option<&LatencyHistogram> {
        self.timers.get(&MetricKey::new(layer, name, node))
    }

    /// Iterates all counters in sorted key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Iterates all timers in sorted key order.
    pub fn timers(&self) -> impl Iterator<Item = (&MetricKey, &LatencyHistogram)> {
        self.timers.iter()
    }

    /// Sums one named timer across all nodes into a single histogram
    /// (e.g. cluster-wide `cxlporter.queue.latency`).
    pub fn timer_across_nodes(&self, layer: &str, name: &str) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for (k, h) in &self.timers {
            if k.layer == layer && k.name == name {
                out.merge(h);
            }
        }
        out
    }

    /// Sums one named counter across all nodes.
    pub fn counter_across_nodes(&self, layer: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.layer == layer && k.name == name)
            .map(|(_, v)| v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_render_with_naming_scheme() {
        assert_eq!(
            MetricKey::new("cxl_mem", "bytes_read", Some(3)).to_string(),
            "cxl_mem.bytes_read{node=3}"
        );
        assert_eq!(
            MetricKey::new("cxlporter", "checkpoints", None).to_string(),
            "cxlporter.checkpoints"
        );
    }

    #[test]
    fn counters_and_timers_are_independent_namespaces() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a", "x", None, 2);
        r.counter_add("a", "x", None, 3);
        r.timer_record("a", "x", None, SimDuration::from_nanos(5));
        assert_eq!(r.counter("a", "x", None), 5);
        assert_eq!(r.timer("a", "x", None).unwrap().len(), 1);
        assert!(r.timer("a", "y", None).is_none());
    }

    #[test]
    fn per_node_keys_do_not_collide() {
        let mut r = MetricsRegistry::new();
        r.counter_add("cxl_mem", "reads", Some(0), 1);
        r.counter_add("cxl_mem", "reads", Some(1), 10);
        r.counter_add("cxl_mem", "reads", None, 100);
        assert_eq!(r.counter("cxl_mem", "reads", Some(0)), 1);
        assert_eq!(r.counter("cxl_mem", "reads", Some(1)), 10);
        assert_eq!(r.counter("cxl_mem", "reads", None), 100);
        assert_eq!(r.counter_across_nodes("cxl_mem", "reads"), 111);
    }
}
