//! Deterministic CXL fabric model: devices behind a switch, with
//! bandwidth contention.
//!
//! The flat latency model in [`simclock`] charges the same 391 ns round
//! trip no matter how much traffic is in flight; real CXL fabrics
//! saturate per-port and per-uplink bandwidth first (CXLMemSim,
//! CXL-DMSim). This crate adds the missing layer:
//!
//! * [`FabricTopology`] — one or more CXL devices behind a switch. Each
//!   device exposes `ports_per_device` switch ports (its page-pool
//!   shards map onto ports modulo the port count) plus one uplink into
//!   the switch whose capacity is the sum of its port bandwidths.
//! * **Sliding-window credit accounting** — every charged transfer
//!   records its bytes against the involved ports and the device's
//!   uplink in a bucketed window of virtual time; bytes age out as the
//!   clock advances, so a long-idle fabric is indistinguishable from a
//!   fresh one.
//! * **Queueing delay** — [`simclock::QueueingCurve`] converts the
//!   bytes a transfer *finds in flight* (never its own) into extra
//!   latency: the port backlog's drain time blown up by the standard
//!   convex `1/(1-u)` factor. An isolated transfer finds an empty
//!   window and pays **exactly zero**, which is what keeps the default
//!   single-device, zero-load configuration bit-identical to the flat
//!   calibrated model — the six committed BENCH baselines do not move.
//! * [`PlacementPolicy::device`] — stripe vs. locality placement of
//!   checkpoint images across the topology's devices.
//!
//! The topology implements [`cxl_mem::FabricLink`], so it attaches to a
//! [`cxl_mem::CxlDevice`] the same way a fault hook does: one relaxed
//! atomic load when absent, and `core`'s checkpoint/restore costing
//! charges it without a dependency on this crate. All state lives under
//! a single [`TrackedMutex`] (class `cxl_fabric.switch`) that is a leaf
//! in the lock order — nothing inside it calls back into the device —
//! and all arithmetic is straight-line integer/`f64` work on explicit
//! inputs, so same-seed runs are bit-identical whether or not a
//! telemetry session is armed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cxl_mem::lockdep::{LockClass, TrackedMutex};
use cxl_mem::FabricLink;
use serde::{Deserialize, Serialize};
use simclock::{LatencyModel, QueueingCurve, SimDuration, SimTime};

/// Buckets per sliding window: finer buckets age traffic out more
/// smoothly at the cost of a little state. Eight matches the device's
/// default shard count and keeps the window array cache-resident.
const WINDOW_BUCKETS: u64 = 8;

/// How checkpoint images are spread across the devices behind one
/// switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// All images of one function land on the same device (chosen by a
    /// deterministic hash of the function's identity). Maximizes
    /// template-page dedup inside `cxl-store` — cross-image sharing
    /// only works within one device — at the price of hot functions
    /// concentrating their traffic on one uplink.
    Locality,
    /// Consecutive images round-robin across devices. Spreads load over
    /// every uplink, at the price of duplicating template pages into
    /// each device's content index.
    Stripe,
}

impl PlacementPolicy {
    /// The device, out of `devices`, that the `nth` image of the
    /// function identified by `function_seed` lands on: locality hashes
    /// the function identity (all its images share a device), stripe
    /// round-robins on `nth`.
    ///
    /// # Panics
    /// If `devices` is zero.
    pub fn device(self, devices: u32, function_seed: u64, nth: u64) -> u32 {
        let n = u64::from(devices);
        let pick = match self {
            PlacementPolicy::Locality => mix64(function_seed) % n,
            PlacementPolicy::Stripe => nth % n,
        };
        u32::try_from(pick).unwrap_or(0)
    }
}

/// Shape of a [`FabricTopology`].
///
/// The default — one device, eight ports, no background load — is the
/// configuration under which the fabric charges exactly zero extra
/// latency to an isolated transfer, keeping the flat 391 ns model
/// intact. Every port drains at the calibrated model's streaming CXL
/// write bandwidth ([`LatencyModel::cxl_write_bytes_per_ns`], 8 B/ns),
/// so one port at full tilt is one busy bank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Devices behind the switch (≥ 1).
    pub devices: u32,
    /// Switch ports per device (≥ 1); device shards map onto ports
    /// modulo this count.
    pub ports_per_device: u32,
    /// Width of the sliding accounting window in virtual nanoseconds.
    pub window_ns: u64,
    /// Synthetic offered load from traffic outside the simulation, in
    /// permille of each link's window capacity (0 = idle fabric,
    /// 900 = near saturation). Added to the in-flight bytes every
    /// charge sees, on ports and uplinks alike.
    pub background_load_permille: u32,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            devices: 1,
            ports_per_device: 8,
            window_ns: 1_000_000,
            background_load_permille: 0,
        }
    }
}

/// Lifetime accounting for one [`FabricTopology`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Non-empty transfers charged.
    pub transfers: u64,
    /// Total bytes recorded against ports (uplink bytes mirror these).
    pub charged_bytes: u64,
    /// Sum of all queueing delays returned.
    pub total_queue_delay: SimDuration,
    /// Largest single queueing delay returned.
    pub max_queue_delay: SimDuration,
}

/// One link's bucketed sliding window of recorded bytes.
#[derive(Debug, Clone, Default)]
struct Window {
    /// Bytes per bucket, indexed by `epoch % WINDOW_BUCKETS`.
    buckets: [u64; WINDOW_BUCKETS as usize],
    /// Epoch (bucket index in absolute time) the window was last
    /// advanced to; buckets older than `WINDOW_BUCKETS` epochs are
    /// stale and zeroed on advance.
    epoch: u64,
}

impl Window {
    /// Moves the window forward to `epoch`, retiring stale buckets.
    fn advance(&mut self, epoch: u64) {
        if epoch <= self.epoch {
            return;
        }
        let steps = (epoch - self.epoch).min(WINDOW_BUCKETS);
        for i in 1..=steps {
            self.buckets[((self.epoch + i) % WINDOW_BUCKETS) as usize] = 0;
        }
        self.epoch = epoch;
    }

    /// Records bytes into the current bucket.
    fn add(&mut self, bytes: u64) {
        self.buckets[(self.epoch % WINDOW_BUCKETS) as usize] += bytes;
    }

    /// Bytes still in flight inside the window.
    fn inflight(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Mutable switch state, all under one leaf lock.
#[derive(Debug)]
struct SwitchState {
    /// Monotone virtual-time cursor: per-node clocks may disagree, so
    /// the switch clamps every charge time to the latest it has seen —
    /// windows only ever move forward.
    cursor_ns: u64,
    /// Per-port windows, indexed `device * ports_per_device + port`.
    ports: Vec<Window>,
    /// Per-device uplink windows.
    uplinks: Vec<Window>,
    stats: FabricStats,
}

/// A switch with one or more CXL devices attached: the stateful half of
/// the fabric model. See the crate docs for the accounting scheme.
#[derive(Debug)]
pub struct FabricTopology {
    config: FabricConfig,
    port_curve: QueueingCurve,
    uplink_curve: QueueingCurve,
    /// Virtual nanoseconds per window bucket.
    bucket_ns: u64,
    state: TrackedMutex<SwitchState>,
}

impl FabricTopology {
    /// Builds a topology for `config`.
    ///
    /// # Panics
    /// If `devices` or `ports_per_device` is zero, the window is narrower
    /// than [`WINDOW_BUCKETS`] ns, or the background load exceeds 1000 ‰.
    pub fn new(config: FabricConfig) -> Self {
        assert!(config.devices >= 1, "fabric needs at least one device");
        assert!(
            config.ports_per_device >= 1,
            "fabric devices need at least one port"
        );
        assert!(
            config.window_ns >= WINDOW_BUCKETS,
            "fabric window must cover at least {WINDOW_BUCKETS} ns"
        );
        assert!(
            config.background_load_permille <= 1000,
            "background load is a permille fraction of capacity"
        );
        let link_bytes_per_ns = LatencyModel::calibrated().cxl_write_bytes_per_ns;
        let port_curve = QueueingCurve::new(link_bytes_per_ns, config.window_ns);
        let uplink_curve = QueueingCurve::new(
            link_bytes_per_ns * f64::from(config.ports_per_device),
            config.window_ns,
        );
        let ports = (config.devices * config.ports_per_device) as usize;
        FabricTopology {
            config,
            port_curve,
            uplink_curve,
            bucket_ns: (config.window_ns / WINDOW_BUCKETS).max(1),
            state: TrackedMutex::new(
                LockClass::FABRIC_SWITCH,
                SwitchState {
                    cursor_ns: 0,
                    ports: vec![Window::default(); ports],
                    uplinks: vec![Window::default(); config.devices as usize],
                    stats: FabricStats::default(),
                },
            ),
        }
    }

    /// The configuration this topology was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// The queueing curve of one switch port.
    pub fn port_curve(&self) -> QueueingCurve {
        self.port_curve
    }

    /// Lifetime accounting snapshot.
    pub fn stats(&self) -> FabricStats {
        self.state.lock().stats.clone()
    }

    /// Synthetic in-flight bytes one port sees from background load.
    fn background_port_bytes(&self) -> u64 {
        self.port_curve.capacity_bytes() / 1000 * u64::from(self.config.background_load_permille)
    }

    /// Synthetic in-flight bytes one uplink sees from background load.
    fn background_uplink_bytes(&self) -> u64 {
        self.uplink_curve.capacity_bytes() / 1000 * u64::from(self.config.background_load_permille)
    }

    /// Current utilization of one port in permille of window capacity
    /// (background load included), for tests and dashboards.
    pub fn port_utilization_permille(&self, device: u32, port: u32) -> u64 {
        let idx = (device * self.config.ports_per_device + port) as usize;
        let st = self.state.lock();
        let inflight = st.ports[idx].inflight() + self.background_port_bytes();
        inflight.saturating_mul(1000) / self.port_curve.capacity_bytes().max(1)
    }

    /// Charges one transfer: computes the delay it finds, then records
    /// its bytes. See [`FabricLink::charge_transfer`] for the contract.
    fn charge(&self, device: u32, now: SimTime, port_bytes: &[u64]) -> SimDuration {
        let total: u64 = port_bytes.iter().sum();
        if total == 0 {
            return SimDuration::ZERO;
        }
        let device = device.min(self.config.devices - 1);
        let ports = self.config.ports_per_device;
        // Fold shard byte counts onto switch ports (shard i → port i mod
        // ports). Fixed-size scratch, index order — deterministic.
        let mut folded = vec![0u64; ports as usize];
        for (shard, &bytes) in port_bytes.iter().enumerate() {
            folded[shard % ports as usize] += bytes;
        }

        let mut st = self.state.lock();
        let cursor = st.cursor_ns.max(now.as_nanos());
        st.cursor_ns = cursor;
        let epoch = cursor / self.bucket_ns;

        // Delay first — a transfer queues behind what is already in
        // flight (plus synthetic background load), never behind itself.
        let bg_port = self.background_port_bytes();
        let base = (device * ports) as usize;
        let mut delay = SimDuration::ZERO;
        for (port, &bytes) in folded.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            let window = &mut st.ports[base + port];
            window.advance(epoch);
            delay = delay.max(self.port_curve.delay(window.inflight() + bg_port));
        }
        let uplink = &mut st.uplinks[device as usize];
        uplink.advance(epoch);
        delay += self
            .uplink_curve
            .delay(uplink.inflight() + self.background_uplink_bytes());

        // Then record, so later transfers see this one.
        for (port, &bytes) in folded.iter().enumerate() {
            if bytes > 0 {
                st.ports[base + port].add(bytes);
            }
        }
        st.uplinks[device as usize].add(total);

        st.stats.transfers += 1;
        st.stats.charged_bytes += total;
        st.stats.total_queue_delay += delay;
        st.stats.max_queue_delay = st.stats.max_queue_delay.max(delay);

        // Pure observation — armed runs stay bit-identical. Queue delay
        // and port utilisation are read from `stats` and
        // `port_utilization_permille`, not from telemetry.
        cxl_telemetry::counter_add("cxl_fabric", "bytes", Some(device), total);
        delay
    }
}

impl FabricLink for FabricTopology {
    fn charge_transfer(&self, device: u32, now: SimTime, port_bytes: &[u64]) -> SimDuration {
        self.charge(device, now, port_bytes)
    }
}

/// Deterministic 64-bit mix (splitmix64 finalizer) for locality
/// placement — stable across platforms and runs, no `RandomState`.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_telemetry::TelemetrySession;

    fn topo(load_permille: u32) -> FabricTopology {
        FabricTopology::new(FabricConfig {
            background_load_permille: load_permille,
            ..FabricConfig::default()
        })
    }

    #[test]
    fn fabric_isolated_transfer_costs_exactly_zero() {
        let t = topo(0);
        // First transfer on an idle fabric: nothing in flight anywhere,
        // delay must be exactly zero — the calibration contract.
        let d = t.charge(0, SimTime::from_nanos(100), &[4096, 4096, 0, 0]);
        assert_eq!(d, SimDuration::ZERO);
        let stats = t.stats();
        assert_eq!(stats.transfers, 1);
        assert_eq!(stats.charged_bytes, 8192);
        assert_eq!(stats.max_queue_delay, SimDuration::ZERO);
        // Empty transfers don't even count.
        assert_eq!(
            t.charge(0, SimTime::from_nanos(200), &[0, 0]),
            SimDuration::ZERO
        );
        assert_eq!(t.stats().transfers, 1);
    }

    #[test]
    fn fabric_backlog_slows_the_next_transfer_and_ages_out() {
        let t = topo(0);
        let now = SimTime::from_nanos(1000);
        assert_eq!(t.charge(0, now, &[1 << 20]), SimDuration::ZERO);
        // Same window: the second transfer queues behind the first.
        let d2 = t.charge(0, SimTime::from_nanos(1001), &[1 << 20]);
        assert!(d2 > SimDuration::ZERO, "backlog must delay");
        // A different port of the same device only pays the shared
        // uplink, not the busy port.
        let d_other = t.charge(0, SimTime::from_nanos(1002), &[0, 1 << 20]);
        assert!(d_other > SimDuration::ZERO && d_other < d2);
        // After a full window of idle virtual time every byte has aged
        // out: back to exactly zero.
        let later = SimTime::from_nanos(1002 + 2 * t.config().window_ns);
        assert_eq!(t.charge(0, later, &[1 << 20]), SimDuration::ZERO);
    }

    #[test]
    fn fabric_devices_are_independent_behind_the_switch() {
        let t = FabricTopology::new(FabricConfig {
            devices: 2,
            ..FabricConfig::default()
        });
        let now = SimTime::from_nanos(0);
        assert_eq!(t.charge(0, now, &[1 << 20]), SimDuration::ZERO);
        // The other device's ports and uplink are untouched.
        assert_eq!(
            t.charge(1, SimTime::from_nanos(1), &[1 << 20]),
            SimDuration::ZERO
        );
        // While the same device back-to-back pays.
        assert!(t.charge(0, SimTime::from_nanos(2), &[1 << 20]) > SimDuration::ZERO);
    }

    #[test]
    fn fabric_delay_is_monotone_in_background_load() {
        let payload = [256 * 4096u64; 8];
        let mut prev = SimDuration::ZERO;
        for load in [0, 250, 500, 750, 900] {
            let t = topo(load);
            // Two charges: the second sees background + the first.
            t.charge(0, SimTime::from_nanos(0), &payload);
            let d = t.charge(0, SimTime::from_nanos(1), &payload);
            assert!(d >= prev, "load {load}: delay {d:?} fell below {prev:?}");
            if load > 0 {
                assert!(d > SimDuration::ZERO);
            }
            prev = d;
        }
    }

    #[test]
    fn fabric_cursor_is_monotone_under_disagreeing_clocks() {
        let t = topo(0);
        t.charge(0, SimTime::from_nanos(5_000_000), &[1 << 20]);
        // A node whose clock lags charges "in the past": the switch
        // clamps to its cursor instead of rewinding the window.
        let d = t.charge(0, SimTime::from_nanos(10), &[1 << 20]);
        assert!(
            d > SimDuration::ZERO,
            "lagging clock must not reset the window"
        );
    }

    #[test]
    fn fabric_telemetry_is_cost_invariant() {
        let run = || {
            let t = topo(300);
            let mut delays = Vec::new();
            for i in 0..16u64 {
                delays.push(t.charge(0, SimTime::from_nanos(i * 10_000), &[i * 4096, 4096]));
            }
            (delays, t.stats())
        };
        let (unarmed, stats_unarmed) = run();
        let session = TelemetrySession::start();
        let (armed, stats_armed) = run();
        let data = session.finish();
        assert_eq!(unarmed, armed, "armed telemetry must not change delays");
        assert_eq!(stats_unarmed, stats_armed);
        // And the session actually observed the fabric.
        assert!(data.registry.counter("cxl_fabric", "bytes", Some(0)) > 0);
    }

    #[test]
    fn fabric_port_utilization_reports_background_floor() {
        let t = topo(500);
        // No traffic: every port still reports the synthetic 500 ‰.
        let u = t.port_utilization_permille(0, 3);
        assert!((490..=510).contains(&u), "got {u} ‰");
    }

    #[test]
    fn placement_policies_split_locality_and_stripe() {
        // Locality: every image of one function lands on one device.
        let home = PlacementPolicy::Locality.device(2, 42, 0);
        assert!(home < 2);
        for nth in 1..32 {
            assert_eq!(PlacementPolicy::Locality.device(2, 42, nth), home);
        }
        // ... and the hash actually uses the function identity.
        assert!(
            (0..64).any(|f| PlacementPolicy::Locality.device(2, f, 0) != home),
            "locality hash maps every function to one device"
        );
        // Stripe: consecutive images alternate.
        for nth in 0..32 {
            assert_eq!(PlacementPolicy::Stripe.device(2, 42, nth), (nth % 2) as u32);
        }
        // One device takes every image under either policy.
        for policy in [PlacementPolicy::Locality, PlacementPolicy::Stripe] {
            assert!((0..16).all(|nth| policy.device(1, 7, nth) == 0));
        }
    }
}
