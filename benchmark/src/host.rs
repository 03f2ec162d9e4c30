//! Host-side clocks and process statistics.
//!
//! Everything here reads the *host*: wall time, the CPU time the kernel
//! charged this process, and its peak resident set. None of it touches
//! the simulation, so reading it cannot move a virtual-time result.

use std::time::Instant;

/// CPU time this process has spent on a core, in nanoseconds
/// (`/proc/self/schedstat`, first field). Nanosecond resolution, unlike
/// the 10 ms ticks of `/proc/self/stat`.
pub fn cpu_time_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Wall and CPU time of one measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Interval {
    /// A rep is `noisy` when the process was off-core for more than a
    /// tenth of the interval: something else had the CPU, so the wall
    /// time is not the simulator's own.
    pub fn noisy(&self) -> bool {
        self.wall_s > 0.0 && self.cpu_s / self.wall_s < 0.9
    }
}

/// Stopwatch over both host clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_ns: cpu_time_ns(),
        }
    }

    pub fn stop(&self) -> Interval {
        Interval {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: cpu_time_ns().saturating_sub(self.cpu_ns) as f64 / 1e9,
        }
    }
}

/// SplitMix64: the harness's own input generator, so a workload's
/// seed-derived choices do not depend on any crate under test.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
