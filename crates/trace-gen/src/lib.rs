//! An Azure-like serverless invocation trace generator.
//!
//! The paper drives its CXLporter experiments with the production traces
//! of Shahrad et al. ("Serverless in the Wild", ATC '20), invoking the
//! Table 1 functions "following Azure serverless traces … of bursty
//! functions under a total load of 150 Requests Per Second on average"
//! (§6.2, §7.2). Those traces are a proprietary download, so this crate
//! generates a statistical stand-in that reproduces the two first-order
//! properties the experiments depend on:
//!
//! * **popularity skew** — a few functions receive most invocations
//!   (Zipf-distributed per-function rates, with the small functions most
//!   popular, as in Azure);
//! * **burstiness** — each function alternates Poisson *base* arrivals
//!   with randomly placed high-rate burst windows. Bursts are what make
//!   cold-start latency feed on itself (§7.2: slow rforks push more
//!   requests into the cold path).
//!
//! Generation is fully deterministic given the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Public error enums stay `#[non_exhaustive]`: fault classes grow, and
// downstream matches must keep a wildcard arm (DESIGN.md §12).
#![warn(clippy::exhaustive_enums)]

use std::fmt;
use std::sync::Arc;

use rand::Rng;
use serde::{Deserialize, Serialize};
use simclock::rng::{derived, exp_sample, ZipfSampler};
use simclock::SimTime;

/// One invocation request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Invocation {
    /// Arrival time.
    pub time: SimTime,
    /// Target function name, shared by every invocation of the function
    /// in a generated trace.
    pub function: Arc<str>,
    /// Owning tenant. The single-tenant generator and historical traces
    /// use owner 0; the diurnal generator assigns one owner per tenant
    /// so the porter's fairness quotas have something to meter.
    #[serde(default)]
    pub owner: u32,
}

/// Why a trace failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// An invocation arrived before its predecessor. Replaying such a
    /// trace through the porter would silently dispatch out of order.
    OutOfOrder {
        /// Index of the offending invocation.
        index: usize,
        /// Its arrival time.
        time: SimTime,
        /// The predecessor's (later) arrival time.
        prev: SimTime,
    },
    /// An invocation names a function the catalog does not know; the
    /// porter would silently drop it.
    UnknownFunction {
        /// Index of the offending invocation.
        index: usize,
        /// The unresolvable function name.
        function: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::OutOfOrder { index, time, prev } => write!(
                f,
                "invocation {index} at t={}ns precedes its predecessor at t={}ns",
                time.as_nanos(),
                prev.as_nanos()
            ),
            TraceError::UnknownFunction { index, function } => {
                write!(f, "invocation {index} names unknown function {function:?}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Checks that `trace` is replayable: arrival times non-decreasing and
/// every function name resolvable against `known` (case-insensitive,
/// matching `faas::by_name` semantics).
///
/// # Errors
///
/// Returns the first [`TraceError`] encountered, scanning in order.
pub fn validate(trace: &[Invocation], known: &[String]) -> Result<(), TraceError> {
    let known_lower: std::collections::BTreeSet<String> =
        known.iter().map(|n| n.to_ascii_lowercase()).collect();
    // Generated names are already lower-case: fold (and allocate) only
    // for a name that has something to fold.
    let is_known = |name: &str| {
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            known_lower.contains(&name.to_ascii_lowercase())
        } else {
            known_lower.contains(name)
        }
    };
    let mut prev = SimTime::ZERO;
    for (index, inv) in trace.iter().enumerate() {
        if inv.time < prev {
            return Err(TraceError::OutOfOrder {
                index,
                time: inv.time,
                prev,
            });
        }
        prev = inv.time;
        if !is_known(&inv.function) {
            return Err(TraceError::UnknownFunction {
                index,
                function: inv.function.to_string(),
            });
        }
    }
    Ok(())
}

/// Canonical name for function `idx` of tenant `tenant`, shared between
/// the diurnal generator and catalog builders so both sides agree on
/// the namespace.
pub fn function_name(tenant: u32, idx: u32) -> String {
    format!("t{tenant:03}-f{idx}")
}

/// Trace-generation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Deterministic seed.
    pub seed: u64,
    /// Trace duration in seconds.
    pub duration_secs: f64,
    /// Aggregate average arrival rate (requests per second). The paper
    /// uses 150 RPS.
    pub total_rps: f64,
    /// Function names, most popular first (rates follow a Zipf law over
    /// this order).
    pub functions: Vec<String>,
    /// Zipf skew of per-function popularity (≈1 matches FaaS studies).
    pub popularity_skew: f64,
    /// Rate multiplier inside a burst window.
    pub burst_factor: f64,
    /// Mean seconds between burst windows, per function.
    pub burst_every_secs: f64,
    /// Mean burst window length in seconds.
    pub burst_len_secs: f64,
}

impl TraceConfig {
    /// The paper-style default: 150 RPS aggregate, bursty.
    pub fn paper_default(functions: Vec<String>, seed: u64) -> Self {
        TraceConfig {
            seed,
            duration_secs: 60.0,
            total_rps: 150.0,
            functions,
            popularity_skew: 1.0,
            burst_factor: 6.0,
            burst_every_secs: 15.0,
            burst_len_secs: 2.0,
        }
    }

    /// Per-function average rates (RPS), Zipf-weighted over the function
    /// order.
    pub fn function_rates(&self) -> Vec<(String, f64)> {
        let n = self.functions.len();
        assert!(n > 0, "trace needs at least one function");
        let weights: Vec<f64> = (1..=n)
            .map(|k| 1.0 / (k as f64).powf(self.popularity_skew))
            .collect();
        let total: f64 = weights.iter().sum();
        self.functions
            .iter()
            .zip(weights)
            .map(|(f, w)| (f.clone(), self.total_rps * w / total))
            .collect()
    }
}

/// One arrival before its name is attached. The generators collect and
/// sort these 16-byte records, then share one `Arc` per name from the
/// config's table, instead of formatting and sorting [`Invocation`]s.
#[derive(Clone, Copy)]
struct Arrival {
    time_ns: u64,
    owner: u32,
    /// Index into the config's name table.
    name: u32,
}

/// Merges per-stream arrivals into one time-sorted trace. The sort is
/// stable: simultaneous arrivals keep the order they were generated in.
fn into_trace(mut arrivals: Vec<Arrival>, names: &[String]) -> Vec<Invocation> {
    arrivals.sort_by_key(|a| a.time_ns);
    let names: Vec<Arc<str>> = names.iter().map(|n| Arc::from(n.as_str())).collect();
    arrivals
        .into_iter()
        .map(|a| Invocation {
            time: SimTime::from_nanos(a.time_ns),
            function: Arc::clone(&names[a.name as usize]),
            owner: a.owner,
        })
        .collect()
}

/// One stream's burst windows: sorted, disjoint, inside `[0, duration)`.
struct BurstWindows {
    windows: Vec<(f64, f64)>,
    /// First window that ends after the latest time asked about.
    cursor: usize,
}

impl BurstWindows {
    /// Carves windows of mean length `len_secs` every `every_secs` on
    /// average, drawing from `rng`.
    fn carve(rng: &mut impl Rng, every_secs: f64, len_secs: f64, duration_secs: f64) -> Self {
        let mut windows = Vec::new();
        let mut t = exp_sample(rng, every_secs);
        while t < duration_secs {
            let len = exp_sample(rng, len_secs).min(duration_secs - t);
            windows.push((t, t + len));
            t += len + exp_sample(rng, every_secs);
        }
        BurstWindows { windows, cursor: 0 }
    }

    /// Fraction of the trace spent inside a window.
    fn share(&self, duration_secs: f64) -> f64 {
        let burst_time: f64 = self.windows.iter().map(|(a, b)| b - a).sum();
        burst_time / duration_secs
    }

    /// Whether `t` lies inside a window. Successive calls must not go
    /// back in time.
    fn contains(&mut self, t: f64) -> bool {
        while self.windows.get(self.cursor).is_some_and(|w| t >= w.1) {
            self.cursor += 1;
        }
        self.windows.get(self.cursor).is_some_and(|w| t >= w.0)
    }
}

/// Generates a trace: one merged, time-sorted sequence of invocations.
///
/// # Panics
///
/// Panics if the config has no functions or non-positive duration/rate.
pub fn generate(config: &TraceConfig) -> Vec<Invocation> {
    assert!(config.duration_secs > 0.0, "duration must be positive");
    assert!(config.total_rps > 0.0, "rate must be positive");
    let mut out = Vec::with_capacity((config.total_rps * config.duration_secs) as usize);
    for (name, (fname, avg_rate)) in config.function_rates().into_iter().enumerate() {
        let mut rng = derived(config.seed, &fname);
        let mut bursts = BurstWindows::carve(
            &mut rng,
            config.burst_every_secs,
            config.burst_len_secs,
            config.duration_secs,
        );

        // Split the average rate between base load and bursts so the
        // long-run mean stays `avg_rate`.
        // base + burst_share * base * factor = avg  ⇒  base = avg / (1 + share*(factor-1))
        let burst_share = bursts.share(config.duration_secs);
        let base_rate = avg_rate / (1.0 + burst_share * (config.burst_factor - 1.0));

        let mut now = 0.0f64;
        loop {
            let rate = if bursts.contains(now) {
                base_rate * config.burst_factor
            } else {
                base_rate
            };
            now += exp_sample(&mut rng, 1.0 / rate);
            if now >= config.duration_secs {
                break;
            }
            out.push(Arrival {
                time_ns: (now * 1e9) as u64,
                owner: 0,
                name: name as u32,
            });
        }
        let _ = rng.gen::<u64>();
    }
    into_trace(out, &config.functions)
}

/// Parameters for the cluster-scale diurnal multi-tenant generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalConfig {
    /// Deterministic seed.
    pub seed: u64,
    /// Trace duration in seconds.
    pub duration_secs: f64,
    /// Aggregate average arrival rate across all tenants (RPS).
    pub total_rps: f64,
    /// Number of tenants. Tenant `t` owns every invocation it emits
    /// (`Invocation::owner == t`). Tenant average rates follow a Zipf
    /// law over tenant index.
    pub tenants: u32,
    /// Functions per tenant, named via [`function_name`]. Per-tenant
    /// function popularity is Zipf-distributed too.
    pub functions_per_tenant: u32,
    /// Zipf skew for tenant rates and per-tenant function popularity.
    pub popularity_skew: f64,
    /// Relative amplitude of the diurnal sinusoid in `[0, 1)`:
    /// `rate(t) = base · (1 + amplitude · sin(2π(t/period + phase)))`,
    /// with a seed-derived phase per tenant (tenants peak at different
    /// virtual hours, as in the Azure traces).
    pub diurnal_amplitude: f64,
    /// Diurnal period in seconds (a "virtual day").
    pub diurnal_period_secs: f64,
    /// Rate multiplier inside a burst window (on top of the sinusoid).
    pub burst_factor: f64,
    /// Mean seconds between burst windows, per tenant.
    pub burst_every_secs: f64,
    /// Mean burst window length in seconds.
    pub burst_len_secs: f64,
}

impl DiurnalConfig {
    /// A cluster-scale default: many tenants, pronounced diurnal swing,
    /// Azure-like burstiness. With the default 300 RPS over 400 virtual
    /// seconds this yields ≈120k invocations.
    pub fn cluster_default(seed: u64) -> Self {
        DiurnalConfig {
            seed,
            duration_secs: 400.0,
            total_rps: 300.0,
            tenants: 64,
            functions_per_tenant: 4,
            popularity_skew: 1.0,
            diurnal_amplitude: 0.6,
            diurnal_period_secs: 100.0,
            burst_factor: 4.0,
            burst_every_secs: 40.0,
            burst_len_secs: 3.0,
        }
    }

    /// Every function name this config can emit, tenant-major. Catalog
    /// builders register exactly this set.
    pub fn function_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for t in 0..self.tenants {
            for f in 0..self.functions_per_tenant {
                names.push(function_name(t, f));
            }
        }
        names
    }

    fn assert_valid(&self) {
        assert!(self.duration_secs > 0.0, "duration must be positive");
        assert!(self.total_rps > 0.0, "rate must be positive");
        assert!(self.tenants > 0, "diurnal trace needs at least one tenant");
        assert!(
            self.functions_per_tenant > 0,
            "each tenant needs at least one function"
        );
        assert!(
            (0.0..1.0).contains(&self.diurnal_amplitude),
            "amplitude must lie in [0, 1)"
        );
        assert!(self.diurnal_period_secs > 0.0, "period must be positive");
        assert!(self.burst_factor >= 1.0, "burst factor must be >= 1");
    }
}

/// Generates a diurnal multi-tenant trace: non-homogeneous Poisson
/// arrivals per tenant (sinusoidal rate with a seed-derived phase,
/// burst windows layered on top) realised by thinning, merged and
/// time-sorted. Fully deterministic given the seed, and guaranteed to
/// pass [`validate`] against [`DiurnalConfig::function_names`].
///
/// # Panics
///
/// Panics if the config is out of range (see field docs).
pub fn generate_diurnal(config: &DiurnalConfig) -> Vec<Invocation> {
    config.assert_valid();
    let n = config.tenants as usize;
    let tenant_weights: Vec<f64> = (1..=n)
        .map(|k| 1.0 / (k as f64).powf(config.popularity_skew))
        .collect();
    let weight_total: f64 = tenant_weights.iter().sum();
    let fn_picker = ZipfSampler::new(config.functions_per_tenant as usize, config.popularity_skew);

    let mut out = Vec::with_capacity((config.total_rps * config.duration_secs) as usize);
    for tenant in 0..config.tenants {
        let avg_rate = config.total_rps * tenant_weights[tenant as usize] / weight_total;
        let mut rng = derived(config.seed, &format!("tenant-{tenant}"));
        let phase: f64 = rng.gen_range(0.0..1.0);

        // Burst windows, carved exactly like the single-tenant generator.
        let mut bursts = BurstWindows::carve(
            &mut rng,
            config.burst_every_secs,
            config.burst_len_secs,
            config.duration_secs,
        );
        // The sinusoid averages to 1 over whole periods, so only the
        // burst share needs compensating to keep the long-run mean.
        let burst_share = bursts.share(config.duration_secs);
        let base_rate = avg_rate / (1.0 + burst_share * (config.burst_factor - 1.0));

        // Thinning: draw a homogeneous Poisson stream at the peak rate,
        // accept each arrival with probability rate(now) / peak.
        let peak = base_rate * (1.0 + config.diurnal_amplitude) * config.burst_factor;
        let mut now = 0.0f64;
        loop {
            now += exp_sample(&mut rng, 1.0 / peak);
            if now >= config.duration_secs {
                break;
            }
            let accept: f64 = rng.gen_range(0.0..1.0);
            let angle = std::f64::consts::TAU * (now / config.diurnal_period_secs + phase);
            let diurnal = 1.0 + config.diurnal_amplitude * angle.sin();
            let burst = if bursts.contains(now) {
                config.burst_factor
            } else {
                1.0
            };
            if accept >= base_rate * diurnal * burst / peak {
                continue;
            }
            let idx = fn_picker.sample(&mut rng) as u32;
            out.push(Arrival {
                time_ns: (now * 1e9) as u64,
                owner: tenant,
                // Tenant-major, like `function_names`.
                name: tenant * config.functions_per_tenant + idx,
            });
        }
        let _ = rng.gen::<u64>();
    }
    into_trace(out, &config.function_names())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TraceConfig {
        TraceConfig::paper_default(vec!["A".into(), "B".into(), "C".into(), "D".into()], 42)
    }

    #[test]
    fn trace_is_sorted_and_deterministic() {
        let t1 = generate(&config());
        let t2 = generate(&config());
        assert_eq!(t1, t2);
        assert!(t1.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(!t1.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let mut c2 = config();
        c2.seed = 43;
        assert_ne!(generate(&config()), generate(&c2));
    }

    #[test]
    fn aggregate_rate_is_roughly_150_rps() {
        let trace = generate(&config());
        let rps = trace.len() as f64 / config().duration_secs;
        assert!(
            (120.0..=180.0).contains(&rps),
            "aggregate rate {rps} RPS (target 150)"
        );
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let trace = generate(&config());
        let count = |f: &str| trace.iter().filter(|i| &*i.function == f).count();
        let a = count("A");
        let d = count("D");
        assert!(a > 2 * d, "most-popular A ({a}) should dwarf D ({d})");
    }

    #[test]
    fn bursts_create_load_spikes() {
        let trace = generate(&config());
        // Bucket arrivals into 1-second bins; bursty traces should have a
        // max bin well above the mean bin.
        let dur = config().duration_secs as usize;
        let mut bins = vec![0usize; dur];
        for inv in &trace {
            let b = (inv.time.as_secs_f64() as usize).min(dur - 1);
            bins[b] += 1;
        }
        let mean = trace.len() as f64 / dur as f64;
        let max = *bins.iter().max().unwrap() as f64;
        assert!(
            max > mean * 1.8,
            "max bin {max} vs mean {mean}: trace not bursty"
        );
    }

    #[test]
    fn rates_follow_declared_order() {
        let rates = config().function_rates();
        assert!(rates.windows(2).all(|w| w[0].1 >= w[1].1));
        let total: f64 = rates.iter().map(|(_, r)| r).sum();
        assert!((total - 150.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one function")]
    fn empty_function_list_rejected() {
        let mut c = config();
        c.functions.clear();
        let _ = generate(&c);
    }

    fn diurnal_config() -> DiurnalConfig {
        DiurnalConfig {
            duration_secs: 120.0,
            total_rps: 80.0,
            tenants: 8,
            ..DiurnalConfig::cluster_default(11)
        }
    }

    #[test]
    fn diurnal_trace_is_sorted_deterministic_and_valid() {
        let c = diurnal_config();
        let t1 = generate_diurnal(&c);
        let t2 = generate_diurnal(&c);
        assert_eq!(t1, t2);
        assert!(!t1.is_empty());
        assert!(t1.windows(2).all(|w| w[0].time <= w[1].time));
        validate(&t1, &c.function_names()).expect("generated trace must validate");
        assert!(t1.iter().all(|i| i.owner < c.tenants));
        assert!(t1.iter().all(|i| i.time.as_secs_f64() < c.duration_secs));
    }

    #[test]
    fn diurnal_seeds_differ() {
        let c1 = diurnal_config();
        let mut c2 = c1.clone();
        c2.seed = 12;
        assert_ne!(generate_diurnal(&c1), generate_diurnal(&c2));
    }

    #[test]
    fn diurnal_rate_is_roughly_configured() {
        let c = diurnal_config();
        let trace = generate_diurnal(&c);
        let rps = trace.len() as f64 / c.duration_secs;
        assert!(
            (c.total_rps * 0.75..=c.total_rps * 1.25).contains(&rps),
            "aggregate rate {rps} RPS (target {})",
            c.total_rps
        );
    }

    #[test]
    fn diurnal_rate_actually_swings() {
        // One tenant, fixed high amplitude, no bursts: per-period-bin
        // arrival counts must show the sinusoid.
        let c = DiurnalConfig {
            tenants: 1,
            functions_per_tenant: 2,
            total_rps: 200.0,
            duration_secs: 100.0,
            diurnal_period_secs: 100.0,
            diurnal_amplitude: 0.8,
            burst_factor: 1.0,
            ..DiurnalConfig::cluster_default(5)
        };
        let trace = generate_diurnal(&c);
        let mut bins = [0usize; 10];
        for inv in &trace {
            bins[((inv.time.as_secs_f64() / 10.0) as usize).min(9)] += 1;
        }
        let max = *bins.iter().max().unwrap() as f64;
        let min = *bins.iter().min().unwrap() as f64;
        assert!(max > min * 2.0, "bins {bins:?}: no diurnal swing visible");
    }

    #[test]
    fn diurnal_tenants_each_appear() {
        let c = diurnal_config();
        let trace = generate_diurnal(&c);
        for tenant in 0..c.tenants {
            assert!(
                trace.iter().any(|i| i.owner == tenant),
                "tenant {tenant} emitted nothing"
            );
        }
        // Tenant 0 (highest Zipf weight) dominates the last tenant.
        let count = |o: u32| trace.iter().filter(|i| i.owner == o).count();
        assert!(count(0) > 2 * count(c.tenants - 1));
    }

    #[test]
    fn validate_rejects_out_of_order() {
        let known = vec!["a".to_string()];
        let trace = vec![
            Invocation {
                time: SimTime::from_nanos(100),
                function: "a".into(),
                owner: 0,
            },
            Invocation {
                time: SimTime::from_nanos(50),
                function: "a".into(),
                owner: 0,
            },
        ];
        let err = validate(&trace, &known).unwrap_err();
        assert_eq!(
            err,
            TraceError::OutOfOrder {
                index: 1,
                time: SimTime::from_nanos(50),
                prev: SimTime::from_nanos(100),
            }
        );
        assert!(err.to_string().contains("precedes"));
    }

    #[test]
    fn validate_rejects_unknown_function() {
        let known = vec!["Float".to_string()];
        let trace = vec![
            Invocation {
                time: SimTime::from_nanos(1),
                function: "float".into(), // case-insensitive: OK
                owner: 0,
            },
            Invocation {
                time: SimTime::from_nanos(2),
                function: "ghost".into(),
                owner: 0,
            },
        ];
        let err = validate(&trace, &known).unwrap_err();
        assert_eq!(
            err,
            TraceError::UnknownFunction {
                index: 1,
                function: "ghost".into(),
            }
        );
    }

    #[test]
    fn single_tenant_generator_stays_owner_zero() {
        let trace = generate(&config());
        assert!(trace.iter().all(|i| i.owner == 0));
    }
}
