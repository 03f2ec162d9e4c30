//! `cluster_trace`: the cluster-scale diurnal multi-tenant replay.
//!
//! Exactly the configuration of `cxlfork_bench::run_cluster_with(
//! DiurnalConfig::cluster_default(seed), 64, ..)`, rebuilt here so the
//! harness can time it: 64 nodes, 256 micro functions, ≈118 k
//! invocations, fairness on, a crash schedule, transient faults, and a
//! watermark-pressured store. Open loop in virtual time, replayed as
//! fast as the host allows.
//!
//! It exists because it is the only workload where `cxlporter` +
//! `cxl-sim` per-event overhead is the majority of host time, and
//! because > 99 % of its invocations are warm hits: a restore or
//! checkpoint change must show *no movement* on its `sim_e2e_*`.

use std::sync::Arc;

use cxl_store::{Store, StoreConfig};
use cxlfork::CxlFork;
use cxlporter::{Cluster, CxlPorter, FairnessConfig, PorterConfig};
use simclock::{LatencyModel, SimDuration};
use trace_gen::{DiurnalConfig, Invocation};

use super::{porter_outcome, store_counts, Jitter, Params, Ran, CANONICAL_SEED};
use crate::host::Stopwatch;
use crate::spans::Recorder;

const NODES: usize = 64;
const SMOKE_NODES: usize = 16;

/// The trace generator's own seed is the canonical one for every run;
/// `--seed` perturbs what it generates (see [`super::Jitter`]).
pub fn trace_config(p: &Params) -> DiurnalConfig {
    let full = DiurnalConfig::cluster_default(CANONICAL_SEED);
    if p.smoke {
        DiurnalConfig {
            duration_secs: 40.0,
            total_rps: 100.0,
            tenants: 16,
            ..full
        }
    } else {
        full
    }
}

/// The multi-tenant micro-function catalog of the cluster experiment
/// (`cxlfork_bench::cluster_catalog`): 2–8 MiB footprints, varied by
/// catalog position.
fn catalog(config: &DiurnalConfig, jitter: Jitter) -> faas::Catalog {
    let specs = config
        .function_names()
        .into_iter()
        .zip(0u64..)
        .map(|(name, i)| faas::micro(&name, 2 + i % 7, 32 + (i % 5) * 16, 2 + i % 4));
    faas::Catalog::from_specs(jitter.perturb_all(specs))
}

/// Everything a rep builds before the replay starts.
pub struct Ready {
    trace: Vec<Invocation>,
    porter: CxlPorter<CxlFork>,
    store: Arc<Store>,
    injector: Arc<cxl_fault::Injector>,
}

/// Trace, cluster, injector, store, porter.
pub fn setup(p: &Params, rec: &mut Recorder) -> Result<Ready, String> {
    let nodes = if p.smoke { SMOKE_NODES } else { NODES };
    let config = trace_config(p);
    let trace = rec.time("trace_gen.generate", 0, || {
        trace_gen::generate_diurnal(&config)
    });
    let names = config.function_names();
    trace_gen::validate(&trace, &names).map_err(|e| format!("generated trace invalid: {e}"))?;

    let duration = SimDuration::from_secs(config.duration_secs as u64);
    let cluster = Cluster::new(nodes, 512, 16384, LatencyModel::calibrated());
    let device = Arc::clone(&cluster.device);
    let injector = Arc::new(cxl_fault::Injector::from_plan(
        cxl_fault::FaultPlan::new(CANONICAL_SEED).with_transient_rate(1e-5),
    ));
    injector.arm(&device);
    // Low watermarks relative to the device keep the image store under
    // genuine capacity pressure with 2–8 MiB images.
    let store = Arc::new(Store::with_config(
        device,
        StoreConfig {
            high_watermark: 0.02,
            low_watermark: 0.01,
            ..StoreConfig::default()
        },
    ));
    let mut porter = CxlPorter::new(
        cluster,
        CxlFork::with_store(Arc::clone(&store)),
        PorterConfig {
            fairness: Some(FairnessConfig::default()),
            ..PorterConfig::cxlfork_dynamic()
        },
    )
    .with_image_store(Arc::clone(&store))
    .with_catalog(catalog(&config, p.jitter()));
    porter.set_crash_schedule(cxl_fault::CrashSchedule::from_plan(
        CANONICAL_SEED,
        nodes,
        duration,
        nodes / 16,
    ));
    Ok(Ready {
        trace,
        porter,
        store,
        injector,
    })
}

/// The replay, then what public stats say about it.
pub fn run(ready: Ready, _p: &Params, rec: &mut Recorder) -> Result<Ran, String> {
    let Ready {
        trace,
        mut porter,
        store,
        injector,
    } = ready;

    let timed_watch = Stopwatch::start();
    let report = rec.time("cxlporter.run_trace", 0, || porter.try_run_trace(&trace));
    let timed = timed_watch.stop();
    let report = report.map_err(|e| format!("run_trace refused the trace: {e}"))?;

    let fork = CxlFork::with_store(Arc::clone(&store));
    let mut ran = porter_outcome(&porter, report, trace.len() as u64, timed, &fork, rec)?;
    let stats = store.stats();
    let counts = &mut ran.sim.layer_counts;
    ran.sim.designated = vec![
        (
            "cxlporter.crashes_survived",
            counts["cxlporter.crashes_survived"],
        ),
        (
            "cxlporter.image_evictions",
            counts["cxlporter.image_evictions"],
        ),
    ];
    store_counts(&stats, counts);
    counts.insert("cxl_fault.transients_fired", injector.stats().transients);
    ran.layer_values
        .insert("cxl_store.dedup_ratio", stats.dedup_ratio());
    Ok(ran)
}
