//! `burst_scaleout`: the paper's headline serverless scenario (Fig.
//! 10a–b): two nodes with abundant memory, the Table-1 suite, a 150 RPS
//! Azure-like bursty trace, a 6 s keep-alive shorter than the inter-burst
//! gap so bursts reach the cold path, the full CXLporter configuration,
//! no image store. The opening third of the trace warms the system
//! (checkpoints get taken) and is excluded via `set_measure_from`.
//!
//! p99 and mean sit on restores and cold deploys of 24–630 MB functions.
//! Host time is almost entirely `faas::run_invocation` → the `node-os`
//! access loop; porter overhead is under 1 % — the mirror image of
//! `cluster_trace`.

use cxlfork::CxlFork;
use cxlporter::{Cluster, CxlPorter, PorterConfig};
use simclock::{LatencyModel, SimDuration, SimTime};
use trace_gen::{Invocation, TraceConfig};

use super::{porter_outcome, Params, Ran};
use crate::host::Stopwatch;
use crate::spans::Recorder;

/// Table-1 function names in the Azure-like popularity order the paper's
/// traces use (small functions first).
fn table1_by_popularity() -> Vec<String> {
    [
        "Json",
        "Float",
        "Pyaes",
        "Chameleon",
        "Linpack",
        "HTML",
        "Rnn",
        "Cnn",
        "BFS",
        "Bert",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()
}

const NODE_MEM_MIB: u64 = 8192;
const CXL_MIB: u64 = 16384;
const KEEP_ALIVE_SECS: u64 = 6;

/// (trace seconds, warm-up seconds excluded from the report).
fn horizon(p: &Params) -> (f64, u64) {
    if p.smoke {
        (3.0, 1)
    } else {
        (15.0, 5)
    }
}

/// The paper's trace seed (Fig. 10), whatever `--seed` says: the seed
/// perturbs the generated trace and the suite (see [`super::Jitter`]).
const TRACE_SEED: u64 = 2025;

pub fn trace_config(p: &Params) -> TraceConfig {
    TraceConfig {
        duration_secs: horizon(p).0,
        ..TraceConfig::paper_default(table1_by_popularity(), TRACE_SEED)
    }
}

/// Everything a rep builds before the replay starts.
pub struct Ready {
    trace: Vec<Invocation>,
    porter: CxlPorter<CxlFork>,
}

/// Trace, perturbed suite, two-node cluster, porter.
pub fn setup(p: &Params, rec: &mut Recorder) -> Result<Ready, String> {
    let config = trace_config(p);
    let trace = rec.time("trace_gen.generate", 0, || trace_gen::generate(&config));
    let catalog = faas::Catalog::from_specs(p.jitter().perturb_all(faas::suite()));
    let cluster = Cluster::new(2, NODE_MEM_MIB, CXL_MIB, LatencyModel::calibrated());
    let mut porter = CxlPorter::new(
        cluster,
        CxlFork::new(),
        PorterConfig {
            keep_alive: SimDuration::from_secs(KEEP_ALIVE_SECS),
            ..PorterConfig::cxlfork_dynamic()
        },
    )
    .with_catalog(catalog);
    porter.set_measure_from(SimTime::from_nanos(horizon(p).1 * 1_000_000_000));
    Ok(Ready { trace, porter })
}

/// The replay, then what public stats say about it.
pub fn run(ready: Ready, p: &Params, rec: &mut Recorder) -> Result<Ran, String> {
    let Ready { trace, mut porter } = ready;
    let warmup_ns = horizon(p).1 * 1_000_000_000;

    let timed_watch = Stopwatch::start();
    let report = rec.time("cxlporter.run_trace", 0, || porter.try_run_trace(&trace));
    let timed = timed_watch.stop();
    let report = report.map_err(|e| format!("run_trace refused the trace: {e}"))?;

    // `set_measure_from` filters the latency histograms only: the outcome
    // counters (and the exactly-once balance) cover the whole trace.
    let measured = trace
        .iter()
        .filter(|i| i.time.as_nanos() >= warmup_ns)
        .count();
    if report.overall.len() > measured {
        return Err(format!(
            "{} latency samples from {measured} measured arrivals",
            report.overall.len()
        ));
    }
    let designated = vec![
        ("cxlporter.restores", report.restores),
        ("cxlporter.full_cold", report.full_cold),
    ];
    let fork = CxlFork::new();
    let mut ran = porter_outcome(&porter, report, trace.len() as u64, timed, &fork, rec)?;
    ran.sim.designated = designated;
    Ok(ran)
}
