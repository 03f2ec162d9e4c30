//! End-to-end integration tests of the full FaaS stack: trace → CXLporter
//! → remote fork → invocation engine → OS substrate, on every mechanism.
//! Every trace ends in the cluster audit ([`run_audited`]).

mod common;

use std::sync::Arc;

use common::run_audited;
use cxlporter::{Cluster, CxlPorter, PorterConfig};
use simclock::{LatencyModel, SimDuration, SimTime};
use trace_gen::{generate, Invocation, TraceConfig};

fn trace(seed: u64, secs: f64, rps: f64) -> Vec<Invocation> {
    generate(&TraceConfig {
        duration_secs: secs,
        total_rps: rps,
        ..TraceConfig::paper_default(
            vec![
                "Json".into(),
                "Float".into(),
                "Pyaes".into(),
                "Linpack".into(),
            ],
            seed,
        )
    })
}

#[test]
fn cxlfork_porter_serves_a_bursty_trace() {
    let cluster = Cluster::new(2, 4096, 8192, LatencyModel::calibrated());
    let mut porter = CxlPorter::new(
        cluster,
        cxlfork::CxlFork::new(),
        PorterConfig::cxlfork_dynamic(),
    );
    let t = trace(11, 10.0, 40.0);
    let report = run_audited(&mut porter, &t);
    assert_eq!(report.dropped, 0);
    assert_eq!(
        report.warm_hits + report.restores + report.full_cold,
        t.len() as u64
    );
    assert!(
        report.warm_ratio() > 0.8,
        "warm ratio {}",
        report.warm_ratio()
    );
    assert!(report.checkpoints >= 1);
    // Checkpoints live on the device.
    assert!(report.final_cxl_pages > 0);
}

#[test]
fn all_mechanisms_complete_the_same_trace() {
    let t = trace(13, 6.0, 30.0);
    let mut served = Vec::new();

    let cluster = Cluster::new(2, 4096, 8192, LatencyModel::calibrated());
    let criu = criu_cxl::CriuCxl::new(Arc::new(cxl_mem::CxlFs::new(Arc::clone(&cluster.device))));
    let mut p = CxlPorter::new(cluster, criu, PorterConfig::criu());
    let r = run_audited(&mut p, &t);
    served.push(("criu", r.warm_hits + r.restores + r.full_cold, r.dropped));

    let cluster = Cluster::new(2, 4096, 8192, LatencyModel::calibrated());
    let mut p = CxlPorter::new(
        cluster,
        mitosis_cxl::MitosisCxl::new(),
        PorterConfig::mitosis(),
    );
    let r = run_audited(&mut p, &t);
    served.push(("mitosis", r.warm_hits + r.restores + r.full_cold, r.dropped));

    let cluster = Cluster::new(2, 4096, 8192, LatencyModel::calibrated());
    let mut p = CxlPorter::new(
        cluster,
        cxlfork::CxlFork::new(),
        PorterConfig::cxlfork_dynamic(),
    );
    let r = run_audited(&mut p, &t);
    served.push(("cxlfork", r.warm_hits + r.restores + r.full_cold, r.dropped));

    for (name, count, dropped) in served {
        assert_eq!(count, t.len() as u64, "{name} served everything");
        assert_eq!(dropped, 0, "{name} dropped nothing");
    }
}

#[test]
fn burst_tail_latency_orders_cxlfork_under_criu() {
    // A deterministic warm-then-burst trace makes the tail comparable:
    // the burst is served cold by both mechanisms.
    let mut t = Vec::new();
    for i in 0..=6u64 {
        t.push(Invocation {
            time: SimTime::from_nanos(i * 1_000_000_000),
            function: "Linpack".into(),
            owner: 0,
        });
    }
    for i in 0..12u64 {
        t.push(Invocation {
            time: SimTime::from_nanos(9 * 1_000_000_000 + i),
            function: "Linpack".into(),
            owner: 0,
        });
    }

    let config = |mut c: PorterConfig| {
        c.checkpoint_after = 4;
        c
    };

    // Measure only the burst (the initial cold deployment is identical
    // under every mechanism).
    let burst_start = SimTime::from_nanos(8 * 1_000_000_000);

    let cluster = Cluster::new(2, 4096, 8192, LatencyModel::calibrated());
    let criu = criu_cxl::CriuCxl::new(Arc::new(cxl_mem::CxlFs::new(Arc::clone(&cluster.device))));
    let mut p = CxlPorter::new(cluster, criu, config(PorterConfig::criu()));
    p.set_measure_from(burst_start);
    let mut criu_report = run_audited(&mut p, &t);

    let cluster = Cluster::new(2, 4096, 8192, LatencyModel::calibrated());
    let mut p = CxlPorter::new(
        cluster,
        cxlfork::CxlFork::new(),
        config(PorterConfig::cxlfork_dynamic()),
    );
    p.set_measure_from(burst_start);
    let mut fork_report = run_audited(&mut p, &t);

    assert!(criu_report.restores > 0 && fork_report.restores > 0);
    let criu_p99 = criu_report.overall.p99();
    let fork_p99 = fork_report.overall.p99();
    assert!(
        fork_p99 * 3 < criu_p99,
        "CXLfork p99 {fork_p99} should be well under CRIU p99 {criu_p99}"
    );
}

#[test]
fn constrained_memory_favors_cxlfork_density() {
    // Small nodes: CRIU restores whole footprints, CXLfork shares via CXL.
    let t = trace(17, 8.0, 40.0);
    let mem_mib = 256;

    let cluster = Cluster::new(2, mem_mib, 8192, LatencyModel::calibrated());
    let criu = criu_cxl::CriuCxl::new(Arc::new(cxl_mem::CxlFs::new(Arc::clone(&cluster.device))));
    let mut p = CxlPorter::new(cluster, criu, PorterConfig::criu());
    let criu_report = run_audited(&mut p, &t);

    let cluster = Cluster::new(2, mem_mib, 8192, LatencyModel::calibrated());
    let mut p = CxlPorter::new(
        cluster,
        cxlfork::CxlFork::new(),
        PorterConfig::cxlfork_dynamic(),
    );
    let fork_report = run_audited(&mut p, &t);

    // CXLfork evicts/recycles less and keeps more requests warm.
    assert!(
        fork_report.recycles <= criu_report.recycles,
        "cxlfork recycles {} vs criu {}",
        fork_report.recycles,
        criu_report.recycles
    );
    assert!(fork_report.warm_ratio() >= criu_report.warm_ratio() - 0.02);
    // And it never uses more local memory at peak, modulo the ghost
    // containers CXLfork pre-provisions (CRIU cannot use them, §6.2).
    let ghost_allowance = 2 * 10 * faas::BARE_CONTAINER_PAGES;
    let fork_peak: u64 = fork_report.peak_local_pages.iter().sum();
    let criu_peak: u64 = criu_report.peak_local_pages.iter().sum();
    assert!(
        fork_peak <= criu_peak + ghost_allowance,
        "fork {fork_peak} vs criu {criu_peak}"
    );
}

#[test]
fn measurement_warmup_excludes_initial_cold_starts() {
    let t = trace(19, 6.0, 30.0);
    let cluster = Cluster::new(2, 4096, 8192, LatencyModel::calibrated());
    let mut p = CxlPorter::new(
        cluster,
        cxlfork::CxlFork::new(),
        PorterConfig::cxlfork_dynamic(),
    );
    p.set_measure_from(SimTime::ZERO + SimDuration::from_secs(3));
    let mut report = run_audited(&mut p, &t);
    let in_window = t
        .iter()
        .filter(|i| i.time >= SimTime::ZERO + SimDuration::from_secs(3))
        .count();
    assert_eq!(report.overall.len(), in_window);
    // The steady-state window excludes the first-ever deployments, whose
    // container + state-init cost exceeds half a second.
    assert!(report.overall.p99() < SimDuration::from_millis(500));
}
