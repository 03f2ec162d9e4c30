//! CXLporter: a horizontal autoscaler for serverless functions on CXL
//! fabrics (§5).
//!
//! CXLporter exploits a remote-fork mechanism (CXLfork by design; the
//! CRIU-CXL and Mitosis-CXL baselines for comparison, §7.2) to scale
//! function instances across a cluster: it checkpoints functions at the
//! right moment, stores checkpoints in a CXL-resident object store, clones
//! new instances into pre-provisioned *ghost containers*, steers CXLfork's
//! tiering policies from observed SLOs and memory pressure, and shrinks
//! keep-alive windows when nodes run hot.
//!
//! The crate is generic over [`rfork::RemoteFork`], so the Fig. 10
//! comparisons are literally the same autoscaler with a different
//! mechanism plugged in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod porter;
pub mod store;

pub use cluster::Cluster;
pub use porter::{CxlPorter, FairnessConfig, PorterConfig, PorterReport};
pub use store::{ObjectStore, StoredCheckpoint};

#[cfg(test)]
mod tests {
    use super::*;
    use cxlfork::CxlFork;
    use rfork::RemoteFork;
    use simclock::{LatencyModel, SimDuration};
    use trace_gen::{generate, Invocation, TraceConfig};

    fn small_trace(functions: &[&str], rps: f64, secs: f64, seed: u64) -> Vec<Invocation> {
        generate(&TraceConfig {
            duration_secs: secs,
            total_rps: rps,
            ..TraceConfig::paper_default(
                functions
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect(),
                seed,
            )
        })
    }

    fn porter_with(config: PorterConfig, node_mem_mib: u64) -> CxlPorter<CxlFork> {
        let cluster = Cluster::new(2, node_mem_mib, 8192, LatencyModel::calibrated());
        CxlPorter::new(cluster, CxlFork::new(), config)
    }

    /// A deterministic trace: one request to establish the function, a
    /// calm warm phase reaching the checkpoint threshold, then a burst of
    /// `burst` simultaneous requests.
    fn warm_then_burst(function: &str, checkpoint_after: u64, burst: usize) -> Vec<Invocation> {
        let mut trace = Vec::new();
        // Sequential phase: 1 s apart so each request finds the instance
        // idle again.
        for i in 0..=checkpoint_after {
            trace.push(Invocation {
                time: simclock::SimTime::from_nanos(i * 1_000_000_000),
                function: function.to_owned(),
                owner: 0,
            });
        }
        let burst_at = (checkpoint_after + 3) * 1_000_000_000;
        for i in 0..burst {
            trace.push(Invocation {
                time: simclock::SimTime::from_nanos(burst_at + i as u64),
                function: function.to_owned(),
                owner: 0,
            });
        }
        trace
    }

    #[test]
    fn first_request_is_cold_then_warm_hits_dominate() {
        let mut porter = porter_with(PorterConfig::cxlfork_dynamic(), 4096);
        let trace = small_trace(&["Float"], 5.0, 4.0, 1);
        let report = porter.run_trace(&trace);
        // The first request cold-starts; requests arriving during that
        // window also cold-start (the burst feed-on-itself effect, §7.2).
        assert!(report.full_cold >= 1);
        assert!(report.warm_hits > report.full_cold);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.overall.len(), trace.len());
    }

    #[test]
    fn checkpoint_enables_restores_on_bursts() {
        let mut porter = porter_with(
            PorterConfig {
                checkpoint_after: 4,
                ..PorterConfig::cxlfork_dynamic()
            },
            4096,
        );
        let trace = warm_then_burst("Json", 4, 8);
        let report = porter.run_trace(&trace);
        assert_eq!(report.checkpoints, 1);
        assert_eq!(porter.stored_checkpoints(), 1);
        assert_eq!(
            report.full_cold, 1,
            "only the very first deployment is cold"
        );
        // The burst finds one idle warm instance; the other 7 requests
        // restore from the checkpoint.
        assert_eq!(report.restores, 7, "{report:?}");
        assert_eq!(
            report.full_cold + report.dropped + report.warm_hits + report.restores,
            trace.len() as u64
        );
    }

    #[test]
    fn ghost_containers_bound_startup_latency() {
        let mut porter = porter_with(PorterConfig::cxlfork_dynamic(), 4096);
        let trace = small_trace(&["Pyaes"], 30.0, 3.0, 3);
        let report = porter.run_trace(&trace);
        // With ghosts + CXLfork, even tail restores avoid the 130 ms
        // container creation; overall P99 stays near a cold CXLfork
        // restore + execution.
        let mut overall = report.overall;
        let p99 = overall.p99();
        assert!(
            p99 < SimDuration::from_millis(700),
            "P99 {p99} should avoid full cold-start costs"
        );
    }

    #[test]
    fn criu_restores_pay_container_creation_cxlfork_does_not() {
        let trace = warm_then_burst("Json", 4, 8);

        let cluster = Cluster::new(2, 4096, 8192, LatencyModel::calibrated());
        let criu = criu_cxl::CriuCxl::new(std::sync::Arc::new(cxl_mem::CxlFs::new(
            std::sync::Arc::clone(&cluster.device),
        )));
        let mut criu_porter = CxlPorter::new(
            cluster,
            criu,
            PorterConfig {
                checkpoint_after: 4,
                ..PorterConfig::criu()
            },
        );
        let mut criu_report = criu_porter.run_trace(&trace);

        let mut fork_porter = porter_with(
            PorterConfig {
                checkpoint_after: 4,
                ..PorterConfig::cxlfork_dynamic()
            },
            4096,
        );
        let mut fork_report = fork_porter.run_trace(&trace);

        assert!(criu_report.restores > 0);
        assert!(fork_report.restores > 0);
        // CRIU restores pay container creation (no ghost support, §6.2):
        // every burst restore exceeds the 130 ms container cost. CXLfork
        // restores into ghost containers: only the single full cold start
        // exceeds it.
        let over_130 = |h: &mut simclock::stats::LatencyHistogram| {
            let mut count = 0;
            for q in 1..=100 {
                if h.percentile(q as f64 / 100.0) > SimDuration::from_millis(130) {
                    count += 1;
                }
            }
            count
        };
        assert!(
            over_130(&mut criu_report.overall) > 50,
            "CRIU bursts are slow"
        );
        assert!(
            over_130(&mut fork_report.overall) <= 10,
            "CXLfork bursts are fast"
        );
    }

    #[test]
    fn memory_pressure_triggers_recycling_not_collapse() {
        // Nodes too small to hold every instance the bursts want (CXLfork
        // instances are memory-frugal, so the nodes must be tiny).
        let mut porter = porter_with(
            PorterConfig {
                checkpoint_after: 4,
                ghost_pool_per_node: 4,
                ..PorterConfig::cxlfork_dynamic()
            },
            40,
        );
        let mut trace = warm_then_burst("Float", 4, 10);
        // A second wave of a *different* function: its cold deployment
        // needs the full footprint, forcing idle Float instances to be
        // reclaimed.
        let last = trace.last().unwrap().time;
        for i in 0..4 {
            trace.push(Invocation {
                time: last + SimDuration::from_secs(5) + SimDuration::from_nanos(i),
                function: "Json".into(),
                owner: 0,
            });
        }
        let report = porter.run_trace(&trace);
        assert!(
            report.recycles > 0,
            "constrained nodes must recycle: {report:?}"
        );
        // The system keeps serving: most requests complete.
        let served = report.warm_hits + report.restores + report.full_cold;
        assert!(
            served as f64 / trace.len() as f64 > 0.7,
            "served {served}/{}: {report:?}",
            trace.len()
        );
    }

    #[test]
    fn maintenance_resets_checkpoint_access_bits() {
        let mut porter = porter_with(
            PorterConfig {
                maintenance_interval: SimDuration::from_millis(500),
                ..PorterConfig::cxlfork_dynamic()
            },
            4096,
        );
        let trace = small_trace(&["Json"], 40.0, 4.0, 5);
        porter.run_trace(&trace);
        // After the run, maintenance has reset A bits at least once; the
        // checkpoint's current working set reflects only recent restores.
        // (Indirect check: the checkpoint exists and has bounded hot set.)
        assert_eq!(porter.stored_checkpoints(), 1);
    }

    #[test]
    fn cxl_pressure_reclaims_coldest_checkpoints() {
        // A CXL device barely big enough for one checkpoint: storing the
        // second function's checkpoint must evict the first.
        let cluster = Cluster::new(2, 2048, 40, LatencyModel::calibrated());
        let device = std::sync::Arc::clone(&cluster.device);
        let mut porter = CxlPorter::new(
            cluster,
            CxlFork::new(),
            PorterConfig {
                checkpoint_after: 2,
                cxl_reclaim_threshold: 0.7,
                ..PorterConfig::cxlfork_dynamic()
            },
        );
        let mut trace = warm_then_burst("Float", 2, 1);
        let offset = trace.last().unwrap().time + SimDuration::from_secs(3);
        for i in 0..4u64 {
            trace.push(Invocation {
                time: offset + SimDuration::from_secs(i),
                function: "Json".into(),
                owner: 0,
            });
        }
        let report = porter.run_trace(&trace);
        assert_eq!(report.checkpoints, 2);
        assert!(
            report.checkpoint_reclaims >= 1,
            "pressure must reclaim: {report:?}"
        );
        assert_eq!(porter.stored_checkpoints(), 1, "only the newest survives");
        assert!(device.utilization() <= 0.75, "device pressure relieved");
    }

    #[test]
    fn out_of_order_trace_is_rejected_with_typed_error() {
        let mut porter = porter_with(PorterConfig::cxlfork_dynamic(), 4096);
        let t = |ns: u64| Invocation {
            time: simclock::SimTime::from_nanos(ns),
            function: "Float".into(),
            owner: 0,
        };
        let trace = vec![t(5), t(3)];
        let err = porter.try_run_trace(&trace).unwrap_err();
        assert!(matches!(
            err,
            trace_gen::TraceError::OutOfOrder { index: 1, .. }
        ));
        // Nothing was dispatched.
        assert_eq!(porter.live_instances(), 0);
    }

    #[test]
    fn custom_catalog_resolves_micro_functions() {
        let catalog =
            faas::Catalog::from_specs((0..3).map(|i| faas::micro(&format!("m{i}"), 4, 64, 3)));
        let cluster = Cluster::new(2, 256, 2048, LatencyModel::calibrated());
        let mut porter = CxlPorter::new(cluster, CxlFork::new(), PorterConfig::cxlfork_dynamic())
            .with_catalog(catalog);
        let t = |ns: u64, f: &str| Invocation {
            time: simclock::SimTime::from_nanos(ns),
            function: f.into(),
            owner: 0,
        };
        let trace = vec![
            t(0, "m0"),
            t(1_000_000_000, "M1"), // case-insensitive, like by_name
            t(2_000_000_000, "m2"),
            t(3_000_000_000, "Float"), // not in this catalog: ignored
        ];
        let report = porter.run_trace(&trace);
        assert_eq!(report.full_cold, 3, "{report:?}");
        assert_eq!(report.overall.len(), 3, "unknown function is skipped");
    }

    #[test]
    fn fairness_quota_defers_and_drops_over_quota_arrivals() {
        // One owner hammering one function with quota 1: simultaneous
        // arrivals must serialize behind the single busy instance.
        let mut porter = porter_with(
            PorterConfig {
                fairness: Some(FairnessConfig {
                    max_inflight_per_owner: 1,
                    max_deferrals: 32,
                }),
                ..PorterConfig::cxlfork_dynamic()
            },
            4096,
        );
        let t = |ns: u64| Invocation {
            time: simclock::SimTime::from_nanos(ns),
            function: "Float".into(),
            owner: 7,
        };
        let trace = vec![t(0), t(1), t(2), t(3)];
        let report = porter.run_trace(&trace);
        assert!(report.fair_deferrals >= 3, "{report:?}");
        assert_eq!(report.fair_drops, 0, "{report:?}");
        assert_eq!(
            report.warm_hits + report.restores + report.full_cold,
            4,
            "all four eventually served: {report:?}"
        );
        assert_eq!(report.per_owner_served.get(&7), Some(&4));
        // With the budget cut to zero deferrals, over-quota arrivals drop.
        let mut strict = porter_with(
            PorterConfig {
                fairness: Some(FairnessConfig {
                    max_inflight_per_owner: 1,
                    max_deferrals: 0,
                }),
                ..PorterConfig::cxlfork_dynamic()
            },
            4096,
        );
        let report = strict.run_trace(&[t(0), t(1), t(2), t(3)]);
        assert_eq!(report.fair_drops, 3, "{report:?}");
        assert_eq!(report.per_owner_served.get(&7), Some(&1));
    }

    #[test]
    fn fairness_off_reports_no_fairness_activity() {
        let mut porter = porter_with(PorterConfig::cxlfork_dynamic(), 4096);
        let report = porter.run_trace(&small_trace(&["Float"], 20.0, 2.0, 9));
        assert_eq!(report.fair_deferrals, 0);
        assert_eq!(report.fair_drops, 0);
    }

    #[test]
    fn crash_then_arrivals_never_dispatch_to_the_dead_node() {
        // The burst spreads instances over both nodes; node 1 then dies
        // with some of them in flight, and a second burst arrives. The
        // porter's `debug_assert!(!is_failed(node))` guards (armed in
        // test builds) sit on both the warm and the cold dispatch path.
        let mut porter = porter_with(
            PorterConfig {
                checkpoint_after: 4,
                ..PorterConfig::cxlfork_dynamic()
            },
            4096,
        );
        let mut trace = warm_then_burst("Json", 4, 8);
        let crash_at = trace.last().unwrap().time + SimDuration::from_nanos(1);
        for i in 0..8u64 {
            trace.push(Invocation {
                time: crash_at + SimDuration::from_millis(1 + i),
                function: "Json".to_owned(),
                owner: 0,
            });
        }
        porter.set_crash_schedule(cxl_fault::CrashSchedule::from_events(vec![
            cxl_fault::NodeCrash {
                node: 1,
                at: crash_at,
                mid_checkpoint: false,
            },
        ]));
        let report = porter.run_trace(&trace);
        assert_eq!(report.crashes_survived, 1);
        assert!(report.redispatched > 0, "crash caught work in flight");
        assert_eq!(report.dropped + report.work_lost, 0, "{report:?}");
        assert_eq!(report.engine_events, trace.len() as u64 + 1);
        assert!(porter.cluster.is_failed(1));
        assert_eq!(porter.cluster.nodes[1].frames().used(), 0);
    }

    #[test]
    fn mechanism_is_pluggable() {
        let cluster = Cluster::new(2, 4096, 8192, LatencyModel::calibrated());
        let mut porter = CxlPorter::new(
            cluster,
            mitosis_cxl::MitosisCxl::new(),
            PorterConfig::mitosis(),
        );
        assert_eq!(porter.mechanism().name(), "Mitosis-CXL");
        let trace = small_trace(&["Pyaes"], 20.0, 2.0, 6);
        let report = porter.run_trace(&trace);
        assert!(!report.overall.is_empty());
        assert_eq!(report.dropped, 0);
    }
}
