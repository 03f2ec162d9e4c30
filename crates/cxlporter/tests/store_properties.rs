//! Property-based tests for the porter's checkpoint store: every restore
//! is counted against the checkpoint it came from, and CXL pressure
//! reclaims the least-restored checkpoint, the first in function-name
//! order on a tie, whatever order the functions were first seen in.

use cxlfork::CxlFork;
use cxlporter::{Cluster, CxlPorter, PorterConfig};
use proptest::prelude::*;
use simclock::{LatencyModel, SimDuration, SimTime};
use trace_gen::Invocation;

/// Three arrivals of `function` one second apart from `start_secs`,
/// which checkpoint it, then `burst` arrivals at once: the first is a
/// warm hit, the others restore.
fn checkpoint_then_burst(function: &str, start_secs: u64, burst: u64) -> Vec<Invocation> {
    let at = |secs: u64, nanos: u64| Invocation {
        time: SimTime::ZERO + SimDuration::from_secs(secs) + SimDuration::from_nanos(nanos),
        function: function.into(),
        owner: 0,
    };
    let warm_up = (0..3).map(|i| at(start_secs + i, 0));
    warm_up
        .chain((0..burst).map(|k| at(start_secs + 3, k)))
        .collect()
}

proptest! {
    #[test]
    fn coldest_is_the_least_restored(
        restores in prop::collection::vec(0u64..4, 2..6),
        seen_keys in prop::collection::vec(any::<u64>(), 6)
    ) {
        let n = restores.len();
        // The order the functions are first seen (and checkpointed) in:
        // a shuffle, so it is name order only by chance.
        let mut first_seen: Vec<usize> = (0..n).collect();
        first_seen.sort_by_key(|&i| seen_keys[i]);
        let names: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
        // Each 4 MiB function's checkpoint fills about a sixteenth of the
        // 64 MiB device: the threshold holds `n` of them, not one more.
        let catalog = faas::Catalog::from_specs(
            names.iter().map(String::as_str).chain(["g"]).map(|f| faas::micro(f, 4, 64, 3)),
        );
        let cluster = Cluster::new(1, 512, 64, LatencyModel::calibrated());
        let config = PorterConfig {
            checkpoint_after: 2,
            cxl_reclaim_threshold: (n as f64 + 0.5) / 16.0,
            ..PorterConfig::cxlfork_dynamic()
        };
        let mut porter = CxlPorter::new(cluster, CxlFork::new(), config).with_catalog(catalog);

        for (step, &i) in first_seen.iter().enumerate() {
            let report = porter.run_trace(&checkpoint_then_burst(
                &names[i],
                10 * step as u64,
                restores[i] + 1,
            ));
            prop_assert_eq!(report.restores, restores[i]);
        }
        let listed = |porter: &CxlPorter<CxlFork>| -> Vec<(String, u64)> {
            let store = porter.store();
            store.iter().map(|(f, e)| ((*f).to_owned(), e.restores)).collect()
        };
        let stored = listed(&porter);
        let expected: Vec<_> = names.iter().cloned().zip(restores.iter().copied()).collect();
        prop_assert_eq!(&stored, &expected, "each function once, in name order");

        // One checkpoint more goes past the threshold: exactly one other
        // is reclaimed, the first least-restored in name order.
        let report = porter.run_trace(&checkpoint_then_burst("g", 10 * n as u64, 1));
        prop_assert_eq!((report.checkpoints, report.checkpoint_reclaims), (1, 1));
        let min = restores.iter().min().copied().unwrap();
        let victim = restores.iter().position(|&r| r == min).unwrap();
        let mut survivors = expected;
        survivors.remove(victim);
        survivors.push(("g".to_owned(), 0));
        prop_assert_eq!(listed(&porter), survivors, "victim {}", &names[victim]);
    }
}
