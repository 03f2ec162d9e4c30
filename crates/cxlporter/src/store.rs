//! The porter's object store of checkpoints (§5).
//!
//! There is no separate table: a function's checkpoint lives in its own
//! entry of the porter's function table (DESIGN.md §14), filled once
//! when the function is checkpointed and emptied when CXL pressure
//! reclaims it. Reclamation takes the least-restored checkpoint, the
//! first in function-name order on a tie.

/// A function's checkpoint in the porter's function table.
#[derive(Debug)]
pub struct StoredCheckpoint<C> {
    /// The mechanism-specific checkpoint.
    pub checkpoint: C,
    /// Restores attempted from this checkpoint, failed ones included:
    /// the coldest one is reclaimed first under CXL pressure.
    pub restores: u64,
}

#[cfg(test)]
mod tests {
    use crate::{Cluster, CxlPorter, PorterConfig};
    use cxlfork::CxlFork;
    use simclock::{LatencyModel, SimDuration, SimTime};
    use trace_gen::Invocation;

    /// Three arrivals of `function` one second apart from `start_secs`,
    /// which checkpoint it, then `burst` arrivals at once: the first is
    /// a warm hit, the others restore.
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

    fn listed(porter: &CxlPorter<CxlFork>) -> Vec<(String, u64)> {
        let store = porter.store();
        store
            .iter()
            .map(|(f, e)| ((*f).to_owned(), e.restores))
            .collect()
    }

    #[test]
    fn restore_counting_and_coldest() {
        // Each 4 MiB function's checkpoint fills about a sixteenth of
        // the 64 MiB device: a 15 % threshold holds two of them.
        let catalog =
            faas::Catalog::from_specs(["a", "b", "c", "d"].map(|f| faas::micro(f, 4, 64, 3)));
        let cluster = Cluster::new(1, 512, 64, LatencyModel::calibrated());
        let config = PorterConfig {
            checkpoint_after: 2,
            cxl_reclaim_threshold: 0.15,
            ..PorterConfig::cxlfork_dynamic()
        };
        let mut porter = CxlPorter::new(cluster, CxlFork::new(), config).with_catalog(catalog);

        let a = porter.run_trace(&checkpoint_then_burst("a", 0, 3));
        let b = porter.run_trace(&checkpoint_then_burst("b", 10, 2));
        assert_eq!((a.restores, b.restores), (2, 1));
        assert_eq!(listed(&porter), [("a".into(), 2), ("b".into(), 1)]);

        // The third checkpoint goes past the threshold: the coldest
        // other one, "b", is reclaimed.
        let c = porter.run_trace(&checkpoint_then_burst("c", 20, 1));
        assert_eq!((c.checkpoints, c.checkpoint_reclaims), (1, 1));
        assert_eq!(listed(&porter), [("a".into(), 2), ("c".into(), 0)]);
        // The next one reclaims the now coldest, "c", never itself.
        let d = porter.run_trace(&checkpoint_then_burst("d", 30, 1));
        assert_eq!((d.checkpoints, d.checkpoint_reclaims), (1, 1));
        assert_eq!(listed(&porter), [("a".into(), 2), ("d".into(), 0)]);
        crate::tests::run_audited(&mut porter, &[]);
    }
}
