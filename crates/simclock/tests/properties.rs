//! Property-based tests for virtual-time arithmetic and statistics.

use proptest::prelude::*;
use simclock::stats::LatencyHistogram;
use simclock::{SimDuration, SimTime};

proptest! {
    #[test]
    fn duration_addition_is_commutative(a in any::<u64>(), b in any::<u64>()) {
        let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
        prop_assert_eq!(da + db, db + da);
    }

    #[test]
    fn duration_addition_is_monotonic(a in any::<u64>(), b in any::<u64>()) {
        let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
        prop_assert!(da + db >= da);
        prop_assert!(da + db >= db);
    }

    #[test]
    fn duration_sub_then_add_never_exceeds_original(a in any::<u64>(), b in any::<u64>()) {
        let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
        // (a - b) + b == max(a, b) under saturating arithmetic.
        prop_assert_eq!((da - db) + db, da.max(db));
    }

    #[test]
    fn ratio_is_inverse_consistent(a in 1u64..u64::MAX / 2, b in 1u64..u64::MAX / 2) {
        let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
        let r = da.ratio(db) * db.ratio(da);
        prop_assert!((r - 1.0).abs() < 1e-9, "ratio product {r}");
    }

    #[test]
    fn time_duration_roundtrip(t in any::<u64>(), d in 0u64..(1 << 40)) {
        let start = SimTime::from_nanos(t);
        let later = start + SimDuration::from_nanos(d);
        prop_assert_eq!(later - start, SimDuration::from_nanos(d.min(u64::MAX - t)));
        prop_assert_eq!(start - later, SimDuration::ZERO);
    }

    #[test]
    fn percentiles_are_monotone_in_q(samples in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = LatencyHistogram::new();
        for s in &samples {
            h.record(SimDuration::from_nanos(*s));
        }
        let mut last = SimDuration::ZERO;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.percentile(q);
            prop_assert!(v >= last, "p{q} went backwards");
            last = v;
        }
        // And every percentile is an actual sample within [min, max].
        prop_assert!(h.p50() >= h.min());
        prop_assert!(h.p99() <= h.max());
        prop_assert!(samples.contains(&h.p50().as_nanos()));
    }

    #[test]
    fn histogram_merge_is_order_insensitive(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let build = |v: &[u64]| {
            let mut h = LatencyHistogram::new();
            for s in v {
                h.record(SimDuration::from_nanos(*s));
            }
            h
        };
        let mut ab = build(&a);
        ab.merge(&build(&b));
        let mut ba = build(&b);
        ba.merge(&build(&a));
        prop_assert_eq!(ab.len(), ba.len());
        if !ab.is_empty() {
            prop_assert_eq!(ab.p50(), ba.p50());
            prop_assert_eq!(ab.p99(), ba.p99());
            prop_assert_eq!(ab.mean(), ba.mean());
        }
    }

    #[test]
    fn zipf_sampler_stays_in_range(n in 1usize..64, s in 0.0f64..3.0, seed in any::<u64>()) {
        let mut rng = simclock::rng::seeded(seed);
        let z = simclock::rng::ZipfSampler::new(n, s);
        for _ in 0..64 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}
