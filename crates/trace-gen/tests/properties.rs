//! Property-based tests for the trace generator: determinism, ordering,
//! rate conservation and burst structure over arbitrary configurations.

use proptest::prelude::*;
use trace_gen::{generate, TraceConfig};

fn arb_config() -> impl Strategy<Value = TraceConfig> {
    (
        any::<u64>(),  // seed
        5.0f64..60.0,  // duration
        5.0f64..200.0, // rps
        1usize..8,     // function count
        0.0f64..2.0,   // skew
        1.5f64..10.0,  // burst factor
        5.0f64..30.0,  // burst every
        0.5f64..4.0,   // burst len
    )
        .prop_map(|(seed, dur, rps, nfn, skew, bf, be, bl)| TraceConfig {
            seed,
            duration_secs: dur,
            total_rps: rps,
            functions: (0..nfn).map(|i| format!("f{i}")).collect(),
            popularity_skew: skew,
            burst_factor: bf,
            burst_every_secs: be,
            burst_len_secs: bl,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traces_are_deterministic_and_sorted(config in arb_config()) {
        let a = generate(&config);
        let b = generate(&config);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
        // Every arrival is inside the window and names a known function.
        for inv in &a {
            prop_assert!(inv.time.as_secs_f64() < config.duration_secs);
            prop_assert!(config.functions.contains(&inv.function));
        }
    }

    #[test]
    fn aggregate_rate_tracks_the_target(config in arb_config()) {
        let trace = generate(&config);
        let rps = trace.len() as f64 / config.duration_secs;
        // Poisson noise: allow a generous band that tightens with volume.
        let expected = config.total_rps;
        let sigma = (expected * config.duration_secs).sqrt() / config.duration_secs;
        prop_assert!(
            (rps - expected).abs() < 6.0 * sigma + 0.35 * expected,
            "rate {rps} vs target {expected}"
        );
    }

    #[test]
    fn per_function_rates_sum_and_order(config in arb_config()) {
        let rates = config.function_rates();
        let total: f64 = rates.iter().map(|(_, r)| r).sum();
        prop_assert!((total - config.total_rps).abs() < 1e-6);
        prop_assert!(rates.windows(2).all(|w| w[0].1 >= w[1].1 - 1e-12));
        for (_, r) in rates {
            prop_assert!(r > 0.0);
        }
    }

    #[test]
    fn different_seeds_give_different_traces(config in arb_config()) {
        let mut other = config.clone();
        other.seed = config.seed.wrapping_add(1);
        let a = generate(&config);
        let b = generate(&other);
        // With any nontrivial volume the traces differ.
        if a.len() > 3 && b.len() > 3 {
            prop_assert_ne!(a, b);
        }
    }
}
