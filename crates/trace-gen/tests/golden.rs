//! Golden traces: the two configurations the benchmark replays, plus one
//! more seed each, pinned by invocation count and an FNV-1a hash over
//! every `(time, function, owner)` triple. The generators may get faster;
//! they may not draw a different random number or emit a different byte.

use trace_gen::{generate, generate_diurnal, validate, DiurnalConfig, Invocation, TraceConfig};

fn trace_hash(trace: &[Invocation]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    };
    for inv in trace {
        eat(&inv.time.as_nanos().to_le_bytes());
        eat(inv.function.as_bytes());
        eat(&inv.owner.to_le_bytes());
    }
    h
}

/// `burst_scaleout`'s trace: Table-1 names in the benchmark's popularity
/// order, 15 s of the paper's 150 RPS bursty default.
fn burst_config(seed: u64) -> TraceConfig {
    let names = [
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
    ];
    TraceConfig {
        duration_secs: 15.0,
        ..TraceConfig::paper_default(names.iter().map(|s| (*s).to_owned()).collect(), seed)
    }
}

#[test]
fn golden_trace_diurnal_cluster_default() {
    for (seed, count, hash) in [
        (6502, 117_813, 0x5aa5_3ebd_8eee_96ef),
        (7, 117_610, 0x20d8_18e4_da14_f314),
    ] {
        let config = DiurnalConfig::cluster_default(seed);
        let trace = generate_diurnal(&config);
        assert_eq!(
            (trace.len(), trace_hash(&trace)),
            (count, hash),
            "seed {seed}"
        );
        validate(&trace, &config.function_names()).expect("generated trace validates");
    }
}

#[test]
fn golden_trace_paper_default_burst() {
    for (seed, count, hash) in [
        (2025, 2_240, 0x67c8_9b63_5b45_b82a),
        (7, 2_113, 0x60ac_fd90_bd9b_5230),
    ] {
        let config = burst_config(seed);
        let trace = generate(&config);
        assert_eq!(
            (trace.len(), trace_hash(&trace)),
            (count, hash),
            "seed {seed}"
        );
        validate(&trace, &config.functions).expect("generated trace validates");
    }
}
