//! Two-clock benchmark harness for the CXLfork simulation.
//!
//! One process runs one workload on one thread and measures every layer
//! from outside, by timing calls into public functions and reading public
//! stats. `sim_*` metrics are virtual time and modelled resources: they
//! repeat exactly per seed, and the run fails if two reps disagree.
//! `host_*` metrics are the simulator's own wall time: the median over
//! reps after one discarded warm-up rep.
//!
//! ```text
//! cxlfork-benchmark --workload W --seed N --seconds S --trace 0|1
//!                   [--reps N] [--smoke] [--out DIR] | --catalog
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of one traced rep plus the layer probes. The last line of
//! standard output is one JSON object; see README.md.

mod accuracy;
mod catalog;
mod host;
mod probes;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cxl_telemetry::{TelemetryData, TelemetrySession};

use host::{median, peak_rss_mib};
use spans::Recorder;
use workloads::{run_rep, setup_only, Params, RepOutcome, SimOutcome, PAGES_PER_MIB, WORKLOADS};

/// Timed reps a run makes at least, whatever `--seconds` says: the
/// median needs them and so does the bit-identity check.
const MIN_REPS: usize = 3;
const SMOKE_REPS: usize = 1;
/// `setup_s` is the median of this many set-ups where they are cheap:
/// after the timed reps, set-up alone repeats until there are this many
/// samples or the extra ones have taken `EXTRA_SETUP_BUDGET_S`.
const SETUP_SAMPLES: usize = 25;
const EXTRA_SETUP_BUDGET_S: f64 = 1.0;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    smoke: bool,
    out_dir: String,
}

fn usage() -> String {
    format!(
        "usage: cxlfork-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--reps N] [--smoke] [--out DIR]\n       cxlfork-benchmark --catalog",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 6502,
        seconds: 20.0,
        trace: false,
        reps: None,
        smoke: false,
        out_dir: "benchmark/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--catalog" => return Ok(None),
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = value("a workload name")?,
            "--out" => args.out_dir = value("a directory")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--reps" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                args.reps = Some(n.max(1));
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    Ok(Some(args))
}

fn print_catalog() {
    for (name, unit, better, bound) in catalog::END_TO_END {
        println!("end_to_end {name} {unit} {better} {bound}");
    }
    for (name, unit, better) in catalog::PER_LAYER {
        println!("per_layer {name} {unit} {better}");
    }
}

/// Names the first field on which two reps' simulated outcomes differ.
fn sim_difference(a: &SimOutcome, b: &SimOutcome) -> Option<String> {
    macro_rules! field {
        ($f:ident) => {
            if a.$f != b.$f {
                return Some(format!("{}: {:?} vs {:?}", stringify!($f), a.$f, b.$f));
            }
        };
    }
    if a.e2e != b.e2e {
        let (mut x, mut y) = (a.e2e.clone(), b.e2e.clone());
        return Some(format!(
            "e2e: {} samples p50 {} mean {} vs {} samples p50 {} mean {}",
            x.len(),
            x.p50(),
            x.mean(),
            y.len(),
            y.p50(),
            y.mean()
        ));
    }
    field!(restore);
    field!(checkpoint);
    field!(local_pages);
    field!(cxl_pages_end);
    field!(offered);
    field!(unserved);
    field!(designated);
    field!(layer_counts);
    if a.report != b.report {
        return Some("PorterReport differs".into());
    }
    None
}

/// The built-in checks every rep must pass. A `--smoke` rep is too
/// small to reach every designated counter, so there they go unchecked.
fn check_rep(
    rep: &RepOutcome,
    reference: Option<&SimOutcome>,
    which: &str,
    smoke: bool,
) -> Result<(), String> {
    for (name, value) in &rep.ran.sim.designated {
        if *value == 0 && !smoke {
            return Err(format!(
                "{which}: designated counter {name} is zero — the workload did not exercise \
                 what it exists to exercise"
            ));
        }
    }
    if rep.ran.sim.e2e.is_empty() || rep.ran.ops == 0 {
        return Err(format!("{which}: no op completed"));
    }
    if let Some(reference) = reference {
        if let Some(diff) = sim_difference(reference, &rep.ran.sim) {
            return Err(format!(
                "{which}: simulated results differ from the first rep's — {diff}"
            ));
        }
    }
    Ok(())
}

#[derive(Debug, Default)]
struct Output {
    /// `(name, value, unit)` in catalogue order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Output {
    fn print(&self, workload: &str) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{workload} {name} {value} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn ops_per_s(rep: &RepOutcome) -> f64 {
    rep.ran.ops as f64 / rep.ran.timed.wall_s
}

fn noisy_note(which: &str, rep: &RepOutcome) -> Option<String> {
    let timed = rep.ran.timed;
    timed.noisy().then(|| {
        format!(
            "{which} is noisy: cpu/wall = {:.3} < 0.9 (wall {:.3} s, cpu {:.3} s)",
            timed.cpu_s / timed.wall_s,
            timed.wall_s,
            timed.cpu_s
        )
    })
}

/// `--trace 0`: warm-up rep, then timed reps for `--seconds`; the
/// end-to-end metrics.
fn run_untraced(args: &Args) -> Result<Output, String> {
    let p = Params {
        seed: args.seed,
        smoke: args.smoke,
    };
    let mut rec = Recorder::new(false);
    let warm_up = run_rep(&args.workload, &p, &mut rec)?;
    check_rep(&warm_up, None, "warm-up rep", p.smoke)?;

    let min_reps = args
        .reps
        .unwrap_or(if args.smoke { SMOKE_REPS } else { MIN_REPS });
    let mut out = Output::default();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let clock = Instant::now();
    loop {
        let which = format!("rep {}", rates.len() + 1);
        let rep = run_rep(&args.workload, &p, &mut rec)?;
        check_rep(&rep, Some(&warm_up.ran.sim), &which, p.smoke)?;
        out.notes.extend(noisy_note(&which, &rep));
        out.notes.push(format!(
            "{which}: setup {:.4} s, timed {:.4} s, {:.1} ops/s",
            rep.setup.wall_s,
            rep.ran.timed.wall_s,
            ops_per_s(&rep)
        ));
        setups.push(rep.setup.wall_s);
        rates.push(ops_per_s(&rep));
        out.attempted += rep.ran.sim.offered;
        out.failed += rep.ran.sim.unserved;
        let enough_time =
            args.reps.is_some() || args.smoke || clock.elapsed().as_secs_f64() >= args.seconds;
        if rates.len() >= min_reps && enough_time {
            break;
        }
    }

    let extra = Instant::now();
    while setups.len() < SETUP_SAMPLES
        && extra.elapsed().as_secs_f64() < EXTRA_SETUP_BUDGET_S
        && !args.smoke
    {
        setups.push(setup_only(&args.workload, &p, &mut rec)?.wall_s);
    }

    let sim = &warm_up.ran.sim;
    let mut e2e = sim.e2e.clone();
    let us = |ns: f64| ns / 1e3;
    let values = [
        median(&setups),
        median(&rates),
        peak_rss_mib(),
        us(e2e.p50().as_nanos() as f64),
        us(e2e.p99().as_nanos() as f64),
        us(e2e.mean().as_nanos() as f64),
        us(sim.restore.value()),
        us(sim.checkpoint.value()),
        sim.local_pages.value() / PAGES_PER_MIB,
        sim.cxl_pages_end as f64 / PAGES_PER_MIB,
    ];
    for ((name, unit, _, _), value) in catalog::END_TO_END.iter().zip(values) {
        if !(value.is_finite() && value > 0.0) {
            return Err(format!(
                "{name} = {value}: every end-to-end metric must be > 0"
            ));
        }
        out.metrics.push((name, value, unit));
    }
    out.notes.push(format!(
        "{} timed reps after one discarded warm-up rep; every rep's simulated results are \
         bit-identical; setup_s over {} set-ups",
        rates.len(),
        setups.len()
    ));
    out.notes.push(format!(
        "sim_e2e_* over {} op samples per rep{}",
        e2e.len(),
        if e2e.len() < 1000 {
            " (< 1000: p99 has fewer than ten samples beyond it)"
        } else {
            ""
        }
    ));
    out.notes.push(format!(
        "sim_restore_mean_us over {} restores, sim_checkpoint_mean_us over {} checkpoints",
        sim.restore.n, sim.checkpoint.n
    ));
    out.notes.push(format!(
        "failed_share = {} unserved / {} offered per rep = {}",
        sim.unserved,
        sim.offered,
        sim.unserved as f64 / sim.offered as f64
    ));
    for (name, value) in &sim.designated {
        out.notes
            .push(format!("designated counter {name} = {value}"));
    }
    Ok(out)
}

/// Sum of the durations of the telemetry spans called `name`, and their
/// count, skipping `skip_track`.
fn telemetry_span_total(data: &TelemetryData, name: &str, skip_track: Option<u32>) -> (u64, u64) {
    data.spans
        .iter()
        .filter(|s| s.name == name && Some(s.track) != skip_track)
        .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
}

const CHECKPOINT_PHASES: [&str; 5] = [
    "copy_pages",
    "rebase",
    "serialize",
    "commit_journal",
    "retry_backoff",
];
const RESTORE_PHASES: [&str; 4] = ["global_redo", "attach", "prefetch", "retry_backoff"];

/// The phase counters must partition their parent spans exactly.
fn phase_totals(
    data: &TelemetryData,
    op: &str,
    phases: &[&str],
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let mut sum = 0u64;
    for phase in phases {
        let ns = data
            .registry
            .counter("core", &format!("phase.{op}.{phase}"), None);
        sum += ns;
        values.insert(format!("core.sim_us.{op}.{phase}"), ns as f64 / 1e3);
    }
    let (parent_ns, _) = telemetry_span_total(data, &format!("core.{op}"), None);
    if sum != parent_ns {
        return Err(format!(
            "core.{op}: phases sum to {sum} ns but the parent spans cover {parent_ns} ns"
        ));
    }
    Ok(())
}

/// `--trace 1`: one untraced rep, one with telemetry armed, one with
/// telemetry and the host-span recorder; the probes; the per-layer
/// metrics.
fn run_traced(args: &Args) -> Result<Output, String> {
    let p = Params {
        seed: args.seed,
        smoke: args.smoke,
    };
    let w = args.workload.as_str();
    let mut off = Recorder::new(false);
    let warm_up = run_rep(w, &p, &mut off)?;
    check_rep(&warm_up, None, "warm-up rep", p.smoke)?;
    let base = run_rep(w, &p, &mut off)?;
    check_rep(&base, Some(&warm_up.ran.sim), "untraced rep", p.smoke)?;

    let session = TelemetrySession::start();
    let armed = run_rep(w, &p, &mut off);
    drop(session);
    let armed = armed?;
    check_rep(
        &armed,
        Some(&warm_up.ran.sim),
        "telemetry-armed rep",
        p.smoke,
    )?;

    let mut rec = Recorder::new(true);
    let session = TelemetrySession::start();
    let traced = run_rep(w, &p, &mut rec);
    let data = session.finish();
    let traced = traced?;
    check_rep(&traced, Some(&warm_up.ran.sim), "traced rep", p.smoke)?;

    let mut out = Output::default();
    for (which, rep) in [
        ("untraced rep", &base),
        ("telemetry-armed rep", &armed),
        ("traced rep", &traced),
    ] {
        out.notes.extend(noisy_note(which, rep));
    }
    let noisy_reps = out.notes.len();
    let traced_ops_per_s = ops_per_s(&traced);
    let traced = traced.ran;

    // ---- per-layer values, by name ----
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    for (name, count) in &traced.sim.layer_counts {
        v.insert((*name).to_owned(), *count as f64);
    }
    for (name, value) in &traced.layer_values {
        v.insert((*name).to_owned(), *value);
    }
    v.extend(probes::run_all(w, &p, &mut rec));

    phase_totals(&data, "checkpoint", &CHECKPOINT_PHASES, &mut v)?;
    phase_totals(&data, "restore", &RESTORE_PHASES, &mut v)?;
    let queue_wait = data
        .registry
        .timer_across_nodes("cxlporter", "queue.latency");
    v.insert(
        "cxlporter.sim_us.queue_wait_mean".into(),
        queue_wait.mean().as_nanos() as f64 / 1e3,
    );
    // Restores the porter issued: every `core.restore` span except the
    // post-run ones on the scratch node.
    if traced.sim.report.is_some() {
        let (ns, n) = telemetry_span_total(&data, "core.restore", traced.scratch_track);
        v.insert(
            "cxlporter.sim_us.restore_mean".into(),
            if n == 0 {
                0.0
            } else {
                ns as f64 / n as f64 / 1e3
            },
        );
    }
    v.insert("cxl_telemetry.spans".into(), data.spans.len() as f64);

    let stats = rec.by_name();
    let total_ns = |name: &str| stats.get(name).map_or(0, |s| s.total_ns) as f64;
    let mean_ns = |name: &str| stats.get(name).map_or(0.0, spans::NameStats::mean_ns);
    let count = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let derived = [
        (
            "core.checkpoint.host_us_per_mib",
            per(
                total_ns("core.checkpoint") / 1e3,
                count("core.checkpointed_pages") / PAGES_PER_MIB,
            ),
        ),
        ("core.restore.host_us", mean_ns("core.restore_with") / 1e3),
        ("core.release.host_us", mean_ns("core.release") / 1e3),
        (
            "faas.run_invocation.cold.host_us",
            mean_ns("faas.run_invocation.cold") / 1e3,
        ),
        (
            "faas.run_invocation.warm.host_us",
            mean_ns("faas.run_invocation.warm") / 1e3,
        ),
        (
            "faas.deploy_cold.host_ms",
            mean_ns("faas.deploy_cold") / 1e6,
        ),
        (
            "faas.warm_for_checkpoint.host_ms",
            mean_ns("faas.warm_for_checkpoint") / 1e6,
        ),
        // Loop workloads only: there `node_os.accesses` counts exactly
        // the accesses the timed invocations issued.
        (
            "node_os.access.host_ns",
            per(
                total_ns("faas.run_invocation.cold") + total_ns("faas.run_invocation.warm"),
                count("node_os.accesses"),
            ),
        ),
        ("node_os.kill.host_us", mean_ns("node_os.kill") / 1e3),
        (
            "cxlporter.run_trace.host_us_per_invocation",
            per(
                total_ns("cxlporter.run_trace") / 1e3,
                count("trace_gen.invocations"),
            ),
        ),
        (
            "trace_gen.generate.host_ms",
            mean_ns("trace_gen.generate") / 1e6,
        ),
        (
            "cxl_fabric.sim_us.queue_delay_total",
            count("cxl_fabric.queue_delay_total_ns") / 1e3,
        ),
        (
            "cxl_telemetry.armed_overhead_pct",
            (ops_per_s(&base) / ops_per_s(&armed) - 1.0) * 100.0,
        ),
        (
            "bench.trace_overhead_pct",
            (ops_per_s(&base) / traced_ops_per_s - 1.0) * 100.0,
        ),
        ("bench.noisy_reps", noisy_reps as f64),
    ];
    for (name, value) in derived {
        v.insert(name.to_owned(), value);
    }

    // ---- accuracy rows (restore_fanout only: they need its suite) ----
    if w == "restore_fanout" {
        let specs = workloads::restore_fanout::functions(args.smoke);
        accuracy::rows(&specs, &mut rec, &mut out.notes, &mut v)?;
    }
    v.insert("bench.host_spans".into(), rec.len() as f64);

    // ---- write the trace, print the table ----
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir))?;
    let path = format!("{}/trace-{w}.json", args.out_dir);
    std::fs::write(&path, rec.chrome_trace()).map_err(|e| format!("cannot write {path}: {e}"))?;
    out.notes.push(format!(
        "{} host spans written to {path}; {} virtual-time telemetry spans collected",
        rec.len(),
        data.spans.len()
    ));
    out.notes.push(format!(
        "untraced {:.1} ops/s, telemetry armed {:.1} ops/s, traced {:.1} ops/s (one rep each)",
        ops_per_s(&base),
        ops_per_s(&armed),
        traced_ops_per_s
    ));
    for line in rec.self_time_table().lines() {
        out.notes.push(line.to_owned());
    }

    // A layer this workload never enters reports 0: a true zero for a
    // count, "no time spent" for a time. The README says which those are.
    for (name, unit, _) in catalog::PER_LAYER {
        let value = v.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("{name} = {value}"));
        }
        out.metrics.push((name, value, unit));
    }
    out.attempted = traced.sim.offered;
    out.failed = traced.sim.unserved;
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print_catalog();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match result {
        Ok(out) => {
            out.print(&args.workload);
            ExitCode::SUCCESS
        }
        Err(e) => {
            // Metric lines are suppressed: a run that fails a check has
            // no numbers worth comparing.
            eprintln!("FAILED {} seed {}: {e}", args.workload, args.seed);
            ExitCode::FAILURE
        }
    }
}
