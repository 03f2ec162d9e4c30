//! The stable `BenchReport` schema behind `BENCH_<scenario>.json`.
//!
//! A report is the machine-readable result of one bench scenario: total
//! virtual time, a named phase breakdown (the Fig. 7a stacks), latency
//! summaries with exact P50/P99 (Fig. 10), and the counter snapshot the
//! run accumulated. Everything is integer nanoseconds — regenerating a
//! report from the same seeded run produces a byte-identical file, which
//! is what lets CI fail on perf drift.

use simclock::stats::LatencyHistogram;

use crate::json::{Json, JsonError};

/// Version stamp written into every report. Bump when a field changes
/// meaning; readers reject versions they do not understand.
pub const SCHEMA_VERSION: i64 = 1;

/// Exact percentile summary of one latency distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySummary {
    /// Distribution name, e.g. `e2e` or `queue.wait`.
    pub name: String,
    /// Number of recorded samples.
    pub samples: u64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes a histogram under `name`.
    pub fn from_histogram(name: &str, h: &LatencyHistogram) -> Self {
        let mut h = h.clone();
        LatencySummary {
            name: name.to_owned(),
            samples: h.len() as u64,
            p50_ns: h.p50().as_nanos(),
            p99_ns: h.p99().as_nanos(),
            mean_ns: h.mean().as_nanos(),
            max_ns: h.max().as_nanos(),
        }
    }
}

/// One scenario's machine-readable result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchReport {
    /// Scenario name (`cold_start`, `tiering`, `availability`).
    pub scenario: String,
    /// Total virtual time the scenario covered, nanoseconds.
    pub virtual_ns: u64,
    /// Named phase breakdown in insertion order (checkpoint/restore
    /// phases first, by convention).
    pub phases: Vec<(String, u64)>,
    /// Latency distributions; must include one named `e2e`.
    pub latencies: Vec<LatencySummary>,
    /// Counter snapshot as `layer.name{node=N}` → value, in insertion
    /// order: the bench scenarios write the registry's counters sorted by
    /// key, then may append their own (`availability.*` follows the
    /// sorted snapshot).
    pub counters: Vec<(String, u64)>,
}

impl BenchReport {
    /// Creates an empty report for `scenario`.
    pub fn new(scenario: &str) -> Self {
        BenchReport {
            scenario: scenario.to_owned(),
            ..BenchReport::default()
        }
    }

    /// Adds a phase bucket.
    pub fn phase(&mut self, name: &str, ns: u64) {
        self.phases.push((name.to_owned(), ns));
    }

    /// Reads a phase bucket back (`None` if absent).
    pub fn phase_ns(&self, name: &str) -> Option<u64> {
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
    }

    /// Adds a latency summary.
    pub fn latency(&mut self, summary: LatencySummary) {
        self.latencies.push(summary);
    }

    /// Looks a latency summary up by name.
    pub fn latency_named(&self, name: &str) -> Option<&LatencySummary> {
        self.latencies.iter().find(|l| l.name == name)
    }

    /// Checks structural invariants the schema promises consumers:
    /// non-empty scenario name, an `e2e` latency distribution, every
    /// summary internally consistent (`p50 <= p99 <= max`, sampled
    /// distributions non-degenerate), and unique phase/latency names.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.scenario.is_empty() {
            return Err("scenario name is empty".to_owned());
        }
        let e2e = self
            .latency_named("e2e")
            .ok_or_else(|| "missing required `e2e` latency distribution".to_owned())?;
        if e2e.samples == 0 {
            return Err("`e2e` latency distribution has no samples".to_owned());
        }
        for l in &self.latencies {
            if !(l.p50_ns <= l.p99_ns && l.p99_ns <= l.max_ns) {
                return Err(format!(
                    "latency `{}` is not ordered: p50={} p99={} max={}",
                    l.name, l.p50_ns, l.p99_ns, l.max_ns
                ));
            }
            if l.samples > 0 && l.max_ns > 0 && l.mean_ns > l.max_ns {
                return Err(format!("latency `{}` mean exceeds max", l.name));
            }
        }
        for (i, (name, _)) in self.phases.iter().enumerate() {
            if self.phases[..i].iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate phase `{name}`"));
            }
        }
        for (i, l) in self.latencies.iter().enumerate() {
            if self.latencies[..i].iter().any(|p| p.name == l.name) {
                return Err(format!("duplicate latency `{}`", l.name));
            }
        }
        Ok(())
    }

    /// Serializes to the stable on-disk JSON form (compact, one line,
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut doc = Json::obj(vec![
            ("schema", Json::Int(SCHEMA_VERSION)),
            ("scenario", Json::Str(self.scenario.clone())),
            ("virtual_ns", Json::Int(self.virtual_ns as i64)),
        ]);
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|(name, ns)| {
                    Json::obj(vec![
                        ("name", Json::Str(name.clone())),
                        ("ns", Json::Int(*ns as i64)),
                    ])
                })
                .collect(),
        );
        let latencies = Json::Arr(
            self.latencies
                .iter()
                .map(|l| {
                    Json::obj(vec![
                        ("name", Json::Str(l.name.clone())),
                        ("samples", Json::Int(l.samples as i64)),
                        ("p50_ns", Json::Int(l.p50_ns as i64)),
                        ("p99_ns", Json::Int(l.p99_ns as i64)),
                        ("mean_ns", Json::Int(l.mean_ns as i64)),
                        ("max_ns", Json::Int(l.max_ns as i64)),
                    ])
                })
                .collect(),
        );
        let counters = Json::Arr(
            self.counters
                .iter()
                .map(|(name, v)| {
                    Json::obj(vec![
                        ("name", Json::Str(name.clone())),
                        ("value", Json::Int(*v as i64)),
                    ])
                })
                .collect(),
        );
        if let Json::Obj(fields) = &mut doc {
            fields.push(("phases".to_owned(), phases));
            fields.push(("latencies".to_owned(), latencies));
            fields.push(("counters".to_owned(), counters));
        }
        let mut out = doc.to_json();
        out.push('\n');
        out
    }

    /// Parses a report back from its JSON form.
    ///
    /// # Errors
    ///
    /// A description of the parse or schema failure.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_i64)
            .ok_or("missing `schema`")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {schema} (expected {SCHEMA_VERSION})"
            ));
        }
        let need_u64 = |v: &Json, field: &'static str| -> Result<u64, String> {
            v.get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer `{field}`"))
        };
        let need_str = |v: &Json, field: &'static str| -> Result<String, String> {
            v.get(field)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing or non-string `{field}`"))
        };

        let mut report = BenchReport::new(&need_str(&doc, "scenario")?);
        report.virtual_ns = need_u64(&doc, "virtual_ns")?;
        for p in doc
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("missing `phases` array")?
        {
            report
                .phases
                .push((need_str(p, "name")?, need_u64(p, "ns")?));
        }
        for l in doc
            .get("latencies")
            .and_then(Json::as_arr)
            .ok_or("missing `latencies` array")?
        {
            report.latencies.push(LatencySummary {
                name: need_str(l, "name")?,
                samples: need_u64(l, "samples")?,
                p50_ns: need_u64(l, "p50_ns")?,
                p99_ns: need_u64(l, "p99_ns")?,
                mean_ns: need_u64(l, "mean_ns")?,
                max_ns: need_u64(l, "max_ns")?,
            });
        }
        for c in doc
            .get("counters")
            .and_then(Json::as_arr)
            .ok_or("missing `counters` array")?
        {
            report
                .counters
                .push((need_str(c, "name")?, need_u64(c, "value")?));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimDuration;

    fn sample_report() -> BenchReport {
        let mut h = LatencyHistogram::new();
        for ms in [3u64, 5, 9] {
            h.record(SimDuration::from_millis(ms));
        }
        let mut r = BenchReport::new("cold_start");
        r.virtual_ns = 17_000_000;
        r.phase("checkpoint.copy_pages", 4_000_000);
        r.phase("restore.attach", 2_000_000);
        r.latency(LatencySummary::from_histogram("e2e", &h));
        r.counters
            .push(("cxl_mem.bytes_read{node=0}".to_owned(), 8192));
        r
    }

    #[test]
    fn roundtrip_is_lossless_and_byte_stable() {
        let r = sample_report();
        let text = r.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), text, "serialization must be canonical");
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let r = sample_report();
        r.validate().unwrap();

        let mut no_e2e = r.clone();
        no_e2e.latencies.clear();
        assert!(no_e2e.validate().unwrap_err().contains("e2e"));

        let mut disordered = r.clone();
        disordered.latencies[0].p99_ns = 0;
        assert!(disordered.validate().unwrap_err().contains("not ordered"));

        let mut dup = r;
        dup.phase("checkpoint.copy_pages", 1);
        assert!(dup.validate().unwrap_err().contains("duplicate phase"));
    }

    #[test]
    fn from_json_rejects_wrong_schema_version() {
        let text = sample_report()
            .to_json()
            .replace("\"schema\":1", "\"schema\":99");
        assert!(BenchReport::from_json(&text)
            .unwrap_err()
            .contains("unsupported schema version"));
    }

    #[test]
    fn summary_matches_histogram() {
        let mut h = LatencyHistogram::new();
        for ms in 1..=100u64 {
            h.record(SimDuration::from_millis(ms));
        }
        let s = LatencySummary::from_histogram("e2e", &h);
        assert_eq!(s.samples, 100);
        assert_eq!(s.p50_ns, SimDuration::from_millis(50).as_nanos());
        assert_eq!(s.p99_ns, SimDuration::from_millis(99).as_nanos());
        assert_eq!(s.max_ns, SimDuration::from_millis(100).as_nanos());
    }
}
