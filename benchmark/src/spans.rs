//! Host-time span recorder for the traced run.
//!
//! Spans are taken *from outside*: the harness opens one around each call
//! into a layer's public function. They stay in memory until the run
//! ends, then go out as Chrome `trace_event` JSON and as a per-name table
//! with self time (a span's duration minus its children's). While the
//! recorder is off — every rep that feeds an end-to-end metric — `open`,
//! `close` and `time` cost one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Identifier shared by every span of one op (0 = outside any op).
    op: u64,
}

/// Handle returned by [`Recorder::open`]; pass it back to `close`.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    /// Mean span duration in nanoseconds (0 when the name never ran).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn open(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`. Spans close innermost-first; anything else is a
    /// harness bug.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, op);
        let out = f();
        self.close(open);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Aggregates by span name; self time is a span's duration minus the
    /// part its direct children cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The per-layer table of the traced run, widest self time first.
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<(&str, NameStats)> = self.by_name().into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<36} {:>9} {:>12} {:>12} {:>10}",
            "span", "count", "total_ms", "self_ms", "mean_us"
        );
        for (name, s) in rows {
            let _ = writeln!(
                out,
                "{:<36} {:>9} {:>12.3} {:>12.3} {:>10.2}",
                name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                s.mean_ns() / 1e3
            );
        }
        out
    }

    /// Chrome `trace_event` JSON (complete `X` events, microseconds).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
