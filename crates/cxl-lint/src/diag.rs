//! Diagnostics: typed violations and their human rendering.

use std::fmt;

/// One finding. Every finding fails the lint (exit code 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule id (`lock-cycle`, `lock-order-contradiction`,
    /// `non-exhaustive-error`).
    pub rule: &'static str,
    /// Workspace-relative file path (`/`-separated), or `(lock graph)`.
    pub file: String,
    /// 1-based line, or 0 for whole-graph findings.
    pub line: u32,
    /// Human explanation, including the suggested fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: [{}] {}", self.rule, self.file)?;
        if self.line != 0 {
            write!(f, ":{}", self.line)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The full result of a lint run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Every finding, in file/line order.
    pub violations: Vec<Violation>,
    /// The static lock-class graph as sorted `(held, acquired)` pairs.
    pub lock_edges: Vec<(String, String)>,
    /// Static edges no runtime edge matched (`lock-coverage`; only
    /// populated when runtime edges were supplied): orderings no lockdep
    /// test exercised. Informational — never fails the lint.
    pub coverage_gaps: Vec<(String, String)>,
    /// Files linted.
    pub files_scanned: usize,
}

impl Report {
    /// `true` if there is no finding.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    /// One line per finding and coverage gap, plus a summary.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        for (held, acquired) in &self.coverage_gaps {
            writeln!(
                f,
                "note: [lock-coverage] static edge {held} -> {acquired} never exercised by runtime lockdep tests"
            )?;
        }
        writeln!(
            f,
            "cxl-lint: {} file(s), {} lock edge(s), {} error(s)",
            self.files_scanned,
            self.lock_edges.len(),
            self.violations.len(),
        )
    }
}
