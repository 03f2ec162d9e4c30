//! The rule engine: lexes source files, applies the one token-level
//! rule clippy has no lint for, and wires in the lock-graph analysis.
//!
//! | rule id                    | what it catches |
//! |----------------------------|-----------------|
//! | `non-exhaustive-error`     | `pub enum …Error` without `#[non_exhaustive]` — fault classes grow; downstream matches must not break |
//! | `lock-cycle`               | a cycle in the statically extracted lock-class graph |
//! | `lock-order-contradiction` | a runtime lockdep edge opposing the static graph or an ordered family's discipline |
//! | `lock-coverage`            | (note, never fails) static lock edges no runtime lockdep test ever exercised |
//!
//! There is no suppression syntax: no finding of these rules has ever
//! been a false positive worth keeping. Everything that does need
//! justified exceptions — wall clocks, hash containers, raw locks,
//! device-path `unwrap` — is clippy's, under `crates/clippy.toml`, with
//! `#[allow(clippy::…, reason = "…")]` as the audited escape hatch.

use std::path::{Path, PathBuf};

use crate::diag::{Report, Violation};
use crate::lexer::{lex, matching_close, TokKind, Token};
use crate::lockgraph;

/// A lexed source file plus the side table rules need.
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Token stream with comments removed.
    pub code: Vec<Token>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes `src` and computes the test-region table.
    pub fn new(path: String, src: &str) -> SourceFile {
        let mut code = lex(src);
        code.retain(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment));
        let test_ranges = find_test_ranges(&code);
        SourceFile {
            path,
            code,
            test_ranges,
        }
    }

    /// `true` if `line` falls inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }
}

/// Finds line ranges of items annotated `#[cfg(test)]` (or any `cfg`
/// whose argument mentions `test`): the attribute, any further
/// attributes, then the item up to its brace-matched body — or to a `;`
/// if that comes first (a bodiless item).
fn find_test_ranges(code: &[Token]) -> Vec<(u32, u32)> {
    let is_attr = |i: usize| {
        code.get(i).is_some_and(|t| t.is_punct('#'))
            && code.get(i + 1).is_some_and(|t| t.is_punct('['))
    };
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !is_attr(i) {
            i += 1;
            continue;
        }
        let attr_end = matching_close(code, i + 1);
        let attr = &code[i + 2..attr_end];
        let mut next = attr_end + 1;
        if attr.first().is_some_and(|t| t.is_ident("cfg"))
            && attr.iter().any(|t| t.is_ident("test"))
        {
            while is_attr(next) {
                next = matching_close(code, next + 1) + 1;
            }
            let item_end = (next..code.len())
                .find(|&j| code[j].is_punct(';') || code[j].is_punct('{'))
                .map(|j| {
                    if code[j].is_punct('{') {
                        matching_close(code, j)
                    } else {
                        j
                    }
                });
            if let Some(end) = item_end {
                ranges.push((code[i].line, code[end.min(code.len() - 1)].line));
                next = end + 1;
            }
        }
        i = next;
    }
    ranges
}

/// Lints in-memory sources. `files` is `(workspace-relative path,
/// contents)`; `runtime_edges` — `(held, acquired)` class names recorded
/// by runtime lockdep — enables the static-vs-runtime cross-check. This is the core entry point — the binary and every
/// fixture test go through it.
pub fn lint_files(
    files: &[(String, String)],
    runtime_edges: Option<&[(String, String)]>,
) -> Report {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(path, text)| SourceFile::new(path.clone(), text))
        .collect();

    let mut violations = Vec::new();
    for sf in &sources {
        rule_non_exhaustive_error(sf, &mut violations);
    }

    // Lock-class graph: extraction, cycles, runtime cross-check.
    let graph_finding = |rule, message| Violation {
        rule,
        file: "(lock graph)".to_string(),
        line: 0,
        message,
    };
    let graph = lockgraph::extract(&sources);
    for cycle in graph.cycles() {
        violations.push(graph_finding(
            "lock-cycle",
            format!(
                "static lock-class cycle: {} -> {}",
                cycle.join(" -> "),
                cycle[0]
            ),
        ));
    }
    let mut coverage_gaps = Vec::new();
    if let Some(runtime) = runtime_edges {
        let cmp = graph.compare_runtime(runtime);
        for (held, acquired, why) in cmp.contradictions {
            violations.push(graph_finding(
                "lock-order-contradiction",
                format!("runtime edge {held} -> {acquired} {why}"),
            ));
        }
        coverage_gaps = cmp.coverage_gaps;
    }

    Report {
        violations,
        lock_edges: graph.edges(),
        coverage_gaps,
        files_scanned: sources.len(),
    }
}

/// Lints the workspace on disk: reads every `.rs` file under
/// `<root>/crates/*/src` in sorted order and runs [`lint_files`].
/// `tests/`, `benches/` and fixture trees are deliberately out of scope:
/// they seed violations on purpose (the lockdep negative tests).
///
/// # Errors
///
/// Propagates I/O errors from the directory walk (an unreadable source
/// tree must fail the gate, not pass it silently).
pub fn lint_workspace(
    root: &Path,
    runtime_edges: Option<&[(String, String)]>,
) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for krate in sorted_entries(&root.join("crates"))? {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        sources.push((rel.replace('\\', "/"), text));
    }
    Ok(lint_files(&sources, runtime_edges))
}

fn sorted_entries(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<Vec<_>, _>>()?;
    entries.sort();
    Ok(entries)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rule_non_exhaustive_error(sf: &SourceFile, out: &mut Vec<Violation>) {
    for (i, t) in sf.code.iter().enumerate() {
        if !t.is_ident("enum") {
            continue;
        }
        let Some(name) = sf.code.get(i + 1) else {
            continue;
        };
        if name.kind != TokKind::Ident || !name.text.ends_with("Error") {
            continue;
        }
        // Only public enums: `pub enum X` or `pub(crate) enum X`.
        let is_pub = sf.code[..i].iter().rev().take(8).any(|p| p.is_ident("pub"));
        if !is_pub {
            continue;
        }
        // Scan the attribute window directly above the item for
        // `non_exhaustive`: walk back over attribute/visibility tokens,
        // stopping at the previous item's `}` or `;`.
        let has = sf.code[..i]
            .iter()
            .rev()
            .take_while(|p| !(p.is_punct('}') || p.is_punct(';') || p.is_punct('{')))
            .any(|p| p.is_ident("non_exhaustive"));
        if !has {
            out.push(Violation {
                rule: "non-exhaustive-error",
                file: sf.path.clone(),
                line: name.line,
                message: format!(
                    "public error enum `{}` must be `#[non_exhaustive]`: fault classes grow \
                     (poison, transient, crash, eviction…) and downstream matches must keep a \
                     wildcard arm",
                    name.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_ranges_cover_cfg_test_mods() {
        let sf = SourceFile::new(
            "x.rs".to_string(),
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n",
        );
        assert!(!sf.in_test_code(1));
        assert!(sf.in_test_code(3));
        assert!(sf.in_test_code(4));
        assert!(!sf.in_test_code(6));
    }
}
