//! Static lock-class graph extraction — lockdep's edge graph, computed
//! from source instead of from a run.
//!
//! Runtime lockdep (`cxl_mem::lockdep`) records `(held, acquired)` lock
//! *class* edges as tests execute; `cxl-check` then looks for cycles.
//! That only covers paths a test actually drove. This module extracts
//! the same graph from the token stream, so orderings that no test
//! exercises still participate in cycle detection — and so the two
//! graphs can be cross-checked: a runtime edge whose reverse exists
//! statically is a discipline contradiction, and a static edge no
//! runtime test produced is a coverage gap worth a test.
//!
//! ## How extraction works (a lexer-level approximation)
//!
//! 1. **Class declarations.** `TrackedMutex::new("class.name", …)` and
//!    `TrackedRwLock::new(…)` bind the declared class to the binding
//!    name on the left (`regions: TrackedRwLock::new("cxl_mem.device.regions", …)`
//!    maps `regions` → that class). When the class argument is an
//!    indexed const array of string literals (the device's
//!    `SHARD_CLASSES[i]`), the binding maps to a *family*: the longest
//!    common prefix of the array elements plus `*`
//!    (`cxl_mem.device.shard*`). Name→class maps are per-file — lock
//!    fields are private, so acquisitions live in the declaring file.
//! 2. **Guard tracking.** Inside each `fn` body, `x.lock()`, `x.read()`,
//!    `x.write()` with a known receiver name is an acquisition. If the
//!    statement is `let g = x.lock();` the guard is held until its
//!    enclosing brace closes (or an explicit `drop(g)`); a chained use
//!    like `x.lock().len()` is a transient acquisition. Every
//!    acquisition records an edge from each currently held class.
//! 3. **Interprocedural propagation.** Each function's summary carries
//!    the classes it acquires and the calls it makes while holding
//!    guards. Summaries propagate callee→caller to a fixpoint, with
//!    callees resolved by bare name (generic names like `read`/`len` are
//!    on a stoplist, and unresolved names contribute nothing) — so
//!    `store.intern_pages` holding the store lock still yields
//!    `cxl_store.inner → cxl_mem.device.shard*` edges.
//!
//! `#[cfg(test)]` regions are excluded: test-local lock classes
//! (`test.edge_a`, `negtest.…`) are scaffolding for the runtime lockdep
//! tests, not part of the system's discipline.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::SourceFile;
use crate::lexer::{matching_close, TokKind, Token};

/// Method/function names never used to resolve calls interprocedurally:
/// a lock-declaring file defines a `fn` of this name, yet the name is
/// generic enough (std and every collection export it) that resolving a
/// call by bare name would fabricate edges. A missing entry can only
/// *add* edges, never hide one, and `tests/static_vs_runtime.rs` pins
/// the workspace's graph edge for edge — so the list holds exactly the
/// names that collide today, and that test says when it needs another.
const CALLEE_STOPLIST: [&str; 10] = [
    "default", "drop", "fmt", "is_empty", "len", "lock", "new", "read", "remove", "write",
];

/// Class-name prefix of the one lock family with a declared intra-family
/// acquisition order (ascending suffix): the device's page-pool shards
/// are always taken in ascending shard index (DESIGN.md §10). Runtime
/// edges inside the family are checked against that order instead of the
/// static graph, where the whole family is the one node
/// `cxl_mem.device.shard*`.
const ORDERED_FAMILY: &str = "cxl_mem.device.shard";

/// The extracted static lock-class graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `(held, acquired)` class pairs.
    edges: BTreeSet<(String, String)>,
}

/// Result of comparing the static graph against runtime lockdep edges.
pub struct RuntimeComparison {
    /// `(held, acquired, explanation)` — runtime edges the static
    /// discipline forbids.
    pub contradictions: Vec<(String, String, String)>,
    /// Static edges no runtime edge matched.
    pub coverage_gaps: Vec<(String, String)>,
}

impl LockGraph {
    /// The `(held, acquired)` edges, sorted.
    pub fn edges(&self) -> Vec<(String, String)> {
        self.edges.iter().cloned().collect()
    }

    /// Finds elementary cycles in the class graph, each reported once,
    /// starting from its least node. (Extraction records no self-edges,
    /// so `shard03 → shard05` collapsing onto the one family node
    /// `cxl_mem.device.shard*` is not a cycle.)
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (held, acquired) in &self.edges {
            adj.entry(held).or_default().push(acquired);
        }
        let mut cycles = Vec::new();
        for &start in adj.keys() {
            close_cycles(&adj, &mut vec![start], &mut cycles);
        }
        cycles
    }

    /// Cross-checks runtime lockdep edges against the static graph.
    ///
    /// * A runtime edge *within* an ordered family must respect the
    ///   family's ascending order (`shard03 → shard05` ok, `shard05 →
    ///   shard03` is a contradiction).
    /// * A runtime edge matching a static edge (exact class or family
    ///   wildcard) is *covered*.
    /// * A runtime edge whose **reverse** exists statically is a
    ///   contradiction — the code's textual discipline and the executed
    ///   order disagree.
    /// * Other runtime edges are paths the textual extractor cannot see
    ///   (dynamic dispatch, cross-crate private fields); they are fine.
    /// * Static edges matching no runtime edge come back as coverage
    ///   gaps: orderings no lockdep test exercised.
    pub fn compare_runtime(&self, runtime: &[(String, String)]) -> RuntimeComparison {
        let mut contradictions = Vec::new();
        let mut covered: BTreeSet<&(String, String)> = BTreeSet::new();
        for (h, a) in runtime {
            if h.starts_with(ORDERED_FAMILY) && a.starts_with(ORDERED_FAMILY) {
                if h >= a {
                    contradictions.push((
                        h.clone(),
                        a.clone(),
                        format!("violates the ascending order declared for `{ORDERED_FAMILY}*`"),
                    ));
                }
                continue;
            }
            let matches_static = |x: &str, y: &str| {
                self.edges
                    .iter()
                    .find(|(held, acquired)| class_matches(held, x) && class_matches(acquired, y))
            };
            if let Some(edge) = matches_static(h, a) {
                covered.insert(edge);
            } else if matches_static(a, h).is_some() {
                contradictions.push((
                    h.clone(),
                    a.clone(),
                    "opposes the statically extracted order (reverse edge exists in source)"
                        .to_string(),
                ));
            }
        }
        let coverage_gaps = self
            .edges
            .iter()
            .filter(|e| !covered.contains(e))
            .cloned()
            .collect();
        RuntimeComparison {
            contradictions,
            coverage_gaps,
        }
    }
}

/// Depth-first extension of `path`, a simple path from `path[0]` through
/// greater nodes only: every edge back to `path[0]` closes a cycle whose
/// least node is `path[0]`, so each cycle is found from exactly one start.
fn close_cycles<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    cycles: &mut Vec<Vec<String>>,
) {
    let node = path[path.len() - 1];
    for &next in adj.get(node).into_iter().flatten() {
        if next == path[0] {
            cycles.push(path.iter().map(ToString::to_string).collect());
        } else if next > path[0] && !path.contains(&next) {
            path.push(next);
            close_cycles(adj, path, cycles);
            path.pop();
        }
    }
}

/// `true` if static class node `node` (possibly a `…*` family) covers
/// runtime class `class`.
fn class_matches(node: &str, class: &str) -> bool {
    match node.strip_suffix('*') {
        Some(prefix) => class.starts_with(prefix),
        None => node == class,
    }
}

// ---------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------

/// Per-function summary used for interprocedural propagation.
#[derive(Debug, Default, Clone)]
struct FnSummary {
    /// Classes this function acquires directly (held or transient).
    acquires: BTreeSet<String>,
    /// `(held classes, callee name)` call sites made while holding at
    /// least one guard.
    held_calls: Vec<(BTreeSet<String>, String)>,
    /// Every resolvable callee (for transitive acquisition closure).
    callees: BTreeSet<String>,
}

/// Extracts the static lock graph from all source files.
pub fn extract(sources: &[SourceFile]) -> LockGraph {
    let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
    let mut summaries: BTreeMap<String, FnSummary> = BTreeMap::new();

    for sf in sources {
        let code: Vec<&Token> = sf
            .code
            .iter()
            .filter(|t| !sf.in_test_code(t.line))
            .collect();
        let lock_names = collect_lock_names(&code);
        if lock_names.is_empty() {
            continue;
        }
        scan_functions(&code, &lock_names, &mut edges, &mut summaries);
    }

    // Fixpoint: each function's transitive acquisition set.
    let mut all_acquires: BTreeMap<String, BTreeSet<String>> = summaries
        .iter()
        .map(|(name, s)| (name.clone(), s.acquires.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (name, summary) in &summaries {
            let mut merged = all_acquires[name].clone();
            for callee in &summary.callees {
                if let Some(extra) = all_acquires.get(callee) {
                    merged.extend(extra.iter().cloned());
                }
            }
            if merged.len() != all_acquires[name].len() {
                all_acquires.insert(name.clone(), merged);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Interprocedural edges: held classes at a call site → everything
    // the callee transitively acquires. Self-edges are dropped here —
    // name-based resolution is too coarse to claim re-entrancy.
    for summary in summaries.values() {
        for (held, callee) in &summary.held_calls {
            let Some(acquired) = all_acquires.get(callee) else {
                continue;
            };
            for h in held {
                for a in acquired.iter().filter(|a| *a != h) {
                    edges.insert((h.clone(), a.clone()));
                }
            }
        }
    }
    LockGraph { edges }
}

/// Finds `TrackedMutex::new` / `TrackedRwLock::new` declarations and
/// maps binding names to class names (or families). Also resolves const
/// string arrays used as class sources.
fn collect_lock_names(code: &[&Token]) -> BTreeMap<String, BTreeSet<String>> {
    // Pass 1: const/static arrays of string literals.
    //   const NAME: [...] = ["a", "b", ...];
    let mut const_arrays: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if (code[i].is_ident("const") || code[i].is_ident("static"))
            && code[i + 1].kind == TokKind::Ident
        {
            // Skip the type ascription — it may itself contain brackets
            // and semicolons (`[&str; 16]`) — to the item's `=` or `;`.
            let mut j = i + 2;
            while j < code.len() && !(code[j].is_punct('=') || code[j].is_punct(';')) {
                j = if code[j].is_punct('[') {
                    matching_close(code, j) + 1
                } else {
                    j + 1
                };
            }
            if code.get(j).is_some_and(|t| t.is_punct('='))
                && code.get(j + 1).is_some_and(|t| t.is_punct('['))
            {
                let end = matching_close(code, j + 1);
                let lits: Vec<String> = code[j + 2..end]
                    .iter()
                    .filter(|t| t.kind == TokKind::Str)
                    .map(|t| t.text.clone())
                    .collect();
                if !lits.is_empty() {
                    const_arrays.insert(code[i + 1].text.clone(), lits);
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }

    // Pass 2: TrackedMutex::new( / TrackedRwLock::new( sites.
    let mut names: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for i in 0..code.len() {
        let t = code[i];
        if !(t.is_ident("TrackedMutex") || t.is_ident("TrackedRwLock")) {
            continue;
        }
        // Require `:: new (` after.
        if !(code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 3).is_some_and(|t| t.is_ident("new"))
            && code.get(i + 4).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        let class = match code.get(i + 5) {
            Some(arg) if arg.kind == TokKind::Str => Some(arg.text.clone()),
            Some(arg) if arg.kind == TokKind::Ident && const_arrays.contains_key(&arg.text) => {
                // Indexed const array → a family: longest common prefix
                // of the elements, plus `*`.
                let lits = &const_arrays[&arg.text];
                let mut prefix = lits[0].clone();
                for lit in &lits[1..] {
                    while !lit.starts_with(&prefix) {
                        prefix.pop();
                    }
                }
                // Shared leading digits of the member numbering are not
                // part of the family name (`shard00`/`shard01` → `shard*`,
                // not `shard0*`).
                while prefix.ends_with(|c: char| c.is_ascii_digit()) {
                    prefix.pop();
                }
                Some(format!("{prefix}*"))
            }
            _ => None,
        };
        let Some(class) = class else { continue };
        // Binding name: `name : TrackedMutex::new(…)` (struct field
        // init) or `[let [mut]] name = TrackedMutex::new(…)`.
        if i >= 2
            && (code[i - 1].is_punct(':') || code[i - 1].is_punct('='))
            && code[i - 2].kind == TokKind::Ident
        {
            let binding = code[i - 2].text.clone();
            names.entry(binding).or_default().insert(class);
        }
    }
    names
}

/// Scans function bodies for acquisitions, guard lifetimes, and call
/// sites, inserting direct edges and filling summaries.
fn scan_functions(
    code: &[&Token],
    lock_names: &BTreeMap<String, BTreeSet<String>>,
    edges: &mut BTreeSet<(String, String)>,
    summaries: &mut BTreeMap<String, FnSummary>,
) {
    let mut i = 0;
    while i + 1 < code.len() {
        if !(code[i].is_ident("fn") && code[i + 1].kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        // The body `{` — unless a `;` comes first (bodiless trait method).
        let Some(body_start) = (i + 2..code.len())
            .find(|&j| code[j].is_punct('{') || code[j].is_punct(';'))
            .filter(|&j| code[j].is_punct('{'))
        else {
            i += 2;
            continue;
        };
        let body = &code[body_start + 1..matching_close(code, body_start)];
        let summary = scan_body(body, lock_names, edges);
        let entry = summaries.entry(code[i + 1].text.clone()).or_default();
        entry.acquires.extend(summary.acquires);
        entry.held_calls.extend(summary.held_calls);
        entry.callees.extend(summary.callees);
        i = body_start + 1; // nested fns get their own pass
    }
}

/// One tracked guard: binding name (if `let`-bound), class, brace depth
/// at binding.
struct Guard {
    name: Option<String>,
    class: String,
    depth: u32,
}

fn scan_body(
    body: &[&Token],
    lock_names: &BTreeMap<String, BTreeSet<String>>,
    edges: &mut BTreeSet<(String, String)>,
) -> FnSummary {
    let mut summary = FnSummary::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0u32;
    // Name bound by the `let` statement being scanned, if any.
    let mut pending_let: Option<String> = None;
    let mut i = 0;
    while i < body.len() {
        let t = body[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            guards.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
        } else if t.is_punct(';') {
            pending_let = None;
        } else if t.is_ident("let") {
            // `let [mut] name =`
            let mut j = i + 1;
            if body.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let (Some(name), Some(eq)) = (body.get(j), body.get(j + 1)) {
                if name.kind == TokKind::Ident && eq.is_punct('=') {
                    pending_let = Some(name.text.clone());
                }
            }
        } else if t.is_ident("drop")
            && body.get(i + 1).is_some_and(|t| t.is_punct('('))
            && body.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(arg) = body.get(i + 2) {
                if arg.kind == TokKind::Ident {
                    guards.retain(|g| g.name.as_deref() != Some(arg.text.as_str()));
                }
            }
        } else if t.kind == TokKind::Ident {
            // Acquisition: `name . lock|read|write ( )` with a known
            // receiver name.
            let is_acquire = lock_names.contains_key(&t.text)
                && body.get(i + 1).is_some_and(|n| n.is_punct('.'))
                && body.get(i + 2).is_some_and(|n| {
                    n.is_ident("lock") || n.is_ident("read") || n.is_ident("write")
                })
                && body.get(i + 3).is_some_and(|n| n.is_punct('('))
                && body.get(i + 4).is_some_and(|n| n.is_punct(')'));
            if is_acquire {
                let after = body.get(i + 5);
                for class in &lock_names[&t.text] {
                    for g in guards.iter().filter(|g| g.class != *class) {
                        edges.insert((g.class.clone(), class.clone()));
                    }
                    summary.acquires.insert(class.clone());
                }
                // Persistent only when the guard itself is bound:
                // `let g = x.lock();` (next token is `;`).
                let persists = pending_let.is_some() && after.is_some_and(|n| n.is_punct(';'));
                if persists {
                    for class in &lock_names[&t.text] {
                        guards.push(Guard {
                            name: pending_let.clone(),
                            class: class.clone(),
                            depth,
                        });
                    }
                    pending_let = None;
                }
                i += 5;
                continue;
            }
            // Call site: `name (`. Keywords and constructors land here too
            // and resolve to nothing, like any name no scanned file defines.
            if body.get(i + 1).is_some_and(|n| n.is_punct('('))
                && !CALLEE_STOPLIST.contains(&t.text.as_str())
            {
                summary.callees.insert(t.text.clone());
                if !guards.is_empty() {
                    let held: BTreeSet<String> = guards.iter().map(|g| g.class.clone()).collect();
                    summary.held_calls.push((held, t.text.clone()));
                }
            }
        }
        i += 1;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> LockGraph {
        let sf = SourceFile::new("crates/x/src/lib.rs".to_string(), src);
        extract(&[sf])
    }

    #[test]
    fn nested_guards_yield_edges() {
        let g = graph_of(
            r#"
struct S { a: TrackedMutex<u32>, b: TrackedMutex<u32> }
impl S {
    fn make() -> S { S { a: TrackedMutex::new("x.a", 0), b: TrackedMutex::new("x.b", 0) } }
    fn nest(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
    }
}
"#,
        );
        let edges = g.edges();
        assert!(edges.iter().any(|(h, a)| h == "x.a" && a == "x.b"));
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let g = graph_of(
            r#"
fn mk() { let m1 = TrackedMutex::new("c.one", ()); let m2 = TrackedMutex::new("c.two", ()); }
fn p1(m1: &TrackedMutex<()>, m2: &TrackedMutex<()>) {
    let g1 = m1.lock();
    let g2 = m2.lock();
}
fn p2(m1: &TrackedMutex<()>, m2: &TrackedMutex<()>) {
    let g2 = m2.lock();
    let g1 = m1.lock();
}
"#,
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "edges: {:?}", g.edges());
        assert!(cycles[0].contains(&"c.one".to_string()));
    }

    #[test]
    fn scope_exit_releases_guards() {
        let g = graph_of(
            r#"
fn mk() { let a = TrackedMutex::new("s.a", ()); let b = TrackedMutex::new("s.b", ()); }
fn f(a: &TrackedMutex<()>, b: &TrackedMutex<()>) {
    {
        let ga = a.lock();
    }
    let gb = b.lock();
}
"#,
        );
        assert!(g.edges().is_empty());
    }

    #[test]
    fn transient_acquisition_holds_nothing() {
        let g = graph_of(
            r#"
fn mk() { let a = TrackedMutex::new("t.a", 0u32); let b = TrackedMutex::new("t.b", 0u32); }
fn f(a: &TrackedMutex<u32>, b: &TrackedMutex<u32>) {
    let n = a.lock().wrapping_add(1);
    let gb = b.lock();
}
"#,
        );
        assert!(g.edges().is_empty());
    }

    #[test]
    fn const_array_classes_become_a_family() {
        let g = graph_of(
            r#"
const CLASSES: [&str; 2] = ["dev.shard00", "dev.shard01"];
struct S { regions: TrackedRwLock<u32>, state: TrackedRwLock<u32> }
impl S {
    fn mk(i: usize) -> S {
        S { regions: TrackedRwLock::new("dev.regions", 0), state: TrackedRwLock::new(CLASSES[i], 0) }
    }
    fn f(&self) {
        let rt = self.regions.write();
        let st = self.state.write();
    }
}
"#,
        );
        let edges = g.edges();
        assert!(
            edges
                .iter()
                .any(|(h, a)| h == "dev.regions" && a == "dev.shard*"),
            "edges: {edges:?}"
        );
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn interprocedural_edges_propagate() {
        let g = graph_of(
            r#"
fn mk() { let inner = TrackedMutex::new("store.inner", ()); let dev = TrackedMutex::new("dev.lock", ()); }
fn alloc_batch(dev: &TrackedMutex<()>) {
    let gd = dev.lock();
}
fn intern(inner: &TrackedMutex<()>, dev: &TrackedMutex<()>) {
    let gi = inner.lock();
    alloc_batch(dev);
}
"#,
        );
        let edges = g.edges();
        assert!(
            edges
                .iter()
                .any(|(h, a)| h == "store.inner" && a == "dev.lock"),
            "edges: {edges:?}"
        );
    }

    #[test]
    fn runtime_comparison_flags_reversal_and_family_order() {
        let g = graph_of(
            r#"
fn mk() { let a = TrackedMutex::new("r.a", ()); let b = TrackedMutex::new("r.b", ()); }
fn f(a: &TrackedMutex<()>, b: &TrackedMutex<()>) {
    let ga = a.lock();
    let gb = b.lock();
}
"#,
        );
        let pair = |h: &str, a: &str| (h.to_string(), a.to_string());
        let runtime = vec![
            pair("r.b", "r.a"),                                       // reverse of static
            pair("cxl_mem.device.shard05", "cxl_mem.device.shard02"), // descending
            pair("cxl_mem.device.shard01", "cxl_mem.device.shard03"), // ascending: fine
        ];
        let cmp = g.compare_runtime(&runtime);
        assert_eq!(cmp.contradictions.len(), 2, "{:?}", cmp.contradictions);
        // The static a→b edge was never exercised: a coverage gap.
        assert_eq!(
            cmp.coverage_gaps,
            vec![("r.a".to_string(), "r.b".to_string())]
        );
    }
}
