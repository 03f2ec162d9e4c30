//! Lock-order cycle detection (the analysis half of lockdep).
//!
//! [`cxl_mem::lockdep`] records one directed edge `held → acquired` for
//! every nested lock acquisition in debug builds. A cycle in
//! that graph means two code paths acquire some set of lock classes in
//! incompatible orders — a potential deadlock, reported even if the
//! unlucky thread interleaving never ran. This module finds every
//! elementary cycle reachable in the recorded graph with an iterative
//! DFS and reports each one once, as a [`Violation::LockOrderCycle`]
//! rotated to start at its lexicographically smallest class.

use std::collections::{BTreeMap, BTreeSet};

use crate::Violation;

/// Finds cycles in a lock-order edge list (as produced by
/// [`cxl_mem::lockdep::lock_order_edges`]).
///
/// Each distinct cycle is reported once, rotated to start at its
/// smallest class name. Self-edges (`a → a`, a class nested inside
/// itself) count as cycles of length one.
///
/// # Example
///
/// ```
/// let edges = [("a", "b"), ("b", "a"), ("b", "c")];
/// let cycles = cxl_check::lock_order_cycles(&edges);
/// assert_eq!(cycles.len(), 1); // a -> b -> a
/// ```
pub fn lock_order_cycles(edges: &[(&'static str, &'static str)]) -> Vec<Violation> {
    let mut graph: BTreeMap<&'static str, Vec<&'static str>> = BTreeMap::new();
    for &(from, to) in edges {
        graph.entry(from).or_default().push(to);
        graph.entry(to).or_default();
    }

    // Iterative DFS with a gray (on-path) set: an edge back into the
    // current path closes a cycle. Visiting every node as a root and
    // deduplicating by canonical rotation reports each elementary cycle
    // that lockdep cares about exactly once.
    let mut seen: BTreeSet<Vec<&'static str>> = BTreeSet::new();
    let mut out = Vec::new();
    let mut black: BTreeSet<&'static str> = BTreeSet::new();

    for &root in graph.keys() {
        if black.contains(root) {
            continue;
        }
        let mut path: Vec<&'static str> = Vec::new();
        let mut on_path: BTreeSet<&'static str> = BTreeSet::new();
        // Stack of (node, next-successor index).
        let mut stack: Vec<(&'static str, usize)> = vec![(root, 0)];
        path.push(root);
        on_path.insert(root);

        while let Some((node, next)) = stack.last_mut() {
            let successors = &graph[node];
            if let Some(&succ) = successors.get(*next) {
                *next += 1;
                if on_path.contains(succ) {
                    // Close the cycle: the path suffix from `succ` on.
                    let start = path.iter().position(|&n| n == succ).expect("on path");
                    let cycle = canonical(&path[start..]);
                    if seen.insert(cycle.clone()) {
                        out.push(Violation::LockOrderCycle { cycle });
                    }
                } else if !black.contains(succ) {
                    stack.push((succ, 0));
                    path.push(succ);
                    on_path.insert(succ);
                }
            } else {
                black.insert(node);
                on_path.remove(node);
                path.pop();
                stack.pop();
            }
        }
    }
    out
}

/// Snapshots the globally recorded lock-order graph and returns any
/// cycles in it. Always empty in release builds (nothing is recorded).
pub fn check_lock_order() -> Vec<Violation> {
    lock_order_cycles(&cxl_mem::lockdep::lock_order_edges())
}

/// Rotates a cycle to start at its smallest element.
fn canonical(cycle: &[&'static str]) -> Vec<&'static str> {
    let pivot = cycle
        .iter()
        .enumerate()
        .min_by_key(|&(_, &name)| name)
        .map_or(0, |(i, _)| i);
    let mut rotated = Vec::with_capacity(cycle.len());
    rotated.extend_from_slice(&cycle[pivot..]);
    rotated.extend_from_slice(&cycle[..pivot]);
    rotated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_is_clean() {
        let edges = [("a", "b"), ("b", "c"), ("a", "c")];
        assert_eq!(lock_order_cycles(&edges), Vec::new());
        assert_eq!(lock_order_cycles(&[]), Vec::new());
    }

    #[test]
    fn two_cycle_is_found_once() {
        let edges = [("b", "a"), ("a", "b"), ("b", "c")];
        let cycles = lock_order_cycles(&edges);
        assert_eq!(
            cycles,
            vec![Violation::LockOrderCycle {
                cycle: vec!["a", "b"],
            }]
        );
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let cycles = lock_order_cycles(&[("a", "a")]);
        assert_eq!(cycles, vec![Violation::LockOrderCycle { cycle: vec!["a"] }]);
    }

    #[test]
    fn long_cycle_reported_canonically() {
        let edges = [("c", "d"), ("d", "b"), ("b", "c")];
        let cycles = lock_order_cycles(&edges);
        assert_eq!(
            cycles,
            vec![Violation::LockOrderCycle {
                cycle: vec!["b", "c", "d"],
            }]
        );
    }

    #[test]
    fn disjoint_cycles_each_reported() {
        let edges = [("a", "b"), ("b", "a"), ("x", "y"), ("y", "x")];
        assert_eq!(lock_order_cycles(&edges).len(), 2);
    }
}
