//! Lockdep-style lock-order tracking for the simulated memory system.
//!
//! Rust's ownership rules prevent data races but not *deadlocks*: two
//! threads taking the same pair of locks in opposite orders will park
//! forever, and nothing in the type system says so. The kernel solves
//! this with lockdep — every acquisition records an edge from each
//! already-held lock *class* to the new one, and a cycle in that graph is
//! a potential deadlock even if the unlucky interleaving never ran.
//!
//! This module is the acquisition-recording half of that design; the DFS
//! cycle detection lives in `cxl-check` (which also converts cycles into
//! typed `Violation`s). Locks are tracked per *class* (a `&'static str`
//! name given at construction), not per instance, exactly like lockdep:
//! the order `device → fs` observed on any instances forbids `fs →
//! device` on any others.
//!
//! The wrappers [`TrackedMutex`] and [`TrackedRwLock`] mirror the
//! `parking_lot` API. Recording runs in debug builds (every `cargo
//! test`); in release builds `cfg!(debug_assertions)` folds it away and
//! the wrappers are zero-cost pass-throughs, so the measured binaries
//! pay nothing.

#![allow(
    clippy::disallowed_types,
    reason = "the one module where raw locks are legal: it wraps them, and the tracker's own edge set sits behind a plain std mutex so recording never recurses"
)]

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock, PoisonError};

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

type EdgeSet = BTreeSet<(&'static str, &'static str)>;

/// Global edge set: `(held, acquired)` class pairs ever observed.
/// Guarded by a plain `std` mutex so the tracker never tracks itself.
static EDGES: OnceLock<StdMutex<EdgeSet>> = OnceLock::new();

thread_local! {
    /// Classes currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn edges() -> StdMutexGuard<'static, EdgeSet> {
    EDGES
        .get_or_init(|| StdMutex::new(BTreeSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn note_acquire(class: &'static str) {
    if !cfg!(debug_assertions) {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if !held.is_empty() {
            let mut edges = edges();
            for &prev in held.iter() {
                edges.insert((prev, class));
            }
        }
        held.push(class);
    });
}

fn note_release(class: &'static str) {
    if !cfg!(debug_assertions) {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&c| c == class) {
            held.remove(pos);
        }
    });
}

/// Returns every `(held, acquired)` lock-class edge observed so far.
///
/// Always empty in release builds. Feed this to
/// `cxl_check::lock_order_cycles` for deadlock-potential detection.
pub fn lock_order_edges() -> Vec<(&'static str, &'static str)> {
    edges().iter().copied().collect()
}

/// Clears the recorded lock-order graph (tests isolate scenarios with
/// this; note the graph is process-global).
pub fn reset_lock_graph() {
    edges().clear();
}

/// A [`parking_lot::Mutex`] that records lock-order edges in debug
/// builds.
#[derive(Debug)]
pub struct TrackedMutex<T> {
    class: &'static str,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Creates a mutex in lock class `class`.
    pub const fn new(class: &'static str, value: T) -> Self {
        TrackedMutex {
            class,
            inner: Mutex::new(value),
        }
    }

    /// The lock class this instance records edges under.
    pub fn class(&self) -> &'static str {
        self.class
    }

    /// Acquires the mutex, recording an edge from every lock class this
    /// thread already holds.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        note_acquire(self.class);
        TrackedMutexGuard {
            class: self.class,
            inner: self.inner.lock(),
        }
    }
}

/// Guard returned by [`TrackedMutex::lock`].
pub struct TrackedMutexGuard<'a, T> {
    class: &'static str,
    inner: MutexGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        note_release(self.class);
    }
}

/// A [`parking_lot::RwLock`] that records lock-order edges in debug
/// builds. Read and write acquisitions record the same class:
/// `parking_lot` read locks still deadlock against writers in a cycle.
#[derive(Debug)]
pub struct TrackedRwLock<T> {
    class: &'static str,
    inner: RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Creates a reader-writer lock in lock class `class`.
    pub const fn new(class: &'static str, value: T) -> Self {
        TrackedRwLock {
            class,
            inner: RwLock::new(value),
        }
    }

    /// The lock class this instance records edges under.
    pub fn class(&self) -> &'static str {
        self.class
    }

    /// Acquires a shared read lock, recording lock-order edges.
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        note_acquire(self.class);
        TrackedReadGuard {
            class: self.class,
            inner: self.inner.read(),
        }
    }

    /// Acquires an exclusive write lock, recording lock-order edges.
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        note_acquire(self.class);
        TrackedWriteGuard {
            class: self.class,
            inner: self.inner.write(),
        }
    }
}

/// Guard returned by [`TrackedRwLock::read`].
pub struct TrackedReadGuard<'a, T> {
    class: &'static str,
    inner: RwLockReadGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        note_release(self.class);
    }
}

/// Guard returned by [`TrackedRwLock::write`].
pub struct TrackedWriteGuard<'a, T> {
    class: &'static str,
    inner: RwLockWriteGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        note_release(self.class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_behave_like_plain_locks() {
        let m = TrackedMutex::new("test.m", 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let rw = TrackedRwLock::new("test.rw", vec![1]);
        rw.write().push(2);
        assert_eq!(rw.read().len(), 2);
    }

    #[test]
    fn nested_acquisitions_record_edges() {
        reset_lock_graph();
        let a = TrackedMutex::new("test.edge_a", ());
        let b = TrackedMutex::new("test.edge_b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        // Debug builds record the edge; release builds compile it out.
        assert_eq!(
            lock_order_edges().contains(&("test.edge_a", "test.edge_b")),
            cfg!(debug_assertions)
        );
    }
}
