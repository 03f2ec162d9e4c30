//! Lockdep-style lock-order checking for the simulated memory system.
//!
//! Rust's ownership rules prevent data races but not *deadlocks*: two
//! threads taking the same pair of locks in opposite orders will park
//! forever, and nothing in the type system says so. The kernel's lockdep
//! catches this by lock *class*, not per instance: the order `store →
//! regions` observed on any instances forbids `regions → store` on any
//! others.
//!
//! Here the order is declared rather than discovered. Every lock is a
//! [`TrackedMutex`] or [`TrackedRwLock`] built with a [`LockClass`], and
//! the classes exist only as the constants in the one table below,
//! listed in acquisition order: a class's rank is its position. A thread
//! may take a lock only while every lock it already holds has a strictly
//! lower rank, so the acquisition graph is a sub-order of the table and
//! can never contain a cycle. Strict means a class is never nested in
//! itself: the device takes one shard lock at a time.
//!
//! The wrappers mirror the `parking_lot` API. The check runs in debug
//! builds (every `cargo test`) and panics on the first acquisition that
//! breaks the order, naming both classes. In release builds
//! `cfg!(debug_assertions)` folds it away and the wrappers are zero-cost
//! pass-throughs, so the measured binaries pay nothing.

#![allow(
    clippy::disallowed_types,
    reason = "the one module where raw locks are legal: it wraps them"
)]

use std::cell::RefCell;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A lock class: one row of the declared lock order. Its only values are
/// the associated constants, and it orders by rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockClass {
    rank: u8,
}

/// Declares the lock order: one `CONST = "name"` row per class, first
/// taken first. The private `Rank` enum numbers the rows, so a rank is a
/// position in this table and nothing else.
macro_rules! lock_order {
    ($($(#[$doc:meta])* $class:ident = $name:literal,)+) => {
        const NAMES: &[&str] = &[$($name),+];

        #[allow(non_camel_case_types, reason = "one variant per constant below, named alike")]
        enum Rank {
            $($class),+
        }

        impl LockClass {
            $(
                $(#[$doc])*
                pub const $class: LockClass = LockClass { rank: Rank::$class as u8 };
            )+
        }
    };
}

lock_order! {
    /// TrEnv's template pool.
    TRENV_TEMPLATES = "trenv.templates",
    /// The image store's books; held over device batch calls.
    STORE_INNER = "cxl_store.inner",
    /// A node's view of the shared file system.
    NODE_SHARED_FS = "node_os.shared_fs",
    /// The device-resident file table.
    CXL_FS = "cxl_mem.fs",
    /// The device's fault-hook slot (the hook is cloned out, then called).
    DEVICE_HOOK = "cxl_mem.device.hook",
    /// The fault injector's schedule, plan and log.
    FAULT_INJECTOR = "cxl_fault.injector",
    /// The crash-sweep recorder's operation sequence.
    FAULT_CRASHPOINT = "cxl_fault.crashpoint",
    /// The device's fabric attachment slot (cloned out, then charged).
    DEVICE_FABRIC = "cxl_mem.device.fabric",
    /// The fabric switch's port and uplink windows.
    FABRIC_SWITCH = "cxl_fabric.switch",
    /// The device's region table, its allocation serialization point.
    DEVICE_REGIONS = "cxl_mem.device.regions",
    /// Any one page shard of the device: shards are taken one at a time.
    DEVICE_SHARD = "cxl_mem.device.shard",
    /// The device's traffic book: bumped after the data moved, innermost.
    DEVICE_BOOK = "cxl_mem.device.book",
}

impl LockClass {
    fn name(self) -> &'static str {
        NAMES[usize::from(self.rank)]
    }
}

thread_local! {
    /// Classes currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<LockClass>> = const { RefCell::new(Vec::new()) };
}

fn note_acquire(class: LockClass) {
    if !cfg!(debug_assertions) {
        return;
    }
    let blocker = HELD.with(|held| {
        let mut held = held.borrow_mut();
        let blocker = held.iter().copied().filter(|&h| h >= class).max();
        if blocker.is_none() {
            held.push(class);
        }
        blocker
    });
    if let Some(held) = blocker {
        panic!(
            "lock order violated: taking `{}` while holding `{}`, which does not rank \
             strictly below it in cxl_mem::lockdep",
            class.name(),
            held.name(),
        );
    }
}

fn note_release(class: LockClass) {
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

/// A [`parking_lot::Mutex`] whose acquisitions are checked against the
/// declared lock order in debug builds.
#[derive(Debug)]
pub struct TrackedMutex<T> {
    class: LockClass,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Creates a mutex in lock class `class`.
    pub const fn new(class: LockClass, value: T) -> Self {
        TrackedMutex {
            class,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the mutex.
    ///
    /// # Panics
    ///
    /// In debug builds, if this thread already holds a lock whose class
    /// does not rank strictly below this one's.
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
    class: LockClass,
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

/// A [`parking_lot::RwLock`] whose acquisitions are checked against the
/// declared lock order in debug builds. Read and write acquisitions are
/// checked alike: `parking_lot` read locks still deadlock against
/// writers in a cycle.
#[derive(Debug)]
pub struct TrackedRwLock<T> {
    class: LockClass,
    inner: RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Creates a reader-writer lock in lock class `class`.
    pub const fn new(class: LockClass, value: T) -> Self {
        TrackedRwLock {
            class,
            inner: RwLock::new(value),
        }
    }

    /// Acquires a shared read lock.
    ///
    /// # Panics
    ///
    /// As [`TrackedMutex::lock`].
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        note_acquire(self.class);
        TrackedReadGuard {
            class: self.class,
            inner: self.inner.read(),
        }
    }

    /// Acquires an exclusive write lock.
    ///
    /// # Panics
    ///
    /// As [`TrackedMutex::lock`].
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
    class: LockClass,
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
    class: LockClass,
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

    /// Runs `f`, which must panic, and returns the panic message.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("a lock-order violation panics in debug builds");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn wrappers_behave_like_plain_locks() {
        let m = TrackedMutex::new(LockClass::STORE_INNER, 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let rw = TrackedRwLock::new(LockClass::DEVICE_REGIONS, vec![1]);
        rw.write().push(2);
        assert_eq!(rw.read().len(), 2);
    }

    #[test]
    fn ascending_nesting_is_accepted() {
        let store = TrackedMutex::new(LockClass::STORE_INNER, ());
        let regions = TrackedRwLock::new(LockClass::DEVICE_REGIONS, ());
        let shard = TrackedRwLock::new(LockClass::DEVICE_SHARD, ());
        let book = TrackedMutex::new(LockClass::DEVICE_BOOK, ());
        let _s = store.lock();
        let _r = regions.write();
        let _sh = shard.read();
        let _b = book.lock();
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the check is compiled out of release builds"
    )]
    fn descending_acquisition_panics_and_names_both_classes() {
        let store = TrackedMutex::new(LockClass::STORE_INNER, ());
        let regions = TrackedRwLock::new(LockClass::DEVICE_REGIONS, ());
        let message = panic_message(|| {
            let _r = regions.write();
            let _s = store.lock();
        });
        assert!(
            message.contains("taking `cxl_store.inner` while holding `cxl_mem.device.regions`"),
            "{message}"
        );
        // The unwind released the region table: the thread holds nothing.
        let _s = store.lock();
        let _r = regions.write();
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the check is compiled out of release builds"
    )]
    fn the_same_class_nested_twice_panics() {
        let shard0 = TrackedRwLock::new(LockClass::DEVICE_SHARD, ());
        let shard3 = TrackedRwLock::new(LockClass::DEVICE_SHARD, ());
        let message = panic_message(|| {
            let _a = shard0.read();
            let _b = shard3.write();
        });
        assert!(
            message.contains("taking `cxl_mem.device.shard` while holding `cxl_mem.device.shard`"),
            "{message}"
        );
    }

    #[test]
    fn after_an_out_of_order_release_a_middle_rank_is_accepted() {
        let templates = TrackedMutex::new(LockClass::TRENV_TEMPLATES, ());
        let store = TrackedMutex::new(LockClass::STORE_INNER, ());
        let hook = TrackedRwLock::new(LockClass::DEVICE_HOOK, ());
        let regions = TrackedRwLock::new(LockClass::DEVICE_REGIONS, ());
        let lowest = templates.lock();
        let low = store.lock();
        let high = regions.read();
        // Not the last one taken: the release must find it mid-stack.
        drop(low);
        drop(high);
        // Only the lowest class is still held, so a middle rank may go in.
        let _middle = hook.read();
        drop(lowest);
    }
}
