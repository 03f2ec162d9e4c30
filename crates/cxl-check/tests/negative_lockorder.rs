//! Negative test: two code paths taking the same pair of locks in
//! opposite orders must surface as a lock-order cycle, even though the
//! deadlocking interleaving never runs. Lives in its own test binary
//! because the lockdep edge graph is process-global.

use cxl_check::Violation;
use cxl_mem::lockdep::{reset_lock_graph, TrackedMutex};

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "lockdep records edges only in debug builds"
)]
fn inverted_lock_order_is_reported_as_a_cycle() {
    reset_lock_graph();
    let alloc = TrackedMutex::new("negtest.alloc", ());
    let table = TrackedMutex::new("negtest.table", ());

    // Path 1: alloc → table. Harmless on its own.
    {
        let _a = alloc.lock();
        let _t = table.lock();
    }
    assert_eq!(cxl_check::check_lock_order(), Vec::new());

    // Path 2: table → alloc. Never deadlocks here (single thread), but
    // the combination is a deadlock waiting for the right interleaving.
    {
        let _t = table.lock();
        let _a = alloc.lock();
    }
    assert_eq!(
        cxl_check::check_lock_order(),
        vec![Violation::LockOrderCycle {
            cycle: vec!["negtest.alloc", "negtest.table"],
        }]
    );
    reset_lock_graph();
}
