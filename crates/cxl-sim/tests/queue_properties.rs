//! Property-based tests for the event queue's total ordering.

use cxl_sim::{EventQueue, Scheduled};
use proptest::prelude::*;
use simclock::SimTime;

proptest! {
    /// The `(time, seq)` key is total: no two scheduled events ever
    /// collide, even when many share a firing time.
    #[test]
    fn ordering_keys_never_collide(times in prop::collection::vec(0u64..100, 1..300)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(*t), i);
        }
        let mut keys = Vec::new();
        while let Some(s) = q.pop() {
            keys.push((s.at, s.seq));
        }
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), keys.len(), "duplicate (time, seq) key");
        prop_assert_eq!(sorted, keys, "pop order disagrees with (time, seq) order");
    }

    /// Pops come out sorted by time, and equal-time events preserve
    /// insertion (FIFO) order regardless of the push permutation.
    #[test]
    fn equal_times_are_fifo(times in prop::collection::vec(0u64..10, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(*t), i);
        }
        let mut prev: Option<(SimTime, u64)> = None;
        while let Some(Scheduled { at, seq, event }) = q.pop() {
            prop_assert_eq!(event as u64, seq, "seq assigned in push order");
            if let Some((pt, ps)) = prev {
                prop_assert!(at > pt || (at == pt && seq > ps));
            }
            prev = Some((at, seq));
        }
    }

    /// Two identically built queues drained by a plain pop loop produce
    /// the same dispatch sequence — heap internals never leak into it.
    #[test]
    fn identical_schedules_dispatch_identically(
        times in prop::collection::vec(0u64..50, 1..150)
    ) {
        let drive = |times: &[u64]| {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut order = Vec::new();
            while let Some(ev) = q.pop() {
                order.push((ev.at.as_nanos(), ev.event));
            }
            (order, q.dispatched_total())
        };
        prop_assert_eq!(drive(&times), drive(&times));
    }
}
