//! Property-based tests for the LLC model against a reference
//! fully-explicit set-associative LRU simulation.

use node_os::addr::{Pfn, PhysAddr};
use node_os::cache::{CacheConfig, LlcCache};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A transparent reference model with the same geometry and hash: one
/// list per set, most recently used first.
struct RefCache {
    sets: Vec<Vec<u64>>,
    assoc: usize,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(sets: usize, assoc: usize) -> Self {
        RefCache {
            sets: vec![Vec::new(); sets],
            assoc,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.sets.len()
    }

    fn access(&mut self, key: u64) -> bool {
        let idx = self.set_index(key);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&t| t == key) {
            let t = set.remove(pos);
            set.insert(0, t);
            self.hits += 1;
            true
        } else {
            if set.len() >= self.assoc {
                set.pop();
            }
            set.insert(0, key);
            self.misses += 1;
            false
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.sets[self.set_index(key)].contains(&key)
    }

    fn invalidate(&mut self, key: u64) {
        let idx = self.set_index(key);
        self.sets[idx].retain(|&t| t != key);
    }

    /// The model state as `LlcCache`'s `Debug` prints it: each non-empty
    /// set's lines, most recently used first, then the books.
    fn render(&self) -> String {
        let sets: BTreeMap<usize, &Vec<u64>> = self
            .sets
            .iter()
            .enumerate()
            .filter(|(_, set)| !set.is_empty())
            .collect();
        format!(
            "LlcCache {{ sets: {sets:?}, hits: {}, misses: {} }}",
            self.hits, self.misses
        )
    }
}

/// Set counts (non-powers of two take the fastmod path) and
/// associativities (3 pads its control word, 16 fills two) the model is
/// checked over.
const SETS: [usize; 4] = [1, 3, 5, 8];
const WAYS: [usize; 4] = [1, 3, 4, 16];

fn line(cxl: bool, page: u64) -> PhysAddr {
    if cxl {
        PhysAddr::Cxl(cxl_mem::CxlPageId(page))
    } else {
        PhysAddr::Local(Pfn(page))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production cache and the reference model agree on every
    /// access outcome, every residency probe and, after every operation,
    /// each set's full LRU order and the books, for arbitrary scripts of
    /// accesses, invalidations and probes over both tiers, on every
    /// geometry in `SETS` x `WAYS`.
    #[test]
    fn cache_matches_reference_model(
        ops in prop::collection::vec((0u8..8, any::<bool>(), 0u64..96), 1..300)
    ) {
        for sets in SETS {
            for assoc in WAYS {
                let mut cache = LlcCache::new(CacheConfig {
                    capacity_bytes: (sets * assoc) as u64 * 4096,
                    associativity: assoc,
                    line_bytes: 4096,
                });
                let mut reference = RefCache::new(sets, assoc);
                // Pages spread over about twice the capacity, so sets
                // fill, evict and hit.
                let pages = (2 * sets * assoc) as u64;
                let mut accesses = 0u64;
                for (i, &(op, cxl, page)) in ops.iter().enumerate() {
                    let addr = line(cxl, page % pages);
                    let key = addr.cache_key();
                    match op {
                        0 => cache.invalidate(addr),
                        1 => prop_assert_eq!(
                            cache.contains(addr),
                            reference.contains(key),
                            "{}x{}: op {} contains {:?}", sets, assoc, i, addr
                        ),
                        _ => {
                            accesses += 1;
                            prop_assert_eq!(
                                cache.access(addr),
                                reference.access(key),
                                "{}x{}: op {} access {:?}", sets, assoc, i, addr
                            );
                        }
                    }
                    if op == 0 {
                        reference.invalidate(key);
                    }
                    prop_assert_eq!(
                        format!("{cache:?}"),
                        reference.render(),
                        "{}x{}: state after op {} on {:?}", sets, assoc, i, addr
                    );
                }
                prop_assert_eq!(cache.hits(), reference.hits);
                prop_assert_eq!(cache.misses(), accesses - cache.hits());
            }
        }
    }

    /// Invalidation makes the next access a miss, and never affects other
    /// lines.
    #[test]
    fn invalidate_is_precise(
        pages in prop::collection::vec(0u64..64, 2..40),
        victim in any::<prop::sample::Index>(),
    ) {
        let mut cache = LlcCache::new(CacheConfig {
            capacity_bytes: 256 * 4096,
            associativity: 8,
            line_bytes: 4096,
        });
        for p in &pages {
            cache.access(PhysAddr::Local(Pfn(*p)));
        }
        let v = pages[victim.index(pages.len())];
        cache.invalidate(PhysAddr::Local(Pfn(v)));
        prop_assert!(!cache.contains(PhysAddr::Local(Pfn(v))));
        // Everything else that was resident stays resident (the cache is
        // big enough that nothing evicted in this test).
        for p in &pages {
            if *p != v {
                prop_assert!(cache.contains(PhysAddr::Local(Pfn(*p))), "lost page {p}");
            }
        }
    }
}
