//! The content index against a model: the slab's slot reuse, and the
//! ordered table under op scripts against a `BTreeMap`.

use std::collections::BTreeMap;

use super::*;

#[test]
fn vacated_slots_are_reused_before_the_slab_grows() {
    let mut index = ContentIndex::default();
    let slots: Vec<Slot> = (10..14u64)
        .map(|fp| {
            let (slot, fresh) = index.find_or_reserve(fp);
            assert!(fresh);
            index.bind(slot, CxlPageId(fp * 2));
            index.add_refs(slot, 1);
            slot
        })
        .collect();
    assert_eq!(slots, vec![0, 1, 2, 3]);
    assert_eq!(index.find_or_reserve(12), (2, false));

    assert_eq!(index.release(1), Some(CxlPageId(22)));
    assert_eq!(index.release(3), Some(CxlPageId(26)));
    assert_eq!(index.find(11), None);
    // Last vacated, first reused; then the other hole; then growth.
    assert_eq!(index.find_or_reserve(99), (3, true));
    assert_eq!(index.find_or_reserve(98), (1, true));
    assert_eq!(index.find_or_reserve(97), (4, true));
    assert_eq!(index.slots(), 5);
}

#[test]
fn vacating_reservations_in_reverse_hands_the_same_slots_out_again() {
    let mut index = ContentIndex::default();
    for fp in 0..3u64 {
        let (slot, _) = index.find_or_reserve(fp);
        index.bind(slot, CxlPageId(fp));
        index.add_refs(slot, 1);
    }
    index.release(1);
    let reserved: Vec<Slot> = [7u64, 8]
        .iter()
        .map(|&fp| index.find_or_reserve(fp).0)
        .collect();
    assert_eq!(reserved, vec![1, 3]);
    for &slot in reserved.iter().rev() {
        index.vacate(slot);
    }
    assert_eq!(index.len(), 2);
    assert_eq!(index.find(7), None);
    // The same attempt again is handed the same slots.
    assert_eq!(index.find_or_reserve(7), (1, true));
    assert_eq!(index.find_or_reserve(8), (3, true));
}

#[test]
fn iteration_is_fingerprint_ordered_whatever_the_slot_order() {
    let mut index = ContentIndex::default();
    for fp in [30u64, 10, 20] {
        let (slot, _) = index.find_or_reserve(fp);
        index.bind(slot, CxlPageId(fp + 1));
        index.add_refs(slot, fp);
    }
    let seen: Vec<_> = (index.iter())
        .map(|e| (e.fingerprint, e.page, e.refs))
        .collect();
    assert_eq!(
        seen,
        vec![
            (10, CxlPageId(11), 10),
            (20, CxlPageId(21), 20),
            (30, CxlPageId(31), 30)
        ]
    );
}

/// Seeded splitmix64, so every script is reproducible from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// How a script draws new fingerprints.
#[derive(Debug, Clone, Copy)]
enum Draw {
    Uniform,
    /// All sharing their top 20 bits: one home until the table has
    /// 2^20 of them, so one long run.
    SharedTop,
    /// Within 2^12 of `u64::MAX`: homed in the last cell, so the run
    /// lives in the tail.
    NearMax,
}

impl Draw {
    fn fingerprint(self, rng: &mut Rng) -> u64 {
        match self {
            Draw::Uniform => rng.next(),
            Draw::SharedTop => (0x000A_5C37_u64 << 44) | (rng.next() >> 20),
            Draw::NearMax => u64::MAX - (rng.next() >> 52),
        }
    }
}

/// What a script reached, so a script that never doubles, never
/// shifts a run, or never reaches the tail fails instead of passing.
#[derive(Debug, Default)]
struct Reached {
    home_bits: u32,
    longest_run: usize,
    tail: usize,
    peak: usize,
}

/// Runs `ops` random index operations with fingerprints from `draw`
/// against a `BTreeMap<fingerprint, (page, refs)>` model, comparing
/// `find` on every modelled fingerprint (and on absent neighbours)
/// and the whole of `iter()` after every operation.
fn script(seed: u64, draw: Draw, ops: usize) -> Reached {
    let mut rng = Rng(seed);
    let mut index = ContentIndex::default();
    let mut model: BTreeMap<u64, (CxlPageId, u64)> = BTreeMap::new();
    // The slot each modelled fingerprint was handed (a host-side
    // name the model does not predict, but must stay stable).
    let mut slots: BTreeMap<u64, Slot> = BTreeMap::new();
    let mut next_page = 0u64;
    let mut reached = Reached::default();
    for op in 0..ops {
        // Grow for a quarter, shrink for a quarter, and so on.
        let growing = (op * 4 / ops).is_multiple_of(2);
        let keys: Vec<u64> = model.keys().copied().collect();
        let pick = |rng: &mut Rng| keys[rng.below(keys.len())];
        let what = match rng.below(if growing { 10 } else { 16 }) {
            0..=4 => {
                // Existing content half the time, new content else.
                let fp = if !keys.is_empty() && rng.below(2) == 0 {
                    pick(&mut rng)
                } else {
                    draw.fingerprint(&mut rng)
                };
                let (slot, fresh) = index.find_or_reserve(fp);
                assert_eq!(fresh, !model.contains_key(&fp), "op {op}: fresh {fp:#x}");
                if fresh {
                    model.insert(fp, (NO_PAGE, 0));
                    slots.insert(fp, slot);
                } else {
                    assert_eq!(slot, slots[&fp], "op {op}: slot of {fp:#x}");
                }
                "find_or_reserve"
            }
            5 if !keys.is_empty() => {
                let fp = pick(&mut rng);
                index.bind(slots[&fp], CxlPageId(next_page));
                model.get_mut(&fp).expect("picked").0 = CxlPageId(next_page);
                next_page += 1;
                "bind"
            }
            6 | 7 if !keys.is_empty() => {
                let fp = pick(&mut rng);
                let n = 1 + rng.below(3) as u64;
                let entry = model.get_mut(&fp).expect("picked");
                entry.1 += n;
                assert_eq!(index.add_refs(slots[&fp], n), entry.0, "op {op}");
                "add_refs"
            }
            8 if !keys.is_empty() => {
                // A reservation given back, or content nobody holds.
                let fp = pick(&mut rng);
                if model[&fp].1 > 0 {
                    continue;
                }
                index.vacate(slots.remove(&fp).expect("picked"));
                model.remove(&fp);
                "vacate"
            }
            9 if !keys.is_empty() && rng.below(8) == 0 => {
                index.drop_unreferenced();
                model.retain(|_, e| e.1 > 0);
                slots.retain(|fp, _| model.contains_key(fp));
                "drop_unreferenced"
            }
            _ if !keys.is_empty() => {
                let fp = pick(&mut rng);
                let (page, refs) = model[&fp];
                if refs == 0 {
                    continue;
                }
                let freed = index.release(slots[&fp]);
                if refs == 1 {
                    assert_eq!(freed, Some(page), "op {op}: last release of {fp:#x}");
                    model.remove(&fp);
                    slots.remove(&fp);
                } else {
                    assert_eq!(freed, None, "op {op}: release of {fp:#x}");
                    model.get_mut(&fp).expect("picked").1 -= 1;
                }
                "release"
            }
            _ => continue,
        };

        let listed: Vec<(u64, CxlPageId, u64)> = (index.iter())
            .map(|e| (e.fingerprint, e.page, e.refs))
            .collect();
        let want: Vec<(u64, CxlPageId, u64)> = model
            .iter()
            .map(|(&fp, &(page, refs))| (fp, page, refs))
            .collect();
        assert_eq!(
            listed, want,
            "op {op} ({what}, {draw:?}, seed {seed}): iter"
        );
        assert_eq!(index.iter().len(), model.len(), "op {op}: iter().len()");
        assert_eq!(index.len(), model.len(), "op {op}: len");
        for (&fp, &slot) in &slots {
            assert_eq!(index.find(fp), Some(slot), "op {op} ({what}): find {fp:#x}");
            for near in [fp.wrapping_sub(1), fp.wrapping_add(1)] {
                if !model.contains_key(&near) {
                    assert_eq!(index.find(near), None, "op {op}: find absent {near:#x}");
                }
            }
        }

        let homes = 1 << index.home_bits;
        reached.home_bits = reached.home_bits.max(index.home_bits);
        reached.tail = reached.tail.max(index.cells.len() - homes);
        reached.peak = reached.peak.max(model.len());
        let longest = (index.cells.split(|c| c.slot == EMPTY))
            .map(<[Cell]>::len)
            .max();
        reached.longest_run = reached.longest_run.max(longest.unwrap_or(0));
    }
    reached
}

#[test]
fn ordered_table_matches_a_btreemap_model_under_op_scripts() {
    for seed in [1, 2025, 6502] {
        let uniform = script(seed, Draw::Uniform, 4_000);
        assert!(uniform.peak >= 100, "{uniform:?}");
        assert!(uniform.home_bits >= FIRST_HOME_BITS + 3, "{uniform:?}");
        assert!(uniform.longest_run >= 3, "{uniform:?}");

        let shared = script(seed, Draw::SharedTop, 2_000);
        assert!(shared.longest_run >= 50, "one long run: {shared:?}");
        assert!(shared.home_bits >= FIRST_HOME_BITS + 2, "{shared:?}");

        let near_max = script(seed, Draw::NearMax, 2_000);
        assert!(near_max.tail >= 50, "a long tail: {near_max:?}");
    }
}
