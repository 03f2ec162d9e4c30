//! Property-based tests for the OS substrate: page-table and VMA-tree
//! behaviour against reference models, frame refcount invariants, and
//! fault-handler memory-safety under random workloads.

#![allow(
    clippy::disallowed_types,
    reason = "the page-table reference model is a HashMap on purpose (nothing like a radix tree); only lookups and lengths are compared, never iteration order"
)]

use std::collections::HashMap;

use proptest::prelude::*;

use cxl_mem::PageData;
use node_os::addr::{PhysAddr, VirtPageNum};
use node_os::frame::FrameAllocator;
use node_os::page_table::PageTable;
use node_os::pte::{Pte, PteFlags};
use node_os::vma::{Protection, Vma, VmaTree};

fn arb_pte() -> impl Strategy<Value = Pte> {
    (any::<u64>(), any::<bool>()).prop_map(|(pfn, writable)| {
        let mut flags = PteFlags::PRESENT;
        if writable {
            flags |= PteFlags::WRITABLE;
        }
        Pte::mapped(PhysAddr::Local(node_os::Pfn(pfn % 1024)), flags)
    })
}

proptest! {
    /// The 4-level page table behaves exactly like a `HashMap<vpn, pte>`
    /// under arbitrary set/unmap/get sequences across the whole VPN space.
    #[test]
    fn page_table_matches_hashmap_model(
        ops in prop::collection::vec(
            (0u64..(1u64 << 36), prop::option::of(arb_pte())),
            1..200
        )
    ) {
        let mut pt = PageTable::new();
        let mut model: HashMap<u64, Pte> = HashMap::new();
        for (vpn, op) in ops {
            match op {
                Some(pte) => {
                    pt.set(VirtPageNum(vpn), pte);
                    model.insert(vpn, pte);
                }
                None => {
                    let (old, _) = pt.unmap(VirtPageNum(vpn));
                    prop_assert_eq!(old, model.remove(&vpn).unwrap_or(Pte::EMPTY));
                }
            }
        }
        for (vpn, pte) in &model {
            prop_assert_eq!(pt.get(VirtPageNum(*vpn)), *pte);
        }
        let populated = pt.iter_populated();
        prop_assert_eq!(populated.len(), model.len());
        for (vpn, pte) in populated {
            prop_assert_eq!(model.get(&vpn.0), Some(&pte));
        }
    }

    /// The VMA tree finds exactly the VMAs a linear scan would, under
    /// arbitrary insert/remove sequences.
    #[test]
    fn vma_tree_matches_linear_model(
        ops in prop::collection::vec((0u64..2000, 1u64..50, any::<bool>()), 1..80),
        probes in prop::collection::vec(0u64..2200, 1..40),
    ) {
        let mut tree = VmaTree::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        for (start, len, insert) in ops {
            if insert {
                let vma = Vma::anonymous(start, start + len, Protection::read_write(), "p");
                let overlaps = model.iter().any(|(s, e)| start < *e && *s < start + len);
                match tree.insert(vma) {
                    Ok(_) => {
                        prop_assert!(!overlaps, "tree accepted an overlap at {start}");
                        model.push((start, start + len));
                    }
                    Err(_) => prop_assert!(overlaps, "tree rejected non-overlap at {start}"),
                }
            } else if let Some((vma, _)) = tree.remove(VirtPageNum(start)) {
                let pos = model
                    .iter()
                    .position(|(s, e)| *s <= start && start < *e)
                    .expect("model has it too");
                prop_assert_eq!((vma.start, vma.end), model.remove(pos));
            } else {
                prop_assert!(!model.iter().any(|(s, e)| *s <= start && start < *e));
            }
        }
        for p in probes {
            let tree_hit = tree.find(VirtPageNum(p)).map(|v| (v.start, v.end));
            let model_hit = model.iter().copied().find(|(s, e)| *s <= p && p < *e);
            prop_assert_eq!(tree_hit, model_hit, "probe at {}", p);
        }
        prop_assert_eq!(tree.vma_count(), model.len());
    }

    /// Frame refcounts: any balanced sequence of inc/dec returns the
    /// allocator to its starting state, and usage never drifts.
    #[test]
    fn frame_refcounts_balance(extra_refs in prop::collection::vec(0u8..8, 1..40)) {
        let mut frames = FrameAllocator::new(64);
        let mut live = Vec::new();
        for n in &extra_refs {
            let pfn = frames.alloc(PageData::zeroed()).unwrap();
            for _ in 0..*n {
                frames.inc_ref(pfn);
            }
            live.push((pfn, *n));
        }
        prop_assert_eq!(frames.used(), live.len() as u64);
        for (pfn, n) in live {
            for i in 0..n {
                prop_assert!(!frames.dec_ref(pfn), "freed too early at ref {i}");
            }
            prop_assert!(frames.dec_ref(pfn), "final dec frees");
        }
        prop_assert_eq!(frames.used(), 0);
    }

    /// Attached-leaf copy-on-write: whatever entries a shared leaf holds,
    /// a write through one attacher never changes what other attachers or
    /// the original leaf observe.
    #[test]
    fn leaf_cow_isolation(
        slots in prop::collection::vec(0usize..512, 1..30),
        write_slot in 0usize..512,
    ) {
        use node_os::page_table::{AttachedLeaf, PtLeaf};
        use std::sync::Arc;

        let mut leaf = PtLeaf::new();
        for s in &slots {
            leaf.set(*s, Pte::mapped(
                PhysAddr::Cxl(cxl_mem::CxlPageId(*s as u64)),
                PteFlags::PRESENT | PteFlags::CKPT_PIN,
            ));
        }
        let shared = Arc::new(leaf);
        let mut a = PageTable::new();
        let mut b = PageTable::new();
        for pt in [&mut a, &mut b] {
            pt.attach_leaf(0, AttachedLeaf {
                leaf: Arc::clone(&shared),
                backing: cxl_mem::CxlPageId(999),
            });
        }
        let before_b: Vec<Pte> = (0..512).map(|s| b.get(VirtPageNum(s as u64))).collect();
        a.set(
            VirtPageNum(write_slot as u64),
            Pte::mapped(PhysAddr::Local(node_os::Pfn(7)), PteFlags::PRESENT),
        );
        // A sees its write.
        prop_assert_eq!(
            a.get(VirtPageNum(write_slot as u64)).target(),
            Some(PhysAddr::Local(node_os::Pfn(7)))
        );
        // B and the shared leaf are untouched.
        for (s, expected) in before_b.iter().enumerate() {
            prop_assert_eq!(b.get(VirtPageNum(s as u64)), *expected);
            prop_assert_eq!(shared.get(s), *expected);
        }
        // A's other entries survive the leaf copy (minus the pin bit).
        for s in &slots {
            if *s != write_slot {
                prop_assert_eq!(a.get(VirtPageNum(*s as u64)).target(), before_b[*s].target());
            }
        }
    }
}
