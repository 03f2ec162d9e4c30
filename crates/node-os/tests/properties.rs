//! Property-based tests for the OS substrate: page-table and VMA-tree
//! behaviour against reference models, frame refcount invariants, and
//! fault-handler memory-safety under random workloads.

#![allow(
    clippy::disallowed_types,
    reason = "the page-table reference model is a HashMap and HashSets on purpose (nothing like the table's ordered leaf map); iteration order is compared against the model's sorted keys"
)]

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use cxl_mem::PageData;
use node_os::addr::{PhysAddr, VirtPageNum};
use node_os::frame::FrameAllocator;
use node_os::page_table::{AttachedLeaf, PageTable, PtLeaf};
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

/// A VPN anywhere in the 36-bit space, or one of a few slots under a
/// few directory prefixes, so that leaves meet in directories and
/// unmaps and leaf CoWs hit mapped entries.
fn arb_vpn() -> impl Strategy<Value = u64> {
    const INDICES: [u64; 3] = [0, 1, 511];
    (
        any::<bool>(),
        0u64..(1u64 << 36),
        (0usize..3, 0usize..3, 0usize..3),
        0u64..16,
    )
        .prop_map(|(anywhere, vpn, (i4, i3, i2), slot)| {
            if anywhere {
                vpn
            } else {
                (INDICES[i4] << 27) | (INDICES[i3] << 18) | (INDICES[i2] << 9) | slot
            }
        })
}

/// One page-table operation of the reference-model test.
#[derive(Debug, Clone)]
enum PtOp {
    Set(u64, Pte),
    Unmap(u64),
    /// Attach a shared leaf with these entries at the leaf covering the VPN.
    Attach(u64, Vec<(usize, Pte)>),
    /// Install a local leaf with these entries there.
    Install(u64, Vec<(usize, Pte)>),
}

fn arb_op() -> impl Strategy<Value = PtOp> {
    let entries = prop::collection::vec((0usize..16, arb_pte()), 0..8);
    (0u8..7, arb_vpn(), arb_pte(), entries).prop_map(|(kind, vpn, pte, entries)| match kind {
        0..=2 => PtOp::Set(vpn, pte),
        3 | 4 => PtOp::Unmap(vpn),
        5 => PtOp::Attach(vpn, entries),
        _ => PtOp::Install(vpn, entries),
    })
}

/// Builds the leaf an attach or install puts at leaf index `li`, and
/// makes the model's entries under `li` equal to it.
fn replace_leaf(model: &mut HashMap<u64, Pte>, li: u64, entries: &[(usize, Pte)]) -> PtLeaf {
    model.retain(|vpn, _| vpn >> 9 != li);
    let mut leaf = PtLeaf::new();
    for &(slot, pte) in entries {
        leaf.set(slot, pte);
        model.insert((li << 9) | slot as u64, pte);
    }
    leaf
}

proptest! {
    /// The page table behaves exactly like a `HashMap<vpn, pte>` under
    /// arbitrary set/unmap/attach/install sequences across the whole VPN
    /// space; it creates one directory page per distinct `vpn >> 27`
    /// (level 3) and `vpn >> 18` (level 2) prefix of its leaves, reports
    /// a new leaf exactly when the leaf index is new, copies exactly the
    /// attached leaves it writes, and walks its entries in ascending VPN
    /// order.
    #[test]
    fn page_table_matches_hashmap_model(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut pt = PageTable::new();
        let mut model: HashMap<u64, Pte> = HashMap::new();
        let mut leaves: HashSet<u64> = HashSet::new();
        let mut attached: HashSet<u64> = HashSet::new();
        let mut dirs_created = 0;
        for op in ops {
            match op {
                PtOp::Set(vpn, pte) => {
                    let li = vpn >> 9;
                    let o = pt.set(VirtPageNum(vpn), pte);
                    prop_assert_eq!(o.leaf_created, leaves.insert(li), "set at {:#x}", vpn);
                    prop_assert_eq!(o.leaf_cow, attached.remove(&li), "set at {:#x}", vpn);
                    dirs_created += o.dirs_created;
                    model.insert(vpn, pte);
                }
                PtOp::Unmap(vpn) => {
                    let (old, o) = pt.unmap(VirtPageNum(vpn));
                    let expected = model.remove(&vpn).unwrap_or(Pte::EMPTY);
                    prop_assert_eq!(old, expected);
                    prop_assert!(!o.leaf_created);
                    prop_assert_eq!(o.leaf_cow, !expected.is_empty() && attached.remove(&(vpn >> 9)));
                    dirs_created += o.dirs_created;
                }
                PtOp::Attach(vpn, entries) => {
                    let li = vpn >> 9;
                    let leaf = Arc::new(replace_leaf(&mut model, li, &entries));
                    leaves.insert(li);
                    attached.insert(li);
                    let backing = cxl_mem::CxlPageId(li);
                    dirs_created += pt.attach_leaf(li, AttachedLeaf { leaf, backing });
                }
                PtOp::Install(vpn, entries) => {
                    let li = vpn >> 9;
                    let leaf = replace_leaf(&mut model, li, &entries);
                    leaves.insert(li);
                    attached.remove(&li);
                    dirs_created += pt.install_local_leaf(li, leaf);
                }
            }
        }
        for (vpn, pte) in &model {
            prop_assert_eq!(pt.get(VirtPageNum(*vpn)), *pte);
        }
        let l3: HashSet<u64> = leaves.iter().map(|li| li >> 18).collect();
        let l2: HashSet<u64> = leaves.iter().map(|li| li >> 9).collect();
        prop_assert_eq!(dirs_created, (l3.len() + l2.len()) as u64);
        prop_assert_eq!(pt.attached_leaf_count(), attached.len());
        let mut leaf_indices: Vec<u64> = leaves.into_iter().collect();
        leaf_indices.sort_unstable();
        prop_assert_eq!(pt.leaves().map(|(li, _)| li).collect::<Vec<_>>(), leaf_indices);
        let mut expected: Vec<(u64, Pte)> = model.into_iter().collect();
        expected.sort_unstable_by_key(|&(vpn, _)| vpn);
        let populated: Vec<(u64, Pte)> = pt.iter_populated().map(|(v, pte)| (v.0, pte)).collect();
        prop_assert_eq!(populated, expected);
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
