//! Page-table entries and their flag bits.
//!
//! The hardware-visible bits mirror x86-64 (Present, Writable, Accessed,
//! Dirty). The software bits are the ones CXLfork's design adds (§4):
//!
//! * [`PteFlags::COW`] — write-protected copy-on-write mapping.
//! * [`PteFlags::FILE`] — backs a private file mapping.
//! * [`PteFlags::CKPT_PIN`] — the "unused PTE bit" (§4.2.1) that marks an
//!   entry as belonging to an attached checkpoint leaf, so any OS update
//!   attempt triggers a leaf-level CoW instead of an in-place write.
//! * [`PteFlags::FETCH_ON_ACCESS`] — hybrid tiering's encoding for "this
//!   page was hot at checkpoint time; the first access should migrate it
//!   to local memory" (§4.3).
//!
//! User hot-page hints (§4.3) are no PTE bit: they live in each leaf's
//! `hot` bitmap ([`crate::page_table::PtLeaf::hot_bits`]).

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

use serde::{Deserialize, Serialize};

use crate::addr::PhysAddr;

/// Flag bits of a [`Pte`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize, PartialOrd, Ord,
)]
pub struct PteFlags(u16);

impl PteFlags {
    /// No flags set.
    pub const NONE: PteFlags = PteFlags(0);
    /// The translation is valid.
    pub const PRESENT: PteFlags = PteFlags(1 << 0);
    /// Stores are allowed.
    pub const WRITABLE: PteFlags = PteFlags(1 << 1);
    /// Hardware-set on any access (the A bit, §4.3).
    pub const ACCESSED: PteFlags = PteFlags(1 << 2);
    /// Hardware-set on any store (the D bit, §4.2.1).
    pub const DIRTY: PteFlags = PteFlags(1 << 3);
    /// Copy-on-write: write-protected, duplicated on first store.
    pub const COW: PteFlags = PteFlags(1 << 4);
    /// Backs a private file mapping (library, runtime module).
    pub const FILE: PteFlags = PteFlags(1 << 5);
    /// Software: entry lives in an attached (checkpoint) leaf; OS updates
    /// must leaf-CoW first.
    pub const CKPT_PIN: PteFlags = PteFlags(1 << 6);
    /// Software: hybrid tiering should migrate this page to local memory on
    /// first access.
    pub const FETCH_ON_ACCESS: PteFlags = PteFlags(1 << 7);

    /// `true` if every bit of `other` is set in `self`.
    #[inline]
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of the two flag sets.
    #[inline]
    pub const fn union(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
    }

    /// `self` without the bits of `other`.
    #[inline]
    pub const fn without(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 & !other.0)
    }

    /// Raw bits (for image serialization in the CRIU baseline).
    #[inline]
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Reconstructs flags from raw bits.
    #[inline]
    pub const fn from_bits(bits: u16) -> PteFlags {
        PteFlags(bits)
    }
}

impl BitOr for PteFlags {
    type Output = PteFlags;
    #[inline]
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        self.union(rhs)
    }
}

impl BitOrAssign for PteFlags {
    #[inline]
    fn bitor_assign(&mut self, rhs: PteFlags) {
        *self = *self | rhs;
    }
}

impl fmt::Display for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: [(PteFlags, char); 8] = [
            (PteFlags::PRESENT, 'P'),
            (PteFlags::WRITABLE, 'W'),
            (PteFlags::ACCESSED, 'A'),
            (PteFlags::DIRTY, 'D'),
            (PteFlags::COW, 'C'),
            (PteFlags::FILE, 'F'),
            (PteFlags::CKPT_PIN, 'K'),
            (PteFlags::FETCH_ON_ACCESS, 'M'),
        ];
        for (flag, c) in names {
            if self.contains(flag) {
                write!(f, "{c}")?;
            } else {
                write!(f, "-")?;
            }
        }
        Ok(())
    }
}

/// One page-table entry: an optional physical target plus flags.
///
/// # Example
///
/// ```
/// use node_os::pte::{Pte, PteFlags};
/// use node_os::{PhysAddr, Pfn};
///
/// let pte = Pte::mapped(PhysAddr::Local(Pfn(7)), PteFlags::PRESENT | PteFlags::WRITABLE);
/// assert!(pte.is_present());
/// assert!(pte.is_writable());
/// assert_eq!(pte.target(), Some(PhysAddr::Local(Pfn(7))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Pte {
    target: Option<PhysAddr>,
    flags: PteFlags,
}

impl Pte {
    /// The empty (non-present, untargeted) entry.
    pub const EMPTY: Pte = Pte {
        target: None,
        flags: PteFlags::NONE,
    };

    /// An entry mapping `target` with `flags`.
    pub const fn mapped(target: PhysAddr, flags: PteFlags) -> Pte {
        Pte {
            target: Some(target),
            flags,
        }
    }

    /// An entry that carries a backing target but is *not present* —
    /// hybrid tiering's fetch-on-access encoding.
    pub const fn armed(target: PhysAddr, flags: PteFlags) -> Pte {
        Pte {
            target: Some(target),
            flags,
        }
    }

    /// The physical target, if any.
    #[inline]
    pub const fn target(self) -> Option<PhysAddr> {
        self.target
    }

    /// The flag set.
    #[inline]
    pub const fn flags(self) -> PteFlags {
        self.flags
    }

    /// `true` if the translation is valid.
    #[inline]
    pub const fn is_present(self) -> bool {
        self.flags.contains(PteFlags::PRESENT)
    }

    /// `true` if stores are allowed.
    #[inline]
    pub const fn is_writable(self) -> bool {
        self.flags.contains(PteFlags::WRITABLE)
    }

    /// `true` if the entry is a copy-on-write mapping.
    #[inline]
    pub const fn is_cow(self) -> bool {
        self.flags.contains(PteFlags::COW)
    }

    /// `true` if the A bit is set.
    #[inline]
    pub const fn is_accessed(self) -> bool {
        self.flags.contains(PteFlags::ACCESSED)
    }

    /// `true` if the D bit is set.
    #[inline]
    pub const fn is_dirty(self) -> bool {
        self.flags.contains(PteFlags::DIRTY)
    }

    /// `true` if the entry is completely empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.target.is_none() && self.flags.0 == 0
    }

    /// Returns a copy with `extra` flags set.
    #[inline]
    pub const fn with_flags(self, extra: PteFlags) -> Pte {
        Pte {
            target: self.target,
            flags: self.flags.union(extra),
        }
    }

    /// Returns a copy with `removed` flags cleared.
    #[inline]
    pub const fn without_flags(self, removed: PteFlags) -> Pte {
        Pte {
            target: self.target,
            flags: self.flags.without(removed),
        }
    }

    /// Returns a copy retargeted at `target`.
    #[inline]
    pub const fn retarget(self, target: PhysAddr) -> Pte {
        Pte {
            target: Some(target),
            flags: self.flags,
        }
    }
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.target {
            Some(t) => write!(f, "{t}[{}]", self.flags),
            None => write!(f, "none[{}]", self.flags),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Pfn;

    #[test]
    fn flag_algebra() {
        let f = PteFlags::PRESENT | PteFlags::COW;
        assert!(f.contains(PteFlags::PRESENT));
        assert!(f.contains(PteFlags::COW));
        assert!(!f.contains(PteFlags::WRITABLE));
        assert!(!f.contains(PteFlags::PRESENT | PteFlags::WRITABLE));
        assert_eq!(f.without(PteFlags::COW), PteFlags::PRESENT);
        let mut g = PteFlags::NONE;
        g |= PteFlags::DIRTY;
        assert!(g.contains(PteFlags::DIRTY));
    }

    #[test]
    fn flag_bits_roundtrip() {
        let f = PteFlags::ACCESSED | PteFlags::FETCH_ON_ACCESS;
        assert_eq!(PteFlags::from_bits(f.bits()), f);
    }

    #[test]
    fn empty_pte_has_no_properties() {
        let p = Pte::EMPTY;
        assert!(p.is_empty());
        assert!(!p.is_present());
        assert!(!p.is_writable());
        assert_eq!(p.target(), None);
    }

    #[test]
    fn with_without_flags() {
        let p = Pte::mapped(PhysAddr::Local(Pfn(1)), PteFlags::PRESENT);
        let q = p.with_flags(PteFlags::ACCESSED | PteFlags::DIRTY);
        assert!(q.is_accessed() && q.is_dirty());
        let r = q.without_flags(PteFlags::DIRTY);
        assert!(r.is_accessed() && !r.is_dirty());
        // Target untouched throughout.
        assert_eq!(r.target(), Some(PhysAddr::Local(Pfn(1))));
    }

    #[test]
    fn retarget_preserves_flags() {
        let p = Pte::mapped(PhysAddr::Local(Pfn(1)), PteFlags::PRESENT | PteFlags::COW);
        let q = p.retarget(PhysAddr::Cxl(cxl_mem::CxlPageId(9)));
        assert_eq!(q.flags(), p.flags());
        assert!(q.target().unwrap().is_cxl());
    }

    #[test]
    fn armed_entry_is_not_present_but_targeted() {
        let p = Pte::armed(
            PhysAddr::Cxl(cxl_mem::CxlPageId(3)),
            PteFlags::FETCH_ON_ACCESS,
        );
        assert!(!p.is_present());
        assert!(!p.is_empty());
        assert!(p.flags().contains(PteFlags::FETCH_ON_ACCESS));
    }

    #[test]
    fn display_shows_flag_letters() {
        let p = Pte::mapped(
            PhysAddr::Local(Pfn(2)),
            PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::DIRTY,
        );
        let s = p.to_string();
        assert!(s.contains("PW-D"), "{s}");
    }
}
