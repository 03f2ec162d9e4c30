//! Address and identifier newtypes.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use cxl_mem::CxlPageId;

use crate::PAGE_SIZE;

/// A node-local physical frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pfn(pub u64);

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn{:#x}", self.0)
    }
}

/// The physical location a PTE maps: a node-local frame or a CXL device
/// page.
///
/// The distinction is the core of the paper's tiering story — loads to
/// `Cxl` targets pay the fabric round trip, loads to `Local` targets pay
/// DRAM latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(
    clippy::exhaustive_enums,
    reason = "a frame is local or on the device: the two tiers the paper models"
)]
pub enum PhysAddr {
    /// A frame in the node's local DRAM.
    Local(Pfn),
    /// A page on the shared CXL device.
    Cxl(CxlPageId),
}

impl PhysAddr {
    /// `true` if the target is on the CXL device.
    #[inline]
    pub const fn is_cxl(self) -> bool {
        matches!(self, PhysAddr::Cxl(_))
    }

    /// `true` if the target is in local DRAM.
    #[inline]
    pub const fn is_local(self) -> bool {
        matches!(self, PhysAddr::Local(_))
    }

    /// A stable cache-tag key, unique across both tiers of one node.
    ///
    /// Local frames are private to a node, CXL pages are global; the high
    /// bit separates the namespaces.
    #[inline]
    pub const fn cache_key(self) -> u64 {
        match self {
            PhysAddr::Local(Pfn(p)) => p,
            PhysAddr::Cxl(CxlPageId(p)) => p | (1 << 63),
        }
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysAddr::Local(p) => write!(f, "local:{p}"),
            PhysAddr::Cxl(p) => write!(f, "{p}"),
        }
    }
}

/// A virtual byte address within a process address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The virtual page containing this address.
    #[inline]
    pub const fn page(self) -> VirtPageNum {
        VirtPageNum(self.0 / PAGE_SIZE)
    }

    /// Offset within the page.
    #[inline]
    pub const fn in_page(self) -> u64 {
        self.0 % PAGE_SIZE
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va{:#x}", self.0)
    }
}

/// A virtual page number (address >> 12).
///
/// The simulation uses a 48-bit virtual address space (36-bit VPNs), as on
/// x86-64 with 4-level paging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VirtPageNum(pub u64);

impl VirtPageNum {
    /// Number of valid VPN bits (48-bit VAs, 4 KiB pages).
    pub const BITS: u32 = 36;

    /// The first byte address of the page.
    #[inline]
    pub const fn addr(self) -> VirtAddr {
        VirtAddr(self.0 * PAGE_SIZE)
    }

    /// The next page.
    #[inline]
    pub const fn next(self) -> VirtPageNum {
        VirtPageNum(self.0 + 1)
    }

    /// The index of the page-table leaf covering this page
    /// (all VPN bits above the low 9).
    #[inline]
    pub const fn leaf_index(self) -> u64 {
        self.0 >> 9
    }

    /// Offset of this page within its leaf.
    #[inline]
    pub const fn leaf_slot(self) -> usize {
        (self.0 & 0x1ff) as usize
    }
}

impl fmt::Display for VirtPageNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn{:#x}", self.0)
    }
}

/// A half-open range of virtual pages.
pub type VpnRange = Range<u64>;

/// A process identifier, unique within one node.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_addr_page_split() {
        let a = VirtAddr(5 * PAGE_SIZE + 7);
        assert_eq!(a.page(), VirtPageNum(5));
        assert_eq!(a.in_page(), 7);
        assert_eq!(VirtPageNum(5).addr(), VirtAddr(5 * PAGE_SIZE));
    }

    #[test]
    fn radix_indices_decompose_vpn() {
        // vpn = l4|l3|l2|l1 9-bit groups.
        let vpn = VirtPageNum((3 << 27) | (5 << 18) | (7 << 9) | 11);
        assert_eq!(vpn.leaf_slot(), 11);
        assert_eq!(vpn.leaf_index(), (3 << 18) | (5 << 9) | 7);
    }

    #[test]
    fn phys_addr_cache_keys_do_not_collide_across_tiers() {
        let local = PhysAddr::Local(Pfn(42));
        let cxl = PhysAddr::Cxl(CxlPageId(42));
        assert_ne!(local.cache_key(), cxl.cache_key());
        assert!(local.is_local() && !local.is_cxl());
        assert!(cxl.is_cxl() && !cxl.is_local());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Pfn(255).to_string(), "pfn0xff");
        assert_eq!(Pid(9).to_string(), "pid9");
        assert_eq!(VirtAddr(16).to_string(), "va0x10");
        assert_eq!(PhysAddr::Local(Pfn(1)).to_string(), "local:pfn0x1");
    }
}
