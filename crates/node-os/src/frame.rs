//! The node-local physical frame allocator.
//!
//! Frames are refcounted so local-fork copy-on-write can share a frame
//! between parent and child until one of them writes. The allocator has a
//! hard capacity: the memory-constrained CXLporter experiments (Fig. 10c)
//! shrink it to 50 % / 25 % and rely on [`OsError::OutOfMemory`] to force
//! container recycling.

use cxl_mem::PageData;

use crate::addr::Pfn;
use crate::error::OsError;

/// A refcounted pool of local 4 KiB frames with a hard capacity.
///
/// # Example
///
/// ```
/// use cxl_mem::PageData;
/// use node_os::frame::FrameAllocator;
///
/// # fn main() -> Result<(), node_os::OsError> {
/// let mut frames = FrameAllocator::new(128);
/// let pfn = frames.alloc(PageData::pattern(1))?;
/// frames.inc_ref(pfn); // share it (e.g. fork CoW)
/// assert_eq!(frames.refcount(pfn), 2);
/// frames.dec_ref(pfn); // child unmaps
/// frames.dec_ref(pfn); // parent unmaps -> freed
/// assert_eq!(frames.used(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FrameAllocator {
    capacity: u64,
    slots: Vec<Option<Frame>>,
    free: Vec<u64>,
    used: u64,
    /// High-water mark of `used`, for experiment reporting.
    peak_used: u64,
}

#[derive(Debug)]
struct Frame {
    data: PageData,
    refcount: u32,
}

impl FrameAllocator {
    /// Creates an allocator with `capacity` frames of local memory.
    pub fn new(capacity: u64) -> Self {
        FrameAllocator {
            capacity,
            slots: Vec::new(),
            free: Vec::new(),
            used: 0,
            peak_used: 0,
        }
    }

    /// Creates an allocator sized in MiB.
    pub fn with_capacity_mib(mib: u64) -> Self {
        FrameAllocator::new(mib * 1024 * 1024 / crate::PAGE_SIZE)
    }

    /// Total capacity in frames.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Frames currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Highest simultaneous allocation seen.
    pub fn peak_used(&self) -> u64 {
        self.peak_used
    }

    /// Frames currently free.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Fraction of capacity in use, `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 1.0;
        }
        self.used as f64 / self.capacity as f64
    }

    /// Allocates one frame holding `data`, with refcount 1.
    ///
    /// # Errors
    ///
    /// [`OsError::OutOfMemory`] if the node is at capacity.
    pub fn alloc(&mut self, data: PageData) -> Result<Pfn, OsError> {
        if self.used >= self.capacity {
            return Err(OsError::OutOfMemory {
                requested: 1,
                available: 0,
            });
        }
        let frame = Frame { data, refcount: 1 };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(frame);
                idx
            }
            None => {
                self.slots.push(Some(frame));
                (self.slots.len() - 1) as u64
            }
        };
        self.used += 1;
        self.peak_used = self.peak_used.max(self.used);
        Ok(Pfn(idx))
    }

    /// Allocates a zero-filled frame.
    ///
    /// # Errors
    ///
    /// [`OsError::OutOfMemory`] if the node is at capacity.
    pub fn alloc_zeroed(&mut self) -> Result<Pfn, OsError> {
        self.alloc(PageData::zeroed())
    }

    fn frame(&self, pfn: Pfn) -> Option<&Frame> {
        self.slots.get(pfn.0 as usize).and_then(Option::as_ref)
    }

    fn frame_mut(&mut self, pfn: Pfn) -> Option<&mut Frame> {
        self.slots.get_mut(pfn.0 as usize).and_then(Option::as_mut)
    }

    /// Current refcount of a frame (0 if not live).
    pub fn refcount(&self, pfn: Pfn) -> u32 {
        self.frame(pfn).map_or(0, |f| f.refcount)
    }

    /// Iterates every live frame with its refcount, for cross-layer
    /// auditing (`cxl-check` balances these against PTE and page-cache
    /// references).
    pub fn live_pfns(&self) -> impl Iterator<Item = (Pfn, u32)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|f| (Pfn(i as u64), f.refcount)))
    }

    /// Increments the refcount (CoW sharing on fork).
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live — an OS invariant violation.
    pub fn inc_ref(&mut self, pfn: Pfn) {
        self.frame_mut(pfn)
            .unwrap_or_else(|| panic!("inc_ref on dead frame {pfn}"))
            .refcount += 1;
    }

    /// Decrements the refcount, freeing the frame when it reaches zero.
    /// Returns `true` if the frame was freed.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live.
    pub fn dec_ref(&mut self, pfn: Pfn) -> bool {
        let frame = self
            .frame_mut(pfn)
            .unwrap_or_else(|| panic!("dec_ref on dead frame {pfn}"));
        frame.refcount -= 1;
        if frame.refcount == 0 {
            self.slots[pfn.0 as usize] = None;
            self.free.push(pfn.0);
            self.used -= 1;
            true
        } else {
            false
        }
    }

    /// Reads the contents of a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live.
    pub fn data(&self, pfn: Pfn) -> &PageData {
        &self
            .frame(pfn)
            .unwrap_or_else(|| panic!("read of dead frame {pfn}"))
            .data
    }

    /// Mutates the contents of a frame.
    ///
    /// Callers must ensure exclusivity (refcount 1) before writing through
    /// a CoW mapping; the page-fault handler enforces this.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live.
    pub fn data_mut(&mut self, pfn: Pfn) -> &mut PageData {
        &mut self
            .frame_mut(pfn)
            .unwrap_or_else(|| panic!("write of dead frame {pfn}"))
            .data
    }

    /// Duplicates a frame's contents into a new frame with refcount 1 (the
    /// data-copy half of a CoW fault).
    ///
    /// # Errors
    ///
    /// [`OsError::OutOfMemory`] if no frame is free.
    ///
    /// # Panics
    ///
    /// Panics if the source frame is not live.
    pub fn duplicate(&mut self, pfn: Pfn) -> Result<Pfn, OsError> {
        let data = self.data(pfn).clone();
        self.alloc(data)
    }

    /// Resets the peak-usage watermark to the current usage.
    pub fn reset_peak(&mut self) {
        self.peak_used = self.used;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_capacity_then_oom() {
        let mut a = FrameAllocator::new(2);
        a.alloc_zeroed().unwrap();
        a.alloc_zeroed().unwrap();
        let err = a.alloc_zeroed().unwrap_err();
        assert_eq!(
            err,
            OsError::OutOfMemory {
                requested: 1,
                available: 0
            }
        );
        assert_eq!(a.used(), 2);
        assert_eq!(a.available(), 0);
    }

    #[test]
    fn fingerprint_identity_frame_size_is_unchanged() {
        // Content fingerprints are memoised beside the pages (cxl-mem),
        // never cached in the frame: local memory is `slots` of these.
        assert_eq!(std::mem::size_of::<Frame>(), 32);
        assert_eq!(std::mem::size_of::<Option<Frame>>(), 32);
    }

    #[test]
    fn refcounting_frees_at_zero() {
        let mut a = FrameAllocator::new(4);
        let p = a.alloc(PageData::pattern(9)).unwrap();
        a.inc_ref(p);
        assert!(!a.dec_ref(p));
        assert_eq!(a.used(), 1);
        assert!(a.dec_ref(p));
        assert_eq!(a.used(), 0);
        assert_eq!(a.refcount(p), 0);
    }

    #[test]
    fn freed_frames_are_recycled() {
        let mut a = FrameAllocator::new(2);
        let p = a.alloc_zeroed().unwrap();
        a.dec_ref(p);
        let q = a.alloc(PageData::pattern(1)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn duplicate_copies_content_independently() {
        let mut a = FrameAllocator::new(4);
        let p = a.alloc(PageData::pattern(5)).unwrap();
        let q = a.duplicate(p).unwrap();
        assert_ne!(p, q);
        assert_eq!(a.data(p), a.data(q));
        a.data_mut(q).write(0, &[0xEE]);
        assert_ne!(a.data(p), a.data(q));
        assert_eq!(a.refcount(q), 1);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut a = FrameAllocator::new(8);
        let p1 = a.alloc_zeroed().unwrap();
        let p2 = a.alloc_zeroed().unwrap();
        a.dec_ref(p1);
        a.dec_ref(p2);
        assert_eq!(a.used(), 0);
        assert_eq!(a.peak_used(), 2);
        a.reset_peak();
        assert_eq!(a.peak_used(), 0);
    }

    #[test]
    #[should_panic(expected = "dead frame")]
    fn dec_ref_on_dead_frame_panics() {
        let mut a = FrameAllocator::new(2);
        let p = a.alloc_zeroed().unwrap();
        a.dec_ref(p);
        a.dec_ref(p);
    }

    #[test]
    fn utilization_reflects_usage() {
        let mut a = FrameAllocator::new(4);
        assert_eq!(a.utilization(), 0.0);
        a.alloc_zeroed().unwrap();
        assert!((a.utilization() - 0.25).abs() < 1e-12);
        assert_eq!(FrameAllocator::new(0).utilization(), 1.0);
    }

    #[test]
    fn with_capacity_mib_converts() {
        let a = FrameAllocator::with_capacity_mib(1);
        assert_eq!(a.capacity(), 256);
    }
}
