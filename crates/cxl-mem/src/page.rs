//! Compact page contents.
//!
//! Simulated address spaces reach hundreds of megabytes per function
//! instance and the CXLporter experiments keep hundreds of instances alive,
//! so storing every 4 KiB page verbatim would cost the host real gigabytes.
//! [`PageData`] instead stores a page as one of:
//!
//! * `Zero` — an untouched, zero-filled page;
//! * `Pattern` — a page procedurally filled from a 64-bit seed (what the
//!   workload generators write);
//! * `Bytes` — a verbatim 4 KiB buffer, used as soon as a caller writes
//!   arbitrary data.
//!
//! All three compare by *content*, so tests can verify copy-on-write
//! isolation and checkpoint immutability by byte equality regardless of
//! representation.

use std::cell::RefCell;
use std::fmt;

use crate::PAGE_SIZE;

/// The contents of one 4 KiB page.
///
/// # Example
///
/// ```
/// use cxl_mem::PageData;
///
/// let mut page = PageData::pattern(42);
/// let before = page.byte_at(100);
/// page.write(100, &[before ^ 0xFF]);
/// assert_ne!(page, PageData::pattern(42));
/// let mut copy = page.clone();
/// copy.write(0, &[1, 2, 3]);
/// assert_ne!(copy, page); // copies are independent
/// ```
#[derive(Clone, Default)]
pub enum PageData {
    /// A zero-filled page.
    #[default]
    Zero,
    /// A page deterministically filled from a seed.
    Pattern {
        /// The fill seed; byte `i` is `mix(seed, i)`.
        seed: u64,
    },
    /// A verbatim page.
    Bytes(Box<[u8]>),
}

impl PageData {
    /// A fresh zero page.
    pub const fn zeroed() -> Self {
        PageData::Zero
    }

    /// A page filled from `seed`.
    pub const fn pattern(seed: u64) -> Self {
        PageData::Pattern { seed }
    }

    /// A page initialized from up to [`PAGE_SIZE`] literal bytes
    /// (zero-padded).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than a page.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() as u64 <= PAGE_SIZE,
            "page literal of {} bytes exceeds page size",
            bytes.len()
        );
        if bytes.len() as u64 == PAGE_SIZE {
            // A full page needs no zero padding: one allocation, one copy.
            return PageData::Bytes(bytes.into());
        }
        let mut buf = vec![0u8; PAGE_SIZE as usize].into_boxed_slice();
        buf[..bytes.len()].copy_from_slice(bytes);
        PageData::Bytes(buf)
    }

    #[inline]
    fn pattern_byte(seed: u64, index: u64) -> u8 {
        // SplitMix64-style mix of (seed, index); cheap and well distributed.
        let mut z = seed ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u8
    }

    /// The byte at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= PAGE_SIZE`.
    #[inline]
    pub fn byte_at(&self, index: u64) -> u8 {
        assert!(index < PAGE_SIZE, "byte index {index} out of page");
        match self {
            PageData::Zero => 0,
            PageData::Pattern { seed } => Self::pattern_byte(*seed, index),
            PageData::Bytes(b) => b[index as usize],
        }
    }

    /// Copies `buf.len()` bytes starting at `offset` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range `offset..offset + buf.len()` leaves the page.
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        let end = offset + buf.len() as u64;
        assert!(end <= PAGE_SIZE, "read range {offset}..{end} out of page");
        match self {
            PageData::Zero => buf.fill(0),
            PageData::Pattern { seed } => {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = Self::pattern_byte(*seed, offset + i as u64);
                }
            }
            PageData::Bytes(bytes) => {
                buf.copy_from_slice(&bytes[offset as usize..end as usize]);
            }
        }
    }

    /// Writes `data` starting at `offset`, upgrading the representation to
    /// `Bytes` if needed.
    ///
    /// # Panics
    ///
    /// Panics if the range `offset..offset + data.len()` leaves the page.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        let end = offset + data.len() as u64;
        assert!(end <= PAGE_SIZE, "write range {offset}..{end} out of page");
        if data.is_empty() {
            return;
        }
        // Whole-page writes and pattern-preserving fast paths.
        let bytes = match self {
            PageData::Bytes(b) => b,
            other => {
                let mut buf = vec![0u8; PAGE_SIZE as usize].into_boxed_slice();
                other.read(0, &mut buf);
                *other = PageData::Bytes(buf);
                match other {
                    PageData::Bytes(b) => b,
                    _ => unreachable!("just upgraded to Bytes"),
                }
            }
        };
        bytes[offset as usize..end as usize].copy_from_slice(data);
    }

    /// Replaces the entire page content with a pattern fill, keeping the
    /// compact representation. This is what workload generators use to
    /// "dirty" a page cheaply.
    pub fn fill_pattern(&mut self, seed: u64) {
        *self = PageData::Pattern { seed };
    }

    /// Approximate host-memory footprint of this representation, in bytes.
    /// Used only for simulator self-diagnostics, never for experiment
    /// accounting (experiments always account full pages).
    pub fn host_footprint(&self) -> usize {
        match self {
            PageData::Zero | PageData::Pattern { .. } => std::mem::size_of::<PageData>(),
            PageData::Bytes(_) => std::mem::size_of::<PageData>() + PAGE_SIZE as usize,
        }
    }

    /// A 64-bit content fingerprint: FNV-1a over all 4096 logical bytes,
    /// independent of the storage representation (two content-equal pages
    /// always fingerprint identically). The compact representations do not
    /// pay for the bytes they do not store: `Zero` is a constant and
    /// `Pattern` is looked up by seed in a bounded per-thread memo that
    /// falls back to the byte loop on a miss.
    pub fn fingerprint(&self) -> u64 {
        match self {
            PageData::Zero => ZERO_FINGERPRINT,
            PageData::Pattern { seed } => pattern_fingerprint(*seed),
            PageData::Bytes(b) => fnv1a(b.iter().copied()),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a of the zero page: xor with a zero byte is the identity, so the
/// hash is the offset basis times the prime once per byte.
const ZERO_FINGERPRINT: u64 = {
    let mut h = FNV_OFFSET;
    let mut i = 0;
    while i < PAGE_SIZE {
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
};

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(FNV_OFFSET, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

/// Entries in the per-thread seed → fingerprint memo: 16 Ki × 16 B =
/// 256 KiB, allocated on the first `Pattern` fingerprint.
const MEMO_ENTRIES: usize = 1 << 14;
/// Entries per bucket: one 64-byte cache line.
const MEMO_WAYS: usize = 4;

thread_local! {
    /// `(seed, fingerprint)` entries in buckets of [`MEMO_WAYS`]. A
    /// fingerprint of 0 marks an empty entry; a seed whose true
    /// fingerprint is 0 is simply never cached.
    static PATTERN_MEMO: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The two buckets (first-entry indices) that may hold `seed`. Two
/// choices keep a working set of ~70 % of the entries almost free of
/// conflict misses, where one direct-mapped choice loses a third of it.
fn memo_buckets(seed: u64) -> [usize; 2] {
    const BITS: u32 = (MEMO_ENTRIES / MEMO_WAYS).trailing_zeros();
    // The top two BITS-wide fields of a multiplicative hash.
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    [h >> (64 - BITS), (h << BITS) >> (64 - BITS)].map(|bucket| bucket as usize * MEMO_WAYS)
}

/// The fingerprint of `PageData::pattern(seed)`. A pattern page's bytes
/// are a pure function of its seed, so the memo can only ever return the
/// value the byte loop would; an evicted seed recomputes on its next
/// visit. A seed that finds both its buckets full enters its first one
/// at the head and pushes that bucket's oldest entry out, so seeds that
/// are no longer asked for age out.
fn pattern_fingerprint(seed: u64) -> u64 {
    PATTERN_MEMO.with_borrow_mut(|memo| {
        if memo.is_empty() {
            *memo = vec![(0, 0); MEMO_ENTRIES];
        }
        let buckets = memo_buckets(seed);
        let entries = || buckets.into_iter().flat_map(|b| b..b + MEMO_WAYS);
        if let Some(hit) = entries().find(|&i| memo[i].0 == seed && memo[i].1 != 0) {
            return memo[hit].1;
        }
        let fp = fnv1a((0..PAGE_SIZE).map(|i| PageData::pattern_byte(seed, i)));
        let free = entries().find(|&i| memo[i].1 == 0).unwrap_or_else(|| {
            memo[buckets[0]..][..MEMO_WAYS].rotate_right(1);
            buckets[0]
        });
        memo[free] = (seed, fp);
        fp
    })
}

impl PartialEq for PageData {
    /// Content equality: two pages are equal iff all 4096 bytes are equal,
    /// regardless of representation.
    fn eq(&self, other: &Self) -> bool {
        use PageData::*;
        match (self, other) {
            (Zero, Zero) => true,
            (Pattern { seed: a }, Pattern { seed: b }) if a == b => true,
            _ => (0..PAGE_SIZE).all(|i| self.byte_at(i) == other.byte_at(i)),
        }
    }
}

impl Eq for PageData {}

impl fmt::Debug for PageData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageData::Zero => write!(f, "PageData::Zero"),
            PageData::Pattern { seed } => write!(f, "PageData::Pattern({seed:#x})"),
            PageData::Bytes(b) => write!(
                f,
                "PageData::Bytes[{:02x}{:02x}{:02x}{:02x}..]",
                b[0], b[1], b[2], b[3]
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_page_reads_zero() {
        let p = PageData::zeroed();
        let mut buf = [0xFFu8; 8];
        p.read(100, &mut buf);
        assert_eq!(buf, [0u8; 8]);
        assert_eq!(p.byte_at(PAGE_SIZE - 1), 0);
    }

    #[test]
    fn pattern_is_deterministic_and_nontrivial() {
        let p = PageData::pattern(7);
        let q = PageData::pattern(7);
        assert_eq!(p, q);
        // Different seeds should (overwhelmingly) produce different bytes
        // somewhere early in the page.
        let r = PageData::pattern(8);
        assert_ne!(p, r);
        // Not all bytes identical.
        let first = p.byte_at(0);
        assert!((1..64).any(|i| p.byte_at(i) != first));
    }

    #[test]
    fn write_upgrades_and_preserves_other_bytes() {
        let mut p = PageData::pattern(3);
        let keep = p.byte_at(0);
        let sentinel = p.byte_at(512);
        p.write(256, &[9, 9, 9]);
        assert_eq!(p.byte_at(0), keep);
        assert_eq!(p.byte_at(512), sentinel);
        assert_eq!(p.byte_at(257), 9);
        assert!(matches!(p, PageData::Bytes(_)));
    }

    #[test]
    fn empty_write_does_not_upgrade() {
        let mut p = PageData::pattern(3);
        p.write(0, &[]);
        assert!(matches!(p, PageData::Pattern { .. }));
    }

    #[test]
    fn content_equality_crosses_representations() {
        let zero_bytes = PageData::from_bytes(&[]);
        assert_eq!(zero_bytes, PageData::Zero);
        let mut pat_as_bytes = PageData::pattern(11);
        pat_as_bytes.write(0, &[pat_as_bytes.byte_at(0)]); // force upgrade, same content
        assert_eq!(pat_as_bytes, PageData::pattern(11));
    }

    #[test]
    fn clone_is_independent() {
        let mut a = PageData::from_bytes(&[1, 2, 3]);
        let b = a.clone();
        a.write(0, &[9]);
        assert_eq!(b.byte_at(0), 1);
        assert_eq!(a.byte_at(0), 9);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut p = PageData::zeroed();
        let data: Vec<u8> = (0..64).map(|i| i as u8 ^ 0x5A).collect();
        p.write(1000, &data);
        let mut out = vec![0u8; 64];
        p.read(1000, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn write_past_end_panics() {
        let mut p = PageData::zeroed();
        p.write(PAGE_SIZE - 2, &[0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn read_past_end_panics() {
        let p = PageData::zeroed();
        let mut buf = [0u8; 4];
        p.read(PAGE_SIZE - 1, &mut buf);
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        assert_ne!(
            PageData::pattern(1).fingerprint(),
            PageData::pattern(2).fingerprint()
        );
        assert_ne!(
            PageData::Zero.fingerprint(),
            PageData::from_bytes(&[1]).fingerprint()
        );
        assert_eq!(
            PageData::from_bytes(&[1, 2]).fingerprint(),
            PageData::from_bytes(&[1, 2]).fingerprint()
        );
    }

    /// The byte loop `fingerprint` ran for every page before the constant
    /// and the memo: the oracle the fast paths must equal.
    fn reference_fingerprint(page: &PageData) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..PAGE_SIZE {
            h ^= u64::from(page.byte_at(i));
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// The verbatim copy of `page`'s 4096 bytes.
    fn as_bytes(page: &PageData) -> PageData {
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        page.read(0, &mut buf);
        PageData::from_bytes(&buf)
    }

    #[test]
    fn fingerprint_identity_zero_page_is_the_reference_constant() {
        assert_eq!(
            PageData::Zero.fingerprint(),
            reference_fingerprint(&PageData::Zero)
        );
        assert_eq!(
            as_bytes(&PageData::Zero).fingerprint(),
            PageData::Zero.fingerprint()
        );
    }

    #[test]
    fn fingerprint_identity_survives_memo_eviction() {
        // With every entry taken (by seeds this test never asks for),
        // one more seed than a bucket holds, all sharing a first bucket,
        // push each other out in turn: every visit after the first round
        // finds its seed evicted and must still return its own value.
        PATTERN_MEMO.with_borrow_mut(|memo| {
            *memo = (0..MEMO_ENTRIES as u64)
                .map(|i| (u64::MAX - i, 1))
                .collect();
        });
        let bucket = memo_buckets(0x5eed)[0];
        let seeds: Vec<u64> = (0x5eed_u64..)
            .filter(|&s| memo_buckets(s)[0] == bucket)
            .take(MEMO_WAYS + 1)
            .collect();
        for round in 0..3 {
            for &seed in &seeds {
                let cached = PATTERN_MEMO.with_borrow(|memo| memo.iter().any(|e| e.0 == seed));
                assert!(!cached, "round {round}: {seed:#x} is still cached");
                let expected = reference_fingerprint(&PageData::pattern(seed));
                assert_eq!(PageData::pattern(seed).fingerprint(), expected);
                assert_eq!(PageData::pattern(seed).fingerprint(), expected);
                assert_eq!(
                    PATTERN_MEMO.with_borrow(|memo| memo[bucket]),
                    (seed, expected)
                );
            }
        }
    }

    #[test]
    fn fingerprint_identity_memo_adds_nothing_to_page_size() {
        // The memo lives beside the pages, not in them: growing `PageData`
        // would grow every frame and every device slot.
        assert_eq!(std::mem::size_of::<PageData>(), 24);
    }

    proptest::proptest! {
        /// Memoised (first visit and repeat visit) and verbatim
        /// representations of a pattern page agree with the byte loop.
        #[test]
        fn fingerprint_identity_pattern_matches_reference(seed in proptest::prelude::any::<u64>()) {
            let page = PageData::pattern(seed);
            let expected = reference_fingerprint(&page);
            proptest::prop_assert_eq!(page.fingerprint(), expected);
            proptest::prop_assert_eq!(page.fingerprint(), expected);
            proptest::prop_assert_eq!(as_bytes(&page).fingerprint(), expected);
        }

        #[test]
        fn fingerprint_identity_bytes_match_reference(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4097),
        ) {
            let page = PageData::from_bytes(&bytes);
            proptest::prop_assert_eq!(page.fingerprint(), reference_fingerprint(&page));
        }
    }

    #[test]
    fn host_footprint_reflects_representation() {
        assert!(PageData::Zero.host_footprint() < 64);
        assert!(PageData::from_bytes(&[1]).host_footprint() >= PAGE_SIZE as usize);
    }
}
