//! Compact page contents.
//!
//! Simulated address spaces reach hundreds of megabytes per function
//! instance and the CXLporter experiments keep hundreds of instances alive,
//! so storing every 4 KiB page verbatim would cost the host real gigabytes.
//! [`PageData`] instead stores a page as one of:
//!
//! * `Zero` — an untouched, zero-filled page;
//! * `Pattern` — a page procedurally filled from a 64-bit seed (what the
//!   workload generators write), one fixed word table shifted by the seed;
//! * `Bytes` — a verbatim 4 KiB buffer, used as soon as a caller writes
//!   arbitrary data.
//!
//! All three compare by *content*, so tests can verify copy-on-write
//! isolation and checkpoint immutability by byte equality regardless of
//! representation.

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
#[allow(
    clippy::exhaustive_enums,
    reason = "a page representation, not an error: zero, pattern and bytes are the whole set"
)]
pub enum PageData {
    /// A zero-filled page.
    #[default]
    Zero,
    /// A page deterministically filled from a seed: its 512 little-endian
    /// words are `seed + c[j]` for a fixed table `c`, so its fingerprint is
    /// a closed form in the seed.
    Pattern {
        /// The fill seed; word 0 is `seed + c[0]`, so distinct seeds are
        /// distinct contents.
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
            PageData::Pattern { seed } => {
                (seed.wrapping_add(OFFSETS[index as usize / 8]) >> (8 * (index % 8))) as u8
            }
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
            PageData::Pattern { .. } => (offset..).zip(buf).for_each(|(i, b)| *b = self.byte_at(i)),
            PageData::Bytes(bytes) => buf.copy_from_slice(&bytes[offset as usize..end as usize]),
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
        if !matches!(self, PageData::Bytes(_)) {
            let mut buf = vec![0u8; PAGE_SIZE as usize].into_boxed_slice();
            self.read(0, &mut buf);
            *self = PageData::Bytes(buf);
        }
        if let PageData::Bytes(bytes) = self {
            bytes[offset as usize..end as usize].copy_from_slice(data);
        }
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

    /// A 64-bit content fingerprint of the logical bytes: two
    /// content-equal pages always fingerprint alike, whatever their
    /// representation. A page whose bytes are a pattern page's
    /// fingerprints as `mix(seed ^ PATTERN_KEY)`, any other page as the
    /// wrapping sum over its 512 little-endian words of
    /// `mix(word_j ^ KEYS[j])`, where `mix` is SplitMix64's bijective
    /// finalizer. Distinct seeds never collide (`mix` is a bijection), nor
    /// do two non-pattern pages that differ in one word; every other pair
    /// collides only by a 64-bit coincidence, since `mix` spreads each
    /// input bit, the top one included, over the whole output. `Zero` and
    /// `Pattern` cost O(1); only `Bytes` reads its words, out of line.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        match self {
            PageData::Zero => ZERO_FINGERPRINT,
            PageData::Pattern { seed } => pattern_fingerprint(*seed),
            PageData::Bytes(b) => bytes_fingerprint(b),
        }
    }
}

/// Words in a page.
const WORDS: usize = PAGE_SIZE as usize / 8;

/// SplitMix64's finalizer: a bijection on `u64` in which every input bit
/// reaches every output bit.
#[inline]
const fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `WORDS` consecutive outputs of the SplitMix64 stream seeded at 0,
/// from position `first`.
const fn splitmix_table(first: usize) -> [u64; WORDS] {
    let (mut t, mut j) = ([0; WORDS], 0);
    while j < WORDS {
        t[j] = mix(((first + j + 1) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        j += 1;
    }
    t
}

/// Word `j` of a pattern page is `seed + OFFSETS[j]`.
const OFFSETS: [u64; WORDS] = splitmix_table(0);

/// The per-word keys of a non-pattern page's fingerprint.
const KEYS: [u64; WORDS] = splitmix_table(WORDS);

/// The key of a pattern page's fingerprint (an arbitrary constant).
const PATTERN_KEY: u64 = 0x2545_F491_4F6C_DD1D;

const _: () = assert!(
    OFFSETS[0] != OFFSETS[1],
    "the zero page must not be a pattern page"
);

/// The fingerprint of `PageData::pattern(seed)`.
#[inline]
const fn pattern_fingerprint(seed: u64) -> u64 {
    mix(seed ^ PATTERN_KEY)
}

/// The fingerprint of the zero page, which is no pattern page.
const ZERO_FINGERPRINT: u64 = bytes_fingerprint(&[0; PAGE_SIZE as usize]);

/// The fingerprint of a verbatim page: the pattern's if its words are one,
/// else 512 independent keyed mixes, summed. Kept out of line so the O(1)
/// arms of [`PageData::fingerprint`] inline on their own.
#[inline(never)]
const fn bytes_fingerprint(bytes: &[u8]) -> u64 {
    let (words, _) = bytes.as_chunks::<8>();
    let seed = u64::from_le_bytes(words[0]).wrapping_sub(OFFSETS[0]);
    let (mut sum, mut pattern, mut j) = (0u64, true, 0);
    while j < WORDS {
        let word = u64::from_le_bytes(words[j]);
        pattern &= word == seed.wrapping_add(OFFSETS[j]);
        sum = sum.wrapping_add(mix(word ^ KEYS[j]));
        j += 1;
    }
    if pattern {
        pattern_fingerprint(seed)
    } else {
        sum
    }
}

impl PartialEq for PageData {
    /// Content equality: two pages are equal iff all 4096 bytes are equal,
    /// regardless of representation.
    fn eq(&self, other: &Self) -> bool {
        use PageData::*;
        match (self, other) {
            (Zero, Zero) => true,
            // Word 0 is `seed + OFFSETS[0]`: patterns are equal iff seeds are.
            (Pattern { seed: a }, Pattern { seed: b }) => a == b,
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

    /// The definition `fingerprint` must equal, from the 512 little-endian
    /// words assembled from `byte_at`: the pattern's key mixed with the
    /// seed if every word is `seed + OFFSETS[j]`, else each word mixed
    /// with its key, summed.
    fn reference_fingerprint(page: &PageData) -> u64 {
        let words: Vec<u64> = (0..WORDS)
            .map(|j| {
                (0..8).rev().fold(0u64, |w, k| {
                    (w << 8) | u64::from(page.byte_at((8 * j + k) as u64))
                })
            })
            .collect();
        let seed = words[0].wrapping_sub(OFFSETS[0]);
        if (0..WORDS).all(|j| words[j] == seed.wrapping_add(OFFSETS[j])) {
            return mix(seed ^ PATTERN_KEY);
        }
        (0..WORDS).fold(0u64, |h, j| h.wrapping_add(mix(words[j] ^ KEYS[j])))
    }

    /// The verbatim copy of `page`'s 4096 bytes.
    fn as_bytes(page: &PageData) -> PageData {
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        page.read(0, &mut buf);
        PageData::from_bytes(&buf)
    }

    /// A non-pattern page with no zero word.
    fn busy_page() -> PageData {
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7 + 1) as u8).collect();
        PageData::from_bytes(&bytes)
    }

    /// `page` with bit `bit` of word `j` flipped.
    fn flip(page: &PageData, j: usize, bit: u32) -> PageData {
        let at = 8 * j as u64 + u64::from(bit / 8);
        let mut out = page.clone();
        out.write(at, &[page.byte_at(at) ^ 1 << (bit % 8)]);
        out
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
    fn fingerprint_identity_adds_nothing_to_page_size() {
        // The closed forms are constants beside the pages, not in them:
        // growing `PageData` would grow every frame and every device slot.
        assert_eq!(std::mem::size_of::<PageData>(), 24);
    }

    #[test]
    fn fingerprint_identity_distinct_seeds_never_collide() {
        // Seeds one bit apart in every position (bit 63 included), small
        // and adjacent seeds, and seeds at the ends of the range.
        let mut seeds: Vec<u64> = (0..64).map(|bit| 1u64 << bit).collect();
        seeds.extend((0..64).map(|bit| 0x5eed ^ (1u64 << bit)));
        seeds.extend([0, 3, 0x5eed, u64::MAX, u64::MAX - 1, 1 << 63 | 3]);
        seeds.extend(0..4096);
        seeds.sort_unstable();
        seeds.dedup();
        let mut fps: Vec<u64> = seeds
            .iter()
            .map(|&s| PageData::pattern(s).fingerprint())
            .collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), seeds.len(), "two seeds share a fingerprint");
        assert_ne!(
            PageData::pattern(0).fingerprint(),
            PageData::pattern(1 << 63).fingerprint()
        );
    }

    #[test]
    fn fingerprint_identity_one_word_changes_never_collide() {
        // `mix` is a bijection, so a non-pattern page that changes one
        // word changes that word's term and nothing else.
        let base = busy_page();
        let fp = base.fingerprint();
        for (j, bit) in [(0, 0), (0, 63), (256, 7), (256, 32), (511, 63)] {
            let page = flip(&base, j, bit);
            assert_ne!(page.fingerprint(), fp, "word {j} bit {bit}");
            assert_eq!(page.fingerprint(), reference_fingerprint(&page));
        }
    }

    #[test]
    fn fingerprint_identity_sign_bit_flips_never_collide() {
        // Any linear word sum modulo 2^64 folds bit 63 of every word into
        // bit 63 of the sum: two -0.0 words in a zero page would sum to the
        // zero page's fingerprint, and pages differing in the upper half
        // of some words would keep only 32 bits of hash. Flip bit 31, 32
        // or 63 of two words, of a zero and of a busy page, for many word
        // pairs: every page fingerprints apart from every other and from
        // its base.
        let neg_zero = (-0.0f64).to_bits();
        let mut bytes = vec![0u8; PAGE_SIZE as usize];
        bytes[8..16].copy_from_slice(&neg_zero.to_le_bytes());
        bytes[4088..].copy_from_slice(&neg_zero.to_le_bytes());
        let two_neg_zeros = PageData::from_bytes(&bytes);
        assert_ne!(two_neg_zeros, PageData::Zero);
        assert_ne!(two_neg_zeros.fingerprint(), PageData::Zero.fingerprint());

        let mut fps = Vec::new();
        for base in [PageData::Zero, busy_page()] {
            fps.push(base.fingerprint());
            for bit in [31, 32, 63] {
                for (i, k) in (0..24).flat_map(|i| (i + 1..24).map(move |k| (i, k))) {
                    fps.push(flip(&flip(&base, i, bit), 500 - k, bit).fingerprint());
                }
            }
        }
        let pages = fps.len();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), pages, "two of the flipped pages collide");
    }

    proptest::proptest! {
        /// The closed form, the reference and the verbatim copy of a
        /// pattern page agree.
        #[test]
        fn fingerprint_identity_pattern_matches_reference(seed in proptest::prelude::any::<u64>()) {
            let page = PageData::pattern(seed);
            let expected = reference_fingerprint(&page);
            proptest::prop_assert_eq!(page.fingerprint(), expected);
            proptest::prop_assert_eq!(as_bytes(&page).fingerprint(), expected);
        }

        #[test]
        fn fingerprint_identity_bytes_match_reference(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4097),
        ) {
            // Padded at the end and, so the last words are not always
            // zero, at the front.
            let mut tail = vec![0; PAGE_SIZE as usize - bytes.len()];
            tail.extend_from_slice(&bytes);
            for page in [PageData::from_bytes(&bytes), PageData::from_bytes(&tail)] {
                proptest::prop_assert_eq!(page.fingerprint(), reference_fingerprint(&page));
            }
        }
    }

    #[test]
    fn host_footprint_reflects_representation() {
        assert!(PageData::Zero.host_footprint() < 64);
        assert!(PageData::from_bytes(&[1]).host_footprint() >= PAGE_SIZE as usize);
    }
}
