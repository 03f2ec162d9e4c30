//! A set-associative last-level cache model.
//!
//! The paper's warm-execution results (Fig. 8b, Fig. 9a) hinge on whether a
//! function's working set fits in the node's 64 MB L3: "the local hardware
//! caches of the compute nodes may be able to intercept most of the
//! requests to such data, amortizing the increased latency of CXL
//! accesses" (§2.2). The model tracks physical lines at a configurable
//! granularity with per-set LRU replacement.
//!
//! Accesses are tagged by [`PhysAddr::cache_key`](crate::PhysAddr), so a
//! page that migrates from CXL to local memory naturally re-misses once and
//! then hits at the new location.
//!
//! # Layout
//!
//! The model is the hottest host code of every workload that thrashes it
//! (most of its steps are misses into a full set), so the sets are flat
//! (DESIGN.md §4):
//!
//! * all tags live in one array, `associativity` ways per set;
//! * each set is a **ring** of ways with a `u16` head (the way holding
//!   the most recently used line) and length. A miss writes its line into
//!   the way before the head — the free way, or the LRU way of a full set
//!   — and makes it the head: one tag store, one control-byte store, no
//!   shift. A hit at LRU position `p` shifts `p` ways; an invalidation
//!   closes the gap behind the line it drops;
//! * each way has a **control byte**: `0` for an empty way, `0x80 | 7`
//!   hash bits for an occupied one. A lookup compares the set's control
//!   bytes eight at a time (an exact SWAR zero-byte test on
//!   `u64::from_le_bytes` words) and reads the tag of candidate ways only;
//! * the set index is `(h >> 32) % sets` of a multiplicative hash `h`,
//!   computed with Lemire's exact 32-bit fastmod;
//! * [`LlcCache::new`] allocates nothing: the arrays are created on the
//!   first access, so building a node stays cheap.
//!
//! The hit/miss sequence and each set's LRU order are those of a list per
//! set kept most recently used first; `tests/cache_properties.rs` checks
//! them against such a model after every operation.

use std::collections::BTreeMap;
use std::fmt;

use crate::addr::PhysAddr;

/// Configuration of the LLC model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (evaluation platform: 64 MB per socket).
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Tracking granularity in bytes. The simulation models page-granular
    /// residency by default: one tag covers one 4 KiB page.
    pub line_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 64 * 1024 * 1024,
            associativity: 16,
            line_bytes: crate::PAGE_SIZE,
        }
    }
}

/// Multiplier of the set-index hash; spreads both local pfns and CXL
/// page ids.
const HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// Control-byte words: eight ways per probe.
const WORD: usize = 8;

/// One set's ring: the way holding its MRU line, and how many lines it
/// holds (in ways `head, head + 1, …` modulo the associativity).
#[derive(Clone, Copy, Default)]
struct Ring {
    head: u16,
    len: u16,
}

/// A set-associative cache with LRU replacement.
///
/// `Debug` prints the model state — each non-empty set's lines, most
/// recently used first, and the hit and miss counts — not the storage,
/// so two caches that reach the same state along different histories
/// print the same.
///
/// # Example
///
/// ```
/// use node_os::cache::{CacheConfig, LlcCache};
/// use node_os::{PhysAddr, Pfn};
///
/// let mut llc = LlcCache::new(CacheConfig::default());
/// let line = PhysAddr::Local(Pfn(42));
/// assert!(!llc.access(line)); // compulsory miss
/// assert!(llc.access(line));  // hit
/// ```
#[derive(Clone)]
pub struct LlcCache {
    sets: u32,
    /// Lemire's fastmod multiplier for `sets`: `u64::MAX / sets + 1`.
    fastmod: u64,
    assoc: usize,
    /// Control bytes per set: `assoc` rounded up to whole words; the
    /// padding ways stay empty.
    stride: usize,
    /// `tags[s * assoc + w]`: the line in way `w` of set `s`.
    tags: Vec<u64>,
    /// `ctrl[s * stride + w]`: `0` if way `w` of set `s` is empty, else
    /// [`control_byte`] of its line's hash.
    ctrl: Vec<u8>,
    rings: Vec<Ring>,
    hits: u64,
    misses: u64,
}

impl LlcCache {
    /// Builds a cache from `config`. Allocates nothing: the sets are
    /// created on the first access.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero ways, more than
    /// `u16::MAX` ways or more than `u32::MAX` sets.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.associativity > 0, "associativity must be positive");
        assert!(
            config.associativity <= usize::from(u16::MAX),
            "associativity must fit a u16"
        );
        assert!(config.line_bytes > 0, "line size must be positive");
        let lines = (config.capacity_bytes / config.line_bytes).max(1);
        let sets = (lines / config.associativity as u64).max(1);
        let sets = u32::try_from(sets).expect("set count must fit a u32");
        LlcCache {
            sets,
            fastmod: (u64::MAX / u64::from(sets)).wrapping_add(1),
            assoc: config.associativity,
            stride: config.associativity.next_multiple_of(WORD),
            tags: Vec::new(),
            ctrl: Vec::new(),
            rings: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The set of a line whose key hashed to `h`: `(h >> 32) % sets`,
    /// by Lemire's fastmod, which is exact for every 32-bit dividend
    /// and divisor.
    #[inline]
    fn set_of(&self, h: u64) -> usize {
        let low = self.fastmod.wrapping_mul(h >> 32);
        ((u128::from(low) * u128::from(self.sets)) >> 64) as usize
    }

    /// The set of the line `key` and its control byte.
    #[inline]
    fn locate(&self, key: u64) -> (usize, u8) {
        let h = key.wrapping_mul(HASH);
        (self.set_of(h), control_byte(h))
    }

    /// Creates the (empty) sets.
    #[cold]
    fn allocate(&mut self) {
        let sets = self.sets as usize;
        self.tags = vec![0; sets * self.assoc];
        self.ctrl = vec![0; sets * self.stride];
        self.rings = vec![Ring::default(); sets];
    }

    /// Finds the way of set `set` holding `key`, whose control byte is
    /// `byte`: probes the control bytes a word at a time and reads the
    /// tags of matching ways only.
    #[inline(always)]
    fn find(&self, set: usize, byte: u8, key: u64) -> Option<usize> {
        let ctrl = &self.ctrl[set * self.stride..][..self.stride];
        let tags = &self.tags[set * self.assoc..][..self.assoc];
        let pattern = u64::from(byte) * 0x0101_0101_0101_0101;
        for (i, word) in ctrl.as_chunks::<WORD>().0.iter().enumerate() {
            let mut candidates = zero_bytes(u64::from_le_bytes(*word) ^ pattern);
            while candidates != 0 {
                let way = i * WORD + (candidates.trailing_zeros() / 8) as usize;
                if tags[way] == key {
                    return Some(way);
                }
                candidates &= candidates - 1;
            }
        }
        None
    }

    /// One access to the line `key`: a hit moves it to the front of its
    /// set; a miss puts it there, evicting the LRU line of a full set.
    ///
    /// `step` and `find` are forced inline: left to itself the compiler
    /// calls both once per line, and the set's ring is loaded only after
    /// the probe returns instead of beside it.
    #[inline(always)]
    fn step(&mut self, key: u64) -> bool {
        let (set, byte) = self.locate(key);
        let head = usize::from(self.rings[set].head);
        let found = self.find(set, byte, key);
        let assoc = self.assoc;
        let tags = &mut self.tags[set * assoc..][..assoc];
        let ctrl = &mut self.ctrl[set * self.stride..][..assoc];
        let ring = &mut self.rings[set];
        if let Some(way) = found {
            let mut to = way;
            while to != head {
                let from = if to == 0 { assoc - 1 } else { to - 1 };
                tags[to] = tags[from];
                ctrl[to] = ctrl[from];
                to = from;
            }
            tags[head] = key;
            ctrl[head] = byte;
            self.hits += 1;
            true
        } else {
            let way = if head == 0 { assoc - 1 } else { head - 1 };
            tags[way] = key;
            ctrl[way] = byte;
            // `way < assoc <= u16::MAX` (asserted in `new`).
            ring.head = way as u16;
            if usize::from(ring.len) < assoc {
                ring.len += 1;
            }
            self.misses += 1;
            false
        }
    }

    /// Performs one access to the line holding `addr`. Returns `true` on a
    /// hit. Misses insert the line, evicting the LRU way if the set is
    /// full.
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        if self.rings.is_empty() {
            self.allocate();
        }
        self.step(addr.cache_key())
    }

    /// Accesses each of `lines` in order, exactly as one
    /// [`access`](Self::access) each, and returns a mask whose bit `i`
    /// is set if `lines[i]` hit. At most 64 lines.
    pub(crate) fn access_batch(&mut self, lines: &[PhysAddr]) -> u64 {
        debug_assert!(lines.len() <= 64, "a batch of {} lines", lines.len());
        if self.rings.is_empty() {
            self.allocate();
        }
        let mut hits = 0;
        for (i, line) in lines.iter().enumerate() {
            hits |= u64::from(self.step(line.cache_key())) << i;
        }
        hits
    }

    /// Probes for residency without updating LRU state or counters.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        if self.rings.is_empty() {
            return false;
        }
        let key = addr.cache_key();
        let (set, byte) = self.locate(key);
        self.find(set, byte, key).is_some()
    }

    /// Drops the line holding `addr` if resident (page freed or migrated
    /// away). The lines behind it move up one position; the order of
    /// the others is kept.
    pub fn invalidate(&mut self, addr: PhysAddr) {
        if self.rings.is_empty() {
            return;
        }
        let key = addr.cache_key();
        let (set, byte) = self.locate(key);
        let Some(way) = self.find(set, byte, key) else {
            return;
        };
        let assoc = self.assoc;
        let tags = &mut self.tags[set * assoc..][..assoc];
        let ctrl = &mut self.ctrl[set * self.stride..][..assoc];
        let ring = &mut self.rings[set];
        let last = (usize::from(ring.head) + usize::from(ring.len) - 1) % assoc;
        let mut to = way;
        while to != last {
            let from = if to == assoc - 1 { 0 } else { to + 1 };
            tags[to] = tags[from];
            ctrl[to] = ctrl[from];
            to = from;
        }
        ctrl[last] = 0;
        ring.len -= 1;
    }

    /// Total hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The lines of set `set`, most recently used first.
    fn lines(&self, set: usize) -> impl Iterator<Item = u64> + '_ {
        let ring = self.rings[set];
        let tags = &self.tags[set * self.assoc..][..self.assoc];
        (0..usize::from(ring.len)).map(move |p| tags[(usize::from(ring.head) + p) % self.assoc])
    }
}

impl fmt::Debug for LlcCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sets: BTreeMap<usize, Vec<u64>> = (0..self.rings.len())
            .filter(|&s| self.rings[s].len > 0)
            .map(|s| (s, self.lines(s).collect()))
            .collect();
        f.debug_struct("LlcCache")
            .field("sets", &sets)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// The control byte of a line whose key hashed to `h`: the high bit
/// marks the way occupied, the low seven are hash bits below the ones
/// the set index uses.
#[inline]
fn control_byte(h: u64) -> u8 {
    (h >> 25) as u8 | 0x80
}

/// The zero bytes of `x`: the high bit of each byte of the result is set
/// exactly when that byte of `x` is zero. No carry crosses a byte, so a
/// zero byte does not mark the ones above it.
#[inline]
fn zero_bytes(x: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    !(((x & LOW7) + LOW7) | x | LOW7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Pfn;
    use cxl_mem::CxlPageId;

    fn tiny() -> LlcCache {
        // 4 sets x 2 ways = 8 lines of one page each.
        LlcCache::new(CacheConfig {
            capacity_bytes: 8 * crate::PAGE_SIZE,
            associativity: 2,
            line_bytes: crate::PAGE_SIZE,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let a = PhysAddr::Local(Pfn(1));
        assert!(!c.access(a));
        assert!(c.access(a));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LlcCache::new(CacheConfig {
            capacity_bytes: 2 * crate::PAGE_SIZE,
            associativity: 2,
            line_bytes: crate::PAGE_SIZE,
        });
        // Single set, two ways.
        assert_eq!(c.sets, 1);
        let a = PhysAddr::Local(Pfn(1));
        let b = PhysAddr::Local(Pfn(2));
        let d = PhysAddr::Local(Pfn(3));
        c.access(a);
        c.access(b);
        c.access(a); // a now MRU
        c.access(d); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn local_and_cxl_tags_are_distinct() {
        let mut c = tiny();
        c.access(PhysAddr::Local(Pfn(7)));
        assert!(!c.contains(PhysAddr::Cxl(CxlPageId(7))));
    }

    #[test]
    fn invalidate_drops_the_line_and_keeps_the_books() {
        let mut c = tiny();
        let a = PhysAddr::Cxl(CxlPageId(5));
        c.invalidate(a); // before the first access: nothing to drop
        c.access(a);
        assert!(c.contains(a));
        c.invalidate(a);
        assert!(!c.contains(a));
        assert!(!c.access(a), "an invalidated line misses");
        assert_eq!((c.hits(), c.misses()), (0, 2));
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = LlcCache::new(CacheConfig {
            capacity_bytes: 1024 * crate::PAGE_SIZE,
            associativity: 8,
            line_bytes: crate::PAGE_SIZE,
        });
        let pages: Vec<PhysAddr> = (0..256).map(|i| PhysAddr::Local(Pfn(i))).collect();
        for p in &pages {
            c.access(*p);
        }
        let (hits, misses) = (c.hits(), c.misses());
        for _ in 0..4 {
            for p in &pages {
                c.access(*p);
            }
        }
        // A 256-page working set in a 1024-line cache should hit nearly
        // always after warm-up (hash skew may cause a handful of conflicts).
        let (hits, misses) = (c.hits() - hits, c.misses() - misses);
        assert!(misses * 20 < hits + misses, "{hits} hits, {misses} misses");
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes() {
        let mut c = tiny(); // 8 lines
        for _ in 0..4 {
            for i in 0..64 {
                c.access(PhysAddr::Local(Pfn(i)));
            }
        }
        assert!(
            c.hits() * 5 < c.hits() + c.misses(),
            "{} hits, {} misses",
            c.hits(),
            c.misses()
        );
    }

    #[test]
    fn capacity_lines_reflects_geometry() {
        let lines = |c: &LlcCache| c.sets as usize * c.assoc;
        assert_eq!(lines(&tiny()), 8);
        assert_eq!(lines(&LlcCache::new(CacheConfig::default())), 16384);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_associativity_rejected() {
        let _ = LlcCache::new(CacheConfig {
            capacity_bytes: 1024,
            associativity: 0,
            line_bytes: 64,
        });
    }

    #[test]
    fn new_allocates_nothing_until_the_first_access() {
        let mut c = LlcCache::new(CacheConfig::default());
        let a = PhysAddr::Local(Pfn(3));
        assert!(!c.contains(a));
        c.invalidate(a);
        assert_eq!(
            c.tags.capacity() + c.ctrl.capacity() + c.rings.capacity(),
            0
        );
        c.access(a);
        assert_eq!(
            (c.tags.len(), c.ctrl.len(), c.rings.len()),
            (16384, 16384, 1024)
        );
    }

    #[test]
    fn equal_states_print_the_same_whatever_their_history() {
        // `a` and `b` share a set; `x` is in another one.
        let [a, b] = [PhysAddr::Local(Pfn(1)), PhysAddr::Cxl(CxlPageId(1))];
        let set = |c: &LlcCache, line: PhysAddr| c.locate(line.cache_key()).0;
        let mut c = tiny();
        let x = (2..)
            .map(|p| PhysAddr::Local(Pfn(p)))
            .find(|x| set(&c, *x) != set(&c, b))
            .unwrap();
        assert_eq!(set(&c, a), set(&c, b));
        c.access(a);
        c.access(b);
        c.invalidate(a);
        let mut d = tiny();
        d.access(b);
        d.access(x);
        d.invalidate(x);
        let s = set(&c, b);
        assert_ne!(
            c.rings[s].head, d.rings[s].head,
            "the same line in different ways"
        );
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
        assert_eq!(
            format!("{c:?}"),
            format!(
                "LlcCache {{ sets: {{{s}: [{}]}}, hits: 0, misses: 2 }}",
                b.cache_key()
            )
        );
        assert_eq!(
            format!("{:?}", tiny()),
            "LlcCache { sets: {}, hits: 0, misses: 0 }"
        );
    }

    #[test]
    fn fastmod_equals_the_remainder() {
        let samples = (0..4096u64).map(|i| i.wrapping_mul(HASH)).chain([
            0,
            1,
            u64::MAX,
            u64::from(u32::MAX) << 32,
        ]);
        for sets in [
            1u32,
            2,
            3,
            5,
            7,
            8,
            1000,
            1024,
            65_537,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let c = LlcCache {
                fastmod: (u64::MAX / u64::from(sets)).wrapping_add(1),
                sets,
                ..tiny()
            };
            for h in samples.clone() {
                assert_eq!(
                    c.set_of(h) as u64,
                    (h >> 32) % u64::from(sets),
                    "{h} % {sets}"
                );
            }
        }
    }

    #[test]
    fn zero_byte_test_is_exact() {
        for x in [0u64, 1, 0x0100, 0x8000, 0x0001_0000_0000_0100, u64::MAX]
            .into_iter()
            .chain((0..64).map(|s| 1u64 << s))
            .chain((0..4096u64).map(|i| i.wrapping_mul(HASH) & 0x00ff_ff00_ff00_ffff))
        {
            let expected = x
                .to_le_bytes()
                .iter()
                .enumerate()
                .filter(|(_, b)| **b == 0)
                .fold(0, |m, (i, _)| m | 0x80 << (8 * i));
            assert_eq!(zero_bytes(x), expected, "{x:#018x}");
        }
    }
}
