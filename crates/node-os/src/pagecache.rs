//! A per-node page cache for file-backed pages.
//!
//! Private file mappings (libraries) are read-shared through the page
//! cache on a real kernel: all processes on a node map the *same* frame
//! for a clean file page, and only the first faulting process pays the
//! filesystem read (a major fault); later ones take minor faults. This is
//! what makes a locally forked child cheap in both time and memory, and
//! what a cross-node restore loses (the target node's cache is cold) —
//! both effects the paper's Fig. 7 measures.
//!
//! The cache holds one reference on each cached frame, so frames stay
//! resident after every mapper exits (until [`PageCache::clear`] reclaims
//! them under memory pressure).

use std::collections::BTreeMap;

use crate::addr::Pfn;
use crate::frame::FrameAllocator;

/// A `(path, file page) → frame` cache.
///
/// Keyed by path, then by page, in `BTreeMap`s so [`PageCache::entries`]
/// walks in a stable `(path, page)` order — the entries feed `cxl-check`
/// audits and report output, which must be byte-identical across runs —
/// and a lookup borrows the path instead of allocating a key.
#[derive(Debug, Default)]
pub struct PageCache {
    map: BTreeMap<String, BTreeMap<u64, Pfn>>,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// An empty cache.
    pub fn new() -> Self {
        PageCache::default()
    }

    /// Looks up a cached frame, counting a hit or miss.
    pub fn lookup(&mut self, path: &str, file_page: u64) -> Option<Pfn> {
        match self.map.get(path).and_then(|pages| pages.get(&file_page)) {
            Some(pfn) => {
                self.hits += 1;
                Some(*pfn)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a frame into the cache. The caller must have already given
    /// the cache its own reference on the frame.
    pub fn insert(&mut self, path: &str, file_page: u64, pfn: Pfn) {
        match self.map.get_mut(path) {
            Some(pages) => pages.insert(file_page, pfn),
            None => self
                .map
                .entry(path.to_owned())
                .or_default()
                .insert(file_page, pfn),
        };
    }

    /// Cached page count.
    pub fn len(&self) -> usize {
        self.map.values().map(BTreeMap::len).sum()
    }

    /// Iterates every cached `(path, file_page) → pfn` entry, for
    /// cross-layer auditing (each entry holds one frame reference that
    /// `cxl-check` balances into the expected refcount).
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64, Pfn)> + '_ {
        self.map.iter().flat_map(|(path, pages)| {
            pages
                .iter()
                .map(move |(file_page, pfn)| (path.as_str(), *file_page, *pfn))
        })
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every cached page, releasing the cache's frame references.
    /// Returns how many frames were actually freed (refcount reached
    /// zero). This is the node's clean-page reclamation path under memory
    /// pressure.
    pub fn clear(&mut self, frames: &mut FrameAllocator) -> u64 {
        let mut freed = 0;
        for pfn in std::mem::take(&mut self.map)
            .into_values()
            .flat_map(BTreeMap::into_values)
        {
            if frames.dec_ref(pfn) {
                freed += 1;
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_mem::PageData;

    #[test]
    fn lookup_insert_roundtrip() {
        let mut frames = FrameAllocator::new(8);
        let mut cache = PageCache::new();
        assert!(cache.lookup("/lib", 0).is_none());
        let pfn = frames.alloc(PageData::pattern(1)).unwrap();
        cache.insert("/lib", 0, pfn);
        assert_eq!(cache.lookup("/lib", 0), Some(pfn));
        assert!(cache.lookup("/lib", 1).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_releases_cache_references() {
        let mut frames = FrameAllocator::new(8);
        let mut cache = PageCache::new();
        // Frame referenced by cache only.
        let solo = frames.alloc(PageData::zeroed()).unwrap();
        cache.insert("/a", 0, solo);
        // Frame referenced by cache AND a mapper.
        let shared = frames.alloc(PageData::zeroed()).unwrap();
        frames.inc_ref(shared);
        cache.insert("/a", 1, shared);

        let freed = cache.clear(&mut frames);
        assert_eq!(freed, 1, "only the unmapped page is freed");
        assert!(cache.is_empty());
        assert_eq!(frames.refcount(shared), 1, "mapper's reference survives");
        assert_eq!(frames.refcount(solo), 0);
    }
}
