//! The cluster-wide shared root filesystem.
//!
//! All remote-fork designs in the paper assume "that the root file system
//! is identical across nodes (e.g., as in the case of a container image).
//! Hence the file paths are the same across nodes" (§4.1). The simulation
//! models this as one [`SharedFs`] instance shared (via `Arc`) by every
//! node: files are declared with a length and a content seed, and any node
//! can fault in any page of any file and observe identical bytes.
//!
//! Contents are procedurally generated from the seed, so a multi-gigabyte
//! library set costs no host memory.

use std::collections::BTreeMap;

use cxl_mem::lockdep::{LockClass, TrackedRwLock};

use cxl_mem::PageData;

use crate::error::OsError;
use crate::PAGE_SIZE;

/// Metadata of one file on the shared root filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// File length in bytes.
    pub len: u64,
    /// Content seed; page `i` of the file holds
    /// `PageData::pattern(seed ^ i)`.
    pub seed: u64,
}

impl FileMeta {
    /// Number of whole-or-partial pages in the file.
    pub fn pages(&self) -> u64 {
        self.len.div_ceil(PAGE_SIZE)
    }
}

/// A cluster-wide shared, read-only root filesystem.
///
/// Thread-safe; share one instance between all nodes with `Arc`.
///
/// # Example
///
/// ```
/// use node_os::fs::SharedFs;
///
/// let fs = SharedFs::new();
/// fs.create("/usr/lib/libpython3.11.so", 4 << 20, 0xBEEF);
/// let page0 = fs.read_page("/usr/lib/libpython3.11.so", 0).unwrap();
/// let again = fs.read_page("/usr/lib/libpython3.11.so", 0).unwrap();
/// assert_eq!(page0, again); // same bytes on every node, every time
/// ```
#[derive(Debug)]
pub struct SharedFs {
    files: TrackedRwLock<BTreeMap<String, FileMeta>>,
}

impl Default for SharedFs {
    fn default() -> Self {
        SharedFs::new()
    }
}

impl SharedFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        SharedFs {
            files: TrackedRwLock::new(LockClass::NODE_SHARED_FS, BTreeMap::new()),
        }
    }

    /// Declares (or replaces) a file of `len` bytes with content `seed`.
    pub fn create(&self, path: &str, len: u64, seed: u64) {
        self.files
            .write()
            .insert(path.to_owned(), FileMeta { len, seed });
    }

    /// Returns the metadata of `path`.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFile`] if the path does not exist.
    pub fn stat(&self, path: &str) -> Result<FileMeta, OsError> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| OsError::NoSuchFile(path.to_owned()))
    }

    /// `true` if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// Reads page `page_idx` of `path`.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFile`] if the path does not exist or the page is
    /// beyond the end of the file.
    pub fn read_page(&self, path: &str, page_idx: u64) -> Result<PageData, OsError> {
        let meta = self.stat(path)?;
        if page_idx >= meta.pages() {
            return Err(OsError::NoSuchFile(format!(
                "{path} (page {page_idx} beyond eof)"
            )));
        }
        Ok(PageData::pattern(
            meta.seed ^ page_idx.wrapping_mul(0x2545_F491_4F6C_DD1D),
        ))
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.read().len()
    }

    /// Lists all paths with a given prefix (sorted).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_stat_roundtrip() {
        let fs = SharedFs::new();
        fs.create("/a", 10_000, 3);
        let m = fs.stat("/a").unwrap();
        assert_eq!(m.len, 10_000);
        assert_eq!(m.pages(), 3);
        assert!(fs.exists("/a"));
        assert!(!fs.exists("/b"));
    }

    #[test]
    fn pages_differ_within_a_file_but_are_deterministic() {
        let fs = SharedFs::new();
        fs.create("/lib", 3 * PAGE_SIZE, 77);
        let p0 = fs.read_page("/lib", 0).unwrap();
        let p1 = fs.read_page("/lib", 1).unwrap();
        assert_ne!(p0, p1);
        assert_eq!(p0, fs.read_page("/lib", 0).unwrap());
    }

    #[test]
    fn different_files_have_different_content() {
        let fs = SharedFs::new();
        fs.create("/x", PAGE_SIZE, 1);
        fs.create("/y", PAGE_SIZE, 2);
        assert_ne!(
            fs.read_page("/x", 0).unwrap(),
            fs.read_page("/y", 0).unwrap()
        );
    }

    #[test]
    fn read_past_eof_errors() {
        let fs = SharedFs::new();
        fs.create("/a", PAGE_SIZE + 1, 0);
        assert!(fs.read_page("/a", 1).is_ok()); // partial page ok
        assert!(matches!(fs.read_page("/a", 2), Err(OsError::NoSuchFile(_))));
        assert!(matches!(
            fs.read_page("/nope", 0),
            Err(OsError::NoSuchFile(_))
        ));
    }

    #[test]
    fn list_filters_by_prefix() {
        let fs = SharedFs::new();
        fs.create("/usr/lib/a.so", 1, 0);
        fs.create("/usr/lib/b.so", 1, 0);
        fs.create("/etc/conf", 1, 0);
        assert_eq!(fs.list("/usr/lib/").len(), 2);
        assert_eq!(fs.file_count(), 3);
    }
}
