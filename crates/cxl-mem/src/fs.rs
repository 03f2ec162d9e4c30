//! An in-CXL-memory shared filesystem.
//!
//! The CRIU-CXL baseline in the paper's evaluation "create[s] an
//! in-CXL-memory filesystem which [is] share[d] between the two VMs.
//! The first VM serializes checkpoint files on the shared filesystem,
//! which the second VM deserializes to clone a new function instance"
//! (§6.2). [`CxlFs`] is that filesystem: a flat path → file map whose
//! contents are stored in device pages, so capacity pressure and traffic
//! accounting flow through the [`CxlDevice`] like any other CXL user.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::lockdep::{LockClass, TrackedRwLock};

use crate::{CxlDevice, CxlError, CxlPageId, NodeId, RegionId, PAGE_SIZE};

/// Metadata for one file stored on the CXL filesystem.
#[derive(Debug, Clone)]
pub struct CxlFile {
    /// Device pages backing the file contents, in order.
    pages: Vec<CxlPageId>,
    /// Logical file length in bytes.
    len: u64,
}

impl CxlFile {
    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of device pages backing the file.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// A shared filesystem backed by CXL device pages.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use cxl_mem::{CxlDevice, CxlFs, NodeId};
///
/// # fn main() -> Result<(), cxl_mem::CxlError> {
/// let dev = Arc::new(CxlDevice::with_capacity_mib(4));
/// let fs = CxlFs::new(Arc::clone(&dev));
/// fs.write_file("images/pages-1.img", b"serialized state", NodeId(0))?;
/// let data = fs.read_file("images/pages-1.img", NodeId(1))?;
/// assert_eq!(data, b"serialized state");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CxlFs {
    device: Arc<CxlDevice>,
    region: RegionId,
    files: TrackedRwLock<BTreeMap<String, CxlFile>>,
}

impl CxlFs {
    /// Mounts a fresh filesystem on `device`.
    pub fn new(device: Arc<CxlDevice>) -> Self {
        let region = device.create_region("cxlfs");
        CxlFs {
            device,
            region,
            files: TrackedRwLock::new(LockClass::CXL_FS, BTreeMap::new()),
        }
    }

    /// The device this filesystem lives on.
    pub fn device(&self) -> &Arc<CxlDevice> {
        &self.device
    }

    /// Creates or replaces `path` with `data`, written on behalf of `node`.
    ///
    /// # Errors
    ///
    /// [`CxlError::OutOfDeviceMemory`] if the device cannot back the file;
    /// in that case any previous version of the file is left intact.
    pub fn write_file(&self, path: &str, data: &[u8], node: NodeId) -> Result<(), CxlError> {
        let pages = self.device.alloc_bytes(self.region, data.len() as u64)?;
        for (i, page) in pages.iter().enumerate() {
            let start = i * PAGE_SIZE as usize;
            let end = (start + PAGE_SIZE as usize).min(data.len());
            self.device.write(*page, 0, &data[start..end], node)?;
        }
        let new = CxlFile {
            pages,
            len: data.len() as u64,
        };
        let old = self.files.write().insert(path.to_owned(), new);
        if let Some(old) = old {
            for p in old.pages {
                self.device.free_page(p)?;
            }
        }
        Ok(())
    }

    /// Reads the whole contents of `path` on behalf of `node`.
    ///
    /// # Errors
    ///
    /// [`CxlError::FileNotFound`] if the path does not exist.
    pub fn read_file(&self, path: &str, node: NodeId) -> Result<Vec<u8>, CxlError> {
        let file = self
            .files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| CxlError::FileNotFound(path.to_owned()))?;
        let mut out = vec![0u8; file.len as usize];
        for (i, page) in file.pages.iter().enumerate() {
            let start = i * PAGE_SIZE as usize;
            let end = (start + PAGE_SIZE as usize).min(out.len());
            self.device.read(*page, 0, &mut out[start..end], node)?;
        }
        Ok(out)
    }

    /// Returns the file metadata for `path`.
    ///
    /// # Errors
    ///
    /// [`CxlError::FileNotFound`] if the path does not exist.
    pub fn stat(&self, path: &str) -> Result<CxlFile, CxlError> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| CxlError::FileNotFound(path.to_owned()))
    }

    /// Removes `path`, freeing its device pages.
    ///
    /// # Errors
    ///
    /// [`CxlError::FileNotFound`] if the path does not exist.
    pub fn remove(&self, path: &str) -> Result<(), CxlError> {
        let file = self
            .files
            .write()
            .remove(path)
            .ok_or_else(|| CxlError::FileNotFound(path.to_owned()))?;
        for p in file.pages {
            self.device.free_page(p)?;
        }
        Ok(())
    }

    /// Removes every file whose path starts with `prefix`, returning how
    /// many were removed. Used to reclaim a whole checkpoint image
    /// directory.
    pub fn remove_prefix(&self, prefix: &str) -> Result<usize, CxlError> {
        let paths: Vec<String> = {
            let files = self.files.read();
            files
                .keys()
                .filter(|p| p.starts_with(prefix))
                .cloned()
                .collect()
        };
        for p in &paths {
            self.remove(p)?;
        }
        Ok(paths.len())
    }

    /// Lists paths under a prefix (sorted).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Total bytes stored across all files.
    pub fn total_bytes(&self) -> u64 {
        self.files.read().values().map(|f| f.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> CxlFs {
        CxlFs::new(Arc::new(CxlDevice::with_capacity_mib(1)))
    }

    #[test]
    fn write_read_roundtrip_multi_page() {
        let fs = fs();
        let data: Vec<u8> = (0..PAGE_SIZE as usize * 2 + 100)
            .map(|i| (i % 251) as u8)
            .collect();
        fs.write_file("a", &data, NodeId(0)).unwrap();
        assert_eq!(fs.read_file("a", NodeId(1)).unwrap(), data);
        assert_eq!(fs.stat("a").unwrap().page_count(), 3);
        assert_eq!(fs.stat("a").unwrap().len(), data.len() as u64);
    }

    #[test]
    fn empty_file_is_valid() {
        let fs = fs();
        fs.write_file("empty", &[], NodeId(0)).unwrap();
        assert!(fs.stat("empty").unwrap().is_empty());
        assert_eq!(fs.read_file("empty", NodeId(0)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overwrite_replaces_and_frees_old_pages() {
        let fs = fs();
        let used0 = fs.device().used_pages();
        fs.write_file("f", &[1u8; 8192], NodeId(0)).unwrap();
        assert_eq!(fs.device().used_pages(), used0 + 2);
        fs.write_file("f", &[2u8; 100], NodeId(0)).unwrap();
        assert_eq!(fs.device().used_pages(), used0 + 1);
        assert_eq!(fs.read_file("f", NodeId(0)).unwrap(), vec![2u8; 100]);
    }

    #[test]
    fn missing_file_errors() {
        let fs = fs();
        assert!(matches!(
            fs.read_file("nope", NodeId(0)),
            Err(CxlError::FileNotFound(_))
        ));
        assert!(fs.remove("nope").is_err());
        assert!(fs.stat("nope").is_err());
    }

    #[test]
    fn remove_frees_pages() {
        let fs = fs();
        fs.write_file("x", &[0u8; 4096], NodeId(0)).unwrap();
        let used = fs.device().used_pages();
        fs.remove("x").unwrap();
        assert_eq!(fs.device().used_pages(), used - 1);
    }

    #[test]
    fn remove_prefix_clears_image_directory() {
        let fs = fs();
        fs.write_file("ckpt/bert/pages.img", &[1; 10], NodeId(0))
            .unwrap();
        fs.write_file("ckpt/bert/mm.img", &[2; 10], NodeId(0))
            .unwrap();
        fs.write_file("ckpt/rnn/mm.img", &[3; 10], NodeId(0))
            .unwrap();
        assert_eq!(fs.list("ckpt/").len(), 3);
        assert_eq!(fs.remove_prefix("ckpt/bert/").unwrap(), 2);
        assert_eq!(fs.list("ckpt/"), vec!["ckpt/rnn/mm.img".to_owned()]);
    }

    #[test]
    fn out_of_space_leaves_old_version_intact() {
        let dev = Arc::new(CxlDevice::new(2));
        let fs = CxlFs::new(Arc::clone(&dev));
        fs.write_file("f", &[7u8; 4096], NodeId(0)).unwrap();
        let err = fs
            .write_file("f", &vec![8u8; 3 * 4096], NodeId(0))
            .unwrap_err();
        assert!(matches!(err, CxlError::OutOfDeviceMemory { .. }));
        assert_eq!(fs.read_file("f", NodeId(0)).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn total_bytes_sums_files() {
        let fs = fs();
        fs.write_file("a", &[0; 100], NodeId(0)).unwrap();
        fs.write_file("b", &[0; 50], NodeId(0)).unwrap();
        assert_eq!(fs.total_bytes(), 150);
    }
}
