//! Checkpoint seal verification.
//!
//! A CXLfork checkpoint is immutable by design: restores attach or copy
//! its pages but never write them (§4.2.1 routes every OS update through
//! leaf-level CoW). The simulation can't make device pages physically
//! read-only, so the [`SealRegistry`] enforces immutability after the
//! fact — it records a content fingerprint of every page a checkpoint's
//! region owns at seal time (via [`CxlDevice::fingerprint`]) and
//! re-verifies them on demand. A fingerprint mismatch means some code
//! path wrote through a sealed checkpoint; a missing page means the
//! checkpoint was (partially) reclaimed while still sealed. (`cxlfork`
//! itself keeps the same fingerprints in each checkpoint and re-checks
//! them on every restore in debug builds; the registry is what tests use
//! to seal any region and name the violation.)

use std::collections::BTreeMap;

use cxl_mem::{CxlDevice, CxlError, CxlPageId, RegionId};

use crate::Violation;

/// Records the sealed fingerprints of checkpoint regions and re-verifies
/// them on demand.
///
/// # Example
///
/// ```
/// use cxl_mem::{CxlDevice, NodeId, PageData};
/// use cxl_check::SealRegistry;
///
/// # fn main() -> Result<(), cxl_mem::CxlError> {
/// let device = CxlDevice::with_capacity_mib(16);
/// let region = device.create_region("ckpt");
/// let page = device.alloc_page(region)?;
/// device.write_page(page, PageData::pattern(3), NodeId(0))?;
///
/// let mut seals = SealRegistry::new();
/// seals.seal_region(&device, region)?;
/// assert!(seals.verify(&device).is_empty());
///
/// device.write_page(page, PageData::pattern(4), NodeId(0))?; // mutate!
/// assert_eq!(seals.verify(&device).len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SealRegistry {
    seals: BTreeMap<RegionId, BTreeMap<CxlPageId, u64>>,
}

impl SealRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SealRegistry::default()
    }

    /// Seals every page `region` currently owns on `device`, replacing
    /// any earlier seal of the same region. Returns the number of pages
    /// sealed.
    ///
    /// # Errors
    ///
    /// [`CxlError`] if a page vanishes between enumeration and
    /// fingerprinting.
    pub fn seal_region(&mut self, device: &CxlDevice, region: RegionId) -> Result<usize, CxlError> {
        let mut pages = BTreeMap::new();
        for (page, owner) in device.live_pages() {
            if owner == region {
                pages.insert(page, device.fingerprint(page)?);
            }
        }
        let sealed = pages.len();
        self.seals.insert(region, pages);
        Ok(sealed)
    }

    /// Drops the seal of `region` (the checkpoint is being released; its
    /// pages may legitimately disappear now).
    pub fn release(&mut self, region: RegionId) {
        self.seals.remove(&region);
    }

    /// Re-verifies every sealed region against the device, returning a
    /// violation per missing or mutated page.
    pub fn verify(&self, device: &CxlDevice) -> Vec<Violation> {
        let mut out = Vec::new();
        for (&region, pages) in &self.seals {
            out.extend(verify_pages(device, region, pages));
        }
        out
    }

    /// Re-verifies a single sealed region. A region that was never sealed
    /// verifies vacuously clean.
    pub fn verify_region(&self, device: &CxlDevice, region: RegionId) -> Vec<Violation> {
        self.seals
            .get(&region)
            .map(|pages| verify_pages(device, region, pages))
            .unwrap_or_default()
    }

    /// Regions currently under seal.
    pub fn sealed_regions(&self) -> Vec<RegionId> {
        self.seals.keys().copied().collect()
    }

    /// Number of regions under seal.
    pub fn len(&self) -> usize {
        self.seals.len()
    }

    /// `true` if nothing is sealed.
    pub fn is_empty(&self) -> bool {
        self.seals.is_empty()
    }
}

fn verify_pages(
    device: &CxlDevice,
    region: RegionId,
    pages: &BTreeMap<CxlPageId, u64>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (&page, &expected) in pages {
        match device.fingerprint(page) {
            Err(_) => out.push(Violation::SealMissingPage { region, page }),
            Ok(actual) if actual != expected => out.push(Violation::SealMismatch {
                region,
                page,
                expected,
                actual,
            }),
            Ok(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use cxl_mem::{NodeId, PageData};

    use super::*;

    fn device_with_region() -> (CxlDevice, RegionId, Vec<CxlPageId>) {
        let device = CxlDevice::with_capacity_mib(16);
        let region = device.create_region("ckpt");
        let pages: Vec<CxlPageId> = (0..4)
            .map(|i| {
                let p = device.alloc_page(region).unwrap();
                device
                    .write_page(p, PageData::pattern(i + 1), NodeId(0))
                    .unwrap();
                p
            })
            .collect();
        (device, region, pages)
    }

    #[test]
    fn untouched_region_verifies_clean() {
        let (device, region, _) = device_with_region();
        let mut seals = SealRegistry::new();
        assert_eq!(seals.seal_region(&device, region).unwrap(), 4);
        assert_eq!(seals.verify(&device), Vec::new());
        assert_eq!(seals.sealed_regions(), vec![region]);
    }

    #[test]
    fn mutation_after_seal_is_reported() {
        let (device, region, pages) = device_with_region();
        let mut seals = SealRegistry::new();
        seals.seal_region(&device, region).unwrap();
        device
            .write_page(pages[2], PageData::pattern(0xBAD), NodeId(0))
            .unwrap();
        let violations = seals.verify(&device);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            Violation::SealMismatch { page, .. } if page == pages[2]
        ));
    }

    #[test]
    fn freed_page_under_seal_is_reported() {
        let (device, region, pages) = device_with_region();
        let mut seals = SealRegistry::new();
        seals.seal_region(&device, region).unwrap();
        device.free_page(pages[0]).unwrap();
        let violations = seals.verify_region(&device, region);
        assert_eq!(
            violations,
            vec![Violation::SealMissingPage {
                region,
                page: pages[0],
            }]
        );
    }

    #[test]
    fn release_forgets_the_seal() {
        let (device, region, _) = device_with_region();
        let mut seals = SealRegistry::new();
        seals.seal_region(&device, region).unwrap();
        seals.release(region);
        assert!(seals.is_empty());
        device.destroy_region(region).unwrap();
        assert_eq!(seals.verify(&device), Vec::new());
    }
}
