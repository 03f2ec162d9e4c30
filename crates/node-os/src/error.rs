//! Error type for simulated-OS operations.

use std::error::Error;
use std::fmt;

use crate::addr::{Pid, VirtPageNum};
use cxl_fault::RetryReport;
use cxl_mem::CxlError;

/// Errors surfaced by node-OS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OsError {
    /// The node's local memory is exhausted.
    ///
    /// CXLporter reacts to this by recycling idle containers (Fig. 10c).
    OutOfMemory {
        /// Frames requested.
        requested: u64,
        /// Frames currently free on the node.
        available: u64,
    },
    /// No process with that pid exists on this node.
    NoSuchProcess(Pid),
    /// The virtual page is not covered by any VMA, or a new mapping
    /// starting there is empty, overflows or ends past the
    /// [`VirtPageNum::BITS`]-bit VPN space.
    BadAddress(VirtPageNum),
    /// Access violated the VMA protection (e.g. write to read-only data).
    ProtectionViolation(VirtPageNum),
    /// A path was not found on the shared root filesystem.
    NoSuchFile(String),
    /// A new mapping overlaps an existing VMA.
    MappingOverlap(VirtPageNum),
    /// An underlying CXL device operation failed.
    Cxl(CxlError),
    /// Bounded-backoff retries against the CXL device gave up: the link
    /// stayed transiently faulted through every attempt.
    DeviceRetriesExhausted {
        /// Attempts made (including the first).
        attempts: u32,
        /// The last transient error observed.
        last: CxlError,
    },
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of local memory: requested {requested} frames, {available} free"
            ),
            OsError::NoSuchProcess(pid) => write!(f, "no such process: {pid}"),
            OsError::BadAddress(vpn) => write!(f, "no vma, or a bad mapping range, at {vpn}"),
            OsError::ProtectionViolation(vpn) => {
                write!(f, "access violates vma protection at {vpn}")
            }
            OsError::NoSuchFile(p) => write!(f, "no such file on root fs: {p}"),
            OsError::MappingOverlap(vpn) => {
                write!(f, "requested mapping overlaps existing vma at {vpn}")
            }
            OsError::Cxl(e) => write!(f, "cxl device error: {e}"),
            OsError::DeviceRetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "cxl device unavailable after {attempts} attempts: {last}"
                )
            }
        }
    }
}

impl Error for OsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OsError::Cxl(e) => Some(e),
            OsError::DeviceRetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<CxlError> for OsError {
    fn from(e: CxlError) -> Self {
        OsError::Cxl(e)
    }
}

/// Runs one device operation under [`cxl_fault::with_backoff`], typing a
/// transient give-up as [`OsError::DeviceRetriesExhausted`]. The caller
/// charges the report's backoff to its virtual clock.
pub(crate) fn with_backoff<T>(
    op: impl FnMut() -> Result<T, CxlError>,
) -> (Result<T, OsError>, RetryReport) {
    let (res, report) = cxl_fault::with_backoff(op);
    let res = res.map_err(|last| {
        if last.is_transient() {
            OsError::DeviceRetriesExhausted {
                attempts: report.attempts,
                last,
            }
        } else {
            OsError::Cxl(last)
        }
    });
    (res, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = OsError::OutOfMemory {
            requested: 4,
            available: 1,
        };
        assert!(e.to_string().contains("4 frames"));
        assert!(OsError::NoSuchProcess(Pid(3)).to_string().contains("pid3"));
        assert!(OsError::BadAddress(VirtPageNum(1))
            .to_string()
            .contains("vpn"));
    }

    #[test]
    fn cxl_errors_convert_and_chain() {
        let e: OsError = CxlError::BadPage(cxl_mem::CxlPageId(7)).into();
        assert!(matches!(e, OsError::Cxl(_)));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + Error>() {}
        assert_send_sync::<OsError>();
    }
}
