//! The common remote-fork interface.
//!
//! All three mechanisms the paper evaluates — CRIU-CXL (state of
//! practice), Mitosis-CXL (state of the art) and CXLfork (the
//! contribution) — follow "the standard checkpoint-and-restore interface
//! of remote fork" (§3.1): a *checkpoint* operation captures a running
//! process's state, and a *restore* operation clones it into a new process
//! on (conceptually) another node. This crate defines that interface
//! ([`RemoteFork`]) plus the report types the evaluation harness consumes:
//! restore latency, fault breakdowns and local/CXL memory consumption.
//!
//! The trait is deliberately generic over the checkpoint representation:
//! CRIU checkpoints are image files on a shared filesystem, Mitosis
//! checkpoints live in the parent node's memory, CXLfork checkpoints are
//! rebased structures in CXL device memory. What they share is the
//! lifecycle and the measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Public error enums stay `#[non_exhaustive]`: fault classes grow, and
// downstream matches must keep a wildcard arm (DESIGN.md §12).
#![warn(clippy::exhaustive_enums)]

pub mod wire;

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use cxl_mem::CxlError;
use node_os::addr::Pid;
use node_os::{Node, OsError};
use simclock::{SimDuration, SimTime};

/// Metadata common to every checkpoint representation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// The checkpointed command name.
    pub comm: String,
    /// Total process pages captured.
    pub footprint_pages: u64,
    /// Pages the checkpoint occupies on the CXL device (zero for
    /// mechanisms that keep state elsewhere).
    pub cxl_pages: u64,
    /// Virtual time at which the checkpoint completed.
    pub created_at: SimTime,
    /// Modelled cost of taking the checkpoint.
    pub checkpoint_cost: SimDuration,
    /// Number of VMAs captured.
    pub vma_count: usize,
}

/// Result of a restore: the new pid plus its cost report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Restored {
    /// The restored process on the target node.
    pub pid: Pid,
    /// The modelled restore latency — the "Restore" bar of Fig. 7a.
    pub restore_latency: SimDuration,
}

/// How a restored address space should tier checkpointed pages (§4.3).
///
/// Only CXLfork implements all three; the baselines have a fixed
/// behaviour (CRIU copies everything up front, Mitosis is inherently
/// migrate-on-access) and ignore this knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[allow(
    clippy::exhaustive_enums,
    reason = "the three tiering policies of the paper (§4.3); every mechanism matches on them"
)]
pub enum TierPolicy {
    /// Migrate-on-write: CXLfork's default.
    #[default]
    MigrateOnWrite,
    /// Migrate-on-access (no tiering).
    MigrateOnAccess,
    /// Hybrid: A-bit-guided placement.
    Hybrid,
}

impl fmt::Display for TierPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierPolicy::MigrateOnWrite => write!(f, "MoW"),
            TierPolicy::MigrateOnAccess => write!(f, "MoA"),
            TierPolicy::Hybrid => write!(f, "HT"),
        }
    }
}

/// Options for a restore operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreOptions {
    /// Tiering policy for the restored address space.
    pub policy: TierPolicy,
    /// Opportunistically prefetch checkpoint-dirty pages into local memory
    /// during restore (§4.2.1, CXLfork only).
    pub prefetch_dirty: bool,
    /// Under hybrid tiering, copy the A-set (hot) pages to local memory
    /// *synchronously during restore* instead of on first access. The
    /// paper evaluated this alternative and found it "trades off remote
    /// fork tail latency for fewer CXL faults \[and\] generally delivers
    /// lower performance" (§4.3); it is exposed for the ablation harness.
    pub sync_hot_prefetch: bool,
}

impl RestoreOptions {
    /// CXLfork's default configuration: migrate-on-write with dirty-page
    /// prefetch.
    pub fn mow() -> Self {
        RestoreOptions {
            policy: TierPolicy::MigrateOnWrite,
            prefetch_dirty: true,
            sync_hot_prefetch: false,
        }
    }

    /// Migrate-on-access (no tiering).
    pub fn moa() -> Self {
        RestoreOptions {
            policy: TierPolicy::MigrateOnAccess,
            prefetch_dirty: false,
            sync_hot_prefetch: false,
        }
    }

    /// Hybrid tiering (hot pages migrate on first access).
    pub fn hybrid() -> Self {
        RestoreOptions {
            policy: TierPolicy::Hybrid,
            prefetch_dirty: true,
            sync_hot_prefetch: false,
        }
    }

    /// The §4.3 alternative: hybrid tiering with hot pages prefetched
    /// synchronously during restore.
    pub fn hybrid_sync_prefetch() -> Self {
        RestoreOptions {
            policy: TierPolicy::Hybrid,
            prefetch_dirty: true,
            sync_hot_prefetch: true,
        }
    }
}

/// Errors from checkpoint/restore operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RforkError {
    /// An OS-level failure on the source or target node.
    Os(OsError),
    /// A CXL device failure (usually: the device is full).
    Cxl(CxlError),
    /// The checkpoint image is missing or malformed.
    BadImage(String),
    /// The process uses state the mechanism cannot checkpoint (e.g.
    /// shared anonymous mappings, §4.1).
    Unsupported(String),
    /// A record is too large for the wire format's 32-bit length prefix
    /// (the encoder refuses rather than silently truncating the length).
    OversizedRecord {
        /// Actual record length in bytes.
        len: usize,
    },
    /// Bounded-backoff retries against the CXL device gave up during a
    /// checkpoint or restore: the link stayed transiently faulted
    /// through every attempt.
    RetriesExhausted {
        /// The operation that gave up (e.g. `"checkpoint_copy"`).
        op: &'static str,
        /// Attempts made (including the first).
        attempts: u32,
        /// The last transient error observed.
        last: CxlError,
    },
    /// The checkpoint's image was evicted from the content-addressed
    /// store under capacity pressure. A typed miss, never stale bytes:
    /// the caller should discard the checkpoint handle and re-checkpoint
    /// from a warm instance.
    EvictedImage {
        /// The evicted store image id.
        image: u64,
    },
}

impl fmt::Display for RforkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RforkError::Os(e) => write!(f, "os error during remote fork: {e}"),
            RforkError::Cxl(e) => write!(f, "cxl error during remote fork: {e}"),
            RforkError::BadImage(m) => write!(f, "bad checkpoint image: {m}"),
            RforkError::Unsupported(m) => write!(f, "unsupported process state: {m}"),
            RforkError::OversizedRecord { len } => write!(
                f,
                "record of {len} bytes exceeds the wire format's u32 length prefix"
            ),
            RforkError::RetriesExhausted { op, attempts, last } => write!(
                f,
                "cxl device unavailable during {op} after {attempts} attempts: {last}"
            ),
            RforkError::EvictedImage { image } => write!(
                f,
                "checkpoint image#{image} was evicted from the store; re-checkpoint required"
            ),
        }
    }
}

impl Error for RforkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RforkError::Os(e) => Some(e),
            RforkError::Cxl(e) => Some(e),
            RforkError::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl RforkError {
    /// Types an OS error met during `op`: a device give-up becomes
    /// [`RforkError::RetriesExhausted`] naming `op` (a capture's read is
    /// `"checkpoint_read"`), a device error [`RforkError::Cxl`].
    pub fn during(op: &'static str, e: OsError) -> Self {
        match e {
            OsError::Cxl(c) => RforkError::Cxl(c),
            OsError::DeviceRetriesExhausted { attempts, last } => {
                RforkError::RetriesExhausted { op, attempts, last }
            }
            other => RforkError::Os(other),
        }
    }
}

/// An OS error outside a named operation is a page fault's.
impl From<OsError> for RforkError {
    fn from(e: OsError) -> Self {
        RforkError::during("page_fault", e)
    }
}

impl From<CxlError> for RforkError {
    fn from(e: CxlError) -> Self {
        RforkError::Cxl(e)
    }
}

/// A remote-fork mechanism: checkpoint on one node, restore on another.
///
/// Implementations charge all modelled costs to the respective node's
/// clock *and* report them in their return values, so harnesses can
/// aggregate either way.
pub trait RemoteFork {
    /// The mechanism's checkpoint representation.
    type Checkpoint;

    /// Short mechanism name for reports (`"CRIU-CXL"`, `"Mitosis-CXL"`,
    /// `"CXLfork"`).
    fn name(&self) -> &'static str;

    /// Checkpoints the running process `pid` on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`RforkError`] if the process does not exist, the device or
    /// filesystem backing the checkpoint is full, or the process holds
    /// unsupported state.
    fn checkpoint(&self, node: &mut Node, pid: Pid) -> Result<Self::Checkpoint, RforkError>;

    /// Restores a new process from `checkpoint` onto `node` with
    /// `options`.
    ///
    /// # Errors
    ///
    /// Returns [`RforkError`] if the image is unreadable or the target
    /// node lacks memory.
    fn restore_with(
        &self,
        checkpoint: &Self::Checkpoint,
        node: &mut Node,
        options: RestoreOptions,
    ) -> Result<Restored, RforkError>;

    /// Restores with the mechanism's default options.
    ///
    /// # Errors
    ///
    /// Same as [`RemoteFork::restore_with`].
    fn restore(
        &self,
        checkpoint: &Self::Checkpoint,
        node: &mut Node,
    ) -> Result<Restored, RforkError> {
        self.restore_with(checkpoint, node, RestoreOptions::default())
    }

    /// Metadata of a checkpoint.
    fn meta<'c>(&self, checkpoint: &'c Self::Checkpoint) -> &'c CheckpointMeta;

    /// The checkpoint's image id in the content-addressed store, if the
    /// mechanism routed it through one. Orchestrators use this to pin or
    /// lease images in the store; mechanisms without a store (the
    /// default) return `None`.
    fn image_id(&self, checkpoint: &Self::Checkpoint) -> Option<u64> {
        let _ = checkpoint;
        None
    }

    /// Estimated node-local pages a restore with `options` will consume
    /// (autoscalers use this to decide whether to reclaim memory before
    /// restoring). The default is pessimistic: the full footprint.
    fn restore_memory_estimate(
        &self,
        checkpoint: &Self::Checkpoint,
        options: RestoreOptions,
    ) -> u64 {
        let _ = options;
        self.meta(checkpoint).footprint_pages
    }

    /// Periodic checkpoint maintenance hook. CXLporter calls this on its
    /// maintenance interval; CXLfork uses it to reset the checkpointed A
    /// bits and re-estimate hot pages (§4.3, §5). Default: no-op.
    fn maintain(&self, checkpoint: &Self::Checkpoint) {
        let _ = checkpoint;
    }

    /// Releases a checkpoint's storage (CXL region, image files, shadow
    /// copies). CXLporter invokes this when reclaiming checkpoints under
    /// CXL memory pressure (§5). Returns the number of CXL device pages
    /// freed. Default: drop-only (no device storage to free).
    ///
    /// # Errors
    ///
    /// Implementations may fail if the backing storage is already gone.
    fn release_checkpoint(
        &self,
        checkpoint: Self::Checkpoint,
        node: &Node,
    ) -> Result<u64, RforkError> {
        let _ = (checkpoint, node);
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_policy_display() {
        assert_eq!(TierPolicy::MigrateOnWrite.to_string(), "MoW");
        assert_eq!(TierPolicy::MigrateOnAccess.to_string(), "MoA");
        assert_eq!(TierPolicy::Hybrid.to_string(), "HT");
        assert_eq!(TierPolicy::default(), TierPolicy::MigrateOnWrite);
    }

    #[test]
    fn restore_option_presets() {
        assert!(RestoreOptions::mow().prefetch_dirty);
        assert_eq!(RestoreOptions::moa().policy, TierPolicy::MigrateOnAccess);
        assert!(!RestoreOptions::moa().prefetch_dirty);
        assert_eq!(RestoreOptions::hybrid().policy, TierPolicy::Hybrid);
        assert!(!RestoreOptions::hybrid().sync_hot_prefetch);
        assert!(RestoreOptions::hybrid_sync_prefetch().sync_hot_prefetch);
        assert_eq!(RestoreOptions::default().policy, TierPolicy::MigrateOnWrite);
        assert!(!RestoreOptions::default().prefetch_dirty);
    }

    #[test]
    fn errors_convert_and_chain() {
        let e: RforkError = OsError::NoSuchProcess(Pid(1)).into();
        assert!(matches!(e, RforkError::Os(_)));
        assert!(Error::source(&e).is_some());
        // CXL errors inside OsError unwrap to the CXL variant.
        let e2: RforkError = OsError::Cxl(CxlError::BadPage(cxl_mem::CxlPageId(1))).into();
        assert!(matches!(e2, RforkError::Cxl(_)));
        let e3: RforkError = CxlError::FileNotFound("x".into()).into();
        assert!(e3.to_string().contains("cxl error"));
    }
}
