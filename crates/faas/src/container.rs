//! The container model and ghost containers.
//!
//! §5 measures two components of a serverless cold start (Fig. 6): *state
//! initialization* (function-dependent, 250–500 ms — see
//! [`crate::engine::deploy_cold`]) and *container creation* (≈130 ms,
//! roughly constant across functions: network, namespaces, cgroups). A
//! bare container with no deployed function holds only **512 KiB** of
//! memory.
//!
//! CXLporter removes container creation from the critical path with
//! **ghost containers**: pre-provisioned, configured-but-empty containers
//! that wait for function-restoration requests on a control socket.
//! Waking one costs well under a millisecond and the function is cloned
//! *into* it (CXLfork restores directly into new namespaces, §4.2).

use node_os::addr::{Pfn, Pid};
use node_os::{Node, OsError};
use simclock::SimDuration;

/// Memory footprint of a bare container (§5: 512 KiB).
pub const BARE_CONTAINER_PAGES: u64 = 512 * 1024 / 4096;

/// A container on one node.
#[derive(Debug)]
pub struct Container {
    /// Per-node container id.
    pub id: u64,
    /// The function deployed inside, if any.
    pub function: Option<String>,
    /// The process running inside, if any.
    pub pid: Option<Pid>,
    frames: Vec<Pfn>,
}

impl Container {
    /// Creates a container from scratch, charging the ≈130 ms creation
    /// cost and allocating its bare 512 KiB footprint.
    ///
    /// # Errors
    ///
    /// [`OsError::OutOfMemory`] if the node cannot hold even the bare
    /// footprint.
    pub fn create(node: &mut Node, id: u64) -> Result<(Container, SimDuration), OsError> {
        let mut frames = Vec::with_capacity(BARE_CONTAINER_PAGES as usize);
        for _ in 0..BARE_CONTAINER_PAGES {
            match node.frames_mut().alloc_zeroed() {
                Ok(pfn) => frames.push(pfn),
                Err(e) => {
                    // Roll back partial allocation.
                    for pfn in frames {
                        node.frames_mut().dec_ref(pfn);
                    }
                    return Err(e);
                }
            }
        }
        let cost = node.model().container_create();
        node.clock_mut().advance(cost);
        Ok((
            Container {
                id,
                function: None,
                pid: None,
                frames,
            },
            cost,
        ))
    }

    /// The bare-footprint frames this container pins outside any process
    /// (declared to `cxl-check` audits as external references).
    pub fn pinned_frames(&self) -> &[Pfn] {
        &self.frames
    }

    /// `true` if the container is an empty ghost awaiting a restore.
    pub fn is_ghost(&self) -> bool {
        self.pid.is_none()
    }

    /// Wakes a ghost container via its control socket so it can issue a
    /// restore request (§5). Charges the trigger cost and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the container already hosts a process.
    pub fn trigger(&self, node: &mut Node) -> SimDuration {
        assert!(self.is_ghost(), "container {} is already occupied", self.id);
        let cost = node.model().ghost_trigger();
        node.clock_mut().advance(cost);
        cost
    }

    /// Binds a restored process into the container.
    pub fn attach_process(&mut self, function: &str, pid: Pid) {
        self.function = Some(function.to_owned());
        self.pid = Some(pid);
    }

    /// Kills the inner process (if any) and empties the container back to
    /// ghost state. Returns the freed process's pid.
    ///
    /// # Errors
    ///
    /// Propagates [`OsError::NoSuchProcess`] if the tracked pid is stale.
    pub fn recycle(&mut self, node: &mut Node) -> Result<Option<Pid>, OsError> {
        if let Some(pid) = self.pid.take() {
            node.kill(pid)?;
            self.function = None;
            Ok(Some(pid))
        } else {
            Ok(None)
        }
    }

    /// Destroys the container, returning its bare frames to the node.
    ///
    /// # Errors
    ///
    /// Propagates errors from killing a still-running inner process.
    pub fn destroy(mut self, node: &mut Node) -> Result<(), OsError> {
        self.recycle(node)?;
        for pfn in self.frames.drain(..) {
            node.frames_mut().dec_ref(pfn);
        }
        Ok(())
    }

    /// The container's bare memory footprint in pages.
    pub fn bare_pages(&self) -> u64 {
        self.frames.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_mem::CxlDevice;
    use node_os::NodeConfig;
    use std::sync::Arc;

    fn node() -> Node {
        Node::new(
            NodeConfig::default().with_local_mem_mib(64),
            Arc::new(CxlDevice::with_capacity_mib(16)),
        )
    }

    #[test]
    fn create_charges_130ms_and_512kib() {
        let mut n = node();
        let (c, cost) = Container::create(&mut n, 1).unwrap();
        assert_eq!(cost.as_millis(), 130);
        assert_eq!(c.bare_pages(), 128);
        assert_eq!(n.frames().used(), 128);
        assert!(c.is_ghost());
        c.destroy(&mut n).unwrap();
        assert_eq!(n.frames().used(), 0);
    }

    #[test]
    fn trigger_is_cheap_compared_to_creation() {
        let mut n = node();
        let (c, create_cost) = Container::create(&mut n, 1).unwrap();
        let trigger_cost = c.trigger(&mut n);
        assert!(trigger_cost * 100 < create_cost);
        c.destroy(&mut n).unwrap();
    }

    #[test]
    fn attach_and_recycle_lifecycle() {
        let mut n = node();
        let (mut c, _) = Container::create(&mut n, 1).unwrap();
        let pid = n.spawn("fn").unwrap();
        c.attach_process("fn", pid);
        assert!(!c.is_ghost());
        assert_eq!(c.function.as_deref(), Some("fn"));
        let freed = c.recycle(&mut n).unwrap();
        assert_eq!(freed, Some(pid));
        assert!(c.is_ghost());
        assert!(n.process(pid).is_err(), "inner process killed");
        // Recycling a ghost is a no-op.
        assert_eq!(c.recycle(&mut n).unwrap(), None);
        c.destroy(&mut n).unwrap();
    }

    #[test]
    fn create_rolls_back_on_oom() {
        let mut n = Node::new(
            NodeConfig::default().with_local_mem_mib(0),
            Arc::new(CxlDevice::with_capacity_mib(1)),
        );
        assert!(matches!(
            Container::create(&mut n, 1),
            Err(OsError::OutOfMemory { .. })
        ));
        assert_eq!(n.frames().used(), 0);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn trigger_on_occupied_container_panics() {
        let mut n = node();
        let (mut c, _) = Container::create(&mut n, 1).unwrap();
        let pid = n.spawn("fn").unwrap();
        c.attach_process("fn", pid);
        c.trigger(&mut n);
    }
}
