//! Lease-based reclamation of orphaned checkpoint staging regions.
//!
//! The two-phase checkpoint commit (`core::checkpoint`) writes into an
//! *uncommitted* staging region and publishes it atomically at the end.
//! If the checkpointing node dies first, the staging region — invisible
//! to restore, but holding real device pages — would leak forever.
//! Ownership is therefore leased: every live node renews a lease on the
//! [`LeaseTable`]; a GC pass reclaims any staging region whose owner's
//! lease has expired (or was revoked by an observed crash).

use std::collections::BTreeMap;

use cxl_mem::{CxlDevice, NodeId};
use simclock::{SimDuration, SimTime};

/// Per-node liveness leases, keyed by expiry time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseTable {
    ttl: SimDuration,
    /// Expiry time of each node's current lease.
    leases: BTreeMap<NodeId, SimTime>,
}

impl LeaseTable {
    /// A table whose leases last `ttl` past each renewal.
    pub fn new(ttl: SimDuration) -> Self {
        LeaseTable {
            ttl,
            leases: BTreeMap::new(),
        }
    }

    /// The configured lease duration.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Renews `node`'s lease as of `now`: the lease is live over the
    /// half-open window `[now, now + ttl)`.
    pub fn renew(&mut self, node: NodeId, now: SimTime) {
        self.leases.insert(node, now.saturating_add(self.ttl));
    }

    /// Expiry instant of `node`'s current lease (the first instant at
    /// which the lease is *dead* — see [`LeaseTable::is_live`]), or
    /// `None` if the node never renewed or was revoked.
    pub fn expires_at(&self, node: NodeId) -> Option<SimTime> {
        self.leases.get(&node).copied()
    }

    /// Drops `node`'s lease immediately (an observed crash — no need to
    /// wait out the TTL).
    pub fn revoke(&mut self, node: NodeId) {
        self.leases.remove(&node);
    }

    /// Whether `node` holds an unexpired lease at `now`. Nodes that
    /// never renewed are not live: leases are opt-in, so an unknown
    /// owner is treated as dead and its staging regions reclaimable.
    ///
    /// The lease window is **half-open**: a lease renewed at `t` is live
    /// on `[t, t + ttl)` and dead *at* `t + ttl` exactly. The strict
    /// `<` makes the boundary unambiguous in virtual time — a GC pass
    /// running at precisely the expiry instant reclaims, and a renewal
    /// at precisely the expiry instant re-arms the lease for the next
    /// window with no dead gap (renewal wins because it writes a new
    /// expiry before any later `is_live` query can observe the old one).
    pub fn is_live(&self, node: NodeId, now: SimTime) -> bool {
        self.leases.get(&node).is_some_and(|expiry| now < *expiry)
    }
}

/// What one reclamation pass freed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimReport {
    /// Staging regions destroyed.
    pub regions: u64,
    /// Device pages freed with them.
    pub pages: u64,
}

impl ReclaimReport {
    /// Merges another report into this one.
    pub fn absorb(&mut self, other: ReclaimReport) {
        self.regions += other.regions;
        self.pages += other.pages;
    }
}

/// Destroys every uncommitted staging region whose owner does not hold a
/// live lease at `now`. Committed checkpoints are never touched — they
/// are exactly the regions that must survive their owner's death.
pub fn reclaim_orphans(device: &CxlDevice, leases: &LeaseTable, now: SimTime) -> ReclaimReport {
    let mut report = ReclaimReport::default();
    for staged in device.staging_regions() {
        if !leases.is_live(staged.owner, now) && device.destroy_region(staged.region).is_ok() {
            report.regions += 1;
            report.pages += staged.pages;
        }
    }
    report
}

/// Destroys every uncommitted staging region owned by one of `dead`
/// (end-of-run cleanup once crashes are known exactly).
pub fn reclaim_dead(device: &CxlDevice, dead: &[NodeId]) -> ReclaimReport {
    let mut report = ReclaimReport::default();
    for staged in device.staging_regions() {
        if dead.contains(&staged.owner) && device.destroy_region(staged.region).is_ok() {
            report.regions += 1;
            report.pages += staged.pages;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_expire_and_renew() {
        let mut t = LeaseTable::new(SimDuration::from_secs(10));
        let n = NodeId(0);
        assert!(!t.is_live(n, SimTime::ZERO), "never-renewed node is dead");
        t.renew(n, SimTime::ZERO);
        assert!(t.is_live(n, SimTime::ZERO + SimDuration::from_secs(9)));
        assert!(!t.is_live(n, SimTime::ZERO + SimDuration::from_secs(10)));
        t.renew(n, SimTime::ZERO + SimDuration::from_secs(10));
        assert!(t.is_live(n, SimTime::ZERO + SimDuration::from_secs(19)));
        t.revoke(n);
        assert!(!t.is_live(n, SimTime::ZERO + SimDuration::from_secs(11)));
    }

    #[test]
    fn lease_boundary_is_half_open_and_renewal_at_expiry_rearms() {
        let ttl = SimDuration::from_secs(10);
        let mut t = LeaseTable::new(ttl);
        let n = NodeId(3);
        t.renew(n, SimTime::ZERO);
        let expiry = t.expires_at(n).unwrap();
        assert_eq!(expiry, SimTime::ZERO + ttl);
        // Live strictly before expiry, dead at exactly expiry.
        assert!(t.is_live(
            n,
            SimTime::ZERO + SimDuration::from_nanos(ttl.as_nanos() - 1)
        ));
        assert!(!t.is_live(n, expiry), "dead at exactly t + ttl");
        // Renewal at exactly the expiry instant re-arms with no gap.
        t.renew(n, expiry);
        assert!(t.is_live(n, expiry));
        assert_eq!(t.expires_at(n), Some(expiry + ttl));
    }

    #[test]
    fn reclaim_orphans_at_exactly_the_expiry_instant() {
        let device = CxlDevice::new(64);
        let ttl = SimDuration::from_secs(10);
        let mut leases = LeaseTable::new(ttl);
        leases.renew(NodeId(1), SimTime::ZERO);
        let expiry = leases.expires_at(NodeId(1)).unwrap();

        let staged = device.create_region_staged("boundary-staging", NodeId(1), 1);
        device.alloc_batch(staged, 2).unwrap();

        // One nanosecond before expiry: the owner is still live, nothing
        // is reclaimed.
        let just_before = SimTime::ZERO + SimDuration::from_nanos(ttl.as_nanos() - 1);
        assert_eq!(
            reclaim_orphans(&device, &leases, just_before),
            ReclaimReport::default()
        );

        // Renewal at exactly the expiry instant keeps the region safe
        // through the whole next window.
        let mut renewed = leases.clone();
        renewed.renew(NodeId(1), expiry);
        assert_eq!(
            reclaim_orphans(&device, &renewed, expiry),
            ReclaimReport::default()
        );
        assert_eq!(device.region_usage(staged).unwrap().pages, 2);

        // Without the renewal, a GC pass at exactly the expiry instant
        // reclaims: the half-open window has closed.
        let report = reclaim_orphans(&device, &leases, expiry);
        assert_eq!(
            report,
            ReclaimReport {
                regions: 1,
                pages: 2
            }
        );
        assert!(device.region_usage(staged).is_err());
    }

    #[test]
    fn gc_reclaims_only_dead_owned_staging_regions() {
        let device = CxlDevice::new(64);
        let mut leases = LeaseTable::new(SimDuration::from_secs(10));
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        leases.renew(NodeId(0), SimTime::ZERO);

        // Live owner's staging region: kept.
        let live_staged = device.create_region_staged("live-staging", NodeId(0), 1);
        device.alloc_batch(live_staged, 2).unwrap();
        // Dead owner's staging region: reclaimed.
        let dead_staged = device.create_region_staged("dead-staging", NodeId(1), 1);
        device.alloc_batch(dead_staged, 3).unwrap();
        // Dead owner's *committed* checkpoint: survives its owner.
        let committed = device.create_region_staged("dead-committed", NodeId(1), 0);
        device.alloc_batch(committed, 4).unwrap();
        device.commit_region(committed).unwrap();

        let report = reclaim_orphans(&device, &leases, now);
        assert_eq!(
            report,
            ReclaimReport {
                regions: 1,
                pages: 3
            }
        );
        assert!(device.region_usage(dead_staged).is_err());
        assert_eq!(device.region_usage(live_staged).unwrap().pages, 2);
        assert_eq!(device.region_usage(committed).unwrap().pages, 4);

        // End-of-run sweep with an explicit dead list.
        let sweep = reclaim_dead(&device, &[NodeId(0)]);
        assert_eq!(
            sweep,
            ReclaimReport {
                regions: 1,
                pages: 2
            }
        );
        assert!(device.staging_regions().is_empty());
    }
}
