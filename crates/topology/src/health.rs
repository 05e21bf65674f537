//! Topology health overlay: which resources are administratively dead.
//!
//! When the simulator reports a *permanent*
//! `ResourceDown`, the Communicator masks the resource here and recompiles
//! the collective against the degraded topology —
//! [`Topology::connection`](crate::Topology::connection) routes around
//! masked resources (relay through a healthy peer for NVLink channels,
//! failover to a sibling NIC for network paths). The mask is part of the
//! compiled plan's identity: the plan cache fingerprints it, so plans for a
//! healthy and a degraded fabric never alias.

use crate::ids::ResourceId;

/// The set of dead resources, kept sorted and duplicate-free so that equal
/// masks are structurally equal (and hash/fingerprint identically).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopologyHealth {
    dead: Vec<ResourceId>,
}

impl TopologyHealth {
    /// A fully healthy fabric (nothing masked).
    pub fn healthy() -> Self {
        Self::default()
    }

    /// Mask `res` as dead. Returns `false` when it was already masked —
    /// the caller's recovery made no progress and should give up rather
    /// than recompile the same plan again.
    pub fn mask(&mut self, res: ResourceId) -> bool {
        match self.dead.binary_search(&res) {
            Ok(_) => false,
            Err(pos) => {
                self.dead.insert(pos, res);
                true
            }
        }
    }

    /// Un-mask `res` — it was restored and is usable again. Returns
    /// `false` when it was not masked (nothing to heal).
    pub fn unmask(&mut self, res: ResourceId) -> bool {
        match self.dead.binary_search(&res) {
            Ok(pos) => {
                self.dead.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Is `res` masked?
    pub fn is_dead(&self, res: ResourceId) -> bool {
        self.dead.binary_search(&res).is_ok()
    }

    /// Is `res` usable?
    pub fn is_healthy(&self, res: ResourceId) -> bool {
        !self.is_dead(res)
    }

    /// The masked resources, ascending.
    pub fn dead(&self) -> &[ResourceId] {
        &self.dead
    }

    /// Number of masked resources.
    pub fn len(&self) -> usize {
        self.dead.len()
    }

    /// Nothing masked?
    pub fn is_empty(&self) -> bool {
        self.dead.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_is_idempotent_and_sorted() {
        let mut h = TopologyHealth::healthy();
        assert!(h.is_empty());
        assert!(h.mask(ResourceId::new(7)));
        assert!(h.mask(ResourceId::new(3)));
        assert!(
            !h.mask(ResourceId::new(7)),
            "double mask reports no progress"
        );
        assert_eq!(h.dead(), &[ResourceId::new(3), ResourceId::new(7)]);
        assert!(h.is_dead(ResourceId::new(3)));
        assert!(h.is_healthy(ResourceId::new(4)));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn unmask_heals_and_reports_progress() {
        let mut h = TopologyHealth::healthy();
        h.mask(ResourceId::new(3));
        h.mask(ResourceId::new(7));
        assert!(h.unmask(ResourceId::new(3)));
        assert!(!h.unmask(ResourceId::new(3)), "double unmask is a no-op");
        assert_eq!(h.dead(), &[ResourceId::new(7)]);
        h.unmask(ResourceId::new(7));
        assert!(h.is_empty());
    }

    #[test]
    fn equal_masks_compare_equal_regardless_of_order() {
        let mut a = TopologyHealth::healthy();
        a.mask(ResourceId::new(1));
        a.mask(ResourceId::new(9));
        let mut b = TopologyHealth::healthy();
        b.mask(ResourceId::new(9));
        b.mask(ResourceId::new(1));
        assert_eq!(a, b);
    }
}
