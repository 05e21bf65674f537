//! Topology analysis helpers: aggregate bandwidth figures a user needs when
//! sizing algorithms for a cluster (and that the benchmarks use to sanity-
//! check measured algbw against physical limits).

use crate::cluster::Topology;
use crate::ids::NodeId;

impl Topology {
    /// Aggregate injection bandwidth of one node into the fabric, bytes/ns
    /// (sum of its NIC TX line rates).
    pub fn node_injection_bandwidth(&self) -> f64 {
        self.spec().nics_per_node as f64 * self.fabric().inter.bandwidth()
    }

    /// Bisection bandwidth of the (non-blocking Clos) fabric: the smaller
    /// half's aggregate injection capacity, bytes/ns.
    pub fn bisection_bandwidth(&self) -> f64 {
        let half = self.n_nodes() / 2;
        if half == 0 {
            return f64::INFINITY; // single node: NVSwitch only
        }
        half as f64 * self.node_injection_bandwidth()
    }

    /// Aggregate NVLink egress bandwidth of a single GPU, bytes/ns.
    pub fn gpu_port_bandwidth(&self) -> f64 {
        self.fabric().port.bandwidth()
    }

    /// Hop diameter between two ranks: 0 (same GPU), 1 (same node),
    /// 2 (same rack), 3 (cross rack).
    pub fn hop_distance(&self, a: crate::Rank, b: crate::Rank) -> u32 {
        if a == b {
            0
        } else if self.same_node(a, b) {
            1
        } else if !self.is_cross_rack(a, b) {
            2
        } else {
            3
        }
    }

    /// Ranks per rack (for hierarchical algorithm sizing).
    pub fn ranks_per_rack(&self) -> u32 {
        self.fabric().servers_per_rack * self.gpus_per_node()
    }

    /// Number of racks.
    pub fn n_racks(&self) -> u32 {
        self.n_nodes().div_ceil(self.fabric().servers_per_rack)
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n_nodes()).map(NodeId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rank;

    #[test]
    fn injection_and_bisection() {
        let t = Topology::a100(4, 8); // 4 NICs × 25 GB/s per node
        assert!((t.node_injection_bandwidth() - 100.0).abs() < 1e-9);
        assert!((t.bisection_bandwidth() - 200.0).abs() < 1e-9);
        let single = Topology::a100(1, 8);
        assert!(single.bisection_bandwidth().is_infinite());
    }

    #[test]
    fn hop_distances() {
        let t = Topology::a100(4, 8);
        assert_eq!(t.hop_distance(Rank::new(3), Rank::new(3)), 0);
        assert_eq!(t.hop_distance(Rank::new(0), Rank::new(7)), 1);
        assert_eq!(t.hop_distance(Rank::new(0), Rank::new(8)), 2);
        assert_eq!(t.hop_distance(Rank::new(0), Rank::new(16)), 3);
    }

    #[test]
    fn rack_counts() {
        let t = Topology::a100(4, 8);
        assert_eq!(t.n_racks(), 2);
        assert_eq!(t.ranks_per_rack(), 16);
        let t3 = Topology::a100(3, 4);
        assert_eq!(t3.n_racks(), 2);
    }
}
