//! Cluster topology: nodes, GPUs, NICs and the two-tier Clos fabric.
//!
//! The model follows the paper's testbed (§5.1): each server hosts
//! `gpus_per_node` GPUs joined by NVSwitch, plus `nics_per_node` RoCE NICs
//! with every `gpus_per_node / nics_per_node` GPUs sharing one NIC. Servers
//! attach to Top-of-Rack switches, `servers_per_rack` each; traffic between
//! racks crosses the aggregation tier and pays extra latency.
//!
//! Two resource classes model contention:
//!
//! * **Conflict resources** — the communication-dependency domain of §3.
//!   Intra-node: the per-ordered-pair NVLink channel through the NVSwitch
//!   (two tasks between the same GPU pair contend). Inter-node: the NIC TX
//!   and RX directions (tasks from/to GPUs sharing a NIC contend — the
//!   congestion §4.4 describes).
//! * **Capacity resources** — a GPU's aggregate NVLink egress/ingress port.
//!   They never trigger the Eq. (1) penalty; they only bound the summed
//!   bandwidth a GPU can drive across all of its peers simultaneously.
//!
//! A [`Connection`] carries both sets: `conflict` feeds the scheduler's
//! communication-dependency checks, `path` feeds the simulator's fluid
//! bandwidth sharing.

use crate::health::TopologyHealth;
use crate::ids::{NicId, NodeId, Rank, ResourceId};
use crate::params::{FabricParams, LinkParams};
use crate::resset::ResourceSet;

/// Error produced when constructing a topology from an invalid preset
/// selector (e.g. a Table 3 index outside 1..=4) or when decoding an
/// identifier that does not belong to the topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The requested preset does not exist.
    UnknownPreset {
        /// Which preset family was requested ("Table 3 topology").
        what: &'static str,
        /// The selector the caller passed.
        got: String,
        /// The valid selectors.
        expected: &'static str,
    },
    /// A resource id beyond the topology's resource space.
    ResourceOutOfRange {
        /// The raw resource index the caller passed.
        resource: u32,
        /// The topology's resource count (valid ids are `0..n_resources`).
        n_resources: u32,
        /// The topology's name, for context.
        topology: String,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownPreset {
                what,
                got,
                expected,
            } => write!(f, "unknown {what} {got} (expected {expected})"),
            Self::ResourceOutOfRange {
                resource,
                n_resources,
                topology,
            } => write!(
                f,
                "resource res{resource} out of range for topology {topology} \
                 ({n_resources} resources)"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Whether a connection stays inside a server or crosses the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// NVLink/NVSwitch path inside one server.
    Intra,
    /// RoCE path between servers.
    Inter {
        /// Whether the path goes through the aggregation tier of the Clos.
        cross_rack: bool,
    },
}

/// What a [`ResourceId`] denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Aggregate NVLink egress port of a GPU (capacity resource).
    GpuTx(Rank),
    /// Aggregate NVLink ingress port of a GPU (capacity resource).
    GpuRx(Rank),
    /// Transmit direction of a NIC (conflict resource).
    NicTx(NicId),
    /// Receive direction of a NIC (conflict resource).
    NicRx(NicId),
    /// The NVLink channel between an ordered intra-node GPU pair
    /// (conflict resource).
    PairChan(Rank, Rank),
}

/// A logical connection between an ordered pair of GPUs, together with the
/// contention resources it occupies and the cost parameters of its path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Connection {
    /// Path classification.
    pub kind: PathKind,
    /// Conflict resources: the communication-dependency domain.
    pub conflict: ResourceSet,
    /// All capacity resources traversed (superset of `conflict`), used for
    /// fluid bandwidth sharing in the simulator.
    pub path: ResourceSet,
    /// Cost parameters of the bottleneck link on this path.
    pub params: LinkParams,
    /// Extra one-way latency beyond `params.alpha_ns` (cross-rack hops,
    /// NVSwitch relays). The DAG keeps only the resource sets, so neither
    /// the simulator nor RA007 charges it yet.
    pub extra_latency_ns: f64,
}

impl Connection {
    /// Total startup latency of one task on this connection.
    pub fn alpha_ns(&self) -> f64 {
        self.params.alpha_ns + self.extra_latency_ns
    }

    /// Serial (uncontended, single fully-capable sender) time to move
    /// `bytes` over this connection.
    pub fn serial_cost_ns(&self, bytes: u64) -> f64 {
        self.params.serial_cost_ns(bytes) + self.extra_latency_ns
    }
}

/// Shape of a cluster: how many servers, GPUs and NICs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of servers.
    pub n_nodes: u32,
    /// GPUs per server.
    pub gpus_per_node: u32,
    /// NICs per server. Must divide `gpus_per_node`.
    pub nics_per_node: u32,
}

impl ClusterSpec {
    /// Total number of GPU ranks.
    pub fn n_ranks(&self) -> u32 {
        self.n_nodes * self.gpus_per_node
    }
}

/// A fully-resolved cluster topology.
#[derive(Clone, Debug)]
pub struct Topology {
    spec: ClusterSpec,
    fabric: FabricParams,
    /// Human-readable name ("a100-2x8", …) used in reports.
    name: String,
    /// Dead resources to route around (degraded-topology recovery).
    health: TopologyHealth,
}

impl Topology {
    /// Build a topology from a spec and fabric parameters.
    ///
    /// # Panics
    /// Panics if `nics_per_node` does not divide `gpus_per_node`, or any
    /// dimension is zero.
    pub fn new(name: impl Into<String>, spec: ClusterSpec, fabric: FabricParams) -> Self {
        assert!(spec.n_nodes >= 1, "need at least one node");
        assert!(spec.gpus_per_node >= 1, "need at least one GPU per node");
        assert!(spec.nics_per_node >= 1, "need at least one NIC per node");
        assert_eq!(
            spec.gpus_per_node % spec.nics_per_node,
            0,
            "NICs must evenly share the node's GPUs"
        );
        Self {
            spec,
            fabric,
            name: name.into(),
            health: TopologyHealth::healthy(),
        }
    }

    /// Overlay a health mask: [`Self::connection`] routes around the
    /// masked resources (relay through a healthy local peer for NVLink
    /// channels, failover to a sibling NIC for network paths).
    pub fn with_health(mut self, health: TopologyHealth) -> Self {
        self.health = health;
        self
    }

    /// The current health mask.
    pub fn health(&self) -> &TopologyHealth {
        &self.health
    }

    /// The paper's A100 testbed shape: `n_nodes` servers of `gpus_per_node`
    /// A100s, two GPUs per 200 Gb/s NIC.
    pub fn a100(n_nodes: u32, gpus_per_node: u32) -> Self {
        let nics = (gpus_per_node / 2).max(1);
        Self::new(
            format!("a100-{n_nodes}x{gpus_per_node}"),
            ClusterSpec {
                n_nodes,
                gpus_per_node,
                nics_per_node: nics,
            },
            FabricParams::a100(),
        )
    }

    /// The V100 cluster of §5.2 (100 Gb/s RoCE).
    pub fn v100(n_nodes: u32, gpus_per_node: u32) -> Self {
        let nics = (gpus_per_node / 2).max(1);
        Self::new(
            format!("v100-{n_nodes}x{gpus_per_node}"),
            ClusterSpec {
                n_nodes,
                gpus_per_node,
                nics_per_node: nics,
            },
            FabricParams::v100(),
        )
    }

    /// The four topologies of Table 3: Topo1 = 2×4, Topo2 = 2×8,
    /// Topo3 = 4×4, Topo4 = 4×8 (A100 fabric).
    pub fn table3_topo(i: usize) -> Result<Self, TopologyError> {
        match i {
            1 => Ok(Self::a100(2, 4)),
            2 => Ok(Self::a100(2, 8)),
            3 => Ok(Self::a100(4, 4)),
            4 => Ok(Self::a100(4, 8)),
            _ => Err(TopologyError::UnknownPreset {
                what: "Table 3 topology",
                got: format!("Topo{i}"),
                expected: "Topo1..Topo4",
            }),
        }
    }

    /// Topology name used in reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shape spec.
    pub fn spec(&self) -> ClusterSpec {
        self.spec
    }

    /// Fabric cost parameters.
    pub fn fabric(&self) -> &FabricParams {
        &self.fabric
    }

    /// Total number of ranks.
    pub fn n_ranks(&self) -> u32 {
        self.spec.n_ranks()
    }

    /// Number of servers.
    pub fn n_nodes(&self) -> u32 {
        self.spec.n_nodes
    }

    /// GPUs per server.
    pub fn gpus_per_node(&self) -> u32 {
        self.spec.gpus_per_node
    }

    /// Iterate over all ranks.
    pub fn ranks(&self) -> impl Iterator<Item = Rank> {
        (0..self.n_ranks()).map(Rank::new)
    }

    /// Node hosting `rank`.
    fn node_of(&self, rank: Rank) -> NodeId {
        debug_assert!(rank.0 < self.n_ranks());
        NodeId::new(rank.0 / self.spec.gpus_per_node)
    }

    /// Rank's index within its node.
    fn local_index(&self, rank: Rank) -> u32 {
        rank.0 % self.spec.gpus_per_node
    }

    /// The ranks hosted on `node`, in ascending order.
    fn ranks_on_node(&self, node: NodeId) -> impl Iterator<Item = Rank> {
        let base = node.0 * self.spec.gpus_per_node;
        (base..base + self.spec.gpus_per_node).map(Rank::new)
    }

    /// Do two ranks share a server?
    pub fn same_node(&self, a: Rank, b: Rank) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The NIC serving `rank` for inter-node traffic.
    pub fn nic_of(&self, rank: Rank) -> NicId {
        let gpus_per_nic = self.spec.gpus_per_node / self.spec.nics_per_node;
        let node = self.node_of(rank);
        let local_nic = self.local_index(rank) / gpus_per_nic;
        NicId::new(node.0 * self.spec.nics_per_node + local_nic)
    }

    /// Total number of NICs in the cluster.
    pub fn n_nics(&self) -> u32 {
        self.spec.n_nodes * self.spec.nics_per_node
    }

    /// Rack (ToR switch) of a node.
    fn rack_of(&self, node: NodeId) -> u32 {
        node.0 / self.fabric.servers_per_rack
    }

    /// Does traffic between the two ranks cross the aggregation tier?
    fn is_cross_rack(&self, a: Rank, b: Rank) -> bool {
        self.rack_of(self.node_of(a)) != self.rack_of(self.node_of(b))
    }

    /// Ordered intra-node pairs per node.
    fn pairs_per_node(&self) -> u32 {
        self.spec.gpus_per_node * (self.spec.gpus_per_node - 1)
    }

    /// Total number of contention resources:
    /// `2·n_ranks` GPU ports + `2·n_nics` NIC directions + the per-node
    /// ordered-pair NVLink channels.
    pub fn n_resources(&self) -> u32 {
        2 * self.n_ranks() + 2 * self.n_nics() + self.spec.n_nodes * self.pairs_per_node()
    }

    /// NVLink egress port of a GPU (capacity resource).
    fn gpu_tx(&self, rank: Rank) -> ResourceId {
        ResourceId::new(rank.0)
    }

    /// NVLink ingress port of a GPU (capacity resource).
    fn gpu_rx(&self, rank: Rank) -> ResourceId {
        ResourceId::new(self.n_ranks() + rank.0)
    }

    /// Transmit direction of a NIC (conflict resource).
    pub fn nic_tx(&self, nic: NicId) -> ResourceId {
        ResourceId::new(2 * self.n_ranks() + nic.0)
    }

    /// Receive direction of a NIC (conflict resource).
    pub fn nic_rx(&self, nic: NicId) -> ResourceId {
        ResourceId::new(2 * self.n_ranks() + self.n_nics() + nic.0)
    }

    /// The NVLink channel between an ordered intra-node pair
    /// (conflict resource).
    ///
    /// # Panics
    /// Panics when the ranks are on different nodes or equal.
    pub fn pair_chan(&self, src: Rank, dst: Rank) -> ResourceId {
        assert!(self.same_node(src, dst), "pair channel is intra-node only");
        assert_ne!(src, dst);
        let g = self.spec.gpus_per_node;
        let node = self.node_of(src).0;
        let ls = self.local_index(src);
        let ld = self.local_index(dst);
        let slot = ls * (g - 1) + if ld < ls { ld } else { ld - 1 };
        ResourceId::new(
            2 * self.n_ranks() + 2 * self.n_nics() + node * self.pairs_per_node() + slot,
        )
    }

    /// Decode a resource id back to its meaning.
    ///
    /// Errors with [`TopologyError::ResourceOutOfRange`] when `res` lies
    /// beyond this topology's resource space — which happens in practice
    /// when a caller mixes ids across topologies of different shapes.
    pub fn resource_kind(&self, res: ResourceId) -> Result<ResourceKind, TopologyError> {
        let n = self.n_ranks();
        let nics = self.n_nics();
        let pair_base = 2 * n + 2 * nics;
        if res.0 < n {
            Ok(ResourceKind::GpuTx(Rank::new(res.0)))
        } else if res.0 < 2 * n {
            Ok(ResourceKind::GpuRx(Rank::new(res.0 - n)))
        } else if res.0 < 2 * n + nics {
            Ok(ResourceKind::NicTx(NicId::new(res.0 - 2 * n)))
        } else if res.0 < pair_base {
            Ok(ResourceKind::NicRx(NicId::new(res.0 - 2 * n - nics)))
        } else if res.0 < self.n_resources() {
            let g = self.spec.gpus_per_node;
            let idx = res.0 - pair_base;
            let node = idx / self.pairs_per_node();
            let slot = idx % self.pairs_per_node();
            let ls = slot / (g - 1);
            let rem = slot % (g - 1);
            let ld = if rem < ls { rem } else { rem + 1 };
            Ok(ResourceKind::PairChan(
                Rank::new(node * g + ls),
                Rank::new(node * g + ld),
            ))
        } else {
            Err(TopologyError::ResourceOutOfRange {
                resource: res.0,
                n_resources: self.n_resources(),
                topology: self.name.clone(),
            })
        }
    }

    /// Cost parameters of a resource.
    ///
    /// Errors when `res` is outside this topology (see
    /// [`Topology::resource_kind`]).
    pub fn resource_params(&self, res: ResourceId) -> Result<LinkParams, TopologyError> {
        Ok(match self.resource_kind(res)? {
            ResourceKind::GpuTx(_) | ResourceKind::GpuRx(_) => self.fabric.port,
            ResourceKind::NicTx(_) | ResourceKind::NicRx(_) => self.fabric.inter,
            ResourceKind::PairChan(_, _) => self.fabric.intra,
        })
    }

    /// Resolve the connection between an ordered pair of distinct ranks.
    ///
    /// # Panics
    /// Panics if `src == dst` — a rank never transfers to itself; local
    /// copies are not transmission tasks.
    pub fn connection(&self, src: Rank, dst: Rank) -> Connection {
        assert_ne!(src, dst, "self-connection {src}->{dst} is not a transfer");
        assert!(src.0 < self.n_ranks() && dst.0 < self.n_ranks());
        if self.same_node(src, dst) {
            let chan = self.pair_chan(src, dst);
            if self.health.is_dead(chan) {
                if let Some(relay) = self.relay_for(src, dst) {
                    // NVSwitch-style reroute: bounce through a healthy
                    // local peer. Two pair channels carry (and contend
                    // for) the transfer, and the extra hop pays another
                    // switch traversal of latency.
                    let c1 = self.pair_chan(src, relay);
                    let c2 = self.pair_chan(relay, dst);
                    return Connection {
                        kind: PathKind::Intra,
                        conflict: ResourceSet::from_slice(&[c1, c2]),
                        path: ResourceSet::from_slice(&[
                            c1,
                            c2,
                            self.gpu_tx(src),
                            self.gpu_rx(dst),
                        ]),
                        params: self.fabric.intra,
                        extra_latency_ns: self.fabric.intra.alpha_ns,
                    };
                }
                // No healthy relay: fall through to the dead direct
                // channel — the simulator fails the first transfer on it
                // with a permanent `ResourceDown`.
            }
            Connection {
                kind: PathKind::Intra,
                conflict: ResourceSet::from_slice(&[chan]),
                path: ResourceSet::from_slice(&[chan, self.gpu_tx(src), self.gpu_rx(dst)]),
                params: self.fabric.intra,
                extra_latency_ns: 0.0,
            }
        } else {
            let cross = self.is_cross_rack(src, dst);
            let tx = self.healthy_nic_tx(src);
            let rx = self.healthy_nic_rx(dst);
            Connection {
                kind: PathKind::Inter { cross_rack: cross },
                conflict: ResourceSet::from_slice(&[tx, rx]),
                path: ResourceSet::from_slice(&[tx, rx]),
                params: self.fabric.inter,
                extra_latency_ns: if cross {
                    self.fabric.cross_rack_extra_ns
                } else {
                    0.0
                },
            }
        }
    }

    /// A local rank whose channels from `src` and to `dst` are both
    /// healthy, to relay around a dead direct channel. Deterministic:
    /// the lowest-index candidate wins.
    fn relay_for(&self, src: Rank, dst: Rank) -> Option<Rank> {
        self.ranks_on_node(self.node_of(src)).find(|&c| {
            c != src
                && c != dst
                && self.health.is_healthy(self.pair_chan(src, c))
                && self.health.is_healthy(self.pair_chan(c, dst))
        })
    }

    /// The TX direction `src` uses for inter-node traffic: its primary
    /// NIC, or — when that direction is masked — the first healthy
    /// sibling NIC on the node (NIC failover). Falls back to the dead
    /// primary when every sibling is masked too, so the simulator
    /// surfaces the unrecoverable failure.
    fn healthy_nic_tx(&self, src: Rank) -> ResourceId {
        let primary = self.nic_of(src);
        self.failover_nic(primary, |nic| self.nic_tx(nic))
    }

    /// The RX direction `dst` uses for inter-node traffic (see
    /// [`Self::healthy_nic_tx`]).
    fn healthy_nic_rx(&self, dst: Rank) -> ResourceId {
        let primary = self.nic_of(dst);
        self.failover_nic(primary, |nic| self.nic_rx(nic))
    }

    fn failover_nic(&self, primary: NicId, dir: impl Fn(NicId) -> ResourceId) -> ResourceId {
        let nics = self.spec.nics_per_node;
        let base = (primary.0 / nics) * nics;
        (0..nics)
            .map(|k| dir(NicId::new(base + (primary.0 - base + k) % nics)))
            .find(|&r| self.health.is_healthy(r))
            .unwrap_or_else(|| dir(primary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo2() -> Topology {
        Topology::a100(2, 8)
    }

    /// The communication dependency of §3: do two ordered pairs share a
    /// conflict resource?
    fn interferes(t: &Topology, a: (u32, u32), b: (u32, u32)) -> bool {
        let conflict = |(src, dst)| t.connection(Rank::new(src), Rank::new(dst)).conflict;
        conflict(a).iter().any(|r| conflict(b).contains(r))
    }

    #[test]
    fn rank_node_nic_mapping() {
        let t = topo2();
        assert_eq!(t.n_ranks(), 16);
        assert_eq!(t.node_of(Rank::new(0)), NodeId::new(0));
        assert_eq!(t.node_of(Rank::new(7)), NodeId::new(0));
        assert_eq!(t.node_of(Rank::new(8)), NodeId::new(1));
        // 8 GPUs / 4 NICs => 2 GPUs per NIC.
        assert_eq!(t.nic_of(Rank::new(0)), t.nic_of(Rank::new(1)));
        assert_ne!(t.nic_of(Rank::new(1)), t.nic_of(Rank::new(2)));
        assert_eq!(t.nic_of(Rank::new(8)), NicId::new(4));
    }

    #[test]
    fn intra_connection_conflicts_on_pair_channel() {
        let t = topo2();
        let c = t.connection(Rank::new(0), Rank::new(3));
        assert_eq!(c.kind, PathKind::Intra);
        assert_eq!(c.conflict.len(), 1);
        assert_eq!(
            t.resource_kind(c.conflict.as_slice()[0]).unwrap(),
            ResourceKind::PairChan(Rank::new(0), Rank::new(3))
        );
        // Path additionally traverses the GPU ports.
        assert!(c.path.contains(t.gpu_tx(Rank::new(0))));
        assert!(c.path.contains(t.gpu_rx(Rank::new(3))));
    }

    #[test]
    fn inter_connection_uses_nics() {
        let t = topo2();
        let c = t.connection(Rank::new(0), Rank::new(8));
        assert_eq!(c.kind, PathKind::Inter { cross_rack: false });
        assert!(matches!(
            t.resource_kind(c.conflict.as_slice()[0]).unwrap(),
            ResourceKind::NicTx(_)
        ));
        assert!(matches!(
            t.resource_kind(c.conflict.as_slice()[1]).unwrap(),
            ResourceKind::NicRx(_)
        ));
    }

    #[test]
    fn cross_rack_adds_latency() {
        let t = Topology::a100(4, 8); // two servers per rack
        let near = t.connection(Rank::new(0), Rank::new(8));
        let far = t.connection(Rank::new(0), Rank::new(16));
        assert_eq!(near.extra_latency_ns, 0.0);
        assert!(far.extra_latency_ns > 0.0);
        assert!(far.serial_cost_ns(1 << 20) > near.serial_cost_ns(1 << 20));
    }

    #[test]
    fn nic_sharing_creates_interference() {
        let t = topo2();
        // Ranks 0 and 1 share a NIC: their inter-node sends interfere.
        assert!(interferes(&t, (0, 8), (1, 9)));
        // Ranks 0 and 2 use distinct NICs and distinct destinations.
        assert!(!interferes(&t, (0, 8), (2, 10)));
    }

    #[test]
    fn intra_interference_is_per_pair_not_per_port() {
        let t = topo2();
        // Two transfers between the same ordered pair interfere.
        assert!(interferes(&t, (0, 1), (0, 1)));
        // Sends from the same GPU to different peers do NOT conflict
        // (mesh algorithms legitimately fan out) — the shared egress port
        // is a capacity resource, not a conflict resource.
        assert!(!interferes(&t, (0, 1), (0, 2)));
        // Opposite directions of a pair are distinct channels.
        assert!(!interferes(&t, (0, 1), (1, 0)));
    }

    #[test]
    fn resource_ids_decode() {
        let t = topo2();
        for r in 0..t.n_resources() {
            match t.resource_kind(ResourceId::new(r)).unwrap() {
                ResourceKind::GpuTx(g) => assert_eq!(t.gpu_tx(g).0, r),
                ResourceKind::GpuRx(g) => assert_eq!(t.gpu_rx(g).0, r),
                ResourceKind::NicTx(n) => assert_eq!(t.nic_tx(n).0, r),
                ResourceKind::NicRx(n) => assert_eq!(t.nic_rx(n).0, r),
                ResourceKind::PairChan(a, b) => assert_eq!(t.pair_chan(a, b).0, r),
            }
        }
    }

    #[test]
    fn out_of_range_resource_is_a_typed_error() {
        let t = topo2();
        let bad = ResourceId::new(t.n_resources());
        let err = t.resource_kind(bad).unwrap_err();
        assert!(matches!(err, TopologyError::ResourceOutOfRange { .. }));
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(t.resource_params(bad).is_err());
        // The last valid id still decodes.
        assert!(t
            .resource_kind(ResourceId::new(t.n_resources() - 1))
            .is_ok());
    }

    #[test]
    fn pair_chan_distinct_per_ordered_pair() {
        let t = Topology::a100(2, 4);
        let mut seen = std::collections::HashSet::new();
        for node in 0..2u32 {
            for i in 0..4u32 {
                for j in 0..4u32 {
                    if i == j {
                        continue;
                    }
                    let a = Rank::new(node * 4 + i);
                    let b = Rank::new(node * 4 + j);
                    assert!(seen.insert(t.pair_chan(a, b)), "duplicate channel {a}->{b}");
                }
            }
        }
        assert_eq!(seen.len(), 2 * 4 * 3);
    }

    #[test]
    #[should_panic(expected = "self-connection")]
    fn self_connection_panics() {
        topo2().connection(Rank::new(3), Rank::new(3));
    }

    #[test]
    #[should_panic(expected = "intra-node only")]
    fn cross_node_pair_chan_panics() {
        topo2().pair_chan(Rank::new(0), Rank::new(8));
    }

    #[test]
    fn table3_presets() {
        assert_eq!(Topology::table3_topo(1).unwrap().n_ranks(), 8);
        assert_eq!(Topology::table3_topo(2).unwrap().n_ranks(), 16);
        assert_eq!(Topology::table3_topo(3).unwrap().n_ranks(), 16);
        assert_eq!(Topology::table3_topo(4).unwrap().n_ranks(), 32);
    }

    #[test]
    fn table3_out_of_range_is_a_typed_error() {
        let err = Topology::table3_topo(5).unwrap_err();
        assert!(matches!(err, TopologyError::UnknownPreset { .. }));
        assert!(err.to_string().contains("Topo5"));
        assert!(Topology::table3_topo(0).is_err());
    }

    #[test]
    fn large_emulated_scale() {
        // Fig. 10a emulates up to 1024 GPUs offline — topology math must
        // hold at that scale without materializing O(N^2) state.
        let t = Topology::a100(128, 8);
        assert_eq!(t.n_ranks(), 1024);
        let c = t.connection(Rank::new(0), Rank::new(1023));
        assert!(matches!(c.kind, PathKind::Inter { .. }));
        let c2 = t.connection(Rank::new(1020), Rank::new(1023));
        assert!(matches!(c2.kind, PathKind::Intra));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn interference_is_symmetric_and_resources_decode(
                nodes in 1u32..6,
                g_half in 1u32..5,
                a in 0u32..1000,
                b in 0u32..1000,
                c in 0u32..1000,
                d in 0u32..1000,
            ) {
                let g = 2 * g_half;
                let t = Topology::a100(nodes, g);
                let n = t.n_ranks();
                let (a, b, c, d) = (a % n, b % n, c % n, d % n);
                prop_assume!(a != b && c != d);
                let (pa, pb) = ((a, b), (c, d));
                prop_assert_eq!(interferes(&t, pa, pb), interferes(&t, pb, pa));
                // A pair always interferes with itself.
                prop_assert!(interferes(&t, pa, pa));
                // Every resource id decodes and re-encodes.
                for r in 0..t.n_resources() {
                    match t.resource_kind(ResourceId::new(r)).unwrap() {
                        ResourceKind::GpuTx(x) => prop_assert_eq!(t.gpu_tx(x).0, r),
                        ResourceKind::GpuRx(x) => prop_assert_eq!(t.gpu_rx(x).0, r),
                        ResourceKind::NicTx(x) => prop_assert_eq!(t.nic_tx(x).0, r),
                        ResourceKind::NicRx(x) => prop_assert_eq!(t.nic_rx(x).0, r),
                        ResourceKind::PairChan(x, y) => {
                            prop_assert_eq!(t.pair_chan(x, y).0, r)
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dead_pair_channel_routes_through_relay() {
        let t = topo2();
        let (a, b) = (Rank::new(0), Rank::new(1));
        let chan = t.pair_chan(a, b);
        let mut health = crate::TopologyHealth::healthy();
        health.mask(chan);
        let t = t.with_health(health);
        let c = t.connection(a, b);
        assert_eq!(c.kind, PathKind::Intra);
        assert!(!c.path.contains(chan), "must not use the dead channel");
        assert_eq!(c.conflict.len(), 2, "relay spans two pair channels");
        // Lowest-index healthy relay is rank 2.
        assert!(c.conflict.contains(t.pair_chan(a, Rank::new(2))));
        assert!(c.conflict.contains(t.pair_chan(Rank::new(2), b)));
        assert!(c.extra_latency_ns > 0.0, "relay pays an extra hop");
        // The reverse direction is unaffected.
        let rev = t.connection(b, a);
        assert_eq!(rev.conflict.len(), 1);
    }

    #[test]
    fn dead_nic_fails_over_to_sibling() {
        let t = topo2();
        let (src, dst) = (Rank::new(0), Rank::new(8));
        let primary_tx = t.nic_tx(t.nic_of(src));
        let mut health = crate::TopologyHealth::healthy();
        health.mask(primary_tx);
        let t = t.with_health(health);
        let c = t.connection(src, dst);
        assert!(!c.conflict.contains(primary_tx));
        // Failover lands on the next NIC of node 0 (nic1 tx).
        assert!(c.conflict.contains(t.nic_tx(NicId::new(1))));
        // RX side untouched.
        assert!(c.conflict.contains(t.nic_rx(t.nic_of(dst))));
    }

    #[test]
    fn all_masked_falls_back_to_dead_primary() {
        // 2 GPUs per node, 1 NIC per node: no sibling to fail over to, and
        // no third rank to relay through — the dead resource stays on the
        // path so the simulator can surface the unrecoverable failure.
        let t = Topology::a100(2, 2);
        let chan = t.pair_chan(Rank::new(0), Rank::new(1));
        let nic_tx = t.nic_tx(t.nic_of(Rank::new(0)));
        let mut health = crate::TopologyHealth::healthy();
        health.mask(chan);
        health.mask(nic_tx);
        let t = t.with_health(health);
        assert!(t.connection(Rank::new(0), Rank::new(1)).path.contains(chan));
        assert!(t
            .connection(Rank::new(0), Rank::new(2))
            .conflict
            .contains(nic_tx));
    }

    #[test]
    fn healthy_topology_unchanged_by_empty_mask() {
        let plain = topo2();
        let masked = topo2().with_health(crate::TopologyHealth::healthy());
        for (s, d) in [(0u32, 1u32), (0, 8), (3, 12)] {
            let a = plain.connection(Rank::new(s), Rank::new(d));
            let b = masked.connection(Rank::new(s), Rank::new(d));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn single_gpu_nodes_have_no_pair_channels() {
        let t = Topology::new(
            "tiny",
            ClusterSpec {
                n_nodes: 4,
                gpus_per_node: 1,
                nics_per_node: 1,
            },
            FabricParams::a100(),
        );
        assert_eq!(t.n_resources(), 2 * 4 + 2 * 4);
        let c = t.connection(Rank::new(0), Rank::new(3));
        assert!(matches!(c.kind, PathKind::Inter { .. }));
    }
}
