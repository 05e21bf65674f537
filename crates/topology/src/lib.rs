//! # rescc-topology
//!
//! Cluster topology and link cost model for the ResCCL reproduction.
//!
//! This crate is the foundation of the stack: it defines the strongly-typed
//! identifiers ([`Rank`], [`ChunkId`], [`Step`], …), the α–β–γ link cost
//! model of the paper's Eq. (1) ([`LinkParams`]), and the cluster shapes the
//! evaluation uses ([`Topology::a100`], [`Topology::v100`],
//! [`Topology::table3_topo`]).
//!
//! ```
//! use rescc_topology::{Topology, Rank};
//!
//! let topo = Topology::a100(2, 8); // two servers, 8 A100s each
//! assert_eq!(topo.n_ranks(), 16);
//! let conn = topo.connection(Rank::new(0), Rank::new(9));
//! // inter-node path: bottlenecked by the 25 GB/s NIC
//! assert!((conn.params.bandwidth() - 25.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod health;
mod ids;
mod params;
mod resset;

pub use cluster::{ClusterSpec, Connection, PathKind, ResourceKind, Topology, TopologyError};
pub use health::TopologyHealth;
pub use ids::{ChunkId, NicId, NodeId, Rank, ResourceId, Step};
pub use params::{gbps_to_bytes_per_ns, FabricParams, LinkParams, Nanos};
pub use resset::{ResourceSet, MAX_PATH_RESOURCES};
