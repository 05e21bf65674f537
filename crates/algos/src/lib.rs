//! # rescc-algos
//!
//! The collective algorithm library: expert-designed algorithms (ring,
//! double binary tree, the hierarchical-mesh HM family of Appendix A),
//! synthesizer emulations (TACCL-like, TECCL-like), spec combinators
//! (reversal, AllReduce composition) and ResCCLang source generators.
//!
//! Every algorithm here is machine-verified: the test suite compiles each
//! through the full ResCCL pipeline and checks the simulated buffers
//! against the collective's contract.
//!
//! ```
//! use rescc_algos::{hm_allreduce, ring_allgather};
//!
//! let ar = hm_allreduce(4, 8); // the paper's 32-GPU Fig. 16 program
//! assert_eq!(ar.n_ranks(), 32);
//! let ag = ring_allgather(8);
//! assert_eq!(ag.transfers().len(), 8 * 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod dsl;
mod hm;
mod nccl_rings;
mod recursive;
mod ring;
mod synth;
mod testutil;
mod tree;

pub use compose::{compose_allreduce, reverse_allgather};
pub use dsl::{hm_allgather_source, hm_allreduce_source, ring_allgather_source};
pub use hm::{hm_allgather, hm_allreduce, hm_reduce_scatter};
pub use nccl_rings::{nccl_rings_allgather, nccl_rings_allreduce, nccl_rings_reduce_scatter};
pub use recursive::{
    recursive_doubling_allgather, recursive_halving_doubling_allreduce,
    recursive_halving_reduce_scatter,
};
pub use ring::{ring_allgather, ring_allreduce, ring_reduce_scatter};
pub use synth::{
    taccl_like_allgather, taccl_like_allreduce, teccl_like_allgather, teccl_like_allreduce,
};
pub use tree::dbtree_allreduce;

use rescc_lang::AlgoSpec;

/// The seed algorithm library for one `nodes × g` shape: the HM family,
/// the flat rings, NCCL's two-ring AllReduce, and — when the rank count
/// is a power of two — the recursive algorithms and the double binary
/// tree. `rescc-lint --all` checks it on every Table-3 topology.
pub fn seed_suite(nodes: u32, g: u32) -> Vec<AlgoSpec> {
    let n = nodes * g;
    let mut suite = vec![
        hm_allgather(nodes, g),
        hm_reduce_scatter(nodes, g),
        hm_allreduce(nodes, g),
        ring_allgather(n),
        ring_reduce_scatter(n),
        ring_allreduce(n),
        nccl_rings_allreduce(nodes, g, 2),
    ];
    if n.is_power_of_two() {
        suite.push(recursive_doubling_allgather(n));
        suite.push(recursive_halving_reduce_scatter(n));
        suite.push(recursive_halving_doubling_allreduce(n));
        suite.push(dbtree_allreduce(n));
    }
    suite
}
