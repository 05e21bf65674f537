//! # rescc-ir
//!
//! Intermediate representation of collective algorithms: transmission
//! tasks, the dependency DAG of §3 (data dependencies as edges,
//! communication dependencies as an interference relation over shared
//! contention resources), and micro-batch planning.
//!
//! ```
//! use rescc_ir::DepDag;
//! use rescc_lang::{AlgoBuilder, OpType};
//! use rescc_topology::Topology;
//!
//! let mut b = AlgoBuilder::new("Ring", OpType::AllGather, 8);
//! for r in 0..8u32 {
//!     for step in 0..7u32 {
//!         b.recv(r, (r + 1) % 8, step, (r + 8 - step) % 8);
//!     }
//! }
//! let spec = b.build().unwrap();
//! let dag = DepDag::build(&spec, &Topology::a100(1, 8)).unwrap();
//! assert_eq!(dag.len(), 56);
//! // Each chunk's tasks in step order, chunk after chunk.
//! let order = dag.topo_order();
//! assert!(dag.validate_order(&order).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dag;
mod dense;
mod error;
mod loads;
mod microbatch;
mod task;

pub use dag::{DepDag, DepIndex, TaskIter, Tasks};
pub use dense::Csr;
pub use error::{IrError, Result};
pub use loads::ConflictLoads;
pub use microbatch::MicroBatchPlan;
pub use task::{Task, TaskId};
