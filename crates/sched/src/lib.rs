//! # rescc-sched
//!
//! Primitive-level execution scheduling (§4.3): the **HPDS** scheduler
//! (Algorithm 1), the round-robin baseline of Fig. 10(b), the by-step
//! order the NCCL and MSCCL baselines run, and stage partitioning for
//! MSCCL-style stage-level execution.
//!
//! ```
//! use rescc_lang::{AlgoBuilder, OpType};
//! use rescc_ir::DepDag;
//! use rescc_sched::hpds;
//! use rescc_topology::Topology;
//!
//! let mut b = AlgoBuilder::new("Ring", OpType::AllGather, 8);
//! for r in 0..8u32 {
//!     for step in 0..7u32 {
//!         b.recv(r, (r + 1) % 8, step, (r + 8 - step) % 8);
//!     }
//! }
//! let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(1, 8)).unwrap();
//! let schedule = hpds(&dag);
//! schedule.validate(&dag).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod by_step;
mod flat;
mod hpds;
mod rr;
mod schedule;
mod stage;

pub use by_step::by_step;
pub use hpds::{hpds, hpds_with_threads};
pub use rr::round_robin;
pub use schedule::Schedule;
pub use stage::StagePartition;
