//! # rescc-kernel
//!
//! Lightweight kernel generation (§4.5): the three-dimensional kernel
//! paradigm (rank → TB → pipeline slot, the allocation's shared slot
//! table), generation from a scheduled and TB-allocated algorithm, pseudo-CUDA codegen, and the execution-mode
//! model that distinguishes directly-generated kernels from MSCCL-style
//! runtime interpretation (Fig. 3).
//!
//! ```
//! use rescc_kernel::{KernelProgram, LoopOrder, ExecMode, emit_rank_kernel};
//! use rescc_alloc::TbAllocation;
//! use rescc_ir::DepDag;
//! use rescc_lang::{AlgoBuilder, OpType};
//! use rescc_sched::hpds;
//! use rescc_topology::Topology;
//!
//! let mut b = AlgoBuilder::new("Ring", OpType::AllGather, 4);
//! for r in 0..4u32 {
//!     for step in 0..3u32 {
//!         b.recv(r, (r + 1) % 4, step, (r + 4 - step) % 4);
//!     }
//! }
//! let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(1, 4)).unwrap();
//! let sched = hpds(&dag);
//! let alloc = TbAllocation::state_based(&dag, &sched);
//! let prog = KernelProgram::generate("Ring", &dag, &alloc,
//!     LoopOrder::SlotMajor, ExecMode::DirectKernel);
//! prog.validate(&dag).unwrap();
//! let cuda = emit_rank_kernel(&prog, &dag, &alloc, &sched, 0);
//! assert!(cuda.contains("__global__ void resccl_kernel_r0"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codegen;
mod fusion;
mod program;

pub use codegen::{emit_all, emit_rank_kernel, emit_runtime_header};
pub use fusion::{fuse, FusionStats};
pub use program::{ExecMode, KernelProgram, LoopOrder, Primitive};
