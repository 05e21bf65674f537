//! # ResCCL — Resource-Efficient Scheduling for Collective Communication
//!
//! A complete Rust implementation of the ResCCL collective-communication
//! backend (SIGCOMM 2025), together with every substrate it needs: the
//! ResCCLang DSL, a dependency-DAG IR, the HPDS primitive-level scheduler,
//! flexible (state-based) thread-block allocation, lightweight kernel
//! generation, a deterministic discrete-event GPU-cluster simulator, the
//! NCCL/MSCCL baseline backend models, an algorithm library (ring, double
//! binary tree, hierarchical mesh, synthesizer emulations), and a
//! Megatron-style end-to-end training model.
//!
//! The crate is a façade: each subsystem lives in its own crate and is
//! re-exported here as a module.
//!
//! ## Quickstart
//!
//! ```
//! use rescc::core::Compiler;
//! use rescc::algos::hm_allreduce;
//! use rescc::topology::Topology;
//!
//! // Two servers × four A100s, running the paper's hierarchical-mesh
//! // AllReduce through the full ResCCL pipeline.
//! let topo = Topology::a100(2, 4);
//! let plan = Compiler::new().compile_spec(&hm_allreduce(2, 4), &topo).unwrap();
//! let report = plan.run(256 << 20, 1 << 20).unwrap();
//! assert_eq!(report.data_valid, Some(true)); // machine-checked collective
//! println!("algbw = {:.1} GB/s with {} TBs",
//!     report.algo_bandwidth_gbps(256 << 20), plan.total_tbs());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cluster topology and the α–β–γ link cost model.
pub mod topology {
    pub use rescc_topology::*;
}

/// The ResCCLang DSL: parser, evaluator, builder, pretty-printer.
pub mod lang {
    pub use rescc_lang::*;
}

/// Dependency-DAG IR and micro-batch planning.
pub mod ir {
    pub use rescc_ir::*;
}

/// Schedulers: HPDS, round-robin, by-step, stage partitioning.
pub mod sched {
    pub use rescc_sched::*;
}

/// Thread-block allocation: connection-based vs state-based.
pub mod alloc {
    pub use rescc_alloc::*;
}

/// Kernel program representation and pseudo-CUDA codegen.
pub mod kernel {
    pub use rescc_kernel::*;
}

/// Cross-phase static analysis (lints RA001–RA007) over compiled plans.
pub mod analyze {
    pub use rescc_analyze::*;
}

/// The deterministic discrete-event cluster simulator.
pub mod sim {
    pub use rescc_sim::*;
}

/// Cross-layer observability: spans, counters, Chrome-trace export.
pub mod obs {
    pub use rescc_obs::*;
}

/// The collective algorithm library.
pub mod algos {
    pub use rescc_algos::*;
}

/// The NCCL / MSCCL / ResCCL backend models.
pub mod backends {
    pub use rescc_backends::*;
}

/// Megatron-style end-to-end training throughput model.
pub mod train {
    pub use rescc_train::*;
}

/// The ResCCL offline compiler and compiled plans.
pub mod core {
    pub use rescc_core::*;
}
