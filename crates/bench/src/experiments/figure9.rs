//! **Figure 9** — Synthesized AllReduce and AllGather under additional
//! topologies (2×4 and 4×4 GPUs): ResCCL vs MSCCL executing the same
//! TACCL-like algorithms.
//!
//! Paper shape: 9.8%–31.1% speedups for synthesized AllGather; up to 50.1%
//! for synthesized AllReduce.

use crate::{buffer_sweep, fmt_bytes, print_table, MB};
use rescc_algos::{taccl_like_allgather, taccl_like_allreduce};
use rescc_backends::{Backend, Communicator};
use rescc_lang::AlgoSpec;
use rescc_topology::Topology;

fn panel(label: &str, spec: &AlgoSpec, topo: &Topology) {
    let buffers = buffer_sweep();
    let mut msccl = Communicator::new(topo.clone()).with_backend(Backend::msccl());
    let mut resccl = Communicator::new(topo.clone());
    let rows: Vec<Vec<String>> = buffers
        .iter()
        .map(|buffer| {
            let m = msccl.run_spec(spec, *buffer, MB).expect("figure9 msccl");
            let r = resccl.run_spec(spec, *buffer, MB).expect("figure9 resccl");
            vec![
                fmt_bytes(*buffer),
                format!("{:.2}", m.algbw_gbps()),
                format!("{:.2}", r.algbw_gbps()),
                format!("{:.2}x", r.algbw_gbps() / m.algbw_gbps()),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 9 {label}: algorithm bandwidth (GB/s)"),
        &["buffer", "MSCCL", "ResCCL", "speedup"],
        &rows,
    );
}

/// Regenerate Figure 9.
pub fn run() {
    panel(
        "(a) synthesized AllGather, 2x4",
        &taccl_like_allgather(2, 4),
        &Topology::a100(2, 4),
    );
    panel(
        "(b) synthesized AllGather, 4x4",
        &taccl_like_allgather(4, 4),
        &Topology::a100(4, 4),
    );
    panel(
        "(c) synthesized AllReduce, 2x4",
        &taccl_like_allreduce(2, 4),
        &Topology::a100(2, 4),
    );
    panel(
        "(d) synthesized AllReduce, 4x4",
        &taccl_like_allreduce(4, 4),
        &Topology::a100(4, 4),
    );
    println!("paper: 9.8-31.1% AG speedups; up to 50.1% AR speedups over MSCCL.");
}
