//! **Figure 7** — Communication performance of synthesized AllGather and
//! AllReduce across buffer sizes: speedup of ResCCL over MSCCL when both
//! execute the same TACCL-like / TECCL-like algorithms, on 16 and 32 GPUs.
//!
//! Paper shape: speedups of up to 1.4–1.5× for large buffers; small buffers
//! can dip slightly below 1× (pipeline-fill effects).

use crate::{buffer_sweep, fmt_bytes, print_table, MB};
use rescc_algos::{
    taccl_like_allgather, taccl_like_allreduce, teccl_like_allgather, teccl_like_allreduce,
};
use rescc_backends::{Backend, Communicator};
use rescc_lang::AlgoSpec;
use rescc_topology::Topology;

fn panel(label: &str, cases: &[(&str, AlgoSpec)], topo: &Topology) {
    let buffers = buffer_sweep();
    let mut msccl = Communicator::new(topo.clone()).with_backend(Backend::msccl());
    let mut resccl = Communicator::new(topo.clone());
    let mut rows = Vec::new();
    for buffer in &buffers {
        let mut row = vec![fmt_bytes(*buffer)];
        for (_, spec) in cases {
            let tm = msccl
                .run_spec(spec, *buffer, MB)
                .expect("figure7 msccl")
                .sim
                .completion_ns;
            let tr = resccl
                .run_spec(spec, *buffer, MB)
                .expect("figure7 resccl")
                .sim
                .completion_ns;
            row.push(format!("{:.2}x", tm / tr));
        }
        rows.push(row);
    }
    let mut headers = vec!["buffer"];
    for (name, _) in cases {
        headers.push(name);
    }
    print_table(
        &format!("Figure 7 {label}: ResCCL speedup over MSCCL (1.0 = parity)"),
        &headers,
        &rows,
    );
}

/// Regenerate Figure 7.
pub fn run() {
    let t16 = Topology::a100(2, 8);
    let t32 = Topology::a100(4, 8);
    panel(
        "(a) 16 GPUs",
        &[
            ("TACCL-AG", taccl_like_allgather(2, 8)),
            ("TACCL-AR", taccl_like_allreduce(2, 8)),
            ("TECCL-AG", teccl_like_allgather(16)),
            ("TECCL-AR", teccl_like_allreduce(16)),
        ],
        &t16,
    );
    panel(
        "(b) 32 GPUs",
        &[
            ("TACCL-AG", taccl_like_allgather(4, 8)),
            ("TACCL-AR", taccl_like_allreduce(4, 8)),
            ("TECCL-AG", teccl_like_allgather(32)),
            ("TECCL-AR", teccl_like_allreduce(32)),
        ],
        &t32,
    );
    println!("paper: up to 1.4-1.5x for large buffers; ~parity or slight dips below 8-16MB.");
}
