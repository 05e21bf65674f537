//! **Figure 3** — Runtime interpreter vs direct kernel execution.
//!
//! Paper observation: interpreting the algorithm at runtime costs 17.1% of
//! performance on average.

use crate::{fmt_bytes, print_table, MB};
use rescc_algos::{hm_allgather, hm_allreduce, taccl_like_allgather};
use rescc_backends::{Backend, Communicator};
use rescc_kernel::ExecMode;
use rescc_topology::Topology;

/// Regenerate Figure 3.
pub fn run() {
    let topo = Topology::a100(2, 8);
    // The Fig. 3 experiment isolates runtime overhead on the minimal
    // (single-channel) instance, where per-invocation interpretation sits
    // on the critical path instead of hiding behind channel parallelism.
    let msccl = |interpreter_overhead_ns| {
        Communicator::new(topo.clone()).with_backend(Backend::Msccl {
            n_channels: 1,
            interpreter_overhead_ns,
        })
    };
    let mut interpreted = msccl(ExecMode::default_interpreter().overhead_ns());
    let mut direct = msccl(0.0);
    let cases = [
        ("HM-AllGather", hm_allgather(2, 8)),
        ("HM-AllReduce", hm_allreduce(2, 8)),
        ("TACCL-like-AG", taccl_like_allgather(2, 8)),
    ];
    let mut rows = Vec::new();
    let mut losses = Vec::new();
    for (name, spec) in &cases {
        for buffer in [64 * MB, 256 * MB] {
            let ti = interpreted
                .run_spec(spec, buffer, MB)
                .expect("figure3 interpreted")
                .sim
                .completion_ns;
            let td = direct
                .run_spec(spec, buffer, MB)
                .expect("figure3 direct")
                .sim
                .completion_ns;
            let loss = 1.0 - td / ti;
            losses.push(loss);
            rows.push(vec![
                name.to_string(),
                fmt_bytes(buffer),
                format!("{:.2}ms", ti / 1e6),
                format!("{:.2}ms", td / 1e6),
                format!("{:.1}%", 100.0 * loss),
            ]);
        }
    }
    print_table(
        "Figure 3: runtime interpreter vs direct kernel execution (MSCCL-model, 2x8)",
        &[
            "algorithm",
            "buffer",
            "interpreter",
            "direct kernel",
            "interp. loss",
        ],
        &rows,
    );
    let avg = losses.iter().sum::<f64>() / losses.len() as f64;
    println!(
        "average interpreter performance loss = {:.1}% (paper: 17.1%)",
        100.0 * avg
    );
}
