//! Head-to-head backend comparison: the same algorithm executed by the
//! NCCL-model (algorithm-level), MSCCL-model (stage-level + interpreter)
//! and ResCCL (task-level) backends — the essence of Figs. 6–9.
//!
//! ```sh
//! cargo run --release --example backend_comparison
//! ```

use rescc::algos::{hm_allgather, hm_allreduce, taccl_like_allreduce};
use rescc::backends::{Backend, Communicator};
use rescc::topology::Topology;

fn main() {
    let topo = Topology::a100(2, 8);
    let buffer = 512u64 << 20;
    let chunk = 1u64 << 20;

    // One communicator per backend, reused by every algorithm.
    let mut comms = [Backend::nccl(), Backend::msccl(), Backend::resccl()]
        .map(|b| Communicator::new(topo.clone()).with_backend(b));

    for (label, spec) in [
        ("expert HM-AllGather", hm_allgather(2, 8)),
        ("expert HM-AllReduce", hm_allreduce(2, 8)),
        (
            "synthesized TACCL-like AllReduce",
            taccl_like_allreduce(2, 8),
        ),
    ] {
        println!(
            "\n=== {label} on {} ({} MB buffer) ===",
            topo.name(),
            buffer >> 20
        );
        println!(
            "{:<8} {:>10} {:>8} {:>12} {:>10} {:>10}",
            "backend", "algbw", "TBs", "avg idle", "max idle", "link util"
        );
        for comm in &mut comms {
            let rep = comm
                .run_spec(&spec, buffer, chunk)
                .unwrap_or_else(|e| panic!("{label} failed: {e}"));
            println!(
                "{:<8} {:>7.1} GB/s {:>7} {:>11.1}% {:>9.1}% {:>9.1}%",
                rep.backend,
                rep.algbw_gbps(),
                rep.total_tbs,
                100.0 * rep.sim.avg_idle_ratio(),
                100.0 * rep.sim.max_idle_ratio(),
                100.0 * rep.sim.global_link_utilization()
            );
        }
    }
    println!(
        "\nResCCL: higher bandwidth from pipelining + HPDS, fewer TBs from \
         state-based merging, no interpreter overhead."
    );
}
