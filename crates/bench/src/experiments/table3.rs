//! **Table 3** — TB resource utilization: ResCCL vs MSCCL running the same
//! expert and synthesized algorithms on Topo1–Topo4.
//!
//! Metrics per (backend, algorithm, topology): total TB count, fraction of
//! TB occupancy spent communicating, average idle ratio, maximum idle
//! ratio. Paper shape: ResCCL uses ≤½ the TBs, sustains >85–99% comm time
//! on expert algorithms, and its max idle stays bounded while MSCCL's
//! reaches 99.9%.

use crate::{pct, print_table, MB};
use rescc_algos::{hm_allgather, hm_allreduce, taccl_like_allgather, taccl_like_allreduce};
use rescc_backends::{Backend, Communicator, RunReport};
use rescc_lang::AlgoSpec;
use rescc_topology::Topology;

/// Topo1–Topo4 as (nodes, gpus-per-node).
const TOPOS: [(u32, u32); 4] = [(2, 4), (2, 8), (4, 4), (4, 8)];

fn cells(rep: &RunReport) -> [String; 4] {
    [
        rep.total_tbs.to_string(),
        pct(rep.sim.avg_comm_ratio()),
        pct(rep.sim.avg_idle_ratio()),
        pct(rep.sim.max_idle_ratio()),
    ]
}

/// An algorithm constructor, parameterized by (nodes, gpus-per-node).
type AlgoCtor = fn(u32, u32) -> AlgoSpec;

/// Regenerate Table 3.
pub fn run() {
    let algos: [(&str, AlgoCtor); 4] = [
        ("Expert AllReduce", hm_allreduce),
        ("Expert AllGather", hm_allgather),
        ("Synth AllReduce", taccl_like_allreduce),
        ("Synth AllGather", taccl_like_allgather),
    ];
    // One communicator per (backend, topology), reused by every algorithm.
    let mut backends =
        [("MSCCL", Backend::msccl()), ("ResCCL", Backend::resccl())].map(|(name, backend)| {
            let comms = TOPOS.map(|(nodes, g)| {
                Communicator::new(Topology::a100(nodes, g)).with_backend(backend.clone())
            });
            (name, comms)
        });

    for (algo_name, make) in algos {
        let mut rows = Vec::new();
        for (backend_name, comms) in &mut backends {
            let mut per_topo = Vec::new();
            for (comm, (nodes, g)) in comms.iter_mut().zip(TOPOS) {
                let rep = comm
                    .run_spec(&make(nodes, g), 128 * MB, MB)
                    .expect("table3 run");
                per_topo.push(cells(&rep));
            }
            for (metric, metric_name) in ["# TB", "Comm Time", "Avg Idle", "Max Idle"]
                .into_iter()
                .enumerate()
            {
                let mut row = vec![backend_name.to_string(), metric_name.to_string()];
                row.extend(per_topo.iter().map(|c| c[metric].clone()));
                rows.push(row);
            }
        }
        print_table(
            &format!("Table 3 — {algo_name}: TB resource utilization"),
            &[
                "Backend",
                "Metric",
                "Topo1 (2x4)",
                "Topo2 (2x8)",
                "Topo3 (4x4)",
                "Topo4 (4x8)",
            ],
            &rows,
        );
    }
    println!(
        "paper: ResCCL reduces TB consumption by up to 77.8%, sustains >92% comm \
         time on expert AllGather, max idle ≤ 21.4% vs MSCCL's 99.9%."
    );
}
