//! **Figure 4** — Impact of TB parallelism on communication bandwidth.
//!
//! The paper emulates a two-GPU AllGather over a single NIC while varying
//! the number of TBs: bandwidth rises until 4 TBs jointly match the link
//! capacity, then falls as additional TBs contend (Eq. 1). We reproduce the
//! micro-benchmark with the warp-limited per-TB transfer capability the
//! experiment used (`saturation_tbs = 4`): NCCL-style channels split the
//! micro-batches over `z` parallel TBs on the same NIC.

use crate::{print_table, MB};
use rescc_algos::ring_allgather;
use rescc_backends::{Backend, Communicator};
use rescc_topology::{ClusterSpec, FabricParams, LinkParams, Topology};

/// Regenerate Figure 4.
pub fn run() {
    // One GPU per node, one NIC, warp-limited per-TB capability: a single
    // TB moves 1/4 of the NIC line rate (the Fig. 4 experimental setup).
    let fabric = FabricParams {
        inter: LinkParams::new(25.0, 10.0, 4),
        ..FabricParams::a100()
    };
    let topo = Topology::new(
        "fig4-p2p",
        ClusterSpec {
            n_nodes: 2,
            gpus_per_node: 1,
            nics_per_node: 1,
        },
        fabric,
    );
    let spec = ring_allgather(2); // two-GPU AllGather = bidirectional P2P
    let buffer = 512 * MB;

    let mut rows = Vec::new();
    let mut best = (0u32, 0.0f64);
    for tbs in 1..=12u32 {
        let rep = Communicator::new(topo.clone())
            .with_backend(Backend::Nccl { n_channels: tbs })
            .run_spec(&spec, buffer, MB)
            .expect("figure4 run");
        let bw = rep.algbw_gbps();
        if bw > best.1 {
            best = (tbs, bw);
        }
        rows.push(vec![
            tbs.to_string(),
            format!("{:.2}", bw),
            format!("{:.2}ms", rep.sim.completion_ns / 1e6),
        ]);
    }
    print_table(
        "Figure 4: bandwidth vs number of TBs on a single NIC (P2P AllGather)",
        &["TBs", "algbw (GB/s)", "completion"],
        &rows,
    );
    println!(
        "peak at {} TBs ({:.2} GB/s) — paper: bandwidth peaks at 4 TBs and \
         degrades beyond",
        best.0, best.1
    );
}
