//! **Figure 6** — Communication performance of expert-designed AllGather
//! and AllReduce across buffer sizes (8 MB – 4 GB), on 16 GPUs (2×8) and
//! 32 GPUs (4×8), comparing NCCL, MSCCL and ResCCL.
//!
//! Paper shape: ResCCL outperforms NCCL by 28.1%–2.2× and MSCCL by
//! 12.4%–1.6× on 16 GPUs; gains grow with buffer size; ResCCL can be
//! slightly slower than MSCCL only for small buffers (few micro-batches —
//! fewer scheduling opportunities).

use crate::backend_panel;
use rescc_algos::{hm_allgather, hm_allreduce, nccl_rings_allgather, nccl_rings_allreduce};
use rescc_topology::Topology;

/// Regenerate Figure 6.
pub fn run() {
    let t16 = Topology::a100(2, 8);
    let t32 = Topology::a100(4, 8);
    backend_panel(
        "Figure 6 (a) expert AllGather, 16 GPUs",
        &nccl_rings_allgather(2, 8, 4),
        &hm_allgather(2, 8),
        &t16,
    );
    backend_panel(
        "Figure 6 (b) expert AllGather, 32 GPUs",
        &nccl_rings_allgather(4, 8, 4),
        &hm_allgather(4, 8),
        &t32,
    );
    backend_panel(
        "Figure 6 (c) expert AllReduce, 16 GPUs",
        &nccl_rings_allreduce(2, 8, 4),
        &hm_allreduce(2, 8),
        &t16,
    );
    backend_panel(
        "Figure 6 (d) expert AllReduce, 32 GPUs",
        &nccl_rings_allreduce(4, 8, 4),
        &hm_allreduce(4, 8),
        &t32,
    );
    println!(
        "paper: ResCCL wins grow with buffer size (up to 2.2-2.5x over NCCL); \
         small buffers may slightly favor MSCCL."
    );
}
