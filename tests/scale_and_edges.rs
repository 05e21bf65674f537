//! Scale stress and edge cases that only show up at the seams:
//! degenerate micro-batch counts, channel counts exceeding micro-batches,
//! one-chunk buffers, large clusters, and fused execution on multi-node
//! rings.

use rescc::algos::{hm_allreduce, nccl_rings_allreduce, ring_allgather};
use rescc::backends::{Backend, Communicator};
use rescc::core::Compiler;
use rescc::topology::Topology;

const MB: u64 = 1 << 20;

/// A data-validating communicator over `topo` dispatching through `backend`.
fn validated(backend: &Backend, topo: &Topology) -> Communicator {
    Communicator::new(topo.clone())
        .with_backend(backend.clone())
        .with_validation()
}

#[test]
fn single_micro_batch_everywhere() {
    // Buffer so small each chunk fits one invocation — no pipelining at
    // all; everything must still be correct.
    let topo = Topology::a100(2, 4);
    let spec = hm_allreduce(2, 4);
    for backend in [Backend::nccl(), Backend::msccl(), Backend::resccl()] {
        let rep = validated(&backend, &topo)
            .run_spec(&spec, 4 * MB, MB)
            .unwrap();
        assert_eq!(rep.sim.n_micro_batches, 1, "{}", backend.name());
        assert_eq!(rep.sim.data_valid, Some(true), "{}", backend.name());
    }
}

#[test]
fn more_channels_than_micro_batches() {
    // 2 micro-batches against 8 channels: most channel TBs have zero work
    // (their micro-batch window is empty) and must not deadlock the run.
    let topo = Topology::a100(2, 4);
    let spec = hm_allreduce(2, 4);
    let rep = validated(&Backend::Nccl { n_channels: 8 }, &topo)
        .run_spec(&spec, 16 * MB, MB)
        .unwrap();
    assert_eq!(rep.sim.data_valid, Some(true));
    // Idle channel TBs still occupy SMs under the rigid model.
    assert!(rep.sim.tb_stats.iter().any(|t| t.n_invocations == 0));
}

#[test]
fn tiny_chunk_many_micro_batches() {
    // 64 KiB chunks: 32 micro-batches of small invocations — the latency-
    // dominated regime.
    let topo = Topology::a100(1, 4);
    let spec = ring_allgather(4);
    let rep = validated(&Backend::resccl(), &topo)
        .run_spec(&spec, 8 * MB, 64 << 10)
        .unwrap();
    assert_eq!(rep.sim.n_micro_batches, 32);
    assert_eq!(rep.sim.data_valid, Some(true));
}

#[test]
fn large_cluster_compile_and_run() {
    // 8 nodes × 8 GPUs = 64 ranks: compile through the full pipeline and
    // simulate a small collective with validation on.
    let topo = Topology::a100(8, 8);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(8, 8), &topo)
        .unwrap();
    assert!(plan.dag.len() > 3000);
    let rep = plan.run(64 * MB, MB).unwrap();
    assert_eq!(rep.data_valid, Some(true));
}

#[test]
fn fused_execution_on_multinode_rings() {
    // Fusion + chain merging across NIC boundaries, with validation.
    let topo = Topology::a100(2, 8);
    let spec = nccl_rings_allreduce(2, 8, 4);
    let rep = validated(&Backend::Resccl(Compiler::new().with_fusion()), &topo)
        .run_spec(&spec, 64 * MB, MB)
        .unwrap();
    assert_eq!(rep.sim.data_valid, Some(true));
}

#[test]
fn odd_buffer_sizes_with_ragged_tails() {
    // Buffer not divisible by chunk count: the final micro-batch is short.
    let topo = Topology::a100(1, 8);
    let spec = ring_allgather(8);
    let mut comm = validated(&Backend::resccl(), &topo);
    for buffer in [17 * MB, 100 * MB + 12345, 3 * MB] {
        let rep = comm.run_spec(&spec, buffer, MB).unwrap();
        assert_eq!(rep.sim.data_valid, Some(true), "buffer {buffer}");
    }
}

#[test]
fn two_rank_minimum() {
    let topo = Topology::a100(1, 2);
    let spec = ring_allgather(2);
    let rep = validated(&Backend::resccl(), &topo)
        .run_spec(&spec, 8 * MB, MB)
        .unwrap();
    assert_eq!(rep.sim.data_valid, Some(true));
}
