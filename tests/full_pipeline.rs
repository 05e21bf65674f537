//! End-to-end integration: every algorithm in the library, compiled through
//! the full ResCCL pipeline (parse/build → DAG → HPDS → state-based TBs →
//! kernel generation → simulation), must produce a machine-verified correct
//! collective on every topology it fits.

use rescc::algos::*;
use rescc::backends::{Backend, Communicator};
use rescc::core::Compiler;
use rescc::lang::AlgoSpec;
use rescc::topology::Topology;

const MB: u64 = 1 << 20;

fn check(spec: &AlgoSpec, topo: &Topology) {
    let plan = Compiler::new()
        .compile_spec(spec, topo)
        .unwrap_or_else(|e| panic!("{} failed to compile: {e}", spec.name()));
    // Two buffer sizes: single micro-batch and multi-micro-batch.
    for buffer in [
        spec.n_chunks() as u64 * MB / 2,
        spec.n_chunks() as u64 * 4 * MB,
    ] {
        let rep = plan
            .run(buffer, MB)
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", spec.name()));
        assert_eq!(
            rep.data_valid,
            Some(true),
            "{} corrupted data at buffer {buffer}",
            spec.name()
        );
        assert!(rep.completion_ns > 0.0);
    }
}

#[test]
fn ring_family_all_topologies() {
    for topo in [
        Topology::a100(1, 8),
        Topology::a100(2, 4),
        Topology::v100(2, 4),
    ] {
        let n = topo.n_ranks();
        check(&ring_allgather(n), &topo);
        check(&ring_reduce_scatter(n), &topo);
        check(&ring_allreduce(n), &topo);
    }
}

#[test]
fn hm_family_all_topologies() {
    for (nodes, g) in [(2u32, 4u32), (2, 8), (4, 4), (4, 8)] {
        let topo = Topology::a100(nodes, g);
        check(&hm_allgather(nodes, g), &topo);
        check(&hm_reduce_scatter(nodes, g), &topo);
        check(&hm_allreduce(nodes, g), &topo);
    }
}

#[test]
fn synthesized_family() {
    for (nodes, g) in [(2u32, 4u32), (2, 8), (4, 4)] {
        let topo = Topology::a100(nodes, g);
        check(&taccl_like_allgather(nodes, g), &topo);
        check(&taccl_like_allreduce(nodes, g), &topo);
        check(&teccl_like_allgather(nodes * g), &topo);
        check(&teccl_like_allreduce(nodes * g), &topo);
    }
}

#[test]
fn nccl_rings_and_tree_family() {
    for (nodes, g) in [(2u32, 4u32), (2, 8)] {
        let topo = Topology::a100(nodes, g);
        check(&nccl_rings_allgather(nodes, g, g / 2), &topo);
        check(&nccl_rings_reduce_scatter(nodes, g, g / 2), &topo);
        check(&nccl_rings_allreduce(nodes, g, g / 2), &topo);
        check(&dbtree_allreduce(nodes * g), &topo);
    }
}

#[test]
fn dsl_source_compiles_and_validates_end_to_end() {
    let topo = Topology::a100(4, 8);
    let plan = Compiler::new()
        .compile_source(&hm_allreduce_source(4, 8), &topo)
        .expect("Fig. 16 program compiles");
    let rep = plan.run(64 * MB, MB).expect("runs");
    assert_eq!(rep.data_valid, Some(true));
}

#[test]
fn compiled_plan_is_reusable_across_buffer_sizes() {
    // Compile once, run many — the offline/online split of the paper.
    let topo = Topology::a100(2, 8);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 8), &topo)
        .unwrap();
    let mut last_bw = 0.0;
    for shift in 0..5 {
        let buffer = (32 * MB) << shift;
        let rep = plan.run(buffer, MB).unwrap();
        assert_eq!(rep.data_valid, Some(true));
        let bw = rep.algo_bandwidth_gbps(buffer);
        assert!(
            bw >= last_bw * 0.8,
            "bandwidth should grow (or hold) with buffer size: {last_bw} -> {bw}"
        );
        last_bw = bw;
    }
}

#[test]
fn rigid_plan_holds_every_tb_to_the_end() {
    // TB release follows the plan: a rigid (NCCL) plan holds every TB's SM
    // until the kernel finishes, however it is run; a ResCCL plan releases
    // each TB after its last invocation.
    let topo = Topology::a100(2, 4);
    let spec = hm_allgather(2, 4);
    let rigid = Backend::nccl()
        .compiler()
        .compile_spec(&spec, &topo)
        .unwrap()
        .run(64 * MB, MB)
        .unwrap();
    for tb in rigid.tb_stats.iter().filter(|tb| tb.n_invocations > 0) {
        assert_eq!(
            tb.occupancy_ns, rigid.completion_ns,
            "r{}tb{}",
            tb.rank, tb.tb
        );
    }
    let dispatched = Communicator::new(topo.clone())
        .with_backend(Backend::nccl())
        .with_validation()
        .run_spec(&spec, 64 * MB, MB)
        .unwrap();
    assert_eq!(dispatched.sim, rigid);

    let flexible = Compiler::new()
        .compile_spec(&spec, &topo)
        .unwrap()
        .run(64 * MB, MB)
        .unwrap();
    for tb in &flexible.tb_stats {
        assert_eq!(tb.occupancy_ns, tb.release_ns, "r{}tb{}", tb.rank, tb.tb);
    }
}
