//! Cross-backend integration invariants: the relationships the paper's
//! evaluation depends on must hold across algorithms and topologies.

use rescc::algos::{
    hm_allgather, hm_allreduce, nccl_rings_allreduce, taccl_like_allgather, taccl_like_allreduce,
};
use rescc::backends::{Backend, Communicator};
use rescc::core::Compiler;
use rescc::topology::Topology;

const MB: u64 = 1 << 20;

/// A communicator over `topo` dispatching through `backend`.
fn comm(backend: Backend, topo: &Topology) -> Communicator {
    Communicator::new(topo.clone()).with_backend(backend)
}

#[test]
fn resccl_wins_at_large_buffers_across_shapes() {
    // Figs. 6/8: for every tested shape, large-buffer HM collectives run
    // faster on ResCCL than on the MSCCL model.
    for (nodes, g) in [(2u32, 4u32), (2, 8), (4, 4)] {
        let topo = Topology::a100(nodes, g);
        let mut resccl = comm(Backend::resccl(), &topo);
        let mut msccl = comm(Backend::msccl(), &topo);
        for spec in [hm_allgather(nodes, g), hm_allreduce(nodes, g)] {
            let buffer = 512 * MB;
            let r = resccl.run_spec(&spec, buffer, MB).unwrap();
            let m = msccl.run_spec(&spec, buffer, MB).unwrap();
            assert!(
                r.algbw_gbps() > m.algbw_gbps(),
                "{} on {nodes}x{g}: resccl {:.1} <= msccl {:.1}",
                spec.name(),
                r.algbw_gbps(),
                m.algbw_gbps()
            );
        }
    }
}

#[test]
fn resccl_tb_budget_always_smaller() {
    // Table 3: state-based allocation always launches fewer TBs than the
    // 4-channel connection-based allocation running the same algorithm.
    for (nodes, g) in [(2u32, 4u32), (2, 8), (4, 4), (4, 8)] {
        let topo = Topology::a100(nodes, g);
        let mut resccl = comm(Backend::resccl(), &topo);
        let mut msccl = comm(Backend::msccl(), &topo);
        for spec in [
            hm_allreduce(nodes, g),
            hm_allgather(nodes, g),
            taccl_like_allgather(nodes, g),
            taccl_like_allreduce(nodes, g),
        ] {
            let r = resccl.run_spec(&spec, 32 * MB, MB).unwrap();
            let m = msccl.run_spec(&spec, 32 * MB, MB).unwrap();
            assert!(
                r.total_tbs < m.total_tbs,
                "{} on {nodes}x{g}: resccl TBs {} !< msccl TBs {}",
                spec.name(),
                r.total_tbs,
                m.total_tbs
            );
        }
    }
}

#[test]
fn resccl_avg_idle_always_lower_on_expert_algorithms() {
    for (nodes, g) in [(2u32, 4u32), (2, 8), (4, 4)] {
        let topo = Topology::a100(nodes, g);
        let spec = hm_allreduce(nodes, g);
        let r = comm(Backend::resccl(), &topo)
            .run_spec(&spec, 256 * MB, MB)
            .unwrap();
        let m = comm(Backend::msccl(), &topo)
            .run_spec(&spec, 256 * MB, MB)
            .unwrap();
        assert!(
            r.sim.avg_idle_ratio() < m.sim.avg_idle_ratio(),
            "{nodes}x{g}: resccl idle {:.2} >= msccl idle {:.2}",
            r.sim.avg_idle_ratio(),
            m.sim.avg_idle_ratio()
        );
    }
}

#[test]
fn interpreter_overhead_is_in_paper_range() {
    // Fig. 3: the interpreter costs a double-digit percentage, not 2x.
    let topo = Topology::a100(2, 8);
    let spec = hm_allgather(2, 8);
    let direct = Backend::Msccl {
        n_channels: 4,
        interpreter_overhead_ns: 0.0,
    };
    let ti = comm(Backend::msccl(), &topo)
        .run_spec(&spec, 256 * MB, MB)
        .unwrap()
        .sim
        .completion_ns;
    let td = comm(direct, &topo)
        .run_spec(&spec, 256 * MB, MB)
        .unwrap()
        .sim
        .completion_ns;
    let loss = 1.0 - td / ti;
    assert!(
        (0.03..0.45).contains(&loss),
        "interpreter loss {loss} outside the plausible band around 17%"
    );
}

#[test]
fn backends_are_deterministic() {
    let topo = Topology::a100(2, 4);
    let spec = hm_allreduce(2, 4);
    for backend in [Backend::nccl(), Backend::msccl(), Backend::resccl()] {
        // Two communicators: each run compiles its own plan.
        let a = comm(backend.clone(), &topo).run_spec(&spec, 64 * MB, MB);
        let b = comm(backend.clone(), &topo).run_spec(&spec, 64 * MB, MB);
        assert_eq!(
            a.unwrap().sim,
            b.unwrap().sim,
            "{} is nondeterministic",
            backend.name()
        );
    }
}

#[test]
fn nccl_multiring_beats_flat_ring_across_nodes() {
    // Sanity of the NCCL baseline itself: the multi-ring layout (one ring
    // per NIC) must beat a single flat ring that funnels all inter-node
    // traffic through one NIC pair.
    let topo = Topology::a100(2, 8);
    let mut nccl = comm(Backend::nccl(), &topo);
    let multi = nccl_rings_allreduce(2, 8, 4);
    let flat = nccl_rings_allreduce(2, 8, 1);
    let tm = nccl.run_spec(&multi, 512 * MB, MB).unwrap();
    let tf = nccl.run_spec(&flat, 512 * MB, MB).unwrap();
    assert!(
        tm.algbw_gbps() > 1.5 * tf.algbw_gbps(),
        "multi-ring {:.1} should be well above flat ring {:.1}",
        tm.algbw_gbps(),
        tf.algbw_gbps()
    );
}

#[test]
fn small_buffers_shrink_resccl_advantage() {
    // §5.2: small messages yield fewer micro-batches and fewer scheduling
    // opportunities — ResCCL's edge over MSCCL must be larger at 1 GB than
    // at 8 MB.
    let topo = Topology::a100(2, 8);
    let spec = hm_allreduce(2, 8);
    let mut resccl = comm(Backend::resccl(), &topo);
    let mut msccl = comm(Backend::msccl(), &topo);
    let mut speedup = |buffer: u64| {
        let r = resccl.run_spec(&spec, buffer, MB).unwrap();
        let m = msccl.run_spec(&spec, buffer, MB).unwrap();
        m.sim.completion_ns / r.sim.completion_ns
    };
    let small = speedup(8 * MB);
    let large = speedup(1024 * MB);
    assert!(
        large > small,
        "speedup should grow with buffer size: 8MB {small:.2}x vs 1GB {large:.2}x"
    );
}

#[test]
fn training_collectives_pass_the_compiler_checks() {
    // The Fig. 13 model runs its collectives through the backends, which
    // verify and deny-gate every plan. Every spec it runs (TP group 1×8,
    // DP groups 2×8 and 4×8) must pass both under `Compiler::new()`, or
    // figure13 would fail instead of this test.
    for (nodes, g) in [(1u32, 8u32), (2, 8), (4, 8)] {
        let topo = Topology::a100(nodes, g);
        for spec in [
            hm_allreduce(nodes, g),
            nccl_rings_allreduce(nodes, g, (g / 2).max(1)),
        ] {
            if let Err(e) = Compiler::new().compile_spec(&spec, &topo) {
                panic!("{} on {nodes}x{g}: {e}", spec.name());
            }
        }
    }
}
