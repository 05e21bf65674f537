//! One spec, many plans: communicators that share a plan cache share the
//! spec table, and each spec memoizes its topology-independent compile
//! work (verdict, dependency index, dead transfers). These tests pin that
//! the sharing is real, that it changes no artifact, that the table keys
//! on the cluster shape, and that a memoized check still gates every
//! compile.

use rescc_algos::{hm_allgather, hm_allreduce};
use rescc_backends::{Communicator, RunReport, DEFAULT_CHUNK_BYTES};
use rescc_core::{CompiledPlan, Compiler, PlanCache, SpecKey};
use rescc_ir::DepIndex;
use rescc_lang::{AlgoBuilder, OpType};
use rescc_sim::SimError;
use rescc_topology::Topology;
use std::sync::{Arc, Barrier};

/// `shape` under another name: another fingerprint, the same spec key.
fn renamed(shape: &Topology, name: &str) -> Topology {
    Topology::new(name, shape.spec(), *shape.fabric())
}

/// The plan of `comm`'s last dispatch, read back from its cache.
fn last_plan(comm: &Communicator) -> Arc<CompiledPlan> {
    let cache = comm.cache_handle();
    let ev = *cache.journal().last().expect("a dispatch was journaled");
    cache
        .get_or_compile_keyed(ev.fingerprint, || panic!("the plan is resident"))
        .expect("resident")
        .0
}

/// One validated AllReduce per communicator: the report and the plan.
fn all_reduce(comm: &mut Communicator, bytes: u64) -> (RunReport, Arc<CompiledPlan>) {
    let report = comm.all_reduce(bytes).expect("dispatch");
    assert_eq!(report.sim.data_valid, Some(true));
    (report, last_plan(comm))
}

#[test]
fn tenants_of_one_shape_share_one_spec_and_one_index() {
    let shape = Topology::a100(2, 4);
    let bytes = 64 << 20;
    let cache = Arc::new(PlanCache::new());
    let shared: Vec<_> = ["tenant-a", "tenant-b"]
        .iter()
        .map(|name| {
            let mut comm = Communicator::new(renamed(&shape, name))
                .with_validation()
                .with_shared_cache(Arc::clone(&cache));
            all_reduce(&mut comm, bytes)
        })
        .collect();
    let (a, b) = (&shared[0].1, &shared[1].1);
    assert!(!Arc::ptr_eq(a, b), "each tenant compiles its own plan");
    assert_eq!(cache.stats().misses, 2);
    assert!(
        std::ptr::eq(a.spec.transfers(), b.spec.transfers()),
        "the tenants select one spec"
    );
    assert!(Arc::ptr_eq(a.dag.index(), b.dag.index()));
    let key = SpecKey {
        op: OpType::AllReduce,
        small: false,
        nodes: 2,
        gpus_per_node: 4,
    };
    let resident = cache.spec(key, || panic!("the spec is resident"));
    assert!(std::ptr::eq(resident.transfers(), a.spec.transfers()));
    assert!(Arc::ptr_eq(&DepIndex::of(&resident), a.dag.index()));

    // Sharing changes no artifact: private caches compile the same plans.
    for (name, (report, plan)) in ["tenant-a", "tenant-b"].iter().zip(&shared) {
        let mut private = Communicator::new(renamed(&shape, name)).with_validation();
        let (alone, alone_plan) = all_reduce(&mut private, bytes);
        assert!(!Arc::ptr_eq(alone_plan.dag.index(), plan.dag.index()));
        assert_eq!(alone.sim, report.sim, "{name}");
        assert_eq!(alone_plan.emit_kernels(), plan.emit_kernels(), "{name}");
        assert_eq!(alone_plan.diagnostics, plan.diagnostics, "{name}");
        assert!(alone_plan.semantic_eq(plan), "{name}");
    }
}

#[test]
fn tenants_of_different_shapes_get_different_specs() {
    // Keyed by (op, small) alone, the 16x8 tenant would be handed the
    // 2x8 tenant's 16-rank spec.
    let cache = Arc::new(PlanCache::new());
    let mut specs = Vec::new();
    for nodes in [2, 16] {
        let topo = Topology::a100(nodes, 8);
        let bytes = u64::from(topo.n_ranks()) * DEFAULT_CHUNK_BYTES;
        let mut comm = Communicator::new(topo).with_shared_cache(Arc::clone(&cache));
        comm.all_gather(bytes).expect("dispatch");
        let plan = last_plan(&comm);
        assert_eq!(plan.spec, hm_allgather(nodes, 8));
        specs.push(plan.spec.clone());
    }
    assert_ne!(specs[0].n_ranks(), specs[1].n_ranks());
    assert_eq!(cache.stats().misses, 2);
}

#[test]
fn a_failed_verdict_fails_every_compile_alike() {
    // Only chunk 0 moves: not an AllGather.
    let mut b = AlgoBuilder::new("incomplete", OpType::AllGather, 4);
    b.recv(0, 1, 0, 0).recv(1, 2, 1, 0).recv(2, 3, 2, 0);
    let spec = b.build().unwrap();
    let topo = Topology::a100(1, 4);
    let first = Compiler::new().compile_spec(&spec, &topo).unwrap_err();
    assert!(matches!(first, SimError::InvalidAlgorithm(_)), "{first}");
    assert!(spec.verdict().is_some_and(|v| v.is_err()));
    let second = Compiler::new()
        .compile_spec(&spec.clone(), &renamed(&topo, "other"))
        .unwrap_err();
    assert_eq!(first, second);
}

#[test]
fn an_unverified_compile_leaves_no_verdict() {
    let spec = hm_allreduce(1, 4);
    let topo = Topology::a100(1, 4);
    let unverified = Compiler {
        verify: false,
        ..Compiler::new()
    };
    unverified.compile_spec(&spec, &topo).unwrap();
    assert!(spec.verdict().is_none());
    Compiler::new().compile_spec(&spec, &topo).unwrap();
    assert_eq!(spec.verdict(), Some(&Ok(())));
    // A renamed spec names itself in its verdict, so it starts afresh.
    assert!(spec.clone().with_name("renamed").verdict().is_none());
}

#[test]
fn concurrent_first_compiles_share_one_index() {
    let spec = hm_allreduce(2, 4);
    let shape = Topology::a100(2, 4);
    let barrier = Barrier::new(2);
    let plans: Vec<CompiledPlan> = std::thread::scope(|s| {
        let workers: Vec<_> = ["left", "right"]
            .iter()
            .map(|name| {
                let (spec, barrier, topo) = (&spec, &barrier, renamed(&shape, name));
                s.spawn(move || {
                    barrier.wait();
                    Compiler::new().compile_spec(spec, &topo).expect("compile")
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(Arc::ptr_eq(plans[0].dag.index(), plans[1].dag.index()));
    assert_eq!(spec.verdict(), Some(&Ok(())));
    let alone = Compiler::new()
        .compile_spec(&hm_allreduce(2, 4), &renamed(&shape, "left"))
        .unwrap();
    for plan in &plans {
        assert!(
            plan.diagnostics.is_clean(),
            "{}",
            plan.diagnostics.render_human()
        );
        assert_eq!(plan.dag, alone.dag);
        let report = plan.run(64 << 20, 1 << 20).unwrap();
        assert_eq!(report.data_valid, Some(true));
    }
}
