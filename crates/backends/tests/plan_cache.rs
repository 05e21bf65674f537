//! Plan-cache behaviour of the [`Communicator`] dispatcher: warm calls
//! must not run any compile phase, and must return the same simulation
//! result the cold call produced. Every proof reads state scoped to the
//! test: its own communicators' cache counters and dispatch events. Also
//! the plan keys of every backend's compiler.

use rescc_algos::hm_allreduce;
use rescc_backends::{Backend, Communicator};
use rescc_core::{plan_fingerprint, Compiler, PlanCache};
use rescc_ir::MicroBatchPlan;
use rescc_topology::Topology;
use std::sync::{Arc, Barrier};

const MB: u64 = 1 << 20;

#[test]
fn warm_dispatch_skips_all_compile_phases() {
    let mut comm = Communicator::new(Topology::a100(2, 4));

    let cold = comm.all_reduce(64 * MB).unwrap();
    let cold_stats = comm.cache_stats();
    assert_eq!((cold_stats.hits, cold_stats.misses), (0, 1));

    let warm = comm.all_reduce(64 * MB).unwrap();
    let warm_stats = comm.cache_stats();
    assert_eq!(
        (warm_stats.hits, warm_stats.misses),
        (1, 1),
        "a warm dispatch must hit, not compile"
    );
    assert_eq!(cold.sim, warm.sim, "cached run must match the cold run");
}

#[test]
fn distinct_configurations_miss_repeats_hit() {
    let mut comm = Communicator::new(Topology::a100(2, 4));
    comm.all_reduce(256 * MB).unwrap();
    comm.all_gather(256 * MB).unwrap();
    comm.all_reduce(256 * MB).unwrap();
    let stats = comm.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
}

/// Multi-tenant dispatch: a plan compiled by one communicator serves
/// every other tenant of the shared cache, with no further compile.
#[test]
fn shared_cache_serves_across_communicators() {
    let service = Arc::new(PlanCache::new());
    let mut a = Communicator::new(Topology::a100(2, 4)).with_shared_cache(Arc::clone(&service));
    let mut b = Communicator::new(Topology::a100(2, 4)).with_shared_cache(Arc::clone(&service));
    let cold = a.all_reduce(64 * MB).unwrap();
    let warm = b.all_reduce(64 * MB).unwrap();
    assert_eq!(cold.sim, warm.sim);
    let stats = service.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (1, 1, 1),
        "tenant B must be served by tenant A's compile"
    );
    assert_eq!(a.cache_stats(), b.cache_stats());
}

/// Regression (pre-PR misattribution): under a shared cache, each
/// tenant's observability must report *its own* dispatch outcome —
/// reading the shared journal's tail reports whichever tenant dispatched
/// last. Two threads race one configuration: together they must observe
/// exactly one miss (the single compile) and one hit/coalesced serve.
#[test]
fn concurrent_tenants_attribute_their_own_dispatch() {
    let service = Arc::new(PlanCache::new());
    let start = Barrier::new(2);
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                let start = &start;
                s.spawn(move || {
                    let mut comm = Communicator::new(Topology::a100(2, 4))
                        .with_shared_cache(service)
                        .with_observability();
                    start.wait();
                    comm.all_reduce(64 * MB).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let obs: Vec<_> = reports.into_iter().map(|r| r.obs.unwrap()).collect();
    for o in &obs {
        assert_eq!(
            o.cache_hits + o.cache_misses,
            1,
            "each tenant observes exactly its own dispatch"
        );
    }
    let misses: u64 = obs.iter().map(|o| o.cache_misses).sum();
    let hits: u64 = obs.iter().map(|o| o.cache_hits).sum();
    assert_eq!((misses, hits), (1, 1));
    assert_eq!(
        service.stats().misses,
        1,
        "racing tenants must share one compile"
    );
}

#[test]
fn lowerings_fingerprint_distinctly() {
    let spec = hm_allreduce(2, 4);
    let topo = Topology::a100(2, 4);
    let mb = MicroBatchPlan::plan(64 * MB, spec.n_chunks(), MB);
    let key = |compiler: &Compiler| plan_fingerprint(compiler, &spec, &topo, &mb);
    // Pinned: a new compiler option must not move the keys of the default
    // or the fused compiler.
    let plain = key(&Compiler::new());
    assert_eq!(plain, 0x350f_1495_27d8_33bb, "{plain:#018x}");
    let fused = key(&Compiler::new().with_fusion());
    assert_eq!(fused, 0x2b5c_1bda_8442_e135, "{fused:#018x}");
    let keys = [
        plain,
        fused,
        key(&Compiler::new().with_round_robin()),
        key(&Backend::nccl().compiler()),
        key(&Backend::Nccl { n_channels: 12 }.compiler()),
        key(&Backend::msccl().compiler()),
        key(&Backend::Msccl {
            n_channels: 1,
            interpreter_overhead_ns: 9_000.0,
        }
        .compiler()),
        key(&Backend::Msccl {
            n_channels: 4,
            interpreter_overhead_ns: 0.0,
        }
        .compiler()),
    ];
    for (i, a) in keys.iter().enumerate() {
        for (j, b) in keys.iter().enumerate().skip(i + 1) {
            assert_ne!(a, b, "compilers {i} and {j} share a plan key");
        }
    }
}
