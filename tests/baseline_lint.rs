//! The NCCL and MSCCL baselines compile through the same `Compiler` as
//! ResCCL, so their plans face the same verifier, lints and deny gate. A
//! rigid plan must be correct; what it may do is oversubscribe. Its
//! by-step schedule promises dependency order only, so a step whose tasks
//! share a link drives it above saturation. RA003 reports exactly that, as
//! a warning: the simulator prices the excess, and no run undercuts the
//! plan's certified makespan floor.

use rescc::algos::{seed_suite, taccl_like_allgather, taccl_like_allreduce};
use rescc::analyze::{LintCode, Severity};
use rescc::backends::{Backend, Communicator, DEFAULT_CHUNK_BYTES};
use rescc::topology::Topology;

#[test]
fn baseline_plans_are_correct_and_only_oversubscribe() {
    let backends = [("nccl", Backend::nccl()), ("msccl", Backend::msccl())];
    let topos = [
        Topology::a100(1, 4),
        Topology::a100(1, 8),
        Topology::a100(2, 4),
        Topology::a100(2, 8),
        Topology::a100(4, 4),
        Topology::a100(4, 8),
    ];
    let mut specs = 0;
    let mut oversubscribed = 0;
    for topo in &topos {
        let shape = topo.spec();
        let mut suite = seed_suite(shape.n_nodes, shape.gpus_per_node);
        suite.push(taccl_like_allgather(shape.n_nodes, shape.gpus_per_node));
        suite.push(taccl_like_allreduce(shape.n_nodes, shape.gpus_per_node));
        // One communicator per backend on this topology.
        let mut comms = backends
            .clone()
            .map(|(_, backend)| Communicator::new(topo.clone()).with_backend(backend));
        for spec in suite {
            specs += 1;
            let mut rejected = None;
            for ((name, backend), comm) in backends.iter().zip(&mut comms) {
                let case = format!("{name}/{}/{}", topo.name(), spec.name());
                // The default compiler: verified, deny-gated.
                let plan = backend
                    .compiler()
                    .compile_spec(&spec, topo)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                let findings = plan.diagnostics.diagnostics();
                for d in findings {
                    assert_ne!(d.severity, Severity::Error, "{case}: {d}");
                }
                let load_warnings = findings
                    .iter()
                    .any(|d| d.code == LintCode::RA003 && d.site.sub_pipeline.is_some());
                let by_step_rejected = plan.schedule.validate(&plan.dag).is_err();
                assert_eq!(
                    load_warnings, by_step_rejected,
                    "{case}: RA003 must warn iff the by-step schedule oversubscribes"
                );
                for chunks_per_rank in [1, 8] {
                    let buffer = u64::from(spec.n_chunks()) * chunks_per_rank * DEFAULT_CHUNK_BYTES;
                    let report = comm
                        .run_spec(&spec, buffer, DEFAULT_CHUNK_BYTES)
                        .unwrap_or_else(|e| panic!("{case} at {buffer} B: {e}"));
                    assert_eq!(
                        report.certificate_undercut,
                        Some(false),
                        "{case} at {buffer} B: completion {} ns",
                        report.sim.completion_ns
                    );
                }
                // Both baselines share the by-step schedule.
                assert_eq!(*rejected.get_or_insert(by_step_rejected), by_step_rejected);
            }
            oversubscribed += usize::from(rejected == Some(true));
        }
    }
    assert_eq!(specs, 78);
    assert_eq!(oversubscribed, 39);
}
