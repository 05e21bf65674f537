//! The NCCL and MSCCL baselines compile through the same `Compiler` as
//! ResCCL, so their plans face the same validators and lints. A rigid plan
//! must be correct; what it may do is oversubscribe. Its by-step schedule
//! promises dependency order only, so a step whose tasks share a link
//! drives it above saturation, and RA003 reports exactly that.

use rescc::algos::{seed_suite, taccl_like_allgather, taccl_like_allreduce};
use rescc::analyze::{LintCode, Severity};
use rescc::backends::{Backend, MscclBackend, NcclBackend};
use rescc::core::{Compiler, LintGate};
use rescc::sim::{LintRefusal, SimError};
use rescc::topology::Topology;

#[test]
fn baseline_plans_are_correct_and_only_oversubscribe() {
    let compilers = [
        ("nccl", NcclBackend::default().compiler()),
        ("msccl", MscclBackend::default().compiler()),
    ];
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
        for spec in suite {
            specs += 1;
            let mut rejected = None;
            for (name, compiler) in &compilers {
                let case = format!("{name}/{}/{}", topo.name(), spec.name());
                let gated = |gate| Compiler {
                    verify: true,
                    ..compiler.clone().with_lint_gate(gate)
                };
                let plan = gated(LintGate::Warn)
                    .compile_spec(&spec, topo)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                let errors: Vec<_> = plan
                    .diagnostics
                    .diagnostics()
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .collect();
                for d in &errors {
                    assert_eq!(d.code, LintCode::RA003, "{case}: {d}");
                }
                let by_step_rejected = plan.schedule.validate(&plan.dag).is_err();
                assert_eq!(
                    !errors.is_empty(),
                    by_step_rejected,
                    "{case}: RA003 errors must appear iff the by-step schedule \
                     oversubscribes"
                );
                match gated(LintGate::Deny).compile_spec(&spec, topo) {
                    Ok(_) => assert!(!by_step_rejected, "{case}: deny gate let RA003 through"),
                    Err(SimError::LintRejected {
                        refusal: LintRefusal::Plan,
                        report,
                    }) => {
                        assert!(by_step_rejected, "{case}: refused: {report}");
                        assert!(report.contains("RA003"), "{case}: {report}");
                    }
                    Err(e) => panic!("{case}: {e}"),
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
