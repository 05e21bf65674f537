//! Fused plans: the static deadlock lint and the engine must agree.
//!
//! `Compiler::with_fusion` lowers with chain merging and the
//! `recvCopySend`/`recvReduceSend` fusion pass. Chain merging keys a
//! forward right behind its feeder, ahead of its own schedule position,
//! and on some plans that closes a rendezvous cycle. RA001 must flag
//! exactly the plans the engine deadlocks on, and every other fused plan
//! must produce correct data.

use rescc::algos::seed_suite;
use rescc::analyze::LintCode;
use rescc::core::{Compiler, LintGate};
use rescc::sim::SimError;
use rescc::topology::Topology;

const MB: u64 = 1 << 20;

/// Fused plans that deadlock today. Chain merging reorders a forward that
/// has a later predecessor (a write-after-write edge at its destination)
/// ahead of slots it must wait behind; fixing the merge is an open item.
const KNOWN_DEADLOCKS: &[&str] = &[
    "a100-1x4/hm-ar-1x4",
    "a100-1x8/hm-ar-1x8",
    "a100-2x4/hm-ag-2x4",
    "a100-2x8/hm-ag-2x8",
    "a100-2x8/dbtree-ar-16",
    "a100-4x4/hm-ag-4x4",
    "a100-4x4/dbtree-ar-16",
    "a100-4x8/hm-ag-4x8",
    "a100-4x8/dbtree-ar-32",
];

#[test]
fn ra001_agrees_with_engine_on_fused_plans() {
    let compiler = Compiler::new().with_fusion().with_lint_gate(LintGate::Warn);
    let topos = [
        Topology::a100(1, 4),
        Topology::a100(1, 8),
        Topology::a100(2, 4),
        Topology::a100(2, 8),
        Topology::a100(4, 4),
        Topology::a100(4, 8),
    ];
    let mut plans = 0;
    let mut deadlocks = Vec::new();
    for topo in &topos {
        let shape = topo.spec();
        for spec in seed_suite(shape.n_nodes, shape.gpus_per_node) {
            let case = format!("{}/{}", topo.name(), spec.name());
            let plan = compiler
                .compile_spec(&spec, topo)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            plans += 1;
            let ra001 = plan.diagnostics.with_code(LintCode::RA001).next().is_some();
            let buffer = spec.n_chunks() as u64 * (2 * MB + 1000);
            match plan.run(buffer, MB) {
                Err(SimError::Deadlock(msg)) => {
                    assert!(
                        ra001,
                        "{case}: engine deadlocked but RA001 is silent: {msg}"
                    );
                    deadlocks.push(case);
                }
                Err(e) => panic!("{case}: {e}"),
                Ok(rep) => {
                    assert!(!ra001, "{case}: RA001 fired but the run completed");
                    assert_eq!(rep.data_valid, Some(true), "{case}");
                }
            }
        }
    }
    assert_eq!(plans, 66);
    assert_eq!(deadlocks, KNOWN_DEADLOCKS);
}
