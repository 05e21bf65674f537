//! Static verification at every scale. Release builds only: the specs
//! here have up to two million transfers.
//!
//! `verify_collective` must accept the HM collectives at 512 and 1,024
//! ranks and reject a 512-rank HM-AllReduce with one reduction
//! duplicated, and a default `Compiler` must verify, and so reject, that
//! spec too: no group size skips verification.

#![cfg(not(debug_assertions))]

use rescc::algos::{hm_allgather, hm_allreduce, hm_reduce_scatter};
use rescc::core::Compiler;
use rescc::lang::{verify_collective, AlgoSpec, CommType, TransferRec};
use rescc::topology::{Step, Topology};

/// `spec` with its first reduction repeated one step later: the reduced
/// slot ends with that source's data twice.
fn duplicate_a_reduction(spec: &AlgoSpec) -> AlgoSpec {
    let mut transfers = spec.transfers().to_vec();
    let t = *transfers
        .iter()
        .find(|t| t.comm == CommType::Rrc)
        .expect("an AllReduce reduces");
    transfers.push(TransferRec {
        step: Step::new(t.step.0 + 1),
        ..t
    });
    AlgoSpec::new(
        format!("{}-dup-rrc", spec.name()),
        spec.op(),
        spec.n_ranks(),
        transfers,
    )
    .expect("the duplicate is a new transfer tuple")
}

#[test]
fn hm_collectives_verify_at_512_and_1024_ranks() {
    for nodes in [64, 128] {
        for spec in [
            hm_allgather(nodes, 8),
            hm_reduce_scatter(nodes, 8),
            hm_allreduce(nodes, 8),
        ] {
            verify_collective(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
        }
    }
}

#[test]
fn duplicated_reduction_is_rejected_at_512_ranks() {
    let bad = duplicate_a_reduction(&hm_allreduce(64, 8));
    let err = verify_collective(&bad).unwrap_err().to_string();
    assert!(err.contains("does not implement"), "{err}");

    match Compiler::new().compile_spec(&bad, &Topology::a100(64, 8)) {
        Ok(_) => panic!("a verifying compiler accepted {} at 512 ranks", bad.name()),
        Err(e) => assert!(e.to_string().contains("does not implement"), "{e}"),
    }
}
