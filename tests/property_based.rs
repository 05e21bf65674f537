//! Property-based tests (proptest) on the core invariants:
//!
//! * schedules cover the DAG, respect data deps, never co-locate
//!   conflicting tasks, and the flat schedulers reproduce the reference
//!   schedulers exactly,
//! * allocations cover every task side exactly once per micro-batch slice,
//! * randomly generated broadcast-tree AllGathers and reduction-tree
//!   collectives are executed correctly by the full pipeline,
//! * pretty-printed DSL reparses to the same AST.

use proptest::prelude::*;
use rescc::algos::{compose_allreduce, reverse_allgather, seed_suite};
use rescc::alloc::TbAllocation;
use rescc::core::{Compiler, LintGate};
use rescc::ir::DepDag;
use rescc::lang::provenance::required;
use rescc::lang::verify_collective;
use rescc::lang::{parse, pretty, AlgoBuilder, AlgoSpec, CommType, OpType, TransferRec};
use rescc::sched::{hpds, hpds_reference, round_robin, round_robin_reference};
use rescc::topology::{Step, Topology};

const MB: u64 = 1 << 20;

/// Build a random-but-valid AllGather: for every chunk `c`, a random
/// spanning broadcast order over all ranks starting at the owner. Any such
/// spec is a correct AllGather, whatever the shape — the pipeline must
/// handle them all.
fn random_allgather(n: u32, seed: &[u32]) -> AlgoSpec {
    let mut b = AlgoBuilder::new("random-ag", OpType::AllGather, n);
    for c in 0..n {
        // A permutation of receivers derived from the seed: each rank
        // receives chunk c from a random rank that already holds it.
        let mut holders = vec![c];
        let mut step = 0u32;
        let mut remaining: Vec<u32> = (0..n).filter(|&r| r != c).collect();
        let mut i = 0usize;
        while !remaining.is_empty() {
            let pick = seed[(c as usize + i) % seed.len()] as usize % remaining.len();
            let dst = remaining.swap_remove(pick);
            let src = holders[seed[(c as usize + i + 1) % seed.len()] as usize % holders.len()];
            b.recv(src, dst, step, c);
            holders.push(dst);
            step += 1;
            i += 1;
        }
    }
    b.build().expect("random broadcast trees are well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_allgathers_execute_correctly(
        shape_idx in 0usize..4,
        seed in prop::collection::vec(0u32..1000, 8..32),
    ) {
        let (nodes, g) = [(1u32, 4u32), (2, 2), (2, 4), (4, 2)][shape_idx];
        let topo = Topology::a100(nodes, g);
        let spec = random_allgather(nodes * g, &seed);
        let plan = Compiler::new().compile_spec(&spec, &topo).unwrap();
        let rep = plan.run(spec.n_chunks() as u64 * 2 * MB, MB).unwrap();
        prop_assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn random_allgather_reversal_is_correct_reduce_scatter(
        seed in prop::collection::vec(0u32..1000, 8..24),
    ) {
        let topo = Topology::a100(2, 4);
        let ag = random_allgather(8, &seed);
        let rs = reverse_allgather(&ag);
        let plan = Compiler::new().compile_spec(&rs, &topo).unwrap();
        let rep = plan.run(16 * MB, MB).unwrap();
        prop_assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn random_composed_allreduce_is_correct(
        seed in prop::collection::vec(0u32..1000, 8..24),
    ) {
        let topo = Topology::a100(2, 4);
        let ag = random_allgather(8, &seed);
        let ar = compose_allreduce("random-ar", &reverse_allgather(&ag), &ag);
        let plan = Compiler::new().compile_spec(&ar, &topo).unwrap();
        let rep = plan.run(16 * MB, MB).unwrap();
        prop_assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn schedulers_always_produce_valid_schedules(
        shape_idx in 0usize..4,
        seed in prop::collection::vec(0u32..1000, 8..32),
    ) {
        let (nodes, g) = [(1u32, 8u32), (2, 4), (4, 2), (2, 8)][shape_idx];
        let topo = Topology::a100(nodes, g);
        let spec = random_allgather(nodes * g, &seed);
        let dag = DepDag::build(&spec, &topo).unwrap();
        let h = hpds(&dag);
        prop_assert!(h.validate(&dag).is_ok(), "hpds invalid: {:?}", h.validate(&dag));
        let rr = round_robin(&dag);
        prop_assert!(rr.validate(&dag).is_ok());
        // Both schedulers schedule exactly the DAG, once.
        prop_assert_eq!(h.n_tasks(), dag.len());
        prop_assert_eq!(rr.n_tasks(), dag.len());
        // The flat schedulers reproduce the reference ones exactly.
        prop_assert_eq!(h, hpds_reference(&dag));
        prop_assert_eq!(rr, round_robin_reference(&dag));
    }

    #[test]
    fn allocations_always_validate(
        seed in prop::collection::vec(0u32..1000, 8..32),
        channels in 1u32..6,
    ) {
        let topo = Topology::a100(2, 4);
        let spec = random_allgather(8, &seed);
        let dag = DepDag::build(&spec, &topo).unwrap();
        let sched = hpds(&dag);
        let state = TbAllocation::state_based(&dag, &sched);
        prop_assert!(state.validate(&dag, &sched).is_ok());
        let conn = TbAllocation::connection_based(&dag, &sched, channels);
        prop_assert!(conn.validate(&dag, &sched).is_ok());
        // State-based merging never uses more TBs than one-per-endpoint.
        let conn1 = TbAllocation::connection_based(&dag, &sched, 1);
        prop_assert!(state.total_tbs() <= conn1.total_tbs());
    }

    #[test]
    fn dsl_pretty_print_roundtrips(
        n in 2u32..16,
        a in 0i64..100,
        b in 1i64..100,
        c in 1i64..100,
    ) {
        // Generate a program with a moderately nasty expression and check
        // parse(pretty(parse(src))) == parse(src).
        let src = format!(
            "def ResCCLAlgo(nRanks={n}, OpType=\"Allgather\"):\n    \
             x = ({a}+{b})*{c}-{a}%({b}+1)/{c}\n    \
             for r in range(0, {n}):\n        \
                 transfer(r, (r+1)%{n}, 0, r, recv)\n"
        );
        let p1 = parse(&src).unwrap();
        let p2 = parse(&pretty(&p1)).unwrap();
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn hpds_deterministic_across_runs(
        seed in prop::collection::vec(0u32..1000, 8..16),
    ) {
        let topo = Topology::a100(2, 4);
        let spec = random_allgather(8, &seed);
        let dag = DepDag::build(&spec, &topo).unwrap();
        prop_assert_eq!(hpds(&dag), hpds(&dag));
    }
}

proptest! {
    // Every contract, intact and corrupted, through both judges.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn static_verifier_agrees_with_simulator(
        seed in prop::collection::vec(0u32..1000, 8..24),
        pick in 0usize..8,
        break_it in proptest::bool::ANY,
        duplicate in proptest::bool::ANY,
    ) {
        // The static verifier and the discrete-event simulator's runtime
        // data check must agree on correctness, for every contract: random
        // broadcast-tree AllGathers (`pick == 0`) and the seed suite's
        // AllReduce and ReduceScatter algorithms. Intact, both accept;
        // corrupted by a dropped transfer or a duplicated reduction, both
        // reject.
        let topo = Topology::a100(2, 4);
        let spec = if pick == 0 {
            random_allgather(8, &seed)
        } else {
            let mut reductions = seed_suite(2, 4);
            reductions.retain(|s| s.op() != OpType::AllGather);
            reductions.swap_remove((pick - 1) % reductions.len())
        };
        let ts = spec.transfers();
        let at = seed[0] as usize;
        // Reductions into a slot the postcondition checks, so that folding
        // one in twice always breaks the contract.
        let rrcs: Vec<TransferRec> = ts
            .iter()
            .copied()
            .filter(|t| t.comm == CommType::Rrc && required(spec.op(), t.dst.0, t.chunk.0))
            .collect();
        let mut v = ts.to_vec();
        if break_it && duplicate && !rrcs.is_empty() {
            // Fold one reduction in a second time, after its chunk's last
            // step: no other transfer of that step reads or writes the
            // slot, so the double count is the only fault.
            let t = rrcs[at % rrcs.len()];
            let last = ts.iter().filter(|u| u.chunk == t.chunk).map(|u| u.step.0).max().unwrap();
            v.push(TransferRec { step: Step::new(last + 1), ..t });
        } else if break_it {
            // Drop one transfer: some slot misses a contribution.
            v.remove(at % v.len());
        }
        let spec = AlgoSpec::new("candidate", spec.op(), 8, v).unwrap();
        let verdict = verify_collective(&spec);
        // Let the simulator be the judge.
        let mut compiler = Compiler::new().with_lint_gate(LintGate::Off);
        compiler.verify = false;
        let sim_ok = compiler
            .compile_spec(&spec, &topo)
            .and_then(|plan| plan.run(16 * MB, MB))
            .is_ok();
        prop_assert_eq!(verdict.is_ok(), sim_ok, "verifier and simulator disagree");
        prop_assert_eq!(verdict.is_ok(), !break_it, "{:?}", verdict);
    }
}

#[test]
fn flat_schedulers_match_reference_on_seed_suite() {
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        let shape = topo.spec();
        for spec in seed_suite(shape.n_nodes, shape.gpus_per_node) {
            let dag = DepDag::build(&spec, &topo).unwrap();
            let at = format!("{} on Topo{i}", spec.name());
            assert_eq!(hpds(&dag), hpds_reference(&dag), "hpds: {at}");
            assert_eq!(round_robin(&dag), round_robin_reference(&dag), "rr: {at}");
        }
    }
}
