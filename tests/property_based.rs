//! Property-based tests (proptest) on the core invariants:
//!
//! * schedules cover the DAG, respect data deps, never co-locate
//!   conflicting tasks, and the flat schedulers reproduce the reference
//!   schedulers exactly,
//! * allocations cover every task side exactly once per micro-batch slice,
//! * randomly generated broadcast-tree AllGathers and reduction-tree
//!   collectives are executed correctly by the full pipeline,
//! * pretty-printed DSL reparses to the same AST,
//! * the DAG's dense edge derivation reproduces the hash-map derivation it
//!   replaced, row for row, and the dense conflict-load counter reproduces
//!   the hash-map counting behind schedule rule 3 and RA003.

use proptest::prelude::*;
use rescc::algos::{compose_allreduce, reverse_allgather, seed_suite};
use rescc::alloc::TbAllocation;
use rescc::analyze::{lints, AnalysisConfig, AnalysisInput};
use rescc::core::{Compiler, LintGate};
use rescc::ir::{DepDag, IrError};
use rescc::kernel::{ExecMode, KernelProgram, LoopOrder};
use rescc::lang::provenance::required;
use rescc::lang::verify_collective;
use rescc::lang::{parse, pretty, AlgoBuilder, AlgoSpec, CommType, OpType, TransferRec};
use rescc::sched::{hpds, round_robin, Schedule};
use rescc::topology::{ChunkId, Rank, ResourceId, Step, Topology};
use rescc_bench::reference::{hpds_reference, round_robin_reference};
use std::collections::HashMap;

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

/// `preds`, `succs` and per-chunk task rows as the hash-map derivation
/// `DepDag::build` used before its dense tables derived them: per chunk, a
/// `HashMap<Rank, Vec<TaskId>>` of each rank's latest writers, one fresh
/// map per step, edges pushed into per-task `Vec` rows unless already
/// present.
#[allow(clippy::type_complexity)]
fn hashmap_dag_rows(spec: &AlgoSpec) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let ts = spec.transfers();
    let mut by_chunk: Vec<Vec<u32>> = vec![Vec::new(); spec.n_chunks() as usize];
    for (i, t) in ts.iter().enumerate() {
        by_chunk[t.chunk.index()].push(i as u32);
    }
    for row in &mut by_chunk {
        row.sort_by_key(|&i| (ts[i as usize].step, i));
    }
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); ts.len()];
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); ts.len()];
    let mut add_edge = |from: u32, to: u32| {
        if !preds[to as usize].contains(&from) {
            preds[to as usize].push(from);
            succs[from as usize].push(to);
        }
    };
    for row in &by_chunk {
        let mut last_write: HashMap<Rank, Vec<u32>> = HashMap::new();
        for group in row.chunk_by(|&a, &b| ts[a as usize].step == ts[b as usize].step) {
            for &tid in group {
                let t = ts[tid as usize];
                for &w in last_write.get(&t.src).into_iter().flatten() {
                    add_edge(w, tid);
                }
                for &w in last_write.get(&t.dst).into_iter().flatten() {
                    if w != tid {
                        add_edge(w, tid);
                    }
                }
            }
            let mut fresh: HashMap<Rank, Vec<u32>> = HashMap::new();
            for &tid in group {
                fresh.entry(ts[tid as usize].dst).or_default().push(tid);
            }
            last_write.extend(fresh);
        }
    }
    (preds, succs, by_chunk)
}

/// Assert that `dag`'s rows equal the hash-map derivation's for `spec`.
fn assert_dag_matches_hashmap_rows(spec: &AlgoSpec, dag: &DepDag, at: &str) {
    let (preds, succs, by_chunk) = hashmap_dag_rows(spec);
    let ids = |row: &[rescc::ir::TaskId]| row.iter().map(|t| t.0).collect::<Vec<u32>>();
    for t in dag.tasks() {
        assert_eq!(
            ids(dag.preds(t.id)),
            preds[t.id.index()],
            "preds of {}: {at}",
            t.id
        );
        assert_eq!(
            ids(dag.succs(t.id)),
            succs[t.id.index()],
            "succs of {}: {at}",
            t.id
        );
    }
    for (c, row) in by_chunk.iter().enumerate() {
        let chunk = ChunkId::new(c as u32);
        assert_eq!(&ids(dag.chunk_tasks(chunk)), row, "chunk {c}: {at}");
    }
}

#[test]
fn dag_edges_match_hashmap_derivation_on_seed_suite() {
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        let shape = topo.spec();
        for spec in seed_suite(shape.n_nodes, shape.gpus_per_node) {
            let dag = DepDag::build(&spec, &topo).unwrap();
            assert_dag_matches_hashmap_rows(&spec, &dag, &format!("{} on Topo{i}", spec.name()));
        }
    }
}

/// `Schedule::validate` rule 3's first error as the per-sub-pipeline
/// `HashMap` count produced it before the dense conflict-load counter.
fn hashmap_rule3(dag: &DepDag, s: &Schedule) -> Option<String> {
    for (i, sp) in s.sub_pipelines.iter().enumerate() {
        let mut load: HashMap<ResourceId, u32> = HashMap::new();
        for &t in sp {
            for r in dag.task(t).conflict.iter() {
                let l = load.entry(r).or_insert(0);
                *l += 1;
                if *l > dag.conflict_limit(r) {
                    return Some(format!(
                        "sub-pipeline {i}: task {t} oversubscribes resource {r} \
                         (load {l} > saturation {})",
                        dag.conflict_limit(r)
                    ));
                }
            }
        }
    }
    None
}

/// RA003's load findings as `(sub-pipeline, resource, task, message)`, as
/// the per-sub-pipeline `HashMap` count produced them.
fn hashmap_ra003(dag: &DepDag, s: &Schedule) -> Vec<(u32, u32, u32, String)> {
    let mut found = Vec::new();
    for (sp_idx, sp) in s.sub_pipelines.iter().enumerate() {
        let mut load: HashMap<u32, (u32, u32)> = HashMap::new();
        for &t in sp {
            for r in dag.task(t).conflict.iter() {
                let e = load.entry(r.0).or_insert((0, t.0));
                e.0 += 1;
                e.1 = t.0;
            }
        }
        let mut entries: Vec<(u32, (u32, u32))> = load.into_iter().collect();
        entries.sort_unstable();
        for (res, (load, task)) in entries {
            let limit = dag.conflict_limit(ResourceId::new(res));
            if load > limit {
                let message = format!(
                    "over-subscription: sub-pipeline {sp_idx} drives resource \
                     res{res} with {load} concurrent tasks, above its saturation \
                     limit {limit} — the excess serializes into pipeline bubbles"
                );
                found.push((sp_idx as u32, res, task, message));
            }
        }
    }
    found
}

#[test]
fn conflict_loads_match_hashmap_counting_on_seed_suite() {
    let mut oversubscribed = 0;
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        let shape = topo.spec();
        for spec in seed_suite(shape.n_nodes, shape.gpus_per_node) {
            let dag = DepDag::build(&spec, &topo).unwrap();
            let hpds_schedule = hpds(&dag);
            // Neighbouring sub-pipelines merged: dependency order still
            // holds, and merged pairs can oversubscribe.
            let merged = Schedule {
                sub_pipelines: hpds_schedule
                    .sub_pipelines
                    .chunks(2)
                    .map(|c| c.concat())
                    .collect(),
                policy: "merged".into(),
            };
            for s in [&hpds_schedule, &merged] {
                let at = format!("{} on Topo{i}, {}", spec.name(), s.policy);
                let want = hashmap_rule3(&dag, s).map(|m| IrError::new(m).to_string());
                assert_eq!(s.validate(&dag).err().map(|e| e.to_string()), want, "{at}");
                oversubscribed += usize::from(want.is_some());

                let alloc = TbAllocation::state_based(&dag, s);
                let program = KernelProgram::generate(
                    spec.name(),
                    &dag,
                    &alloc,
                    LoopOrder::SlotMajor,
                    ExecMode::DirectKernel,
                );
                let input = AnalysisInput {
                    spec: &spec,
                    dag: &dag,
                    schedule: s,
                    alloc: &alloc,
                    program: &program,
                    topo: &topo,
                };
                // No TB budget: only the load findings remain.
                let unbudgeted = AnalysisConfig {
                    tb_budget_per_rank: u32::MAX,
                };
                let mut out = Vec::new();
                lints::ra003_oversubscription(&input, &unbudgeted, &mut out);
                let got: Vec<(u32, u32, u32, String)> = out
                    .into_iter()
                    .map(|d| {
                        let site = d.site;
                        (
                            site.sub_pipeline.unwrap(),
                            site.resource.unwrap(),
                            site.task.unwrap(),
                            d.message,
                        )
                    })
                    .collect();
                assert_eq!(got, hashmap_ra003(&dag, s), "{at}");
            }
        }
    }
    assert!(
        oversubscribed > 0,
        "no merged schedule oversubscribed; the test checks nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dag_edges_match_hashmap_derivation_on_random_allgathers(
        shape_idx in 0usize..4,
        seed in prop::collection::vec(0u32..1000, 8..32),
        form in 0usize..3,
    ) {
        // The AllGather, its reversal (a ReduceScatter, whose reductions
        // give a slot several same-step writers) and their composition.
        let (nodes, g) = [(1u32, 4u32), (2, 2), (2, 4), (4, 2)][shape_idx];
        let topo = Topology::a100(nodes, g);
        let ag = random_allgather(nodes * g, &seed);
        let spec = match form {
            0 => ag,
            1 => reverse_allgather(&ag),
            _ => compose_allreduce("random-ar", &reverse_allgather(&ag), &ag),
        };
        let dag = DepDag::build(&spec, &topo).unwrap();
        assert_dag_matches_hashmap_rows(&spec, &dag, spec.name());
    }
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
        let mut compiler = Compiler::new().with_lint_gate(LintGate::Warn);
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
