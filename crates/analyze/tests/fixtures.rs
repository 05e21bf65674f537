//! Defect-fixture corpus: one minimal fixture per lint, each triggering
//! exactly its own code and nothing else.
//!
//! Each fixture starts from a *valid* compiled stack and injects one
//! defect at the layer the lint targets — a fabricated TB slot order for
//! RA001, a racy spec for RA002, a degenerate schedule / tiny TB budget
//! for RA003, a provenance-dead transfer for RA004, a health-masked
//! topology for RA005, an unordered slot reuse for RA006, a zero-rate
//! link for RA007. The assertions pin both the code *and* the absence
//! of every other code, so a lint that starts over- or under-firing
//! fails here before it reaches the seed sweep. A final fixture pins the `--json` rendering
//! to be byte-deterministic across independent analysis runs.

use rescc_alloc::{Direction, Slot, SlotTable, Tb, TbAllocation};
use rescc_analyze::{
    analyze, AnalysisConfig, AnalysisInput, AnalysisReport, CombinedOrder, HbOracle, LintCode,
    Severity,
};
use rescc_ir::DepDag;
use rescc_kernel::{ExecMode, KernelProgram, LoopOrder};
use rescc_lang::{AlgoBuilder, AlgoSpec, CommType, OpType, TransferRec};
use rescc_sched::{hpds, Schedule};
use rescc_topology::{
    ChunkId, ClusterSpec, FabricParams, NicId, Rank, Step, Topology, TopologyHealth,
};
use std::sync::Arc;

fn full_stack(spec: &AlgoSpec, topo: &Topology) -> (DepDag, Schedule, TbAllocation, KernelProgram) {
    let dag = DepDag::build(spec, topo).expect("dag");
    let sched = hpds(&dag);
    let alloc = TbAllocation::connection_based(&dag, &sched, 1);
    let program = KernelProgram::generate(
        spec.name(),
        &dag,
        &alloc,
        LoopOrder::SlotMajor,
        ExecMode::DirectKernel,
    );
    (dag, sched, alloc, program)
}

fn run(
    spec: &AlgoSpec,
    topo: &Topology,
    dag: &DepDag,
    schedule: &Schedule,
    alloc: &TbAllocation,
    program: &KernelProgram,
    config: &AnalysisConfig,
) -> AnalysisReport {
    analyze(
        &AnalysisInput {
            spec,
            dag,
            schedule,
            alloc,
            program,
            topo,
        },
        config,
    )
}

/// RA002's racy spec: a same-step copy and reduction into rank 0's chunk 0.
fn copy_vs_reduce() -> AlgoSpec {
    let mut b = AlgoBuilder::new("race", OpType::AllReduce, 4);
    b.recv(1, 0, 0, 0);
    b.rrc(2, 0, 0, 0);
    b.build().expect("racy spec is syntactically valid")
}

/// [`copy_vs_reduce`] with two reductions, which commute.
fn two_reductions() -> AlgoSpec {
    let mut b = AlgoBuilder::new("commute", OpType::AllReduce, 4);
    b.rrc(1, 0, 0, 0);
    b.rrc(2, 0, 0, 0);
    b.build().expect("spec")
}

/// RA006's spec: rank 1's chunk 0 is rewritten unordered with its reader.
fn unordered_reuse() -> AlgoSpec {
    let mut b = AlgoBuilder::new("reuse", OpType::AllGather, 4);
    b.recv(0, 1, 0, 0); // w1: first write of rank1/c0
    b.recv(0, 3, 0, 0); // seeds rank 3 so the reuse reads a live slot
    b.recv(1, 2, 1, 0); // r: reader of w1's value
    b.recv(3, 1, 2, 0); // w2: slot reuse, unordered with r
    b.build().expect("spec")
}

/// [`unordered_reuse`] with the reuse ordered after the read.
fn ordered_reuse() -> AlgoSpec {
    let mut b = AlgoBuilder::new("reuse-ok", OpType::AllGather, 4);
    b.recv(0, 1, 0, 0);
    b.recv(1, 2, 1, 0);
    b.recv(2, 1, 2, 0); // reads rank2/c0, written by the forward
    b.build().expect("spec")
}

/// Every diagnostic carries `code` with `severity`, and there is at least
/// one.
fn assert_only(report: &AnalysisReport, code: LintCode, severity: Severity) {
    assert!(
        !report.diagnostics().is_empty(),
        "expected {} diagnostics, report is clean",
        code.as_str()
    );
    for d in report.diagnostics() {
        assert_eq!(
            d.code,
            code,
            "unexpected cross-fire:\n{}",
            report.render_human()
        );
        assert_eq!(d.severity, severity, "wrong severity: {}", d.message);
    }
}

/// RA001: a fabricated TB whose slot order contradicts a DAG edge. The
/// ring chain has t0 -> t1 for chunk 0; a TB running [t1, t0] serializes
/// t1 before t0, closing the cycle. Every individual artifact still
/// passes its own validator — only the combined order is wedged.
#[test]
fn ra001_fixture_tb_order_against_dag_edge() {
    let topo = Topology::a100(1, 4);
    let spec = rescc_algos::ring_allgather(4);
    let (dag, schedule, alloc, mut program) = full_stack(&spec, &topo);

    let chain = dag.chunk_tasks(ChunkId::new(0));
    let (x, y) = (chain[0], chain[1]);
    assert!(dag.succs(x).contains(&y), "fixture precondition: x -> y");
    // The program's table plus one more TB on rank 0, after its others.
    let table = &program.table;
    let mut slots = table.slots().to_vec();
    let mut tbs = table.tbs().to_vec();
    let at = table.rank_tbs(0).len();
    let first = slots.len() as u32;
    slots.extend([Slot::new(y, Direction::Recv), Slot::new(x, Direction::Recv)]);
    let extra = Tb {
        rank: 0,
        first,
        len: 2,
        mb_stride: 1,
        mb_offset: 0,
    };
    tbs.insert(at, extra);
    program.table = Arc::new(SlotTable::new(table.n_ranks(), slots, tbs));

    let report = run(
        &spec,
        &topo,
        &dag,
        &schedule,
        &alloc,
        &program,
        &AnalysisConfig::default(),
    );
    assert_only(&report, LintCode::RA001, Severity::Error);
    let d = &report.diagnostics()[0];
    assert!(
        d.message.contains("cycle"),
        "RA001 should print the cycle: {}",
        d.message
    );
}

/// The happens-before oracle builds its labels on the first query that
/// its positions cannot refute: a build that answers nothing reports no
/// chains, and on every fixture's plan each answer equals a plain search
/// of the combined order.
#[test]
fn oracle_labels_are_lazy_and_answers_are_exact() {
    let topo = Topology::a100(1, 4);
    let specs = [
        copy_vs_reduce(),
        two_reductions(),
        unordered_reuse(),
        ordered_reuse(),
        rescc_algos::ring_allgather(4),
        rescc_algos::hm_allreduce(1, 4),
    ];
    for spec in &specs {
        let (dag, _, _, program) = full_stack(spec, &topo);
        let order = CombinedOrder::build(&dag, &program);
        let chunk_of: Vec<u32> = dag.tasks().iter().map(|t| t.chunk.0).collect();
        let mut oracle = HbOracle::build(&order, &chunk_of).expect("acyclic");
        assert_eq!(oracle.stats().n_chains, 0, "{}: built eagerly", spec.name());
        let n = order.len() as u32;
        for from in 0..n {
            // Everything `from` reaches, by a plain search.
            let mut seen = vec![false; n as usize];
            let mut stack = vec![from];
            while let Some(u) = stack.pop() {
                if !std::mem::replace(&mut seen[u as usize], true) {
                    stack.extend_from_slice(order.succs(u));
                }
            }
            for to in 0..n {
                assert_eq!(
                    oracle.reaches(&order, from, to),
                    seen[to as usize],
                    "{}: t{from} -> t{to}",
                    spec.name()
                );
            }
        }
        let stats = oracle.stats();
        assert_eq!(stats.queries, u64::from(n * n));
        assert!(
            stats.n_chains > 0,
            "{}: a query built the labels",
            spec.name()
        );
    }
}

/// RA002: a same-step copy + reduction racing into one `(rank, chunk)`
/// slot. The spec validator accepts it (the tuples are distinct), the DAG
/// draws no edge (same step), and the two receives land in different TBs
/// (different connections) — so nothing orders them and the slot's final
/// value depends on arrival order.
#[test]
fn ra002_fixture_unordered_copy_vs_reduce() {
    let topo = Topology::a100(1, 4);
    let spec = copy_vs_reduce();
    let (dag, schedule, alloc, program) = full_stack(&spec, &topo);

    let report = run(
        &spec,
        &topo,
        &dag,
        &schedule,
        &alloc,
        &program,
        &AnalysisConfig::default(),
    );
    assert_only(&report, LintCode::RA002, Severity::Error);
    assert_eq!(report.diagnostics().len(), 1);
    let site = &report.diagnostics()[0].site;
    assert_eq!(site.rank, Some(0));
    assert_eq!(site.chunk, Some(0));
}

/// RA002 counter-fixture: two *reductions* into one slot commute, so the
/// same shape with `rrc` + `rrc` is clean.
#[test]
fn ra002_two_reductions_commute() {
    let topo = Topology::a100(1, 4);
    let spec = two_reductions();
    let (dag, schedule, alloc, program) = full_stack(&spec, &topo);

    let report = run(
        &spec,
        &topo,
        &dag,
        &schedule,
        &alloc,
        &program,
        &AnalysisConfig::default(),
    );
    assert!(report.is_clean(), "unexpected: {}", report.render_human());
}

/// RA003 (warn): cram every task of an 8-rank ring into one sub-pipeline.
/// Each GPU egress then carries 7 concurrent tasks against a saturation
/// limit far below that — the Eq. 1 contention constraint the scheduler
/// exists to respect. The plan is still correct, so it is a warning.
#[test]
fn ra003_fixture_oversubscribed_sub_pipeline() {
    let topo = Topology::a100(1, 8);
    let spec = rescc_algos::ring_allgather(8);
    let (dag, schedule, alloc, program) = full_stack(&spec, &topo);
    let flat = Schedule {
        sub_pipelines: vec![schedule.linear_order()],
        policy: "everything-at-once".into(),
    };

    let report = run(
        &spec,
        &topo,
        &dag,
        &flat,
        &alloc,
        &program,
        &AnalysisConfig::default(),
    );
    assert_only(&report, LintCode::RA003, Severity::Warn);
}

/// RA003 (warn): the same clean plan against a TB budget of 1 per rank.
/// Connection-based allocation needs one TB per endpoint (>= 2 on a
/// ring), so every rank trips the Eq. 7 budget — a warning, not an error:
/// the plan is correct, it just crowds out compute kernels.
#[test]
fn ra003_fixture_tb_budget_exceeded() {
    let topo = Topology::a100(1, 4);
    let spec = rescc_algos::ring_allgather(4);
    let (dag, schedule, alloc, program) = full_stack(&spec, &topo);
    assert!((0..4).all(|r| alloc.table.rank_tbs(r).len() >= 2));

    let report = run(
        &spec,
        &topo,
        &dag,
        &schedule,
        &alloc,
        &program,
        &AnalysisConfig {
            tb_budget_per_rank: 1,
        },
    );
    assert_only(&report, LintCode::RA003, Severity::Warn);
    assert_eq!(report.diagnostics().len(), 4, "one warning per rank");
}

/// RA004: a ring AllGather plus a transfer whose delivery is overwritten
/// before anything reads it. Task A re-copies chunk 0 into rank 1's slot
/// after the ring already delivered and forwarded it; task B overwrites
/// the same slot one step later. A's contribution reaches no slot the
/// postcondition reads — bytes moved for nothing — while B's survives to
/// the end and stays clean. Both extras source from rank 2, whose
/// chunk-0 slot was written by rank 1's own forward: that RAW edge
/// orders the reuse after the previous write's only reader, so the
/// overwrite chain is RA006-clean and isolates RA004.
#[test]
fn ra004_fixture_overwritten_transfer() {
    let topo = Topology::a100(1, 4);
    let ring = rescc_algos::ring_allgather(4);
    let last = ring.max_step().0;
    let mut transfers = ring.transfers().to_vec();
    let extra = |step: u32| TransferRec {
        src: Rank::new(2),
        dst: Rank::new(1),
        step: Step::new(step),
        chunk: ChunkId::new(0),
        comm: CommType::Recv,
    };
    transfers.push(extra(last + 1)); // task A — dead
    transfers.push(extra(last + 2)); // task B — overwrites A
    let spec =
        AlgoSpec::new("ring-plus-dead", OpType::AllGather, 4, transfers).expect("valid spec");
    let (dag, schedule, alloc, program) = full_stack(&spec, &topo);

    let report = run(
        &spec,
        &topo,
        &dag,
        &schedule,
        &alloc,
        &program,
        &AnalysisConfig::default(),
    );
    assert_only(&report, LintCode::RA004, Severity::Warn);
    assert_eq!(report.diagnostics().len(), 1, "only A is dead, B survives");
    let site = &report.diagnostics()[0].site;
    assert_eq!(site.step, Some(last + 1), "the dead task is A, not B");
    assert_eq!(site.chunk, Some(0));
}

/// RA005: a plan compiled against a healthy 2-node topology, analyzed
/// against the same topology with node 0's NIC egress masked dead. Every
/// cross-node task routed over that NIC is unsound — it fails at runtime
/// on its first transfer.
#[test]
fn ra005_fixture_plan_over_dead_nic() {
    let healthy = Topology::a100(2, 2);
    let spec = rescc_algos::ring_allgather(4);
    let (dag, schedule, alloc, program) = full_stack(&spec, &healthy);

    let mut mask = TopologyHealth::healthy();
    mask.mask(healthy.nic_tx(NicId::new(0)));
    let degraded = Topology::a100(2, 2).with_health(mask);

    let report = run(
        &spec,
        &degraded,
        &dag,
        &schedule,
        &alloc,
        &program,
        &AnalysisConfig::default(),
    );
    assert_only(&report, LintCode::RA005, Severity::Error);
    let nic = healthy.nic_tx(NicId::new(0)).0;
    for d in report.diagnostics() {
        assert_eq!(d.site.resource, Some(nic));
    }
}

/// RA006: a write→read→write triangle with the reuse unordered against
/// the reader. Rank 0 seeds chunk 0 into ranks 1 and 3; rank 1 forwards
/// it to rank 2 at step 1; rank 3 re-copies it into rank 1's slot at
/// step 2. The two writes into rank 1's slot are WAW-ordered (RA002 is
/// silent), but the reuse sources from rank 3 — not from the forward —
/// so no edge and no TB slot order relates the reader t(1->2) to the
/// reuse t(3->1): micro-batch pipelining can overwrite the slot while
/// the forward is still reading it.
#[test]
fn ra006_fixture_unordered_slot_reuse() {
    let topo = Topology::a100(1, 4);
    let spec = unordered_reuse();
    let (dag, schedule, alloc, program) = full_stack(&spec, &topo);

    let find = |src: u32, dst: u32, step: u32| -> u32 {
        dag.tasks()
            .iter()
            .position(|t| t.src.0 == src && t.dst.0 == dst && t.step.0 == step)
            .expect("fixture task") as u32
    };
    let (w1, r, w2) = (find(0, 1, 0), find(1, 2, 1), find(3, 1, 2));

    let report = run(
        &spec,
        &topo,
        &dag,
        &schedule,
        &alloc,
        &program,
        &AnalysisConfig::default(),
    );
    assert_only(&report, LintCode::RA006, Severity::Error);
    assert_eq!(report.diagnostics().len(), 1);
    let d = &report.diagnostics()[0];
    assert_eq!(d.path, vec![w1, r, w2], "counterexample is w1 -> r vs w2");
    assert_eq!(d.site.rank, Some(1));
    assert_eq!(d.site.chunk, Some(0));
    assert_eq!(d.site.task, Some(w2), "the diagnostic anchors on the reuse");
}

/// RA006 counter-fixture: the same shape with the reuse sourcing from
/// the *reader's* destination. The reuse then carries a RAW edge from
/// the forward, ordering it after the read — clean.
#[test]
fn ra006_ordered_reuse_is_clean() {
    let topo = Topology::a100(1, 4);
    let spec = ordered_reuse();
    let (dag, schedule, alloc, program) = full_stack(&spec, &topo);

    let report = run(
        &spec,
        &topo,
        &dag,
        &schedule,
        &alloc,
        &program,
        &AnalysisConfig::default(),
    );
    assert!(report.is_clean(), "unexpected: {}", report.render_human());
}

/// RA007: a transfer routed over an NVLink channel whose α–β–γ
/// parameters deliver zero bandwidth (infinite β, zero per-TB rate) —
/// the brownout-overlay shape the constructors forbid but a
/// hand-assembled fabric can express. The windowed demand through that
/// channel exceeds its capacity at every window length, so the plan is
/// statically infeasible; the certificate must still be finite, priced
/// off the healthy port resources.
#[test]
fn ra007_fixture_zero_bandwidth_link() {
    let mut fabric = FabricParams::a100();
    fabric.intra.beta_ns_per_byte = f64::INFINITY;
    fabric.intra.tb_bw_bytes_per_ns = 0.0;
    let topo = Topology::new(
        "a100-1x2-deadchan",
        ClusterSpec {
            n_nodes: 1,
            gpus_per_node: 2,
            nics_per_node: 1,
        },
        fabric,
    );
    let mut b = AlgoBuilder::new("deadchan", OpType::AllGather, 2);
    b.recv(0, 1, 0, 0);
    let spec = b.build().expect("spec");
    let (dag, schedule, alloc, program) = full_stack(&spec, &topo);

    let report = run(
        &spec,
        &topo,
        &dag,
        &schedule,
        &alloc,
        &program,
        &AnalysisConfig::default(),
    );
    assert_only(&report, LintCode::RA007, Severity::Error);
    assert_eq!(
        report.diagnostics().len(),
        1,
        "one dead resource, one error"
    );
    let d = &report.diagnostics()[0];
    assert_eq!(d.site.sub_pipeline, Some(0));
    assert!(d.message.contains("deliverable bandwidth is zero"));

    let cert = report.certificate().expect("certificate present");
    assert!(
        cert.alpha_chain_ns.is_finite() && cert.bottleneck_beta_ns_per_byte.is_finite(),
        "certificate prices only deliverable links"
    );
    assert!(cert.lower_bound_ns(1 << 20).is_finite());
}

/// The `rescc-lint --json` schema promises byte-identical output for
/// identical inputs (DESIGN.md §12). Two fully independent analysis runs
/// — rebuilt stacks, fresh oracles — must render the same JSON, both for
/// a dirty plan with counterexample paths and for a clean seed plan
/// whose report is just the certificate.
#[test]
fn json_output_is_deterministic() {
    let render = |spec: &AlgoSpec, topo: &Topology| -> String {
        let (dag, schedule, alloc, program) = full_stack(spec, topo);
        run(
            spec,
            topo,
            &dag,
            &schedule,
            &alloc,
            &program,
            &AnalysisConfig::default(),
        )
        .to_json()
    };

    let topo = Topology::a100(1, 4);
    let mut b = AlgoBuilder::new("reuse", OpType::AllGather, 4);
    b.recv(0, 1, 0, 0);
    b.recv(0, 3, 0, 0);
    b.recv(1, 2, 1, 0);
    b.recv(3, 1, 2, 0);
    let dirty = b.build().expect("spec");
    assert_eq!(render(&dirty, &topo), render(&dirty, &topo));

    let clean = rescc_algos::ring_allgather(4);
    let json = render(&clean, &topo);
    assert_eq!(json, render(&clean, &topo));
    assert!(json.contains("\"certificate\""));
}

/// The fixtures above stay minimal *because* the seed corpus is clean:
/// every lint must report zero diagnostics across all seed algorithms on
/// every Table 3 topology (the zero-false-positive acceptance bar).
#[test]
fn seed_algorithms_on_table3_topologies_are_clean() {
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).expect("table 3 topology");
        let nodes = topo.n_nodes();
        let g = topo.n_ranks() / nodes;
        let n = topo.n_ranks();
        let mut specs = vec![
            rescc_algos::hm_allgather(nodes, g),
            rescc_algos::hm_reduce_scatter(nodes, g),
            rescc_algos::hm_allreduce(nodes, g),
            rescc_algos::ring_allgather(n),
            rescc_algos::ring_reduce_scatter(n),
            rescc_algos::ring_allreduce(n),
        ];
        if n.is_power_of_two() {
            specs.push(rescc_algos::recursive_doubling_allgather(n));
            specs.push(rescc_algos::recursive_halving_reduce_scatter(n));
            specs.push(rescc_algos::dbtree_allreduce(n));
        }
        for spec in &specs {
            let (dag, schedule, alloc, program) = full_stack(spec, &topo);
            let report = run(
                spec,
                &topo,
                &dag,
                &schedule,
                &alloc,
                &program,
                &AnalysisConfig::default(),
            );
            assert!(
                report.is_clean(),
                "{} on {} not clean:\n{}",
                spec.name(),
                topo.name(),
                report.render_human()
            );
        }
    }
}
