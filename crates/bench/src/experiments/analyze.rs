//! **Analyze** — cost of the certification pass (RA001–RA008) at scale.
//!
//! Not a paper figure: this experiment prices the static-analysis layer
//! so the 8-lint sweep stays an always-on compile phase rather than an
//! opt-in tool. For 256 / 1,024 / 4,096 emulated GPUs (hm AllReduce,
//! the largest seed workload) it measures, per scale:
//!
//! * the shared happens-before oracle's build cost (combined-order CSR +
//!   topological intervals + chain labels) and its query counters —
//!   how many `reaches` queries the interval/chain layers absorbed
//!   before the exact-DFS fallback;
//! * each lint's standalone wall time against the shared oracle;
//! * the full 8-lint `analyze()` sweep vs the pre-certification 5-lint
//!   subset (RA001–RA005 under today's implementations). The sweep must
//!   stay within **2×** of the subset at 1,024 ranks — the acceptance
//!   bound that keeps the oracle honest: RA006/RA007 ride on shared
//!   structures instead of rebuilding their own;
//! * the incremental path: a post-fault delta recompile's sanitize phase
//!   (`Incremental::Rerouted` splice) vs the full compile's sanitize phase.
//!
//! It also cross-checks the RA007 cost certificate against the engine on
//! Table-3 seed plans: no simulated run may finish below its plan's
//! certified makespan floor. Machine-readable results go to
//! `BENCH_analyze.json`.

use crate::experiments::observability::median_min_max;
use crate::{print_table, MB};
use rescc_algos::{hm_allreduce, ring_allgather};
use rescc_alloc::TbAllocation;
use rescc_analyze::{
    analyze, lints, AnalysisConfig, AnalysisInput, CombinedOrder, HbOracle, Incremental,
    OracleStats,
};
use rescc_core::Compiler;
use rescc_ir::DepDag;
use rescc_kernel::{ExecMode, KernelProgram, LoopOrder};
use rescc_sched::hpds;
use rescc_topology::{Rank, Topology, TopologyHealth};
use std::time::Instant;

/// Full-sweep-to-subset budget at the acceptance scale (1,024 ranks).
const SWEEP_BUDGET: f64 = 2.0;

struct Scale {
    nodes: u32,
    gpus: u32,
    iters: usize,
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed().as_secs_f64(), v)
}

/// Per-scale measurement: oracle build, per-lint, full sweep, subset.
struct Sample {
    order_s: f64,
    oracle_s: f64,
    lint_s: [f64; 6], // RA002, RA003, RA004, RA005, RA006, RA007
    full_s: f64,
    subset_s: f64,
    stats: OracleStats,
}

fn measure(input: &AnalysisInput, config: &AnalysisConfig) -> Sample {
    let chunk_of: Vec<u32> = input.dag.tasks().iter().map(|t| t.chunk.0).collect();
    let (order_s, order) = time(|| CombinedOrder::build(input.dag, input.program));
    let (oracle_s, oracle) = time(|| HbOracle::build(&order, &chunk_of));
    let mut oracle = oracle.expect("seed plans are acyclic");

    let mut out = Vec::new();
    let mut lint_s = [0.0f64; 6];
    lint_s[0] = time(|| lints::ra002_buffer_race(input, &order, &mut oracle, &mut out)).0;
    lint_s[1] = time(|| lints::ra003_oversubscription(input, config, &mut out)).0;
    lint_s[2] = time(|| lints::ra004_dead_transfer(input, &mut out)).0;
    lint_s[3] = time(|| lints::ra005_degraded_soundness(input, &mut out)).0;
    lint_s[4] = time(|| lints::ra006_lifetime_overlap(input, &order, &mut oracle, &mut out)).0;
    lint_s[5] = time(|| lints::ra007_cost_feasibility(input, &mut out)).0;
    assert!(out.is_empty(), "seed workload must lint clean");
    let stats = oracle.stats();

    // The pre-certification subset: everything the pass ran before
    // RA006–RA008 existed, under today's implementations (shared order +
    // oracle + RA001 path included — they were already paid for).
    let (subset_s, ()) = time(|| {
        let chunk_of: Vec<u32> = input.dag.tasks().iter().map(|t| t.chunk.0).collect();
        let order = CombinedOrder::build(input.dag, input.program);
        let mut oracle = HbOracle::build(&order, &chunk_of).expect("acyclic");
        let mut out = Vec::new();
        lints::ra002_buffer_race(input, &order, &mut oracle, &mut out);
        lints::ra003_oversubscription(input, config, &mut out);
        lints::ra004_dead_transfer(input, &mut out);
        lints::ra005_degraded_soundness(input, &mut out);
        assert!(out.is_empty());
    });
    let (full_s, report) = time(|| analyze(input, config, Incremental::Fresh));
    assert!(report.is_clean() && report.certificate().is_some());

    Sample {
        order_s,
        oracle_s,
        lint_s,
        full_s,
        subset_s,
        stats,
    }
}

/// Run the analyze-cost experiment and write `BENCH_analyze.json`.
pub fn run() {
    let scales = [
        Scale {
            nodes: 32,
            gpus: 8,
            iters: 5,
        },
        Scale {
            nodes: 128,
            gpus: 8,
            iters: 3,
        },
        Scale {
            nodes: 512,
            gpus: 8,
            iters: 1,
        },
    ];
    let config = AnalysisConfig::default();
    let mut rows = Vec::new();
    let mut json_scales = Vec::new();

    for sc in &scales {
        let ranks = sc.nodes * sc.gpus;
        let topo = Topology::a100(sc.nodes, sc.gpus);
        let spec = hm_allreduce(sc.nodes, sc.gpus);
        let dag = DepDag::build(&spec, &topo).expect("bench dag");
        let schedule = hpds(&dag);
        let alloc = TbAllocation::connection_based(&dag, &schedule, 1);
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
            schedule: &schedule,
            alloc: &alloc,
            program: &program,
            topo: &topo,
        };

        let mut full = Vec::with_capacity(sc.iters);
        let mut subset = Vec::with_capacity(sc.iters);
        let mut last = None;
        for _ in 0..sc.iters {
            let s = measure(&input, &config);
            full.push(s.full_s);
            subset.push(s.subset_s);
            last = Some(s);
        }
        let s = last.expect("iters >= 1");
        let (full_med, full_min, full_max) = median_min_max(&mut full);
        let (subset_med, ..) = median_min_max(&mut subset);
        let ratio = full_med / subset_med;
        if ranks == 1024 {
            assert!(
                ratio <= SWEEP_BUDGET,
                "8-lint sweep is {ratio:.2}x the 5-lint subset at 1,024 ranks \
                 (budget {SWEEP_BUDGET}x)"
            );
        }

        let lint_names = ["RA002", "RA003", "RA004", "RA005", "RA006", "RA007"];
        rows.push(vec![
            format!("{ranks}"),
            format!("{}", dag.len()),
            format!("{:.1}ms", (s.order_s + s.oracle_s) * 1e3),
            format!("{:.1}ms", full_med * 1e3),
            format!("{:.1}ms", subset_med * 1e3),
            format!("{ratio:.2}x"),
            format!("{}", s.stats.queries),
            format!("{}", s.stats.dfs_fallbacks),
        ]);
        let lints_json: Vec<String> = lint_names
            .iter()
            .zip(s.lint_s.iter())
            .map(|(n, t)| format!("\"{n}\": {:.3}", t * 1e3))
            .collect();
        json_scales.push(format!(
            "    {{\"ranks\": {ranks}, \"tasks\": {}, \"iters\": {}, \
             \"order_build_ms\": {:.3}, \"oracle_build_ms\": {:.3}, \
             \"lint_ms\": {{{}}}, \
             \"full_sweep_ms\": {{\"median\": {:.3}, \"min\": {:.3}, \"max\": {:.3}}}, \
             \"subset5_ms\": {:.3}, \"sweep_ratio\": {ratio:.3}, \
             \"oracle\": {{\"queries\": {}, \"dfs_fallbacks\": {}, \"chains\": {}}}}}",
            dag.len(),
            sc.iters,
            s.order_s * 1e3,
            s.oracle_s * 1e3,
            lints_json.join(", "),
            full_med * 1e3,
            full_min * 1e3,
            full_max * 1e3,
            subset_med * 1e3,
            s.stats.queries,
            s.stats.dfs_fallbacks,
            s.stats.n_chains,
        ));
    }

    print_table(
        "Static analysis cost: shared-oracle 8-lint sweep (hm AllReduce)",
        &[
            "ranks",
            "tasks",
            "oracle",
            "8-lint sweep",
            "5-lint subset",
            "ratio",
            "hb queries",
            "dfs fallbacks",
        ],
        &rows,
    );

    // Incremental path: sanitize cost of a post-fault delta recompile
    // (rerouted splice) vs the full compile's sanitize phase.
    let (nodes, g) = (128u32, 8u32);
    let topo = Topology::a100(nodes, g);
    let compiler = Compiler::new();
    let plan = compiler
        .compile_spec(&rescc_algos::nccl_rings_allgather(nodes, g, 2), &topo)
        .expect("incremental base compile");
    let mut health = TopologyHealth::default();
    health.mask(topo.pair_chan(Rank::new(8), Rank::new(9)));
    let delta = compiler
        .recompile_delta(&plan, &health)
        .expect("delta recompile");
    let full_sanitize_s = plan.timings.sanitize.as_secs_f64();
    let delta_sanitize_s = delta.timings.sanitize.as_secs_f64();
    let incr_ratio = delta_sanitize_s / full_sanitize_s.max(1e-12);
    println!(
        "incremental sanitize ({}x{} ranks, 1 dead channel): full {:.1}ms, \
         spliced {:.1}ms ({:.2}x)",
        nodes,
        g,
        full_sanitize_s * 1e3,
        delta_sanitize_s * 1e3,
        incr_ratio,
    );
    assert!(
        delta_sanitize_s <= full_sanitize_s,
        "splice re-analysis must not cost more than a full sweep"
    );

    // Certificate soundness against the engine: no simulated run may
    // finish below its plan's certified makespan floor.
    let mut undercut_checks = 0u32;
    for (spec, topo) in [
        (hm_allreduce(2, 4), Topology::a100(2, 4)),
        (ring_allgather(8), Topology::a100(1, 8)),
        (rescc_algos::dbtree_allreduce(8), Topology::a100(2, 4)),
    ] {
        let plan = compiler
            .compile_spec(&spec, &topo)
            .expect("certificate check compile");
        let floor = plan
            .makespan_floor_ns(16 * MB, MB)
            .expect("lint gate on: certificate present");
        let report = plan.run(16 * MB, MB).expect("certificate check run");
        assert!(
            !report.undercuts_floor(floor),
            "{} on {}: simulated {:.0}ns undercuts certified floor {floor:.0}ns",
            spec.name(),
            topo.name(),
            report.completion_ns,
        );
        undercut_checks += 1;
    }
    println!(
        "certificate floors hold on {undercut_checks} seed plans \
         (sim completion >= certified lower bound)."
    );

    let json = format!(
        "{{\n  \"workload\": \"hm_allreduce\",\n  \"scales\": [\n{}\n  ],\n  \
         \"sweep_budget\": {SWEEP_BUDGET},\n  \
         \"incremental\": {{\"ranks\": {}, \"full_sanitize_ms\": {:.3}, \
         \"delta_sanitize_ms\": {:.3}, \"ratio\": {incr_ratio:.4}}},\n  \
         \"certificate_undercut_checks\": {undercut_checks},\n  \
         \"certificate_undercuts\": 0\n}}\n",
        json_scales.join(",\n"),
        nodes * g,
        full_sanitize_s * 1e3,
        delta_sanitize_s * 1e3,
    );
    match std::fs::write("BENCH_analyze.json", &json) {
        Ok(()) => println!("wrote BENCH_analyze.json"),
        Err(e) => eprintln!("could not write BENCH_analyze.json: {e}"),
    }
}
