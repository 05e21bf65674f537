//! CI smoke gate for the schedule-certification layer.
//!
//! Fails (nonzero exit) if any guard trips:
//!
//! 1. the full 8-lint `analyze()` sweep must stay within 2× of the
//!    pre-certification 5-lint subset (shared oracle amortization);
//! 2. the seed suite must lint clean — every diagnostic here is a false
//!    positive by construction;
//! 3. no simulated run may finish below its plan's certified α–β–γ
//!    makespan floor.
//!
//! Sized for CI: 64 emulated GPUs, well under a second end to end.
//! The full-scale measurement (256/1,024/4,096 ranks) lives in the
//! `analyze-bench` experiment.

use rescc_alloc::TbAllocation;
use rescc_analyze::{
    analyze, lints, AnalysisConfig, AnalysisInput, CombinedOrder, HbOracle, Incremental,
};
use rescc_core::Compiler;
use rescc_ir::DepDag;
use rescc_kernel::{ExecMode, KernelProgram, LoopOrder};
use rescc_sched::hpds;
use rescc_topology::Topology;
use std::time::Instant;

const MB: u64 = 1 << 20;

fn main() {
    let mut failures = Vec::new();
    let (nodes, g) = (8u32, 8u32);
    let topo = Topology::a100(nodes, g);
    let config = AnalysisConfig::default();

    // Guard 1: sweep-to-subset ratio. Best-of-3 on both sides to shrug
    // off CI timer jitter.
    let spec = rescc_algos::hm_allreduce(nodes, g);
    let dag = DepDag::build(&spec, &topo).expect("smoke dag");
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
    let mut best_full = f64::MAX;
    let mut best_subset = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        let report = analyze(&input, &config, Incremental::Fresh);
        best_full = best_full.min(t0.elapsed().as_secs_f64());
        if !report.is_clean() {
            failures.push(format!(
                "hm_allreduce not clean:\n{}",
                report.render_human()
            ));
            break;
        }
        let t0 = Instant::now();
        let chunk_of: Vec<u32> = dag.tasks().iter().map(|t| t.chunk.0).collect();
        let order = CombinedOrder::build(&dag, &program);
        let mut oracle = HbOracle::build(&order, &chunk_of).expect("acyclic");
        let mut out = Vec::new();
        lints::ra002_buffer_race(&input, &order, &mut oracle, &mut out);
        lints::ra003_oversubscription(&input, &config, &mut out);
        lints::ra004_dead_transfer(&input, &mut out);
        lints::ra005_degraded_soundness(&input, &mut out);
        best_subset = best_subset.min(t0.elapsed().as_secs_f64());
    }
    let ratio = best_full / best_subset;
    println!(
        "lint sweep ({} ranks, {} tasks): 8-lint {:.2}ms, 5-lint subset {:.2}ms, \
         ratio {ratio:.2}x",
        nodes * g,
        dag.len(),
        best_full * 1e3,
        best_subset * 1e3,
    );
    if ratio > 2.0 {
        failures.push(format!(
            "8-lint sweep is {ratio:.2}x the 5-lint subset (budget 2.0x)"
        ));
    }

    // Guard 2 + 3: the seed suite lints clean through the compiler gate,
    // and the certificate floor holds against the engine.
    let compiler = Compiler::new();
    for spec in [
        rescc_algos::hm_allgather(2, 8),
        rescc_algos::ring_allreduce(16),
        rescc_algos::dbtree_allreduce(16),
    ] {
        let topo = Topology::a100(2, 8);
        let plan = match compiler.compile_spec(&spec, &topo) {
            Ok(p) => p,
            Err(e) => {
                failures.push(format!("{}: compile failed: {e}", spec.name()));
                continue;
            }
        };
        if !plan.diagnostics.is_clean() {
            failures.push(format!(
                "{}: seed plan not clean:\n{}",
                spec.name(),
                plan.diagnostics.render_human()
            ));
            continue;
        }
        let floor = match plan.makespan_floor_ns(16 * MB, MB) {
            Some(f) => f,
            None => {
                failures.push(format!("{}: no cost certificate on the plan", spec.name()));
                continue;
            }
        };
        match plan.run(16 * MB, MB) {
            Ok(report) if report.undercuts_floor(floor) => failures.push(format!(
                "{}: simulated {:.0}ns undercuts certified floor {floor:.0}ns",
                spec.name(),
                report.completion_ns,
            )),
            Ok(report) => println!(
                "{}: certified floor {:.1}us holds (sim {:.1}us)",
                spec.name(),
                floor / 1e3,
                report.completion_ns / 1e3,
            ),
            Err(e) => failures.push(format!("{}: run failed: {e}", spec.name())),
        }
    }

    if failures.is_empty() {
        println!("lint-smoke: all guards passed");
    } else {
        for f in &failures {
            eprintln!("lint-smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
