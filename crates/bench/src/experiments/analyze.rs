//! **Analyze** — cost of the certification pass (RA001–RA007) at scale.
//!
//! Not a paper figure: this experiment prices the static-analysis layer
//! so the 7-lint sweep stays an always-on compile phase rather than an
//! opt-in tool. For 256 / 1,024 / 4,096 emulated GPUs (hm AllReduce,
//! the largest seed workload) it measures, per scale:
//!
//! * the shared happens-before oracle's build cost (combined-order CSR +
//!   topological intervals + chain labels) and its query counters —
//!   how many `reaches` queries the interval/chain layers absorbed
//!   before the exact-DFS fallback;
//! * each lint's standalone wall time against the shared oracle, each
//!   sample on a spec of its own: RA004 replays as in a spec's first
//!   compile, and the sweeps below read its memoized dead set;
//! * the full 7-lint `analyze()` sweep vs the pre-certification 5-lint
//!   subset (RA001–RA005 under today's implementations). The sweep must
//!   stay within **2×** of the subset at 1,024 ranks — the acceptance
//!   bound that keeps the oracle honest: RA006/RA007 ride on shared
//!   structures instead of rebuilding their own.
//!
//! It also cross-checks the RA007 cost certificate against the engine on
//! Table-3 seed plans: no simulated run may finish below its plan's
//! certified makespan floor. Machine-readable results go to
//! `BENCH_analyze.json`.

use crate::{median_min_max, print_table, time, write_bench_json, Gate, MB};
use rescc_algos::{dbtree_allreduce, hm_allgather, hm_allreduce, ring_allgather, ring_allreduce};
use rescc_alloc::TbAllocation;
use rescc_analyze::{
    analyze, lints, AnalysisConfig, AnalysisInput, CombinedOrder, HbOracle, OracleStats,
};
use rescc_core::Compiler;
use rescc_ir::DepDag;
use rescc_kernel::{ExecMode, KernelProgram, LoopOrder};
use rescc_lang::AlgoSpec;
use rescc_sched::hpds;
use rescc_topology::Topology;

/// Full-sweep-to-subset budget, gated at 1,024 ranks and in the smoke gate.
const SWEEP_BUDGET: f64 = 2.0;

struct Scale {
    nodes: u32,
    gpus: u32,
    iters: usize,
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
    // RA006 and RA007 existed, under today's implementations (shared order +
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
    let (full_s, report) = time(|| analyze(input, config));
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

/// One scale: `iters` calls of [`measure`] on the hm AllReduce plan.
struct ScaleRun {
    ranks: u32,
    tasks: usize,
    /// The last sample, for its per-lint times and oracle counters.
    last: Sample,
    /// Full sweep `(median, min, max)`.
    full: (f64, f64, f64),
    subset_med: f64,
}

impl ScaleRun {
    fn measure(sc: &Scale, config: &AnalysisConfig) -> Self {
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
        // Each sample analyzes a spec of its own: RA004's dead set is
        // memoized in the spec, so the standalone RA004 time is its replay,
        // as in a spec's first compile, and the two sweeps after it read
        // the memo, as every later compile of the spec does.
        let samples: Vec<Sample> = (0..sc.iters)
            .map(|_| {
                let spec = hm_allreduce(sc.nodes, sc.gpus);
                let dag = DepDag::build(&spec, &topo).expect("bench dag");
                measure(
                    &AnalysisInput {
                        spec: &spec,
                        dag: &dag,
                        ..input
                    },
                    config,
                )
            })
            .collect();
        let mut full: Vec<f64> = samples.iter().map(|s| s.full_s).collect();
        let mut subset: Vec<f64> = samples.iter().map(|s| s.subset_s).collect();
        ScaleRun {
            ranks: sc.nodes * sc.gpus,
            tasks: dag.len(),
            full: median_min_max(&mut full),
            subset_med: median_min_max(&mut subset).0,
            last: samples.into_iter().last().expect("iters >= 1"),
        }
    }

    fn ratio(&self) -> f64 {
        self.full.0 / self.subset_med
    }

    /// The 7-lint sweep must stay within [`SWEEP_BUDGET`] of the subset.
    fn check(&self, gate: &mut Gate) {
        let ratio = self.ratio();
        gate.check(ratio <= SWEEP_BUDGET, || {
            format!(
                "7-lint sweep is {ratio:.2}x the 5-lint subset at {} ranks \
                 (budget {SWEEP_BUDGET}x)",
                self.ranks
            )
        });
    }
}

/// Certificate soundness against the engine: each seed plan compiles
/// lint-clean with a cost certificate, and its simulated run does not
/// finish below the certified makespan floor. Returns the plans that ran.
fn check_certificate_floors(cases: &[(AlgoSpec, Topology)], gate: &mut Gate) -> u32 {
    let compiler = Compiler::new();
    let mut checked = 0;
    for (spec, topo) in cases {
        let name = format!("{} on {}", spec.name(), topo.name());
        let plan = match compiler.compile_spec(spec, topo) {
            Ok(plan) => plan,
            Err(e) => {
                gate.check(false, || format!("{name}: compile failed: {e}"));
                continue;
            }
        };
        gate.check(plan.diagnostics.is_clean(), || {
            format!(
                "{name}: seed plan not clean:\n{}",
                plan.diagnostics.render_human()
            )
        });
        let Some(floor) = plan.makespan_floor_ns(16 * MB, MB) else {
            gate.check(false, || format!("{name}: no cost certificate on the plan"));
            continue;
        };
        match plan.run(16 * MB, MB) {
            Ok(report) => {
                gate.check(!report.undercuts_floor(floor), || {
                    format!(
                        "{name}: simulated {:.0}ns undercuts certified floor {floor:.0}ns",
                        report.completion_ns
                    )
                });
                println!(
                    "{name}: certified floor {:.1}us, sim {:.1}us",
                    floor / 1e3,
                    report.completion_ns / 1e3,
                );
                checked += 1;
            }
            Err(e) => gate.check(false, || format!("{name}: run failed: {e}")),
        }
    }
    checked
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
    let mut gate = Gate::default();
    let mut rows = Vec::new();
    let mut json_scales = Vec::new();

    for sc in &scales {
        let run = ScaleRun::measure(sc, &config);
        let (ranks, s, ratio) = (run.ranks, &run.last, run.ratio());
        let (full_med, full_min, full_max) = run.full;
        if ranks == 1024 {
            run.check(&mut gate);
        }

        let lint_names = ["RA002", "RA003", "RA004", "RA005", "RA006", "RA007"];
        rows.push(vec![
            format!("{ranks}"),
            format!("{}", run.tasks),
            format!("{:.1}ms", (s.order_s + s.oracle_s) * 1e3),
            format!("{:.1}ms", full_med * 1e3),
            format!("{:.1}ms", run.subset_med * 1e3),
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
            run.tasks,
            sc.iters,
            s.order_s * 1e3,
            s.oracle_s * 1e3,
            lints_json.join(", "),
            full_med * 1e3,
            full_min * 1e3,
            full_max * 1e3,
            run.subset_med * 1e3,
            s.stats.queries,
            s.stats.dfs_fallbacks,
            s.stats.n_chains,
        ));
    }

    print_table(
        "Static analysis cost: shared-oracle 7-lint sweep (hm AllReduce)",
        &[
            "ranks",
            "tasks",
            "oracle",
            "7-lint sweep",
            "5-lint subset",
            "ratio",
            "hb queries",
            "dfs fallbacks",
        ],
        &rows,
    );

    let undercut_checks = check_certificate_floors(
        &[
            (hm_allreduce(2, 4), Topology::a100(2, 4)),
            (ring_allgather(8), Topology::a100(1, 8)),
            (dbtree_allreduce(8), Topology::a100(2, 4)),
        ],
        &mut gate,
    );
    println!(
        "certificate floors hold on {undercut_checks} seed plans \
         (sim completion >= certified lower bound)."
    );

    let json = format!(
        "{{\n  \"workload\": \"hm_allreduce\",\n  \"scales\": [\n{}\n  ],\n  \
         \"sweep_budget\": {SWEEP_BUDGET},\n  \
         \"certificate_undercut_checks\": {undercut_checks},\n  \
         \"certificate_undercuts\": 0\n}}\n",
        json_scales.join(",\n"),
    );
    write_bench_json("BENCH_analyze.json", &json);
    gate.finish("analyze-bench");
}

/// CI smoke gate at 64 emulated GPUs: [`run`]'s sweep measurement with
/// its budget, and the certificate floors on three seed plans. A sweep
/// takes about 2 ms at this scale, so the median is over five samples:
/// over three, one preempted sample in 28 runs read 3.1x.
pub fn smoke() {
    let run = ScaleRun::measure(
        &Scale {
            nodes: 8,
            gpus: 8,
            iters: 5,
        },
        &AnalysisConfig::default(),
    );
    println!(
        "lint sweep ({} ranks, {} tasks): 7-lint {:.2}ms, 5-lint subset {:.2}ms, ratio {:.2}x",
        run.ranks,
        run.tasks,
        run.full.0 * 1e3,
        run.subset_med * 1e3,
        run.ratio(),
    );
    let mut gate = Gate::default();
    run.check(&mut gate);
    let topo = Topology::a100(2, 8);
    check_certificate_floors(
        &[
            (hm_allgather(2, 8), topo.clone()),
            (ring_allreduce(16), topo.clone()),
            (dbtree_allreduce(16), topo),
        ],
        &mut gate,
    );
    gate.finish("lint-smoke");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with_ratio(ratio: f64) -> ScaleRun {
        ScaleRun {
            ranks: 1024,
            tasks: 0,
            last: Sample {
                order_s: 0.0,
                oracle_s: 0.0,
                lint_s: [0.0; 6],
                full_s: ratio,
                subset_s: 1.0,
                stats: OracleStats::default(),
            },
            full: (ratio, ratio, ratio),
            subset_med: 1.0,
        }
    }

    #[test]
    fn sweep_check_reports_an_over_budget_ratio() {
        let mut gate = Gate::default();
        run_with_ratio(2.0).check(&mut gate);
        assert!(gate.failures.is_empty());
        run_with_ratio(2.1).check(&mut gate);
        assert_eq!(gate.failures.len(), 1);
        assert!(gate.failures[0].contains("2.10x the 5-lint subset at 1024 ranks"));
    }
}
