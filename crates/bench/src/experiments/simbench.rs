//! **Simbench** — simulator wall-time benchmark behind `BENCH_sim.json`.
//!
//! Regression fix: the committed `BENCH_sim.json` used to be produced by
//! a single-iteration benchmark, so scheduler noise could (and did, for
//! the `table3-2x8` and `table3-4x4` scenarios) make the *warm* path —
//! which skips compilation entirely — look slower than the cold path.
//! This generator takes `ITERS` (9) samples per configuration and reports
//! the **median with min/max spread**, making the committed numbers
//! robust to single-run outliers. It also asserts the sane ordering the
//! old file violated: warm runs are no slower than cold ones. A sample
//! interleaves cold and warm runs one by one, alternating which goes
//! first, until its warm runs last `MIN_SAMPLE_S` (5 ms), and reports each
//! side's mean run time. Both sides of a sample thus see the same moments
//! of host load, a scenario that runs in microseconds (`fig4-oversub`,
//! whose compile takes about ten) is timed above timer and scheduler
//! noise, and the assertion compares the two sides within each sample
//! (median over samples).
//!
//! * **cold** — full pipeline per iteration: compile the spec, then
//!   simulate.
//! * **warm** — the plan compiled once up front, per-iteration cost is
//!   simulation only; `ns_per_invocation` divides its median by the
//!   invocations the run executed.
//! * **validated** — a warm run with the machine-checked data validation
//!   on, interleaved with the other two; `validated_over_warm` is the
//!   median over samples of its time over the warm run's.
//!
//! `table3-16x8` is the dispatch benchmark's cold-start shape: a
//! single-micro-batch HM AllGather over 128 ranks. `table3-32x8` is the
//! largest row that runs by default: a 256-rank lockstep HM AllReduce
//! whose replays must stay identical. The `train-` rows are the HM
//! collectives of the dispatch benchmark's `train-step` at its largest
//! buffer per shape: the tensor-parallel AllReduce on 1×8 at 64 MB, and
//! the data-parallel ReduceScatter and AllGather on 4×8 at 128 MB. The
//! `-jitter` rows
//! rerun two shapes with a random startup latency per transfer, so nearly
//! every event has a time of its own instead of sharing it with the
//! lockstep burst of its step.
//!
//! Large 1024-rank stress scenarios take minutes and are gated behind
//! `RESCC_BENCH_STRESS=1`; when the gate is off that is logged, not
//! silently skipped.

use crate::{median_min_max, print_table, time, write_bench_json, MB};
use rescc_algos::{hm_allgather, hm_allreduce, hm_reduce_scatter, ring_allgather};
use rescc_core::Compiler;
use rescc_lang::AlgoSpec;
use rescc_sim::SimConfig;
use rescc_topology::{ClusterSpec, FabricParams, LinkParams, Topology};

const ITERS: usize = 9;
/// Shortest wall time of one timed warm sample.
const MIN_SAMPLE_S: f64 = 5e-3;

struct Scenario {
    name: &'static str,
    topo: Topology,
    spec: AlgoSpec,
    buffer: u64,
    /// [`SimConfig::jitter_frac`]; 0 keeps the run lockstep.
    jitter: f64,
}

/// The oversubscribed single-NIC P2P fabric of Figure 4.
fn fig4_topo() -> Topology {
    Topology::new(
        "fig4-p2p",
        ClusterSpec {
            n_nodes: 2,
            gpus_per_node: 1,
            nics_per_node: 1,
        },
        FabricParams {
            inter: LinkParams::new(25.0, 10.0, 4),
            ..FabricParams::a100()
        },
    )
}

fn scenarios(stress: bool) -> Vec<Scenario> {
    let mut out = vec![
        Scenario {
            name: "fig4-oversub",
            topo: fig4_topo(),
            spec: ring_allgather(2),
            buffer: 256 * MB,
            jitter: 0.0,
        },
        Scenario {
            name: "table3-2x4",
            topo: Topology::a100(2, 4),
            spec: hm_allreduce(2, 4),
            buffer: 128 * MB,
            jitter: 0.0,
        },
        Scenario {
            name: "table3-2x8",
            topo: Topology::a100(2, 8),
            spec: hm_allreduce(2, 8),
            buffer: 64 * MB,
            jitter: 0.0,
        },
        Scenario {
            name: "table3-4x4",
            topo: Topology::a100(4, 4),
            spec: hm_allreduce(4, 4),
            buffer: 64 * MB,
            jitter: 0.0,
        },
        Scenario {
            name: "table3-4x8",
            topo: Topology::a100(4, 8),
            spec: hm_allreduce(4, 8),
            buffer: 32 * MB,
            jitter: 0.0,
        },
        Scenario {
            name: "table3-16x8",
            topo: Topology::a100(16, 8),
            spec: hm_allgather(16, 8),
            // One chunk per logical chunk: a single micro-batch.
            buffer: 128 * MB,
            jitter: 0.0,
        },
        Scenario {
            name: "table3-32x8",
            topo: Topology::a100(32, 8),
            spec: hm_allreduce(32, 8),
            buffer: 32 * MB,
            jitter: 0.0,
        },
        Scenario {
            name: "train-ar-1x8",
            topo: Topology::a100(1, 8),
            spec: hm_allreduce(1, 8),
            buffer: 64 * MB,
            jitter: 0.0,
        },
        Scenario {
            name: "train-rs-4x8",
            topo: Topology::a100(4, 8),
            spec: hm_reduce_scatter(4, 8),
            buffer: 128 * MB,
            jitter: 0.0,
        },
        Scenario {
            name: "train-ag-4x8",
            topo: Topology::a100(4, 8),
            spec: hm_allgather(4, 8),
            buffer: 128 * MB,
            jitter: 0.0,
        },
        Scenario {
            name: "table3-2x4-jitter",
            topo: Topology::a100(2, 4),
            spec: hm_allreduce(2, 4),
            buffer: 128 * MB,
            jitter: 0.5,
        },
        Scenario {
            name: "table3-4x8-jitter",
            topo: Topology::a100(4, 8),
            spec: hm_allreduce(4, 8),
            buffer: 32 * MB,
            jitter: 0.5,
        },
    ];
    if stress {
        out.push(Scenario {
            name: "table3-128x8-stress",
            topo: Topology::a100(128, 8),
            spec: hm_allreduce(128, 8),
            buffer: 32 * MB,
            jitter: 0.0,
        });
    }
    out
}

/// Run the simulator benchmark and write `BENCH_sim.json`.
pub fn run() {
    let stress = std::env::var("RESCC_BENCH_STRESS").map(|v| v == "1") == Ok(true);
    if !stress {
        println!("simbench: stress scenarios skipped (set RESCC_BENCH_STRESS=1 to include)");
    }
    let compiler = Compiler::new();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();

    for sc in scenarios(stress) {
        let cfg = SimConfig::default()
            .without_validation()
            .with_jitter(sc.jitter, 1);
        let warm_plan = compiler
            .compile_spec(&sc.spec, &sc.topo)
            .unwrap_or_else(|e| panic!("simbench: compile '{}': {e}", sc.name));
        let reference = warm_plan
            .run_with(sc.buffer, MB, &cfg)
            .unwrap_or_else(|e| panic!("simbench: run '{}': {e}", sc.name));
        let cold = || {
            let t = std::time::Instant::now();
            let plan = compiler.compile_spec(&sc.spec, &sc.topo).expect("compile");
            let rep = plan.run_with(sc.buffer, MB, &cfg).expect("cold run");
            let elapsed = t.elapsed().as_secs_f64();
            assert!(rep == reference, "'{}': replays diverged", sc.name);
            elapsed
        };
        let warm = || {
            let t = std::time::Instant::now();
            let rep = warm_plan.run_with(sc.buffer, MB, &cfg).expect("warm run");
            let elapsed = t.elapsed().as_secs_f64();
            assert!(rep == reference, "'{}': replays diverged", sc.name);
            elapsed
        };
        let validated_cfg = SimConfig::default().with_jitter(sc.jitter, 1);
        let validated = || {
            let (elapsed, rep) = time(|| warm_plan.run_with(sc.buffer, MB, &validated_cfg));
            let rep = rep.expect("validated run");
            assert_eq!(rep.data_valid, Some(true), "'{}': data check", sc.name);
            elapsed
        };
        // One sample: `reps` cold, warm and validated runs, interleaved one
        // by one with the order alternating, so all sides see the same
        // moments of host load; returns the mean [cold, warm, validated]
        // run time.
        let sample = |reps: u32| {
            let mut t = [0.0; 3];
            for r in 0..reps {
                if r % 2 == 0 {
                    t[0] += cold();
                    t[1] += warm();
                    t[2] += validated();
                } else {
                    t[2] += validated();
                    t[1] += warm();
                    t[0] += cold();
                }
            }
            t.map(|x| x / f64::from(reps))
        };
        // Runs per sample: double until the warm runs of one last
        // MIN_SAMPLE_S.
        let mut reps = 1u32;
        while sample(reps)[1] * f64::from(reps) < MIN_SAMPLE_S && reps < 1 << 16 {
            reps *= 2;
        }

        let samples: Vec<[f64; 3]> = (0..ITERS).map(|_| sample(reps)).collect();
        let column = |f: fn(&[f64; 3]) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
        let (mut cold_s, mut warm_s) = (column(|s| s[0]), column(|s| s[1]));
        // Per sample, how much longer its cold runs took than the warm runs
        // interleaved with them.
        let (saved_med, _, _) = median_min_max(&mut column(|s| s[0] - s[1]));
        let (validated_over_warm, _, _) = median_min_max(&mut column(|s| s[2] / s[1]));

        let (cold_med, cold_min, cold_max) = median_min_max(&mut cold_s);
        let (warm_med, warm_min, warm_max) = median_min_max(&mut warm_s);
        let ns_per_invocation = warm_med * 1e9 / reference.n_invocations as f64;
        // The regression this file guards against: warm skips the whole
        // compile pipeline, so its runs can never legitimately be slower
        // than the cold runs they interleave with. Comparing within a
        // sample cancels the host's load swings (up to 2x within a run on
        // a shared VM), which a comparison across samples cannot.
        assert!(
            saved_med >= 0.0,
            "'{}': warm runs slower than the interleaved cold runs by {:.6}s \
             (median over {ITERS} samples)",
            sc.name,
            -saved_med
        );

        rows.push(vec![
            sc.name.to_string(),
            sc.topo.n_ranks().to_string(),
            reference.n_invocations.to_string(),
            format!(
                "{:.3}ms [{:.3}, {:.3}]",
                cold_med * 1e3,
                cold_min * 1e3,
                cold_max * 1e3
            ),
            format!(
                "{:.3}ms [{:.3}, {:.3}]",
                warm_med * 1e3,
                warm_min * 1e3,
                warm_max * 1e3
            ),
            format!("{:.2}x", cold_med / warm_med),
            format!("{ns_per_invocation:.0}"),
            format!("{validated_over_warm:.2}x"),
        ]);
        json_rows.push(format!(
            "    {{\"name\": \"{}\", \"ranks\": {}, \"invocations\": {}, \
             \"cold_s\": {{\"median\": {cold_med:.6}, \"min\": {cold_min:.6}, \"max\": {cold_max:.6}}}, \
             \"warm_s\": {{\"median\": {warm_med:.6}, \"min\": {warm_min:.6}, \"max\": {warm_max:.6}}}, \
             \"cold_over_warm\": {:.3}, \"ns_per_invocation\": {ns_per_invocation:.1}, \
             \"validated_over_warm\": {validated_over_warm:.3}, \"identical\": true}}",
            sc.name,
            sc.topo.n_ranks(),
            reference.n_invocations,
            cold_med / warm_med,
        ));
    }

    print_table(
        &format!(
            "Simbench: cold (compile+sim) vs warm (cached plan) wall time, \
             median of {ITERS} [min, max]"
        ),
        &[
            "scenario",
            "ranks",
            "invocations",
            "cold",
            "warm",
            "cold/warm",
            "warm ns/inv",
            "validated/warm",
        ],
        &rows,
    );
    println!(
        "medians over {ITERS} samples of interleaved runs; warm ≤ cold within a sample \
         (median over samples) is asserted, not assumed."
    );

    let json = format!(
        "{{\n  \"iters\": {ITERS},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
    );
    write_bench_json("BENCH_sim.json", &json);
}
