//! **Observability** — overhead and reconciliation of bubble attribution.
//!
//! Not a paper figure: this experiment measures the cost of the
//! simulator's observability layer and machine-checks its accounting on
//! two Table-3 scenarios. For each scenario the compiled plan is run
//! `N = 7` times with attribution off and on; wall times are reported as
//! median with min/max spread (single-iteration timings invert under
//! scheduler noise — the same bug the `simbench` experiment fixes).
//!
//! Checked invariants, per scenario:
//!
//! * the report with attribution on is byte-identical to the report with
//!   it off once the `obs` payload is stripped (attribution is read-only
//!   instrumentation);
//! * every TB's hard-bubble time (rendezvous + dependency waits) equals
//!   its `sync_ns` within 1e-6 relative error;
//! * every link timeline's buckets sum to the link's `active_ns`.
//!
//! Machine-readable results (including the measured on/off overhead) go
//! to `BENCH_obs.json`.

use crate::{median_min_max, print_table, write_bench_json, MB};
use rescc_algos::{hm_allgather, hm_allreduce};
use rescc_core::Compiler;
use rescc_lang::AlgoSpec;
use rescc_sim::{BubbleCause, SimConfig};
use rescc_topology::Topology;

const ITERS: usize = 7;

struct Scenario {
    name: &'static str,
    topo: Topology,
    spec: AlgoSpec,
    buffer: u64,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "table3-2x4-ar",
            topo: Topology::a100(2, 4),
            spec: hm_allreduce(2, 4),
            buffer: 128 * MB,
        },
        Scenario {
            name: "table3-2x8-ag",
            topo: Topology::a100(2, 8),
            spec: hm_allgather(2, 8),
            buffer: 128 * MB,
        },
    ]
}

/// Run the observability experiment and write `BENCH_obs.json`.
pub fn run() {
    let compiler = Compiler::new();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();

    for sc in scenarios() {
        let plan = compiler
            .compile_spec(&sc.spec, &sc.topo)
            .unwrap_or_else(|e| panic!("observability: compile '{}': {e}", sc.name));
        let off_cfg = SimConfig::default().without_validation();
        let on_cfg = off_cfg.clone().with_observability();

        let mut off_s = Vec::with_capacity(ITERS);
        let mut on_s = Vec::with_capacity(ITERS);
        let mut rep_off = None;
        let mut rep_on = None;
        for _ in 0..ITERS {
            let t = std::time::Instant::now();
            let r = plan.run_with(sc.buffer, MB, &off_cfg).expect("obs-off run");
            off_s.push(t.elapsed().as_secs_f64());
            rep_off = Some(r);
            let t = std::time::Instant::now();
            let r = plan.run_with(sc.buffer, MB, &on_cfg).expect("obs-on run");
            on_s.push(t.elapsed().as_secs_f64());
            rep_on = Some(r);
        }
        let rep_off = rep_off.expect("ran");
        let rep_on = rep_on.expect("ran");

        // Attribution must be read-only: strip the payload and the two
        // reports must be byte-identical.
        let obs = rep_on.obs.clone().expect("attribution enabled");
        let mut stripped = rep_on.clone();
        stripped.obs = None;
        assert_eq!(
            stripped, rep_off,
            "'{}': attribution changed the simulation result",
            sc.name
        );

        // Hard bubbles reconcile with the engine's sync accounting.
        for (i, tb) in rep_on.tb_stats.iter().enumerate() {
            let attributed = obs.hard_bubble_ns(i as u32);
            let tol = 1e-6 * tb.sync_ns.max(1.0);
            assert!(
                (attributed - tb.sync_ns).abs() <= tol,
                "'{}' r{}tb{}: attributed {attributed} ns vs sync {} ns",
                sc.name,
                tb.rank,
                tb.tb,
                tb.sync_ns
            );
        }
        // Link timelines reconcile with the per-resource active time.
        for lt in &obs.link_timelines {
            let rs = rep_on
                .resource_stats
                .iter()
                .find(|r| r.resource == lt.resource)
                .expect("timeline for a reported resource");
            let sum: f64 = lt.active.iter().sum();
            assert!(
                (sum - rs.active_ns).abs() <= 1e-6 * rs.active_ns.max(1.0),
                "'{}' link {}: buckets sum {sum} vs active {}",
                sc.name,
                lt.resource,
                rs.active_ns
            );
        }

        let (off_med, off_min, off_max) = median_min_max(&mut off_s);
        let (on_med, on_min, on_max) = median_min_max(&mut on_s);
        let overhead = on_med / off_med - 1.0;
        // Attribution costs ~35-40% of sim wall time on these scenarios
        // (interval classification + bucketizing is real work relative to
        // a millisecond-scale run). The assertion is a leak backstop, not
        // the measurement: doubling the run would mean the instrumentation
        // started changing the hot loop's complexity. The honest number is
        // the median printed above and recorded in BENCH_obs.json.
        assert!(
            overhead < 1.0,
            "'{}': attribution overhead {:.1}% exceeds 100%",
            sc.name,
            100.0 * overhead
        );

        let totals = obs.cause_totals_ns();
        rows.push(vec![
            sc.name.to_string(),
            format!("{:.3}ms", off_med * 1e3),
            format!("{:.3}ms", on_med * 1e3),
            format!("{:+.1}%", 100.0 * overhead),
            obs.bubbles.len().to_string(),
            format!("{:.2}ms", totals[0] / 1e6),
            format!("{:.2}ms", totals[1] / 1e6),
            format!("{:.2}ms", totals[2] / 1e6),
            format!("{:.2}ms", totals[3] / 1e6),
        ]);
        let cause_json: Vec<String> = BubbleCause::ALL
            .iter()
            .zip(totals.iter())
            .map(|(c, ns)| format!("\"{}\": {ns:.1}", c.as_str()))
            .collect();
        json_rows.push(format!(
            "    {{\"scenario\": \"{}\", \"ranks\": {}, \"iters\": {ITERS}, \
             \"off_s\": {{\"median\": {off_med:.6}, \"min\": {off_min:.6}, \"max\": {off_max:.6}}}, \
             \"on_s\": {{\"median\": {on_med:.6}, \"min\": {on_min:.6}, \"max\": {on_max:.6}}}, \
             \"overhead_frac\": {overhead:.4}, \"bubbles\": {}, \
             \"cause_totals_ns\": {{{}}}, \"identical_stripped\": true}}",
            sc.name,
            sc.topo.n_ranks(),
            obs.bubbles.len(),
            cause_json.join(", "),
        ));
    }

    print_table(
        "Observability: bubble-attribution overhead and cause totals (median of 7)",
        &[
            "scenario",
            "off",
            "on",
            "overhead",
            "bubbles",
            "rendezvous",
            "dep",
            "contention",
            "startup",
        ],
        &rows,
    );
    println!(
        "attribution is read-only (reports byte-identical with the payload \
         stripped); per-TB hard bubbles reconcile with sync_ns to 1e-6."
    );

    let json = format!(
        "{{\n  \"iters\": {ITERS},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
    );
    write_bench_json("BENCH_obs.json", &json);
}
