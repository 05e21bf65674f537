//! **Figure 10** — Workflow breakdown.
//!
//! * (a) Offline compile phase scalability: Parsing / Analysis / Scheduling
//!   / Lowering time as the emulated cluster grows to 1,024 GPUs. The
//!   paper's pipeline finishes in ~11 minutes at 1,024 GPUs — a one-time
//!   offline cost.
//! * (b) HPDS vs round-robin scheduling on an 8-GPU two-server topology,
//!   for expert and synthesized algorithms (paper: up to 187% speedup).

use crate::reference::hpds_reference;
use crate::{print_table, time, write_bench_json, Gate, MB};
use rescc_algos::{hm_allreduce, hm_allreduce_source, taccl_like_allgather, taccl_like_allreduce};
use rescc_backends::{Backend, Communicator};
use rescc_core::{Compiler, PlanCache};
use rescc_ir::{DepDag, MicroBatchPlan};
use rescc_sched::hpds;
use rescc_topology::Topology;

/// Least flat-over-reference scheduler speedup the smoke gate accepts.
const MIN_SCHED_SPEEDUP: f64 = 1.0;

/// Best-of-N wall times of the flat scheduler and the reference
/// (pre-rearchitecture) scheduler on one DAG.
struct SchedSample {
    reference_s: f64,
    flat_s: f64,
    identical: bool,
}

impl SchedSample {
    fn measure(dag: &DepDag, iters: usize) -> Self {
        let mut s = SchedSample {
            reference_s: f64::MAX,
            flat_s: f64::MAX,
            identical: true,
        };
        for _ in 0..iters {
            let (reference_s, reference) = time(|| hpds_reference(dag));
            let (flat_s, flat) = time(|| hpds(dag));
            s.reference_s = s.reference_s.min(reference_s);
            s.flat_s = s.flat_s.min(flat_s);
            s.identical &= reference == flat;
        }
        s
    }

    fn speedup(&self) -> f64 {
        self.reference_s / self.flat_s
    }

    /// The schedules must match; with `timed`, the flat one must also win.
    fn check(&self, gate: &mut Gate, timed: bool) {
        gate.check(self.identical, || {
            "flat scheduler output diverged from the reference".into()
        });
        let speedup = self.speedup();
        gate.check(!timed || speedup > MIN_SCHED_SPEEDUP, || {
            format!(
                "flat scheduler is not faster than the reference \
                 (flat_sched_speedup {speedup:.3} <= {MIN_SCHED_SPEEDUP})"
            )
        });
    }
}

/// Regenerate Figure 10(a): compile-phase breakdown vs scale, the
/// scheduler-rearchitecture speedup and cold/warm comparison at 1,024
/// emulated GPUs, and a 4,096-GPU compile point. Writes machine-readable
/// results to `BENCH_compile.json`, and exits non-zero if the flat
/// schedule diverges from the reference.
pub fn run_a() {
    let mut rows = Vec::new();
    for nodes in [1u32, 2, 4, 8, 16, 32, 64, 128] {
        let g = 8;
        let ranks = nodes * g;
        let topo = Topology::a100(nodes, g);
        let source = hm_allreduce_source(nodes, g);
        let plan = Compiler::new()
            .compile_source(&source, &topo)
            .expect("figure10a compile");
        let t = plan.timings;
        rows.push(vec![
            ranks.to_string(),
            plan.dag.len().to_string(),
            format!("{:.1}ms", t.parsing.as_secs_f64() * 1e3),
            format!("{:.1}ms", t.analysis.as_secs_f64() * 1e3),
            format!("{:.1}ms", t.scheduling.as_secs_f64() * 1e3),
            format!("{:.1}ms", t.lowering.as_secs_f64() * 1e3),
            format!("{:.2}s", t.total().as_secs_f64()),
        ]);
    }
    print_table(
        "Figure 10(a): offline compile phase breakdown vs emulated cluster scale (HM-AllReduce)",
        &[
            "GPUs",
            "tasks",
            "parsing",
            "analysis",
            "scheduling",
            "lowering",
            "total",
        ],
        &rows,
    );
    println!("paper: the full DSL pipeline finishes in ~11 min even at 1,024 GPUs (offline).");

    // Scheduler rearchitecture at the largest sweep scale: the reference
    // scheduler (the pre-rearchitecture pointer-chasing implementation,
    // kept verbatim in `crate::reference`) against the flat CSR
    // pipeline. Both are serial, so the flat pipeline wins on data layout
    // alone.
    let (nodes, g) = (128u32, 8u32);
    let ranks = nodes * g;
    let topo = Topology::a100(nodes, g);
    let spec = hm_allreduce(nodes, g);

    // Built from a spec of its own, so the cold compile below derives the
    // spec-only work itself.
    let dag = DepDag::build(&hm_allreduce(nodes, g), &topo).expect("figure10a dag");
    let sched = SchedSample::measure(&dag, 1);
    drop(dag);
    let (sched_reference, sched_flat) = (sched.reference_s, sched.flat_s);
    let (sched_identical, flat_sched_speedup) = (sched.identical, sched.speedup());

    let compiler = Compiler::new();
    let (cold_serial, serial_plan) = time(|| compiler.compile_spec(&spec, &topo));
    let serial_plan = serial_plan.expect("figure10a serial compile");

    let cache = PlanCache::new();
    let mb = MicroBatchPlan::plan(256 * MB, spec.n_chunks(), MB);
    cache
        .get_or_compile(&compiler, &spec, &topo, &mb)
        .expect("figure10a cache prime");
    let (warm, hit) = time(|| cache.get_or_compile(&compiler, &spec, &topo, &mb));
    hit.expect("figure10a cache hit");

    print_table(
        &format!("Compile modes at {ranks} GPUs (HM-AllReduce)"),
        &["mode", "wall time", "speedup"],
        &[
            vec![
                "scheduler, reference".into(),
                format!("{sched_reference:.3}s"),
                "1.0x".into(),
            ],
            vec![
                "scheduler, flat".into(),
                format!("{sched_flat:.3}s"),
                format!("{flat_sched_speedup:.2}x"),
            ],
            vec![
                "cold compile, serial".into(),
                format!("{cold_serial:.3}s"),
                "1.0x".into(),
            ],
            vec![
                "warm cache".into(),
                format!("{:.2}ms", warm * 1e3),
                format!("{:.0}x", cold_serial / warm),
            ],
        ],
    );
    println!(
        "flat scheduler byte-identical to reference: {sched_identical}; \
         warm dispatch skips all five compile phases via the plan cache."
    );

    // 4,096-GPU compile point (spec-based: the DSL source at this scale
    // is dominated by text generation, which is not what this figure
    // measures).
    let topo_4k = Topology::a100(512, 8);
    let spec_4k = hm_allreduce(512, 8);
    let (total_4k, plan_4k) = time(|| compiler.compile_spec(&spec_4k, &topo_4k));
    let plan_4k = plan_4k.expect("figure10a 4k compile");
    let t4 = plan_4k.timings;
    let tasks_4k = plan_4k.dag.len();
    println!(
        "4,096-GPU compile point: {tasks_4k} tasks in {total_4k:.1}s \
         (analysis {:.1}s, scheduling {:.1}s, lowering {:.1}s, sanitize {:.1}s)",
        t4.analysis.as_secs_f64(),
        t4.scheduling.as_secs_f64(),
        t4.lowering.as_secs_f64(),
        t4.sanitize.as_secs_f64(),
    );
    drop(plan_4k);

    let t = serial_plan.timings;
    let json = format!(
        "{{\n  \"workload\": \"hm_allreduce\",\n  \"ranks\": {ranks},\n  \
         \"tasks\": {tasks},\n  \
         \"sched_reference_s\": {sched_reference:.6},\n  \
         \"sched_flat_s\": {sched_flat:.6},\n  \
         \"flat_sched_speedup\": {flat_sched_speedup:.3},\n  \
         \"sched_byte_identical\": {sched_identical},\n  \
         \"cold_serial_s\": {cold_serial:.6},\n  \
         \"warm_cache_s\": {warm:.9},\n  \
         \"phases_serial_ms\": {{\"parsing\": {p:.3}, \"analysis\": {a:.3}, \
         \"scheduling\": {s:.3}, \"lowering\": {l:.3}, \"sanitize\": {sa:.3}}},\n  \
         \"scale_4k\": {{\"ranks\": 4096, \"tasks\": {tasks_4k}, \
         \"total_s\": {total_4k:.3}}}\n}}\n",
        tasks = serial_plan.dag.len(),
        p = t.parsing.as_secs_f64() * 1e3,
        a = t.analysis.as_secs_f64() * 1e3,
        s = t.scheduling.as_secs_f64() * 1e3,
        l = t.lowering.as_secs_f64() * 1e3,
        sa = t.sanitize.as_secs_f64() * 1e3,
    );
    write_bench_json("BENCH_compile.json", &json);

    let mut gate = Gate::default();
    sched.check(&mut gate, false);
    gate.finish("figure10a");
}

/// CI smoke gate at 128 emulated GPUs: [`run_a`]'s scheduler
/// measurement, best-of-3, with its wall-time guard on.
pub fn smoke() {
    let (nodes, g) = (16u32, 8u32);
    let dag = DepDag::build(&hm_allreduce(nodes, g), &Topology::a100(nodes, g)).expect("smoke dag");
    let sched = SchedSample::measure(&dag, 3);
    println!(
        "scheduler: reference {:.2}ms, flat {:.2}ms, \
         flat_sched_speedup {:.2}x, byte-identical {}",
        sched.reference_s * 1e3,
        sched.flat_s * 1e3,
        sched.speedup(),
        sched.identical,
    );
    let mut gate = Gate::default();
    sched.check(&mut gate, true);
    gate.finish("compile-smoke");
}

/// Regenerate Figure 10(b): HPDS vs round-robin.
pub fn run_b() {
    let topo = Topology::a100(2, 4);
    let mut hpds = Communicator::new(topo.clone());
    let mut rr =
        Communicator::new(topo).with_backend(Backend::Resccl(Compiler::new().with_round_robin()));
    let cases = [
        ("expert HM-AR", hm_allreduce(2, 4)),
        ("synth TACCL-AG", taccl_like_allgather(2, 4)),
        ("synth TACCL-AR", taccl_like_allreduce(2, 4)),
    ];
    let mut rows = Vec::new();
    for (name, spec) in &cases {
        for buffer in [64 * MB, 512 * MB] {
            let th = hpds
                .run_spec(spec, buffer, MB)
                .expect("figure10b hpds")
                .sim
                .completion_ns;
            let tr = rr
                .run_spec(spec, buffer, MB)
                .expect("figure10b rr")
                .sim
                .completion_ns;
            rows.push(vec![
                name.to_string(),
                crate::fmt_bytes(buffer),
                format!("{:.2}ms", th / 1e6),
                format!("{:.2}ms", tr / 1e6),
                format!("{:+.1}%", 100.0 * (tr / th - 1.0)),
            ]);
        }
    }
    print_table(
        "Figure 10(b): HPDS vs round-robin scheduling (2 servers x 4 GPUs)",
        &["algorithm", "buffer", "HPDS", "round-robin", "HPDS speedup"],
        &rows,
    );
    println!("paper: HPDS consistently beats RR, by up to 187%.");
}

/// Regenerate both panels.
pub fn run() {
    run_a();
    run_b();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_check_reports_divergence_and_slowness() {
        let sample = SchedSample {
            reference_s: 1.0,
            flat_s: 2.0,
            identical: false,
        };
        let mut gate = Gate::default();
        sample.check(&mut gate, false);
        assert_eq!(gate.failures.len(), 1);
        assert!(gate.failures[0].contains("diverged"));
        let mut gate = Gate::default();
        sample.check(&mut gate, true);
        assert_eq!(gate.failures.len(), 2);
        assert!(gate.failures[1].contains("flat_sched_speedup 0.500"));
    }

    #[test]
    fn passing_samples_pass() {
        let mut gate = Gate::default();
        SchedSample {
            reference_s: 2.0,
            flat_s: 1.0,
            identical: true,
        }
        .check(&mut gate, true);
        assert!(gate.failures.is_empty());
    }
}
