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
use rescc_algos::{
    hm_allreduce, hm_allreduce_source, nccl_rings_allgather, taccl_like_allgather,
    taccl_like_allreduce,
};
use rescc_backends::{Backend, Communicator};
use rescc_core::{Compiler, PlanCache};
use rescc_ir::{DepDag, MicroBatchPlan};
use rescc_sched::hpds;
use rescc_topology::{Rank, Topology, TopologyHealth};

/// Least flat-over-reference scheduler speedup the smoke gate accepts.
const MIN_SCHED_SPEEDUP: f64 = 1.0;
/// Least full-over-delta recompile speedup the smoke gate accepts.
const MIN_DELTA_SPEEDUP: f64 = 1.0;

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

/// A delta recompile after one masked NVLink pair channel against a full
/// recompile for the degraded topology, best-of-N each, on a 2-ring
/// AllGather. The rings leave routing slack, so the relayed routes fit
/// the cached schedule and the splice path must engage.
struct DeltaSample {
    full_s: f64,
    delta_s: f64,
    spliced: bool,
    /// An unchanged-mask delta returned the cached plan byte-for-byte.
    identity: bool,
}

impl DeltaSample {
    fn measure(compiler: &Compiler, nodes: u32, g: u32, chan: (u32, u32), iters: usize) -> Self {
        let topo = Topology::a100(nodes, g);
        let spec = nccl_rings_allgather(nodes, g, 2);
        let plan = compiler
            .compile_spec(&spec, &topo)
            .expect("delta base compile");
        let mut health = TopologyHealth::default();
        health.mask(topo.pair_chan(Rank::new(chan.0), Rank::new(chan.1)));

        let mut s = DeltaSample {
            full_s: f64::MAX,
            delta_s: f64::MAX,
            spliced: true,
            identity: false,
        };
        for _ in 0..iters {
            let (delta_s, delta) = time(|| compiler.recompile_delta(&plan, &health));
            s.delta_s = s.delta_s.min(delta_s);
            s.spliced &= delta.expect("delta recompile").timings.lowering.is_zero();
        }
        let degraded = topo.with_health(health);
        for _ in 0..iters {
            // A spec of its own: the full recompile derives the spec-only
            // work too, which the base compile memoized in `spec`.
            let spec = nccl_rings_allgather(nodes, g, 2);
            let (full_s, full) = time(|| compiler.compile_spec(&spec, &degraded));
            s.full_s = s.full_s.min(full_s);
            full.expect("full degraded compile");
        }
        s.identity = compiler
            .recompile_delta(&plan, plan.topo.health())
            .expect("identity recompile")
            .semantic_eq(&plan);
        s
    }

    fn speedup(&self) -> f64 {
        self.full_s / self.delta_s
    }

    /// The delta must splice and the identity path must return the cached
    /// plan; with `timed`, the delta must also beat the full recompile.
    fn check(&self, gate: &mut Gate, timed: bool) {
        gate.check(self.spliced, || {
            "delta recompile fell back to a full reschedule".into()
        });
        gate.check(self.identity, || {
            "unchanged-mask delta recompile is not byte-equivalent".into()
        });
        let speedup = self.speedup();
        gate.check(!timed || speedup > MIN_DELTA_SPEEDUP, || {
            format!(
                "delta recompile is not faster than a full recompile \
                 (delta_speedup {speedup:.3} <= {MIN_DELTA_SPEEDUP})"
            )
        });
    }
}

/// Regenerate Figure 10(a): compile-phase breakdown vs scale, the
/// scheduler-rearchitecture speedup and cold/warm comparison at 1,024
/// emulated GPUs, the incremental (delta) recompile comparison, and
/// a 4,096-GPU compile point. Writes machine-readable results to
/// `BENCH_compile.json`, and exits non-zero if the flat schedule diverges
/// from the reference or the delta recompile misses its splice or
/// identity path.
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

    // Incremental (delta) recompile after a single intra-node link fault.
    // The full recompile is what the watchdog previously did: recompile
    // the spec from scratch against the degraded topology. Best-of-3 on
    // both sides: these are sub-second wall times on a shared box, and a
    // single stray scheduler preemption can halve the ratio.
    let delta = DeltaSample::measure(&compiler, nodes, g, (40, 41), 3);
    let (full_s, delta_s, delta_speedup) = (delta.full_s, delta.delta_s, delta.speedup());
    let (delta_spliced, delta_identity) = (delta.spliced, delta.identity);

    print_table(
        &format!("Post-fault recompile at {ranks} GPUs (2-ring AllGather, 1 dead NVLink channel)"),
        &["mode", "wall time", "speedup"],
        &[
            vec![
                "full recompile".into(),
                format!("{full_s:.3}s"),
                "1.0x".into(),
            ],
            vec![
                "delta recompile (splice)".into(),
                format!("{delta_s:.3}s"),
                format!("{delta_speedup:.2}x"),
            ],
        ],
    );
    println!(
        "delta took the splice path: {delta_spliced}; \
         unchanged-mask delta is byte-equivalent to the cached plan: {delta_identity}."
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
         \"delta\": {{\"workload\": \"nccl_rings_allgather\", \
         \"full_recompile_s\": {full_s:.6}, \"delta_recompile_s\": {delta_s:.6}, \
         \"delta_speedup\": {delta_speedup:.3}, \"spliced\": {delta_spliced}, \
         \"identity_byte_equivalent\": {delta_identity}}},\n  \
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
    delta.check(&mut gate, false);
    gate.finish("figure10a");
}

/// CI smoke gate at 128 emulated GPUs: [`run_a`]'s scheduler and delta
/// measurements, best-of-3 scheduling, with their wall-time guards on.
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
    let delta = DeltaSample::measure(&Compiler::new(), nodes, g, (8, 9), 1);
    println!(
        "delta recompile: full {:.2}ms, delta {:.2}ms, \
         delta_speedup {:.2}x, spliced {}, identity byte-equivalent {}",
        delta.full_s * 1e3,
        delta.delta_s * 1e3,
        delta.speedup(),
        delta.spliced,
        delta.identity,
    );
    let mut gate = Gate::default();
    sched.check(&mut gate, true);
    delta.check(&mut gate, true);
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
    fn delta_check_reports_missed_splice_identity_and_slowness() {
        let sample = DeltaSample {
            full_s: 1.0,
            delta_s: 1.0,
            spliced: false,
            identity: false,
        };
        let mut gate = Gate::default();
        sample.check(&mut gate, false);
        assert_eq!(gate.failures.len(), 2);
        assert!(gate.failures[0].contains("full reschedule"));
        assert!(gate.failures[1].contains("byte-equivalent"));
        let mut gate = Gate::default();
        sample.check(&mut gate, true);
        assert!(gate.failures[2].contains("delta_speedup 1.000"));
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
        DeltaSample {
            full_s: 2.0,
            delta_s: 1.0,
            spliced: true,
            identity: true,
        }
        .check(&mut gate, true);
        assert!(gate.failures.is_empty());
    }
}
