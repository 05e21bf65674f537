//! **Figure 10** — Workflow breakdown.
//!
//! * (a) Offline compile phase scalability: Parsing / Analysis / Scheduling
//!   / Lowering time as the emulated cluster grows to 1,024 GPUs. The
//!   paper's pipeline finishes in ~11 minutes at 1,024 GPUs — a one-time
//!   offline cost.
//! * (b) HPDS vs round-robin scheduling on an 8-GPU two-server topology,
//!   for expert and synthesized algorithms (paper: up to 187% speedup).

use crate::{print_table, MB};
use rescc_algos::{
    hm_allreduce, hm_allreduce_source, nccl_rings_allgather, taccl_like_allgather,
    taccl_like_allreduce,
};
use rescc_backends::{Backend, RescclBackend};
use rescc_core::{Compiler, PlanCache};
use rescc_ir::{DepDag, MicroBatchPlan};
use rescc_sched::{hpds, hpds_reference};
use rescc_topology::{Rank, Topology, TopologyHealth};
use std::time::Instant;

/// Regenerate Figure 10(a): compile-phase breakdown vs scale, the
/// scheduler-rearchitecture speedup and cold/warm comparison at 1,024
/// emulated GPUs, the incremental (delta) recompile comparison, and
/// a 4,096-GPU compile point. Writes machine-readable results to
/// `BENCH_compile.json`.
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
    // kept verbatim in `rescc_sched::reference`) against the flat CSR
    // pipeline. Both are serial, so the flat pipeline wins on data layout
    // alone.
    let (nodes, g) = (128u32, 8u32);
    let ranks = nodes * g;
    let topo = Topology::a100(nodes, g);
    let spec = hm_allreduce(nodes, g);

    let dag = DepDag::build(&spec, &topo).expect("figure10a dag");
    let t0 = Instant::now();
    let ref_schedule = hpds_reference(&dag);
    let sched_reference = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let flat_schedule = hpds(&dag);
    let sched_flat = t0.elapsed().as_secs_f64();
    let sched_identical = ref_schedule == flat_schedule;
    let flat_sched_speedup = sched_reference / sched_flat;
    drop(ref_schedule);
    drop(flat_schedule);
    drop(dag);

    let compiler = Compiler::new();
    let t0 = Instant::now();
    let serial_plan = compiler
        .compile_spec(&spec, &topo)
        .expect("figure10a serial compile");
    let cold_serial = t0.elapsed().as_secs_f64();

    let cache = PlanCache::new();
    let mb = MicroBatchPlan::plan(256 * MB, spec.n_chunks(), MB);
    cache
        .get_or_compile(&compiler, &spec, &topo, &mb)
        .expect("figure10a cache prime");
    let t0 = Instant::now();
    cache
        .get_or_compile(&compiler, &spec, &topo, &mb)
        .expect("figure10a cache hit");
    let warm = t0.elapsed().as_secs_f64();

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

    // Incremental (delta) recompile after a single intra-node link fault,
    // on a workload with routing slack (2 NCCL rings leave most NVLink
    // pair channels idle, so the relayed routes fit the cached schedule
    // and the splice path engages). The full recompile is what the
    // watchdog previously did: recompile the spec from scratch against
    // the degraded topology.
    let delta_spec = nccl_rings_allgather(nodes, g, 2);
    let delta_plan = compiler
        .compile_spec(&delta_spec, &topo)
        .expect("figure10a delta base compile");
    let mut health = TopologyHealth::default();
    health.mask(topo.pair_chan(Rank::new(40), Rank::new(41)));

    // Best-of-3 on both sides: these are sub-second wall times on a shared
    // box, and a single stray scheduler preemption can halve the ratio.
    let mut delta_s = f64::MAX;
    let mut delta_spliced = true;
    for _ in 0..3 {
        let t0 = Instant::now();
        let delta = compiler
            .recompile_delta(&delta_plan, &health)
            .expect("figure10a delta recompile");
        delta_s = delta_s.min(t0.elapsed().as_secs_f64());
        delta_spliced &= delta.timings.lowering.is_zero();
    }

    let degraded = topo.clone().with_health(health.clone());
    let mut full_s = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        let full = compiler
            .compile_spec(&delta_spec, &degraded)
            .expect("figure10a full degraded compile");
        full_s = full_s.min(t0.elapsed().as_secs_f64());
        drop(full);
    }
    let delta_speedup = full_s / delta_s;

    // Unchanged mask -> the delta path must return the cached plan
    // byte-for-byte (the identity path).
    let unchanged = compiler
        .recompile_delta(&delta_plan, delta_plan.topo.health())
        .expect("figure10a identity recompile");
    let delta_identity = unchanged.semantic_eq(&delta_plan);
    drop(unchanged);
    drop(delta_plan);

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
    let t0 = Instant::now();
    let plan_4k = compiler
        .compile_spec(&spec_4k, &topo_4k)
        .expect("figure10a 4k compile");
    let total_4k = t0.elapsed().as_secs_f64();
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
    match std::fs::write("BENCH_compile.json", &json) {
        Ok(()) => println!("wrote BENCH_compile.json"),
        Err(e) => eprintln!("could not write BENCH_compile.json: {e}"),
    }
}

/// Regenerate Figure 10(b): HPDS vs round-robin.
pub fn run_b() {
    let topo = Topology::a100(2, 4);
    let hpds = RescclBackend::default();
    let rr = RescclBackend::round_robin();
    let cases = [
        ("expert HM-AR", hm_allreduce(2, 4)),
        ("synth TACCL-AG", taccl_like_allgather(2, 4)),
        ("synth TACCL-AR", taccl_like_allreduce(2, 4)),
    ];
    let mut rows = Vec::new();
    for (name, spec) in &cases {
        for buffer in [64 * MB, 512 * MB] {
            let th = hpds
                .run_unchecked(spec, &topo, buffer, MB)
                .expect("figure10b hpds")
                .sim
                .completion_ns;
            let tr = rr
                .run_unchecked(spec, &topo, buffer, MB)
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
