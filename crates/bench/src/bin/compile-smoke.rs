//! CI smoke gate for the compile-pipeline rearchitecture.
//!
//! Fails (nonzero exit) if either regression guard trips:
//!
//! 1. the flat CSR scheduler must beat the reference (pre-rearchitecture)
//!    scheduler (`flat_sched_speedup > 1.0`) while staying byte-identical;
//! 2. a delta recompile after a single masked NVLink channel must take the
//!    splice path and beat a full recompile, and an unchanged-mask delta
//!    must return the cached plan byte-for-byte.
//!
//! Sized for CI: 128 emulated GPUs, a few hundred milliseconds end to end.

use rescc_algos::{hm_allreduce, nccl_rings_allgather};
use rescc_core::Compiler;
use rescc_ir::DepDag;
use rescc_sched::{hpds, hpds_reference};
use rescc_topology::{Rank, Topology, TopologyHealth};
use std::time::Instant;

fn main() {
    let mut failures = Vec::new();
    let (nodes, g) = (16u32, 8u32);
    let topo = Topology::a100(nodes, g);

    // Guard 1: scheduler rearchitecture. Best-of-3 on both sides to shrug
    // off CI timer jitter.
    let spec = hm_allreduce(nodes, g);
    let dag = DepDag::build(&spec, &topo).expect("smoke dag");
    let mut best_ref = f64::MAX;
    let mut best_flat = f64::MAX;
    let mut identical = true;
    for _ in 0..3 {
        let t0 = Instant::now();
        let reference = hpds_reference(&dag);
        best_ref = best_ref.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let flat = hpds(&dag);
        best_flat = best_flat.min(t0.elapsed().as_secs_f64());
        identical &= reference == flat;
    }
    let flat_sched_speedup = best_ref / best_flat;
    println!(
        "scheduler: reference {:.2}ms, flat {:.2}ms, \
         flat_sched_speedup {flat_sched_speedup:.2}x, byte-identical {identical}",
        best_ref * 1e3,
        best_flat * 1e3,
    );
    if flat_sched_speedup <= 1.0 {
        failures.push(format!(
            "flat scheduler is not faster than the reference \
             (flat_sched_speedup {flat_sched_speedup:.3} <= 1.0)"
        ));
    }
    if !identical {
        failures.push("flat scheduler output diverged from the reference".into());
    }

    // Guard 2: delta recompile. The 2-ring workload leaves routing slack,
    // so a single dead channel must splice, not reschedule.
    let compiler = Compiler::new();
    let delta_spec = nccl_rings_allgather(nodes, g, 2);
    let plan = compiler
        .compile_spec(&delta_spec, &topo)
        .expect("smoke base compile");
    let mut health = TopologyHealth::default();
    health.mask(topo.pair_chan(Rank::new(8), Rank::new(9)));

    let t0 = Instant::now();
    let delta = compiler
        .recompile_delta(&plan, &health)
        .expect("smoke delta recompile");
    let delta_s = t0.elapsed().as_secs_f64();
    let spliced = delta.timings.lowering.is_zero();

    let degraded = topo.clone().with_health(health);
    let t0 = Instant::now();
    compiler
        .compile_spec(&delta_spec, &degraded)
        .expect("smoke full degraded compile");
    let full_s = t0.elapsed().as_secs_f64();
    let delta_speedup = full_s / delta_s;
    println!(
        "delta recompile: full {:.2}ms, delta {:.2}ms, \
         delta_speedup {delta_speedup:.2}x, spliced {spliced}",
        full_s * 1e3,
        delta_s * 1e3,
    );
    if !spliced {
        failures.push("delta recompile fell back to a full reschedule".into());
    }
    if delta_speedup <= 1.0 {
        failures.push(format!(
            "delta recompile is not faster than a full recompile \
             (delta_speedup {delta_speedup:.3} <= 1.0)"
        ));
    }

    let unchanged = compiler
        .recompile_delta(&plan, plan.topo.health())
        .expect("smoke identity recompile");
    if !unchanged.semantic_eq(&plan) {
        failures.push("unchanged-mask delta recompile is not byte-equivalent".into());
    } else {
        println!("identity delta recompile: byte-equivalent");
    }

    if failures.is_empty() {
        println!("compile-smoke: all guards passed");
    } else {
        for f in &failures {
            eprintln!("compile-smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
