//! **Ablation** (beyond the paper's figures): decompose ResCCL's win into
//! its three techniques by toggling one component at a time, holding the
//! rest of the pipeline fixed. Axes:
//!
//! 1. execution granularity — task-level (slot-major, no barrier) vs
//!    algorithm-level (micro-batch-major with a lazy barrier),
//! 2. scheduler — HPDS vs round-robin vs plain by-step ordering,
//! 3. TB allocation — state-based merge vs connection-based ×4 channels,
//! 4. runtime — direct kernel vs interpreter.
//!
//! The paper argues each piece matters (§4.3/§4.4/§4.5); this experiment
//! quantifies the attribution on one workload.

use crate::{print_table, MB};
use rescc_algos::hm_allreduce;
use rescc_alloc::TbAllocation;
use rescc_ir::{DepDag, MicroBatchPlan};
use rescc_kernel::{ExecMode, KernelProgram, LoopOrder};
use rescc_sched::{by_step, hpds, round_robin};
use rescc_sim::{simulate, SimConfig};
use rescc_topology::Topology;

/// Run the ablation matrix.
pub fn run() {
    let topo = Topology::a100(2, 8);
    let spec = hm_allreduce(2, 8);
    let dag = DepDag::build(&spec, &topo).expect("dag");
    let buffer = 256 * MB;
    let plan = MicroBatchPlan::plan(buffer, spec.n_chunks(), MB);
    let cfg = SimConfig::default().without_validation();

    struct Variant {
        name: &'static str,
        scheduler: &'static str,
        allocation: &'static str,
        loop_order: LoopOrder,
        barrier: bool,
        exec: ExecMode,
    }
    let variants = [
        Variant {
            name: "ResCCL (full)",
            scheduler: "hpds",
            allocation: "state",
            loop_order: LoopOrder::SlotMajor,
            barrier: false,
            exec: ExecMode::DirectKernel,
        },
        Variant {
            name: "- scheduler: RR",
            scheduler: "rr",
            allocation: "state",
            loop_order: LoopOrder::SlotMajor,
            barrier: false,
            exec: ExecMode::DirectKernel,
        },
        Variant {
            name: "- scheduler: by-step",
            scheduler: "by-step",
            allocation: "state",
            loop_order: LoopOrder::SlotMajor,
            barrier: false,
            exec: ExecMode::DirectKernel,
        },
        Variant {
            name: "- allocation: connection x4",
            scheduler: "hpds",
            allocation: "connection",
            loop_order: LoopOrder::SlotMajor,
            barrier: false,
            exec: ExecMode::DirectKernel,
        },
        Variant {
            name: "- granularity: algorithm-level",
            scheduler: "hpds",
            allocation: "state",
            loop_order: LoopOrder::MicroBatchMajor,
            barrier: true,
            exec: ExecMode::DirectKernel,
        },
        Variant {
            name: "- runtime: interpreter",
            scheduler: "hpds",
            allocation: "state",
            loop_order: LoopOrder::SlotMajor,
            barrier: false,
            exec: ExecMode::default_interpreter(),
        },
        Variant {
            name: "all ablated (MSCCL-like)",
            scheduler: "by-step",
            allocation: "connection",
            loop_order: LoopOrder::MicroBatchMajor,
            barrier: true,
            exec: ExecMode::default_interpreter(),
        },
    ];

    let mut rows = Vec::new();
    let mut baseline_ns = 0.0;
    for v in &variants {
        let sched = match v.scheduler {
            "hpds" => hpds(&dag),
            "rr" => round_robin(&dag),
            _ => by_step(&dag),
        };
        let alloc = match v.allocation {
            "state" => TbAllocation::state_based(&dag, &sched),
            _ => TbAllocation::connection_based(&dag, &sched, 4),
        };
        let mut prog = KernelProgram::generate(spec.name(), &dag, &alloc, v.loop_order, v.exec);
        if v.barrier {
            prog = prog.with_global_barrier(dag.len()).with_barrier_stride(4);
        }
        let rep = simulate(&topo, &dag, &prog, &plan, spec.op(), &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", v.name));
        if baseline_ns == 0.0 {
            baseline_ns = rep.completion_ns;
        }
        rows.push(vec![
            v.name.to_string(),
            format!("{:.2}ms", rep.completion_ns / 1e6),
            format!("{:.2}", buffer as f64 / rep.completion_ns),
            format!("{:.0}", alloc.total_tbs()),
            format!("{:+.1}%", 100.0 * (rep.completion_ns / baseline_ns - 1.0)),
        ]);
    }
    print_table(
        "Ablation: HM-AllReduce, 2x8 A100, 256MB — toggling one ResCCL technique at a time",
        &[
            "variant",
            "completion",
            "algbw GB/s",
            "TBs",
            "slowdown vs full",
        ],
        &rows,
    );
    println!(
        "each ablated component should cost performance (or TB budget) on its own; \
         the fully-ablated row approximates the MSCCL baseline."
    );

    // The optional fusion pass applies to chain-shaped transits (ring
    // forwards); HM's mesh-fed send endpoints correctly decline chain
    // merging, so demonstrate fusion on the multi-ring AllReduce instead.
    let ring_spec = rescc_algos::nccl_rings_allreduce(2, 8, 4);
    let ring_dag = DepDag::build(&ring_spec, &topo).expect("ring dag");
    let ring_plan = MicroBatchPlan::plan(buffer, ring_spec.n_chunks(), MB);
    let mut rows = Vec::new();
    let mut base = 0.0;
    for fused in [false, true] {
        let sched = hpds(&ring_dag);
        let alloc = if fused {
            TbAllocation::state_based_chained(&ring_dag, &sched)
        } else {
            TbAllocation::state_based(&ring_dag, &sched)
        };
        let mut prog = KernelProgram::generate(
            ring_spec.name(),
            &ring_dag,
            &alloc,
            LoopOrder::SlotMajor,
            ExecMode::DirectKernel,
        );
        let stats = if fused {
            rescc_kernel::fuse(&mut prog, &ring_dag)
        } else {
            Default::default()
        };
        let rep = simulate(&topo, &ring_dag, &prog, &ring_plan, ring_spec.op(), &cfg).expect("run");
        if base == 0.0 {
            base = rep.completion_ns;
        }
        rows.push(vec![
            if fused {
                format!("chained + fused ({} pairs)", stats.total())
            } else {
                "plain state-based".to_string()
            },
            format!("{:.2}ms", rep.completion_ns / 1e6),
            format!("{:.0}", alloc.total_tbs()),
            format!("{:+.1}%", 100.0 * (rep.completion_ns / base - 1.0)),
        ]);
    }
    print_table(
        "Fusion ablation: multi-ring AllReduce, 2x8, 256MB — recvCopySend chain fusion",
        &["variant", "completion", "TBs", "delta"],
        &rows,
    );
    println!(
        "fused forwards issue asynchronously, so chain merging frees TB budget \
         (ring transits share one TB) at bounded pipelining cost — a viable \
         opt-in configuration."
    );
}
