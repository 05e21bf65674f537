//! Lightweight kernel codegen: renders a [`KernelProgram`] as readable
//! pseudo-CUDA source.
//!
//! The emitted kernel is exactly the artifact §4.5 describes: one
//! `__global__` function per rank, a `switch (blockIdx.x)` over TB
//! programs, and — for ResCCL's task-level execution — an inner
//! micro-batch loop per pipeline slot, so each TB "cycles through all
//! corresponding micro-batch invocations" with no interpreter in the loop.
//! Baselines with [`LoopOrder::MicroBatchMajor`] instead wrap all slots in
//! one outer micro-batch loop (lazy, algorithm-level execution).

use crate::program::{KernelProgram, LoopOrder, Primitive};
use rescc_alloc::TbAllocation;
use rescc_ir::DepDag;
use rescc_sched::Schedule;
use std::fmt::Write;

/// Render the kernel source of one rank of `prog`, which was generated
/// from `alloc` over `dag` and `schedule`: a slot's peer and chunk are its
/// task's, and its sub-pipeline is the one the schedule put its task in.
///
/// # Panics
///
/// If `prog` was not lowered from `alloc`: the two must share one slot
/// table.
pub fn emit_rank_kernel(
    prog: &KernelProgram,
    dag: &DepDag,
    alloc: &TbAllocation,
    schedule: &Schedule,
    rank: usize,
) -> String {
    assert_lowered_from(prog, alloc, rank);
    rank_kernel(prog, dag, &schedule.sub_pipeline_of(dag.len()), rank)
}

fn assert_lowered_from(prog: &KernelProgram, alloc: &TbAllocation, rank: usize) {
    assert!(
        prog.table == alloc.table,
        "rank {rank}'s program was not lowered from this allocation"
    );
}

/// [`emit_rank_kernel`] with each task's sub-pipeline at hand.
fn rank_kernel(prog: &KernelProgram, dag: &DepDag, sp_of: &[u32], rank: usize) -> String {
    let table = &*prog.table;
    let tbs = table.rank_tbs(rank);
    let slot_major = prog.loop_order == LoopOrder::SlotMajor;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// ResCCL generated kernel — algorithm \"{}\", rank {}",
        prog.algo_name, rank
    );
    let _ = writeln!(
        out,
        "// {} thread block(s), {} pipeline slot(s), {:?} iteration",
        tbs.len(),
        tbs.iter().map(|t| t.len as usize).sum::<usize>(),
        prog.loop_order
    );
    let _ = writeln!(
        out,
        "__global__ void resccl_kernel_r{rank}(ResCCLArgs* args) {{"
    );
    let _ = writeln!(out, "    switch (blockIdx.x) {{");
    for (tb_idx, tb) in tbs.iter().enumerate() {
        let _ = writeln!(out, "    case {tb_idx}: {{ // TB {tb_idx}");
        let mb_loop = format!(
            "        for (int mb = {}; mb < args->n_micro_batches; mb += {}) {{",
            tb.mb_offset,
            tb.mb_stride.max(1)
        );
        if tb.len == 0 {
            let _ = writeln!(
                out,
                "        // (idle channel TB — occupies an SM, does nothing)"
            );
        }
        // Slot-major: one micro-batch loop per slot; micro-batch-major: one
        // loop around all of the TB's slots.
        let wrap_tb = !slot_major && tb.len > 0;
        if wrap_tb {
            let _ = writeln!(out, "{mb_loop}");
        }
        for i in tb.slots() {
            let slot = table.slots()[i];
            let (task, t) = (slot.task(), dag.transfer(slot.task()));
            let peer = if slot.is_send() { t.dst } else { t.src };
            let fused = prog.is_fused(i);
            let name = match fused.then(|| Primitive::of(table.slots()[i - 1], dag)) {
                None => Primitive::of(slot, dag).runtime_name(),
                Some(Primitive::RecvReduceCopy) => "prim_recv_reduce_send",
                Some(_) => "prim_recv_copy_send",
            };
            let note = match (slot_major, fused) {
                (true, false) => format!(" // sub-pipeline {}", sp_of[task.index()]),
                (true, true) => format!(" // sub-pipeline {}, fused", sp_of[task.index()]),
                (false, true) => " // fused".to_string(),
                (false, false) => String::new(),
            };
            if slot_major {
                let _ = writeln!(out, "{mb_loop}");
            }
            let _ = writeln!(
                out,
                "            wait_deps(args->flags, /*task=*/{}, mb);",
                task.0
            );
            let _ = writeln!(
                out,
                "            {name}(args, /*peer=*/{}, /*chunk=*/{}, mb);{note}",
                peer.0, t.chunk.0
            );
            let _ = writeln!(
                out,
                "            post_done(args->flags, /*task=*/{}, mb);",
                task.0
            );
            if slot_major {
                let _ = writeln!(out, "        }}");
            }
        }
        if wrap_tb {
            let _ = writeln!(out, "        }}");
        }
        let _ = writeln!(out, "        break;");
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(out, "    default: return;");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    out
}

/// Emit the runtime header (`resccl_runtime.cuh`) the generated kernels
/// compile against: the argument block, the per-(task, micro-batch)
/// dependency flags, and the primitive family — including the fused
/// `recvCopySend` / `recvReduceSend` variants.
pub fn emit_runtime_header() -> String {
    r#"// resccl_runtime.cuh — runtime support for ResCCL generated kernels.
#pragma once
#include <cstdint>

struct ResCCLArgs {
    // Per-rank DataBuffer: nChunks chunk slots of chunk_bytes each.
    void*          buffer;
    uint64_t       chunk_bytes;
    uint32_t       n_chunks;
    int            n_micro_batches;
    // Completion flags, one per (task, micro-batch), in device memory
    // shared across ranks via peer mappings.
    volatile int*  flags;
    // Peer FIFO connections established by the control plane.
    void**         peer_fifos;
};

// Spin until every data dependency of (task, mb) has posted.
__device__ void wait_deps(volatile int* flags, int task, int mb);
// Post completion of (task, mb).
__device__ void post_done(volatile int* flags, int task, int mb);

// The primitive family (§4.5). Each call moves one chunk invocation
// between this rank's DataBuffer and the peer's FIFO.
__device__ void prim_send(ResCCLArgs* args, int peer, int chunk, int mb);
__device__ void prim_recv(ResCCLArgs* args, int peer, int chunk, int mb);
__device__ void prim_recv_reduce_copy(ResCCLArgs* args, int peer, int chunk, int mb);
// Fused transits: forward while receiving (cut-through).
__device__ void prim_recv_copy_send(ResCCLArgs* args, int peer, int chunk, int mb);
__device__ void prim_recv_reduce_send(ResCCLArgs* args, int peer, int chunk, int mb);
"#
    .to_string()
}

/// Render all ranks' kernels into one translation unit (see
/// [`emit_rank_kernel`], whose panics this shares).
pub fn emit_all(
    prog: &KernelProgram,
    dag: &DepDag,
    alloc: &TbAllocation,
    schedule: &Schedule,
) -> String {
    assert_lowered_from(prog, alloc, 0);
    let sp_of = schedule.sub_pipeline_of(dag.len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// === ResCCL lightweight kernels: {} ===",
        prog.algo_name
    );
    let _ = writeln!(out, "#include \"resccl_runtime.cuh\"");
    let _ = writeln!(out);
    for rank in 0..prog.table.n_ranks() {
        out.push_str(&rank_kernel(prog, dag, &sp_of, rank));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ExecMode, KernelProgram, LoopOrder};
    use rescc_alloc::SlotTable;
    use rescc_lang::{AlgoBuilder, OpType};
    use rescc_sched::hpds;
    use rescc_topology::Topology;
    use std::sync::Arc;

    fn program(order: LoopOrder) -> (KernelProgram, DepDag, TbAllocation, Schedule) {
        let mut b = AlgoBuilder::new("Ring", OpType::AllGather, 4);
        for r in 0..4u32 {
            for step in 0..3u32 {
                b.recv(r, (r + 1) % 4, step, (r + 4 - step) % 4);
            }
        }
        let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(1, 4)).unwrap();
        let s = hpds(&dag);
        let alloc = TbAllocation::state_based(&dag, &s);
        let p = KernelProgram::generate("Ring", &dag, &alloc, order, ExecMode::DirectKernel);
        (p, dag, alloc, s)
    }

    #[test]
    fn emits_one_kernel_per_rank() {
        let (p, dag, alloc, s) = program(LoopOrder::SlotMajor);
        let src = emit_all(&p, &dag, &alloc, &s);
        for r in 0..4 {
            assert!(src.contains(&format!("resccl_kernel_r{r}")));
        }
    }

    #[test]
    fn slot_major_has_loop_per_slot() {
        let (p, dag, alloc, s) = program(LoopOrder::SlotMajor);
        let src = emit_rank_kernel(&p, &dag, &alloc, &s, 0);
        let loops = src.matches("for (int mb").count();
        let prims = src.matches("prim_").count();
        assert_eq!(loops, prims, "one micro-batch loop per primitive slot");
    }

    #[test]
    fn micro_batch_major_has_one_loop_per_tb() {
        let (p, dag, alloc, s) = program(LoopOrder::MicroBatchMajor);
        let src = emit_rank_kernel(&p, &dag, &alloc, &s, 0);
        let loops = src.matches("for (int mb").count();
        let tbs = p.table.rank_tbs(0).iter().filter(|t| t.len > 0).count();
        assert_eq!(loops, tbs);
    }

    #[test]
    #[should_panic(expected = "not lowered from this allocation")]
    fn emitting_against_another_allocation_panics() {
        let (p, dag, mut alloc, s) = program(LoopOrder::SlotMajor);
        // The allocation's table with rank 0's first TB one slot shorter.
        let mut tbs = alloc.table.tbs().to_vec();
        tbs[0].len -= 1;
        let n_ranks = alloc.table.n_ranks();
        alloc.table = Arc::new(SlotTable::new(n_ranks, alloc.table.slots().to_vec(), tbs));
        emit_rank_kernel(&p, &dag, &alloc, &s, 0);
    }

    #[test]
    fn runtime_header_declares_every_primitive() {
        let h = emit_runtime_header();
        for prim in [
            "prim_send",
            "prim_recv",
            "prim_recv_reduce_copy",
            "prim_recv_copy_send",
            "prim_recv_reduce_send",
            "wait_deps",
            "post_done",
        ] {
            assert!(h.contains(prim), "missing {prim}");
        }
        assert!(h.contains("struct ResCCLArgs"));
    }

    #[test]
    fn fused_slots_emit_fused_primitives() {
        use crate::fusion::fuse;
        let mut b = AlgoBuilder::new("Ring", OpType::AllGather, 4);
        for r in 0..4u32 {
            for step in 0..3u32 {
                b.recv(r, (r + 1) % 4, step, (r + 4 - step) % 4);
            }
        }
        let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(1, 4)).unwrap();
        let s = rescc_sched::hpds(&dag);
        let alloc = TbAllocation::state_based_chained(&dag, &s);
        let mut prog = KernelProgram::generate(
            "Ring",
            &dag,
            &alloc,
            LoopOrder::SlotMajor,
            ExecMode::DirectKernel,
        );
        let stats = fuse(&mut prog, &dag);
        assert!(stats.total() > 0, "ring transits must fuse");
        let src = emit_all(&prog, &dag, &alloc, &s);
        assert!(
            src.contains("prim_recv_copy_send"),
            "fused codegen missing:\n{src}"
        );
        assert_eq!(src.matches(", fused").count() as u32, stats.total());
    }

    #[test]
    fn every_slot_waits_and_posts() {
        let (p, dag, alloc, s) = program(LoopOrder::SlotMajor);
        let src = emit_all(&p, &dag, &alloc, &s);
        assert_eq!(
            src.matches("wait_deps").count(),
            src.matches("post_done").count()
        );
        assert_eq!(src.matches("wait_deps").count(), p.total_slots());
    }
}
