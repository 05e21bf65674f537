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
use std::fmt::Write;

/// Render the kernel source of one rank of `prog`, which was generated
/// from `dag` and `alloc`: a slot's peer and chunk are its task's, and its
/// sub-pipeline is the one its allocation slot records.
///
/// # Panics
///
/// If `prog` was not lowered from `alloc`: the rank's TBs and their slots
/// are read from `alloc` by the program's own positions.
pub fn emit_rank_kernel(
    prog: &KernelProgram,
    dag: &DepDag,
    alloc: &TbAllocation,
    rank: usize,
) -> String {
    let rp = &prog.ranks[rank];
    let plan = &alloc.per_rank[rank];
    assert!(
        plan.tbs.len() == rp.tbs.len()
            && plan
                .tbs
                .iter()
                .zip(&rp.tbs)
                .all(|(a, p)| a.slots.len() == p.slots.len()),
        "rank {rank}'s program was not lowered from this allocation"
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// ResCCL generated kernel — algorithm \"{}\", rank {}",
        prog.algo_name, rank
    );
    let _ = writeln!(
        out,
        "// {} thread block(s), {} pipeline slot(s), {:?} iteration",
        rp.tbs.len(),
        rp.tbs.iter().map(|t| t.slots.len()).sum::<usize>(),
        prog.loop_order
    );
    let _ = writeln!(
        out,
        "__global__ void resccl_kernel_r{rank}(ResCCLArgs* args) {{"
    );
    let _ = writeln!(out, "    switch (blockIdx.x) {{");
    for (tb_idx, tb) in rp.tbs.iter().enumerate() {
        let _ = writeln!(out, "    case {tb_idx}: {{ // TB {tb_idx}");
        if tb.slots.is_empty() {
            let _ = writeln!(
                out,
                "        // (idle channel TB — occupies an SM, does nothing)"
            );
        } else {
            match prog.loop_order {
                LoopOrder::SlotMajor => {
                    let prim_slots = &plan.tbs[tb_idx].slots;
                    for (si, slot) in tb.slots.iter().enumerate() {
                        let _ = writeln!(
                            out,
                            "        for (int mb = {}; mb < args->n_micro_batches; mb += {}) {{",
                            tb.mb_offset,
                            tb.mb_stride.max(1)
                        );
                        let _ = writeln!(
                            out,
                            "            wait_deps(args->flags, /*task=*/{}, mb);",
                            slot.task.0
                        );
                        let prim_name = if slot.fused_with_prev {
                            match tb.slots[si - 1].primitive {
                                Primitive::RecvReduceCopy => "prim_recv_reduce_send",
                                _ => "prim_recv_copy_send",
                            }
                        } else {
                            slot.primitive.runtime_name()
                        };
                        let _ = writeln!(
                            out,
                            "            {}(args, /*peer=*/{}, /*chunk=*/{}, mb); // sub-pipeline {}{}",
                            prim_name,
                            slot.peer(dag).0,
                            slot.chunk(dag).0,
                            prim_slots[si].sub_pipeline,
                            if slot.fused_with_prev { ", fused" } else { "" }
                        );
                        let _ = writeln!(
                            out,
                            "            post_done(args->flags, /*task=*/{}, mb);",
                            slot.task.0
                        );
                        let _ = writeln!(out, "        }}");
                    }
                }
                LoopOrder::MicroBatchMajor => {
                    let _ = writeln!(
                        out,
                        "        for (int mb = {}; mb < args->n_micro_batches; mb += {}) {{",
                        tb.mb_offset,
                        tb.mb_stride.max(1)
                    );
                    for (si, slot) in tb.slots.iter().enumerate() {
                        let _ = writeln!(
                            out,
                            "            wait_deps(args->flags, /*task=*/{}, mb);",
                            slot.task.0
                        );
                        let prim_name = if slot.fused_with_prev {
                            match tb.slots[si - 1].primitive {
                                Primitive::RecvReduceCopy => "prim_recv_reduce_send",
                                _ => "prim_recv_copy_send",
                            }
                        } else {
                            slot.primitive.runtime_name()
                        };
                        let _ = writeln!(
                            out,
                            "            {}(args, /*peer=*/{}, /*chunk=*/{}, mb);{}",
                            prim_name,
                            slot.peer(dag).0,
                            slot.chunk(dag).0,
                            if slot.fused_with_prev {
                                " // fused"
                            } else {
                                ""
                            }
                        );
                        let _ = writeln!(
                            out,
                            "            post_done(args->flags, /*task=*/{}, mb);",
                            slot.task.0
                        );
                    }
                    let _ = writeln!(out, "        }}");
                }
            }
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
pub fn emit_all(prog: &KernelProgram, dag: &DepDag, alloc: &TbAllocation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// === ResCCL lightweight kernels: {} ===",
        prog.algo_name
    );
    let _ = writeln!(out, "#include \"resccl_runtime.cuh\"");
    let _ = writeln!(out);
    for rank in 0..prog.ranks.len() {
        out.push_str(&emit_rank_kernel(prog, dag, alloc, rank));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ExecMode, KernelProgram, LoopOrder};
    use rescc_lang::{AlgoBuilder, OpType};
    use rescc_sched::hpds;
    use rescc_topology::Topology;

    fn program(order: LoopOrder) -> (KernelProgram, DepDag, TbAllocation) {
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
        (p, dag, alloc)
    }

    #[test]
    fn emits_one_kernel_per_rank() {
        let (p, dag, alloc) = program(LoopOrder::SlotMajor);
        let src = emit_all(&p, &dag, &alloc);
        for r in 0..4 {
            assert!(src.contains(&format!("resccl_kernel_r{r}")));
        }
    }

    #[test]
    fn slot_major_has_loop_per_slot() {
        let (p, dag, alloc) = program(LoopOrder::SlotMajor);
        let src = emit_rank_kernel(&p, &dag, &alloc, 0);
        let loops = src.matches("for (int mb").count();
        let prims = src.matches("prim_").count();
        assert_eq!(loops, prims, "one micro-batch loop per primitive slot");
    }

    #[test]
    fn micro_batch_major_has_one_loop_per_tb() {
        let (p, dag, alloc) = program(LoopOrder::MicroBatchMajor);
        let src = emit_rank_kernel(&p, &dag, &alloc, 0);
        let loops = src.matches("for (int mb").count();
        let tbs = p.ranks[0]
            .tbs
            .iter()
            .filter(|t| !t.slots.is_empty())
            .count();
        assert_eq!(loops, tbs);
    }

    #[test]
    #[should_panic(expected = "not lowered from this allocation")]
    fn emitting_against_another_allocation_panics() {
        let (p, dag, mut alloc) = program(LoopOrder::SlotMajor);
        alloc.per_rank[0].tbs[0].slots.pop();
        emit_rank_kernel(&p, &dag, &alloc, 0);
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
        let src = emit_all(&prog, &dag, &alloc);
        assert!(
            src.contains("prim_recv_copy_send"),
            "fused codegen missing:\n{src}"
        );
        assert_eq!(src.matches(", fused").count() as u32, stats.total());
    }

    #[test]
    fn every_slot_waits_and_posts() {
        let (p, dag, alloc) = program(LoopOrder::SlotMajor);
        let src = emit_all(&p, &dag, &alloc);
        assert_eq!(
            src.matches("wait_deps").count(),
            src.matches("post_done").count()
        );
        assert_eq!(src.matches("wait_deps").count(), p.total_slots());
    }
}
