//! The kernel program hierarchy of §4.5.
//!
//! The generation paradigm is defined across three dimensions:
//!
//! 1. **Rank dimension** — the complete set of primitives each GPU executes,
//! 2. **TB dimension** — the primitives assigned to each thread block,
//! 3. **Pipeline dimension** — the per-TB ordering of primitives by
//!    sub-pipeline index; each slot cycles through all of its micro-batch
//!    invocations.
//!
//! All three are the allocation's [`SlotTable`], which the program shares
//! rather than copies; a slot's primitive, peer and chunk are its task's.
//!
//! The same structure also expresses the baseline execution models: the
//! [`LoopOrder`] distinguishes ResCCL's task-level execution (slot-major:
//! finish all micro-batches of a slot before moving on) from the lazy
//! algorithm-level execution of NCCL-style backends (micro-batch-major:
//! run every slot once per micro-batch), and [`ExecMode`] models the
//! runtime-interpreter overhead that direct kernel generation eliminates
//! (Fig. 3).

use rescc_alloc::{Direction, Slot, SlotTable, TbAllocation};
use rescc_ir::{DepDag, IrError, TaskId};
use rescc_lang::CommType;
use std::sync::Arc;

/// A communication primitive, NCCL-style.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Push a chunk to the peer.
    Send,
    /// Receive a chunk and copy it into the local buffer slot.
    Recv,
    /// Receive a chunk, reduce it with the local value, store the result
    /// (`recvReduceCopy`).
    RecvReduceCopy,
}

impl Primitive {
    /// The primitive of `slot`, a side of one of `dag`'s tasks.
    pub fn of(slot: Slot, dag: &DepDag) -> Self {
        match (slot.dir(), dag.transfer(slot.task()).comm) {
            (Direction::Send, _) => Primitive::Send,
            (Direction::Recv, CommType::Recv) => Primitive::Recv,
            (Direction::Recv, CommType::Rrc) => Primitive::RecvReduceCopy,
        }
    }

    /// The runtime function name emitted by codegen.
    pub fn runtime_name(self) -> &'static str {
        match self {
            Primitive::Send => "prim_send",
            Primitive::Recv => "prim_recv",
            Primitive::RecvReduceCopy => "prim_recv_reduce_copy",
        }
    }
}

/// How a TB iterates its slots against micro-batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LoopOrder {
    /// Task-level execution (ResCCL): each slot runs *all* micro-batch
    /// invocations before the TB advances to the next slot.
    SlotMajor,
    /// Algorithm-level execution (NCCL/MSCCL): every micro-batch runs all
    /// slots once, in order, before the next micro-batch starts.
    MicroBatchMajor,
}

/// Runtime execution engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExecMode {
    /// Directly generated lightweight kernel: no per-invocation control
    /// overhead beyond the transfer itself.
    DirectKernel,
    /// Runtime interpreter (MSCCL-style): every primitive invocation pays a
    /// fixed parse/dispatch overhead for loading the algorithm step,
    /// resolving routing, and reading TB assignments from memory.
    Interpreter {
        /// Overhead per primitive invocation, in ns.
        per_invocation_overhead_ns: f64,
    },
}

impl ExecMode {
    /// The interpreter overhead calibrated to reproduce the ≈17% average
    /// loss of Fig. 3 at the paper's 1 MB chunk size.
    pub fn default_interpreter() -> Self {
        ExecMode::Interpreter {
            per_invocation_overhead_ns: 9_000.0,
        }
    }

    /// The per-invocation overhead in ns (0 for direct kernels).
    pub fn overhead_ns(self) -> f64 {
        match self {
            ExecMode::DirectKernel => 0.0,
            ExecMode::Interpreter {
                per_invocation_overhead_ns,
            } => per_invocation_overhead_ns,
        }
    }
}

/// A complete generated kernel program for the whole collective.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProgram {
    /// Algorithm name (for reports and codegen headers).
    pub algo_name: String,
    /// Every rank's TBs and their slots: the allocation's table, shared.
    pub table: Arc<SlotTable>,
    /// Fusion marks, one bit per table slot: a set bit means the slot, a
    /// send, executes fused with the slot before it on its TB
    /// (`recvCopySend` / `recvReduceSend`), eliding its startup latency.
    /// Empty unless [`fuse`](crate::fuse) marked a pair.
    pub fused: Vec<u64>,
    /// Slot iteration order.
    pub loop_order: LoopOrder,
    /// Execution engine.
    pub exec: ExecMode,
    /// Micro-batch barrier groups: `barrier_groups[task] = group`, and no
    /// invocation of a task may start micro-batch `m+1` before every task
    /// in its group has completed micro-batch `m`.
    ///
    /// * `None` — ResCCL's task-level execution: no barrier, invocations
    ///   pipeline freely across micro-batches (Eq. 5).
    /// * all tasks in one group — lazy algorithm-level execution: the whole
    ///   algorithm completes a micro-batch before the next starts (Eq. 3).
    /// * one group per stage — MSCCL-style stage-level execution: each
    ///   stage iterates its micro-batches lazily, stages pipeline against
    ///   each other (Eq. 4).
    pub barrier_groups: Option<Vec<u32>>,
    /// Barrier stride: with `k` parallel channels each owning every `k`-th
    /// micro-batch, the lazy barrier applies within a channel's own stream —
    /// micro-batch `m` waits on `m − k`, not `m − 1`. Defaults to 1.
    pub barrier_stride: u32,
}

impl KernelProgram {
    /// Lower a scheduled, TB-allocated algorithm into a kernel program: the
    /// program shares the allocation's slot table. `_dag` is the DAG both
    /// were built from; the program reads its tasks at use.
    pub fn generate(
        algo_name: impl Into<String>,
        _dag: &DepDag,
        alloc: &TbAllocation,
        loop_order: LoopOrder,
        exec: ExecMode,
    ) -> Self {
        Self {
            algo_name: algo_name.into(),
            table: Arc::clone(&alloc.table),
            fused: Vec::new(),
            loop_order,
            exec,
            barrier_groups: None,
            barrier_stride: 1,
        }
    }

    /// [`KernelProgram::generate`]; `threads` is ignored. Kept only because
    /// the dispatch benchmark's cold-start replay calls this signature.
    #[doc(hidden)]
    pub fn generate_with_threads(
        algo_name: impl Into<String>,
        dag: &DepDag,
        alloc: &TbAllocation,
        loop_order: LoopOrder,
        exec: ExecMode,
        _threads: usize,
    ) -> Self {
        Self::generate(algo_name, dag, alloc, loop_order, exec)
    }

    /// Attach micro-batch barrier groups (see [`KernelProgram::barrier_groups`]),
    /// one group id per task; [`KernelProgram::validate`] rejects any other
    /// length.
    pub fn with_barrier_groups(mut self, groups: Vec<u32>) -> Self {
        self.barrier_groups = Some(groups);
        self
    }

    /// Convenience: one global barrier group (algorithm-level execution).
    pub fn with_global_barrier(self, n_tasks: usize) -> Self {
        self.with_barrier_groups(vec![0; n_tasks])
    }

    /// Set the barrier stride (see [`KernelProgram::barrier_stride`]).
    pub fn with_barrier_stride(mut self, stride: u32) -> Self {
        assert!(stride >= 1, "barrier stride must be at least 1");
        self.barrier_stride = stride;
        self
    }

    /// Total TBs launched (including empty channel TBs, which still occupy
    /// SM resources).
    pub fn total_tbs(&self) -> usize {
        self.table.tbs().len()
    }

    /// Total primitive slots across all TBs.
    pub fn total_slots(&self) -> usize {
        self.table.total_slots()
    }

    /// Whether table slot `i` executes fused with the slot before it.
    pub fn is_fused(&self, i: usize) -> bool {
        self.fused
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Every fused pair `(feeder, forward)`, TB after TB in table order: a
    /// marked slot and the slot before it on its TB.
    pub fn fused_pairs(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        let slots = self.table.slots();
        self.table.tbs().iter().flat_map(move |tb| {
            tb.slots()
                .skip(1)
                .filter(|&i| self.is_fused(i))
                .map(move |i| (slots[i - 1].task(), slots[i].task()))
        })
    }

    /// Validate structural invariants: every task has as many Send slots
    /// (on its src rank) as receive-side slots (on its dst rank), at least
    /// one each, and barrier groups, if any, name one group per task.
    pub fn validate(&self, dag: &DepDag) -> Result<(), IrError> {
        if let Some(groups) = &self.barrier_groups {
            if groups.len() != dag.len() {
                return Err(IrError::new(format!(
                    "barrier groups cover {} tasks, DAG has {}",
                    groups.len(),
                    dag.len()
                )));
            }
        }
        let mut send = vec![0u32; dag.len()];
        let mut recv = vec![0u32; dag.len()];
        for tb in self.table.tbs() {
            for &slot in self.table.tb_slots(tb) {
                let (task, t) = (slot.task(), dag.transfer(slot.task()));
                let (side, rank, peer, count) = if slot.is_send() {
                    ("send", t.src, t.dst, &mut send)
                } else {
                    ("recv", t.dst, t.src, &mut recv)
                };
                if rank.0 != tb.rank {
                    return Err(IrError::new(format!(
                        "{side} slot of {task} misplaced (rank r{}, peer {peer})",
                        tb.rank
                    )));
                }
                count[task.index()] += 1;
            }
        }
        for i in 0..dag.len() {
            if send[i] == 0 || recv[i] == 0 {
                return Err(IrError::new(format!("task t{i} missing a kernel slot")));
            }
            if send[i] != recv[i] {
                return Err(IrError::new(format!(
                    "task t{i} has {} send slots but {} recv slots",
                    send[i], recv[i]
                )));
            }
        }
        Ok(())
    }
}
