//! The kernel program hierarchy of §4.5.
//!
//! The generation paradigm is defined across three dimensions:
//!
//! 1. **Rank dimension** — the complete set of primitives each GPU executes
//!    ([`RankProgram`]),
//! 2. **TB dimension** — the primitives assigned to each thread block
//!    ([`TbProgram`]),
//! 3. **Pipeline dimension** — the per-TB ordering of primitives by
//!    sub-pipeline index; each slot cycles through all of its micro-batch
//!    invocations ([`KernelSlot`]).
//!
//! The same structure also expresses the baseline execution models: the
//! [`LoopOrder`] distinguishes ResCCL's task-level execution (slot-major:
//! finish all micro-batches of a slot before moving on) from the lazy
//! algorithm-level execution of NCCL-style backends (micro-batch-major:
//! run every slot once per micro-batch), and [`ExecMode`] models the
//! runtime-interpreter overhead that direct kernel generation eliminates
//! (Fig. 3).

use rescc_alloc::{Direction, TbAllocation};
use rescc_ir::{DepDag, IrError, TaskId};
use rescc_lang::CommType;
use rescc_topology::{ChunkId, Rank};

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
    /// Derive the primitive for a task side.
    pub fn for_side(dir: Direction, comm: CommType) -> Self {
        match (dir, comm) {
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

/// One pipeline slot of a TB: a primitive and the task it implements one
/// side of. Everything else about the slot is the task's: [`Self::peer`]
/// and [`Self::chunk`] read it from the DAG, and the sub-pipeline is the
/// one its allocation slot records ([`PrimSlot::sub_pipeline`](rescc_alloc::PrimSlot)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelSlot {
    /// The transmission task this slot implements one side of.
    pub task: TaskId,
    /// The primitive executed.
    pub primitive: Primitive,
    /// Set by the fusion pass: this send executes fused with the previous
    /// receive slot (`recvCopySend` / `recvReduceSend`), eliding its
    /// startup latency.
    pub fused_with_prev: bool,
}

impl KernelSlot {
    /// Whether this is the sending side of its task.
    pub fn is_send(&self) -> bool {
        self.primitive == Primitive::Send
    }

    /// The remote rank: the task's receiver for a send, its sender for a
    /// receive.
    pub fn peer(&self, dag: &DepDag) -> Rank {
        let t = dag.transfer(self.task);
        if self.is_send() {
            t.dst
        } else {
            t.src
        }
    }

    /// The chunk operated on.
    pub fn chunk(&self, dag: &DepDag) -> ChunkId {
        dag.transfer(self.task).chunk
    }
}

/// Lower one rank's TB plan into its [`RankProgram`].
fn lower_rank(dag: &DepDag, r: usize, plan: &rescc_alloc::RankTbPlan) -> RankProgram {
    RankProgram {
        rank: Rank::new(r as u32),
        tbs: plan
            .tbs
            .iter()
            .map(|tb| TbProgram {
                slots: tb
                    .slots
                    .iter()
                    .map(|slot| KernelSlot {
                        task: slot.task,
                        primitive: Primitive::for_side(slot.dir, dag.transfer(slot.task).comm),
                        fused_with_prev: false,
                    })
                    .collect(),
                mb_stride: tb.mb_stride,
                mb_offset: tb.mb_offset,
            })
            .collect(),
    }
}

/// The program of one TB.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TbProgram {
    /// Ordered pipeline slots.
    pub slots: Vec<KernelSlot>,
    /// Micro-batch stride (1 = the TB executes every micro-batch).
    pub mb_stride: u32,
    /// Micro-batch offset within the stride (channel index).
    pub mb_offset: u32,
}

impl TbProgram {
    /// Does this TB execute micro-batch `mb`?
    pub fn owns_micro_batch(&self, mb: u32) -> bool {
        mb % self.mb_stride.max(1) == self.mb_offset
    }
}

/// The program of one rank: all of its TBs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankProgram {
    /// The rank this program runs on.
    pub rank: Rank,
    /// One program per TB launched on this rank.
    pub tbs: Vec<TbProgram>,
}

/// A complete generated kernel program for the whole collective.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProgram {
    /// Algorithm name (for reports and codegen headers).
    pub algo_name: String,
    /// Per-rank programs, indexed by rank.
    pub ranks: Vec<RankProgram>,
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
    /// Lower a scheduled, TB-allocated algorithm into a kernel program.
    pub fn generate(
        algo_name: impl Into<String>,
        dag: &DepDag,
        alloc: &TbAllocation,
        loop_order: LoopOrder,
        exec: ExecMode,
    ) -> Self {
        let ranks = alloc
            .per_rank
            .iter()
            .enumerate()
            .map(|(r, plan)| lower_rank(dag, r, plan))
            .collect();
        Self {
            algo_name: algo_name.into(),
            ranks,
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
        self.ranks.iter().map(|r| r.tbs.len()).sum()
    }

    /// Total primitive slots across all TBs.
    pub fn total_slots(&self) -> usize {
        self.ranks
            .iter()
            .flat_map(|r| r.tbs.iter())
            .map(|tb| tb.slots.len())
            .sum()
    }

    /// Validate structural invariants: every task has as many Send slots
    /// (on its src rank) as receive-side slots (on its dst rank), at least
    /// one each, with the primitive matching the task's comm type, and
    /// barrier groups, if any, name one group per task.
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
        for rp in &self.ranks {
            for tb in &rp.tbs {
                for slot in &tb.slots {
                    let t = dag.transfer(slot.task);
                    match slot.primitive {
                        Primitive::Send => {
                            if rp.rank != t.src {
                                return Err(IrError::new(format!(
                                    "send slot of {} misplaced (rank {}, peer {})",
                                    slot.task, rp.rank, t.dst
                                )));
                            }
                            send[slot.task.index()] += 1;
                        }
                        Primitive::Recv | Primitive::RecvReduceCopy => {
                            let want = Primitive::for_side(Direction::Recv, t.comm);
                            if slot.primitive != want {
                                return Err(IrError::new(format!(
                                    "receive slot of {} uses {:?}, expected {want:?}",
                                    slot.task, slot.primitive
                                )));
                            }
                            if rp.rank != t.dst {
                                return Err(IrError::new(format!(
                                    "recv slot of {} misplaced (rank {}, peer {})",
                                    slot.task, rp.rank, t.src
                                )));
                            }
                            recv[slot.task.index()] += 1;
                        }
                    }
                }
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
