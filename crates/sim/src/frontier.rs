//! Partial-progress recovery: the fault frontier and resume state.
//!
//! When a fault aborts a run, the engine knows exactly which invocations
//! had completed — the same `done` flags data validation relies on. A
//! [`FaultFrontier`] snapshots that set (a bitset over
//! `task × micro-batch`) and rides inside the typed
//! [`SimError::ResourceDown`](crate::SimError::ResourceDown), so a recovery
//! layer can prune finished work instead of restarting from byte zero.
//!
//! A [`ResumeState`] is the execution-side complement, built by the plan
//! compiler against a *residual* plan: which residual invocations are
//! already complete, plus the ordered [`ReplayOp`]s that reconstruct the
//! buffer state those completions produced. The engine applies the replay
//! at initialization and retires completed invocations instantly, so a
//! resumed run charges only the remaining work's sim time.

use rescc_lang::provenance::{Counts, Move, Slots};
use rescc_lang::CommType;
use std::fmt;
use std::ops::Range;

/// A completion bitset over `task × micro-batch`: bit `task * n_mb + mb`
/// is set once invocation `(task, mb)` completed.
#[derive(Clone, Default, PartialEq, Eq)]
struct DoneBits {
    n_mb: u32,
    words: Vec<u64>,
}

impl DoneBits {
    fn new(n_tasks: u32, n_mb: u32) -> Self {
        let bits = n_tasks as usize * n_mb as usize;
        Self {
            n_mb,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    #[inline]
    fn bit(&self, task: u32, mb: u32) -> usize {
        let b = task as usize * self.n_mb as usize + mb as usize;
        debug_assert!(mb < self.n_mb && b < self.words.len() * 64);
        b
    }

    fn mark(&mut self, task: u32, mb: u32) {
        let b = self.bit(task, mb);
        self.words[b / 64] |= 1u64 << (b % 64);
    }

    fn is_done(&self, task: u32, mb: u32) -> bool {
        let b = self.bit(task, mb);
        self.words[b / 64] & (1u64 << (b % 64)) != 0
    }

    fn completed(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// Prints the bare words, so a `Debug` rendering of a frontier or resume
/// state reads as it did when each held its own word vector.
impl fmt::Debug for DoneBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.words.fmt(f)
    }
}

/// The deterministic set of completed `(task, micro-batch)` invocations at
/// the instant a fault aborted a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultFrontier {
    /// Number of tasks in the DAG the frontier indexes.
    pub n_tasks: u32,
    /// Number of micro-batches of the aborted run.
    pub n_mb: u32,
    /// Sim time of the abort, ns (rounded to the nanosecond).
    pub at_ns: u64,
    /// Completed invocations.
    done: DoneBits,
}

impl FaultFrontier {
    /// An empty frontier (nothing completed) for the given dimensions.
    pub fn new(n_tasks: u32, n_mb: u32, at_ns: u64) -> Self {
        Self {
            n_tasks,
            n_mb,
            at_ns,
            done: DoneBits::new(n_tasks, n_mb),
        }
    }

    /// Mark `(task, mb)` complete.
    pub fn mark(&mut self, task: u32, mb: u32) {
        self.done.mark(task, mb);
    }

    /// Had `(task, mb)` completed when the run aborted?
    pub fn is_done(&self, task: u32, mb: u32) -> bool {
        self.done.is_done(task, mb)
    }

    /// Every micro-batch of `task` complete?
    pub fn task_fully_done(&self, task: u32) -> bool {
        (0..self.n_mb).all(|mb| self.is_done(task, mb))
    }

    /// Number of completed invocations.
    pub fn completed(&self) -> u64 {
        self.done.completed()
    }

    /// Nothing completed?
    pub fn is_empty(&self) -> bool {
        self.done.words.iter().all(|&w| w == 0)
    }

    /// Fold another frontier over the same run into this one (set union),
    /// keeping the later abort time. Returns `false` (and changes nothing)
    /// on a dimension mismatch.
    pub fn union(&mut self, other: &FaultFrontier) -> bool {
        if self.n_tasks != other.n_tasks || self.n_mb != other.n_mb {
            return false;
        }
        for (a, b) in self.done.words.iter_mut().zip(&other.done.words) {
            *a |= b;
        }
        self.at_ns = self.at_ns.max(other.at_ns);
        true
    }
}

/// One completed transfer to replay into the value buffers before a
/// resumed run starts: the source slot's current value is applied to the
/// destination slot with copy (`recv`) or reduce (`recvReduceCopy`)
/// semantics. Replay order must respect each chunk's dependency order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayOp {
    /// Source rank.
    pub src: u32,
    /// Destination rank.
    pub dst: u32,
    /// Chunk both slots belong to.
    pub chunk: u32,
    /// Micro-batch the invocation ran under.
    pub mb: u32,
    /// Copy (`recv`) or reduce (`recvReduceCopy`).
    pub comm: CommType,
}

/// Everything the engine needs to resume a run from a [`FaultFrontier`]:
/// which invocations of the (residual) plan are already complete, and the
/// ordered replay that reconstructs the buffer state they produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResumeState {
    /// Number of tasks in the DAG this state indexes (the residual DAG
    /// when the recovery layer pruned fully-complete tasks).
    pub n_tasks: u32,
    /// Number of micro-batches of the run being resumed.
    pub n_mb: u32,
    /// Completed invocations of the indexed DAG.
    done: DoneBits,
    /// Completed transfers of the *original* run in per-chunk dependency
    /// order (fully-pruned tasks included), applied to the buffers at
    /// engine initialization when data validation is on.
    pub replay: Vec<ReplayOp>,
}

impl ResumeState {
    /// An empty resume state (nothing completed) for the given dimensions.
    pub fn new(n_tasks: u32, n_mb: u32) -> Self {
        Self {
            n_tasks,
            n_mb,
            done: DoneBits::new(n_tasks, n_mb),
            replay: Vec::new(),
        }
    }

    /// Mark invocation `(task, mb)` as already complete.
    pub fn mark_done(&mut self, task: u32, mb: u32) {
        self.done.mark(task, mb);
    }

    /// Is invocation `(task, mb)` already complete?
    pub fn is_done(&self, task: u32, mb: u32) -> bool {
        self.done.is_done(task, mb)
    }

    /// Number of already-complete invocations.
    pub fn completed(&self) -> u64 {
        self.done.completed()
    }

    /// Replay the completed transfers of micro-batches `mbs`, in order,
    /// into `buffers[mb - mbs.start]`, each laid out as [`Slots::initial`]
    /// lays out every chunk.
    pub fn replay_into(&self, mbs: Range<u32>, buffers: &mut [Slots<Counts>], n_chunks: u32) {
        for op in self.replay.iter().filter(|op| mbs.contains(&op.mb)) {
            let slot = |rank: u32| (rank * n_chunks + op.chunk) as usize;
            buffers[(op.mb - mbs.start) as usize].apply(Move {
                src: slot(op.src),
                dst: slot(op.dst),
                comm: op.comm,
                writer: 0,
            });
        }
    }

    /// Check the state against the run's dimensions; the engine calls this
    /// before any event is processed.
    pub fn validate(
        &self,
        n_tasks: u32,
        n_mb: u32,
        n_ranks: u32,
        n_chunks: u32,
    ) -> Result<(), String> {
        if self.n_tasks != n_tasks || self.n_mb != n_mb {
            return Err(format!(
                "resume state covers {} tasks x {} micro-batches, run has {n_tasks} x {n_mb}",
                self.n_tasks, self.n_mb
            ));
        }
        for op in &self.replay {
            if op.src >= n_ranks || op.dst >= n_ranks {
                return Err(format!(
                    "replay op {} -> {} out of range ({n_ranks} ranks)",
                    op.src, op.dst
                ));
            }
            if op.chunk >= n_chunks {
                return Err(format!(
                    "replay op chunk c{} out of range ({n_chunks} chunks)",
                    op.chunk
                ));
            }
            if op.mb >= n_mb {
                return Err(format!(
                    "replay op micro-batch {} out of range ({n_mb})",
                    op.mb
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_marks_counts_and_unions() {
        let mut a = FaultFrontier::new(3, 2, 100);
        assert!(a.is_empty());
        a.mark(0, 0);
        a.mark(0, 1);
        a.mark(2, 1);
        assert_eq!(a.completed(), 3);
        assert!(a.task_fully_done(0));
        assert!(!a.task_fully_done(2));
        assert!(a.is_done(2, 1) && !a.is_done(2, 0));

        let mut b = FaultFrontier::new(3, 2, 250);
        b.mark(1, 0);
        assert!(a.union(&b));
        assert_eq!(a.completed(), 4);
        assert_eq!(a.at_ns, 250);
        let c = FaultFrontier::new(4, 2, 0);
        assert!(!a.union(&c), "dimension mismatch must be rejected");
    }

    #[test]
    fn resume_state_validates_dimensions_and_ops() {
        let mut rs = ResumeState::new(4, 2);
        rs.mark_done(3, 1);
        assert!(rs.is_done(3, 1) && !rs.is_done(3, 0));
        assert_eq!(rs.completed(), 1);
        rs.replay.push(ReplayOp {
            src: 0,
            dst: 1,
            chunk: 0,
            mb: 0,
            comm: CommType::Recv,
        });
        assert!(rs.validate(4, 2, 2, 1).is_ok());
        assert!(rs.validate(5, 2, 2, 1).is_err(), "task count mismatch");
        assert!(rs.validate(4, 3, 2, 1).is_err(), "mb count mismatch");
        assert!(rs.validate(4, 2, 1, 1).is_err(), "rank out of range");
        rs.replay[0].chunk = 9;
        assert!(rs.validate(4, 2, 2, 1).is_err(), "chunk out of range");
    }
}
