//! Partial-progress recovery: the fault frontier.
//!
//! When a fault aborts a run, the engine knows exactly which invocations
//! had completed — the same `done` flags data validation relies on. A
//! [`FaultFrontier`] snapshots that set (a bitset over
//! `task × micro-batch`) and rides inside the typed
//! [`SimError::ResourceDown`](crate::SimError::ResourceDown).
//!
//! The same frontier resumes the plan it was captured on
//! ([`SimConfig::with_resume`](crate::SimConfig::with_resume)): the engine
//! pre-sets the dependency flags of the completed invocations, replays
//! their buffer effects ([`FaultFrontier::replay_into`]) and retires them
//! instantly, so a resumed run charges only the remaining work's sim time.

use rescc_ir::DepDag;
use rescc_lang::provenance::{Counts, Move, Slots};
use rescc_topology::ChunkId;
use std::ops::Range;

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
    /// Completed invocations: bit `task * n_mb + mb` is set once
    /// invocation `(task, mb)` completed.
    done: Vec<u64>,
}

impl FaultFrontier {
    /// An empty frontier (nothing completed) for the given dimensions.
    pub fn new(n_tasks: u32, n_mb: u32, at_ns: u64) -> Self {
        let bits = n_tasks as usize * n_mb as usize;
        Self {
            n_tasks,
            n_mb,
            at_ns,
            done: vec![0; bits.div_ceil(64)],
        }
    }

    #[inline]
    fn bit(&self, task: u32, mb: u32) -> usize {
        let b = task as usize * self.n_mb as usize + mb as usize;
        debug_assert!(mb < self.n_mb && b < self.done.len() * 64);
        b
    }

    /// Mark `(task, mb)` complete.
    pub fn mark(&mut self, task: u32, mb: u32) {
        let b = self.bit(task, mb);
        self.done[b / 64] |= 1u64 << (b % 64);
    }

    /// Had `(task, mb)` completed when the run aborted?
    pub fn is_done(&self, task: u32, mb: u32) -> bool {
        let b = self.bit(task, mb);
        self.done[b / 64] & (1u64 << (b % 64)) != 0
    }

    /// Number of completed invocations.
    pub fn completed(&self) -> u64 {
        self.done.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Nothing completed?
    pub fn is_empty(&self) -> bool {
        self.done.iter().all(|&w| w == 0)
    }

    /// Fold another frontier over the same run into this one (set union),
    /// keeping the later abort time. Returns `false` (and changes nothing)
    /// on a dimension mismatch.
    pub fn union(&mut self, other: &FaultFrontier) -> bool {
        if self.n_tasks != other.n_tasks || self.n_mb != other.n_mb {
            return false;
        }
        for (a, b) in self.done.iter_mut().zip(&other.done) {
            *a |= b;
        }
        self.at_ns = self.at_ns.max(other.at_ns);
        true
    }

    /// Replay the buffer effects of the completed invocations of `dag`'s
    /// micro-batches `mbs` into `buffers[mb - mbs.start]`, each laid out as
    /// [`Slots::initial`] lays out every chunk. Each chunk replays in its
    /// dependency order: buffer effects never cross chunks, so that is the
    /// order the aborted run produced them in.
    pub fn replay_into(&self, dag: &DepDag, mbs: Range<u32>, buffers: &mut [Slots<Counts>]) {
        let n_chunks = dag.n_chunks();
        for c in 0..n_chunks {
            for &tid in dag.chunk_tasks(ChunkId::new(c)) {
                let t = dag.transfer(tid);
                let m = Move {
                    src: (t.src.0 * n_chunks + c) as usize,
                    dst: (t.dst.0 * n_chunks + c) as usize,
                    comm: t.comm,
                    writer: 0,
                };
                for mb in mbs.clone().filter(|&mb| self.is_done(tid.0, mb)) {
                    buffers[(mb - mbs.start) as usize].apply(m);
                }
            }
        }
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
        assert!(a.is_done(0, 0) && a.is_done(0, 1));
        assert!(a.is_done(2, 1) && !a.is_done(2, 0));

        let mut b = FaultFrontier::new(3, 2, 250);
        b.mark(1, 0);
        assert!(a.union(&b));
        assert_eq!(a.completed(), 4);
        assert_eq!(a.at_ns, 250);
        let c = FaultFrontier::new(4, 2, 0);
        assert!(!a.union(&c), "dimension mismatch must be rejected");
    }
}
