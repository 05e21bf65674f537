//! Transmission tasks — the vertices of the dependency DAG.

use rescc_lang::{CommType, TransferRec};
use rescc_topology::{ChunkId, Rank, ResourceSet, Step};
use std::fmt;

/// Index of a task inside its [`DepDag`](crate::DepDag).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Construct from a raw index.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw index, usable for arena lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A transmission task `t(e, d)` of §3: one chunk transfer between GPU
/// peers, annotated with the contention resources of its route.
///
/// The DAG does not store `Task`s: [`DepDag::task`](crate::DepDag::task)
/// assembles one by value from the task's transfer record and its entry in
/// the DAG's route table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Task {
    /// Task index in the DAG.
    pub id: TaskId,
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Logical algorithm step.
    pub step: Step,
    /// The chunk moved.
    pub chunk: ChunkId,
    /// Receive semantics.
    pub comm: CommType,
    /// Conflict resources (the communication-dependency domain of §3).
    pub conflict: ResourceSet,
    /// All capacity resources the path traverses (fluid sharing in the
    /// simulator; superset of `conflict`).
    pub path: ResourceSet,
}

impl Task {
    /// The original `TransferRec` this task came from.
    pub fn rec(&self) -> TransferRec {
        TransferRec {
            src: self.src,
            dst: self.dst,
            step: self.step,
            chunk: self.chunk,
            comm: self.comm,
        }
    }
}
