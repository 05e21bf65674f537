//! Shared flat scheduling state for the rearchitected HPDS and RR.
//!
//! The seed schedulers (kept in `rescc_bench::reference`) spend their time in
//! three places at scale: an `O(n_chunks)` linear scan per chunk
//! selection, `HashMap<ResourceId, u32>` load lookups on every conflict
//! check, and a rescan of a chunk's *entire* unscheduled task list on
//! every visit even when only one task is data-free. This module replaces
//! all three with flat arrays over the DAG's dense resource index:
//!
//! * per-chunk **free lists** hold exactly the data-free unscheduled tasks
//!   in `(step, id)` order — the order the reference scan would discover
//!   them — so a visit is `O(free)` instead of `O(pending)`;
//! * per-resource sub-pipeline load is a `Vec<u32>` indexed by the DAG's
//!   dense resource index — conflict checks are array reads;
//! * a chunk visit gathers against the live loads and commits at once,
//!   so the callers' visit order is the reference visit order.
//!
//! Data-dependency edges always connect tasks of the *same* chunk, so a
//! visit only ever frees tasks in the visited chunk itself.
//!
//! The state is deliberately serial. A speculative variant that gathered
//! a whole priority wave on worker threads and revalidated the commits
//! was slower than this loop at every measured size (DESIGN.md §10).

use rescc_ir::{DepDag, TaskId};
use rescc_topology::ChunkId;

/// Mutable scheduling state over a [`DepDag`], flattened onto the dense
/// resource index.
pub(crate) struct FlatState<'a> {
    dag: &'a DepDag,
    /// Unscheduled-predecessor count per task.
    remaining_preds: Vec<u32>,
    /// Per-chunk data-free unscheduled tasks, in `(step, id)` order.
    free: Vec<Vec<TaskId>>,
    /// Per-chunk unscheduled task count (free or not).
    pending: Vec<u32>,
    /// Current sub-pipeline load per dense resource.
    pc_load: Vec<u32>,
    /// Saturation limit per dense resource (cached from the DAG).
    limit: Vec<u32>,
    /// Per-visit claim scratch (dense-indexed) and its touched list.
    claim: Vec<u32>,
    claim_touched: Vec<u32>,
    /// Total unscheduled tasks.
    pub(crate) remaining: usize,
}

impl<'a> FlatState<'a> {
    pub(crate) fn new(dag: &'a DepDag) -> Self {
        let n = dag.len();
        let n_chunks = dag.n_chunks() as usize;
        let n_res = dag.n_dense_resources();
        let remaining_preds: Vec<u32> = (0..n)
            .map(|i| dag.preds(TaskId::new(i as u32)).len() as u32)
            .collect();
        let mut free = Vec::with_capacity(n_chunks);
        let mut pending = Vec::with_capacity(n_chunks);
        for c in 0..n_chunks {
            let tasks = dag.chunk_tasks(ChunkId::new(c as u32));
            // `chunk_tasks` is (step, id)-sorted; the data-free subset
            // inherits that order.
            free.push(
                tasks
                    .iter()
                    .copied()
                    .filter(|t| remaining_preds[t.index()] == 0)
                    .collect(),
            );
            pending.push(tasks.len() as u32);
        }
        Self {
            dag,
            remaining_preds,
            free,
            pending,
            pc_load: vec![0; n_res],
            limit: (0..n_res as u32)
                .map(|d| dag.conflict_limit_at(d))
                .collect(),
            claim: vec![0; n_res],
            claim_touched: Vec::new(),
            remaining: n,
        }
    }

    /// Does chunk `c` still have unscheduled tasks?
    pub(crate) fn has_pending(&self, c: usize) -> bool {
        self.pending[c] > 0
    }

    /// Reset per-sub-pipeline state (call when sealing a sub-pipeline).
    pub(crate) fn start_sub_pipeline(&mut self) {
        self.pc_load.fill(0);
    }

    /// Gather chunk `c`'s schedulable tasks (the reference algorithm's
    /// lines 10–15): every free task whose conflict resources all stay
    /// below saturation given the live loads plus the claims of tasks
    /// accepted earlier in this same gather.
    fn gather(&mut self, c: usize) -> Vec<TaskId> {
        let mut node_list = Vec::new();
        for &tid in &self.free[c] {
            let res = self.dag.conflict_dense(tid);
            let conflict = res.as_slice().iter().any(|&d| {
                self.pc_load[d as usize] + self.claim[d as usize] >= self.limit[d as usize]
            });
            if !conflict {
                node_list.push(tid);
                for &d in res.as_slice() {
                    if self.claim[d as usize] == 0 {
                        self.claim_touched.push(d);
                    }
                    self.claim[d as usize] += 1;
                }
            }
        }
        for &d in &self.claim_touched {
            self.claim[d as usize] = 0;
        }
        self.claim_touched.clear();
        node_list
    }

    /// Apply a gather result: load resources, pop accepted tasks
    /// from the free list, release successors, append to `pc`.
    fn apply(&mut self, c: usize, node_list: &[TaskId], pc: &mut Vec<TaskId>) {
        debug_assert!(!node_list.is_empty());
        for &tid in node_list {
            for &d in self.dag.conflict_dense(tid).as_slice() {
                self.pc_load[d as usize] += 1;
            }
        }
        // `node_list` is an ordered subsequence of `free[c]`: drop its
        // members with one linear merge walk.
        let mut next = 0usize;
        self.free[c].retain(|t| {
            if next < node_list.len() && *t == node_list[next] {
                next += 1;
                false
            } else {
                true
            }
        });
        debug_assert_eq!(next, node_list.len());
        // Release data dependents. Every successor is in chunk `c` itself
        // (dependency edges are intra-chunk), and its step exceeds its
        // predecessor's, so ordered insertion keeps the free list sorted.
        for &tid in node_list {
            for &s in self.dag.succs(tid) {
                self.remaining_preds[s.index()] -= 1;
                if self.remaining_preds[s.index()] == 0 {
                    let key = |t: TaskId| (self.dag.transfer(t).step, t);
                    let pos = self.free[c].partition_point(|&t| key(t) < key(s));
                    self.free[c].insert(pos, s);
                }
            }
        }
        self.pending[c] -= node_list.len() as u32;
        self.remaining -= node_list.len();
        pc.extend_from_slice(node_list);
    }

    /// Visit one chunk: gather against the live loads and apply. Returns
    /// whether the chunk contributed anything.
    pub(crate) fn visit(&mut self, c: usize, pc: &mut Vec<TaskId>) -> bool {
        if self.free[c].is_empty() {
            return false;
        }
        let node_list = self.gather(c);
        if node_list.is_empty() {
            return false;
        }
        self.apply(c, &node_list, pc);
        true
    }
}
