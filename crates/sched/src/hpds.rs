//! Hierarchical Priority-based Dynamic Scheduling — Algorithm 1 of the
//! paper.
//!
//! Given the dependency DAG `G`, HPDS builds the global pipeline `P_r` as a
//! sequence of sub-pipelines `P_c`. Each inner round picks the
//! highest-priority chunk whose flag is still set, extracts its tasks that
//! are free of data dependencies *and* compatible (no shared contention
//! resource) with everything already placed in the current sub-pipeline,
//! and inserts them. Scheduling a chunk lowers its priority (dynamic load
//! balancing: underutilized chunks bubble up), and a chunk with nothing to
//! contribute has its flag cleared. When every flag is false the
//! sub-pipeline is sealed and appended to `P_r`; the outer loop repeats
//! until the DAG is drained.
//!
//! This implementation is the rearchitected fast path (see
//! [`crate::flat`] for the state layout): chunk selection is a max-heap
//! instead of a linear scan. Output is bit-identical to the seed HPDS in
//! `rescc_bench::reference` (property-tested).

use crate::flat::FlatState;
use crate::schedule::Schedule;
use rescc_ir::{DepDag, TaskId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Run HPDS over a dependency DAG, producing a validated schedule.
pub fn hpds(dag: &DepDag) -> Schedule {
    let n_chunks = dag.n_chunks() as usize;
    let mut st = FlatState::new(dag);
    let mut priority: Vec<i64> = vec![0; n_chunks];
    let mut sub_pipelines: Vec<Vec<TaskId>> = Vec::new();

    // Line 9's `Q.GetHighestWithFlag(F)` as a max-heap of
    // `(priority, Reverse(chunk))`: highest priority first, ties broken by
    // lowest chunk id. Priorities only decay, and they decay exactly when
    // a chunk is popped and contributes, so each chunk has at most one
    // live entry and no stale entries can exist within a round.
    let mut heap: BinaryHeap<(i64, Reverse<u32>)> = BinaryHeap::new();

    while st.remaining > 0 {
        // Lines 6-7: start a new sub-pipeline with all flags set. Flags
        // are implicit: a chunk is flagged iff it sits in the heap.
        let mut pc: Vec<TaskId> = Vec::new();
        st.start_sub_pipeline();
        heap.clear();
        for (c, &p) in priority.iter().enumerate() {
            if st.has_pending(c) {
                heap.push((p, Reverse(c as u32)));
            }
        }

        // Line 8: loop until no flagged chunk remains.
        while let Some((_, Reverse(c))) = heap.pop() {
            let c = c as usize;
            if st.visit(c, &mut pc) {
                // Lines 18-23: inserted — decay priority, keep the flag
                // while the chunk still has unscheduled tasks.
                priority[c] -= 1;
                if st.has_pending(c) {
                    heap.push((priority[c], Reverse(c as u32)));
                }
            }
            // Lines 16-17: nothing usable — flag stays cleared (the chunk
            // is simply not re-pushed this round).
        }

        debug_assert!(!pc.is_empty(), "sub-pipeline made no progress");
        // The schedule keeps no growth slack.
        pc.shrink_to_fit();
        sub_pipelines.push(pc);
    }

    Schedule {
        sub_pipelines,
        policy: "hpds".into(),
    }
}

/// [`hpds`]; `threads` is ignored. Kept only because the dispatch
/// benchmark's cold-start replay calls this signature.
#[doc(hidden)]
pub fn hpds_with_threads(dag: &DepDag, _threads: usize) -> Schedule {
    hpds(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_lang::{AlgoBuilder, OpType};
    use rescc_topology::Topology;

    fn ring_ag(n: u32) -> rescc_lang::AlgoSpec {
        let mut b = AlgoBuilder::new("Ring", OpType::AllGather, n);
        for r in 0..n {
            for step in 0..n - 1 {
                b.recv(r, (r + 1) % n, step, (r + n - step) % n);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn hpds_schedules_every_task_once() {
        let topo = Topology::a100(1, 8);
        let dag = DepDag::build(&ring_ag(8), &topo).unwrap();
        let s = hpds(&dag);
        assert_eq!(s.n_tasks(), dag.len());
        s.validate(&dag).unwrap();
    }

    #[test]
    fn hpds_valid_on_multi_node() {
        let topo = Topology::a100(2, 8);
        let dag = DepDag::build(&ring_ag(16), &topo).unwrap();
        let s = hpds(&dag);
        s.validate(&dag).unwrap();
    }

    #[test]
    fn single_node_ring_fits_one_sub_pipeline() {
        // In a single-node ring every task of a chunk chain uses a distinct
        // GPU TX/RX pair, so the chains pipeline into very few
        // sub-pipelines. The schedule must at least beat one-task-per-sub.
        let topo = Topology::a100(1, 8);
        let dag = DepDag::build(&ring_ag(8), &topo).unwrap();
        let s = hpds(&dag);
        assert!(
            s.sub_pipelines.len() < dag.len() / 2,
            "HPDS produced {} sub-pipelines for {} tasks",
            s.sub_pipelines.len(),
            dag.len()
        );
    }

    #[test]
    fn hpds_is_deterministic() {
        let topo = Topology::a100(2, 4);
        let dag = DepDag::build(&ring_ag(8), &topo).unwrap();
        assert_eq!(hpds(&dag), hpds(&dag));
    }

    #[test]
    fn priority_spreads_chunks_across_rounds() {
        // After a chunk contributes, its priority drops, so other chunks
        // get picked first in subsequent rounds. Verify the first
        // sub-pipeline touches more than one chunk for a ring.
        let topo = Topology::a100(1, 8);
        let dag = DepDag::build(&ring_ag(8), &topo).unwrap();
        let s = hpds(&dag);
        let chunks: std::collections::HashSet<u32> = s.sub_pipelines[0]
            .iter()
            .map(|t| dag.task(*t).chunk.0)
            .collect();
        assert!(chunks.len() > 1);
    }
}
