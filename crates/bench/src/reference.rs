//! Reference (seed) scheduler implementations.
//!
//! These are the original straightforward transcriptions of Algorithm 1
//! (HPDS) and the round-robin baseline: pointer-chasing `HashMap` loads,
//! an `O(n_chunks)` linear scan per chunk selection, and a full rescan of
//! every chunk's pending list on each visit. They are kept verbatim for
//! two jobs:
//!
//! 1. **Oracle for byte-identity property tests** — the rearchitected
//!    schedulers [`rescc_sched::hpds`]/[`rescc_sched::round_robin`] must
//!    reproduce these schedules bit-for-bit on every input.
//! 2. **Baseline for the compile-time benchmarks** — the
//!    `flat_sched_speedup` column of `BENCH_compile.json` and the
//!    `compile-smoke` gate measure the flat schedulers against these.
//!
//! Do not optimize this module; its value is being obviously correct.

use rescc_ir::{DepDag, TaskId};
use rescc_sched::Schedule;
use rescc_topology::{ChunkId, ResourceId};
use std::collections::HashMap;

/// The seed HPDS implementation (see module docs). Semantically identical
/// to [`rescc_sched::hpds`], asymptotically slower.
pub fn hpds_reference(dag: &DepDag) -> Schedule {
    let n_chunks = dag.n_chunks() as usize;
    let n = dag.len();

    // Remaining-predecessor counts drive "without data dependency".
    let mut remaining_preds: Vec<u32> = (0..n)
        .map(|i| dag.preds(TaskId::new(i as u32)).len() as u32)
        .collect();
    let mut scheduled = vec![false; n];
    // Per-chunk cursor over `dag.chunk_tasks` is not enough (tasks free up
    // out of order), so track per-chunk unscheduled sets as Vecs.
    let mut chunk_pending: Vec<Vec<TaskId>> = (0..n_chunks)
        .map(|c| dag.chunk_tasks(ChunkId::new(c as u32)).to_vec())
        .collect();

    // Priority per chunk: starts at 0, decremented each time the chunk
    // contributes a NodeList (line 20). Selection = max priority among
    // flagged chunks, ties broken by chunk id for determinism.
    let mut priority: Vec<i64> = vec![0; n_chunks];

    let mut remaining = n;
    let mut sub_pipelines: Vec<Vec<TaskId>> = Vec::new();

    while remaining > 0 {
        // Line 6-7: start a new sub-pipeline with all flags set.
        let mut pc: Vec<TaskId> = Vec::new();
        let mut pc_load: HashMap<ResourceId, u32> = HashMap::new();
        let mut flags: Vec<bool> = (0..n_chunks)
            .map(|c| !chunk_pending[c].is_empty())
            .collect();

        // Line 8: loop until no flagged chunk remains.
        while let Some(c) = select_chunk(&flags, &priority) {
            // Lines 10-15: gather the chunk's tasks that are data-free and
            // communication-compatible with the current sub-pipeline.
            let mut node_list: Vec<TaskId> = Vec::new();
            let mut claimed: HashMap<ResourceId, u32> = HashMap::new();
            for &tid in &chunk_pending[c] {
                if remaining_preds[tid.index()] != 0 {
                    continue;
                }
                // Communication dependency: a resource conflicts once its
                // concurrent load would exceed its saturation (the Eq. 1
                // contention threshold), not at the first sharing.
                let res = dag.task(tid).conflict;
                let conflict = res.iter().any(|r| {
                    let load = pc_load.get(&r).copied().unwrap_or(0)
                        + claimed.get(&r).copied().unwrap_or(0);
                    load >= dag.conflict_limit(r)
                });
                if !conflict {
                    node_list.push(tid);
                    for r in res.iter() {
                        *claimed.entry(r).or_insert(0) += 1;
                    }
                }
            }

            if node_list.is_empty() {
                // Lines 16-17: nothing usable — clear the flag.
                flags[c] = false;
            } else {
                // Lines 18-23: insert, decay priority, update the DAG.
                for &tid in &node_list {
                    scheduled[tid.index()] = true;
                    for &s in dag.succs(tid) {
                        remaining_preds[s.index()] -= 1;
                    }
                }
                chunk_pending[c].retain(|t| !scheduled[t.index()]);
                remaining -= node_list.len();
                for (r, n) in claimed {
                    *pc_load.entry(r).or_insert(0) += n;
                }
                pc.extend(node_list);
                priority[c] -= 1;
                if chunk_pending[c].is_empty() {
                    flags[c] = false;
                }
            }
        }

        debug_assert!(!pc.is_empty(), "sub-pipeline made no progress");
        sub_pipelines.push(pc);
    }

    Schedule {
        sub_pipelines,
        policy: "hpds".into(),
    }
}

/// Line 9: `Q.GetHighestWithFlag(F)` — the flagged chunk with the highest
/// priority; ties resolved by lowest chunk id to keep runs deterministic.
fn select_chunk(flags: &[bool], priority: &[i64]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for c in 0..flags.len() {
        if !flags[c] {
            continue;
        }
        match best {
            None => best = Some(c),
            Some(b) if priority[c] > priority[b] => best = Some(c),
            _ => {}
        }
    }
    best
}

/// The seed round-robin implementation (see module docs). Semantically
/// identical to [`rescc_sched::round_robin`], asymptotically slower.
pub fn round_robin_reference(dag: &DepDag) -> Schedule {
    let n_chunks = dag.n_chunks() as usize;
    let n = dag.len();

    let mut remaining_preds: Vec<u32> = (0..n)
        .map(|i| dag.preds(TaskId::new(i as u32)).len() as u32)
        .collect();
    let mut scheduled = vec![false; n];
    let mut chunk_pending: Vec<Vec<TaskId>> = (0..n_chunks)
        .map(|c| dag.chunk_tasks(ChunkId::new(c as u32)).to_vec())
        .collect();

    let mut remaining = n;
    let mut sub_pipelines: Vec<Vec<TaskId>> = Vec::new();

    while remaining > 0 {
        let mut pc: Vec<TaskId> = Vec::new();
        let mut pc_load: HashMap<ResourceId, u32> = HashMap::new();
        let mut progressed = true;
        // Keep cycling the immutable chunk order until a full pass adds
        // nothing; then seal the sub-pipeline.
        while progressed {
            progressed = false;
            // Range loop: the body also mutates `chunk_pending[c]`.
            #[allow(clippy::needless_range_loop)]
            for c in 0..n_chunks {
                let mut node_list: Vec<TaskId> = Vec::new();
                let mut claimed: HashMap<ResourceId, u32> = HashMap::new();
                for &tid in &chunk_pending[c] {
                    if remaining_preds[tid.index()] != 0 {
                        continue;
                    }
                    let res = dag.task(tid).conflict;
                    let conflict = res.iter().any(|r| {
                        let load = pc_load.get(&r).copied().unwrap_or(0)
                            + claimed.get(&r).copied().unwrap_or(0);
                        load >= dag.conflict_limit(r)
                    });
                    if !conflict {
                        node_list.push(tid);
                        for r in res.iter() {
                            *claimed.entry(r).or_insert(0) += 1;
                        }
                    }
                }
                if node_list.is_empty() {
                    continue;
                }
                for &tid in &node_list {
                    scheduled[tid.index()] = true;
                    for &s in dag.succs(tid) {
                        remaining_preds[s.index()] -= 1;
                    }
                }
                chunk_pending[c].retain(|t| !scheduled[t.index()]);
                remaining -= node_list.len();
                for (r, n) in claimed {
                    *pc_load.entry(r).or_insert(0) += n;
                }
                pc.extend(node_list);
                progressed = true;
            }
        }
        debug_assert!(!pc.is_empty(), "RR sub-pipeline made no progress");
        sub_pipelines.push(pc);
    }

    Schedule {
        sub_pipelines,
        policy: "rr".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_lang::{AlgoBuilder, OpType};
    use rescc_sched::{hpds, round_robin};
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
    fn hpds_matches_reference() {
        for (nodes, gpus, ranks) in [(1, 8, 8), (2, 4, 8), (2, 8, 16), (4, 8, 32)] {
            let topo = Topology::a100(nodes, gpus);
            let dag = DepDag::build(&ring_ag(ranks), &topo).unwrap();
            assert_eq!(
                hpds(&dag),
                hpds_reference(&dag),
                "flat vs reference @{ranks}"
            );
        }
    }

    #[test]
    fn rr_matches_reference() {
        for (nodes, gpus, ranks) in [(1, 8, 8), (2, 4, 8), (2, 8, 16), (4, 8, 32)] {
            let topo = Topology::a100(nodes, gpus);
            let dag = DepDag::build(&ring_ag(ranks), &topo).unwrap();
            assert_eq!(
                round_robin(&dag),
                round_robin_reference(&dag),
                "flat vs reference @{ranks}"
            );
        }
    }
}
