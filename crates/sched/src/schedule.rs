//! The scheduler's output: a global task pipeline assembled from
//! sub-pipelines (Fig. 5(c)–(d)).
//!
//! A **sub-pipeline** is a set of tasks that execute concurrently in steady
//! state, each looping over all micro-batches (task-level execution).
//! Within a sub-pipeline:
//!
//! * data dependencies are allowed — dependent tasks pipeline across
//!   micro-batches (task B processes micro-batch *m* while its producer A
//!   processes *m+1*),
//! * communication dependencies are **forbidden** — two tasks sharing a
//!   contention resource would contend for the whole execution, so the
//!   scheduler places them in different sub-pipelines.
//!
//! The global pipeline is the ordered concatenation of sub-pipelines; a
//! task's data-dependency predecessors always appear in the same or an
//! earlier sub-pipeline.

use rescc_ir::{ConflictLoads, DepDag, IrError, TaskId};

/// A scheduled execution pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Sub-pipelines in execution order. Within a sub-pipeline, tasks are
    /// listed in scheduling order (which respects data dependencies).
    pub sub_pipelines: Vec<Vec<TaskId>>,
    /// Name of the policy that produced this schedule (`"hpds"`, `"rr"`, …).
    pub policy: String,
}

impl Schedule {
    /// Flatten to a single task order (sub-pipelines concatenated).
    pub fn linear_order(&self) -> Vec<TaskId> {
        self.sub_pipelines.iter().flatten().copied().collect()
    }

    /// The sub-pipeline of each of `n_tasks` tasks, `u32::MAX` for a task
    /// the schedule does not list.
    pub fn sub_pipeline_of(&self, n_tasks: usize) -> Vec<u32> {
        let mut sp_of = vec![u32::MAX; n_tasks];
        for (i, sp) in self.sub_pipelines.iter().enumerate() {
            for &t in sp {
                sp_of[t.index()] = i as u32;
            }
        }
        sp_of
    }

    /// Total number of scheduled tasks.
    pub fn n_tasks(&self) -> usize {
        self.sub_pipelines.iter().map(Vec::len).sum()
    }

    /// Validate the schedule against its DAG:
    ///
    /// 1. every task appears exactly once,
    /// 2. the linear order respects data dependencies — so no task's
    ///    predecessor lives in a *later* sub-pipeline, the linear order
    ///    being the sub-pipelines concatenated,
    /// 3. no two tasks inside one sub-pipeline share a contention resource
    ///    (the communication-dependency constraint
    ///    `∀ t_i, t_j ∈ P_k: comm(t_i, t_j) ≠ ∅ ⇒ l_i ≠ l_j` of §4.3),
    ///    which a [`by_step`](crate::by_step) schedule does not promise.
    pub fn validate(&self, dag: &DepDag) -> Result<(), IrError> {
        self.validate_order(dag)?;
        // Rule 3: no intra-sub-pipeline oversubscription — a conflict
        // resource may carry at most `saturation_tbs` concurrent tasks.
        let mut loads = ConflictLoads::new(dag);
        for (i, sp) in self.sub_pipelines.iter().enumerate() {
            loads.count(dag, sp);
            // The first task, in sub-pipeline order, that pushes a load
            // over its limit.
            if let Some((t, d)) = loads.first_over() {
                let limit = dag.conflict_limit_at(d);
                return Err(IrError::new(format!(
                    "sub-pipeline {i}: task {t} oversubscribes resource {} \
                     (load {} > saturation {limit})",
                    dag.resource_at(d),
                    limit + 1
                )));
            }
        }
        Ok(())
    }

    /// Rules 1–2 of [`Self::validate`]: dependency order only.
    pub fn validate_order(&self, dag: &DepDag) -> Result<(), IrError> {
        dag.validate_order(&self.linear_order())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_lang::{AlgoBuilder, OpType};
    use rescc_topology::Topology;

    fn tiny_dag() -> DepDag {
        // 0->1 (chunk0), 1->2 (chunk0, depends), 2->3 (chunk1, independent)
        let mut b = AlgoBuilder::new("t", OpType::AllGather, 4);
        b.recv(0, 1, 0, 0).recv(1, 2, 1, 0).recv(2, 3, 0, 1);
        DepDag::build(&b.build().unwrap(), &Topology::a100(1, 4)).unwrap()
    }

    #[test]
    fn valid_single_sub_pipeline() {
        let dag = tiny_dag();
        let s = Schedule {
            sub_pipelines: vec![vec![TaskId::new(0), TaskId::new(1), TaskId::new(2)]],
            policy: "test".into(),
        };
        // 1->2 and 2->3 share GpuTx/Rx of rank 2? t1=(1->2): GpuTx(1),GpuRx(2);
        // t2=(2->3): GpuTx(2),GpuRx(3) — disjoint. t0=(0->1): disjoint too.
        s.validate(&dag).unwrap();
    }

    #[test]
    fn detects_dependency_in_later_sub_pipeline() {
        let dag = tiny_dag();
        let s = Schedule {
            sub_pipelines: vec![vec![TaskId::new(1), TaskId::new(2)], vec![TaskId::new(0)]],
            policy: "test".into(),
        };
        assert!(s.validate(&dag).is_err());
    }

    #[test]
    fn detects_intra_sub_pipeline_contention() {
        // The pair channel 0->1 admits `saturation_tbs` (4) concurrent
        // tasks; a fifth in the same sub-pipeline oversubscribes it.
        let mut b = AlgoBuilder::new("t", OpType::AllGather, 8);
        for c in 0..5u32 {
            b.recv(0, 1, 0, c);
        }
        let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(1, 8)).unwrap();
        let ids: Vec<TaskId> = (0..5).map(TaskId::new).collect();
        let bad = Schedule {
            sub_pipelines: vec![ids.clone()],
            policy: "test".into(),
        };
        let err = bad.validate(&dag).unwrap_err();
        assert!(err.to_string().contains("oversubscribes"), "{err}");
        // Splitting the fifth task off restores validity.
        let good = Schedule {
            sub_pipelines: vec![ids[..4].to_vec(), ids[4..].to_vec()],
            policy: "test".into(),
        };
        good.validate(&dag).unwrap();
        // Four tasks on one channel (exactly at saturation) are fine.
        let at_limit = Schedule {
            sub_pipelines: vec![ids[..4].to_vec(), ids[4..].to_vec()],
            policy: "test".into(),
        };
        at_limit.validate(&dag).unwrap();
    }

    #[test]
    fn detects_missing_task() {
        let dag = tiny_dag();
        let s = Schedule {
            sub_pipelines: vec![vec![TaskId::new(0), TaskId::new(1)]],
            policy: "test".into(),
        };
        assert!(s.validate(&dag).is_err());
    }
}
