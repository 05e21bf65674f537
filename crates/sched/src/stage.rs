//! Stage partitioning — the manual stage division that MSCCLang-style
//! stage-level execution requires (§2.1(2)).
//!
//! The algorithm's step range is cut into `k` contiguous bands; every task
//! falls into the stage owning its step. Stages only need to satisfy data
//! dependencies *between* them (guaranteed because data dependencies go
//! from smaller to larger steps), and each stage runs algorithm-level
//! execution internally on its own channels/TBs.

use rescc_ir::{DepDag, TaskId};

/// A partition of the DAG's tasks into ordered stages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagePartition {
    /// Tasks of each stage, in DAG declaration order.
    pub stages: Vec<Vec<TaskId>>,
}

impl StagePartition {
    /// Partition into (at most) `k` stages by slicing the step range into
    /// equal-width bands. Empty bands are dropped, so the result may have
    /// fewer than `k` stages.
    pub fn by_steps(dag: &DepDag, k: u32) -> Self {
        assert!(k >= 1, "need at least one stage");
        let max_step = dag.tasks().iter().map(|t| t.step.0).max().unwrap_or(0);
        let n_steps = max_step + 1;
        let band = n_steps.div_ceil(k);
        let mut stages: Vec<Vec<TaskId>> = vec![Vec::new(); k as usize];
        for t in dag.tasks() {
            let s = (t.step.0 / band).min(k - 1) as usize;
            stages[s].push(t.id);
        }
        stages.retain(|s| !s.is_empty());
        Self { stages }
    }

    /// The stage index of every task (`u32::MAX` for a task in no stage):
    /// the kernel's barrier groups.
    pub fn stage_of(&self, n_tasks: usize) -> Vec<u32> {
        let mut v = vec![u32::MAX; n_tasks];
        for (i, st) in self.stages.iter().enumerate() {
            for &t in st {
                v[t.index()] = i as u32;
            }
        }
        v
    }

    /// Validate that inter-stage data dependencies are forward-only.
    pub fn validate(&self, dag: &DepDag) -> Result<(), rescc_ir::IrError> {
        let stage_of = self.stage_of(dag.len());
        for t in dag.tasks() {
            if stage_of[t.id.index()] == u32::MAX {
                return Err(rescc_ir::IrError::new(format!(
                    "task {} not assigned to any stage",
                    t.id
                )));
            }
            for &p in dag.preds(t.id) {
                if stage_of[p.index()] > stage_of[t.id.index()] {
                    return Err(rescc_ir::IrError::new(format!(
                        "dependency {} of task {} lives in a later stage",
                        p, t.id
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_lang::{AlgoBuilder, OpType};
    use rescc_topology::Topology;

    fn ring_dag(n: u32) -> DepDag {
        let mut b = AlgoBuilder::new("Ring", OpType::AllGather, n);
        for r in 0..n {
            for step in 0..n - 1 {
                b.recv(r, (r + 1) % n, step, (r + n - step) % n);
            }
        }
        DepDag::build(&b.build().unwrap(), &Topology::a100(1, n)).unwrap()
    }

    #[test]
    fn partitions_cover_all_tasks() {
        let dag = ring_dag(8);
        for k in 1..=7 {
            let p = StagePartition::by_steps(&dag, k);
            let total: usize = p.stages.iter().map(Vec::len).sum();
            assert_eq!(total, dag.len());
            p.validate(&dag).unwrap();
        }
    }

    #[test]
    fn one_stage_is_whole_dag() {
        let dag = ring_dag(4);
        let p = StagePartition::by_steps(&dag, 1);
        assert_eq!(p.stages.len(), 1);
        assert_eq!(p.stages[0].len(), dag.len());
    }

    #[test]
    fn k_larger_than_steps_clamps() {
        let dag = ring_dag(4); // 3 steps
        let p = StagePartition::by_steps(&dag, 10);
        assert!(p.stages.len() <= 3);
        p.validate(&dag).unwrap();
    }
}
