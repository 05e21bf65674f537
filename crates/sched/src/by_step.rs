//! By-step scheduling — how the NCCL and MSCCL baselines sequence work.

use crate::schedule::Schedule;
use rescc_ir::{DepDag, TaskId};

/// Schedule `dag` in plain step order: sub-pipeline `s` holds the tasks of
/// step `s`. Without communication-dependency awareness a step's tasks may
/// oversubscribe a resource, so the schedule promises only dependency
/// order ([`Schedule::validate_order`]).
pub fn by_step(dag: &DepDag) -> Schedule {
    let max_step = dag.tasks().iter().map(|t| t.step.0).max().unwrap_or(0);
    let mut sub_pipelines: Vec<Vec<TaskId>> = vec![Vec::new(); max_step as usize + 1];
    for t in dag.tasks() {
        sub_pipelines[t.step.0 as usize].push(t.id);
    }
    sub_pipelines.retain(|sp| !sp.is_empty());
    // The schedule keeps no growth slack.
    sub_pipelines.iter_mut().for_each(Vec::shrink_to_fit);
    Schedule {
        sub_pipelines,
        policy: "by-step".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_algos::ring_allgather;
    use rescc_topology::Topology;

    #[test]
    fn by_step_schedule_covers_dag() {
        let topo = Topology::a100(1, 8);
        let dag = DepDag::build(&ring_allgather(8), &topo).unwrap();
        let s = by_step(&dag);
        assert_eq!(s.n_tasks(), dag.len());
        s.validate_order(&dag).unwrap();
    }
}
