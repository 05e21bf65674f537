//! Round-robin scheduling — the baseline of Fig. 10(b).
//!
//! RR visits chunks in a fixed circular order of ascending chunk id and
//! schedules whatever is currently free and communication-compatible, with
//! no priorities and no dynamic re-ordering. It satisfies the same
//! correctness constraints as HPDS (the produced schedule validates), but
//! ignores load balance, so frequently-conflicting chunks pile into late
//! sub-pipelines and leave more bubbles.
//!
//! RR shares the flat state of [`crate::flat`] with HPDS. Output is
//! bit-identical to the seed round-robin in `rescc_bench::reference`
//! (property-tested).

use crate::flat::FlatState;
use crate::schedule::Schedule;
use rescc_ir::{DepDag, TaskId};

/// Run the round-robin scheduler.
pub fn round_robin(dag: &DepDag) -> Schedule {
    let n_chunks = dag.n_chunks() as usize;
    let mut st = FlatState::new(dag);
    let mut sub_pipelines: Vec<Vec<TaskId>> = Vec::new();

    while st.remaining > 0 {
        let mut pc: Vec<TaskId> = Vec::new();
        st.start_sub_pipeline();
        // Keep cycling the immutable chunk order until a full pass adds
        // nothing; then seal the sub-pipeline.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for c in 0..n_chunks {
                progressed |= st.visit(c, &mut pc);
            }
        }
        debug_assert!(!pc.is_empty(), "RR sub-pipeline made no progress");
        // The schedule keeps no growth slack.
        pc.shrink_to_fit();
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
    fn rr_schedules_every_task_once() {
        let topo = Topology::a100(2, 4);
        let dag = DepDag::build(&ring_ag(8), &topo).unwrap();
        let s = round_robin(&dag);
        assert_eq!(s.n_tasks(), dag.len());
        s.validate(&dag).unwrap();
    }

    #[test]
    fn rr_is_deterministic() {
        let topo = Topology::a100(2, 8);
        let dag = DepDag::build(&ring_ag(16), &topo).unwrap();
        assert_eq!(round_robin(&dag), round_robin(&dag));
    }
}
