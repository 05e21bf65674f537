//! The resume check — the partial-progress half of fault recovery.
//!
//! When a run aborts, the engine's [`FaultFrontier`] names exactly which
//! `(task, micro-batch)` invocations completed. Restarting from scratch
//! throws that work away; instead the plan the run was dispatched with
//! resumes from the frontier
//! ([`SimConfig::with_resume`](rescc_sim::SimConfig::with_resume)): the
//! engine pre-sets the dependency flags of the completed invocations,
//! replays their buffer effects and runs only the rest. Nothing is
//! compiled, and the frontier stays in the plan's own task-id space.
//!
//! [`Compiler::residual_plan`] is the check a recovery layer runs first:
//! the frontier must fit the plan, and a static per-chunk value replay
//! proves that *completed prefix + remaining invocations* reaches the
//! collective's postcondition in every micro-batch, i.e. that resuming is
//! byte-equivalent to a fault-free run.

use crate::{CompiledPlan, Compiler};
use rescc_lang::provenance::{Move, Slots};
use rescc_sim::{FaultFrontier, SimError, SimResult};
use rescc_topology::ChunkId;

impl Compiler {
    /// Check that `cached` can resume from `frontier`, a frontier captured
    /// on (or accumulated over) runs of `cached`: the frontier must cover
    /// the plan's tasks, and its provenance must hold (see the module doc).
    /// On `Ok` the caller runs `cached` itself with the frontier as its
    /// resume state; on an error it restarts instead.
    ///
    /// Provenance verification mirrors the static-verify policy of
    /// [`Compiler::compile_spec`]: it runs whenever [`Compiler::verify`] is
    /// set.
    ///
    /// The name predates the resume path, when this compiled a pruned
    /// "residual" plan. The dispatch benchmark calls it by this name, so
    /// it waits for a declared benchmark change to rename it.
    pub fn residual_plan(&self, cached: &CompiledPlan, frontier: &FaultFrontier) -> SimResult<()> {
        let n_tasks = cached.dag.len() as u32;
        if frontier.n_tasks != n_tasks {
            return Err(SimError::InvalidConfig(format!(
                "frontier covers {} tasks, plan has {n_tasks}",
                frontier.n_tasks
            )));
        }
        if self.verify {
            verify_provenance(cached, frontier)?;
        }
        Ok(())
    }
}

/// Statically prove frontier + remainder ≡ full run: per micro-batch,
/// replay the completed invocations' buffer effects (the engine's own
/// resume replay) and then the remaining ones (one at a time, in per-chunk
/// dependency order) over the collective's initial values, and check every
/// rank/chunk slot reaches the postcondition.
fn verify_provenance(plan: &CompiledPlan, frontier: &FaultFrontier) -> SimResult<()> {
    let dag = &plan.dag;
    let n_chunks = dag.n_chunks();
    let mut buf = Slots::new(0);
    for mb in 0..frontier.n_mb {
        buf.reset(plan.op, plan.spec.n_ranks(), 0..n_chunks);
        frontier.replay_into(dag, mb..mb + 1, std::slice::from_mut(&mut buf));
        for c in 0..n_chunks {
            for &tid in dag.chunk_tasks(ChunkId::new(c)) {
                if frontier.is_done(tid.0, mb) {
                    continue;
                }
                let t = dag.transfer(tid);
                buf.apply(Move {
                    src: (t.src.0 * n_chunks + c) as usize,
                    dst: (t.dst.0 * n_chunks + c) as usize,
                    comm: t.comm,
                    writer: 0,
                });
            }
        }
        if let Some((r, c, _, _)) = buf.contract_violation(plan.op, 0..n_chunks) {
            return Err(SimError::Validation(format!(
                "resume provenance violated: rank {r} chunk {c} \
                 micro-batch {mb} would not reach the collective's \
                 final value — the frontier and the plan disagree"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_algos::hm_allreduce;
    use rescc_sim::SimConfig;
    use rescc_topology::Topology;

    fn frontier_at(plan: &CompiledPlan, n_mb: u32, fraction: f64) -> FaultFrontier {
        // Deterministic synthetic frontier: complete a downward-closed
        // prefix of each chunk chain across all micro-batches, plus the
        // first micro-batch of the next task in the chain.
        let mut f = FaultFrontier::new(plan.dag.len() as u32, n_mb, 1_000_000);
        for c in 0..plan.dag.n_chunks() {
            let chain = plan.dag.chunk_tasks(ChunkId::new(c));
            let full = ((chain.len() as f64) * fraction) as usize;
            for (i, tid) in chain.iter().enumerate() {
                if i < full {
                    for mb in 0..n_mb {
                        f.mark(tid.0, mb);
                    }
                } else if i == full && n_mb > 1 {
                    f.mark(tid.0, 0);
                }
            }
        }
        f
    }

    #[test]
    fn resumed_cached_plan_validates_and_beats_a_full_run() {
        let topo = Topology::a100(2, 4);
        let compiler = Compiler::new();
        let plan = compiler.compile_spec(&hm_allreduce(2, 4), &topo).unwrap();
        let buffer: u64 = 16 << 20;
        let chunk: u64 = 1 << 20;
        let n_mb = (buffer / (plan.n_chunks as u64 * chunk)).max(1) as u32;
        let frontier = frontier_at(&plan, n_mb, 0.5);
        let total = frontier.n_tasks as u64 * frontier.n_mb as u64;
        assert!(frontier.completed() as f64 > 0.3 * total as f64);

        compiler.residual_plan(&plan, &frontier).unwrap();
        let base = plan.run(buffer, chunk).unwrap();
        let cfg = SimConfig::default().with_resume(frontier);
        let rep = plan.run_with(buffer, chunk, &cfg).unwrap();
        assert_eq!(rep.data_valid, Some(true));
        assert_eq!(rep.n_invocations, base.n_invocations);
        assert!(
            rep.completion_ns < base.completion_ns,
            "resumed {} must finish sooner than full {}",
            rep.completion_ns,
            base.completion_ns
        );
    }

    #[test]
    fn provenance_violation_is_a_validation_error() {
        let topo = Topology::a100(1, 4);
        let compiler = Compiler::new();
        let plan = compiler
            .compile_spec(&rescc_algos::ring_allgather(4), &topo)
            .unwrap();
        compiler
            .residual_plan(&plan, &frontier_at(&plan, 2, 0.5))
            .unwrap();
        // A forward marked done while the task feeding it is not: it
        // forwarded a value its source never had.
        let chain = plan.dag.chunk_tasks(ChunkId::new(0));
        let mut bad = FaultFrontier::new(plan.dag.len() as u32, 2, 0);
        bad.mark(chain[1].0, 0);
        let err = compiler.residual_plan(&plan, &bad).unwrap_err();
        assert!(
            matches!(&err, SimError::Validation(m) if m.contains("resume provenance violated")),
            "{err:?}"
        );
    }

    #[test]
    fn residual_plan_rejects_mismatched_frontier() {
        let topo = Topology::a100(1, 4);
        let compiler = Compiler::new();
        let plan = compiler
            .compile_spec(&rescc_algos::ring_allgather(4), &topo)
            .unwrap();
        let bad = FaultFrontier::new(3, 2, 0);
        assert!(matches!(
            compiler.residual_plan(&plan, &bad),
            Err(SimError::InvalidConfig(_))
        ));
    }
}
