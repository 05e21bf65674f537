//! Static collective verification: prove, without running anything, that
//! an [`AlgoSpec`] implements its declared operator.
//!
//! The verifier replays the transfers in step order over per-slot
//! contribution counts ([`Counts`]) on the shared
//! [provenance kernel](crate::provenance), with the same step semantics
//! the dependency DAG uses: all reads of a step observe the pre-step
//! state, writes commit together at the end of the step. It then checks
//! the final state against the operator's contract:
//!
//! * AllGather — `state[r][c]` holds exactly chunk owner `c`'s data,
//! * ReduceScatter — `state[r][r]` holds every rank's data exactly once,
//! * AllReduce — every slot holds every rank's data exactly once.
//!
//! It additionally rejects two silent-corruption hazards the runtime check
//! can mask: sending an uninitialized (empty) value, and same-step races
//! whose outcome depends on arrival order — a plain copy racing any other
//! write into one slot (only reductions commute), and a read of a slot
//! that another transfer of the same step writes.
//!
//! This is the compile-time twin of the simulator's runtime data check —
//! the compiler runs it during the Analysis phase so broken algorithms
//! fail before any scheduling work happens.

use crate::ast::CommType;
use crate::error::{LangError, Result};
use crate::provenance::{step_groups, Counts, Move, Slots};
use crate::spec::{AlgoSpec, TransferRec};

/// Statically verify that `spec` implements its declared operator.
///
/// Every transfer reads and writes only its own chunk's buffer slots, so
/// the replay decomposes exactly into one independent run per chunk over
/// one reused table of `n_ranks` slots. Each slot's counts are a sparse
/// run list, so the cost follows the transfers, not the group size. When
/// several chunks are broken, the error reported is the lowest-numbered
/// chunk's.
pub fn verify_collective(spec: &AlgoSpec) -> Result<()> {
    let mut by_chunk: Vec<Vec<&TransferRec>> = vec![Vec::new(); spec.n_chunks() as usize];
    for t in spec.transfers() {
        by_chunk[t.chunk.index()].push(t);
    }
    let mut replay = Replay {
        spec,
        state: Slots::new(0),
        targets: Vec::new(),
    };
    for (c, transfers) in by_chunk.iter_mut().enumerate() {
        // Stable: same-step transfers keep declaration order.
        transfers.sort_by_key(|t| t.step);
        replay.chunk(c as u32, transfers)?;
    }
    Ok(())
}

/// [`verify_collective`]; `threads` is ignored. Kept only because the
/// dispatch benchmark's cold-start replay calls this signature.
#[doc(hidden)]
pub fn verify_collective_with_threads(spec: &AlgoSpec, _threads: usize) -> Result<()> {
    verify_collective(spec)
}

/// The verifier's working state, reused from one chunk to the next.
struct Replay<'a> {
    spec: &'a AlgoSpec,
    /// Slot `r` is rank `r`'s copy of the chunk being replayed.
    state: Slots<Counts>,
    /// One step group's `(destination rank, is a copy)` writes, sorted.
    targets: Vec<(u32, bool)>,
}

impl Replay<'_> {
    /// Replay chunk `c`'s step-sorted transfers and check its slice of the
    /// operator contract.
    fn chunk(&mut self, c: u32, transfers: &[&TransferRec]) -> Result<()> {
        let spec = self.spec;
        self.state.reset(spec.op(), spec.n_ranks(), c..c + 1);
        for group in step_groups(transfers, |t| t.step) {
            let step = group[0].step;
            // Reads observe the pre-step state.
            if let Some(t) = group
                .iter()
                .find(|t| self.state.slot(t.src.index()).is_empty())
            {
                return Err(LangError::eval(format!(
                    "`{}`: step {} sends uninitialized data — transfer {}->{} of chunk {} \
                     reads an empty buffer slot",
                    spec.name(),
                    step,
                    t.src,
                    t.dst,
                    t.chunk
                )));
            }

            // Same-step writes into one slot race unless all of them
            // reduce: reductions commute, a plain copy does not.
            let targets = &mut self.targets;
            targets.clear();
            targets.extend(group.iter().map(|t| (t.dst.0, t.comm == CommType::Recv)));
            targets.sort_unstable();
            for w in targets.windows(2) {
                if w[0].0 == w[1].0 && (w[0].1 || w[1].1) {
                    return Err(LangError::eval(format!(
                        "`{}`: step {} has racing writes into rank r{} chunk c{} — a copy \
                         and another same-step write land in one slot, so the result \
                         would be nondeterministic",
                        spec.name(),
                        step,
                        w[0].0,
                        c
                    )));
                }
            }

            // A slot one transfer reads while another writes it in the
            // same step: nothing orders the read before the write at run
            // time.
            if let Some(t) = group.iter().find(|t| {
                targets
                    .binary_search_by_key(&t.src.0, |&(dst, _)| dst)
                    .is_ok()
            }) {
                return Err(LangError::eval(format!(
                    "`{}`: step {} reads rank {} chunk c{} while another transfer of the \
                     same step writes it — the read could observe either value, so the \
                     result would be nondeterministic",
                    spec.name(),
                    step,
                    t.src,
                    c
                )));
            }

            self.state.apply_group(group.iter().map(|t| Move {
                src: t.src.index(),
                dst: t.dst.index(),
                comm: t.comm,
                writer: 0,
            }));
        }

        match self.state.contract_violation(spec.op(), c..c + 1) {
            None => Ok(()),
            Some((r, _, got, want)) => Err(LangError::eval(format!(
                "`{}` does not implement {}: rank r{r} chunk c{c} ends with \
                 contributions {got:?}, expected {want:?}",
                spec.name(),
                spec.op(),
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::OpType;
    use crate::builder::AlgoBuilder;

    fn ring_ag(n: u32) -> AlgoSpec {
        let mut b = AlgoBuilder::new("ring", OpType::AllGather, n);
        for r in 0..n {
            for step in 0..n - 1 {
                b.recv(r, (r + 1) % n, step, (r + n - step) % n);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn accepts_correct_ring_allgather() {
        verify_collective(&ring_ag(8)).unwrap();
    }

    #[test]
    fn accepts_correct_ring_reduce_scatter() {
        let n = 4u32;
        let mut b = AlgoBuilder::new("rs", OpType::ReduceScatter, n);
        for r in 0..n {
            for step in 0..n - 1 {
                b.rrc(r, (r + 1) % n, step, (r + n - step - 1) % n);
            }
        }
        verify_collective(&b.build().unwrap()).unwrap();
    }

    #[test]
    fn rejects_incomplete_allgather() {
        // Only one chunk ever moves.
        let mut b = AlgoBuilder::new("bad", OpType::AllGather, 4);
        b.recv(0, 1, 0, 0).recv(1, 2, 1, 0).recv(2, 3, 2, 0);
        let err = verify_collective(&b.build().unwrap()).unwrap_err();
        assert!(err.to_string().contains("does not implement"));
    }

    #[test]
    fn rejects_double_reduction() {
        // Rank 1 reduces its value into rank 0 twice.
        let mut b = AlgoBuilder::new("dup", OpType::ReduceScatter, 2);
        b.rrc(1, 0, 0, 0).rrc(1, 0, 1, 0);
        let err = verify_collective(&b.build().unwrap()).unwrap_err();
        assert!(err.to_string().contains("does not implement"));
    }

    #[test]
    fn rejects_uninitialized_send() {
        // Rank 1 forwards chunk 0 before receiving it.
        let mut b = AlgoBuilder::new("early", OpType::AllGather, 4);
        b.recv(1, 2, 0, 0) // rank 1 does not hold chunk 0 yet
            .recv(0, 1, 1, 0);
        let err = verify_collective(&b.build().unwrap()).unwrap_err();
        assert!(err.to_string().contains("uninitialized"));
    }

    #[test]
    fn rejects_same_step_copy_race() {
        // Ranks 0 and 2 both copy into rank 1's chunk slot at step 0...
        let mut b = AlgoBuilder::new("race", OpType::AllGather, 4);
        b.recv(0, 1, 0, 0);
        // chunk 0 is owned by rank 0 only, but craft a race via chunk 0 at
        // same step from rank 0 twice is a duplicate tuple — use a second
        // source that also holds data: self-owned chunk abuse is blocked,
        // so race on an AllReduce-style spec instead.
        let spec = b.build().unwrap();
        verify_collective(&spec).unwrap_err(); // incomplete anyway
        let mut b = AlgoBuilder::new("race2", OpType::AllReduce, 3);
        // Both rank 1 and rank 2 *copy* into rank 0 chunk 0 at step 0.
        b.recv(1, 0, 0, 0).recv(2, 0, 0, 0);
        let err = verify_collective(&b.build().unwrap()).unwrap_err();
        assert!(err.to_string().contains("racing writes"), "{err}");
    }

    #[test]
    fn rejects_copy_racing_a_reduction_in_either_order() {
        // Chunk 0 of a 3-rank AllReduce: reduce rank 0 into rank 1, then
        // rank 0's slot takes a copy from rank 1 and a reduction from rank
        // 2 in the same step, then rank 0 broadcasts. Whether the copy
        // lands before or after the reduction decides the result, so both
        // declaration orders must be rejected.
        for copy_first in [true, false] {
            let mut b = AlgoBuilder::new("copy-vs-rrc", OpType::AllReduce, 3);
            b.rrc(0, 1, 0, 0);
            if copy_first {
                b.recv(1, 0, 1, 0).rrc(2, 0, 1, 0);
            } else {
                b.rrc(2, 0, 1, 0).recv(1, 0, 1, 0);
            }
            b.recv(0, 1, 2, 0).recv(0, 2, 2, 0);
            for c in 1..3 {
                b.rrc((c + 1) % 3, c, 0, c).rrc((c + 2) % 3, c, 0, c);
                b.recv(c, (c + 1) % 3, 1, c).recv(c, (c + 2) % 3, 1, c);
            }
            let err = verify_collective(&b.build().unwrap()).unwrap_err();
            assert!(err.to_string().contains("racing writes"), "{err}");
        }
    }

    #[test]
    fn rejects_same_step_read_of_a_written_slot() {
        // Rank 1 forwards chunk 0 to rank 2 in the step in which rank 0
        // reduces into rank 1's slot: the forward may carry either value.
        let mut b = AlgoBuilder::new("raw", OpType::ReduceScatter, 3);
        b.rrc(1, 0, 0, 0).rrc(2, 1, 0, 1).rrc(0, 2, 0, 2);
        b.rrc(2, 0, 1, 0).rrc(0, 1, 1, 1).rrc(1, 2, 1, 2);
        verify_collective(&b.build().unwrap()).unwrap();
        b.rrc(0, 1, 1, 0);
        let err = verify_collective(&b.build().unwrap()).unwrap_err();
        assert!(err.to_string().contains("same step writes it"), "{err}");
    }

    #[test]
    fn same_step_reductions_are_fine() {
        // A one-step fan-in ReduceScatter: both peers reduce into each
        // chunk's owner simultaneously — same-step rrc commutes.
        let mut b = AlgoBuilder::new("fanin", OpType::ReduceScatter, 3);
        for c in 0..3u32 {
            b.rrc((c + 1) % 3, c, 0, c).rrc((c + 2) % 3, c, 0, c);
        }
        verify_collective(&b.build().unwrap()).unwrap();
    }
}
