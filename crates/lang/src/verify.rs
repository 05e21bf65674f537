//! Static collective verification: prove, without running anything, that
//! an [`AlgoSpec`] implements its declared operator.
//!
//! The verifier symbolically executes the transfers in step order over
//! per-slot contribution vectors (`state[rank][chunk][source] = how many
//! times source's data has been folded in`), with the same step semantics
//! the dependency DAG uses: all reads of a step observe the pre-step
//! state, writes commit together at the end of the step. It then checks
//! the final state against the operator's contract:
//!
//! * AllGather — `state[r][c]` holds exactly chunk owner `c`'s data,
//! * ReduceScatter — `state[r][r]` holds every rank's data exactly once,
//! * AllReduce — every slot holds every rank's data exactly once.
//!
//! It additionally rejects two silent-corruption hazards the runtime check
//! can mask: sending an uninitialized (empty) value, and two same-step
//! plain-copy writes racing into one slot (nondeterministic result).
//!
//! This is the compile-time twin of the simulator's runtime data check —
//! the compiler runs it during the Analysis phase so broken algorithms
//! fail before any scheduling work happens.

use crate::ast::{CommType, OpType};
use crate::error::{LangError, Result};
use crate::spec::AlgoSpec;

/// One buffer slot's symbolic value: per-source contribution counts.
type Val = Vec<u16>;

/// Statically verify that `spec` implements its declared operator.
///
/// Every transfer reads and writes only its own chunk's buffer slots, so
/// the symbolic execution decomposes exactly into one independent run per
/// chunk, which caps the symbolic state at O(ranks²) instead of
/// O(ranks³). When several chunks are broken, the error reported is the
/// lowest-numbered chunk's.
pub fn verify_collective(spec: &AlgoSpec) -> Result<()> {
    // Transfers bucketed per chunk, in declaration order (the per-step
    // stable sort happens inside `verify_chunk`).
    let mut by_chunk: Vec<Vec<&crate::spec::TransferRec>> =
        vec![Vec::new(); spec.n_chunks() as usize];
    for t in spec.transfers() {
        by_chunk[t.chunk.index()].push(t);
    }
    for (c, transfers) in by_chunk.iter().enumerate() {
        verify_chunk(spec, c, transfers)?;
    }
    Ok(())
}

/// [`verify_collective`]; `threads` is ignored. Kept only because the
/// dispatch benchmark's cold-start replay calls this signature.
#[doc(hidden)]
pub fn verify_collective_with_threads(spec: &AlgoSpec, _threads: usize) -> Result<()> {
    verify_collective(spec)
}

/// Symbolically execute one chunk's transfers and check its slice of the
/// operator contract.
fn verify_chunk(spec: &AlgoSpec, c: usize, transfers: &[&crate::spec::TransferRec]) -> Result<()> {
    let n = spec.n_ranks() as usize;

    // Initial per-rank state of this chunk's slot, mirroring the
    // operator's input contract.
    let mut state: Vec<Val> = (0..n)
        .map(|r| {
            let mut v = vec![0u16; n];
            match spec.op() {
                OpType::AllGather => {
                    if r == c {
                        v[r] = 1;
                    }
                }
                OpType::AllReduce | OpType::ReduceScatter => v[r] = 1,
            }
            v
        })
        .collect();

    // Transfers grouped by step.
    let mut transfers = transfers.to_vec();
    transfers.sort_by_key(|t| t.step);
    let mut i = 0;
    while i < transfers.len() {
        let step = transfers[i].step;
        let mut j = i;
        while j < transfers.len() && transfers[j].step == step {
            j += 1;
        }
        let group = &transfers[i..j];

        // Reads observe the pre-step state.
        let reads: Vec<Val> = group
            .iter()
            .map(|t| {
                let v = state[t.src.index()].clone();
                if v.iter().all(|&c| c == 0) {
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
                Ok(v)
            })
            .collect::<Result<_>>()?;

        // Same-step plain copies into one slot race nondeterministically.
        let mut copy_targets: Vec<u32> = group
            .iter()
            .filter(|t| t.comm == CommType::Recv)
            .map(|t| t.dst.0)
            .collect();
        copy_targets.sort_unstable();
        for w in copy_targets.windows(2) {
            if w[0] == w[1] {
                return Err(LangError::eval(format!(
                    "`{}`: step {} has two racing copies into rank r{} chunk c{} — \
                     the result would be nondeterministic",
                    spec.name(),
                    step,
                    w[0],
                    c
                )));
            }
        }

        // Commit writes.
        for (t, val) in group.iter().zip(reads) {
            let slot = &mut state[t.dst.index()];
            match t.comm {
                CommType::Recv => slot.copy_from_slice(&val),
                CommType::Rrc => {
                    for (a, b) in slot.iter_mut().zip(&val) {
                        *a = a.saturating_add(*b);
                    }
                }
            }
        }
        i = j;
    }

    // Final contract for this chunk's column.
    for (r, got) in state.iter().enumerate() {
        let want: Option<Val> = match spec.op() {
            OpType::AllGather => {
                let mut v = vec![0u16; n];
                v[c] = 1;
                Some(v)
            }
            OpType::AllReduce => Some(vec![1u16; n]),
            OpType::ReduceScatter => {
                if r == c {
                    Some(vec![1u16; n])
                } else {
                    None
                }
            }
        };
        if let Some(want) = want {
            if *got != want {
                return Err(LangError::eval(format!(
                    "`{}` does not implement {}: rank r{r} chunk c{c} ends with \
                     contributions {got:?}, expected {want:?}",
                    spec.name(),
                    spec.op()
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(err.to_string().contains("racing copies"), "{err}");
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
