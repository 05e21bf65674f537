//! Data semantics: machine-checked collective correctness.
//!
//! Every `(micro-batch, rank, chunk)` buffer slot carries a [`ChunkValue`]:
//! a vector of per-source-rank contribution counts. A `recv` replaces the
//! destination value; a `recvReduceCopy` adds contribution counts. After a
//! run, [`expected_final`] states exactly what each slot must hold for the
//! collective to be correct — including detection of *double reduction*
//! (the same rank's data folded in twice), which a plain reached/not-reached
//! bitmask would miss.

use rescc_lang::OpType;

/// Contribution counts per source rank: `counts[r]` is how many times rank
/// `r`'s original data has been folded into this buffer slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkValue {
    counts: Vec<u8>,
}

impl ChunkValue {
    /// The zero (uninitialized) value.
    pub fn zero(n_ranks: u32) -> Self {
        Self {
            counts: vec![0; n_ranks as usize],
        }
    }

    /// The unit value: rank `r`'s own original data, exactly once.
    pub fn unit(n_ranks: u32, r: u32) -> Self {
        let mut v = Self::zero(n_ranks);
        v.counts[r as usize] = 1;
        v
    }

    /// The fully-reduced value: every rank's data exactly once.
    pub fn ones(n_ranks: u32) -> Self {
        Self {
            counts: vec![1; n_ranks as usize],
        }
    }

    /// `recv` semantics: overwrite with the incoming value.
    pub fn copy_from(&mut self, incoming: &ChunkValue) {
        self.counts.copy_from_slice(&incoming.counts);
    }

    /// `recvReduceCopy` semantics: fold the incoming value in.
    /// Saturates at 255 (a run long past correct).
    pub fn reduce_from(&mut self, incoming: &ChunkValue) {
        for (a, b) in self.counts.iter_mut().zip(&incoming.counts) {
            *a = a.saturating_add(*b);
        }
    }

    /// Is this the zero value?
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Raw counts.
    pub fn counts(&self) -> &[u8] {
        &self.counts
    }
}

/// The value each `(rank, chunk)` slot must hold after a correct run of
/// `op`, or `None` when the operator leaves that slot unconstrained
/// (e.g. non-owned chunks after ReduceScatter).
pub fn expected_final(op: OpType, n_ranks: u32, rank: u32, chunk: u32) -> Option<ChunkValue> {
    match op {
        // AllGather: slot c holds rank c's original data, everywhere.
        OpType::AllGather => Some(ChunkValue::unit(n_ranks, chunk)),
        // AllReduce: every slot holds the full reduction.
        OpType::AllReduce => Some(ChunkValue::ones(n_ranks)),
        // ReduceScatter: rank r owns chunk r, fully reduced; other slots
        // are scratch.
        OpType::ReduceScatter => {
            if rank == chunk {
                Some(ChunkValue::ones(n_ranks))
            } else {
                None
            }
        }
    }
}

/// The value each `(rank, chunk)` slot holds before the collective starts.
pub fn initial_value(op: OpType, n_ranks: u32, rank: u32, chunk: u32) -> ChunkValue {
    match op {
        // AllGather input: each rank contributes one chunk (its own slot).
        OpType::AllGather => {
            if rank == chunk {
                ChunkValue::unit(n_ranks, rank)
            } else {
                ChunkValue::zero(n_ranks)
            }
        }
        // Reduction inputs: every slot starts with the local contribution.
        OpType::AllReduce | OpType::ReduceScatter => ChunkValue::unit(n_ranks, rank),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_replaces_reduce_accumulates() {
        let mut a = ChunkValue::unit(4, 0);
        let b = ChunkValue::unit(4, 2);
        a.reduce_from(&b);
        assert_eq!(a.counts(), &[1, 0, 1, 0]);
        a.copy_from(&b);
        assert_eq!(a.counts(), &[0, 0, 1, 0]);
    }

    #[test]
    fn double_reduction_is_detectable() {
        let mut a = ChunkValue::unit(2, 0);
        let b = ChunkValue::unit(2, 1);
        a.reduce_from(&b);
        a.reduce_from(&b); // fold rank 1 twice — wrong for sum
        assert_ne!(a, ChunkValue::ones(2));
        assert_eq!(a.counts(), &[1, 2]);
    }

    #[test]
    fn allgather_contract() {
        // rank 2, chunk 1: must end with rank 1's data exactly.
        assert_eq!(
            expected_final(OpType::AllGather, 4, 2, 1),
            Some(ChunkValue::unit(4, 1))
        );
        assert_eq!(
            initial_value(OpType::AllGather, 4, 2, 2),
            ChunkValue::unit(4, 2)
        );
        assert!(initial_value(OpType::AllGather, 4, 2, 1).is_zero());
    }

    #[test]
    fn reduce_scatter_contract() {
        assert_eq!(
            expected_final(OpType::ReduceScatter, 4, 3, 3),
            Some(ChunkValue::ones(4))
        );
        assert_eq!(expected_final(OpType::ReduceScatter, 4, 3, 1), None);
    }

    #[test]
    fn allreduce_contract() {
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(
                    expected_final(OpType::AllReduce, 4, r, c),
                    Some(ChunkValue::ones(4))
                );
            }
        }
    }
}
