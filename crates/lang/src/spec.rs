//! The canonical, validated output of a ResCCLang program: an [`AlgoSpec`].
//!
//! Whatever the input form — DSL text, the typed [`AlgoBuilder`](crate::AlgoBuilder),
//! or a synthesizer — every collective algorithm reduces to a flat list of
//! [`TransferRec`]s: `(srcRank, dstRank, step, chunkId, commType)` tuples,
//! exactly the `Transfer` abstraction of §4.2. The rest of the stack (IR,
//! scheduler, backends, simulator) consumes only this type.

use crate::ast::{CommType, OpType};
use crate::error::{LangError, Result};
use rescc_topology::{ChunkId, Rank, Step};
use std::collections::HashSet;

/// One transmission task declared by the algorithm: move `chunk` from
/// `src` to `dst` at logical time `step`, applying `comm` at the receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TransferRec {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Logical step; transfers of the same chunk are ordered by step.
    pub step: Step,
    /// The chunk moved.
    pub chunk: ChunkId,
    /// Receive semantics (copy vs reduce-copy).
    pub comm: CommType,
}

/// A validated collective algorithm specification.
#[derive(Clone, Debug, PartialEq)]
pub struct AlgoSpec {
    name: String,
    op: OpType,
    n_ranks: u32,
    n_chunks: u32,
    transfers: Vec<TransferRec>,
}

impl AlgoSpec {
    /// Build and validate a spec.
    ///
    /// Validation rules:
    /// * at least one transfer,
    /// * all ranks within `[0, n_ranks)` and `src != dst`,
    /// * all chunks within `[0, n_chunks)`,
    /// * no duplicate `(src, dst, step, chunk)` tuple — the tuple uniquely
    ///   identifies a transmission task (§4.2).
    pub fn new(
        name: impl Into<String>,
        op: OpType,
        n_ranks: u32,
        transfers: Vec<TransferRec>,
    ) -> Result<Self> {
        let name = name.into();
        let n_chunks = n_ranks;
        if n_ranks < 2 {
            return Err(LangError::eval(format!(
                "algorithm `{name}` needs at least 2 ranks, got {n_ranks}"
            )));
        }
        if transfers.is_empty() {
            return Err(LangError::eval(format!(
                "algorithm `{name}` declares no transfers"
            )));
        }
        let mut seen = HashSet::with_capacity(transfers.len());
        for t in &transfers {
            if t.src.0 >= n_ranks || t.dst.0 >= n_ranks {
                return Err(LangError::eval(format!(
                    "`{name}`: transfer {}->{} outside rank range 0..{n_ranks}",
                    t.src, t.dst
                )));
            }
            if t.src == t.dst {
                return Err(LangError::eval(format!(
                    "`{name}`: self-transfer at rank {} (step {}, chunk {})",
                    t.src, t.step, t.chunk
                )));
            }
            if t.chunk.0 >= n_chunks {
                return Err(LangError::eval(format!(
                    "`{name}`: chunk {} outside chunk range 0..{n_chunks}",
                    t.chunk
                )));
            }
            if !seen.insert((t.src, t.dst, t.step, t.chunk)) {
                return Err(LangError::eval(format!(
                    "`{name}`: duplicate transfer ({}, {}, {}, {})",
                    t.src, t.dst, t.step, t.chunk
                )));
            }
        }
        Ok(Self {
            name,
            op,
            n_ranks,
            n_chunks,
            transfers,
        })
    }

    /// Algorithm name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Collective operator this algorithm implements.
    pub fn op(&self) -> OpType {
        self.op
    }

    /// Number of participating ranks.
    pub fn n_ranks(&self) -> u32 {
        self.n_ranks
    }

    /// Number of chunks each rank's buffer is divided into (== `n_ranks`,
    /// per the DataBuffer abstraction of §4.2).
    pub fn n_chunks(&self) -> u32 {
        self.n_chunks
    }

    /// All transfers, in declaration order.
    pub fn transfers(&self) -> &[TransferRec] {
        &self.transfers
    }

    /// The largest step index used, or 0 for a one-shot algorithm.
    pub fn max_step(&self) -> Step {
        self.transfers
            .iter()
            .map(|t| t.step)
            .max()
            .unwrap_or(Step::new(0))
    }

    /// The distinct ordered GPU pairs (connections) the algorithm uses.
    pub fn connections(&self) -> Vec<(Rank, Rank)> {
        let mut set: Vec<(Rank, Rank)> = self
            .transfers
            .iter()
            .map(|t| (t.src, t.dst))
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        set.sort();
        set
    }

    /// Rename the algorithm (used when deriving variants).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(src: u32, dst: u32, step: u32, chunk: u32) -> TransferRec {
        TransferRec {
            src: Rank::new(src),
            dst: Rank::new(dst),
            step: Step::new(step),
            chunk: ChunkId::new(chunk),
            comm: CommType::Recv,
        }
    }

    #[test]
    fn valid_spec_builds() {
        let s = AlgoSpec::new(
            "t",
            OpType::AllGather,
            2,
            vec![rec(0, 1, 0, 0), rec(1, 0, 0, 1)],
        )
        .unwrap();
        assert_eq!(s.n_ranks(), 2);
        assert_eq!(s.n_chunks(), 2);
        assert_eq!(s.max_step(), Step::new(0));
        assert_eq!(s.connections().len(), 2);
    }

    #[test]
    fn rejects_out_of_range_rank() {
        let e = AlgoSpec::new("t", OpType::AllGather, 2, vec![rec(0, 2, 0, 0)]).unwrap_err();
        assert!(e.to_string().contains("rank range"));
    }

    #[test]
    fn rejects_self_transfer() {
        let e = AlgoSpec::new("t", OpType::AllGather, 2, vec![rec(1, 1, 0, 0)]).unwrap_err();
        assert!(e.to_string().contains("self-transfer"));
    }

    #[test]
    fn rejects_out_of_range_chunk() {
        let e = AlgoSpec::new("t", OpType::AllGather, 2, vec![rec(0, 1, 0, 5)]).unwrap_err();
        assert!(e.to_string().contains("chunk range"));
    }

    #[test]
    fn rejects_duplicate_tuple() {
        let e = AlgoSpec::new(
            "t",
            OpType::AllGather,
            2,
            vec![rec(0, 1, 0, 0), rec(0, 1, 0, 0)],
        )
        .unwrap_err();
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_empty() {
        let e = AlgoSpec::new("t", OpType::AllGather, 2, vec![]).unwrap_err();
        assert!(e.to_string().contains("no transfers"));
    }
}
