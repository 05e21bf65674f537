//! A typed Rust builder for collective algorithms.
//!
//! Algorithm generators (the expert algorithms of Appendix A, the
//! synthesizer emulations) construct specs programmatically instead of going
//! through DSL text. The builder applies the same validation as the DSL
//! evaluator, so both input paths produce identical [`AlgoSpec`]s.

use crate::ast::{CommType, OpType};
use crate::error::Result;
use crate::spec::{AlgoSpec, TransferRec};
use rescc_topology::{ChunkId, Rank, Step};

/// Step-by-step builder for an [`AlgoSpec`].
#[derive(Clone, Debug)]
pub struct AlgoBuilder {
    name: String,
    op: OpType,
    n_ranks: u32,
    transfers: Vec<TransferRec>,
}

impl AlgoBuilder {
    /// Start building an algorithm for `n_ranks` ranks.
    pub fn new(name: impl Into<String>, op: OpType, n_ranks: u32) -> Self {
        Self {
            name: name.into(),
            op,
            n_ranks,
            transfers: Vec::new(),
        }
    }

    /// Declare a transfer. Arguments mirror the DSL's
    /// `transfer(srcRank, dstRank, step, chunkId, commType)`.
    pub fn transfer(
        &mut self,
        src: u32,
        dst: u32,
        step: u32,
        chunk: u32,
        comm: CommType,
    ) -> &mut Self {
        self.transfers.push(TransferRec {
            src: Rank::new(src),
            dst: Rank::new(dst),
            step: Step::new(step),
            chunk: ChunkId::new(chunk),
            comm,
        });
        self
    }

    /// Shorthand for a `recv` transfer.
    pub fn recv(&mut self, src: u32, dst: u32, step: u32, chunk: u32) -> &mut Self {
        self.transfer(src, dst, step, chunk, CommType::Recv)
    }

    /// Shorthand for a `rrc` (recvReduceCopy) transfer.
    pub fn rrc(&mut self, src: u32, dst: u32, step: u32, chunk: u32) -> &mut Self {
        self.transfer(src, dst, step, chunk, CommType::Rrc)
    }

    /// Number of transfers added so far.
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// Whether no transfers have been added yet.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Validate and finish.
    pub fn build(&self) -> Result<AlgoSpec> {
        AlgoSpec::new(
            self.name.clone(),
            self.op,
            self.n_ranks,
            self.transfers.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_dsl_output() {
        // Ring AllGather over 4 ranks built both ways must be identical.
        let mut b = AlgoBuilder::new("Ring", OpType::AllGather, 4);
        for r in 0..4u32 {
            let peer = (r + 1) % 4;
            for step in 0..3u32 {
                b.recv(r, peer, step, (r + 4 - step) % 4);
            }
        }
        let built = b.build().unwrap();

        let dsl = r#"
def ResCCLAlgo(nRanks=4, AlgoName="Ring", OpType="Allgather"):
    N = nRanks
    for r in range(0, N):
        peer = (r+1)%N
        for step in range(0, N-1):
            transfer(r, peer, step, (r-step)%N, recv)
"#;
        let evaled = crate::eval::eval_source(dsl).unwrap();
        assert_eq!(built, evaled);
    }

    #[test]
    fn builder_validates() {
        let mut b = AlgoBuilder::new("bad", OpType::AllGather, 2);
        b.recv(0, 0, 0, 0);
        assert!(b.build().is_err());
    }

    #[test]
    fn len_and_is_empty() {
        let mut b = AlgoBuilder::new("x", OpType::AllReduce, 4);
        assert!(b.is_empty());
        b.rrc(0, 1, 0, 0);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
