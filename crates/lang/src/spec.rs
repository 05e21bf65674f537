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
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

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
///
/// The transfers live in one shared allocation: clones of the spec, and
/// the dependency DAG built from it, point at the same records. So do
/// the spec's memos: everything derived from the algorithm alone (its
/// verification verdict, its dependency index, its dead transfers) is
/// computed on first use and shared by every clone, however many
/// topologies the spec is lowered for. `Debug` and `PartialEq` ignore
/// the memos.
#[derive(Clone)]
pub struct AlgoSpec {
    name: String,
    op: OpType,
    n_ranks: u32,
    n_chunks: u32,
    transfers: Arc<[TransferRec]>,
    memos: Arc<Memos>,
}

/// A spec-only derivation that a downstream crate memoizes in the spec
/// ([`AlgoSpec::derived`]). Each names one memo slot, which holds one
/// type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Derivation {
    /// The dependency index of `rescc_ir::DepDag`: per-chunk step order
    /// and the data-dependency adjacency.
    DepIndex,
    /// The tasks RA004 of `rescc_analyze` finds dead.
    DeadTasks,
}

/// The memo slots of one spec and its clones.
#[derive(Default)]
struct Memos {
    /// [`verify_collective`](crate::verify_collective)'s verdict.
    verdict: OnceLock<Result<()>>,
    /// One slot per [`Derivation`], in declaration order.
    derived: [OnceLock<Arc<dyn Any + Send + Sync>>; 2],
}

impl fmt::Debug for AlgoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgoSpec")
            .field("name", &self.name)
            .field("op", &self.op)
            .field("n_ranks", &self.n_ranks)
            .field("n_chunks", &self.n_chunks)
            .field("transfers", &self.transfers)
            .finish()
    }
}

impl PartialEq for AlgoSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.op == other.op
            && self.n_ranks == other.n_ranks
            && self.n_chunks == other.n_chunks
            && self.transfers == other.transfers
    }
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
        // Range checks and the duplicate check each find their first
        // offending transfer; the earlier one is reported, as one pass in
        // declaration order would.
        let bad = transfers.iter().position(|t| {
            t.src.0 >= n_ranks || t.dst.0 >= n_ranks || t.src == t.dst || t.chunk.0 >= n_chunks
        });
        let dup = first_duplicate(&transfers[..bad.unwrap_or(transfers.len())]);
        if let Some(i) = dup {
            let t = &transfers[i];
            return Err(LangError::eval(format!(
                "`{name}`: duplicate transfer ({}, {}, {}, {})",
                t.src, t.dst, t.step, t.chunk
            )));
        }
        if let Some(t) = bad.map(|i| &transfers[i]) {
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
            return Err(LangError::eval(format!(
                "`{name}`: chunk {} outside chunk range 0..{n_chunks}",
                t.chunk
            )));
        }
        Ok(Self {
            name,
            op,
            n_ranks,
            n_chunks,
            transfers: transfers.into(),
            memos: Arc::default(),
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

    /// The shared allocation behind [`Self::transfers`], for a table that
    /// indexes the same records instead of copying them.
    pub fn shared_transfers(&self) -> Arc<[TransferRec]> {
        Arc::clone(&self.transfers)
    }

    /// The largest step index used, or 0 for a one-shot algorithm.
    pub fn max_step(&self) -> Step {
        self.transfers
            .iter()
            .map(|t| t.step)
            .max()
            .unwrap_or(Step::new(0))
    }

    /// The distinct ordered GPU pairs (connections) the algorithm uses,
    /// ascending.
    pub fn connections(&self) -> Vec<(Rank, Rank)> {
        let n = u64::from(self.n_ranks);
        let mut keys: Vec<u64> = self
            .transfers
            .iter()
            .map(|t| u64::from(t.src.0) * n + u64::from(t.dst.0))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|k| (Rank::new((k / n) as u32), Rank::new((k % n) as u32)))
            .collect()
    }

    /// Rename the algorithm (used when deriving variants). The renamed
    /// spec starts with empty memos: a verdict's message names the spec.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self.memos = Arc::default();
        self
    }

    /// [`verify_collective`](crate::verify_collective) of this spec, run
    /// on the first call and memoized: every later call, on any clone,
    /// returns the same verdict without replaying the transfers.
    pub fn verified(&self) -> Result<()> {
        self.memos
            .verdict
            .get_or_init(|| crate::verify_collective(self))
            .clone()
    }

    /// The memoized verdict of [`Self::verified`], or `None` when no call
    /// has computed it yet.
    pub fn verdict(&self) -> Option<&Result<()>> {
        self.memos.verdict.get()
    }

    /// The spec-only derivation in `slot`, computed by `derive` on the
    /// first call on any clone of the spec and shared from then on.
    /// Concurrent first calls run `derive` once and share its result.
    ///
    /// # Panics
    ///
    /// If `slot` already holds a value of another type than `T`.
    pub fn derived<T: Any + Send + Sync>(
        &self,
        slot: Derivation,
        derive: impl FnOnce(&Self) -> T,
    ) -> Arc<T> {
        let memo = self.memos.derived[slot as usize].get_or_init(|| Arc::new(derive(self)));
        Arc::clone(memo)
            .downcast()
            .unwrap_or_else(|_| panic!("the {slot:?} memo slot holds another type"))
    }
}

/// The first transfer, in declaration order, whose `(src, dst, step,
/// chunk)` tuple an earlier transfer already declared.
///
/// A spec rarely repeats a tuple, so a sort of one `u64` digest per
/// transfer settles the common case: distinct digests mean distinct
/// tuples. The digest is exact while every field is below 2^16; past
/// that, two tuples may share one. Only when some digest repeats does one
/// sort of `(tuple, index)` pairs, the tuple packed into a `u128`, put
/// each tuple's declarations next to each other in declaration order. A
/// repeat is the later of two adjacent equal tuples; the smallest such
/// index is the first repeat.
fn first_duplicate(transfers: &[TransferRec]) -> Option<usize> {
    let mut digests: Vec<u64> = transfers
        .iter()
        .map(|t| {
            u64::from(t.src.0) << 48
                ^ u64::from(t.dst.0) << 32
                ^ u64::from(t.chunk.0) << 16
                ^ u64::from(t.step.0)
        })
        .collect();
    digests.sort_unstable();
    if !digests.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }
    let mut keys: Vec<(u128, usize)> = transfers
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let key = u128::from(t.src.0) << 96
                | u128::from(t.dst.0) << 64
                | u128::from(t.chunk.0) << 32
                | u128::from(t.step.0);
            (key, i)
        })
        .collect();
    keys.sort_unstable();
    keys.windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1].1)
        .min()
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
    fn reports_the_first_repeat_in_declaration_order() {
        // Two duplicate pairs: (0, 1, 2, 1) repeats at index 3 and
        // (1, 0, 0, 0) at index 4. Sorted, the (1, 0, ..) pair comes last
        // and the (0, 1, ..) pair first; the report names the transfer
        // declared first among the repeats.
        let e = AlgoSpec::new(
            "t",
            OpType::AllGather,
            2,
            vec![
                rec(1, 0, 0, 0),
                rec(0, 1, 2, 1),
                rec(0, 1, 0, 0),
                rec(0, 1, 2, 1),
                rec(1, 0, 0, 0),
            ],
        )
        .unwrap_err();
        assert_eq!(
            e.to_string(),
            "evaluation error: `t`: duplicate transfer (r0, r1, s2, c1)"
        );
        // A range error after the first repeat does not hide it; one
        // before it wins.
        let e = AlgoSpec::new(
            "t",
            OpType::AllGather,
            2,
            vec![rec(0, 1, 0, 0), rec(0, 1, 0, 0), rec(0, 2, 0, 0)],
        )
        .unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
        let e = AlgoSpec::new(
            "t",
            OpType::AllGather,
            2,
            vec![rec(0, 1, 0, 0), rec(1, 1, 0, 0), rec(0, 1, 0, 0)],
        )
        .unwrap_err();
        assert!(e.to_string().contains("self-transfer"), "{e}");
    }

    #[test]
    fn tuples_sharing_a_digest_are_not_duplicates() {
        // Steps past 2^16 overlap the chunk's bits of the digest: these
        // two tuples share one digest but differ, and a third repeats the
        // first.
        let mut ts = vec![rec(0, 1, 1 << 16, 0), rec(0, 1, 0, 1)];
        assert!(AlgoSpec::new("t", OpType::AllGather, 2, ts.clone()).is_ok());
        ts.push(rec(0, 1, 1 << 16, 0));
        let e = AlgoSpec::new("t", OpType::AllGather, 2, ts).unwrap_err();
        assert_eq!(
            e.to_string(),
            "evaluation error: `t`: duplicate transfer (r0, r1, s65536, c0)"
        );
    }

    #[test]
    fn connections_are_distinct_and_ascending() {
        let s = AlgoSpec::new(
            "t",
            OpType::AllGather,
            3,
            vec![
                rec(2, 0, 0, 0),
                rec(0, 1, 0, 1),
                rec(2, 0, 1, 1),
                rec(0, 2, 0, 2),
            ],
        )
        .unwrap();
        let pairs: Vec<(u32, u32)> = s.connections().iter().map(|(a, b)| (a.0, b.0)).collect();
        assert_eq!(pairs, [(0, 1), (0, 2), (2, 0)]);
    }

    #[test]
    fn clones_share_memos_that_equality_and_debug_ignore() {
        let fresh = || {
            AlgoSpec::new(
                "t",
                OpType::AllGather,
                2,
                vec![rec(0, 1, 0, 0), rec(1, 0, 0, 1)],
            )
            .unwrap()
        };
        let spec = fresh();
        let clone = spec.clone();
        assert_eq!(clone.verified(), Ok(()));
        assert_eq!(spec.verdict(), Some(&Ok(())));
        let a = spec.derived(Derivation::DeadTasks, |s| s.transfers().len());
        let b = clone.derived(Derivation::DeadTasks, |_| unreachable!());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(spec, fresh());
        assert_eq!(format!("{spec:?}"), format!("{:?}", fresh()));
        assert!(spec.with_name("u").verdict().is_none());
    }

    #[test]
    fn rejects_empty() {
        let e = AlgoSpec::new("t", OpType::AllGather, 2, vec![]).unwrap_err();
        assert!(e.to_string().contains("no transfers"));
    }
}
