//! The provenance kernel: the collective contract and the per-chunk
//! replay, each defined once.
//!
//! The static verifier, the simulator's data check and the residual
//! compiler's provenance proof replay contribution counts ([`Counts`]);
//! the dead-transfer lints RA004/RA008 replay task provenance
//! ([`Provenance`]). All of them replay over `(rank, chunk)` slots
//! ([`Slots`]) against one contract ([`Slots::initial`],
//! [`Slots::contract_violation`], [`required`]). In a step group every
//! move reads its source from the pre-group state, then the writes commit
//! in order ([`Slots::apply_group`]); a sequential replay is a replay
//! whose groups have one move each ([`Slots::apply`]).

use crate::ast::{CommType, OpType};
use rescc_topology::Step;
use std::ops::Range;

/// Whether `op`'s postcondition constrains slot `(rank, chunk)`. Only
/// ReduceScatter leaves slots free: a rank's non-owned chunks are scratch.
pub fn required(op: OpType, rank: u32, chunk: u32) -> bool {
    op != OpType::ReduceScatter || rank == chunk
}

/// Whether slot `(rank, chunk)` starts with its rank's own data (once) or
/// empty: every slot of a reduction, only the owned chunk of AllGather.
fn holds_own_data(op: OpType, rank: u32, chunk: u32) -> bool {
    op != OpType::AllGather || rank == chunk
}

/// How many times source rank `source`'s data every required slot of
/// `chunk` ends with: the chunk owner's data once for AllGather, every
/// rank's data once (the full reduction) otherwise.
fn final_count(op: OpType, chunk: u32, source: usize) -> u8 {
    u8::from(op != OpType::AllGather || source == chunk as usize)
}

/// What a reduction and a write's stamp do to a slot's words.
pub trait SlotDomain {
    /// One word of a slot.
    type Word: Copy + Default;
    /// `recvReduceCopy`: fold `src` into `dst`.
    fn fold(dst: &mut [Self::Word], src: &[Self::Word]);
    /// Record that move `writer` produced `dst`'s new value.
    fn stamp(dst: &mut [Self::Word], writer: usize);
}

/// Contribution counts, one `u8` per source rank, saturating at 255 (a
/// run long past correct).
#[derive(Clone)]
pub struct Counts;

impl SlotDomain for Counts {
    type Word = u8;
    fn fold(dst: &mut [u8], src: &[u8]) {
        for (a, b) in dst.iter_mut().zip(src) {
            *a = a.saturating_add(*b);
        }
    }
    fn stamp(_: &mut [u8], _: usize) {}
}

/// Task provenance: a bitset over a chunk's local task indices naming
/// every task whose delivery flowed into the slot's current value.
#[derive(Clone)]
pub struct Provenance;

impl SlotDomain for Provenance {
    type Word = u64;
    fn fold(dst: &mut [u64], src: &[u64]) {
        for (a, b) in dst.iter_mut().zip(src) {
            *a |= b;
        }
    }
    fn stamp(dst: &mut [u64], writer: usize) {
        dst[writer / 64] |= 1 << (writer % 64);
    }
}

/// One write of a replay: slot `src`'s value lands in slot `dst` with
/// `comm` semantics; a [`Provenance`] write stamps bit `writer`.
#[derive(Clone, Copy, Debug)]
pub struct Move {
    /// Slot read.
    pub src: usize,
    /// Slot written.
    pub dst: usize,
    /// Copy or reduce.
    pub comm: CommType,
    /// The writer's local index.
    pub writer: usize,
}

/// A table of slots in one flat allocation: slot `i` is words
/// `i * width .. (i + 1) * width`.
#[derive(Clone)]
pub struct Slots<D: SlotDomain> {
    words: Vec<D::Word>,
    width: usize,
    /// Pre-group source values of the group being applied.
    reads: Vec<D::Word>,
}

impl<D: SlotDomain> Slots<D> {
    /// `n_slots` zeroed slots of `width` words each.
    pub fn new(n_slots: usize, width: usize) -> Self {
        Self {
            words: vec![D::Word::default(); n_slots * width],
            width,
            reads: Vec::new(),
        }
    }

    /// Slot `i`'s words.
    pub fn slot(&self, i: usize) -> &[D::Word] {
        &self.words[i * self.width..(i + 1) * self.width]
    }

    /// Write `value` into slot `dst`: a copy replaces, a reduction folds,
    /// then `writer` stamps — the one definition of both.
    pub fn write(&mut self, dst: usize, value: &[D::Word], comm: CommType, writer: usize) {
        let slot = &mut self.words[dst * self.width..(dst + 1) * self.width];
        match comm {
            CommType::Recv => slot.copy_from_slice(value),
            CommType::Rrc => D::fold(slot, value),
        }
        D::stamp(slot, writer);
    }

    /// Apply one step group: read every source, then commit every write.
    pub fn apply_group<I>(&mut self, group: I)
    where
        I: IntoIterator<Item = Move>,
        I::IntoIter: Clone,
    {
        let group = group.into_iter();
        let mut reads = std::mem::take(&mut self.reads);
        reads.clear();
        for m in group.clone() {
            reads.extend_from_slice(self.slot(m.src));
        }
        for (m, value) in group.zip(reads.chunks_exact(self.width)) {
            self.write(m.dst, value, m.comm, m.writer);
        }
        self.reads = reads;
    }

    /// Apply one move on its own: a step group of one.
    pub fn apply(&mut self, m: Move) {
        self.apply_group([m]);
    }
}

impl Slots<Counts> {
    /// `op`'s precondition over chunks `chunks` of every rank, slot
    /// `(rank, chunk)` at `rank * chunks.len() + (chunk - chunks.start)`.
    pub fn initial(op: OpType, n_ranks: u32, chunks: Range<u32>) -> Self {
        let w = n_ranks as usize;
        let mut slots = Self::new(w * chunks.len(), w);
        for (i, (rank, chunk)) in slot_coords(n_ranks, chunks).enumerate() {
            if holds_own_data(op, rank, chunk) {
                slots.words[i * w + rank as usize] = 1;
            }
        }
        slots
    }

    /// The first slot, in [`Slots::initial`]'s layout, that breaks `op`'s
    /// postcondition: `(rank, chunk, counts held, counts expected)`.
    pub fn contract_violation(
        &self,
        op: OpType,
        chunks: Range<u32>,
    ) -> Option<(u32, u32, &[u8], Vec<u8>)> {
        let want = |chunk: u32| (0..self.width).map(move |s| final_count(op, chunk, s));
        slot_coords(self.width as u32, chunks)
            .enumerate()
            .find(|&(i, (rank, chunk))| {
                required(op, rank, chunk) && !self.slot(i).iter().copied().eq(want(chunk))
            })
            .map(|(i, (rank, chunk))| (rank, chunk, self.slot(i), want(chunk).collect()))
    }
}

/// `(rank, chunk)` of each slot of a [`Slots::initial`] layout, in order.
fn slot_coords(n_ranks: u32, chunks: Range<u32>) -> impl Iterator<Item = (u32, u32)> {
    (0..n_ranks).flat_map(move |rank| chunks.clone().map(move |chunk| (rank, chunk)))
}

/// Split step-sorted `items` into their step groups: the maximal runs that
/// share one step.
pub fn step_groups<T>(sorted: &[T], step: impl Fn(&T) -> Step) -> impl Iterator<Item = &[T]> {
    sorted.chunk_by(move |a, b| step(a) == step(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(src: usize, dst: usize, comm: CommType, writer: usize) -> Move {
        Move {
            src,
            dst,
            comm,
            writer,
        }
    }

    #[test]
    fn copy_replaces_reduce_accumulates() {
        let mut s = Slots::<Counts>::new(2, 4);
        s.write(0, &[1, 0, 0, 0], CommType::Recv, 0);
        s.write(1, &[0, 0, 1, 0], CommType::Recv, 0);
        s.apply(mv(1, 0, CommType::Rrc, 0));
        assert_eq!(s.slot(0), &[1, 0, 1, 0]);
        s.apply(mv(1, 0, CommType::Recv, 0));
        assert_eq!(s.slot(0), &[0, 0, 1, 0]);
    }

    #[test]
    fn double_reduction_is_detectable() {
        let mut s = Slots::initial(OpType::ReduceScatter, 2, 0..1);
        s.apply(mv(1, 0, CommType::Rrc, 0));
        s.apply(mv(1, 0, CommType::Rrc, 0)); // fold rank 1 twice — wrong for sum
        assert_eq!(s.slot(0), &[1, 2]);
        let (rank, chunk, got, want) = s.contract_violation(OpType::ReduceScatter, 0..1).unwrap();
        assert_eq!((rank, chunk, got), (0, 0, &[1u8, 2][..]));
        assert_eq!(want, vec![1, 1]);
    }

    #[test]
    fn group_reads_observe_the_pre_group_state() {
        // Swap two slots in one step: both reads see the old values.
        let mut s = Slots::initial(OpType::AllGather, 2, 0..2);
        let (a, b) = (0, 3); // (rank 0, chunk 0) and (rank 1, chunk 1)
        s.apply_group([mv(a, b, CommType::Recv, 0), mv(b, a, CommType::Recv, 0)]);
        assert_eq!(s.slot(a), &[0, 1]);
        assert_eq!(s.slot(b), &[1, 0]);
        // Applied one at a time, the second move reads the first's write.
        let mut s = Slots::initial(OpType::AllGather, 2, 0..2);
        s.apply(mv(a, b, CommType::Recv, 0));
        s.apply(mv(b, a, CommType::Recv, 0));
        assert_eq!(s.slot(a), &[1, 0]);
    }

    #[test]
    fn provenance_writes_stamp_the_writer() {
        let mut s = Slots::<Provenance>::new(3, 2);
        s.apply(mv(0, 1, CommType::Recv, 70));
        s.apply(mv(1, 2, CommType::Rrc, 3));
        assert_eq!(s.slot(1), &[0, 1 << 6]);
        assert_eq!(s.slot(2), &[1 << 3, 1 << 6]);
        s.apply(mv(0, 2, CommType::Recv, 5));
        assert_eq!(s.slot(2), &[1 << 5, 0]);
    }

    /// A 3-rank table over chunks `0..3`, one literal row per slot in
    /// [`Slots::initial`]'s layout.
    fn table(rows: [[u8; 3]; 9]) -> Slots<Counts> {
        let mut s = Slots::new(9, 3);
        for (i, row) in rows.iter().enumerate() {
            s.write(i, row, CommType::Recv, 0);
        }
        s
    }

    fn rows(s: &Slots<Counts>) -> Vec<&[u8]> {
        (0..9).map(|i| s.slot(i)).collect()
    }

    #[test]
    fn initial_tables() {
        // Slot (rank, chunk) is row 3 * rank + chunk.
        let gather = table([
            [1, 0, 0],
            [0, 0, 0],
            [0, 0, 0],
            [0, 0, 0],
            [0, 1, 0],
            [0, 0, 0],
            [0, 0, 0],
            [0, 0, 0],
            [0, 0, 1],
        ]);
        let reduce = table([
            [1, 0, 0],
            [1, 0, 0],
            [1, 0, 0],
            [0, 1, 0],
            [0, 1, 0],
            [0, 1, 0],
            [0, 0, 1],
            [0, 0, 1],
            [0, 0, 1],
        ]);
        assert_eq!(
            rows(&Slots::initial(OpType::AllGather, 3, 0..3)),
            rows(&gather)
        );
        for op in [OpType::AllReduce, OpType::ReduceScatter] {
            assert_eq!(rows(&Slots::initial(op, 3, 0..3)), rows(&reduce));
        }
        // A sub-range of chunks keeps the same rows, rank-major.
        let tail = Slots::initial(OpType::AllGather, 3, 1..3);
        assert_eq!(
            (0..6).map(|i| tail.slot(i)).collect::<Vec<_>>(),
            [
                [0, 0, 0],
                [0, 0, 0],
                [0, 1, 0],
                [0, 0, 0],
                [0, 0, 0],
                [0, 0, 1]
            ]
        );
    }

    #[test]
    fn contract_violations() {
        let ones = [1, 1, 1];
        // AllGather: every slot of chunk c ends with rank c's data once.
        let gathered = [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ];
        assert_eq!(
            table(gathered).contract_violation(OpType::AllGather, 0..3),
            None
        );
        let mut late = gathered;
        late[7] = [0, 0, 0]; // rank 2 never got chunk 1
        assert_eq!(
            table(late).contract_violation(OpType::AllGather, 0..3),
            Some((2, 1, &[0u8, 0, 0][..], vec![0, 1, 0]))
        );
        // AllReduce: every slot fully reduced, each rank exactly once.
        let mut reduced = [ones; 9];
        assert_eq!(
            table(reduced).contract_violation(OpType::AllReduce, 0..3),
            None
        );
        reduced[4] = [1, 2, 1];
        reduced[8] = [0, 1, 1];
        assert_eq!(
            table(reduced).contract_violation(OpType::AllReduce, 0..3),
            Some((1, 1, &[1u8, 2, 1][..], ones.to_vec()))
        );
        // ReduceScatter: only the owned slots (rows 0, 4, 8) are checked.
        let mut scattered = [[0, 2, 0]; 9];
        for owned in [0, 4, 8] {
            scattered[owned] = ones;
        }
        assert_eq!(
            table(scattered).contract_violation(OpType::ReduceScatter, 0..3),
            None
        );
        scattered[8] = [1, 1, 0];
        assert_eq!(
            table(scattered).contract_violation(OpType::ReduceScatter, 0..3),
            Some((2, 2, &[1u8, 1, 0][..], ones.to_vec()))
        );
        assert!(!required(OpType::ReduceScatter, 2, 1));
        assert!(required(OpType::AllReduce, 2, 1) && required(OpType::AllGather, 2, 1));
    }

    #[test]
    fn step_groups_split_maximal_runs() {
        let steps = [0u32, 0, 1, 3, 3, 3];
        let groups: Vec<&[u32]> = step_groups(&steps, |&s| Step::new(s)).collect();
        assert_eq!(groups, vec![&[0, 0][..], &[1], &[3, 3, 3]]);
    }
}
