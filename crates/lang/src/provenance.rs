//! The provenance kernel: the collective contract and the per-chunk
//! replay, each defined once.
//!
//! The static verifier, the simulator's data check and the resume
//! check's provenance proof replay contribution counts ([`Counts`]);
//! the dead-transfer lint RA004 replays task provenance
//! ([`Provenance`]). All of them replay over `(rank, chunk)` slots
//! ([`Slots`]) against one contract ([`Slots::initial`],
//! [`Slots::contract_violation`], [`required`]). In a step group every
//! move reads its source from the pre-group state, then the writes commit
//! in order ([`Slots::apply_group`]); a sequential replay is a replay
//! whose groups have one move each ([`Slots::apply`]).
//!
//! A slot's contribution counts are sparse ([`Runs`]): sorted runs of
//! source ranks that share one count, the first two stored inline. A copy
//! moves a run or two, a reduction is one linear merge of two run lists,
//! and the contract compares each slot with the one run it must end with,
//! so a replay costs O(transfers × runs per slot) rather than O(transfers
//! × ranks). Error messages render the counts dense ([`Runs::to_dense`]).

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

/// The run every required slot of `chunk` ends with: the chunk owner's
/// data once for AllGather, every rank's data once (the full reduction)
/// otherwise.
fn final_run(op: OpType, n_ranks: u32, chunk: u32) -> Run {
    match op {
        OpType::AllGather => Run::new(chunk..chunk + 1, 1),
        _ => Run::new(0..n_ranks, 1),
    }
}

/// What a copy, a reduction and a write's stamp do to a slot's value.
pub trait SlotDomain {
    /// One slot's value.
    type Value: Clone + Default;
    /// Working space a fold reuses from one call to the next.
    type Work: Default;
    /// `recvReduceCopy`: fold `src` into `dst`.
    fn fold(dst: &mut Self::Value, src: &Self::Value, work: &mut Self::Work);
    /// Record that move `writer` produced `dst`'s new value.
    fn stamp(dst: &mut Self::Value, writer: usize);
}

/// One run of a [`Runs`] set: source ranks `lo..hi`, each of whose data
/// a slot holds `n` times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Run {
    lo: u32,
    hi: u32,
    /// Saturates at 255 (a run long past correct).
    n: u8,
}

impl Run {
    fn new(ranks: Range<u32>, n: u8) -> Self {
        Self {
            lo: ranks.start,
            hi: ranks.end,
            n,
        }
    }
}

/// A slot's contributions as a sparse set: sorted, disjoint, non-empty
/// runs of source ranks, each with one nonzero count, no two touching runs
/// with the same count. Up to two runs live inline, so copying a slot that
/// holds one rank's data or one contiguous partial sum copies a fixed 24
/// bytes and allocates nothing.
#[derive(Debug, Default)]
pub struct Runs {
    len: u32,
    /// The runs while there are at most two.
    inline: [Run; 2],
    /// The runs when there are more; the buffer outlives a shrink, so a
    /// slot that once spilled reuses it.
    heap: Vec<Run>,
}

impl Runs {
    /// The runs, in rank order.
    fn runs(&self) -> &[Run] {
        match self.len {
            0..=2 => &self.inline[..self.len as usize],
            _ => &self.heap,
        }
    }

    /// Whether the slot holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The counts as one `u8` per source rank `0..n_ranks`.
    pub fn to_dense(&self, n_ranks: u32) -> Vec<u8> {
        let mut dense = vec![0; n_ranks as usize];
        for r in self.runs() {
            dense[r.lo as usize..r.hi as usize].fill(r.n);
        }
        dense
    }

    /// Hold exactly `run`.
    fn set_one(&mut self, run: Run) {
        self.len = 1;
        self.inline[0] = run;
    }

    /// Replace the runs with canonical `runs`.
    fn set(&mut self, runs: &[Run]) {
        self.len = runs.len() as u32;
        match *runs {
            [] => {}
            [a] => self.inline[0] = a,
            [a, b] => self.inline = [a, b],
            _ => {
                self.heap.clear();
                self.heap.extend_from_slice(runs);
            }
        }
    }
}

impl Clone for Runs {
    fn clone(&self) -> Self {
        let mut out = Self::default();
        out.clone_from(self);
        out
    }

    fn clone_from(&mut self, source: &Self) {
        self.len = source.len;
        self.inline = source.inline;
        if source.len > 2 {
            self.heap.clear();
            self.heap.extend_from_slice(&source.heap);
        }
    }
}

/// Append `run` to canonical `out`, merging it into a touching last run of
/// the same count.
fn push_run(out: &mut Vec<Run>, run: Run) {
    match out.last_mut() {
        Some(last) if last.hi == run.lo && last.n == run.n => last.hi = run.hi,
        _ => out.push(run),
    }
}

/// The rank-wise saturating sum of canonical run lists `a` and `b`, into
/// `out`: one linear merge.
fn merge(a: &[Run], b: &[Run], out: &mut Vec<Run>) {
    out.clear();
    let (mut ia, mut ib) = (a.iter().copied(), b.iter().copied());
    let (mut x, mut y) = (ia.next(), ib.next());
    loop {
        match (x, y) {
            (None, None) => break,
            (Some(p), None) => {
                push_run(out, p);
                out.extend(ia);
                break;
            }
            (None, Some(q)) => {
                push_run(out, q);
                out.extend(ib);
                break;
            }
            (Some(p), Some(q)) if p.hi <= q.lo => {
                push_run(out, p);
                x = ia.next();
            }
            (Some(p), Some(q)) if q.hi <= p.lo => {
                push_run(out, q);
                y = ib.next();
            }
            (Some(mut p), Some(mut q)) => {
                // Overlap: the head only one side covers, then the overlap.
                let lo = p.lo.max(q.lo);
                let head = if p.lo < lo { p } else { q };
                if head.lo < lo {
                    push_run(out, Run::new(head.lo..lo, head.n));
                }
                let hi = p.hi.min(q.hi);
                push_run(out, Run::new(lo..hi, p.n.saturating_add(q.n)));
                p.lo = hi;
                q.lo = hi;
                x = if p.lo < p.hi { Some(p) } else { ia.next() };
                y = if q.lo < q.hi { Some(q) } else { ib.next() };
            }
        }
    }
}

/// Contribution counts: for every source rank, how many times a slot holds
/// its data, as a sparse [`Runs`] set.
pub struct Counts;

impl SlotDomain for Counts {
    type Value = Runs;
    type Work = Vec<Run>;
    fn fold(dst: &mut Runs, src: &Runs, work: &mut Vec<Run>) {
        merge(dst.runs(), src.runs(), work);
        dst.set(work);
    }
    fn stamp(_: &mut Runs, _: usize) {}
}

/// Task provenance: a bitset over a chunk's local task indices naming
/// every task whose delivery flowed into the slot's current value. Words
/// past the end are zero.
pub struct Provenance;

impl SlotDomain for Provenance {
    type Value = Vec<u64>;
    type Work = ();
    fn fold(dst: &mut Vec<u64>, src: &Vec<u64>, _: &mut ()) {
        if dst.len() < src.len() {
            dst.resize(src.len(), 0);
        }
        for (a, b) in dst.iter_mut().zip(src) {
            *a |= b;
        }
    }
    fn stamp(dst: &mut Vec<u64>, writer: usize) {
        let word = writer / 64;
        if dst.len() <= word {
            dst.resize(word + 1, 0);
        }
        dst[word] |= 1 << (writer % 64);
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

/// A table of slot values.
pub struct Slots<D: SlotDomain> {
    values: Vec<D::Value>,
    /// Pre-group source values of the group being applied.
    reads: Vec<D::Value>,
    work: D::Work,
}

impl<D: SlotDomain> Clone for Slots<D> {
    fn clone(&self) -> Self {
        Self {
            values: self.values.clone(),
            reads: Vec::new(),
            work: D::Work::default(),
        }
    }
}

impl<D: SlotDomain> Slots<D> {
    /// `n_slots` empty slots.
    pub fn new(n_slots: usize) -> Self {
        Self {
            values: vec![D::Value::default(); n_slots],
            reads: Vec::new(),
            work: D::Work::default(),
        }
    }

    /// Empty every slot and resize the table to `n_slots`, keeping the
    /// slots' buffers.
    pub fn clear(&mut self, n_slots: usize) {
        let empty = D::Value::default();
        self.values.truncate(n_slots);
        for v in &mut self.values {
            v.clone_from(&empty);
        }
        self.values.resize(n_slots, empty);
    }

    /// Slot `i`'s value.
    pub fn slot(&self, i: usize) -> &D::Value {
        &self.values[i]
    }

    /// Write `value` into slot `dst`: a copy replaces, a reduction folds,
    /// then `writer` stamps — the one definition of both.
    pub fn write(&mut self, dst: usize, value: &D::Value, comm: CommType, writer: usize) {
        let slot = &mut self.values[dst];
        match comm {
            CommType::Recv => slot.clone_from(value),
            CommType::Rrc => D::fold(slot, value, &mut self.work),
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
        for (n, m) in group.clone().enumerate() {
            let value = &self.values[m.src];
            match reads.get_mut(n) {
                Some(read) => read.clone_from(value),
                None => reads.push(value.clone()),
            }
        }
        for (m, value) in group.zip(&reads) {
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
        let mut slots = Self::new(0);
        slots.reset(op, n_ranks, chunks);
        slots
    }

    /// Lay [`Slots::initial`]'s precondition over this table in place,
    /// keeping the slots' buffers.
    pub fn reset(&mut self, op: OpType, n_ranks: u32, chunks: Range<u32>) {
        self.clear(n_ranks as usize * chunks.len());
        for (slot, (rank, chunk)) in self.values.iter_mut().zip(slot_coords(n_ranks, chunks)) {
            if holds_own_data(op, rank, chunk) {
                slot.set_one(Run::new(rank..rank + 1, 1));
            }
        }
    }

    /// The first slot, in [`Slots::initial`]'s layout, that breaks `op`'s
    /// postcondition: `(rank, chunk, counts held, counts expected)`, the
    /// counts one `u8` per source rank.
    pub fn contract_violation(
        &self,
        op: OpType,
        chunks: Range<u32>,
    ) -> Option<(u32, u32, Vec<u8>, Vec<u8>)> {
        let n_ranks = self.values.len().checked_div(chunks.len())? as u32;
        slot_coords(n_ranks, chunks)
            .zip(&self.values)
            .find(|&((rank, chunk), slot)| {
                required(op, rank, chunk) && slot.runs() != [final_run(op, n_ranks, chunk)]
            })
            .map(|((rank, chunk), slot)| {
                let mut want = Runs::default();
                want.set_one(final_run(op, n_ranks, chunk));
                (rank, chunk, slot.to_dense(n_ranks), want.to_dense(n_ranks))
            })
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

    /// The sparse form of dense per-rank counts.
    fn runs(dense: &[u8]) -> Runs {
        let mut v = Vec::new();
        for (r, &n) in (0u32..).zip(dense) {
            if n > 0 {
                push_run(&mut v, Run::new(r..r + 1, n));
            }
        }
        let mut out = Runs::default();
        out.set(&v);
        out
    }

    fn dense(s: &Slots<Counts>, i: usize, n_ranks: u32) -> Vec<u8> {
        s.slot(i).to_dense(n_ranks)
    }

    #[test]
    fn copy_replaces_reduce_accumulates() {
        let mut s = Slots::<Counts>::new(2);
        s.write(0, &runs(&[1, 0, 0, 0]), CommType::Recv, 0);
        s.write(1, &runs(&[0, 0, 1, 0]), CommType::Recv, 0);
        s.apply(mv(1, 0, CommType::Rrc, 0));
        assert_eq!(dense(&s, 0, 4), [1, 0, 1, 0]);
        s.apply(mv(1, 0, CommType::Recv, 0));
        assert_eq!(dense(&s, 0, 4), [0, 0, 1, 0]);
    }

    #[test]
    fn merges_stay_canonical() {
        let mut work = Vec::new();
        // Touching runs of one count coalesce: a ring's partial sums stay
        // one run.
        let mut acc = runs(&[1, 1, 0, 0, 0]);
        Counts::fold(&mut acc, &runs(&[0, 0, 1, 0, 0]), &mut work);
        assert_eq!(acc.runs(), [Run::new(0..3, 1)]);
        // Overlaps split and add; the sum of a strided set spills past two
        // runs and back.
        Counts::fold(&mut acc, &runs(&[0, 2, 0, 0, 1]), &mut work);
        assert_eq!(
            acc.runs(),
            [
                Run::new(0..1, 1),
                Run::new(1..2, 3),
                Run::new(2..3, 1),
                Run::new(4..5, 1)
            ]
        );
        assert_eq!(acc.to_dense(5), [1, 3, 1, 0, 1]);
        acc.clone_from(&runs(&[0, 0, 0, 1, 0]));
        assert!(acc.heap.capacity() >= 4);
        assert_eq!(acc.runs(), runs(&[0, 0, 0, 1, 0]).runs());
        // Counts saturate at 255 and the saturated runs coalesce.
        let mut hot = runs(&[200, 255, 0]);
        Counts::fold(&mut hot, &runs(&[100, 9, 0]), &mut work);
        assert_eq!(hot.runs(), [Run::new(0..2, 255)]);
        // An empty source is a no-op; an empty destination takes a copy.
        Counts::fold(&mut hot, &Runs::default(), &mut work);
        let mut empty = Runs::default();
        Counts::fold(&mut empty, &hot, &mut work);
        assert_eq!(empty.runs(), hot.runs());
    }

    #[test]
    fn double_reduction_is_detectable() {
        let mut s = Slots::initial(OpType::ReduceScatter, 2, 0..1);
        s.apply(mv(1, 0, CommType::Rrc, 0));
        s.apply(mv(1, 0, CommType::Rrc, 0)); // fold rank 1 twice — wrong for sum
        assert_eq!(dense(&s, 0, 2), [1, 2]);
        let violation = s.contract_violation(OpType::ReduceScatter, 0..1);
        assert_eq!(violation, Some((0, 0, vec![1, 2], vec![1, 1])));
    }

    #[test]
    fn group_reads_observe_the_pre_group_state() {
        // Swap two slots in one step: both reads see the old values.
        let mut s = Slots::initial(OpType::AllGather, 2, 0..2);
        let (a, b) = (0, 3); // (rank 0, chunk 0) and (rank 1, chunk 1)
        s.apply_group([mv(a, b, CommType::Recv, 0), mv(b, a, CommType::Recv, 0)]);
        assert_eq!(dense(&s, a, 2), [0, 1]);
        assert_eq!(dense(&s, b, 2), [1, 0]);
        // Applied one at a time, the second move reads the first's write.
        let mut s = Slots::initial(OpType::AllGather, 2, 0..2);
        s.apply(mv(a, b, CommType::Recv, 0));
        s.apply(mv(b, a, CommType::Recv, 0));
        assert_eq!(dense(&s, a, 2), [1, 0]);
    }

    #[test]
    fn provenance_writes_stamp_the_writer() {
        let mut s = Slots::<Provenance>::new(3);
        s.apply(mv(0, 1, CommType::Recv, 70));
        s.apply(mv(1, 2, CommType::Rrc, 3));
        assert_eq!(s.slot(1), &[0, 1 << 6]);
        assert_eq!(s.slot(2), &[1 << 3, 1 << 6]);
        s.apply(mv(0, 2, CommType::Recv, 5));
        assert_eq!(s.slot(2), &[1 << 5]);
        // Clearing keeps the table's slots but drops their bits.
        s.clear(2);
        assert_eq!((s.slot(0), s.slot(1)), (&vec![], &vec![]));
    }

    /// A 3-rank table over chunks `0..3`, one literal row per slot in
    /// [`Slots::initial`]'s layout.
    fn table(rows: [[u8; 3]; 9]) -> Slots<Counts> {
        let mut s = Slots::new(9);
        for (i, row) in rows.iter().enumerate() {
            s.write(i, &runs(row), CommType::Recv, 0);
        }
        s
    }

    fn rows(s: &Slots<Counts>, n_slots: usize) -> Vec<Vec<u8>> {
        (0..n_slots).map(|i| dense(s, i, 3)).collect()
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
            rows(&Slots::initial(OpType::AllGather, 3, 0..3), 9),
            rows(&gather, 9)
        );
        for op in [OpType::AllReduce, OpType::ReduceScatter] {
            assert_eq!(rows(&Slots::initial(op, 3, 0..3), 9), rows(&reduce, 9));
        }
        // A sub-range of chunks keeps the same rows, rank-major.
        let mut tail = Slots::initial(OpType::AllGather, 3, 1..3);
        let expected = [
            [0, 0, 0],
            [0, 0, 0],
            [0, 1, 0],
            [0, 0, 0],
            [0, 0, 0],
            [0, 0, 1],
        ];
        assert_eq!(rows(&tail, 6), expected);
        // Resetting a used table lays the same precondition again.
        tail.apply(mv(2, 0, CommType::Rrc, 0));
        tail.reset(OpType::AllGather, 3, 1..3);
        assert_eq!(rows(&tail, 6), expected);
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
            Some((2, 1, vec![0, 0, 0], vec![0, 1, 0]))
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
            Some((1, 1, vec![1, 2, 1], ones.to_vec()))
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
            Some((2, 2, vec![1, 1, 0], ones.to_vec()))
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
