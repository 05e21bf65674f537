//! Differential oracle for the provenance kernel's contribution counts.
//!
//! `dense` below is a test-only reference replay: one `u8` per source rank
//! in every slot, a reduction adds byte by byte with saturation at 255, and
//! the contract is checked byte by byte. The kernel
//! (`rescc::lang::provenance`) must agree with it on:
//!
//! * the final tables (rendered dense) and `verify_collective`'s verdict,
//!   error text included, over the seed suite on the Table-3 topologies
//!   and seeded corruptions of every spec (a dropped transfer, a
//!   duplicated reduction, a transfer moved one step later);
//! * random step groups of copies and reductions, with counts driven past
//!   255;
//! * `Slots::initial` over every sub-range of chunks.

use rescc::algos::seed_suite;
use rescc::lang::provenance::{step_groups, Counts, Move, Slots};
use rescc::lang::{verify_collective, AlgoSpec, CommType, OpType, TransferRec};
use rescc::topology::{Step, Topology};
use std::ops::Range;

/// The dense replay: slot `i` is bytes `i * width .. (i + 1) * width`,
/// one contribution count per source rank.
mod dense {
    use rescc::lang::provenance::{required, step_groups, Move};
    use rescc::lang::{AlgoSpec, CommType, LangError, OpType, TransferRec};
    use std::ops::Range;

    fn eval_error(msg: String) -> LangError {
        LangError::Eval { msg }
    }

    fn holds_own_data(op: OpType, rank: u32, chunk: u32) -> bool {
        op != OpType::AllGather || rank == chunk
    }

    fn final_count(op: OpType, chunk: u32, source: usize) -> u8 {
        u8::from(op != OpType::AllGather || source == chunk as usize)
    }

    fn slot_coords(n_ranks: u32, chunks: Range<u32>) -> impl Iterator<Item = (u32, u32)> {
        (0..n_ranks).flat_map(move |rank| chunks.clone().map(move |chunk| (rank, chunk)))
    }

    #[derive(Clone)]
    pub struct Table {
        words: Vec<u8>,
        width: usize,
        reads: Vec<u8>,
    }

    impl Table {
        pub fn initial(op: OpType, n_ranks: u32, chunks: Range<u32>) -> Self {
            let w = n_ranks as usize;
            let mut words = vec![0; w * w * chunks.len()];
            for (i, (rank, chunk)) in slot_coords(n_ranks, chunks).enumerate() {
                if holds_own_data(op, rank, chunk) {
                    words[i * w + rank as usize] = 1;
                }
            }
            Self {
                words,
                width: w,
                reads: Vec::new(),
            }
        }

        pub fn len(&self) -> usize {
            self.words.len() / self.width.max(1)
        }

        pub fn slot(&self, i: usize) -> &[u8] {
            &self.words[i * self.width..(i + 1) * self.width]
        }

        fn write(&mut self, dst: usize, value: &[u8], comm: CommType) {
            let slot = &mut self.words[dst * self.width..(dst + 1) * self.width];
            match comm {
                CommType::Recv => slot.copy_from_slice(value),
                CommType::Rrc => {
                    for (a, b) in slot.iter_mut().zip(value) {
                        *a = a.saturating_add(*b);
                    }
                }
            }
        }

        pub fn apply_group(&mut self, group: &[Move]) {
            let mut reads = std::mem::take(&mut self.reads);
            reads.clear();
            for m in group {
                reads.extend_from_slice(self.slot(m.src));
            }
            for (m, value) in group.iter().zip(reads.chunks_exact(self.width)) {
                self.write(m.dst, value, m.comm);
            }
            self.reads = reads;
        }

        pub fn contract_violation(
            &self,
            op: OpType,
            chunks: Range<u32>,
        ) -> Option<(u32, u32, Vec<u8>, Vec<u8>)> {
            let want = |chunk: u32| (0..self.width).map(move |s| final_count(op, chunk, s));
            slot_coords(self.width as u32, chunks)
                .enumerate()
                .find(|&(i, (rank, chunk))| {
                    required(op, rank, chunk) && !self.slot(i).iter().copied().eq(want(chunk))
                })
                .map(|(i, (rank, chunk))| {
                    (rank, chunk, self.slot(i).to_vec(), want(chunk).collect())
                })
        }
    }

    /// The static verifier over the dense replay, message for message.
    pub fn verify(spec: &AlgoSpec) -> Result<(), LangError> {
        let mut by_chunk: Vec<Vec<&TransferRec>> = vec![Vec::new(); spec.n_chunks() as usize];
        for t in spec.transfers() {
            by_chunk[t.chunk.index()].push(t);
        }
        for (c, transfers) in by_chunk.iter_mut().enumerate() {
            transfers.sort_by_key(|t| t.step);
            verify_chunk(spec, c as u32, transfers)?;
        }
        Ok(())
    }

    fn verify_chunk(spec: &AlgoSpec, c: u32, transfers: &[&TransferRec]) -> Result<(), LangError> {
        let mut state = Table::initial(spec.op(), spec.n_ranks(), c..c + 1);
        for group in step_groups(transfers, |t| t.step) {
            let step = group[0].step;
            if let Some(t) = group
                .iter()
                .find(|t| state.slot(t.src.index()).iter().all(|&n| n == 0))
            {
                return Err(eval_error(format!(
                    "`{}`: step {} sends uninitialized data — transfer {}->{} of chunk {} \
                     reads an empty buffer slot",
                    spec.name(),
                    step,
                    t.src,
                    t.dst,
                    t.chunk
                )));
            }
            let mut targets: Vec<(u32, bool)> = group
                .iter()
                .map(|t| (t.dst.0, t.comm == CommType::Recv))
                .collect();
            targets.sort_unstable();
            for w in targets.windows(2) {
                if w[0].0 == w[1].0 && (w[0].1 || w[1].1) {
                    return Err(eval_error(format!(
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
            if let Some(t) = group.iter().find(|t| {
                targets
                    .binary_search_by_key(&t.src.0, |&(dst, _)| dst)
                    .is_ok()
            }) {
                return Err(eval_error(format!(
                    "`{}`: step {} reads rank {} chunk c{} while another transfer of the \
                     same step writes it — the read could observe either value, so the \
                     result would be nondeterministic",
                    spec.name(),
                    step,
                    t.src,
                    c
                )));
            }
            let moves: Vec<Move> = group
                .iter()
                .map(|t| Move {
                    src: t.src.index(),
                    dst: t.dst.index(),
                    comm: t.comm,
                    writer: 0,
                })
                .collect();
            state.apply_group(&moves);
        }
        match state.contract_violation(spec.op(), c..c + 1) {
            None => Ok(()),
            Some((r, _, got, want)) => Err(eval_error(format!(
                "`{}` does not implement {}: rank r{r} chunk c{c} ends with \
                 contributions {got:?}, expected {want:?}",
                spec.name(),
                spec.op(),
            ))),
        }
    }
}

/// Assert that the kernel table and the dense one hold the same counts in
/// every slot and give the same contract verdict.
fn assert_same(
    kernel: &Slots<Counts>,
    oracle: &dense::Table,
    op: OpType,
    n_ranks: u32,
    chunks: Range<u32>,
    case: &str,
) {
    for i in 0..oracle.len() {
        assert_eq!(
            kernel.slot(i).to_dense(n_ranks),
            oracle.slot(i),
            "{case}: slot {i} diverged"
        );
    }
    assert_eq!(
        kernel.contract_violation(op, chunks.clone()),
        oracle.contract_violation(op, chunks),
        "{case}: contract verdicts diverged"
    );
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A small deterministic generator (64-bit LCG) seeded from a case name.
struct Lcg(u64);

impl Lcg {
    fn new(name: &str) -> Self {
        Self(fnv1a(name.as_bytes()))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// `spec` with its seeded corruptions: a dropped transfer, a duplicated
/// reduction (when it has one) and a transfer moved one step later. A
/// corruption the spec validator rejects is left out.
fn with_corruptions(spec: AlgoSpec, tag: &str) -> Vec<AlgoSpec> {
    let ts = spec.transfers().to_vec();
    let rebuild = |kind: &str, ts: Vec<TransferRec>| {
        AlgoSpec::new(
            format!("{}-{kind}", spec.name()),
            spec.op(),
            spec.n_ranks(),
            ts,
        )
        .ok()
    };
    let mut out = Vec::new();
    let mut rng = Lcg::new(&format!("{tag}/drop"));
    let mut dropped = ts.clone();
    dropped.remove(rng.below(ts.len()));
    out.extend(rebuild("drop", dropped));

    let rrcs: Vec<&TransferRec> = ts.iter().filter(|t| t.comm == CommType::Rrc).collect();
    if !rrcs.is_empty() {
        let mut rng = Lcg::new(&format!("{tag}/dup-rrc"));
        let t = *rrcs[rng.below(rrcs.len())];
        let mut v = ts.clone();
        v.push(TransferRec {
            step: Step::new(t.step.0 + 1),
            ..t
        });
        out.extend(rebuild("dup-rrc", v));
    }

    let mut rng = Lcg::new(&format!("{tag}/late"));
    let mut late = ts.clone();
    let i = rng.below(ts.len());
    late[i].step = Step::new(late[i].step.0 + 1);
    out.extend(rebuild("late", late));

    out.insert(0, spec);
    out
}

/// Replay every transfer of `spec`, step group by step group, over the
/// whole `Slots::initial` table on both sides and compare.
fn replay_whole_spec(spec: &AlgoSpec) {
    let (op, n) = (spec.op(), spec.n_ranks());
    let chunks = 0..spec.n_chunks();
    let slot = |t: &TransferRec| (t.src.0 * chunks.end + t.chunk.0) as usize;
    let slot_dst = |t: &TransferRec| (t.dst.0 * chunks.end + t.chunk.0) as usize;
    let mut sorted: Vec<&TransferRec> = spec.transfers().iter().collect();
    sorted.sort_by_key(|t| t.step);
    let mut kernel = Slots::initial(op, n, chunks.clone());
    let mut oracle = dense::Table::initial(op, n, chunks.clone());
    for group in step_groups(&sorted, |t| t.step) {
        let moves: Vec<Move> = group
            .iter()
            .map(|t| Move {
                src: slot(t),
                dst: slot_dst(t),
                comm: t.comm,
                writer: 0,
            })
            .collect();
        kernel.apply_group(moves.iter().copied());
        oracle.apply_group(&moves);
    }
    assert_same(&kernel, &oracle, op, n, chunks, spec.name());
}

fn seed_suite_agrees(i: usize) {
    let topo = Topology::table3_topo(i).expect("table 3 preset");
    let shape = topo.spec();
    for spec in seed_suite(shape.n_nodes, shape.gpus_per_node) {
        let tag = format!("{}/{}", topo.name(), spec.name());
        for spec in with_corruptions(spec, &tag) {
            let (kernel, oracle) = (verify_collective(&spec), dense::verify(&spec));
            assert_eq!(
                kernel.map_err(|e| e.to_string()),
                oracle.map_err(|e| e.to_string()),
                "{}: verdicts",
                spec.name()
            );
            replay_whole_spec(&spec);
        }
    }
}

#[test]
fn seed_suite_topo1() {
    seed_suite_agrees(1);
}

#[test]
fn seed_suite_topo2() {
    seed_suite_agrees(2);
}

#[test]
fn seed_suite_topo3() {
    seed_suite_agrees(3);
}

#[test]
fn seed_suite_topo4() {
    seed_suite_agrees(4);
}

const OPS: [OpType; 3] = [OpType::AllGather, OpType::ReduceScatter, OpType::AllReduce];

/// Random step groups of copies and reductions over random tables. Every
/// third case reduces far more often than it copies, so counts pass 255
/// and saturate in most of those.
#[test]
fn random_moves_agree() {
    let mut saturated_cases = 0;
    for case in 0..300 {
        let name = format!("random/{case}");
        let mut rng = Lcg::new(&name);
        let op = OPS[rng.below(3)];
        let n = 1 + rng.below(9) as u32;
        let start = rng.below(n as usize) as u32;
        let chunks = start..start + 1 + rng.below((n - start) as usize) as u32;
        let mut kernel = Slots::initial(op, n, chunks.clone());
        let mut oracle = dense::Table::initial(op, n, chunks.clone());
        let n_slots = oracle.len();
        let reduce_bias = if case % 3 == 0 { 15 } else { 2 };
        let mut saturated = false;
        for g in 0..40 {
            let moves: Vec<Move> = (0..1 + rng.below(6))
                .map(|_| Move {
                    src: rng.below(n_slots),
                    dst: rng.below(n_slots),
                    comm: if rng.below(reduce_bias + 1) == 0 {
                        CommType::Recv
                    } else {
                        CommType::Rrc
                    },
                    writer: 0,
                })
                .collect();
            kernel.apply_group(moves.iter().copied());
            oracle.apply_group(&moves);
            assert_same(
                &kernel,
                &oracle,
                op,
                n,
                chunks.clone(),
                &format!("{name}/{g}"),
            );
            saturated |= (0..n_slots).any(|i| oracle.slot(i).contains(&u8::MAX));
        }
        saturated_cases += usize::from(saturated);
    }
    assert!(
        saturated_cases >= 50,
        "only {saturated_cases} cases drove a count past 255"
    );
}

/// Counts driven past 255 by one slot folded into itself: both sides
/// saturate at 255 and never wrap.
#[test]
fn self_reduction_saturates() {
    let mut kernel = Slots::initial(OpType::AllReduce, 3, 0..1);
    let mut oracle = dense::Table::initial(OpType::AllReduce, 3, 0..1);
    let fold = [Move {
        src: 1,
        dst: 1,
        comm: CommType::Rrc,
        writer: 0,
    }];
    for k in 0..12 {
        kernel.apply_group(fold);
        oracle.apply_group(&fold);
        assert_same(
            &kernel,
            &oracle,
            OpType::AllReduce,
            3,
            0..1,
            &format!("fold {k}"),
        );
    }
    assert_eq!(oracle.slot(1), &[0, 255, 0]);
}

#[test]
fn initial_layouts_agree() {
    for op in OPS {
        for n in 1..=7u32 {
            for start in 0..n {
                for end in start + 1..=n {
                    let kernel = Slots::initial(op, n, start..end);
                    let oracle = dense::Table::initial(op, n, start..end);
                    assert_same(&kernel, &oracle, op, n, start..end, &format!("{op} {n}"));
                }
            }
        }
    }
}
