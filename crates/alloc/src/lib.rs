//! # rescc-alloc
//!
//! Thread-block (TB) allocation (§4.4).
//!
//! Every transmission task decomposes into a **sender** primitive on its
//! source rank and a **receiver** primitive on its destination rank; a TB
//! executes an ordered sequence of such primitives, each looping over all
//! micro-batches.
//!
//! Two strategies are provided:
//!
//! * [`TbAllocation::connection_based`] — the rigid NCCL/MSCCL scheme: one
//!   TB per (rank, peer, direction) connection endpoint, times the number
//!   of channels. Extra channels buy parallelism at the cost of mostly-idle
//!   TBs (the 98.2% idle observation of Fig. 2).
//! * [`TbAllocation::state_based`] — ResCCL's scheme: analyze each
//!   connection endpoint's active interval on the scheduled pipeline's
//!   timeline and merge endpoints that are never active simultaneously onto
//!   one TB (Eq. 7). Greedy interval partitioning is optimal on interval
//!   graphs, so the TB count is minimal for the given timeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rescc_ir::{Csr, DepDag, IrError, TaskId};
use rescc_sched::Schedule;
use std::ops::Range;
use std::sync::Arc;

/// Which side of a transfer a primitive implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// The sender primitive, running on the task's source rank.
    Send,
    /// The receiver primitive (`recv` / `recvReduceCopy`), running on the
    /// task's destination rank.
    Recv,
}

/// One slot of a [`SlotTable`]: a task id with the slot's side in its top
/// bit (set for the Send side), 4 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(u32);

impl Slot {
    const SEND: u32 = 1 << 31;

    /// Side `dir` of `task`.
    ///
    /// # Panics
    ///
    /// If the task id does not stay below 2^31.
    pub fn new(task: TaskId, dir: Direction) -> Self {
        assert!(task.0 < Self::SEND, "task id {} needs the side bit", task.0);
        match dir {
            Direction::Send => Self(task.0 | Self::SEND),
            Direction::Recv => Self(task.0),
        }
    }

    /// The transmission task.
    pub fn task(self) -> TaskId {
        TaskId::new(self.0 & !Self::SEND)
    }

    /// Sender or receiver side.
    pub fn dir(self) -> Direction {
        if self.is_send() {
            Direction::Send
        } else {
            Direction::Recv
        }
    }

    /// Whether this is the sending side of its task.
    pub fn is_send(self) -> bool {
        self.0 & Self::SEND != 0
    }
}

/// One TB of a [`SlotTable`]: its rank, its slots
/// (`first..first + len` in the table) and the micro-batch slice it owns.
/// A channel TB with `mb_stride = k, mb_offset = c` executes only the
/// invocations of micro-batches `mb ≡ c (mod k)` — this is how NCCL-style
/// channels split a connection's data across parallel TBs, so the channel
/// TBs of one connection endpoint point at the same slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tb {
    /// The rank the TB is launched on.
    pub rank: u32,
    /// Its first slot in the table.
    pub first: u32,
    /// Its number of slots.
    pub len: u32,
    /// Micro-batch stride (1 = all micro-batches).
    pub mb_stride: u32,
    /// Micro-batch offset within the stride.
    pub mb_offset: u32,
}

impl Tb {
    /// Does this TB execute micro-batch `mb`?
    pub fn owns_micro_batch(&self, mb: u32) -> bool {
        mb % self.mb_stride.max(1) == self.mb_offset
    }

    /// Its slots' indices in the table.
    pub fn slots(&self) -> Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }
}

/// The rank → TB → slot hierarchy of a plan, stored once: one flat slot
/// table and one record per TB, in rank order. A TB's sub-pipelines are
/// its tasks' in the schedule. The allocation and the kernel program
/// lowered from it share one table behind an `Arc`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotTable {
    n_ranks: u32,
    slots: Vec<Slot>,
    tbs: Vec<Tb>,
}

impl SlotTable {
    /// The table of `tbs` over `slots` on `n_ranks` ranks, with no spare
    /// capacity.
    ///
    /// # Panics
    ///
    /// If the TBs are not in rank order, name a rank outside `n_ranks`, or
    /// reach past the last slot.
    pub fn new(n_ranks: usize, mut slots: Vec<Slot>, mut tbs: Vec<Tb>) -> Self {
        let mut rank = 0;
        for tb in &tbs {
            assert!(
                rank <= tb.rank && (tb.rank as usize) < n_ranks,
                "TBs must be in rank order on {n_ranks} ranks"
            );
            assert!(tb.slots().end <= slots.len(), "a TB reaches past the slots");
            rank = tb.rank;
        }
        slots.shrink_to_fit();
        tbs.shrink_to_fit();
        Self {
            n_ranks: n_ranks as u32,
            slots,
            tbs,
        }
    }

    /// Number of ranks, TB-less ones included.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks as usize
    }

    /// Every slot, stored once: channel TBs share theirs.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Every TB, in rank order.
    pub fn tbs(&self) -> &[Tb] {
        &self.tbs
    }

    /// The TBs launched on `rank`.
    pub fn rank_tbs(&self, rank: usize) -> &[Tb] {
        let lo = self.tbs.partition_point(|tb| (tb.rank as usize) < rank);
        let hi = self.tbs.partition_point(|tb| (tb.rank as usize) <= rank);
        &self.tbs[lo..hi]
    }

    /// The slots of `tb`.
    pub fn tb_slots(&self, tb: &Tb) -> &[Slot] {
        &self.slots[tb.slots()]
    }

    /// Slots executed across all TBs: a slot shared by channel TBs counts
    /// once per TB.
    pub fn total_slots(&self) -> usize {
        self.tbs.iter().map(|tb| tb.len as usize).sum()
    }

    /// TBs on the busiest rank.
    pub fn max_rank_tbs(&self) -> usize {
        self.tbs
            .chunk_by(|a, b| a.rank == b.rank)
            .map(<[Tb]>::len)
            .max()
            .unwrap_or(0)
    }
}

/// A complete TB allocation across all ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TbAllocation {
    /// Every rank's TBs and their slots, shared with the kernel program
    /// lowered from this allocation.
    pub table: Arc<SlotTable>,
    /// `"connection"`, `"state"` or `"state-chained"`.
    pub strategy: String,
    /// Channels used (connection-based only; 1 for state-based).
    pub n_channels: u32,
}

/// A slot as lowering groups it: the key of its connection endpoint as
/// seen from the slot's rank, `2 · peer + is_send` (keys order endpoints
/// by peer, then receive before send, and an odd key is a Send), its task
/// and its sub-pipeline.
#[derive(Clone, Copy, Debug)]
struct RankSlot {
    endpoint: u32,
    task: TaskId,
    sub_pipeline: u32,
}

/// Whether an endpoint key names a send endpoint.
fn sends(endpoint: u32) -> bool {
    endpoint % 2 == 1
}

impl RankSlot {
    fn dir(self) -> Direction {
        if sends(self.endpoint) {
            Direction::Send
        } else {
            Direction::Recv
        }
    }

    fn slot(self) -> Slot {
        Slot::new(self.task, self.dir())
    }
}

impl TbAllocation {
    /// The rigid connection-based allocation of NCCL/MSCCL: one TB per
    /// connection endpoint per channel. The channel TBs of an endpoint run
    /// its one slot range, each on every `n_channels`-th micro-batch, which
    /// is exactly how MSCCL's extra channels increase parallelism while
    /// leaving most channel TBs idle most of the time.
    pub fn connection_based(dag: &DepDag, schedule: &Schedule, n_channels: u32) -> Self {
        assert!(n_channels >= 1, "need at least one channel");
        let n_ranks = infer_n_ranks(dag);
        let per_rank = collect_slots(dag, schedule);

        let mut slots = Vec::with_capacity(2 * dag.len());
        let mut tbs = Vec::new();
        let mut endpoints = Csr::new();
        for (rank, rank_slots) in per_rank.iter().enumerate() {
            // Group by endpoint in endpoint order, preserving sub-pipeline
            // order within an endpoint.
            endpoints.refill(
                2 * n_ranks,
                rank_slots.iter().map(|s| (s.endpoint, s.slot())),
            );
            for ep in (0..2 * n_ranks).filter(|&ep| !endpoints.row(ep).is_empty()) {
                // One TB per channel; the channel TBs share the endpoint's
                // slots, each owning only its micro-batch slice.
                let first = slots.len() as u32;
                slots.extend_from_slice(endpoints.row(ep));
                tbs.extend((0..n_channels).map(|c| Tb {
                    rank: rank as u32,
                    first,
                    len: endpoints.row(ep).len() as u32,
                    mb_stride: n_channels,
                    mb_offset: c,
                }));
            }
        }
        Self {
            table: Arc::new(SlotTable::new(n_ranks, slots, tbs)),
            strategy: "connection".into(),
            n_channels,
        }
    }

    /// State-based allocation with *chain merging*: before the interval
    /// merge, a send endpoint whose every task forwards data delivered by a
    /// single receive endpoint of the same rank (a ring/chain transit) is
    /// co-located with that receive endpoint. This is the allocation shape
    /// real NCCL ring kernels use and what enables the
    /// `recvCopySend`/`recvReduceSend` fusion pass (`rescc_kernel::fuse`)
    /// to find adjacent pairs.
    pub fn state_based_chained(dag: &DepDag, schedule: &Schedule) -> Self {
        let mut alloc = Self::state_based_inner(dag, schedule, true);
        alloc.strategy = "state-chained".into();
        alloc
    }

    /// ResCCL's state-based allocation: endpoints whose active intervals on
    /// the sub-pipeline timeline never overlap are merged onto one TB.
    pub fn state_based(dag: &DepDag, schedule: &Schedule) -> Self {
        Self::state_based_inner(dag, schedule, false)
    }

    /// [`TbAllocation::state_based`]; `threads` is ignored. Kept only
    /// because the dispatch benchmark's cold-start replay calls this
    /// signature.
    #[doc(hidden)]
    pub fn state_based_with_threads(dag: &DepDag, schedule: &Schedule, _threads: usize) -> Self {
        Self::state_based(dag, schedule)
    }

    fn state_based_inner(dag: &DepDag, schedule: &Schedule, chain_merge: bool) -> Self {
        let slots = collect_slots(dag, schedule);
        // Global schedule position of each task: within a sub-pipeline the
        // scheduler's insertion order already respects data dependencies,
        // so ordering TB slots by this position keeps every TB's program
        // deadlock-free even when dependent tasks share a sub-pipeline.
        //
        // Chained mode keys a chain transit (a send forwarding data
        // delivered by exactly one receive at its source rank) immediately
        // after its feeder *on the TB the fold co-locates them on*, so the
        // fusion pass finds the pair adjacent. Every other slot still
        // follows the schedule's dependency-compatible total order. The
        // reordering is NOT deadlock-free in general: a forward with a
        // later predecessor (e.g. a write-after-write edge at its
        // destination) can close a rendezvous cycle with the slots it
        // jumped over, even though a fused forward issues asynchronously.
        // HM collectives hit this (RA001 reports `t6 → t105 → t6` on
        // hm-ar-1×8, and the engine deadlocks on the same plans).
        let mut base_pos: Vec<u32> = vec![0; dag.len()];
        for (i, t) in schedule.linear_order().into_iter().enumerate() {
            base_pos[t.index()] = i as u32;
        }
        let chain_feed: Vec<ChainFeed> = if chain_merge {
            dag.tasks().iter().map(|b| chain_feed(dag, b.id)).collect()
        } else {
            Vec::new()
        };

        let n_ranks = slots.len();
        let mut endpoints = Endpoints::new(2 * n_ranks);
        let mut table = (Vec::with_capacity(2 * dag.len()), Vec::new());
        for (rank, rank_slots) in slots.iter().enumerate() {
            endpoints.lower_rank(dag, &base_pos, &chain_feed, rank, rank_slots, &mut table);
        }
        Self {
            table: Arc::new(SlotTable::new(n_ranks, table.0, table.1)),
            strategy: "state".into(),
            n_channels: 1,
        }
    }

    /// Total number of TBs across all ranks.
    pub fn total_tbs(&self) -> usize {
        self.table.tbs().len()
    }

    /// TBs on the busiest rank (the `#TB` row of Table 3).
    pub fn max_rank_tbs(&self) -> usize {
        self.table.max_rank_tbs()
    }

    /// Validate the allocation against its DAG and schedule:
    /// * every task contributes exactly one Send slot (on its src rank) and
    ///   one Recv slot (on its dst rank),
    /// * slots within a TB are ordered by their tasks' sub-pipelines. In a
    ///   [`TbAllocation::state_based_chained`] allocation, a chain forward
    ///   keyed directly behind its feeder's Recv (with only other forwards
    ///   of that feeder in between) is checked the same way but does not
    ///   advance the order, so the slots it was moved ahead of stay
    ///   ordered against the feeder.
    pub fn validate(&self, dag: &DepDag, schedule: &Schedule) -> Result<(), IrError> {
        let n = dag.len();
        let sp_of = schedule.sub_pipeline_of(n);
        // One `(side, (stride, offset))` entry per slot: side `t` is task
        // `t`'s Send, side `n + t` its Recv.
        let mut covers: Vec<(u32, (u32, u32))> = Vec::with_capacity(2 * n);
        let chained = self.strategy == "state-chained";
        for tb in self.table.tbs() {
            let rank = tb.rank as usize;
            if tb.mb_stride == 0 || tb.mb_offset >= tb.mb_stride {
                return Err(IrError::new(format!(
                    "TB on rank r{rank} has invalid micro-batch window {}%{}",
                    tb.mb_offset, tb.mb_stride
                )));
            }
            let mut last_sp = 0u32;
            // The Recv that the last order-advancing slot delivered, if
            // it was one: the only feeder a chain forward may follow.
            let mut anchor: Option<TaskId> = None;
            for &slot in self.table.tb_slots(tb) {
                let (task, dir) = (slot.task(), slot.dir());
                let t = dag.transfer(task);
                let expect_rank = match dir {
                    Direction::Send => t.src,
                    Direction::Recv => t.dst,
                };
                if expect_rank.index() != rank {
                    return Err(IrError::new(format!(
                        "slot for task {task} ({dir:?}) placed on rank r{rank}, expected {expect_rank}"
                    )));
                }
                let sp = sp_of[task.index()];
                if sp < last_sp {
                    return Err(IrError::new(format!(
                        "TB on rank r{rank} has out-of-order slots (sub-pipeline {sp} after {last_sp})"
                    )));
                }
                let forward = chained
                    && dir == Direction::Send
                    && anchor.is_some_and(|a| chain_feed(dag, task) == ChainFeed::Single(a));
                if !forward {
                    last_sp = sp;
                    anchor = (dir == Direction::Recv).then_some(task);
                }
                let side = match dir {
                    Direction::Send => task.0,
                    Direction::Recv => n as u32 + task.0,
                };
                covers.push((side, (tb.mb_stride, tb.mb_offset)));
            }
        }
        // Every (task, dir) must be covered by windows that exactly
        // partition the micro-batch space: equal strides, offsets 0..stride.
        let covers = Csr::from_pairs(2 * n, covers.iter().copied());
        let mut offsets: Vec<u32> = Vec::new();
        for side in 0..2 * n {
            let (what, i) = if side < n {
                ("Send", side)
            } else {
                ("Recv", side - n)
            };
            let windows = covers.row(side);
            if windows == [(1, 0)] {
                continue;
            }
            let Some(&(stride, _)) = windows.first() else {
                return Err(IrError::new(format!("task t{i} is missing a {what} slot")));
            };
            if let Some(&(s, _)) = windows.iter().find(|(s, _)| *s != stride) {
                return Err(IrError::new(format!(
                    "task t{i} {what} slots mix strides {stride} and {s}"
                )));
            }
            offsets.clear();
            offsets.extend(windows.iter().map(|&(_, o)| o));
            offsets.sort_unstable();
            if !offsets.iter().copied().eq(0..stride) {
                return Err(IrError::new(format!(
                    "task t{i} {what} windows {offsets:?} do not partition stride {stride}"
                )));
            }
        }
        Ok(())
    }
}

/// How a task's receive side relates to the chain-merge pass: the single
/// delivery feeding its source rank's slot, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChainFeed {
    /// No feeder — the rank sends its own data (chain head). Allowed.
    Head,
    /// Fed by several deliveries — not a chain transit. Disqualifies.
    Multi,
    /// Fed by exactly one delivery — a chain transit behind that task.
    Single(TaskId),
}

/// How task `b` relates to the chain-merge pass: the predecessors that
/// deliver its chunk to its source rank.
fn chain_feed(dag: &DepDag, b: TaskId) -> ChainFeed {
    let task = dag.transfer(b);
    let mut feeders = dag.preds(b).iter().copied().filter(|&a| {
        let ta = dag.transfer(a);
        ta.chunk == task.chunk && ta.dst == task.src
    });
    match (feeders.next(), feeders.next()) {
        (None, _) => ChainFeed::Head,
        (Some(a), None) => ChainFeed::Single(a),
        (Some(_), Some(_)) => ChainFeed::Multi,
    }
}

/// Scratch tables for lowering one rank at a time, indexed by endpoint key
/// (`2 · n_ranks` wide) and reused across ranks. An entry is set before it
/// is read whenever the rank has slots on that endpoint.
struct Endpoints {
    /// The rank's slots grouped by endpoint key.
    rows: Csr<RankSlot>,
    /// Active interval of each endpoint: `[min_sp, max_sp]` of its slots,
    /// and of the endpoints folded into it.
    span: Vec<(usize, usize)>,
    /// Whether each endpoint was folded into its feeder's.
    folded: Vec<bool>,
    /// The endpoints folded into an endpoint, as a list: `next[ep]` follows
    /// `ep`, `last[ep]` ends the list that starts at `ep`.
    next: Vec<u32>,
    last: Vec<u32>,
}

impl Endpoints {
    fn new(n_keys: usize) -> Self {
        Self {
            rows: Csr::new(),
            span: vec![(0, 0); n_keys],
            folded: vec![false; n_keys],
            next: vec![0; n_keys],
            last: vec![0; n_keys],
        }
    }

    /// Build one rank's TBs and append them to `table`'s slots and TB
    /// records: interval analysis, chain merging when `chain_feed` is set,
    /// greedy interval partitioning, and the in-TB slot sort.
    fn lower_rank(
        &mut self,
        dag: &DepDag,
        base_pos: &[u32],
        chain_feed: &[ChainFeed],
        rank: usize,
        rank_slots: &[RankSlot],
        (slots, tbs): &mut (Vec<Slot>, Vec<Tb>),
    ) {
        const NONE: u32 = u32::MAX;
        let n_keys = self.span.len();
        self.rows
            .refill(n_keys, rank_slots.iter().map(|s| (s.endpoint, *s)));
        let present: Vec<usize> = (0..n_keys)
            .filter(|&ep| !self.rows.row(ep).is_empty())
            .collect();
        for &ep in &present {
            let sps = self.rows.row(ep).iter().map(|s| s.sub_pipeline as usize);
            self.span[ep] = (sps.clone().min().unwrap_or(0), sps.max().unwrap_or(0));
            self.folded[ep] = false;
            self.next[ep] = NONE;
            self.last[ep] = ep as u32;
        }

        // Chain merging: fold a send endpoint into the receive endpoint
        // that feeds all of its tasks (same chunk, this rank in the
        // middle of the chain). Folded endpoints are remembered so the
        // final sort can key their forwards right behind their feeders.
        if !chain_feed.is_empty() {
            for &ep in present.iter().filter(|&&ep| sends(ep as u32)) {
                // The single feeding recv endpoint, if one exists.
                // Chain heads (a rank sending its own data, no feeder)
                // are allowed; a task fed by several deliveries is not
                // a chain transit and disqualifies the endpoint.
                let mut feeder: Option<u32> = None;
                let mut ok = true;
                for slot in self.rows.row(ep) {
                    match chain_feed[slot.task.index()] {
                        ChainFeed::Head => {}
                        ChainFeed::Multi => {
                            ok = false;
                            break;
                        }
                        ChainFeed::Single(a) => {
                            let fa = 2 * dag.transfer(a).src.0;
                            if *feeder.get_or_insert(fa) != fa {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let Some(f) = feeder.map(|key| key as usize) else {
                    continue;
                };
                if !self.rows.row(f).is_empty() {
                    let (s, e) = self.span[ep];
                    let fe = &mut self.span[f];
                    fe.0 = fe.0.min(s);
                    fe.1 = fe.1.max(e);
                    let tail = self.last[f] as usize;
                    self.next[tail] = ep as u32;
                    self.last[f] = ep as u32;
                    self.folded[ep] = true;
                }
            }
        }
        // Greedy interval partitioning: sort by start, place each
        // endpoint on the first TB whose last interval ended before
        // this one starts.
        let mut items: Vec<(usize, usize, usize)> = present
            .iter()
            .filter(|&&ep| !self.folded[ep])
            .map(|&ep| (self.span[ep].0, self.span[ep].1, ep))
            .collect();
        items.sort_unstable();
        // tb_end[i] = last sub-pipeline index currently occupied on TB i
        let mut tb_end: Vec<usize> = Vec::new();
        let mut tb_slots: Vec<Vec<(SlotKey, RankSlot)>> = Vec::new();
        for (start, end, ep) in items {
            let tb = match tb_end.iter().position(|&last| last < start) {
                Some(i) => {
                    tb_end[i] = end;
                    i
                }
                None => {
                    tb_end.push(end);
                    tb_slots.push(Vec::new());
                    tb_end.len() - 1
                }
            };
            let mut row = ep as u32;
            while row != NONE {
                let folded = self.folded[row as usize];
                tb_slots[tb].extend(
                    self.rows
                        .row(row as usize)
                        .iter()
                        .map(|s| (slot_key(s, folded, base_pos, chain_feed), *s)),
                );
                row = self.next[row as usize];
            }
        }
        for mut keyed in tb_slots {
            keyed.sort_by_key(|&(key, _)| key);
            tbs.push(Tb {
                rank: rank as u32,
                first: slots.len() as u32,
                len: keyed.len() as u32,
                mb_stride: 1,
                mb_offset: 0,
            });
            slots.extend(keyed.iter().map(|(_, s)| s.slot()));
        }
    }
}

/// A slot's position in its TB: `(base position, forward?, own position,
/// direction)`.
type SlotKey = (u32, u8, u32, Direction);

/// The in-TB sort key of a slot whose endpoint was (`folded`) or was not
/// folded onto its feeder's TB. A forward folded onto its feeder's TB sorts
/// directly behind the feeder (adjacent, for the fusion pass). Everything
/// else — including chain heads and every gating slot — keeps the
/// schedule's total order.
fn slot_key(s: &RankSlot, folded: bool, base_pos: &[u32], chain_feed: &[ChainFeed]) -> SlotKey {
    if folded && s.dir() == Direction::Send {
        if let ChainFeed::Single(a) = chain_feed[s.task.index()] {
            return (base_pos[a.index()], 1, base_pos[s.task.index()], s.dir());
        }
    }
    (base_pos[s.task.index()], 0, 0, s.dir())
}

fn infer_n_ranks(dag: &DepDag) -> usize {
    dag.n_chunks() as usize
}

/// Expand each scheduled task into its Send and Recv slots, grouped by the
/// rank the slot runs on, preserving sub-pipeline order. One `Vec` per
/// rank, filled in one pass: at 1,024 ranks this beat a two-pass counting
/// sort into one arena by 3× (each rank's list is thousands of slots long).
fn collect_slots(dag: &DepDag, schedule: &Schedule) -> Vec<Vec<RankSlot>> {
    let mut per_rank: Vec<Vec<RankSlot>> = vec![Vec::new(); infer_n_ranks(dag)];
    for (sp, tasks) in schedule.sub_pipelines.iter().enumerate() {
        for &task in tasks {
            let t = dag.transfer(task);
            let slot = |endpoint| RankSlot {
                endpoint,
                task,
                sub_pipeline: sp as u32,
            };
            per_rank[t.src.index()].push(slot(2 * t.dst.0 + 1));
            per_rank[t.dst.index()].push(slot(2 * t.src.0));
        }
    }
    per_rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_lang::{AlgoBuilder, OpType};
    use rescc_sched::hpds;
    use rescc_topology::Topology;

    fn ring_setup(nodes: u32, gpn: u32) -> (DepDag, Schedule) {
        let n = nodes * gpn;
        let mut b = AlgoBuilder::new("Ring", OpType::AllGather, n);
        for r in 0..n {
            for step in 0..n - 1 {
                b.recv(r, (r + 1) % n, step, (r + n - step) % n);
            }
        }
        let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(nodes, gpn)).unwrap();
        let s = hpds(&dag);
        (dag, s)
    }

    #[test]
    fn connection_based_one_tb_per_endpoint_per_channel() {
        let (dag, s) = ring_setup(1, 8);
        let a = TbAllocation::connection_based(&dag, &s, 1);
        a.validate(&dag, &s).unwrap();
        // Ring: each rank has 1 send endpoint + 1 recv endpoint.
        assert_eq!(a.max_rank_tbs(), 2);
        assert_eq!(a.total_tbs(), 16);
        let a2 = TbAllocation::connection_based(&dag, &s, 4);
        a2.validate(&dag, &s).unwrap();
        assert_eq!(a2.total_tbs(), 64);
    }

    #[test]
    fn state_based_never_uses_more_tbs() {
        for (nodes, gpn) in [(1u32, 8u32), (2, 4), (2, 8)] {
            let (dag, s) = ring_setup(nodes, gpn);
            let conn = TbAllocation::connection_based(&dag, &s, 1);
            let state = TbAllocation::state_based(&dag, &s);
            state.validate(&dag, &s).unwrap();
            assert!(
                state.total_tbs() <= conn.total_tbs(),
                "state {} > connection {} on {nodes}x{gpn}",
                state.total_tbs(),
                conn.total_tbs()
            );
        }
    }

    #[test]
    fn state_based_merges_disjoint_endpoints() {
        // A chain where rank endpoints are active in strictly separated
        // sub-pipelines: state-based merges them where possible.
        let mut b = AlgoBuilder::new("phased", OpType::AllGather, 4);
        b.recv(0, 1, 0, 0)
            .recv(1, 2, 1, 0)
            .recv(2, 3, 2, 0)
            .recv(3, 0, 3, 0);
        let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(1, 4)).unwrap();
        let s = hpds(&dag);
        let state = TbAllocation::state_based(&dag, &s);
        state.validate(&dag, &s).unwrap();
        let conn = TbAllocation::connection_based(&dag, &s, 1);
        assert!(state.total_tbs() <= conn.total_tbs());
    }

    #[test]
    fn chained_allocation_colocates_ring_transits() {
        // In a ring, every rank's send endpoint forwards what its receive
        // endpoint delivers: chain merging must put both on one TB.
        let (dag, s) = ring_setup(1, 8);
        let plain = TbAllocation::state_based(&dag, &s);
        let chained = TbAllocation::state_based_chained(&dag, &s);
        chained.validate(&dag, &s).unwrap();
        assert!(
            chained.total_tbs() < plain.total_tbs(),
            "chained {} !< plain {}",
            chained.total_tbs(),
            plain.total_tbs()
        );
        // Each rank collapses to a single TB holding recv + send slots.
        assert_eq!(chained.max_rank_tbs(), 1);
    }

    #[test]
    fn chained_allocation_declines_mesh_fed_endpoints() {
        // Star: rank 0 gathers from everyone then broadcasts — the send
        // endpoints have multiple feeders, so no chain merge applies and
        // the result equals plain state-based.
        let mut b = AlgoBuilder::new("star", OpType::AllReduce, 4);
        for r in 1..4u32 {
            b.rrc(r, 0, 0, 0);
        }
        for r in 1..4u32 {
            b.recv(0, r, 1, 0);
        }
        let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(1, 4)).unwrap();
        let s = hpds(&dag);
        let plain = TbAllocation::state_based(&dag, &s);
        let chained = TbAllocation::state_based_chained(&dag, &s);
        chained.validate(&dag, &s).unwrap();
        assert_eq!(plain.total_tbs(), chained.total_tbs());
    }

    #[test]
    fn chained_multi_ring_allocation_validates() {
        // A forward keyed behind its feeder sits ahead of its own
        // sub-pipeline; the validator must accept what the chained
        // allocator builds.
        let dag = DepDag::build(
            &rescc_algos::nccl_rings_allreduce(2, 8, 4),
            &Topology::a100(2, 8),
        )
        .unwrap();
        let s = hpds(&dag);
        let chained = TbAllocation::state_based_chained(&dag, &s);
        chained.validate(&dag, &s).unwrap();
    }

    /// The table of `a`, for mutation.
    fn table(a: &mut TbAllocation) -> &mut SlotTable {
        Arc::make_mut(&mut a.table)
    }

    #[test]
    fn chained_validation_catches_swapped_non_transit_slots() {
        let (dag, s) = ring_setup(1, 8);
        let mut a = TbAllocation::state_based_chained(&dag, &s);
        a.validate(&dag, &s).unwrap();
        // Rank 0's receives are not chain forwards: swapping two of them
        // from different sub-pipelines must still be rejected.
        let sp_of = s.sub_pipeline_of(dag.len());
        let t = table(&mut a);
        let slots = &mut t.slots[t.tbs[0].slots()];
        let recvs: Vec<usize> = (0..slots.len()).filter(|&i| !slots[i].is_send()).collect();
        let (i, j) = (recvs[0], recvs[recvs.len() - 1]);
        assert!(sp_of[slots[i].task().index()] < sp_of[slots[j].task().index()]);
        slots.swap(i, j);
        let err = a.validate(&dag, &s).unwrap_err();
        assert!(err.to_string().contains("out-of-order"), "{err}");
    }

    #[test]
    fn forward_exemption_is_limited_to_chained_allocations() {
        // The chained layout of a multi-ring plan keys forwards ahead of
        // their own sub-pipeline. The same slots in a plain allocation are
        // a misordered transit Send and must be rejected.
        let dag = DepDag::build(
            &rescc_algos::nccl_rings_allreduce(2, 8, 4),
            &Topology::a100(2, 8),
        )
        .unwrap();
        let s = hpds(&dag);
        let mut a = TbAllocation::state_based_chained(&dag, &s);
        a.validate(&dag, &s).unwrap();
        a.strategy = "state".into();
        let err = a.validate(&dag, &s).unwrap_err();
        assert!(err.to_string().contains("out-of-order"), "{err}");
    }

    #[test]
    fn validation_catches_missing_slot() {
        let (dag, s) = ring_setup(1, 4);
        let mut a = TbAllocation::state_based(&dag, &s);
        let tb = table(&mut a).tbs.iter_mut().find(|tb| tb.len > 0).unwrap();
        tb.len -= 1;
        assert!(a.validate(&dag, &s).is_err());
    }

    #[test]
    fn validation_catches_wrong_rank() {
        let (dag, s) = ring_setup(1, 4);
        let mut a = TbAllocation::state_based(&dag, &s);
        move_first_tb_to_rank_1(table(&mut a));
        assert!(a.validate(&dag, &s).is_err());
    }

    /// Move rank 0's first TB onto rank 1, as that rank's first TB.
    fn move_first_tb_to_rank_1(t: &mut SlotTable) {
        let k = t.rank_tbs(0).len();
        t.tbs[..k].rotate_left(1);
        t.tbs[k - 1].rank = 1;
    }

    /// [`TbAllocation::validate`] as it was before its cover tables went
    /// flat: two `Vec<Vec<(stride, offset)>>` cover tables and a `Vec` of
    /// offsets per task side. The oracle for the flat validator's verdicts
    /// and messages.
    fn validate_reference(
        a: &TbAllocation,
        dag: &DepDag,
        schedule: &Schedule,
    ) -> Result<(), String> {
        let mut send_cover: Vec<Vec<(u32, u32)>> = vec![Vec::new(); dag.len()];
        let mut recv_cover: Vec<Vec<(u32, u32)>> = vec![Vec::new(); dag.len()];
        let mut sp_of: Vec<u32> = vec![u32::MAX; dag.len()];
        for (sp, tasks) in schedule.sub_pipelines.iter().enumerate() {
            for t in tasks {
                sp_of[t.index()] = sp as u32;
            }
        }
        let chained = a.strategy == "state-chained";
        for rank in 0..a.table.n_ranks() {
            for tb in a.table.rank_tbs(rank) {
                if tb.mb_stride == 0 || tb.mb_offset >= tb.mb_stride {
                    return Err(format!(
                        "TB on rank r{rank} has invalid micro-batch window {}%{}",
                        tb.mb_offset, tb.mb_stride
                    ));
                }
                let mut last_sp = 0u32;
                let mut anchor: Option<TaskId> = None;
                for slot in a.table.tb_slots(tb) {
                    let (task, dir) = (slot.task(), slot.dir());
                    let t = dag.transfer(task);
                    let expect_rank = match dir {
                        Direction::Send => t.src,
                        Direction::Recv => t.dst,
                    };
                    if expect_rank.index() != rank {
                        return Err(format!(
                            "slot for task {task} ({dir:?}) placed on rank r{rank}, expected {expect_rank}"
                        ));
                    }
                    let sp = sp_of[task.index()];
                    if sp < last_sp {
                        return Err(format!(
                            "TB on rank r{rank} has out-of-order slots (sub-pipeline {sp} after {last_sp})"
                        ));
                    }
                    let forward = chained
                        && dir == Direction::Send
                        && anchor.is_some_and(|a| chain_feed(dag, task) == ChainFeed::Single(a));
                    if !forward {
                        last_sp = sp;
                        anchor = (dir == Direction::Recv).then_some(task);
                    }
                    let cover = match dir {
                        Direction::Send => &mut send_cover,
                        Direction::Recv => &mut recv_cover,
                    };
                    cover[task.index()].push((tb.mb_stride, tb.mb_offset));
                }
            }
        }
        for (what, cover) in [("Send", &send_cover), ("Recv", &recv_cover)] {
            for (i, windows) in cover.iter().enumerate() {
                if windows.is_empty() {
                    return Err(format!("task t{i} is missing a {what} slot"));
                }
                let stride = windows[0].0;
                let mut offsets: Vec<u32> = windows
                    .iter()
                    .map(|(s, o)| {
                        if *s == stride {
                            Ok(*o)
                        } else {
                            Err(format!(
                                "task t{i} {what} slots mix strides {stride} and {s}"
                            ))
                        }
                    })
                    .collect::<Result<_, _>>()?;
                offsets.sort_unstable();
                let expect: Vec<u32> = (0..stride).collect();
                if offsets != expect {
                    return Err(format!(
                        "task t{i} {what} windows {offsets:?} do not partition stride {stride}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The flat validator's verdict, with the message, must be the
    /// reference's; returns it.
    fn verdict(a: &TbAllocation, dag: &DepDag, s: &Schedule) -> Result<(), String> {
        let got = a.validate(dag, s).map_err(|e| e.to_string());
        let want = validate_reference(a, dag, s).map_err(|m| IrError::new(m).to_string());
        assert_eq!(got, want);
        got
    }

    #[test]
    fn validation_mutations_keep_the_reference_messages() {
        let (dag, s) = ring_setup(2, 4);
        let state = TbAllocation::state_based(&dag, &s);
        let conn = TbAllocation::connection_based(&dag, &s, 2);
        verdict(&state, &dag, &s).unwrap();
        verdict(&conn, &dag, &s).unwrap();
        let ir = |m: String| Err(IrError::new(m).to_string());
        let sp_of = s.sub_pipeline_of(dag.len());

        // A missing slot: the last slot of rank 0's first TB.
        let mut a = state.clone();
        let t = table(&mut a);
        t.tbs[0].len -= 1;
        let gone = t.slots[t.tbs[0].slots().end];
        let what = format!("{:?}", gone.dir());
        assert_eq!(
            verdict(&a, &dag, &s),
            ir(format!("task {} is missing a {what} slot", gone.task()))
        );

        // Mixed strides: one channel copy claims stride 3.
        let mut a = conn.clone();
        let t = table(&mut a);
        t.tbs[1].mb_stride = 3;
        let side = format!("{:?}", t.tb_slots(&t.tbs[1])[0].dir());
        // The first side of the rank-0 endpoint in task order.
        let first = t
            .tb_slots(&t.tbs[1])
            .iter()
            .map(|s| s.task())
            .min()
            .unwrap();
        assert_eq!(
            verdict(&a, &dag, &s),
            ir(format!("task {first} {side} slots mix strides 2 and 3"))
        );

        // A duplicate window: rank 0's first TB launched twice.
        let mut a = state.clone();
        let t = table(&mut a);
        let k = t.rank_tbs(0).len();
        t.tbs.insert(k, t.tbs[0]);
        assert!(verdict(&a, &dag, &s)
            .unwrap_err()
            .ends_with("windows [0, 0] do not partition stride 1"));

        // An out-of-order slot: the first two slots of different
        // sub-pipelines on one TB swapped.
        let mut a = state.clone();
        let t = table(&mut a);
        let sp = |slot: Slot| sp_of[slot.task().index()];
        let (tb, j) = (0..t.tbs.len())
            .find_map(|tb| {
                let slots = t.tb_slots(&t.tbs[tb]);
                (1..slots.len())
                    .find(|&j| sp(slots[j]) > sp(slots[0]))
                    .map(|j| (tb, j))
            })
            .expect("some TB spans two sub-pipelines");
        let (rank, range) = (t.tbs[tb].rank, t.tbs[tb].slots());
        let slots = &mut t.slots[range];
        let (lo, hi) = (sp(slots[0]), sp(slots[j]));
        slots.swap(0, j);
        assert_eq!(
            verdict(&a, &dag, &s),
            ir(format!(
                "TB on rank r{rank} has out-of-order slots (sub-pipeline {lo} after {hi})"
            ))
        );

        // A wrong rank: rank 0's first TB moved onto rank 1.
        let mut a = state.clone();
        let t = table(&mut a);
        let slot = t.tb_slots(&t.tbs[0])[0];
        move_first_tb_to_rank_1(t);
        let task = dag.transfer(slot.task());
        let expect = if slot.is_send() { task.src } else { task.dst };
        assert_eq!(
            verdict(&a, &dag, &s),
            ir(format!(
                "slot for task {} ({:?}) placed on rank r1, expected {expect}",
                slot.task(),
                slot.dir()
            ))
        );

        // An invalid window.
        let mut a = conn;
        let t = table(&mut a);
        let at = t.tbs.partition_point(|tb| tb.rank < 2);
        t.tbs[at].mb_offset = 2;
        assert_eq!(
            verdict(&a, &dag, &s),
            ir("TB on rank r2 has invalid micro-batch window 2%2".into())
        );
    }

    #[test]
    fn channel_tbs_share_their_slots() {
        let (dag, s) = ring_setup(2, 4);
        let one = TbAllocation::connection_based(&dag, &s, 1);
        let four = TbAllocation::connection_based(&dag, &s, 4);
        assert_eq!(one.table.slots(), four.table.slots());
        assert_eq!(four.table.slots().len(), 2 * dag.len());
        assert_eq!(four.table.total_slots(), 4 * one.table.total_slots());
        for (i, tb) in four.table.tbs().iter().enumerate() {
            assert_eq!((tb.first, tb.len), {
                let o = one.table.tbs()[i / 4];
                (o.first, o.len)
            });
        }
    }

    #[test]
    fn a_slot_packs_its_side_into_the_top_bit() {
        let top = TaskId::new((1 << 31) - 1);
        for (task, dir) in [
            (TaskId::new(0), Direction::Send),
            (top, Direction::Recv),
            (top, Direction::Send),
        ] {
            let slot = Slot::new(task, dir);
            assert_eq!((slot.task(), slot.dir()), (task, dir));
            assert_eq!(slot.is_send(), dir == Direction::Send);
        }
        assert_eq!(std::mem::size_of::<Slot>(), 4);
    }

    #[test]
    #[should_panic(expected = "needs the side bit")]
    fn a_task_id_of_2_pow_31_does_not_fit_a_slot() {
        Slot::new(TaskId::new(1 << 31), Direction::Recv);
    }

    #[test]
    fn channel_copies_may_be_idle() {
        let (dag, s) = ring_setup(1, 4);
        let a = TbAllocation::connection_based(&dag, &s, 8);
        // Channel TBs carry the whole slot list but only their micro-batch
        // slice; with few micro-batches most channel TBs end up with no
        // work at runtime — MSCCL-style waste. Structurally: 8 TBs per
        // endpoint instead of 1.
        let conn1 = TbAllocation::connection_based(&dag, &s, 1);
        assert_eq!(a.total_tbs(), 8 * conn1.total_tbs());
        a.validate(&dag, &s).unwrap();
    }
}
