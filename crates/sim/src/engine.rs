//! The discrete-event simulation engine.
//!
//! Executes a generated [`KernelProgram`] on a [`Topology`] with fluid
//! (processor-sharing) bandwidth arbitration implementing Eq. (1):
//!
//! * every transfer first spends its startup latency `α` (plus interpreter
//!   overhead; cross-rack and relay hops are not charged) without
//!   occupying link capacity,
//! * it then *drains* its bytes at a dynamic rate — the minimum, over all
//!   capacity resources on its path, of that resource's effective bandwidth
//!   divided by the number of concurrent drains (`effective_bandwidth(z)`
//!   already folds in the `γ·L(z)` contention penalty),
//! * whenever a resource's load changes, every transfer sharing it is
//!   re-keyed; its progress is settled and its finish re-projected once
//!   per simulated instant, from the shares that hold when its event is
//!   next in line.
//!
//! TBs are state machines walking their slot/micro-batch invocation
//! sequence; an invocation starts when the sender TB and the receiver TB
//! have both arrived **and** all data dependencies of that micro-batch are
//! complete (the `wait_deps` flags of the generated kernel). Blocked time
//! is accounted as sync; transfer time as busy. Source values are captured
//! at transfer start (the FIFO-slot semantics of real CCL buffers), and the
//! receiver applies copy/reduce at completion, so the final buffers can be
//! checked against the collective's contract. Buffers, copy/reduce and the
//! contract are the shared provenance kernel's (`rescc_lang::provenance`).
//!
//! Events run in `(t, seq)` order, `seq` counting scheduled events and
//! re-keys, except that a transfer already deferred at the instant keeps
//! its `seq`. Each in-flight transfer owns exactly one live event — its
//! startup latency, then its projected drain finish. Every re-key is a
//! deferral, and the engine and the queue pay once per transfer per
//! simulated instant (DESIGN.md §14):
//!
//! * a re-key puts the transfer at the back of the instant's FIFO
//!   unprojected, and the queue projects it when it is next in line, so k
//!   load changes in one lockstep burst cost one projection;
//! * a re-key of a transfer already deferred at the instant keeps its
//!   `seq` and its FIFO place, and a load change on a resource whose
//!   draining transfers are all deferred skips the scan of its peers, so
//!   k lockstep finishes on a link cost O(k) peer visits, not O(k²);
//! * an event for a later time joins that time's bucket when it is
//!   scheduled, and when the clock reaches the time its buckets become
//!   the instant's FIFO, so a lockstep burst costs one append per event.
//!
//! Deferral is exact: nothing reads a deferred transfer's progress before
//! its turn, a second settle in one instant moves nothing, and any later
//! share change on its path re-keys it again.
//!
//! Completion times do not depend on the order of events within one
//! instant: a share depends only on loads, progress settles only across
//! time, and a transfer is projected from the shares in force when it
//! pops. The frontier of an abort that a start finds mid-instant does:
//! it holds the completions handled before that start.

use crate::config::SimConfig;
use crate::error::{SimError, SimResult};
use crate::fault::{Fault, FaultEvent};
use crate::frontier::FaultFrontier;
use crate::metrics::{ResourceStat, SimReport, TbStat};
use crate::obs::{EventTable, Stamp};
use crate::trace::FaultRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescc_alloc::Slot;
use rescc_ir::{Csr, DepDag, MicroBatchPlan, TaskId};
use rescc_kernel::{KernelProgram, LoopOrder, Primitive};
use rescc_lang::provenance::{Counts, Move, Runs, Slots};
use rescc_lang::OpType;
use rescc_topology::{LinkParams, ResourceId, ResourceSet, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Run one collective call end to end.
pub fn simulate(
    topo: &Topology,
    dag: &DepDag,
    program: &KernelProgram,
    plan: &MicroBatchPlan,
    op: OpType,
    config: &SimConfig,
) -> SimResult<SimReport> {
    Engine::new(topo, dag, program, plan, op, config)?.run()
}

const NONE: u32 = u32::MAX;

/// Safety cap on a run's invocations (`tasks × micro-batches`): guards
/// against runaway programs, generously above any legitimate run.
const MAX_INVOCATIONS: u64 = 200_000_000;

/// One queued event: fire `id` at time `t`; `seq` breaks ties in
/// scheduling order.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Event {
    t: f64,
    seq: u64,
    id: u32,
}

/// The events of one future instant, `(seq, id)` in the order they
/// joined it.
#[derive(Default)]
struct Bucket {
    /// The instant's time bits, [`FREE`] while the bucket waits for reuse.
    t: u64,
    events: Vec<(u64, u32)>,
    /// `events` is in `seq` order.
    sorted: bool,
}

/// The time bits of a free bucket: a NaN, never a queued time.
const FREE: u64 = u64::MAX;

/// Min-queue of events in `(t, seq)` order, holding at most one live event
/// per id: the one with the id's `live` sequence number. Every other entry
/// is dead, and pops skip it. The current instant, the time of the last
/// pop, owns a FIFO of the events scheduled for it, in `seq` order. An
/// event for a later time joins that time's bucket, keeping the `seq` it
/// drew: the bucket its id last joined if its time matches, else one of
/// the two buckets opened last if its time matches, else a new one, which
/// a binary heap orders by time. When the FIFO runs dry, the buckets of the
/// earliest time become the FIFO, sorted by `seq` only if they were two or
/// more or joined out of order. A deferred re-key joins the FIFO before
/// its time is known, and `pop` projects it when it is next in line;
/// re-deferring it before then keeps its `seq` and its place, so it is
/// projected once, from the state at its turn.
struct EventQueue {
    /// `(seq, id)` of the events at `now`, in `seq` order, from `head` on.
    fifo: Vec<(u64, u32)>,
    head: usize,
    buckets: Vec<Bucket>,
    /// Buckets emptied into the FIFO, for later instants to reuse.
    free: Vec<u32>,
    /// `(time bits, bucket)` of every bucket in use, the earliest on top.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// The two buckets opened last, the last first.
    recent: [u32; 2],
    /// `seq` of each id's live event, 0 while it has none.
    live: Vec<u64>,
    /// Each id's live event waits in the FIFO by [`EventQueue::defer`]:
    /// its time is not known yet.
    deferred: Vec<bool>,
    /// The bucket each id joined last.
    bucket_of: Vec<u32>,
    /// Events scheduled so far; the next one gets `seq + 1`.
    seq: u64,
    /// The current instant: the latest time popped.
    now: f64,
}

impl EventQueue {
    /// An empty queue with room for ids `0..n` without growing.
    fn with_ids(n: usize) -> Self {
        Self {
            fifo: Vec::new(),
            head: 0,
            buckets: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            recent: [NONE; 2],
            live: vec![0; n],
            deferred: vec![false; n],
            bucket_of: vec![NONE; n],
            seq: 0,
            now: 0.0,
        }
    }

    /// Draw the next sequence number for a new live event of `id`, which
    /// kills its last one.
    fn next_seq(&mut self, id: u32, deferred: bool) -> u64 {
        self.seq += 1;
        let i = id as usize;
        if i >= self.live.len() {
            self.live.resize(i + 1, 0);
            self.deferred.resize(i + 1, false);
            self.bucket_of.resize(i + 1, NONE);
        }
        self.live[i] = self.seq;
        self.deferred[i] = deferred;
        self.seq
    }

    /// Schedule `id` at time `t`, at or after `now`, with the next
    /// sequence number, replacing its queued event if it has one.
    fn schedule(&mut self, id: u32, t: f64) {
        debug_assert!(t >= self.now, "scheduled behind the clock");
        debug_assert!(t.is_sign_positive(), "scheduled at a negative time");
        let seq = self.next_seq(id, false);
        if t.to_bits() == self.now.to_bits() {
            self.fifo.push((seq, id));
        } else {
            self.insert(t.to_bits(), seq, id);
        }
    }

    /// Re-key `id` with the next sequence number to a time not yet known,
    /// at or after `now`: it joins the back of the FIFO, and `pop` asks
    /// for its time once it is next in line. An id already deferred at
    /// this instant keeps its `seq` and its place: `pop` has not asked for
    /// its time yet, and will ask from the state at its turn.
    fn defer(&mut self, id: u32) {
        if self.is_deferred(id) {
            return;
        }
        let seq = self.next_seq(id, true);
        self.fifo.push((seq, id));
    }

    /// Is `id` in the FIFO, deferred at this instant and not yet projected?
    fn is_deferred(&self, id: u32) -> bool {
        self.deferred.get(id as usize).copied().unwrap_or(false)
    }

    /// Put `(seq, id)` in a bucket at the later time `bits`.
    fn insert(&mut self, bits: u64, seq: u64, id: u32) {
        let at = |b: u32| self.buckets.get(b as usize).is_some_and(|b| b.t == bits);
        let b = match self.bucket_of[id as usize] {
            b if at(b) => b,
            _ if at(self.recent[0]) => self.recent[0],
            _ if at(self.recent[1]) => self.recent[1],
            _ => {
                let b = self.free.pop().unwrap_or_else(|| {
                    self.buckets.push(Bucket::default());
                    self.buckets.len() as u32 - 1
                });
                let bucket = &mut self.buckets[b as usize];
                (bucket.t, bucket.sorted) = (bits, true);
                self.heap.push(Reverse((bits, b)));
                self.recent = [b, self.recent[0]];
                b
            }
        };
        let bucket = &mut self.buckets[b as usize];
        bucket.sorted &= bucket.events.last().is_none_or(|&(last, _)| last < seq);
        bucket.events.push((seq, id));
        self.bucket_of[id as usize] = b;
    }

    /// Remove and return the earliest live event. `project` gives the time
    /// of a deferred id, at or after `now`, when it is next in line.
    fn pop(&mut self, mut project: impl FnMut(u32) -> f64) -> Option<Event> {
        let start = self.now;
        loop {
            while let Some(&(seq, id)) = self.fifo.get(self.head) {
                self.head += 1;
                if self.live[id as usize] != seq {
                    continue;
                }
                if std::mem::take(&mut self.deferred[id as usize]) {
                    let t = project(id);
                    debug_assert!(t >= self.now, "projected behind the clock");
                    if t.to_bits() != self.now.to_bits() {
                        self.insert(t.to_bits(), seq, id);
                        continue;
                    }
                }
                self.live[id as usize] = 0;
                return Some(Event {
                    t: self.now,
                    seq,
                    id,
                });
            }
            // The instant is over: the buckets of the next time become the
            // FIFO. A time whose events all died passes without a pop, so
            // a queue that runs dry keeps the time of its last pop.
            let Some(&Reverse((bits, _))) = self.heap.peek() else {
                self.now = start;
                return None;
            };
            self.fifo.clear();
            self.head = 0;
            let mut sorted = true;
            while let Some(&Reverse((_, b))) = self.heap.peek().filter(|e| e.0 .0 == bits) {
                self.heap.pop();
                let bucket = &mut self.buckets[b as usize];
                sorted &= self.fifo.is_empty() && bucket.sorted;
                if self.fifo.is_empty() {
                    std::mem::swap(&mut self.fifo, &mut bucket.events);
                } else {
                    self.fifo.append(&mut bucket.events);
                }
                bucket.t = FREE;
                self.free.push(b);
            }
            if !sorted {
                self.fifo.sort_unstable_by_key(|&(seq, _)| seq);
            }
            self.now = f64::from_bits(bits);
        }
    }
}

struct TbState {
    rank: u32,
    tb: u32,
    /// The TB's slots in the program's table: `first..first + len`.
    first: u32,
    len: u32,
    /// The current issue group: the segment of `seg_len` slots at
    /// `cursor` (an index into the program's slot table), all issued
    /// together for micro-batch `mb`. Fused slots glue to their
    /// predecessor, so a fused `recv -> send` pair forms a 2-slot group
    /// (cut-through: both transfers in flight concurrently); every other
    /// slot starts a segment.
    cursor: u32,
    seg_len: u32,
    mb: u32,
    /// Micro-batches the TB owns: `offset + k * stride` for `k < window`.
    stride: u32,
    offset: u32,
    /// Groups of the inner loop, the window for a slot-major program and
    /// the segment count for a micro-batch-major one, and how many of
    /// them are left from the current one on.
    inner: u32,
    inner_left: u32,
    /// The current issue group's index, and the TB's `segments * window`
    /// groups, which it walks in index order.
    group_idx: u32,
    n_groups: u32,
    group_remaining: u32,
    /// Fused forwards issued but not yet drained. They never gate
    /// `group_remaining` — the TB advances to its next micro-batch as soon
    /// as the gating slots retire — but the TB is not released until they
    /// finish.
    async_outstanding: u32,
    busy: f64,
    sync: f64,
    release: f64,
    n_inv: u64,
}

impl TbState {
    fn done(&self) -> bool {
        self.group_idx >= self.n_groups
    }
}

#[derive(Clone, Copy)]
struct InvState {
    deps_remaining: u32,
    send_tb: u32,
    send_arrival: f64,
    recv_tb: u32,
    recv_arrival: f64,
    started: bool,
    done: bool,
    /// Transfer slot while in flight, `NONE` before the start and after
    /// the completion.
    transfer: u32,
}

/// What a start reads of its task's route, one record per route of the
/// DAG.
#[derive(Clone, Copy)]
struct Start {
    /// The sending rank.
    src: u32,
    /// The capacity resources the route drains on.
    path: ResourceSet,
    /// An unfused start's latency before straggling and jitter: α of the
    /// slowest conflict resource plus the interpreter overhead.
    latency: f64,
}

struct Transfer {
    task: TaskId,
    /// The task's capacity resources, copied out of the task arena.
    path: ResourceSet,
    mb: u32,
    bytes: u64,
    remaining: f64,
    rate: f64,
    last_update: f64,
    /// Latency done, bytes draining: the queued event is the drain finish,
    /// not the startup latency.
    draining: bool,
    start: f64,
    /// A fused forward that finished draining before its feeding receive
    /// completed: its completion effects run when the feeder finishes
    /// (cut-through causality).
    pending_complete: bool,
}

/// Settle a draining transfer's progress up to `now` at its old rate, take
/// the minimum share along its path as its new rate, and return its
/// projected drain finish.
fn project(t: &mut Transfer, resources: &[ResState], now: f64) -> f64 {
    debug_assert!(t.draining);
    t.remaining -= t.rate * (now - t.last_update);
    t.remaining = t.remaining.max(0.0);
    t.last_update = now;
    let rate = t
        .path
        .iter()
        .map(|r| resources[r.index()].share)
        .fold(f64::INFINITY, f64::min);
    debug_assert!(rate.is_finite() && rate > 0.0);
    t.rate = rate;
    now + t.remaining / rate
}

/// Slots of the segment that starts at slot `at`, in a TB whose slots end
/// at `end`: it and the fused slots right behind it.
fn segment_len(program: &KernelProgram, end: u32, at: u32) -> u32 {
    let mut len = 1;
    while at + len < end && program.is_fused((at + len) as usize) {
        len += 1;
    }
    len
}

struct ResState {
    params: LinkParams,
    /// `params.bandwidth()` and `params.reference_chunk_ns()`, the two
    /// per-link constants of `refresh_share`.
    bandwidth: f64,
    reference_chunk_ns: f64,
    load: u32,
    active_since: f64,
    active_ns: f64,
    bytes: u64,
    draining: Vec<u32>,
    /// Fault state: carrying traffic at all?
    up: bool,
    /// Fault state: brownout bandwidth multiplier (1.0 = nominal).
    factor: f64,
    /// One drain's fair share, `effective_bandwidth(load) * factor / load`
    /// — the momentary capacity, brownout included, split evenly. Read
    /// only while `load > 0`; refreshed on every change of `load` or
    /// `factor`.
    share: f64,
}

impl ResState {
    fn new(params: LinkParams) -> Self {
        Self {
            params,
            bandwidth: params.bandwidth(),
            reference_chunk_ns: params.reference_chunk_ns(),
            load: 0,
            active_since: 0.0,
            active_ns: 0.0,
            bytes: 0,
            draining: Vec::new(),
            up: true,
            factor: 1.0,
            share: 0.0,
        }
    }

    /// `share = effective_bandwidth(load) * factor / load`, over the
    /// cached constants.
    fn refresh_share(&mut self) {
        let (p, z) = (&self.params, self.load);
        let effective = p.effective_bandwidth_over(z, self.bandwidth, self.reference_chunk_ns);
        self.share = effective * self.factor / z as f64;
    }
}

/// The covered marks that let a load change skip the scan of its peers.
struct Rekeys {
    /// Per resource: every transfer draining on it waits deferred in the
    /// FIFO, so a scan of its peers would defer nothing new. A deferred
    /// transfer leaves the FIFO in one of two ways: it projects to a later
    /// time, which drops the marks of its path, or it pops at the instant
    /// and leaves the drain lists.
    covered: Vec<bool>,
    /// Peers a scan deferred or found deferred already.
    #[cfg(test)]
    deferred: u64,
    /// Scans skipped on a covered resource.
    #[cfg(test)]
    skipped: u64,
}

impl Rekeys {
    /// The re-key state of a run over `n_resources` resources.
    fn new(n_resources: usize) -> Self {
        Self {
            covered: vec![false; n_resources],
            #[cfg(test)]
            deferred: 0,
            #[cfg(test)]
            skipped: 0,
        }
    }

    /// Drop the covered marks of `path`: a transfer draining on it has
    /// left the FIFO for a later time.
    fn uncover(&mut self, path: ResourceSet) {
        for r in path.iter() {
            self.covered[r.index()] = false;
        }
    }

    /// Defer the transfers of `draining`, the drains of resource `r`,
    /// which keeps the place of one deferred already, and cover `r`; if
    /// `r` is covered already, every one of them is deferred and the scan
    /// is skipped. Transfer slot `x` is event `first_transfer + x`.
    #[inline]
    fn visit(
        &mut self,
        r: ResourceId,
        draining: &[u32],
        events: &mut EventQueue,
        first_transfer: u32,
    ) {
        let covered = &mut self.covered[r.index()];
        if *covered {
            debug_assert!(
                draining
                    .iter()
                    .all(|&other| events.is_deferred(first_transfer + other)),
                "resource {r:?} is covered but a transfer draining on it is not deferred"
            );
            #[cfg(test)]
            {
                self.skipped += 1;
            }
            return;
        }
        *covered = true;
        for &other in draining {
            #[cfg(test)]
            {
                self.deferred += 1;
            }
            events.defer(first_transfer + other);
        }
    }
}

struct Engine<'a> {
    dag: &'a DepDag,
    program: &'a KernelProgram,
    op: OpType,
    config: &'a SimConfig,
    n_mb: u32,
    now: f64,
    tbs: Vec<TbState>,
    /// The program's slot table, read in place.
    slots: &'a [Slot],
    invs: Vec<InvState>,
    /// In-flight transfers. A slot is freed when its invocation completes
    /// and reused by the next start, so the table is as long as the most
    /// transfers ever in flight at once.
    transfers: Vec<Transfer>,
    /// Free slots of `transfers`.
    free_transfers: Vec<u32>,
    /// Under data validation, the source values each transfer slot
    /// captured at its start; None for a fused forward, which reads its
    /// source at completion. Empty otherwise.
    captured: Vec<Option<Runs>>,
    /// Each route's start record, by [`DepDag::route_id`].
    starts: Vec<Start>,
    /// The interpreter overhead, a fused forward's whole startup latency.
    overhead: f64,
    /// Bytes of an invocation of every micro-batch but the last, and of
    /// the last.
    mb_bytes: (u64, u64),
    /// Bytes moved by every transfer started so far.
    total_bytes: u64,
    resources: Vec<ResState>,
    /// Event ids: fault transition `i` is `i`, transfer slot `x` is
    /// `fault_sched.len() + x`.
    events: EventQueue,
    /// The transfers the current load change re-keys.
    rekeys: Rekeys,
    /// Buffer values per micro-batch, slot `rank * n_chunks + chunk`.
    buffers: Vec<Slots<Counts>>,
    rng: StdRng,
    inv_done: u64,
    inv_total: u64,
    completion: f64,
    /// Barrier bookkeeping: group of each task, tasks of each group, and
    /// remaining incomplete tasks per (group, micro-batch).
    barrier_group_of: Vec<u32>,
    barrier_members: Vec<Vec<TaskId>>,
    barrier_remaining: Vec<Vec<u32>>,
    /// For a fused forward B (`recvCopySend` — startup latency elided):
    /// the feeding receive task A, else NONE. Empty for an unfused program.
    fused_pred: Vec<u32>,
    /// For a receive A: the fused forwards gated on it, one row per task.
    /// Empty for an unfused program.
    fused_next: Csr<TaskId>,
    /// Fault schedule, stably sorted by timestamp.
    fault_sched: Vec<FaultEvent>,
    /// Transitions applied so far (reported for post-mortems).
    fault_log: Vec<FaultRecord>,
    /// Per-rank issue-latency multiplier (straggler state).
    straggle: Vec<f64>,
    /// Has a `LinkDown` applied? Until one has, no path is dead.
    any_down: bool,
    /// A fault the run cannot survive; the event loop aborts on it.
    fatal: Option<SimError>,
    /// The event table of a traced or attributed run.
    table: Option<EventTable>,
    /// Calls of [`project`].
    #[cfg(test)]
    projections: u64,
}

impl<'a> Engine<'a> {
    fn new(
        topo: &Topology,
        dag: &'a DepDag,
        program: &'a KernelProgram,
        plan: &MicroBatchPlan,
        op: OpType,
        config: &'a SimConfig,
    ) -> SimResult<Self> {
        program.validate(dag).map_err(SimError::LoweringBug)?;
        config.validate(topo.n_resources(), topo.n_ranks())?;
        let n_mb = plan.n_micro_batches;
        let n_ranks = topo.n_ranks();
        let n_tasks = dag.len();
        let inv_total = n_tasks as u64 * n_mb as u64;
        if inv_total > MAX_INVOCATIONS {
            return Err(SimError::InvalidConfig(format!(
                "run would execute {inv_total} invocations, above the safety cap {MAX_INVOCATIONS}"
            )));
        }

        let resources: Vec<ResState> = (0..topo.n_resources())
            .map(|r| {
                topo.resource_params(ResourceId::new(r))
                    .map(ResState::new)
                    .map_err(SimError::Topology)
            })
            .collect::<SimResult<_>>()?;

        let overhead = program.exec.overhead_ns();
        let starts = (0..dag.n_routes() as u32)
            .map(|route| {
                let (src, conflict, path) = dag.route_at(route);
                let alpha = conflict
                    .iter()
                    .map(|r| resources[r.index()].params.alpha_ns)
                    .fold(0.0, f64::max);
                Start {
                    src: src.0,
                    path,
                    latency: alpha + overhead,
                }
            })
            .collect();
        let last_bytes = match n_mb {
            0 => 0,
            n => plan.invocation_bytes(n - 1),
        };

        // TB states, over the program's slot table.
        let table = &*program.table;
        let mut tbs = Vec::with_capacity(table.tbs().len());
        for rank in 0..table.n_ranks() {
            for (pt, tb) in table.rank_tbs(rank).iter().enumerate() {
                let stride = tb.mb_stride.max(1);
                let offset = tb.mb_offset;
                let window = if offset >= n_mb {
                    0
                } else {
                    (n_mb - offset - 1) / stride + 1
                };
                let fused = tb.slots().skip(1).filter(|&i| program.is_fused(i));
                let n_segments = tb.len - fused.count() as u32;
                let inner = match program.loop_order {
                    LoopOrder::SlotMajor => window,
                    LoopOrder::MicroBatchMajor => n_segments,
                };
                tbs.push(TbState {
                    rank: tb.rank,
                    tb: pt as u32,
                    first: tb.first,
                    len: tb.len,
                    cursor: tb.first,
                    seg_len: segment_len(program, tb.first + tb.len, tb.first),
                    mb: offset,
                    stride,
                    offset,
                    inner,
                    inner_left: inner,
                    group_idx: 0,
                    n_groups: n_segments * window,
                    group_remaining: 0,
                    async_outstanding: 0,
                    busy: 0.0,
                    sync: 0.0,
                    release: 0.0,
                    n_inv: 0,
                });
            }
        }

        // The feeder relation of the fused pairs.
        let (fused_pred, fused_next) = if program.fused.is_empty() {
            (Vec::new(), Csr::new())
        } else {
            let pairs: Vec<(TaskId, TaskId)> = program.fused_pairs().collect();
            let mut pred = vec![NONE; n_tasks];
            for &(a, b) in &pairs {
                pred[b.index()] = a.0;
            }
            let next = Csr::from_pairs(n_tasks, pairs.iter().map(|&(a, b)| (a.0, b)));
            (pred, next)
        };
        let feeder = |t: usize| fused_pred.get(t).copied().unwrap_or(NONE);

        // Invocation states.
        let mut invs = vec![
            InvState {
                deps_remaining: 0,
                send_tb: NONE,
                send_arrival: 0.0,
                recv_tb: NONE,
                recv_arrival: 0.0,
                started: false,
                done: false,
                transfer: NONE,
            };
            n_tasks * n_mb as usize
        ];
        for t in 0..n_tasks {
            let mut preds = dag.preds(TaskId::new(t as u32)).len() as u32;
            // A fused forward's dependency on its feeder is replaced by the
            // cut-through start gate.
            if feeder(t) != NONE
                && dag
                    .preds(TaskId::new(t as u32))
                    .contains(&TaskId::new(feeder(t)))
            {
                preds -= 1;
            }
            for mb in 0..n_mb {
                invs[t * n_mb as usize + mb as usize].deps_remaining = preds;
            }
        }

        // Barrier groups.
        let (barrier_group_of, barrier_members, mut barrier_remaining) =
            if let Some(groups) = &program.barrier_groups {
                let n_groups = groups.iter().copied().max().unwrap_or(0) as usize + 1;
                let mut members: Vec<Vec<TaskId>> = vec![Vec::new(); n_groups];
                for (t, &g) in groups.iter().enumerate() {
                    members[g as usize].push(TaskId::new(t as u32));
                }
                let remaining: Vec<Vec<u32>> = members
                    .iter()
                    .map(|m| vec![m.len() as u32; n_mb as usize])
                    .collect();
                (groups.clone(), members, remaining)
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };

        // Buffers.
        let n_chunks = dag.n_chunks();
        let mut buffers = if config.validate_data {
            vec![Slots::initial(op, n_ranks, 0..n_chunks); n_mb as usize]
        } else {
            Vec::new()
        };

        // Partial-progress resume: replay the aborted attempt's completed
        // transfers into the value buffers, mark completed invocations
        // done, and pre-propagate their dependency / barrier effects so
        // the remaining work starts exactly where the abort left off —
        // without re-running any (non-idempotent) reduction.
        let mut inv_done_init = 0u64;
        if let Some(rs) = &config.resume {
            if rs.n_tasks != n_tasks as u32 || rs.n_mb != n_mb {
                return Err(SimError::InvalidConfig(format!(
                    "resume frontier covers {} tasks x {} micro-batches, run has {n_tasks} x {n_mb}",
                    rs.n_tasks, rs.n_mb
                )));
            }
            if config.validate_data {
                rs.replay_into(dag, 0..n_mb, &mut buffers);
            }
            for t in 0..n_tasks {
                for mb in 0..n_mb {
                    if !rs.is_done(t as u32, mb) {
                        continue;
                    }
                    let inv = &mut invs[t * n_mb as usize + mb as usize];
                    inv.started = true;
                    inv.done = true;
                    inv_done_init += 1;
                    for &s in dag.succs(TaskId::new(t as u32)) {
                        // The fused forward's dependency on its feeder was
                        // lifted at initialization, mirroring completion.
                        if feeder(s.index()) == t as u32 {
                            continue;
                        }
                        invs[s.index() * n_mb as usize + mb as usize].deps_remaining -= 1;
                    }
                    if !barrier_group_of.is_empty() {
                        let g = barrier_group_of[t] as usize;
                        barrier_remaining[g][mb as usize] -= 1;
                    }
                }
            }
        }

        // Each in-flight transfer owns one event id after the faults; the
        // queue grows its table past the first guess.
        let first_guess = tbs.len();
        Ok(Self {
            dag,
            program,
            op,
            config,
            n_mb,
            now: 0.0,
            tbs,
            slots: table.slots(),
            invs,
            transfers: Vec::with_capacity(first_guess),
            free_transfers: Vec::new(),
            captured: Vec::new(),
            starts,
            overhead,
            mb_bytes: (plan.chunk_bytes, last_bytes),
            total_bytes: 0,
            resources,
            events: EventQueue::with_ids(config.faults.events().len() + first_guess),
            rekeys: Rekeys::new(topo.n_resources() as usize),
            buffers,
            rng: StdRng::seed_from_u64(config.seed),
            inv_done: inv_done_init,
            inv_total,
            completion: 0.0,
            barrier_group_of,
            barrier_members,
            barrier_remaining,
            fused_pred,
            fused_next,
            fault_sched: Vec::new(),
            fault_log: Vec::new(),
            straggle: vec![1.0; n_ranks as usize],
            any_down: false,
            fatal: None,
            table: (config.record_trace || config.attribute_bubbles)
                .then(|| EventTable::new(inv_total as usize)),
            #[cfg(test)]
            projections: 0,
        })
    }

    /// Move `tb` to its next issue group. Slot-major programs walk each
    /// segment over the TB's micro-batch window, then the next segment;
    /// micro-batch-major programs walk every segment once per micro-batch
    /// (each micro-batch walks the pipeline, fused pairs issuing together
    /// as one recvCopySend).
    fn advance(&mut self, tb_id: u32) {
        let slot_major = self.program.loop_order == LoopOrder::SlotMajor;
        let tb = &mut self.tbs[tb_id as usize];
        tb.group_idx += 1;
        if tb.inner_left > 1 {
            tb.inner_left -= 1;
            if slot_major {
                tb.mb += tb.stride;
                return;
            }
            tb.cursor += tb.seg_len;
        } else {
            tb.inner_left = tb.inner;
            if slot_major {
                tb.mb = tb.offset;
                tb.cursor += tb.seg_len;
            } else {
                tb.mb += tb.stride;
                tb.cursor = tb.first;
            }
        }
        tb.seg_len = segment_len(self.program, tb.first + tb.len, tb.cursor);
    }

    /// The fused receive feeding `task`, or NONE.
    fn feeder(&self, task: TaskId) -> u32 {
        self.fused_pred.get(task.index()).copied().unwrap_or(NONE)
    }

    /// The fused forwards gated on the receive `task`.
    fn forwards(&self, task: TaskId) -> &[TaskId] {
        if task.index() < self.fused_next.n_rows() {
            self.fused_next.row(task.index())
        } else {
            &[]
        }
    }

    /// Is task `task` allowed to start micro-batch `mb` under the
    /// program's barrier discipline?
    fn barrier_ok(&self, task: TaskId, mb: u32) -> bool {
        let stride = self.program.barrier_stride.max(1);
        if self.barrier_group_of.is_empty() || mb < stride {
            return true;
        }
        let g = self.barrier_group_of[task.index()] as usize;
        self.barrier_remaining[g][(mb - stride) as usize] == 0
    }

    fn run(mut self) -> SimResult<SimReport> {
        self.drive()?;
        self.report()
    }

    /// Launch the kernel and run the event loop until every invocation
    /// completes.
    fn drive(&mut self) -> SimResult<()> {
        // Fault schedule: stable-sort by timestamp. Transitions at or
        // before t = 0 — already in the past, e.g. after a retry shifted
        // the timeline with [`FaultTimeline::advanced`] — apply before
        // launch; the rest enter the event queue. Fault events are
        // scheduled before any transfer event, so at equal timestamps they
        // fire first (stable `seq` tie-break) — replay is deterministic.
        let mut sched = self.config.faults.events().to_vec();
        sched.sort_by(|a, b| a.at_ns.total_cmp(&b.at_ns));
        self.fault_sched = sched;
        let first_transfer = self.transfer_event(0);
        for i in 0..first_transfer {
            let at = self.fault_sched[i as usize].at_ns;
            if at <= 0.0 {
                self.apply_fault(i);
            } else {
                self.events.schedule(i, at);
            }
        }

        // Kernel launch: every TB arrives at its first invocation at t = 0.
        for tb_id in 0..self.tbs.len() as u32 {
            self.tb_arrive(tb_id);
        }
        if let Some(err) = self.fatal.take() {
            return Err(err);
        }

        while let Some(ev) = self.events.pop(|id| {
            let x = (id - first_transfer) as usize;
            #[cfg(test)]
            {
                self.projections += 1;
            }
            let t = project(&mut self.transfers[x], &self.resources, self.now);
            if t.to_bits() != self.now.to_bits() {
                self.rekeys.uncover(self.transfers[x].path);
            }
            t
        }) {
            // Monotonicity tolerance must scale with the clock: at f64 ns
            // magnitudes a second-long run sits near 1e9, where rounding
            // noise dwarfs any fixed absolute epsilon. Allow one part in
            // 1e12 of the current time (≈1ms worth of ULPs at 1e9 ns),
            // with a small absolute floor for clocks near zero.
            debug_assert!(
                ev.t >= self.now - 1e-9f64.max(self.now.abs() * 1e-12),
                "time went backwards: event at {} ns behind clock {} ns",
                ev.t,
                self.now
            );
            self.now = ev.t.max(self.now);
            if ev.id < first_transfer {
                self.apply_fault(ev.id);
            } else {
                let x = ev.id - first_transfer;
                if self.transfers[x as usize].draining {
                    self.on_drain_done(x);
                } else {
                    self.on_latency_done(x);
                }
            }
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
        }

        if self.inv_done != self.inv_total {
            return Err(self.deadlock_report());
        }
        Ok(())
    }

    /// Check the data, if asked, and build the report of a finished run.
    fn report(mut self) -> SimResult<SimReport> {
        let data_valid = if self.config.validate_data {
            Some(self.check_data()?)
        } else {
            None
        };

        let completion = self.completion;
        let tb_stats = self
            .tbs
            .iter()
            .map(|tb| TbStat {
                rank: tb.rank,
                tb: tb.tb,
                busy_ns: tb.busy,
                sync_ns: tb.sync,
                release_ns: tb.release,
                // Barrier groups mark a rigid (NCCL/MSCCL) kernel, whose
                // TBs hold their SMs until the whole kernel finishes.
                occupancy_ns: if self.program.barrier_groups.is_some() {
                    completion
                } else {
                    tb.release
                },
                n_invocations: tb.n_inv,
            })
            .collect();
        let resource_stats = self
            .resources
            .iter()
            .enumerate()
            .filter(|(_, r)| r.bytes > 0)
            .map(|(i, r)| ResourceStat {
                resource: i as u32,
                active_ns: r.active_ns,
                bytes: r.bytes,
                capacity: r.params.bandwidth(),
            })
            .collect();
        let mut report = SimReport {
            completion_ns: completion,
            total_bytes: self.total_bytes,
            tb_stats,
            resource_stats,
            data_valid,
            n_micro_batches: self.n_mb,
            n_invocations: self.inv_done,
            trace: Vec::new(),
            faults: std::mem::take(&mut self.fault_log),
            obs: None,
        };
        if let Some(table) = &self.table {
            let lone_bandwidth =
                |r: ResourceId| self.resources[r.index()].params.effective_bandwidth(1);
            let row = |i: usize, task: TaskId, mb: u32| {
                let (inv, fused) = (&self.invs[i], self.feeder(task) != NONE);
                (inv.send_tb, inv.recv_tb, fused, self.bytes(mb))
            };
            table.views(self.dag, self.config, &mut report, &lone_bandwidth, row);
        }
        Ok(report)
    }

    /// Apply one scheduled fault transition to the live resource/rank
    /// state. A link death with transfers draining on the resource is
    /// fatal: the typed error names the first victim so the watchdog can
    /// decide between retry and recompile.
    fn apply_fault(&mut self, i: u32) {
        let FaultEvent { at_ns, fault } = self.fault_sched[i as usize];
        self.fault_log.push(FaultRecord { at_ns, fault });
        match fault {
            Fault::LinkDown(r) => {
                self.any_down = true;
                self.resources[r.index()].up = false;
                if let Some(&x) = self.resources[r.index()].draining.first() {
                    let task = self.transfers[x as usize].task;
                    self.fail_on_dead(task, r);
                }
            }
            Fault::LinkUp(r) => self.resources[r.index()].up = true,
            Fault::Brownout(r, f) => self.set_factor(r, f),
            Fault::BrownoutEnd(r) => self.set_factor(r, 1.0),
            Fault::Straggler(rank, m) => self.straggle[rank as usize] = m,
        }
    }

    /// Change `r`'s brownout factor and defer every transfer draining on
    /// it.
    fn set_factor(&mut self, r: ResourceId, factor: f64) {
        let first_transfer = self.transfer_event(0);
        let rs = &mut self.resources[r.index()];
        rs.factor = factor;
        rs.refresh_share();
        for &x in &rs.draining {
            self.events.defer(first_transfer + x);
        }
    }

    /// The first dead resource on `path`, if any.
    fn dead_on(&self, path: ResourceSet) -> Option<ResourceId> {
        if !self.any_down {
            return None;
        }
        path.iter().find(|r| !self.resources[r.index()].up)
    }

    /// The event id of transfer `x`.
    fn transfer_event(&self, x: u32) -> u32 {
        self.fault_sched.len() as u32 + x
    }

    /// Record a typed [`SimError::ResourceDown`] for `task` hitting dead
    /// resource `r`, carrying the fault frontier — the completed
    /// invocation set a recovery layer can resume from; the event loop
    /// aborts at the next check.
    fn fail_on_dead(&mut self, task: TaskId, r: ResourceId) {
        if self.fatal.is_some() {
            return;
        }
        let frontier = self.capture_frontier();
        self.fatal = Some(SimError::ResourceDown {
            resource: r.0,
            task: task.0,
            at_ns: self.now.max(0.0).round() as u64,
            permanent: self.config.faults.is_permanent_down(r),
            frontier: Some(Box::new(frontier)),
        });
    }

    /// Snapshot the set of completed invocations at the current instant —
    /// the same `done` flags data validation tracks, so the frontier is
    /// deterministic for a deterministic run. `try_start` refuses to issue
    /// new transfers once `fatal` is set, so the set is stable at capture.
    /// A capture in the middle of an instant holds the completions handled
    /// so far in it, so it depends on the order of the instant's events.
    fn capture_frontier(&self) -> FaultFrontier {
        let mut f = FaultFrontier::new(
            self.dag.len() as u32,
            self.n_mb,
            self.now.max(0.0).round() as u64,
        );
        for (i, inv) in self.invs.iter().enumerate() {
            if inv.done {
                f.mark(
                    (i / self.n_mb as usize) as u32,
                    (i % self.n_mb as usize) as u32,
                );
            }
        }
        f
    }

    /// The TB (re-)arrives at its current issue group: every invocation of
    /// the group registers its side and may start. Invocations a
    /// partial-progress resume already completed retire instantly — a
    /// group whose gating slots are all complete is skipped outright (the
    /// loop), so a resumed TB fast-forwards to its first remaining work.
    fn tb_arrive(&mut self, tb_id: u32) {
        loop {
            let now = self.now;
            let tb = &self.tbs[tb_id as usize];
            if tb.done() {
                // Released only once every asynchronous fused forward it
                // issued has drained (otherwise the last completion sets
                // release).
                if tb.async_outstanding == 0 {
                    self.tbs[tb_id as usize].release = now;
                }
                return;
            }
            let (mb, slots) = (tb.mb, tb.cursor as usize..(tb.cursor + tb.seg_len) as usize);
            // Fused forwards are issued asynchronously: they register their
            // sender side now but do not gate the group, so the TB moves on
            // to the next micro-batch as soon as its gating slots retire —
            // the cut-through pipelining real fused kernels get from
            // sub-chunk FIFO slices. A segment's first slot is its one
            // unfused slot, so every group has exactly one gating member.
            let live = |si: usize| {
                !self.invs[self.slots[si].task().index() * self.n_mb as usize + mb as usize].done
            };
            let live_gating = u32::from(live(slots.start));
            let live_fused = slots.clone().skip(1).filter(|&si| live(si)).count() as u32;
            let tb = &mut self.tbs[tb_id as usize];
            tb.group_remaining = live_gating;
            tb.async_outstanding += live_fused;
            for si in slots {
                let slot = self.slots[si];
                let idx = slot.task().index() * self.n_mb as usize + mb as usize;
                let inv = &mut self.invs[idx];
                if inv.done {
                    continue; // already complete before this attempt
                }
                if slot.is_send() {
                    debug_assert_eq!(inv.send_tb, NONE, "two senders for one invocation");
                    inv.send_tb = tb_id;
                    inv.send_arrival = now;
                } else {
                    debug_assert_eq!(inv.recv_tb, NONE, "two receivers for one invocation");
                    inv.recv_tb = tb_id;
                    inv.recv_arrival = now;
                }
                self.try_start(slot.task(), mb);
            }
            if live_gating > 0 {
                return;
            }
            // Every gating slot had completed before this attempt: the
            // group is already retired — advance and look at the next.
            self.advance(tb_id);
        }
    }

    fn try_start(&mut self, task: TaskId, mb: u32) {
        if self.fatal.is_some() {
            return; // aborting — don't issue new transfers
        }
        let idx = task.index() * self.n_mb as usize + mb as usize;
        let inv = &self.invs[idx];
        if inv.started
            || inv.send_tb == NONE
            || inv.recv_tb == NONE
            || inv.deps_remaining > 0
            || !self.barrier_ok(task, mb)
        {
            return;
        }
        let (send_tb, send_arrival, recv_tb, recv_arrival) =
            (inv.send_tb, inv.send_arrival, inv.recv_tb, inv.recv_arrival);
        // Cut-through gate: a fused forward starts once its feeding receive
        // is in flight (the feeder's completion dependency was lifted).
        let fp = self.feeder(task);
        if fp != NONE {
            let fidx = fp as usize * self.n_mb as usize + mb as usize;
            if !self.invs[fidx].started {
                return;
            }
        }
        // A transfer cannot cross a dead resource: surface the typed
        // failure so the Communicator's watchdog can retry or recompile.
        let start = self.starts[self.dag.route_id(task) as usize];
        if let Some(r) = self.dead_on(start.path) {
            self.fail_on_dead(task, r);
            return;
        }
        self.invs[idx].started = true;
        let now = self.now;

        // Sync (blocked) time for both sides. A fused forward's sender side
        // is asynchronous — its TB was never actually blocked on it.
        if fp == NONE {
            self.tbs[send_tb as usize].sync += now - send_arrival;
        }
        self.tbs[recv_tb as usize].sync += now - recv_arrival;
        if let Some(table) = &mut self.table {
            table.start(idx, [send_arrival, recv_arrival], now);
        }

        let bytes = self.bytes(mb);
        // Startup latency: α of the slowest conflict resource + interpreter
        // overhead + optional jitter. A route's own extra latency (a
        // cross-rack hop, an NVSwitch relay) is not in the DAG and is not
        // charged. A fused recvCopySend forward starts inside the previous
        // primitive's epilogue: no fresh α.
        let base = if fp != NONE {
            self.overhead
        } else {
            start.latency
        };
        let mut latency = base * self.straggle[start.src as usize];
        if self.config.jitter_frac > 0.0 {
            latency *= 1.0 + self.config.jitter_frac * self.rng.gen::<f64>();
        }

        let transfer = Transfer {
            task,
            path: start.path,
            mb,
            bytes,
            remaining: bytes as f64,
            rate: 0.0,
            last_update: now,
            draining: false,
            start: now,
            pending_complete: false,
        };
        self.total_bytes += bytes;
        let x = match self.free_transfers.pop() {
            Some(x) => {
                self.transfers[x as usize] = transfer;
                x
            }
            None => {
                self.transfers.push(transfer);
                self.transfers.len() as u32 - 1
            }
        };
        self.invs[idx].transfer = x;
        if self.config.validate_data {
            // Fused forwards capture at completion instead (their payload
            // is the feeder's freshly-delivered value, applied by then).
            let captured = (fp == NONE).then(|| {
                let t = self.dag.transfer(task);
                self.buffers[mb as usize]
                    .slot(self.buffer_idx(t.src.0, t.chunk.0))
                    .clone()
            });
            self.captured.resize(self.transfers.len(), None);
            self.captured[x as usize] = captured;
        }
        self.events.schedule(self.transfer_event(x), now + latency);

        // Wake fused followers gated on this start.
        for k in 0..self.forwards(task).len() {
            self.try_start(self.forwards(task)[k], mb);
        }
    }

    /// Bytes of an invocation of micro-batch `mb`.
    fn bytes(&self, mb: u32) -> u64 {
        [self.mb_bytes.0, self.mb_bytes.1][usize::from(mb + 1 == self.n_mb)]
    }

    /// Stamp the event table, if the run keeps one.
    fn stamp(&mut self, task: TaskId, mb: u32, stamp: Stamp) {
        if let Some(table) = &mut self.table {
            let row = task.index() * self.n_mb as usize + mb as usize;
            table.stamp(row, stamp, self.now);
        }
    }

    fn buffer_idx(&self, rank: u32, chunk: u32) -> usize {
        (rank * self.dag.n_chunks() + chunk) as usize
    }

    fn on_latency_done(&mut self, x: u32) {
        let now = self.now;
        let (task, path, mb) = {
            let t = &self.transfers[x as usize];
            (t.task, t.path, t.mb)
        };
        // The resource may have died during the startup latency: fail the
        // transfer before it registers on the path.
        if let Some(r) = self.dead_on(path) {
            self.fail_on_dead(task, r);
            return;
        }
        let t = &mut self.transfers[x as usize];
        t.draining = true;
        t.last_update = now;
        self.stamp(task, mb, Stamp::DrainStart);
        let first_transfer = self.transfer_event(0);
        self.events.defer(first_transfer + x);
        for r in path.iter() {
            let rs = &mut self.resources[r.index()];
            if rs.load == 0 {
                rs.active_since = now;
            }
            rs.load += 1;
            rs.refresh_share();
            self.rekeys
                .visit(r, &rs.draining, &mut self.events, first_transfer);
            rs.draining.push(x);
        }
    }

    fn on_drain_done(&mut self, x: u32) {
        let now = self.now;
        let (task, path, mb, bytes) = {
            let t = &self.transfers[x as usize];
            (t.task, t.path, t.mb, t.bytes)
        };

        self.stamp(task, mb, Stamp::DrainEnd);
        // Free resources and settle peers.
        let first_transfer = self.transfer_event(0);
        for r in path.iter() {
            let rs = &mut self.resources[r.index()];
            rs.load -= 1;
            rs.refresh_share();
            rs.bytes += bytes;
            if rs.load == 0 {
                rs.active_ns += now - rs.active_since;
            }
            match rs.draining.iter().position(|&o| o == x) {
                Some(posn) => {
                    rs.draining.swap_remove(posn);
                }
                // A transfer missing from its own path's drain list means
                // the engine's bookkeeping is inconsistent; surface a
                // typed fatal error instead of poisoning the run with a
                // panic (the event loop aborts on `fatal`).
                None => {
                    self.fatal.get_or_insert(SimError::EngineBug {
                        task,
                        mb,
                        resource: r,
                    });
                    return;
                }
            }
            self.rekeys
                .visit(r, &rs.draining, &mut self.events, first_transfer);
        }
        self.transfers[x as usize].draining = false;

        // Cut-through causality: a fused forward cannot complete before the
        // receive that feeds it.
        let fp = self.feeder(task);
        if fp != NONE {
            let fidx = fp as usize * self.n_mb as usize + mb as usize;
            if !self.invs[fidx].done {
                self.transfers[x as usize].pending_complete = true;
                return;
            }
        }
        self.complete_invocation(x);
    }

    /// Completion effects of a drained transfer: data application, its
    /// stamp, accounting, dependency propagation, barrier release, TB advance —
    /// possibly deferred for fused forwards.
    fn complete_invocation(&mut self, x: u32) {
        let now = self.now;
        let (task, mb, start) = {
            let t = &self.transfers[x as usize];
            (t.task, t.mb, t.start)
        };
        let idx = task.index() * self.n_mb as usize + mb as usize;
        let (send_tb, recv_tb) = (self.invs[idx].send_tb, self.invs[idx].recv_tb);

        // Apply data semantics. Fused forwards (no capture at start) read
        // the source slot now — the feeding receive has already applied.
        if self.config.validate_data {
            let t = self.dag.transfer(task);
            let (si, di) = (
                self.buffer_idx(t.src.0, t.chunk.0),
                self.buffer_idx(t.dst.0, t.chunk.0),
            );
            let captured = self.captured[x as usize].take();
            let buf = &mut self.buffers[mb as usize];
            match captured {
                Some(v) => buf.write(di, &v, t.comm, 0),
                None => buf.apply(Move {
                    src: si,
                    dst: di,
                    comm: t.comm,
                    writer: 0,
                }),
            }
        }

        self.stamp(task, mb, Stamp::End);

        // Account busy time on both TBs.
        let dur = now - start;
        self.tbs[send_tb as usize].busy += dur;
        self.tbs[recv_tb as usize].busy += dur;
        self.tbs[send_tb as usize].n_inv += 1;
        self.tbs[recv_tb as usize].n_inv += 1;

        // Mark done, free the transfer slot, propagate dependencies.
        self.invs[idx].done = true;
        self.invs[idx].transfer = NONE;
        self.free_transfers.push(x);
        self.inv_done += 1;
        self.completion = self.completion.max(now);
        let dag = self.dag;
        for &s in dag.succs(task) {
            // The fused forward's dependency on this feeder was lifted at
            // initialization; everything else decrements normally.
            if self.feeder(s) == task.0 {
                continue;
            }
            let sidx = s.index() * self.n_mb as usize + mb as usize;
            self.invs[sidx].deps_remaining -= 1;
            self.try_start(s, mb);
        }

        // Barrier release: when the whole group finishes this micro-batch,
        // its tasks may start the next one.
        if !self.barrier_group_of.is_empty() {
            let g = self.barrier_group_of[task.index()] as usize;
            self.barrier_remaining[g][mb as usize] -= 1;
            let stride = self.program.barrier_stride.max(1);
            if self.barrier_remaining[g][mb as usize] == 0 && mb + stride < self.n_mb {
                for k in 0..self.barrier_members[g].len() {
                    self.try_start(self.barrier_members[g][k], mb + stride);
                }
            }
        }

        // Release fused forwards that drained before this feeder finished.
        for k in 0..self.forwards(task).len() {
            let b = self.forwards(task)[k];
            let bidx = b.index() * self.n_mb as usize + mb as usize;
            let bx = self.invs[bidx].transfer;
            if bx != NONE && self.transfers[bx as usize].pending_complete {
                self.transfers[bx as usize].pending_complete = false;
                self.complete_invocation(bx);
            }
        }

        // Advance the participating TBs. The sender side of a fused forward
        // is asynchronous — it never gated its issue group, so its
        // completion only settles the outstanding count (and the release
        // time, once the TB has walked off its groups). A gating side
        // retires one invocation of its current group; when the group
        // drains, the next one is entered.
        let send_is_fused = self.feeder(task) != NONE;
        for (tb_id, is_async) in [(send_tb, send_is_fused), (recv_tb, false)] {
            let tb = &mut self.tbs[tb_id as usize];
            if is_async {
                debug_assert!(tb.async_outstanding > 0, "async retire without issue");
                tb.async_outstanding -= 1;
                if tb.async_outstanding == 0 && tb.done() {
                    tb.release = now;
                }
            } else {
                debug_assert!(tb.group_remaining > 0, "TB retired with no open group");
                tb.group_remaining -= 1;
                if tb.group_remaining == 0 {
                    self.advance(tb_id);
                    self.tb_arrive(tb_id);
                }
            }
        }
    }

    fn check_data(&self) -> SimResult<bool> {
        let n_chunks = self.dag.n_chunks();
        for (mb, buf) in self.buffers.iter().enumerate() {
            if let Some((rank, chunk, got, want)) = buf.contract_violation(self.op, 0..n_chunks) {
                return Err(SimError::Validation(format!(
                    "collective produced wrong data: micro-batch {mb}, rank r{rank}, \
                     chunk c{chunk}: counts {got:?}, expected {want:?}"
                )));
            }
        }
        Ok(true)
    }

    fn deadlock_report(&self) -> SimError {
        // Find a representative blocked invocation for the diagnosis.
        let mut detail = String::new();
        for (i, inv) in self.invs.iter().enumerate() {
            if !inv.done && inv.started {
                continue; // in flight — impossible here (queue empty)
            }
            if !inv.done {
                let task = TaskId::new((i / self.n_mb as usize) as u32);
                let mb = i % self.n_mb as usize;
                detail = format!(
                    "first blocked invocation: task {task} micro-batch {mb} \
                     (deps remaining {}, sender {}, receiver {})",
                    inv.deps_remaining,
                    if inv.send_tb == NONE {
                        "absent"
                    } else {
                        "arrived"
                    },
                    if inv.recv_tb == NONE {
                        "absent"
                    } else {
                        "arrived"
                    },
                );
                break;
            }
        }
        // Dump each unfinished TB's head group for cycle diagnosis.
        let mut heads = String::new();
        for (i, tb) in self.tbs.iter().enumerate() {
            if tb.done() {
                continue;
            }
            let slots: Vec<String> = self.slots
                [tb.cursor as usize..(tb.cursor + tb.seg_len) as usize]
                .iter()
                .map(|&slot| {
                    let idx = slot.task().index() * self.n_mb as usize + tb.mb as usize;
                    let inv = &self.invs[idx];
                    format!(
                        "{}({:?},started={},done={},deps={})",
                        slot.task(),
                        Primitive::of(slot, self.dag),
                        inv.started,
                        inv.done,
                        inv.deps_remaining
                    )
                })
                .collect();
            heads.push_str(&format!(
                "\n  tb#{i} r{} idx{} group{} mb{} rem{}: {}",
                tb.rank,
                tb.tb,
                tb.group_idx,
                tb.mb,
                tb.group_remaining,
                slots.join(", ")
            ));
        }
        SimError::Deadlock(format!(
            "deadlock: {}/{} invocations completed; {detail}{heads}",
            self.inv_done, self.inv_total
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_kernel::ExecMode;
    use rescc_lang::AlgoBuilder;
    use rescc_topology::{Rank, TopologyHealth};
    use std::cmp::Ordering;

    /// A `BinaryHeap` with generation-based lazy deletion: every
    /// scheduling pushes a fresh entry stamped with its id's new
    /// generation, and pops skip entries a later scheduling superseded.
    /// A re-key of an id deferred at the current instant keeps its `seq`.
    #[derive(Default)]
    struct LazyHeap {
        heap: BinaryHeap<Reverse<Stamped>>,
        generation: Vec<u64>,
        seq: u64,
        /// The current instant: the latest time popped.
        now: f64,
        /// Ids deferred at `now` and not yet projected, each with the
        /// `seq` it drew. The queue projects a deferred id once no event
        /// sorts before `(now, seq)`, so a pop past that key ends it.
        deferred: Vec<(u32, u64)>,
    }

    struct Stamped {
        ev: Event,
        generation: u64,
    }

    impl PartialEq for Stamped {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Stamped {}
    impl PartialOrd for Stamped {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Stamped {
        fn cmp(&self, other: &Self) -> Ordering {
            self.ev
                .t
                .total_cmp(&other.ev.t)
                .then_with(|| self.ev.seq.cmp(&other.ev.seq))
        }
    }

    impl LazyHeap {
        /// Push `id`'s event at `(t, seq)`, superseding its last one.
        fn push(&mut self, id: u32, t: f64, seq: u64) {
            if id as usize >= self.generation.len() {
                self.generation.resize(id as usize + 1, 0);
            }
            self.generation[id as usize] += 1;
            self.heap.push(Reverse(Stamped {
                ev: Event { t, seq, id },
                generation: self.generation[id as usize],
            }));
        }

        fn schedule(&mut self, id: u32, t: f64) {
            self.deferred.retain(|&(d, _)| d != id);
            self.seq += 1;
            self.push(id, t, self.seq);
        }

        /// Re-key `id` to `t` as [`EventQueue::defer`] does: with the next
        /// `seq`, or with the one it drew if it is deferred at `now`.
        fn defer(&mut self, id: u32, t: f64) {
            let seq = match self.deferred.iter().find(|&&(d, _)| d == id) {
                Some(&(_, seq)) => seq,
                None => {
                    self.seq += 1;
                    self.deferred.push((id, self.seq));
                    self.seq
                }
            };
            self.push(id, t, seq);
        }

        fn pop(&mut self) -> Option<Event> {
            while let Some(Reverse(s)) = self.heap.pop() {
                if s.generation == self.generation[s.ev.id as usize] {
                    let (ev, instant) = (s.ev, self.now);
                    self.deferred
                        .retain(|&(_, seq)| ev.t == instant && seq > ev.seq);
                    self.now = ev.t;
                    return Some(ev);
                }
            }
            self.deferred.clear();
            None
        }
    }

    /// The projector of a queue that never defers.
    fn no_defers(id: u32) -> f64 {
        unreachable!("id {id} was never deferred")
    }

    /// Is a live event still due at the current instant? Every event at
    /// `now` waits in the FIFO.
    fn instant_open(queue: &EventQueue) -> bool {
        queue.fifo[queue.head..]
            .iter()
            .any(|&(seq, id)| queue.live[id as usize] == seq)
    }

    impl Default for EventQueue {
        fn default() -> Self {
            Self::with_ids(0)
        }
    }

    /// The time of `id`'s live event if it waits in a bucket.
    fn bucketed_time(queue: &EventQueue, id: u32) -> Option<f64> {
        let seq = queue.live.get(id as usize).copied().unwrap_or(0);
        queue
            .buckets
            .iter()
            .filter(|b| b.t != FREE)
            .find(|b| b.events.contains(&(seq, id)))
            .map(|b| f64::from_bits(b.t))
    }

    #[test]
    fn indexed_queue_pops_like_lazy_deletion() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_ids = 1 + rng.gen_range(0..64);
            let mut queue = EventQueue::default();
            let mut reference = LazyHeap::default();
            for _ in 0..4_000 {
                if rng.gen_range(0..3) < 2 {
                    // Rescheduling a queued id moves its key up or down, at
                    // or after the last pop; coarse times force `seq`
                    // tie-breaks.
                    let id = rng.gen_range(0..n_ids) as u32;
                    let t = queue.now + rng.gen_range(0..40) as f64 * 0.5;
                    queue.schedule(id, t);
                    reference.schedule(id, t);
                } else {
                    assert_eq!(queue.pop(no_defers), reference.pop(), "seed {seed}");
                }
            }
            while let Some(ev) = reference.pop() {
                assert_eq!(queue.pop(no_defers), Some(ev), "seed {seed}");
            }
            assert_eq!(queue.pop(no_defers), None, "seed {seed}");
        }
    }

    /// The deferred re-keys an oracle run made, by kind, and the bucket
    /// regimes it reached.
    #[derive(Default)]
    struct Defers {
        /// Made while the instant was closed.
        closed: u32,
        /// Projecting onto the instant (the FIFO path).
        onto_now: u32,
        /// Projecting onto the instant while the id's live event waits in
        /// a bucket at a later time, which the deferral kills.
        over_later_entry: u32,
        /// Projecting onto a later time (a bucket).
        later: u32,
        /// Projecting onto the time of the id's live event in a bucket,
        /// which the deferral kills: it joins the bucket of its dead event.
        onto_dead_twin: u32,
        /// Re-deferring an id already deferred at the instant, which keeps
        /// its `seq` and its FIFO place.
        again: u32,
        /// Pops after which a bucket held a deferred id behind later
        /// `seq`s, so that the FIFO it becomes is sorted.
        behind_later_seqs: u32,
        /// The most buckets waiting at once.
        peak_buckets: usize,
    }

    impl Defers {
        fn note(&mut self, queue: &EventQueue, id: u32, t: f64) {
            let now = queue.now;
            self.closed += u32::from(!instant_open(queue));
            self.again += u32::from(queue.is_deferred(id));
            let bucketed = bucketed_time(queue, id);
            if t == now {
                self.onto_now += 1;
                self.over_later_entry += u32::from(bucketed.is_some_and(|b| b > now));
            } else {
                self.later += 1;
                self.onto_dead_twin += u32::from(bucketed == Some(t));
            }
        }

        /// Note the buckets after a pop.
        fn popped(&mut self, queue: &EventQueue) {
            let waiting = queue.buckets.iter().filter(|b| b.t != FREE);
            self.behind_later_seqs += u32::from(waiting.clone().any(|b| !b.sorted));
            self.peak_buckets = self.peak_buckets.max(waiting.count());
        }

        fn assert_covered(&self) {
            assert!(self.closed > 0, "no defer in a closed instant");
            assert!(self.onto_now > 0, "no defer onto the instant");
            assert!(self.over_later_entry > 0, "no defer over a later entry");
            assert!(self.later > 0, "no defer to a later time");
            assert!(
                self.onto_dead_twin > 0,
                "no defer onto its dead event's time"
            );
            assert!(
                self.again > 0,
                "no re-defer of an id deferred at the instant"
            );
        }

        /// [`Defers::assert_covered`], and a bucket sorted for a deferred
        /// id behind later `seq`s: times shared by several events.
        fn assert_covered_shared(&self) {
            self.assert_covered();
            assert!(
                self.behind_later_seqs > 0,
                "no deferred id projected behind later seqs"
            );
        }
    }

    /// Drive `EventQueue` and the lazy-deletion oracle through one random
    /// mix of schedules, re-keys and pops and require identical pop
    /// sequences, the way the engine does: the clock is the last popped
    /// time and `time` picks each new event's time from it. The oracle
    /// places a re-key at once, from a per-id finish table, keeping the
    /// `seq` of an id deferred at the instant; the queue takes it through
    /// `defer`, as the engine does, and projects it from the same table,
    /// noting it in `defers`. Half the re-keys `schedule` the id instead
    /// while the instant is closed. Ids number up to `max_ids`.
    fn pops_like_oracle(
        seed: u64,
        max_ids: u64,
        defers: &mut Defers,
        time: impl Fn(&mut StdRng, f64) -> f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_ids = 1 + rng.gen_range(0..max_ids);
        let mut queue = EventQueue::default();
        let mut reference = LazyHeap::default();
        let mut finish = vec![0.0; n_ids as usize];
        let mut now = 0.0;
        for _ in 0..4_000 {
            let id = rng.gen_range(0..n_ids) as u32;
            match rng.gen_range(0..8) {
                0..=2 => {
                    let t = time(&mut rng, now);
                    assert!(t >= now);
                    queue.schedule(id, t);
                    reference.schedule(id, t);
                }
                3..=5 => {
                    let t = match rng.gen_range(0..4) {
                        0 => now,
                        // The time of its live event, if that is later.
                        1 => bucketed_time(&queue, id).unwrap_or(now),
                        _ => time(&mut rng, now),
                    };
                    assert!(t >= now);
                    finish[id as usize] = t;
                    // Half the re-keys defer even in a closed instant.
                    if rng.gen() || instant_open(&queue) {
                        defers.note(&queue, id, t);
                        reference.defer(id, t);
                        queue.defer(id);
                    } else {
                        reference.schedule(id, t);
                        queue.schedule(id, t);
                    }
                }
                _ => {
                    let ev = reference.pop();
                    assert_eq!(queue.pop(|id| finish[id as usize]), ev, "seed {seed}");
                    defers.popped(&queue);
                    now = ev.map_or(now, |ev| ev.t);
                }
            }
        }
        while let Some(ev) = reference.pop() {
            assert_eq!(queue.pop(|id| finish[id as usize]), Some(ev), "seed {seed}");
        }
        assert_eq!(queue.pop(no_defers), None, "seed {seed}");
    }

    #[test]
    fn run_queue_pops_like_lazy_deletion_in_lockstep() {
        // At most 8 distinct future times and three schedules per pop:
        // ids keep moving between buckets, so buckets hold dead entries,
        // and emptied ones are reused.
        let mut defers = Defers::default();
        for seed in 0..32u64 {
            pops_like_oracle(seed, 64, &mut defers, |rng, now| {
                now + rng.gen_range(0..8) as f64
            });
        }
        // The same with future times from only two values, one and two
        // past the clock: each time collects events from the two instants
        // before it, in one bucket or in several that merge.
        for seed in 0..32u64 {
            pops_like_oracle(seed, 64, &mut defers, |rng, now| {
                now + rng.gen_range(1..3) as f64
            });
        }
        defers.assert_covered_shared();
    }

    #[test]
    fn run_queue_pops_like_lazy_deletion_on_distinct_times() {
        // Jitter: every event gets a time of its own, so a bucket holds
        // one time's live event and the dead ones that share its time.
        let mut defers = Defers::default();
        for seed in 0..32u64 {
            pops_like_oracle(seed, 64, &mut defers, |rng, now| {
                now + 100.0 * rng.gen::<f64>()
            });
        }
        defers.assert_covered();
        // Up to 4,096 ids over a long horizon: over a thousand distinct
        // times wait at once, each in a bucket of its own.
        let mut defers = Defers::default();
        for seed in 0..4u64 {
            pops_like_oracle(seed + 1_000, 4_096, &mut defers, |rng, now| {
                now + 1e4 * rng.gen::<f64>()
            });
        }
        assert!(
            defers.peak_buckets >= 1_000,
            "{} buckets at most",
            defers.peak_buckets
        );
    }

    #[test]
    fn instant_queue_pops_like_lazy_deletion_in_completion_bursts() {
        // A completion burst: most schedules land exactly on the last
        // popped time, the rest on one of 7 later times, mostly while the
        // instant still has events.
        let mut defers = Defers::default();
        for seed in 0..32u64 {
            pops_like_oracle(seed, 64, &mut defers, |rng, now| {
                match rng.gen_range(0..8) {
                    0..=4 => now,
                    _ => now + rng.gen_range(1..8) as f64,
                }
            });
        }
        defers.assert_covered_shared();
    }

    /// Drive a one-step direct AllGather on a100 1×8, 32 MB in 4
    /// micro-batches, and hand the finished engine to `check`. Every rank
    /// sends its chunk to its 7 peers at once, so each port carries
    /// several drains that start and finish in the same instants, and each
    /// of their load changes re-keys the others.
    fn drive_lockstep_allgather(check: impl FnOnce(Engine)) {
        drive_lockstep_allgather_with(&SimConfig::default(), check);
    }

    fn drive_lockstep_allgather_with(config: &SimConfig, check: impl FnOnce(Engine)) {
        let n = 8;
        let mut b = AlgoBuilder::new("direct", OpType::AllGather, n);
        for src in 0..n {
            for dst in (0..n).filter(|&dst| dst != src) {
                b.recv(src, dst, 0, src);
            }
        }
        let spec = b.build().unwrap();
        let topo = Topology::a100(1, 8);
        let (dag, prog) =
            crate::tests::build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(32 << 20, 8, 1 << 20);
        assert_eq!(plan.n_micro_batches, 4);
        let mut engine = Engine::new(&topo, &dag, &prog, &plan, OpType::AllGather, config).unwrap();
        engine.drive().unwrap();
        check(engine);
    }

    #[test]
    fn the_event_table_is_kept_only_when_recording_and_holds_64_bytes_a_row() {
        drive_lockstep_allgather(|engine| assert!(engine.table.is_none()));
        let trace = SimConfig::default().with_trace();
        let observed = SimConfig::default().with_observability();
        for config in [trace, observed] {
            drive_lockstep_allgather_with(&config, |engine| {
                let table = engine
                    .table
                    .as_ref()
                    .expect("a recording run keeps its table");
                assert!(crate::obs::tests::row_bytes(table) <= 64);
                let _ = engine.report().unwrap();
            });
        }
    }

    #[test]
    fn lockstep_transfers_are_projected_about_once_per_invocation() {
        drive_lockstep_allgather(|engine| {
            let projections = engine.projections;
            let per_invocation = projections as f64 / engine.inv_done as f64;
            assert!(
                per_invocation <= 2.0,
                "{projections} projections for {} invocations",
                engine.inv_done
            );
            // 1.86 per invocation. Transfer slots are reused, so the count
            // is the engine's, not a sum over the transfer table.
            assert_eq!((projections, engine.inv_done), (416, 224));
            assert!(engine.transfers.len() < engine.inv_done as usize);
            assert_eq!(engine.report().unwrap().data_valid, Some(true));
        });
    }

    #[test]
    fn lockstep_rekeys_are_deferred_once_and_keep_their_place() {
        drive_lockstep_allgather(|engine| {
            // Each transfer is still projected once per instant that
            // re-keys it, at its turn in the FIFO: unchanged from the rule
            // that moved a re-deferred transfer to the FIFO's tail.
            assert_eq!((engine.projections, engine.inv_done), (416, 224));
            // 224 startup latencies and 224 drain starts draw a `seq`
            // each, and so does the first deferral of a peer at an
            // instant: 192. Before, each of the 2,496 re-defers of a peer
            // already deferred at its instant drew one too (3,136 in all);
            // now it keeps its `seq` and its place.
            //
            // Before, every load change scanned its resource's peers:
            // 2,688 peer visits, each deferring. Now 984 load changes land
            // on a resource whose drains are all deferred already and skip
            // the scan, and the other scans visit 384 peers: the 192
            // first deferrals, and 192 peers deferred earlier in the
            // instant, which keep their place. In a debug build each
            // skipped scan first asserts that every transfer draining on
            // its resource waits deferred in the FIFO.
            //
            // The count was 982 while a handler that began in a closed
            // instant projected its peers at once and dropped every
            // covered mark. Every re-key is a deferral now, so the marks
            // hold across such a handler, and two more of its scans find
            // their resource covered.
            assert_eq!(
                (
                    engine.events.seq,
                    engine.rekeys.deferred,
                    engine.rekeys.skipped
                ),
                (640, 384, 984)
            );
            assert_eq!(engine.report().unwrap().data_valid, Some(true));
        });
    }

    #[test]
    fn start_records_match_the_per_task_fold() {
        // Every task of the seed suite on every Table 3 topology, under the
        // interpreter and fused where fusion applies: healthy, and with
        // the NVLink channel r0 -> r1 masked, so that route relays.
        let (mut fused, mut relayed) = (0, 0);
        for i in 1..=4 {
            let healthy = Topology::table3_topo(i).unwrap();
            let chan = healthy.pair_chan(Rank::new(0), Rank::new(1));
            let mut health = TopologyHealth::healthy();
            health.mask(chan);
            let masked = healthy.clone().with_health(health);
            let shape = healthy.spec();
            for topo in [&healthy, &masked] {
                for spec in rescc_algos::seed_suite(shape.n_nodes, shape.gpus_per_node) {
                    let (dag, mut prog) = crate::tests::build_all(
                        &spec,
                        topo,
                        LoopOrder::SlotMajor,
                        ExecMode::default_interpreter(),
                    );
                    rescc_kernel::fuse(&mut prog, &dag);
                    let plan = MicroBatchPlan::plan(64 << 20, dag.n_chunks(), 1 << 20);
                    let config = SimConfig::default().without_validation();
                    let engine = Engine::new(topo, &dag, &prog, &plan, spec.op(), &config).unwrap();
                    for t in dag.tasks() {
                        // The fold each start made before the records.
                        let is_fused = engine.feeder(t.id) != NONE;
                        let alpha = if is_fused {
                            0.0
                        } else {
                            t.conflict
                                .iter()
                                .map(|r| topo.resource_params(r).unwrap().alpha_ns)
                                .fold(0.0, f64::max)
                        };
                        let want = alpha + prog.exec.overhead_ns();
                        let start = engine.starts[dag.route_id(t.id) as usize];
                        let got = if is_fused {
                            engine.overhead
                        } else {
                            start.latency
                        };
                        assert_eq!(got.to_bits(), want.to_bits(), "{} {}", spec.name(), t.id);
                        assert_eq!((start.src, start.path), (t.src.0, t.path));
                        fused += u32::from(is_fused);
                        relayed += u32::from(
                            (t.src, t.dst) == (Rank::new(0), Rank::new(1))
                                && !t.path.contains(chan),
                        );
                    }
                }
            }
        }
        assert!(fused > 0 && relayed > 0, "{fused} fused, {relayed} relayed");
    }

    #[test]
    fn cached_share_is_the_effective_bandwidth_share() {
        // Every resource kind of a two-node a100, plus an oversubscribed
        // NIC whose γ·L(z) penalty engages past 4 drains.
        let topo = Topology::a100(2, 8);
        let params = (0..topo.n_resources())
            .map(|r| topo.resource_params(ResourceId::new(r)).unwrap())
            .chain([LinkParams::new(25.0, 10.0, 4)]);
        for p in params {
            let mut rs = ResState::new(p);
            for load in 1..=64 {
                for factor in [1.0, 0.3] {
                    (rs.load, rs.factor) = (load, factor);
                    rs.refresh_share();
                    let want = p.effective_bandwidth(load) * factor / load as f64;
                    assert_eq!(rs.share.to_bits(), want.to_bits(), "{p:?} at load {load}");
                }
            }
        }
    }

    #[test]
    fn rekeys_of_one_id_to_new_times_leave_dead_buckets() {
        let mut queue = EventQueue::default();
        // Id 0 is due at the current instant; id 1 is re-keyed to eight
        // later times, each a bucket of its own.
        queue.schedule(0, 0.0);
        for k in 1..=8 {
            queue.schedule(1, k as f64);
        }
        assert_eq!((queue.buckets.len(), queue.heap.len()), (8, 8));
        let ev = |t: f64, seq: u64, id: u32| Some(Event { t, seq, id });
        assert_eq!(queue.pop(no_defers), ev(0.0, 1, 0));
        // Seven times hold only dead events and pass without a pop.
        assert_eq!(queue.pop(no_defers), ev(8.0, 9, 1));
        assert!(queue.heap.is_empty());
        assert_eq!(queue.free.len(), 8, "every bucket is kept for reuse");
        assert_eq!(queue.pop(no_defers), None);
        assert_eq!(queue.now, 8.0, "a dry queue keeps the time of its last pop");
    }

    #[test]
    fn buckets_of_one_time_merge_and_late_seqs_sort() {
        let ev = |t: f64, seq: u64, id: u32| Some(Event { t, seq, id });
        let mut queue = EventQueue::default();
        // Ids 0..4 at t = 2 share a bucket (seqs 1..=4); id 4 at t = 1 and
        // id 7 at t = 4 open two more (seqs 5 and 6). Id 5 at t = 2 (seq
        // 7) finds neither its own bucket nor one of the two opened last
        // at t = 2, and opens a fourth.
        for id in 0..4 {
            queue.schedule(id, 2.0);
        }
        queue.schedule(4, 1.0);
        queue.schedule(7, 4.0);
        queue.schedule(5, 2.0);
        assert_eq!(queue.buckets.len(), 4);
        assert_eq!(queue.pop(no_defers), ev(1.0, 5, 4));
        // At t = 1, id 4 is deferred (seq 8) before id 6 is scheduled at
        // t = 3 (seq 9), and projected to t = 3: it joins id 6's bucket
        // behind a later seq.
        queue.defer(4);
        queue.schedule(6, 3.0);
        let popped = queue.pop(|id| {
            assert_eq!(id, 4);
            3.0
        });
        assert!(!queue.buckets[queue.bucket_of[4] as usize].sorted);
        // Time 2 spans two buckets and pops in `seq` order, and so does
        // time 3 once sorted.
        assert_eq!(popped, ev(2.0, 1, 0));
        assert_eq!(queue.pop(no_defers), ev(2.0, 2, 1));
        assert_eq!(queue.pop(no_defers), ev(2.0, 3, 2));
        assert_eq!(queue.pop(no_defers), ev(2.0, 4, 3));
        assert_eq!(queue.pop(no_defers), ev(2.0, 7, 5));
        assert_eq!(queue.pop(no_defers), ev(3.0, 8, 4));
        assert_eq!(queue.pop(no_defers), ev(3.0, 9, 6));
        assert_eq!(queue.pop(no_defers), ev(4.0, 6, 7));
        assert_eq!(queue.pop(no_defers), None);
    }

    #[test]
    fn a_rekey_to_its_dead_events_time_joins_its_bucket() {
        let ev = |t: f64, seq: u64, id: u32| Some(Event { t, seq, id });
        let mut queue = EventQueue::default();
        queue.schedule(0, 5.0);
        queue.schedule(1, 6.0);
        queue.schedule(2, 7.0);
        // Id 0 again at t = 5: the two buckets opened last are at t = 6
        // and t = 7, but id 0's own bucket is at t = 5.
        queue.schedule(0, 5.0);
        assert_eq!((queue.buckets.len(), queue.heap.len()), (3, 3));
        assert_eq!(queue.buckets[0].events, [(1, 0), (4, 0)]);
        assert_eq!(queue.pop(no_defers), ev(5.0, 4, 0));
        assert_eq!(queue.pop(no_defers), ev(6.0, 2, 1));
        assert_eq!(queue.pop(no_defers), ev(7.0, 3, 2));
        assert_eq!(queue.pop(no_defers), None);
    }
}
