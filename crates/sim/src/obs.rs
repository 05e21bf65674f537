//! The run's event table and its views: the trace, the classified
//! bubbles and the time-bucketed per-TB / per-link timelines, which say
//! where each bubble behind Table 1's link utilization and Fig. 2/12's
//! sync time sits, and why.
//!
//! Under [`SimConfig::record_trace`] or [`SimConfig::attribute_bubbles`]
//! the engine writes one [`EventTable`] and nothing else: per invocation,
//! the two arrivals and the start, drain start, drain end and completion,
//! the last four stamped from one shared sequence counter. After the run,
//! one walk over the stamps in sequence order builds the views in the
//! order the engine met them, and a pass over the bubbles adds each to
//! its TB's timeline:
//! * the trace, one [`TraceEvent`] per invocation at its completion;
//! * **hard bubbles** at each start, blocked time on an SM
//!   ([`BubbleCause::RendezvousWait`], [`BubbleCause::DepWait`]), which
//!   sum per TB to [`TbStat::sync_ns`](crate::TbStat) within float error;
//! * **soft bubbles** at each completion, carved out of `busy_ns` (the
//!   rest is a line-rate segment): the α-latency phase ([`BubbleCause::Startup`])
//!   and drain time beyond the lone-TB ideal ([`BubbleCause::LinkContention`]);
//! * the link timelines, replaying each resource's drain starts and ends,
//!   so an end and a start at one instant split a busy interval exactly
//!   as the engine's load did.
//!
//! The table is read-only: with either flag on, the other fields of
//! [`SimReport`] are bit-identical to a run with both off.

use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::trace::TraceEvent;
use rescc_ir::{DepDag, TaskId};
use rescc_topology::ResourceId;

/// Buckets of the per-TB and per-link timelines.
const N_BUCKETS: u32 = 64;

/// Why a TB interval carried no useful line-rate traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BubbleCause {
    /// Blocked on the peer TB of the transfer, which had not arrived at
    /// the invocation yet (the rendezvous half of `sync_ns`).
    RendezvousWait,
    /// Peer present, but an upstream DAG dependency, barrier group, or
    /// cut-through gate had not resolved (the dependency half of
    /// `sync_ns`).
    DepWait,
    /// Transfer admitted but draining below the lone-TB line rate —
    /// fair-sharing plus the γ·L(z) over-saturation penalty of Eq. 1.
    LinkContention,
    /// The transfer's startup-latency (α plus interpreter overhead) phase:
    /// the TB is executing but no bytes are on the wire yet.
    Startup,
}

impl BubbleCause {
    /// Stable lowercase name (used by trace exporters and JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            BubbleCause::RendezvousWait => "rendezvous_wait",
            BubbleCause::DepWait => "dep_wait",
            BubbleCause::LinkContention => "link_contention",
            BubbleCause::Startup => "startup",
        }
    }

    /// Hard bubbles are blocked-while-occupying time (accounted in
    /// `sync_ns`); soft bubbles live inside `busy_ns`.
    fn is_hard(&self) -> bool {
        matches!(self, BubbleCause::RendezvousWait | BubbleCause::DepWait)
    }

    /// All causes, in a stable reporting order.
    pub const ALL: [BubbleCause; 4] = [
        BubbleCause::RendezvousWait,
        BubbleCause::DepWait,
        BubbleCause::LinkContention,
        BubbleCause::Startup,
    ];
}

/// One classified idle interval of one TB. Every interval carries exactly
/// one cause; intervals of one TB never overlap within a cause class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BubbleInterval {
    /// Index into [`SimReport::tb_stats`](crate::SimReport) (engine TB id).
    pub tb_index: u32,
    /// Rank the TB runs on.
    pub rank: u32,
    /// TB index within its rank.
    pub tb: u32,
    /// The task whose invocation this interval is attributed to.
    pub task: u32,
    /// Micro-batch of that invocation.
    pub mb: u32,
    /// Why the TB was not moving bytes at line rate.
    pub cause: BubbleCause,
    /// Interval start (sim ns).
    pub start_ns: f64,
    /// Interval end (sim ns), `>= start_ns`.
    pub end_ns: f64,
}

impl BubbleInterval {
    /// Interval length in ns.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// Time-bucketed activity decomposition of one TB. Each vector has
/// [`SimObservability::n_buckets`] entries; entry `i` is the time (ns)
/// the TB spent in that state during bucket `i`.
#[derive(Clone, Debug, PartialEq)]
pub struct TbTimeline {
    /// Rank the TB runs on.
    pub rank: u32,
    /// TB index within its rank.
    pub tb: u32,
    /// Draining at (or up to) the lone-TB line rate.
    pub transfer: Vec<f64>,
    /// Startup-latency phases ([`BubbleCause::Startup`]).
    pub startup: Vec<f64>,
    /// Drain time beyond the lone-TB ideal ([`BubbleCause::LinkContention`]).
    pub contention: Vec<f64>,
    /// Blocked on peer arrival ([`BubbleCause::RendezvousWait`]).
    pub rendezvous: Vec<f64>,
    /// Blocked on dependencies/barriers ([`BubbleCause::DepWait`]).
    pub dep_wait: Vec<f64>,
}

/// Time-bucketed activity of one link/resource. `active[i]` is the time
/// (ns) during bucket `i` that at least one transfer was draining on the
/// resource; the bucket sum equals
/// [`ResourceStat::active_ns`](crate::ResourceStat).
#[derive(Clone, Debug, PartialEq)]
pub struct LinkTimeline {
    /// Resource index (matches `ResourceStat::resource`).
    pub resource: u32,
    /// Per-bucket active time, ns.
    pub active: Vec<f64>,
}

/// The observability payload of a run: every classified bubble plus the
/// bucketed per-TB and per-link timelines. Attached to
/// [`SimReport::obs`](crate::SimReport) when
/// [`SimConfig::attribute_bubbles`](crate::SimConfig) is set.
#[derive(Clone, Debug, PartialEq)]
pub struct SimObservability {
    /// Number of timeline buckets (64).
    pub n_buckets: u32,
    /// Width of one bucket in ns (`completion / n_buckets`).
    pub bucket_ns: f64,
    /// Every classified idle interval, in the order the engine met
    /// them: an invocation's hard bubbles at its start (sender side, then
    /// receiver), its soft bubbles at its completion (the sender's startup
    /// then contention, then the receiver's).
    pub bubbles: Vec<BubbleInterval>,
    /// One timeline per TB, in `tb_stats` order.
    pub tb_timelines: Vec<TbTimeline>,
    /// One timeline per resource that carried traffic, in
    /// `resource_stats` order.
    pub link_timelines: Vec<LinkTimeline>,
}

impl SimObservability {
    /// Sum of *hard* bubble time (rendezvous + dependency waits) for one
    /// TB — reconciles with that TB's `sync_ns`.
    pub fn hard_bubble_ns(&self, tb_index: u32) -> f64 {
        self.bubbles
            .iter()
            .filter(|b| b.tb_index == tb_index && b.cause.is_hard())
            .map(BubbleInterval::duration_ns)
            .sum()
    }

    /// Total bubble time per cause, in [`BubbleCause::ALL`] order,
    /// summed over all TBs (a transfer's soft bubbles are counted once
    /// per participating TB, like `busy_ns`).
    pub fn cause_totals_ns(&self) -> [f64; 4] {
        let mut out = [0.0f64; 4];
        for b in &self.bubbles {
            out[b.cause as usize] += b.duration_ns(); // `ALL` is declaration order
        }
        out
    }
}

/// The instants of an invocation the [`EventTable`] stamps, in the order
/// it reaches them.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Stamp {
    Start,
    DrainStart,
    DrainEnd,
    End,
}

const STAMPS: [Stamp; 4] = [Stamp::Start, Stamp::DrainStart, Stamp::DrainEnd, Stamp::End];

/// The engine's record of a traced or attributed run: three columns, one
/// row per invocation (`task * n_micro_batches + mb`), 64 bytes a row. A
/// row's four times sit together, and so do its four sequence numbers.
/// Allocated before the run, and not at all with both flags off.
pub(crate) struct EventTable {
    /// When the sender and the receiver TB arrived at the invocation.
    arrival: Vec<[f64; 2]>,
    /// The time of each [`Stamp`].
    time: Vec<[f64; 4]>,
    /// The sequence number of each [`Stamp`]: from 1 in the order the
    /// engine handled them, 0 where the run did not reach it (the rows a
    /// resume starts with done). The invocation cap keeps it in `u32`.
    seq: Vec<[u32; 4]>,
    last: u32,
}

impl EventTable {
    pub(crate) fn new(rows: usize) -> Self {
        Self {
            arrival: vec![[0.0; 2]; rows],
            time: vec![[0.0; 4]; rows],
            seq: vec![[0; 4]; rows],
            last: 0,
        }
    }

    /// Record that `row` reached `stamp` at `now`.
    pub(crate) fn stamp(&mut self, row: usize, stamp: Stamp, now: f64) {
        self.last += 1;
        self.time[row][stamp as usize] = now;
        self.seq[row][stamp as usize] = self.last;
    }

    /// Record that `row` started at `now`, its two sides having arrived.
    pub(crate) fn start(&mut self, row: usize, arrival: [f64; 2], now: f64) {
        self.arrival[row] = arrival;
        self.stamp(row, Stamp::Start, now);
    }

    /// Fill `rep`'s trace and observability payload, as `config` asks: one
    /// walk over the stamps in sequence order, then one pass over the
    /// bubbles. `lone_bandwidth` is a resource's `effective_bandwidth(1)`;
    /// `row` gives an invocation's sender and receiver TB, whether the
    /// sender is a fused forward's (which never blocks), and its bytes.
    pub(crate) fn views(
        &self,
        dag: &DepDag,
        config: &SimConfig,
        rep: &mut SimReport,
        lone_bandwidth: &dyn Fn(ResourceId) -> f64,
        row: impl Fn(usize, TaskId, u32) -> (u32, u32, bool, u64),
    ) {
        // Every stamp, `row << 2 | stamp`, at its sequence number.
        let mut order = vec![0u32; self.last as usize];
        for (i, seqs) in self.seq.iter().enumerate() {
            for (k, &s) in seqs.iter().enumerate().filter(|&(_, &s)| s != 0) {
                order[s as usize - 1] = (i as u32) << 2 | k as u32;
            }
        }
        // Each route's lone-TB drain rate.
        let lone_rate: Vec<f64> = (0..dag.n_routes() as u32)
            .map(|r| (dag.route_at(r).2.iter().map(lone_bandwidth)).fold(f64::INFINITY, f64::min))
            .collect();
        let zeros = || vec![0.0; N_BUCKETS as usize];
        let mut obs = config.attribute_bubbles.then(|| SimObservability {
            n_buckets: N_BUCKETS,
            bucket_ns: rep.completion_ns.max(0.0) / N_BUCKETS as f64,
            bubbles: Vec::with_capacity(2 * order.len()), // at most 4 a start and 4 an end
            tb_timelines: (rep.tb_stats.iter())
                .map(|tb| TbTimeline {
                    rank: tb.rank,
                    tb: tb.tb,
                    transfer: zeros(),
                    startup: zeros(),
                    contention: zeros(),
                    rendezvous: zeros(),
                    dep_wait: zeros(),
                })
                .collect(),
            link_timelines: (rep.resource_stats.iter())
                .map(|rs| LinkTimeline {
                    resource: rs.resource,
                    active: zeros(),
                })
                .collect(),
        });
        if config.record_trace {
            rep.trace.reserve_exact(order.len() / 4); // every start completes
        }
        // Each resource's replayed load, the start of its busy interval,
        // and its link timeline if it carried bytes.
        let n_links = rep.resource_stats.last().map_or(0, |r| r.resource + 1);
        let mut links = vec![(0u32, 0.0, None); n_links as usize];
        for (l, rs) in rep.resource_stats.iter().enumerate() {
            links[rs.resource as usize].2 = Some(l);
        }
        let n_mb = rep.n_micro_batches;
        for &o in &order {
            let (i, stamp) = ((o >> 2) as usize, STAMPS[(o & 3) as usize]);
            let (task, mb) = (TaskId::new(i as u32 / n_mb), i as u32 % n_mb);
            let time = |stamp: Stamp| self.time[i][stamp as usize];
            if config.record_trace && stamp == Stamp::End {
                let t = dag.transfer(task);
                rep.trace.push(TraceEvent {
                    task: task.0,
                    mb,
                    src: t.src.0,
                    dst: t.dst.0,
                    start_ns: time(Stamp::Start),
                    drain_start_ns: time(Stamp::DrainStart),
                    end_ns: time(Stamp::End),
                    bytes: row(i, task, mb).3,
                });
            }
            let Some(obs) = &mut obs else { continue };
            let (route, at) = (dag.route_id(task), (task.0, mb));
            match stamp {
                Stamp::Start => {
                    // Exactly the waits the engine's sync accounting
                    // charged, split at the peer's arrival: the rendezvous,
                    // then the dependencies (DAG predecessors, barrier
                    // groups, or the cut-through gate).
                    let ((send_tb, recv_tb, fused, _), start) =
                        (row(i, task, mb), time(Stamp::Start));
                    let [send, recv] = self.arrival[i];
                    let sides = [(send_tb, send, recv), (recv_tb, recv, send)];
                    for &(tb, arrival, peer) in &sides[usize::from(fused)..] {
                        let split = peer.max(arrival).min(start);
                        obs.add(tb, at, BubbleCause::RendezvousWait, arrival, split);
                        obs.add(tb, at, BubbleCause::DepWait, split, start);
                    }
                }
                Stamp::End => {
                    // The startup-latency phase, and any drain time beyond
                    // the lone-TB ideal. Both TBs spend the invocation busy,
                    // a fused forward's sender included.
                    let (send_tb, recv_tb, _, bytes) = row(i, task, mb);
                    let [start, drain_start, end] =
                        [Stamp::Start, Stamp::DrainStart, Stamp::End].map(time);
                    let line_end =
                        (drain_start + bytes as f64 / lone_rate[route as usize]).min(end);
                    for tb in [send_tb, recv_tb] {
                        obs.add(tb, at, BubbleCause::Startup, start, drain_start);
                        obs.add(tb, at, BubbleCause::LinkContention, line_end, end);
                        let transfer = &mut obs.tb_timelines[tb as usize].transfer;
                        add_interval(transfer, obs.bucket_ns, drain_start, line_end);
                    }
                }
                drain => {
                    let t = time(drain);
                    for r in dag.route_at(route).2.iter() {
                        let Some((n, since, link)) = links.get_mut(r.index()) else {
                            continue; // no bytes, no timeline
                        };
                        if drain == Stamp::DrainStart {
                            *since = if *n == 0 { t } else { *since };
                            *n += 1;
                            continue;
                        }
                        *n -= 1;
                        if let (0, Some(l)) = (*n, *link) {
                            let active = &mut obs.link_timelines[l].active;
                            add_interval(active, obs.bucket_ns, *since, t);
                        }
                    }
                }
            }
        }
        // The TB timelines of the bubbles, in record order.
        if let Some(obs) = &mut obs {
            for b in &obs.bubbles {
                let tl = &mut obs.tb_timelines[b.tb_index as usize];
                let buf = match b.cause {
                    BubbleCause::RendezvousWait => &mut tl.rendezvous,
                    BubbleCause::DepWait => &mut tl.dep_wait,
                    BubbleCause::LinkContention => &mut tl.contention,
                    BubbleCause::Startup => &mut tl.startup,
                };
                add_interval(buf, obs.bucket_ns, b.start_ns, b.end_ns);
            }
        }
        rep.obs = obs;
    }
}

impl SimObservability {
    /// Record `[start, end)` of TB `tb`, if not empty, as a bubble of
    /// `cause`.
    fn add(&mut self, tb: u32, (task, mb): (u32, u32), cause: BubbleCause, start: f64, end: f64) {
        if end <= start {
            return;
        }
        let tl = &self.tb_timelines[tb as usize];
        self.bubbles.push(BubbleInterval {
            tb_index: tb,
            rank: tl.rank,
            tb: tl.tb,
            task,
            mb,
            cause,
            start_ns: start,
            end_ns: end,
        });
    }
}

/// Distribute the interval `[start, end)` over the buckets of `buf`.
/// Bucket `i` spans `[i·bucket_ns, (i+1)·bucket_ns)`; the last bucket
/// absorbs any overhang from floating-point completion rounding.
fn add_interval(buf: &mut [f64], bucket_ns: f64, start: f64, end: f64) {
    if end <= start || bucket_ns <= 0.0 || buf.is_empty() {
        return;
    }
    let n = buf.len();
    let first = ((start / bucket_ns) as usize).min(n - 1);
    let last = ((end / bucket_ns) as usize).min(n - 1);
    if first == last {
        buf[first] += end - start;
        return;
    }
    for (c, slot) in buf.iter_mut().enumerate().take(last + 1).skip(first) {
        let cs = c as f64 * bucket_ns;
        // The final bucket's right edge is +∞ so the whole interval is
        // conserved even when `end` rounds past `n · bucket_ns`.
        let ce = if c == n - 1 {
            f64::INFINITY
        } else {
            cs + bucket_ns
        };
        *slot += (end.min(ce) - start.max(cs)).max(0.0);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Bytes `table` allocates for one row across every column.
    pub(crate) fn row_bytes(table: &EventTable) -> usize {
        let bytes = table.arrival.capacity() * size_of::<[f64; 2]>()
            + table.time.capacity() * size_of::<[f64; 4]>()
            + table.seq.capacity() * size_of::<[u32; 4]>();
        bytes / table.seq.len()
    }

    #[test]
    fn cause_names_are_stable() {
        assert_eq!(BubbleCause::RendezvousWait.as_str(), "rendezvous_wait");
        assert_eq!(BubbleCause::LinkContention.as_str(), "link_contention");
        assert!(BubbleCause::RendezvousWait.is_hard());
        assert!(BubbleCause::DepWait.is_hard());
        assert!(!BubbleCause::Startup.is_hard());
        assert!(!BubbleCause::LinkContention.is_hard());
    }

    #[test]
    fn bucketing_conserves_interval_length() {
        let mut buf = vec![0.0; 8];
        add_interval(&mut buf, 10.0, 3.0, 77.0);
        assert!((buf.iter().sum::<f64>() - 74.0).abs() < 1e-9);
        assert!((buf[0] - 7.0).abs() < 1e-9);
        assert!((buf[7] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn bucketing_absorbs_overhang_in_last_bucket() {
        // Interval end past the nominal bucket range must not be lost.
        let mut buf = vec![0.0; 4];
        add_interval(&mut buf, 10.0, 35.0, 47.5);
        assert!((buf.iter().sum::<f64>() - 12.5).abs() < 1e-9);
        assert!((buf[3] - 12.5).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate_intervals_are_ignored() {
        let mut buf = vec![0.0; 4];
        add_interval(&mut buf, 10.0, 5.0, 5.0);
        add_interval(&mut buf, 10.0, 9.0, 3.0);
        add_interval(&mut buf, 0.0, 0.0, 10.0);
        assert!(buf.iter().all(|&b| b == 0.0));
    }
}
