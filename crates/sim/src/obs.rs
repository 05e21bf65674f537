//! Bubble attribution: classified idle intervals and time-bucketed
//! per-TB / per-link timelines.
//!
//! The paper's headline numbers are observability claims — Table 1's link
//! utilization is "the complement of accumulated bubbles", Fig. 2/12 split
//! TB time into busy vs. sync — but aggregate ratios cannot say *where* a
//! bubble sits on the timeline or *why* a TB idled. When
//! [`SimConfig::attribute_bubbles`](crate::SimConfig) is set, the engine
//! classifies every idle interval by cause and the report carries a
//! [`SimObservability`] payload:
//!
//! * **hard bubbles** — time a TB was blocked while occupying its SM
//!   ([`BubbleCause::RendezvousWait`], [`BubbleCause::DepWait`]). Their
//!   per-TB sum reconciles with [`TbStat::sync_ns`](crate::TbStat) exactly
//!   (within floating-point association error).
//! * **soft bubbles** — time inside an invocation during which no useful
//!   bytes moved at line rate ([`BubbleCause::Startup`] for the α-latency
//!   phase, [`BubbleCause::LinkContention`] for drain time beyond the
//!   lone-TB ideal under fair-sharing and the γ·L(z) over-saturation term
//!   of Eq. 1). Soft bubbles are carved out of `busy_ns`, not added to it.
//!
//! Attribution is purely read-only instrumentation: with the flag on, the
//! non-observability fields of [`SimReport`](crate::SimReport) are
//! bit-identical to a run with it off.

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
    /// Every classified idle interval, in completion order.
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
            let k = BubbleCause::ALL
                .iter()
                .position(|c| *c == b.cause)
                .expect("cause in ALL");
            out[k] += b.duration_ns();
        }
        out
    }
}

/// Distribute the interval `[start, end)` over the buckets of `buf`.
/// Bucket `i` spans `[i·bucket_ns, (i+1)·bucket_ns)`; the last bucket
/// absorbs any overhang from floating-point completion rounding.
pub(crate) fn add_interval(buf: &mut [f64], bucket_ns: f64, start: f64, end: f64) {
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
mod tests {
    use super::*;

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
