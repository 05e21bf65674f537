//! Execution tracing: an optional per-transfer timeline, built from the
//! run's event table when [`SimConfig::record_trace`](crate::SimConfig)
//! is set, plus rendering and analysis helpers.
//!
//! The trace is the simulator's equivalent of an NSight timeline: one
//! [`TraceEvent`] per transfer invocation with its rendezvous, latency and
//! drain phases. [`render_gantt`] draws a coarse text Gantt chart per rank
//! (useful in examples and when debugging schedules); [`BottleneckReport`]
//! identifies the resources that bound the run.

use crate::fault::Fault;
use crate::metrics::SimReport;

/// A fault transition the engine applied during the run, kept in the
/// report so post-mortems can line failures up against the transfer
/// timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRecord {
    /// Sim time at which the transition was applied, ns. Negative for
    /// transitions that predate a retried run's start (the timeline was
    /// shifted by [`FaultTimeline::advanced`](crate::FaultTimeline)).
    pub at_ns: f64,
    /// The transition.
    pub fault: Fault,
}

/// One transfer invocation's lifecycle on the timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Task index (into the DAG).
    pub task: u32,
    /// Micro-batch.
    pub mb: u32,
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// When the transfer's rendezvous completed and it started (ns).
    pub start_ns: f64,
    /// When the startup-latency phase ended and draining began (ns).
    pub drain_start_ns: f64,
    /// Completion time (ns).
    pub end_ns: f64,
    /// Bytes moved.
    pub bytes: u64,
}

/// Render a coarse text Gantt chart of per-rank transfer activity.
///
/// Each row is a rank; each column is a `width`-th of the run. A cell
/// shows `#` when the rank was engaged in transfers for more than half
/// the column's span, `+` when engaged at all, and `.` when idle. Both
/// endpoints are credited — a transfer occupies a TB on the sender *and*
/// the receiver, so receiver ranks do not render idle while draining
/// inbound traffic.
pub fn render_gantt(events: &[TraceEvent], n_ranks: u32, width: usize) -> String {
    assert!(width >= 1);
    let end = events.iter().map(|e| e.end_ns).fold(0.0, f64::max);
    if end <= 0.0 {
        return String::from("(empty trace)\n");
    }
    let col = end / width as f64;
    let mut busy = vec![vec![0.0f64; width]; n_ranks as usize];
    for e in events {
        let first = ((e.start_ns / col) as usize).min(width - 1);
        let last = ((e.end_ns / col) as usize).min(width - 1);
        #[allow(clippy::needless_range_loop)] // `c` drives the overlap math too
        for c in first..=last {
            let cs = c as f64 * col;
            let ce = cs + col;
            let overlap = (e.end_ns.min(ce) - e.start_ns.max(cs)).max(0.0);
            for rank in [e.src, e.dst] {
                // Ignore endpoints outside the requested row range rather
                // than panicking on partial traces.
                if rank < n_ranks {
                    busy[rank as usize][c] += overlap;
                }
                if e.src == e.dst {
                    break; // self-loop: credit once
                }
            }
        }
    }
    let mut out = String::new();
    for (r, row) in busy.iter().enumerate() {
        out.push_str(&format!("r{r:<3} |"));
        for &b in row {
            out.push(if b > 0.5 * col {
                '#'
            } else if b > 0.0 {
                '+'
            } else {
                '.'
            });
        }
        out.push_str("|\n");
    }
    // Time axis: '0' sits under the first cell (column 6); the end label
    // is right-aligned so its last character sits under each row's
    // closing '|' (column 6 + width). When the label cannot fit inside
    // the axis, fall back to a single separating space instead of
    // overflowing the alignment math.
    let label = format!("{:.2} ms", end / 1e6);
    let pad = width.saturating_sub(label.len()).max(1);
    out.push_str(&format!("      0{}{label}\n", " ".repeat(pad)));
    out
}

/// Which resources bound the run.
#[derive(Clone, Debug, PartialEq)]
pub struct BottleneckReport {
    /// Resources sorted by active-time ratio, busiest first:
    /// `(resource index, active ratio, bytes)`.
    pub hottest: Vec<(u32, f64, u64)>,
}

impl BottleneckReport {
    /// Analyze a finished run.
    pub fn from_report(report: &SimReport) -> Self {
        let mut hottest: Vec<(u32, f64, u64)> = report
            .resource_stats
            .iter()
            .map(|r| {
                (
                    r.resource,
                    r.active_ratio_over(report.completion_ns),
                    r.bytes,
                )
            })
            .collect();
        hottest.sort_by(|a, b| b.1.total_cmp(&a.1));
        Self { hottest }
    }

    /// The single busiest resource, if any traffic flowed.
    pub fn bottleneck(&self) -> Option<(u32, f64)> {
        self.hottest.first().map(|(r, a, _)| (*r, *a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: u32, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            task: 0,
            mb: 0,
            src,
            dst: (src + 1) % 4,
            start_ns: start,
            drain_start_ns: start + 1.0,
            end_ns: end,
            bytes: 1000,
        }
    }

    fn row(chart: &str, r: usize) -> String {
        chart
            .lines()
            .nth(r)
            .unwrap()
            .split('|')
            .nth(1)
            .unwrap()
            .to_string()
    }

    #[test]
    fn gantt_marks_busy_columns() {
        let events = vec![ev(0, 0.0, 50.0), ev(1, 50.0, 100.0)];
        let g = render_gantt(&events, 2, 10);
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].starts_with("r0"));
        assert!(lines[0].contains('#'));
        assert!(lines[0].contains('.'));
        // Rank 0 sends in the first half; rank 1 receives that transfer,
        // then sends in the second half — its whole row is busy.
        assert_eq!(&row(&g, 0)[..4], "####");
        assert_eq!(&row(&g, 1)[6..10], "####");
        assert_eq!(&row(&g, 1)[..4], "####");
    }

    #[test]
    fn gantt_credits_receivers() {
        // Regression: a pure receiver used to render fully idle while
        // draining inbound transfers.
        let events = vec![ev(0, 0.0, 100.0)]; // 0 -> 1
        let g = render_gantt(&events, 2, 10);
        assert_eq!(row(&g, 0), "##########");
        assert_eq!(row(&g, 1), "##########");
    }

    #[test]
    fn gantt_axis_label_aligns_with_row_edge() {
        // Regression: the time-axis label used `w = width - 1` right
        // alignment, overflowing the chart for small widths. The label's
        // last character must sit under the closing '|' (column
        // 6 + width) whenever it fits, and keep one separating space
        // otherwise.
        let events = vec![ev(0, 0.0, 100.0)];
        for width in [8usize, 10, 24, 40] {
            let g = render_gantt(&events, 2, width);
            let axis = g.lines().last().unwrap();
            assert_eq!(axis.as_bytes()[6], b'0', "width {width}: {axis:?}");
            assert_eq!(axis.len(), 6 + width + 1, "width {width}: {axis:?}");
        }
        // Too narrow for the label: no overflow past a single space.
        let g = render_gantt(&events, 2, 3);
        let axis = g.lines().last().unwrap();
        assert!(axis.starts_with("      0 0."), "{axis:?}");
    }

    #[test]
    fn gantt_ignores_out_of_range_endpoints() {
        // ev() wraps dst with % 4; rendering only 2 ranks must not panic.
        let events = vec![ev(1, 0.0, 80.0)]; // 1 -> 2, but n_ranks = 2
        let g = render_gantt(&events, 2, 8);
        assert_eq!(row(&g, 0), "........");
        assert_eq!(row(&g, 1), "########");
    }

    #[test]
    fn empty_trace_renders() {
        assert!(render_gantt(&[], 4, 8).contains("empty"));
    }
}
