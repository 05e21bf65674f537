//! Metrics collected by the simulator: per-TB occupancy, per-resource
//! activity, and whole-run summaries.
//!
//! These feed every resource-oriented result of the paper: Table 1 (link
//! utilization), Fig. 2 / Fig. 12 (per-TB time breakdown), Table 3 (TB
//! counts, communication time, average/max idle), and the bandwidth numbers
//! of Figs. 6–9 and 11.

/// Per-thread-block accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TbStat {
    /// Rank the TB runs on.
    pub rank: u32,
    /// TB index within its rank.
    pub tb: u32,
    /// Time spent executing transfers (latency + drain phases), ns.
    pub busy_ns: f64,
    /// Time spent blocked — waiting for the peer TB or for data
    /// dependencies — while occupying SM resources, ns.
    pub sync_ns: f64,
    /// When the TB finished its last invocation (early-release point), ns.
    pub release_ns: f64,
    /// The window during which the TB occupied an SM, ns. Equals
    /// `release_ns` under flexible (early) release, or the whole kernel
    /// duration for a rigid program (one with barrier groups).
    pub occupancy_ns: f64,
    /// Number of primitive invocations executed.
    pub n_invocations: u64,
}

impl TbStat {
    /// Fraction of occupancy spent busy-waiting.
    pub fn idle_ratio(&self) -> f64 {
        if self.occupancy_ns <= 0.0 {
            // A TB that never did anything but occupied an SM for a
            // zero-length window: call it fully idle if it had no work.
            return if self.n_invocations == 0 { 1.0 } else { 0.0 };
        }
        (1.0 - self.busy_ns / self.occupancy_ns).clamp(0.0, 1.0)
    }
}

/// Per-resource accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResourceStat {
    /// Resource index.
    pub resource: u32,
    /// Total time the resource had at least one draining transfer, ns.
    pub active_ns: f64,
    /// Total bytes moved through the resource.
    pub bytes: u64,
    /// Resource capacity in bytes/ns (GB/s).
    pub capacity: f64,
}

impl ResourceStat {
    /// Fraction of `span_ns` during which the resource was active.
    pub fn active_ratio_over(&self, span_ns: f64) -> f64 {
        if span_ns <= 0.0 {
            return 0.0;
        }
        (self.active_ns / span_ns).clamp(0.0, 1.0)
    }
}

/// The complete result of one simulated collective call.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Wall-clock completion time of the collective, ns.
    pub completion_ns: f64,
    /// Total bytes moved over all connections (each transfer counted once).
    pub total_bytes: u64,
    /// Per-TB statistics, in (rank, tb) order.
    pub tb_stats: Vec<TbStat>,
    /// Per-resource statistics for resources that carried traffic.
    pub resource_stats: Vec<ResourceStat>,
    /// Whether the data-correctness check ran and passed.
    /// `None` when validation was disabled.
    pub data_valid: Option<bool>,
    /// Number of micro-batches executed.
    pub n_micro_batches: u32,
    /// Number of transfer invocations executed.
    pub n_invocations: u64,
    /// Per-transfer timeline (populated when
    /// [`SimConfig::record_trace`](crate::SimConfig) is set).
    pub trace: Vec<crate::TraceEvent>,
    /// Fault transitions applied during the run, in application order.
    pub faults: Vec<crate::FaultRecord>,
    /// Bubble attribution payload (populated when
    /// [`SimConfig::attribute_bubbles`](crate::SimConfig) is set).
    pub obs: Option<crate::SimObservability>,
}

impl SimReport {
    /// Algorithm bandwidth in GB/s for a collective that synchronized
    /// `buffer_bytes` per rank: `buffer / time` (the paper's algbw).
    pub fn algo_bandwidth_gbps(&self, buffer_bytes: u64) -> f64 {
        if self.completion_ns <= 0.0 {
            return 0.0;
        }
        buffer_bytes as f64 / self.completion_ns
    }

    /// Whether this run finished faster than a certified makespan lower
    /// bound (the α–β–γ cost certificate the sanitize phase attaches to
    /// every compiled plan). A fresh fault-free run undercutting its
    /// certificate means the cost model and the engine disagree — one of
    /// them is wrong. The relative epsilon absorbs the f64 accumulation
    /// slack between the certificate's closed form and the engine's
    /// event-by-event arithmetic.
    pub fn undercuts_floor(&self, floor_ns: f64) -> bool {
        floor_ns.is_finite() && self.completion_ns < floor_ns * (1.0 - 1e-9)
    }

    /// TBs that actually occupied an SM for a non-zero window. Under
    /// flexible (early) release a TB slot the plan never launches has
    /// `occupancy_ns == 0` and `n_invocations == 0` — it held no SM and
    /// must not count toward occupancy-weighted aggregates; under rigid
    /// allocation every TB occupies its SM for the whole kernel and all
    /// of them count.
    fn occupied_tbs(&self) -> impl Iterator<Item = &TbStat> {
        self.tb_stats.iter().filter(|t| t.occupancy_ns > 0.0)
    }

    /// Mean idle ratio across TBs that occupied SMs. Never-launched TB
    /// slots (`idle_ratio() == 1.0` with zero occupancy) are excluded so
    /// they cannot inflate the Table-3 "avg idle" metric.
    pub fn avg_idle_ratio(&self) -> f64 {
        let (sum, n) = self
            .occupied_tbs()
            .fold((0.0f64, 0usize), |(s, n), t| (s + t.idle_ratio(), n + 1));
        if n == 0 {
            return 0.0;
        }
        sum / n as f64
    }

    /// Worst idle ratio across TBs that occupied SMs (same population as
    /// [`avg_idle_ratio`](Self::avg_idle_ratio)).
    pub fn max_idle_ratio(&self) -> f64 {
        self.occupied_tbs()
            .map(TbStat::idle_ratio)
            .fold(0.0, f64::max)
    }

    /// Mean communication (busy) ratio across TBs.
    pub fn avg_comm_ratio(&self) -> f64 {
        1.0 - self.avg_idle_ratio()
    }

    /// Global link utilization (Table 1): mean *active time* ratio over
    /// the links that carried traffic — the complement of the paper's
    /// "accumulated bubbles" (idle link time) over the collective's
    /// completion time. Unweighted across links, so an algorithm that
    /// funnels all traffic through a few hot links (and leaves the rest
    /// idle) scores low even if the hot links are saturated.
    pub fn global_link_utilization(&self) -> f64 {
        let carrying: Vec<&ResourceStat> =
            self.resource_stats.iter().filter(|r| r.bytes > 0).collect();
        if carrying.is_empty() {
            return 0.0;
        }
        carrying
            .iter()
            .map(|r| r.active_ratio_over(self.completion_ns))
            .sum::<f64>()
            / carrying.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_ratio_basics() {
        let t = TbStat {
            busy_ns: 30.0,
            sync_ns: 70.0,
            occupancy_ns: 100.0,
            n_invocations: 3,
            ..Default::default()
        };
        assert!((t.idle_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_tb_is_fully_idle() {
        let t = TbStat::default();
        assert_eq!(t.idle_ratio(), 1.0);
    }

    #[test]
    fn active_ratio_is_active_time_over_span() {
        let r = ResourceStat {
            resource: 0,
            active_ns: 50.0,
            bytes: 500,
            capacity: 10.0,
        };
        assert!((r.active_ratio_over(100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn report_aggregates() {
        let rep = SimReport {
            completion_ns: 1000.0,
            total_bytes: 4000,
            tb_stats: vec![
                TbStat {
                    busy_ns: 900.0,
                    occupancy_ns: 1000.0,
                    n_invocations: 1,
                    ..Default::default()
                },
                TbStat {
                    busy_ns: 100.0,
                    occupancy_ns: 1000.0,
                    n_invocations: 1,
                    ..Default::default()
                },
            ],
            resource_stats: vec![],
            data_valid: Some(true),
            n_micro_batches: 1,
            n_invocations: 2,
            trace: Vec::new(),
            faults: Vec::new(),
            obs: None,
        };
        assert!((rep.avg_idle_ratio() - 0.5).abs() < 1e-12);
        assert!((rep.max_idle_ratio() - 0.9).abs() < 1e-12);
        assert!((rep.algo_bandwidth_gbps(2000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn never_launched_tbs_do_not_inflate_idle_aggregates() {
        // Regression: a TB slot the plan never launches (zero occupancy,
        // zero invocations) scores idle_ratio() == 1.0 and used to dilute
        // the average over *all* tb_stats. It holds no SM, so both
        // aggregates must ignore it.
        let working = TbStat {
            busy_ns: 75.0,
            sync_ns: 25.0,
            occupancy_ns: 100.0,
            release_ns: 100.0,
            n_invocations: 4,
            ..Default::default()
        };
        let never_launched = TbStat::default();
        assert_eq!(never_launched.idle_ratio(), 1.0);
        let rep = SimReport {
            completion_ns: 100.0,
            total_bytes: 100,
            tb_stats: vec![working.clone(), never_launched],
            resource_stats: vec![],
            data_valid: None,
            n_micro_batches: 1,
            n_invocations: 4,
            trace: Vec::new(),
            faults: Vec::new(),
            obs: None,
        };
        assert!((rep.avg_idle_ratio() - 0.25).abs() < 1e-12);
        assert!((rep.max_idle_ratio() - 0.25).abs() < 1e-12);
    }
}
