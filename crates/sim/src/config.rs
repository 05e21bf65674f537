//! Simulator configuration, including fault injection.

use crate::error::{SimError, SimResult};
use crate::fault::FaultTimeline;
use crate::frontier::FaultFrontier;

/// Configuration of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Track buffer values and verify the collective's result
    /// (machine-checked correctness). Costs memory proportional to
    /// `micro_batches × ranks × chunks`.
    pub validate_data: bool,
    /// Fault injection: multiply each transfer's startup latency by
    /// `1 + jitter_frac · U[0,1)`. Zero disables jitter. Must lie in
    /// `[0, 1]` (checked at run time).
    pub jitter_frac: f64,
    /// RNG seed for jitter (runs are deterministic for a given seed).
    pub seed: u64,
    /// Fault injection: scheduled transitions (death, flapping,
    /// brownouts, stragglers). A link slow for the whole run is a
    /// brownout from t = 0 that outlasts it. Empty by default.
    pub faults: FaultTimeline,
    /// Record a per-transfer [`TraceEvent`](crate::TraceEvent) timeline in
    /// the report, a view of the run's event table (below).
    pub record_trace: bool,
    /// Classify every TB idle interval by cause and attach a
    /// [`SimObservability`](crate::SimObservability) payload. Either flag
    /// makes the engine write one event table, 64 bytes an invocation, for
    /// the views; every other report field stays bit-identical.
    pub attribute_bubbles: bool,
    /// Partial-progress resume: the fault frontier of an aborted attempt
    /// of the same plan, whose completed invocations the run starts with.
    /// `None` — the default — runs from scratch and is byte-identical to
    /// configurations predating this field.
    pub resume: Option<FaultFrontier>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            validate_data: true,
            jitter_frac: 0.0,
            seed: 0,
            faults: FaultTimeline::new(),
            record_trace: false,
            attribute_bubbles: false,
            resume: None,
        }
    }
}

impl SimConfig {
    /// Disable data validation (for large-scale bandwidth sweeps where the
    /// value tracking memory would dominate).
    pub fn without_validation(mut self) -> Self {
        self.validate_data = false;
        self
    }

    /// Add latency jitter.
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        self.jitter_frac = frac;
        self.seed = seed;
        self
    }

    /// Install a mid-run fault schedule.
    pub fn with_faults(mut self, faults: FaultTimeline) -> Self {
        self.faults = faults;
        self
    }

    /// Record the execution timeline.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enable bubble attribution (classified idle intervals plus bucketed
    /// per-TB / per-link timelines in the report).
    pub fn with_observability(mut self) -> Self {
        self.attribute_bubbles = true;
        self
    }

    /// Resume from an aborted attempt's partial progress instead of
    /// starting from scratch. The frontier must come from a run of the
    /// same plan; its dimensions are checked when the run starts.
    pub fn with_resume(mut self, resume: FaultFrontier) -> Self {
        self.resume = Some(resume);
        self
    }

    /// Check the configuration against the cluster dimensions. Called by
    /// the engine before any event is processed, so invalid inputs surface
    /// as a typed error at `run_with` time instead of silently producing
    /// nonsense timings.
    pub fn validate(&self, n_resources: u32, n_ranks: u32) -> SimResult<()> {
        if !(self.jitter_frac.is_finite() && (0.0..=1.0).contains(&self.jitter_frac)) {
            return Err(SimError::InvalidConfig(format!(
                "jitter fraction {} outside [0, 1]",
                self.jitter_frac
            )));
        }
        self.faults
            .validate(n_resources, n_ranks)
            .map_err(SimError::InvalidConfig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(SimConfig::default().validate(8, 4).is_ok());
    }

    #[test]
    fn jitter_outside_unit_interval_is_rejected() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = SimConfig::default()
                .with_jitter(bad, 0)
                .validate(8, 4)
                .unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{bad}: {err}");
        }
        assert!(SimConfig::default()
            .with_jitter(1.0, 0)
            .validate(8, 4)
            .is_ok());
    }
}
