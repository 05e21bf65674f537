//! Cross-layer observability for ResCCL runs.
//!
//! This crate carries the pieces of the observability stack that sit
//! *above* the simulator: typed spans and counters emitted by the
//! compiler phases (`rescc-core`), the plan cache, and the
//! `Communicator` watchdog (`rescc-backends`), plus a Chrome
//! trace-event exporter ([`ChromeTrace`]) that merges those spans with
//! the simulator's own [`TraceEvent`](rescc_sim::TraceEvent) timeline
//! and [`BubbleInterval`](rescc_sim::BubbleInterval) attribution into a
//! single `chrome://tracing` / Perfetto-loadable JSON file.
//!
//! Two time domains coexist on one timeline:
//!
//! * [`TimeDomain::Sim`] — simulated nanoseconds (transfers, bubbles,
//!   fault instants, watchdog backoff waits). Deterministic for a given
//!   seed.
//! * [`TimeDomain::Wall`] — host wall-clock nanoseconds (compiler phase
//!   durations, cache lookups). Nondeterministic; consumers that need
//!   replay-stable reports must not enable wall-time spans.
//!
//! The crate is dependency-light by design: the workspace is air-gapped,
//! so JSON is written by hand ([`ChromeTrace::to_json`]) and read back
//! by a small recursive-descent parser ([`parse_json`]) that powers the
//! `rescc-obs-validate` CLI used in CI.

mod chrome;
mod json;

pub use chrome::{ArgValue, ChromeTrace};
pub use json::{
    parse_json, validate_chrome_trace, validate_chrome_trace_str, JsonValue, TraceSummary,
};

use rescc_core::PhaseTimings;
use rescc_sim::BubbleInterval;

/// Which clock a span's `start_ns`/`dur_ns` are measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeDomain {
    /// Host wall-clock time (compiler phases, cache lookups).
    Wall,
    /// Simulated time (transfers, bubbles, watchdog waits).
    Sim,
}

impl TimeDomain {
    /// Stable lowercase name (used as a trace-event argument).
    pub fn as_str(&self) -> &'static str {
        match self {
            TimeDomain::Wall => "wall",
            TimeDomain::Sim => "sim",
        }
    }
}

/// Coarse classification of a span, mapped to the Chrome trace-event
/// `cat` field so Perfetto can filter by layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanCategory {
    /// A compiler phase (parsing, analysis, scheduling, lowering,
    /// sanitize).
    Compile,
    /// A plan-cache event (hit or miss).
    Cache,
    /// A simulated transfer invocation.
    Transfer,
    /// An attributed TB idle interval.
    Bubble,
    /// A fault transition.
    Fault,
    /// A watchdog action: retry attempt, backoff wait, mask+recompile.
    Recovery,
}

impl SpanCategory {
    /// Stable lowercase name (the trace-event `cat`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanCategory::Compile => "compile",
            SpanCategory::Cache => "cache",
            SpanCategory::Transfer => "transfer",
            SpanCategory::Bubble => "bubble",
            SpanCategory::Fault => "fault",
            SpanCategory::Recovery => "recovery",
        }
    }
}

/// One named interval on a named track.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Track the span renders on (e.g. `"compiler"`, `"watchdog"`,
    /// `"r0/tb2"`).
    pub track: String,
    /// Human-readable span name (e.g. `"scheduling"`, `"retry#1"`).
    pub name: String,
    /// Layer classification.
    pub category: SpanCategory,
    /// Clock the timestamps are measured on.
    pub domain: TimeDomain,
    /// Span start, ns in `domain`.
    pub start_ns: f64,
    /// Span duration, ns (non-negative).
    pub dur_ns: f64,
}

impl Span {
    /// Build a span, clamping a negative duration to zero.
    pub fn new(
        track: impl Into<String>,
        name: impl Into<String>,
        category: SpanCategory,
        domain: TimeDomain,
        start_ns: f64,
        dur_ns: f64,
    ) -> Self {
        Self {
            track: track.into(),
            name: name.into(),
            category,
            domain,
            start_ns,
            dur_ns: dur_ns.max(0.0),
        }
    }

    /// Span end, ns.
    pub fn end_ns(&self) -> f64 {
        self.start_ns + self.dur_ns
    }
}

/// Counters and spans collected across one backend run: compile phases,
/// cache traffic, and watchdog activity. Carried on
/// `RunReport::obs` when the `Communicator` runs with observability
/// enabled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsStats {
    /// Wall-clock nanoseconds spent in each compiler phase, summed over
    /// every compile this run performed (initial + recompiles).
    pub parsing_ns: f64,
    /// See [`parsing_ns`](Self::parsing_ns).
    pub analysis_ns: f64,
    /// See [`parsing_ns`](Self::parsing_ns).
    pub scheduling_ns: f64,
    /// See [`parsing_ns`](Self::parsing_ns).
    pub lowering_ns: f64,
    /// See [`parsing_ns`](Self::parsing_ns).
    pub sanitize_ns: f64,
    /// Plan-cache hits observed during this run.
    pub cache_hits: u64,
    /// Plan-cache misses (compiles) observed during this run.
    pub cache_misses: u64,
    /// The subset of [`cache_hits`](Self::cache_hits) served by waiting on
    /// another thread's in-flight compile of the same fingerprint
    /// (singleflight coalescing in a shared plan cache).
    pub cache_coalesced: u64,
    /// Total simulated time spent in watchdog backoff waits, ns. (The
    /// watchdog's retry, recompile, resume and heal counts live on
    /// `RunReport::recovery`.)
    pub backoff_ns: f64,
    /// Every span recorded during the run, in emission order.
    pub spans: Vec<Span>,
}

impl ObsStats {
    /// Total wall-clock compile time accumulated, ns.
    pub fn compile_total_ns(&self) -> f64 {
        self.parsing_ns
            + self.analysis_ns
            + self.scheduling_ns
            + self.lowering_ns
            + self.sanitize_ns
    }

    /// Fold one compile's [`PhaseTimings`] into the counters and append
    /// one wall-time span per non-empty phase on `track`, phases laid
    /// end-to-end from `start_ns`. Returns the offset just past the last
    /// phase, so successive compiles stack on the same track.
    pub fn add_compile(&mut self, timings: &PhaseTimings, track: &str, start_ns: f64) -> f64 {
        let mut at = start_ns;
        for (name, dur) in timings.phases() {
            let ns = dur.as_secs_f64() * 1e9;
            match name {
                "parsing" => self.parsing_ns += ns,
                "analysis" => self.analysis_ns += ns,
                "scheduling" => self.scheduling_ns += ns,
                "lowering" => self.lowering_ns += ns,
                "sanitize" => self.sanitize_ns += ns,
                _ => unreachable!("unknown phase {name}"),
            }
            if ns > 0.0 {
                self.spans.push(Span::new(
                    track,
                    name,
                    SpanCategory::Compile,
                    TimeDomain::Wall,
                    at,
                    ns,
                ));
            }
            at += ns;
        }
        at
    }

    /// Record one plan-cache dispatch outcome: bumps the hit/miss/
    /// coalesced counters by event kind and appends a zero-width
    /// wall-time cache span at `at_ns`. This is the attribution path for
    /// dispatchers — the event comes from
    /// `PlanCache::get_or_compile_traced`, which hands each caller the
    /// event for *its own* dispatch (reading the shared journal's tail is
    /// wrong the moment two tenants share a cache).
    pub fn add_cache_event(&mut self, ev: &rescc_core::CacheEvent, at_ns: f64) {
        use rescc_core::CacheEventKind;
        let label = match ev.kind {
            CacheEventKind::Hit => "hit",
            CacheEventKind::Miss => "miss",
            CacheEventKind::Coalesced => "coalesced",
            CacheEventKind::Insert => "insert",
        };
        match ev.kind {
            CacheEventKind::Hit => self.cache_hits += 1,
            CacheEventKind::Miss => self.cache_misses += 1,
            CacheEventKind::Coalesced => {
                self.cache_hits += 1;
                self.cache_coalesced += 1;
            }
            CacheEventKind::Insert => {}
        }
        self.spans.push(Span::new(
            "cache",
            format!("{label} {:016x}", ev.fingerprint),
            SpanCategory::Cache,
            TimeDomain::Wall,
            at_ns,
            0.0,
        ));
    }

    /// Record a watchdog retry attempt as a sim-time recovery span.
    pub fn add_retry(&mut self, attempt: u64, start_ns: f64, dur_ns: f64) {
        self.spans.push(Span::new(
            "watchdog",
            format!("retry#{attempt}"),
            SpanCategory::Recovery,
            TimeDomain::Sim,
            start_ns,
            dur_ns,
        ));
    }

    /// Record a watchdog backoff wait as a sim-time recovery span.
    pub fn add_backoff(&mut self, start_ns: f64, dur_ns: f64) {
        self.backoff_ns += dur_ns.max(0.0);
        self.spans.push(Span::new(
            "watchdog",
            "backoff",
            SpanCategory::Recovery,
            TimeDomain::Sim,
            start_ns,
            dur_ns,
        ));
    }

    /// Record a mask+recompile cycle as a sim-time recovery span (the
    /// wall-clock compile cost is tracked separately via
    /// [`add_compile`](Self::add_compile)).
    pub fn add_recompile(&mut self, start_ns: f64, dur_ns: f64) {
        self.spans.push(Span::new(
            "watchdog",
            "mask+recompile",
            SpanCategory::Recovery,
            TimeDomain::Sim,
            start_ns,
            dur_ns,
        ));
    }

    /// Record that a mask+recompile cycle was served incrementally — the
    /// watchdog rerouted and spliced the cached plan rather than running a
    /// full compile. Rides alongside [`add_recompile`](Self::add_recompile)
    /// (which spans the cycle itself); the splice's wall-clock phase cost
    /// is folded in via [`add_compile`](Self::add_compile) like any other
    /// compile.
    pub fn add_delta_recompile(&mut self, start_ns: f64, dur_ns: f64) {
        self.spans.push(Span::new(
            "watchdog",
            "splice-delta",
            SpanCategory::Recovery,
            TimeDomain::Sim,
            start_ns,
            dur_ns,
        ));
    }

    /// Record a watchdog frontier-resume attempt as a sim-time recovery
    /// span: instead of restarting from scratch, the attempt replayed the
    /// fault frontier and re-ran only the residual work.
    pub fn add_resume(&mut self, attempt: u64, start_ns: f64, dur_ns: f64) {
        self.spans.push(Span::new(
            "watchdog",
            format!("resume#{attempt}"),
            SpanCategory::Recovery,
            TimeDomain::Sim,
            start_ns,
            dur_ns,
        ));
    }

    /// Record a healing event: a masked resource was restored and the
    /// watchdog failed back to the healthier plan at a collective boundary.
    pub fn add_heal(&mut self, start_ns: f64, dur_ns: f64) {
        self.spans.push(Span::new(
            "watchdog",
            "heal",
            SpanCategory::Recovery,
            TimeDomain::Sim,
            start_ns,
            dur_ns,
        ));
    }
}

/// Convert one attributed TB idle interval into a sim-time span on its
/// TB's track (`"r{rank}/tb{tb}"`), named after the bubble cause.
pub fn bubble_span(b: &BubbleInterval) -> Span {
    Span::new(
        format!("r{}/tb{}", b.rank, b.tb),
        b.cause.as_str(),
        SpanCategory::Bubble,
        TimeDomain::Sim,
        b.start_ns,
        b.duration_ns(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_sim::BubbleCause;
    use std::time::Duration;

    fn timings() -> PhaseTimings {
        PhaseTimings {
            parsing: Duration::ZERO,
            analysis: Duration::from_nanos(200),
            scheduling: Duration::from_nanos(300),
            lowering: Duration::from_nanos(500),
            sanitize: Duration::from_nanos(100),
        }
    }

    #[test]
    fn add_compile_stacks_phases_and_skips_empty_ones() {
        let mut stats = ObsStats::default();
        let end = stats.add_compile(&timings(), "compiler", 0.0);
        assert!((end - 1100.0).abs() < 1e-9);
        assert!((stats.compile_total_ns() - 1100.0).abs() < 1e-9);
        // parsing is zero → 4 spans, contiguous.
        assert_eq!(stats.spans.len(), 4);
        assert_eq!(stats.spans[0].name, "analysis");
        for w in stats.spans.windows(2) {
            assert!((w[0].end_ns() - w[1].start_ns).abs() < 1e-9);
        }
        // A second compile stacks after the first.
        let end2 = stats.add_compile(&timings(), "compiler", end);
        assert!((end2 - 2200.0).abs() < 1e-9);
        assert!((stats.analysis_ns - 400.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_helpers_span() {
        let mut stats = ObsStats::default();
        stats.add_retry(1, 0.0, 50.0);
        stats.add_backoff(50.0, 25.0);
        stats.add_recompile(75.0, 10.0);
        stats.add_resume(1, 85.0, 0.0);
        stats.add_heal(95.0, 0.0);
        assert!((stats.backoff_ns - 25.0).abs() < 1e-12);
        assert_eq!(stats.spans.len(), 5);
        assert!(stats.spans.iter().any(|s| s.name == "resume#1"));
        assert!(stats.spans.iter().any(|s| s.name == "heal"));
        assert!(stats
            .spans
            .iter()
            .all(|s| s.domain == TimeDomain::Sim && s.track == "watchdog"));
    }

    /// Compiles with the lint gate off and on, racing on two threads:
    /// each thread judges only its own plans. A gate-`Off` plan ran no
    /// sanitize phase, so its timing is exactly zero, it carries no
    /// certificate and its compile renders no "sanitize" span; a
    /// gate-`Deny` plan has all three.
    #[test]
    fn sanitize_span_appears_only_when_the_phase_ran() {
        use rescc_core::{Compiler, LintGate};
        use rescc_topology::Topology;
        let compile = |gate: LintGate| {
            let topo = Topology::a100(2, 4);
            let spec = rescc_algos::hm_allreduce(2, 4);
            let compiler = Compiler::new().with_lint_gate(gate);
            for _ in 0..4 {
                let plan = compiler.compile_spec(&spec, &topo).unwrap();
                let mut stats = ObsStats::default();
                stats.add_compile(&plan.timings, "compiler", 0.0);
                let spanned = stats.spans.iter().any(|s| s.name == "sanitize");
                let ran = gate != LintGate::Off;
                assert_eq!(plan.timings.sanitize > Duration::ZERO, ran, "{gate:?}");
                assert_eq!(plan.diagnostics.certificate().is_some(), ran, "{gate:?}");
                assert_eq!(spanned, ran, "{gate:?}");
                assert_eq!(stats.sanitize_ns > 0.0, ran, "{gate:?}");
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| compile(LintGate::Off));
            s.spawn(|| compile(LintGate::Deny));
        });
    }

    #[test]
    fn bubble_span_maps_fields() {
        let b = BubbleInterval {
            tb_index: 7,
            rank: 2,
            tb: 3,
            task: 11,
            mb: 0,
            cause: BubbleCause::RendezvousWait,
            start_ns: 10.0,
            end_ns: 35.0,
        };
        let s = bubble_span(&b);
        assert_eq!(s.track, "r2/tb3");
        assert_eq!(s.name, "rendezvous_wait");
        assert_eq!(s.category, SpanCategory::Bubble);
        assert!((s.dur_ns - 25.0).abs() < 1e-12);
    }

    #[test]
    fn span_clamps_negative_duration() {
        let s = Span::new("t", "n", SpanCategory::Fault, TimeDomain::Sim, 5.0, -1.0);
        assert_eq!(s.dur_ns, 0.0);
        assert_eq!(s.end_ns(), 5.0);
    }
}
