//! Cross-layer observability for ResCCL runs.
//!
//! This crate carries the pieces of the observability stack that sit
//! *above* the simulator: the per-dispatch record ([`DispatchEvent`]) the
//! `Communicator` watchdog (`rescc-backends`) appends to — cache events,
//! compiler phase timings (`rescc-core`), heals, resumes and failed
//! attempts — the spans and counters folded from it ([`ObsStats`]), and a Chrome
//! trace-event exporter ([`ChromeTrace`]) that merges those spans with
//! the simulator's own [`TraceEvent`](rescc_sim::TraceEvent) timeline
//! and [`BubbleInterval`] attribution into a
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

use rescc_core::{CacheEvent, CacheEventKind, PhaseTimings};
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

/// What the watchdog did in response to one recovery trigger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Transient fault: the attempt was restarted from scratch.
    Retry,
    /// Permanent fault: the dead resource was masked, and the next
    /// dispatch serves the degraded plan from the plan cache or compiles
    /// it.
    FullRecompile,
    /// The attempt's fault frontier was folded in; the next attempt
    /// resumed the cached plan from it instead of restarting.
    Resume,
    /// A masked resource was restored: the watchdog un-masked it and
    /// failed back to the healthier plan at the collective boundary.
    Heal,
}

impl RecoveryAction {
    /// Stable lowercase name (used in journals and trace exports).
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryAction::Retry => "retry",
            RecoveryAction::FullRecompile => "full-recompile",
            RecoveryAction::Resume => "resume",
            RecoveryAction::Heal => "heal",
        }
    }
}

/// One entry in the watchdog's per-attempt recovery journal.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// Recovery trigger number within the call (1-based; 0 for healing,
    /// which happens before the first attempt).
    pub attempt: u32,
    /// Short human-readable cause (e.g. `"transient r12 down"`,
    /// `"r7 dead"`, `"res7 restored"`).
    pub cause: String,
    /// Sim time of the trigger, ns since the call started (failed-attempt
    /// time already elapsed included).
    pub at_ns: f64,
    /// What the watchdog did about it.
    pub action: RecoveryAction,
}

/// One thing that happened while a `Communicator` served a collective.
///
/// The watchdog appends each event once, in order, to one record per call;
/// `RecoveryStats` (counters and journal) and [`ObsStats`] are both folds
/// of that record.
#[derive(Clone, Debug)]
pub enum DispatchEvent {
    /// The plan cache served an attempt (hit, miss or coalesced).
    Cache(CacheEvent),
    /// A compile ran on a miss, with these wall-clock phase durations.
    Compile(PhaseTimings),
    /// The attempt resumed from the accumulated fault frontier instead of
    /// restarting.
    Resume,
    /// A journaled watchdog trigger: a heal or a failed attempt.
    Trigger(RecoveryTrigger),
}

/// A heal before the first attempt (no times), or a failed attempt —
/// transient (`Retry`, `Resume`) or permanent (`FullRecompile`). Each
/// attempt starts once the `failed_ns + wait_ns` of every earlier trigger
/// in the record has elapsed.
#[derive(Clone, Debug)]
pub struct RecoveryTrigger {
    /// What the watchdog did about it.
    pub action: RecoveryAction,
    /// Short human-readable cause (see [`RecoveryEvent::cause`]).
    pub cause: String,
    /// Sim time into the attempt at which it failed.
    pub failed_ns: f64,
    /// Wait before the next attempt starts.
    pub wait_ns: f64,
}

/// Counters and spans of one backend run — compile phases, cache traffic
/// and watchdog activity — folded from its dispatch record
/// ([`from_events`](Self::from_events)). Carried on `RunReport::obs` when
/// the `Communicator` runs with observability enabled.
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
    /// Total wall-clock compile time accumulated, ns. Phase times
    /// measure work: on a cache miss, sanitize overlaps the dispatch's
    /// first run, so the dispatch takes less wall time than its compile
    /// total plus its run.
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

    /// Fold one dispatch's record into counters and spans, in event order:
    /// compile phases stack end-to-end on a wall-clock `compiler` track,
    /// each cache event is a zero-width wall span at the current compile
    /// offset, and the watchdog's heals, resumes, retries, backoff waits
    /// and mask+recompile cycles are sim-time spans on the `watchdog`
    /// track.
    pub fn from_events(events: &[DispatchEvent]) -> Self {
        let mut stats = Self::default();
        let mut compile_at = 0.0f64;
        // Sim time the current attempt started.
        let mut elapsed = 0.0f64;
        let (mut retries, mut resumes) = (0u32, 0u32);
        for event in events {
            match event {
                DispatchEvent::Cache(ev) => {
                    let label = match ev.kind {
                        CacheEventKind::Hit => "hit",
                        CacheEventKind::Miss => "miss",
                        CacheEventKind::Coalesced => "coalesced",
                    };
                    stats.cache_hits += u64::from(ev.is_hit());
                    stats.cache_misses += u64::from(ev.kind == CacheEventKind::Miss);
                    stats.cache_coalesced += u64::from(ev.kind == CacheEventKind::Coalesced);
                    stats.spans.push(Span::new(
                        "cache",
                        format!("{label} {:016x}", ev.fingerprint),
                        SpanCategory::Cache,
                        TimeDomain::Wall,
                        compile_at,
                        0.0,
                    ));
                }
                DispatchEvent::Compile(timings) => {
                    compile_at = stats.add_compile(timings, "compiler", compile_at);
                }
                DispatchEvent::Resume => {
                    resumes += 1;
                    stats.watchdog(format!("resume#{resumes}"), elapsed, 0.0);
                }
                DispatchEvent::Trigger(t) => {
                    let at = elapsed + t.failed_ns;
                    match t.action {
                        RecoveryAction::Heal => stats.watchdog("heal", at, t.wait_ns),
                        RecoveryAction::Retry | RecoveryAction::Resume => {
                            retries += 1;
                            stats.watchdog(format!("retry#{retries}"), elapsed, t.failed_ns);
                            stats.watchdog("backoff", at, t.wait_ns);
                            stats.backoff_ns += t.wait_ns;
                        }
                        RecoveryAction::FullRecompile => {
                            stats.watchdog("mask+recompile", at, t.wait_ns)
                        }
                    }
                    elapsed += t.failed_ns + t.wait_ns;
                }
            }
        }
        stats
    }

    fn watchdog(&mut self, name: impl Into<String>, start_ns: f64, dur_ns: f64) {
        self.spans.push(Span::new(
            "watchdog",
            name,
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
    fn dispatch_record_folds_into_spans_in_event_order() {
        let cache = |kind| {
            DispatchEvent::Cache(CacheEvent {
                seq: 0,
                fingerprint: 0xab,
                kind,
            })
        };
        let trigger = |action, failed_ns, wait_ns| {
            DispatchEvent::Trigger(RecoveryTrigger {
                action,
                cause: String::new(),
                failed_ns,
                wait_ns,
            })
        };
        let events = [
            trigger(RecoveryAction::Heal, 0.0, 0.0),
            cache(CacheEventKind::Miss),
            DispatchEvent::Compile(timings()),
            trigger(RecoveryAction::Resume, 50.0, 25.0),
            cache(CacheEventKind::Hit),
            DispatchEvent::Resume,
            trigger(RecoveryAction::FullRecompile, 10.0, 5.0),
            cache(CacheEventKind::Coalesced),
        ];
        let stats = ObsStats::from_events(&events);
        assert_eq!((stats.cache_hits, stats.cache_misses), (2, 1));
        assert_eq!(stats.cache_coalesced, 1);
        assert!((stats.backoff_ns - 25.0).abs() < 1e-12);
        assert!((stats.compile_total_ns() - 1100.0).abs() < 1e-9);
        let names: Vec<&str> = stats.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "heal",
                "miss 00000000000000ab",
                "analysis",
                "scheduling",
                "lowering",
                "sanitize",
                "retry#1",
                "backoff",
                "hit 00000000000000ab",
                "resume#1",
                "mask+recompile",
                "coalesced 00000000000000ab",
            ]
        );
        // A cache span sits at the compile offset it was dispatched at.
        assert_eq!(stats.spans[8].start_ns, 1100.0);
        assert_eq!(stats.spans[10].start_ns, 85.0);
        assert!(stats
            .spans
            .iter()
            .filter(|s| s.track == "watchdog")
            .all(|s| s.domain == TimeDomain::Sim));
    }

    /// Compiles on two threads, each judging only its own plans: one
    /// keeps fresh compiles, the other zeroes each plan's sanitize time,
    /// as for a phase that did not run. A plan whose sanitize phase did
    /// not run has exactly zero sanitize time and its compile renders no
    /// "sanitize" span; a fresh plan has both.
    #[test]
    fn sanitize_span_appears_only_when_the_phase_ran() {
        use rescc_core::Compiler;
        use rescc_topology::Topology;
        let compile = |skipped: bool| {
            let topo = Topology::a100(2, 4);
            let spec = rescc_algos::hm_allreduce(2, 4);
            let compiler = Compiler::new();
            for _ in 0..4 {
                let mut plan = compiler.compile_spec(&spec, &topo).unwrap();
                if skipped {
                    plan.timings.sanitize = Duration::ZERO;
                }
                let mut stats = ObsStats::default();
                stats.add_compile(&plan.timings, "compiler", 0.0);
                let spanned = stats.spans.iter().any(|s| s.name == "sanitize");
                let ran = !skipped;
                assert_eq!(plan.timings.sanitize > Duration::ZERO, ran, "{skipped}");
                assert_eq!(spanned, ran, "{skipped}");
                assert_eq!(stats.sanitize_ns > 0.0, ran, "{skipped}");
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| compile(true));
            s.spawn(|| compile(false));
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
