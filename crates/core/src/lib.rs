//! # rescc-core
//!
//! The public facade of the ResCCL backend: a four-phase offline compiler
//! (the workflow of Fig. 5 / Fig. 10(a)) that turns an algorithm — ResCCLang
//! source or a validated [`AlgoSpec`] — into an executable lightweight
//! kernel program, plus the plumbing to run the result on the simulated
//! cluster and to emit the generated pseudo-CUDA.
//!
//! Phases (timed individually, matching the Fig. 10(a) breakdown):
//!
//! 1. **Parsing** — DSL text → AST → validated `AlgoSpec`,
//! 2. **Analysis** — `AlgoSpec` → dependency DAG (`G_A`),
//! 3. **Scheduling** — HPDS, round-robin or by-step → task pipeline,
//! 4. **Lowering** — TB allocation + kernel generation, by one of the
//!    three [`Lowering`]s: ResCCL's state-based lowering, its fused
//!    variant, or the rigid lowering of the NCCL and MSCCL baselines,
//! 5. **Sanitize** — cross-phase static analysis (`rescc-analyze` lints
//!    RA001–RA007) over the finished artifact stack, gated by
//!    [`LintGate`] (deny by default: `Error`-severity findings fail the
//!    compile).
//!
//! ```
//! use rescc_core::Compiler;
//! use rescc_topology::Topology;
//! use rescc_algos::hm_allreduce;
//!
//! let topo = Topology::a100(2, 4);
//! let plan = Compiler::new().compile_spec(&hm_allreduce(2, 4), &topo).unwrap();
//! let report = plan.run(64 << 20, 1 << 20).unwrap();
//! assert_eq!(report.data_valid, Some(true));
//! println!("compiled in {:?}, ran at {:.1} GB/s",
//!     plan.timings.total(), report.algo_bandwidth_gbps(64 << 20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod resume;

pub use cache::{
    plan_cost_bytes, plan_fingerprint, CacheEvent, CacheEventKind, CacheStats, PlanCache, SpecKey,
    DEFAULT_JOURNAL_CAPACITY, SHARD_COUNT,
};

use rescc_alloc::TbAllocation;
use rescc_analyze::{analyze, AnalysisConfig, AnalysisInput, AnalysisReport};
use rescc_ir::{DepDag, MicroBatchPlan};
use rescc_kernel::{emit_all, ExecMode, KernelProgram, LoopOrder};
use rescc_lang::{eval, parse, AlgoSpec, OpType};
use rescc_sched::{by_step, hpds, round_robin, Schedule, StagePartition};
use rescc_sim::{simulate, SimConfig, SimError, SimReport, SimResult};
use rescc_topology::{Topology, TopologyHealth};
use std::time::{Duration, Instant};

/// Scheduler selection for the compiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulerChoice {
    /// Hierarchical priority-based dynamic scheduling (Algorithm 1).
    #[default]
    Hpds,
    /// Round-robin (the Fig. 10(b) baseline).
    RoundRobin,
    /// Plain step order, as the NCCL and MSCCL baselines run
    /// ([`rescc_sched::by_step`]).
    ByStep,
}

/// How a schedule is lowered to TBs and a kernel program: the execution
/// granularity, TB allocation and runtime of the paper's backends (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Lowering {
    /// ResCCL: state-based TBs, a slot-major kernel, no barrier.
    #[default]
    StateBased,
    /// `StateBased` with chain-merged TBs and the fusion pass
    /// ([`rescc_kernel::fuse`]), beyond the paper's configuration.
    Fused,
    /// NCCL/MSCCL: connection-based TBs and a micro-batch-major kernel with
    /// one barrier group per stage of step bands ([`StagePartition`]); each
    /// stage iterates its micro-batches lazily. The barrier groups make the
    /// simulator hold every TB of a rigid plan until the kernel finishes.
    Rigid {
        /// Parallel channels per connection.
        n_channels: u32,
        /// Stages (1 = one global barrier, algorithm-level execution).
        n_stages: u32,
        /// Direct kernel or runtime interpreter.
        exec: ExecMode,
    },
}

/// Wall-clock duration of each compiler phase (Fig. 10(a)).
///
/// A phase that did not run reads exactly [`Duration::ZERO`]: parsing
/// when compiling from a spec.
///
/// Each phase time measures the phase's work, not the caller's wait.
/// [`Compiler::compile_spec_then`] runs sanitize beside other work, so a
/// cold dispatch's wall time is less than its compile total plus its run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// DSL text → AST → validated spec.
    pub parsing: Duration,
    /// Spec → dependency DAG.
    pub analysis: Duration,
    /// DAG → task pipeline (HPDS / RR).
    pub scheduling: Duration,
    /// Pipeline → TB allocation → kernel program.
    pub lowering: Duration,
    /// Static analysis over the finished artifact stack.
    pub sanitize: Duration,
}

impl PhaseTimings {
    /// End-to-end compile time.
    pub fn total(&self) -> Duration {
        self.parsing + self.analysis + self.scheduling + self.lowering + self.sanitize
    }

    /// The phases in pipeline order with their stable names, for
    /// observability consumers that render one span per phase.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        [
            ("parsing", self.parsing),
            ("analysis", self.analysis),
            ("scheduling", self.scheduling),
            ("lowering", self.lowering),
            ("sanitize", self.sanitize),
        ]
    }
}

/// What the compiler does with the sanitize phase's findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LintGate {
    /// Run the lints and attach the report, but never fail the compile.
    Warn,
    /// Run the lints; `Error`-severity findings fail the compile. `Warn`
    /// findings are attached to the plan but do not fail it.
    #[default]
    Deny,
}

/// The ResCCL offline compiler.
#[derive(Clone, Debug)]
pub struct Compiler {
    /// Scheduler to use.
    pub scheduler: SchedulerChoice,
    /// Statically verify the algorithm implements its declared collective
    /// during the Analysis phase, at every group size. On by default.
    /// Verification replays one chunk at a time over sparse contribution
    /// counts, so its time follows the number of transfers, not transfers
    /// × ranks, and its verdict is memoized in the spec
    /// ([`AlgoSpec::verified`]): later compiles of the spec reuse it, and
    /// a failed verdict fails each of them. Tests turn it off to run specs
    /// that fail verification.
    pub verify: bool,
    /// What to do with the sanitize phase's findings (deny by default).
    pub lint_gate: LintGate,
    /// Tunables for the sanitize phase's lints.
    pub lint_config: AnalysisConfig,
    /// How the schedule is lowered (state-based by default).
    pub lowering: Lowering,
}

impl Default for Compiler {
    fn default() -> Self {
        Self {
            scheduler: SchedulerChoice::default(),
            verify: true,
            lint_gate: LintGate::default(),
            lint_config: AnalysisConfig::default(),
            lowering: Lowering::default(),
        }
    }
}

impl Compiler {
    /// A compiler with the default (HPDS) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use the round-robin scheduler instead of HPDS.
    pub fn with_round_robin(mut self) -> Self {
        self.scheduler = SchedulerChoice::RoundRobin;
        self
    }

    /// Enable primitive fusion ([`Lowering::Fused`]).
    pub fn with_fusion(mut self) -> Self {
        self.lowering = Lowering::Fused;
        self
    }

    /// Set the sanitize-phase gate (deny / warn).
    pub fn with_lint_gate(mut self, gate: LintGate) -> Self {
        self.lint_gate = gate;
        self
    }

    /// Compile ResCCLang source text for `topo`.
    pub fn compile_source(&self, source: &str, topo: &Topology) -> SimResult<CompiledPlan> {
        let t0 = Instant::now();
        let spec = eval(&parse(source)?)?;
        let parsing = t0.elapsed();
        let mut plan = self.compile_spec(&spec, topo)?;
        plan.timings.parsing = parsing;
        Ok(plan)
    }

    /// Compile a validated algorithm spec for `topo`.
    pub fn compile_spec(&self, spec: &AlgoSpec, topo: &Topology) -> SimResult<CompiledPlan> {
        let plan = self.lower_spec(spec, topo)?;
        let (report, took) = self.lint(&plan);
        self.gate(plan, report, took)
    }

    /// [`compile_spec`](Self::compile_spec), with `then` overlapping the
    /// sanitize phase: the lints run on a scoped thread while `then` reads
    /// the lowered plan on the caller's thread, and the thread is joined
    /// before this returns. Both only read the plan, and `then` sees it
    /// without its diagnostics. The gate then applies as in `compile_spec`:
    /// a refused plan fails with the same [`SimError::LintRejected`], and
    /// `then`'s result is dropped.
    ///
    /// A dispatch passes its first run as `then`, so a cold dispatch
    /// waits for the longer of the lints and the run, not their sum.
    pub fn compile_spec_then<R>(
        &self,
        spec: &AlgoSpec,
        topo: &Topology,
        then: impl FnOnce(&CompiledPlan) -> R,
    ) -> SimResult<(CompiledPlan, R)> {
        let plan = self.lower_spec(spec, topo)?;
        let ((report, took), out) = std::thread::scope(|s| {
            let lints = s.spawn(|| self.lint(&plan));
            let out = then(&plan);
            let lints = lints.join();
            (lints.unwrap_or_else(|p| std::panic::resume_unwind(p)), out)
        });
        Ok((self.gate(plan, report, took)?, out))
    }

    /// The phases of a compile before sanitize: verify, build the DAG,
    /// schedule and lower. The plan carries no diagnostics yet.
    fn lower_spec(&self, spec: &AlgoSpec, topo: &Topology) -> SimResult<CompiledPlan> {
        let mut timings = PhaseTimings::default();

        // The verdict and the DAG's dependency index are memoized in the
        // spec: only its first compile, for any topology, derives them.
        let t0 = Instant::now();
        if self.verify {
            spec.verified()?;
        }
        let dag = DepDag::build(spec, topo)?;
        timings.analysis = t0.elapsed();

        let (schedule, alloc, program) =
            self.schedule_and_lower(spec.name(), &dag, &mut timings)?;
        Ok(CompiledPlan {
            topo: topo.clone(),
            spec: spec.clone(),
            op: spec.op(),
            n_chunks: spec.n_chunks(),
            dag,
            schedule,
            alloc,
            program,
            timings,
            diagnostics: AnalysisReport::default(),
        })
    }

    /// [`compile_spec`](Self::compile_spec) of `cached`'s spec for its
    /// topology under `health`. Kept only because the dispatch benchmark's
    /// fault replay calls this signature.
    #[doc(hidden)]
    pub fn recompile_delta(
        &self,
        cached: &CompiledPlan,
        health: &TopologyHealth,
    ) -> SimResult<CompiledPlan> {
        self.compile_spec(
            &cached.spec,
            &cached.topo.clone().with_health(health.clone()),
        )
    }

    /// The scheduling and lowering phases: schedule `dag`, allocate its
    /// TBs and generate the kernel program, validating each artifact.
    /// Records `scheduling` and `lowering` in `timings`.
    fn schedule_and_lower(
        &self,
        name: &str,
        dag: &DepDag,
        timings: &mut PhaseTimings,
    ) -> SimResult<(Schedule, TbAllocation, KernelProgram)> {
        if let Lowering::Rigid {
            n_channels,
            n_stages,
            exec,
        } = self.lowering
        {
            if n_channels == 0 || n_stages == 0 {
                return Err(SimError::InvalidConfig(format!(
                    "a rigid lowering needs at least one channel and one stage, \
                     not {n_channels} and {n_stages}"
                )));
            }
            let overhead = exec.overhead_ns();
            if !(overhead.is_finite() && overhead >= 0.0) {
                return Err(SimError::InvalidConfig(format!(
                    "an interpreter overhead must be finite and not negative, not {overhead} ns"
                )));
            }
        }
        let t0 = Instant::now();
        // Rule 3 (no oversubscribed sub-pipeline) is a postcondition of
        // HPDS and RR only; by-step promises dependency order.
        let schedule = match self.scheduler {
            SchedulerChoice::Hpds => hpds(dag),
            SchedulerChoice::RoundRobin => round_robin(dag),
            SchedulerChoice::ByStep => by_step(dag),
        };
        match self.scheduler {
            SchedulerChoice::ByStep => schedule.validate_order(dag),
            _ => schedule.validate(dag),
        }
        .map_err(SimError::SchedulerBug)?;
        timings.scheduling = t0.elapsed();

        let t0 = Instant::now();
        let alloc = match self.lowering {
            Lowering::StateBased => TbAllocation::state_based(dag, &schedule),
            Lowering::Fused => TbAllocation::state_based_chained(dag, &schedule),
            Lowering::Rigid { n_channels, .. } => {
                TbAllocation::connection_based(dag, &schedule, n_channels)
            }
        };
        alloc
            .validate(dag, &schedule)
            .map_err(SimError::AllocationBug)?;
        let program = match self.lowering {
            // Fused programs keep the slot-major loop: the simulator issues
            // a fused forward asynchronously, so each recv→send pair
            // pipelines across micro-batches like its unfused counterpart.
            Lowering::StateBased | Lowering::Fused => {
                let mut program = KernelProgram::generate(
                    name,
                    dag,
                    &alloc,
                    LoopOrder::SlotMajor,
                    ExecMode::DirectKernel,
                );
                if self.lowering == Lowering::Fused {
                    rescc_kernel::fuse(&mut program, dag);
                }
                program
            }
            Lowering::Rigid {
                n_channels,
                n_stages,
                exec,
            } => {
                let stages = StagePartition::by_steps(dag, n_stages);
                stages.validate(dag)?;
                KernelProgram::generate(name, dag, &alloc, LoopOrder::MicroBatchMajor, exec)
                    .with_barrier_groups(stages.stage_of(dag.len()))
                    .with_barrier_stride(n_channels)
            }
        };
        program.validate(dag).map_err(SimError::LoweringBug)?;
        timings.lowering = t0.elapsed();
        Ok((schedule, alloc, program))
    }

    /// The sanitize phase's analysis of `plan`, and how long it took.
    fn lint(&self, plan: &CompiledPlan) -> (AnalysisReport, Duration) {
        let t0 = Instant::now();
        let report = analyze(
            &AnalysisInput {
                spec: &plan.spec,
                dag: &plan.dag,
                schedule: &plan.schedule,
                alloc: &plan.alloc,
                program: &plan.program,
                topo: &plan.topo,
            },
            &self.lint_config,
        );
        (report, t0.elapsed())
    }

    /// Attach `report` to `plan` and record `took` as its sanitize time.
    /// Under [`LintGate::Deny`] a report with errors refuses the plan.
    fn gate(
        &self,
        mut plan: CompiledPlan,
        report: AnalysisReport,
        took: Duration,
    ) -> SimResult<CompiledPlan> {
        plan.timings.sanitize = took;
        if self.lint_gate == LintGate::Deny && report.has_errors() {
            return Err(SimError::LintRejected {
                report: report.render_human(),
            });
        }
        plan.diagnostics = report;
        Ok(plan)
    }
}

/// A fully-compiled, executable collective plan.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    /// The topology the plan was compiled for.
    pub topo: Topology,
    /// The validated algorithm the plan implements, for the sanitize
    /// phase's lints and the plan's cache key.
    pub spec: AlgoSpec,
    /// The collective operator implemented.
    pub op: OpType,
    /// Chunks per rank.
    pub n_chunks: u32,
    /// The dependency DAG.
    pub dag: DepDag,
    /// The HPDS/RR/by-step task pipeline.
    pub schedule: Schedule,
    /// The TB allocation: state-based, chain-merged under
    /// [`Lowering::Fused`], connection-based under [`Lowering::Rigid`].
    pub alloc: TbAllocation,
    /// The generated lightweight kernel program.
    pub program: KernelProgram,
    /// Per-phase compile timings.
    pub timings: PhaseTimings,
    /// Sanitize-phase findings, empty when the plan is clean. Under
    /// [`LintGate::Warn`] this may carry `Error`-severity findings the gate
    /// let through.
    pub diagnostics: AnalysisReport,
}

impl CompiledPlan {
    /// Run the plan: synchronize `buffer_bytes` per rank moving
    /// `chunk_bytes` per invocation, with data validation on.
    pub fn run(&self, buffer_bytes: u64, chunk_bytes: u64) -> SimResult<SimReport> {
        self.run_with(buffer_bytes, chunk_bytes, &SimConfig::default())
    }

    /// Run with a custom simulator configuration. A zero `buffer_bytes` or
    /// `chunk_bytes` fails with [`SimError::InvalidConfig`].
    pub fn run_with(
        &self,
        buffer_bytes: u64,
        chunk_bytes: u64,
        config: &SimConfig,
    ) -> SimResult<SimReport> {
        // Checked here: the micro-batch planner asserts both are positive.
        if buffer_bytes == 0 || chunk_bytes == 0 {
            return Err(SimError::InvalidConfig(format!(
                "run of {buffer_bytes} B in {chunk_bytes} B chunks: both must be positive"
            )));
        }
        let plan = MicroBatchPlan::plan(buffer_bytes, self.n_chunks, chunk_bytes);
        simulate(&self.topo, &self.dag, &self.program, &plan, self.op, config)
    }

    /// Emit the generated pseudo-CUDA kernels for all ranks.
    pub fn emit_kernels(&self) -> String {
        emit_all(&self.program, &self.dag, &self.alloc, &self.schedule)
    }

    /// The α–β–γ makespan lower bound certified by the sanitize phase for
    /// a run over `buffer_bytes` at `chunk_bytes` per invocation:
    /// `max(critical-path α-chain, bottleneck-link bytes·β)`. No run of
    /// this plan — degraded, jittered, or contended — can legitimately
    /// finish faster; a [`SimReport`] undercutting it indicates a cost
    /// model or engine bug. `None` for a zero buffer or chunk, which
    /// [`run_with`](Self::run_with) refuses, and for a plan whose report
    /// carries no certificate; every plan the compiler returns has one.
    pub fn makespan_floor_ns(&self, buffer_bytes: u64, chunk_bytes: u64) -> Option<f64> {
        if buffer_bytes == 0 || chunk_bytes == 0 {
            return None;
        }
        let mb = MicroBatchPlan::plan(buffer_bytes, self.n_chunks, chunk_bytes);
        self.diagnostics
            .certificate()
            .map(|c| c.lower_bound_ns(mb.chunk_total_bytes()))
    }

    /// Total TBs the plan launches.
    pub fn total_tbs(&self) -> usize {
        self.alloc.total_tbs()
    }

    /// Whether two plans are the same compiled artifact: identical DAG,
    /// schedule, TB allocation and kernel program for the same operator,
    /// chunking, and topology shape. Phase timings are deliberately
    /// ignored — they are measurement metadata, not part of the artifact.
    /// Used to assert that cached and replayed compiles reproduce a fresh
    /// one.
    pub fn semantic_eq(&self, other: &Self) -> bool {
        self.op == other.op
            && self.n_chunks == other.n_chunks
            && self.topo.name() == other.topo.name()
            && self.topo.spec() == other.topo.spec()
            && self.dag == other.dag
            && self.schedule == other.schedule
            && self.alloc == other.alloc
            && self.program == other.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_algos::{hm_allreduce, ring_allgather_source};
    use rescc_lang::LangError;

    #[test]
    fn compile_from_source_and_run() {
        let topo = Topology::a100(1, 8);
        let plan = Compiler::new()
            .compile_source(&ring_allgather_source(8), &topo)
            .unwrap();
        assert!(plan.timings.parsing > Duration::ZERO);
        assert_eq!(plan.dag.len(), 56);
        let rep = plan.run(64 << 20, 1 << 20).unwrap();
        assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn zero_buffer_or_chunk_is_an_invalid_config() {
        let topo = Topology::a100(2, 4);
        let plan = Compiler::new()
            .compile_spec(&hm_allreduce(2, 4), &topo)
            .unwrap();
        for (buffer, chunk) in [(0, 1 << 20), (64 << 20, 0), (0, 0)] {
            let err = plan.run(buffer, chunk).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
            assert_eq!(plan.makespan_floor_ns(buffer, chunk), None);
        }
        assert!(plan.run(64 << 20, 1 << 20).is_ok());
        assert!(plan.makespan_floor_ns(64 << 20, 1 << 20).is_some());
    }

    #[test]
    fn compile_spec_times_all_phases() {
        let topo = Topology::a100(2, 8);
        let plan = Compiler::new()
            .compile_spec(&hm_allreduce(2, 8), &topo)
            .unwrap();
        assert_eq!(plan.timings.parsing, Duration::ZERO);
        assert!(plan.timings.total() > Duration::ZERO);
        assert!(plan.total_tbs() > 0);
    }

    #[test]
    fn allocation_and_program_share_one_slot_table() {
        let topo = Topology::a100(2, 4);
        for compiler in [Compiler::new(), Compiler::new().with_fusion()] {
            let plan = compiler.compile_spec(&hm_allreduce(2, 4), &topo).unwrap();
            assert!(std::sync::Arc::ptr_eq(
                &plan.alloc.table,
                &plan.program.table
            ));
            assert_eq!(plan.alloc.table.slots().len(), 2 * plan.dag.len());
        }
    }

    #[test]
    fn emitted_kernels_cover_all_ranks() {
        let topo = Topology::a100(2, 4);
        let plan = Compiler::new()
            .compile_spec(&hm_allreduce(2, 4), &topo)
            .unwrap();
        let cuda = plan.emit_kernels();
        for r in 0..8 {
            assert!(cuda.contains(&format!("resccl_kernel_r{r}")));
        }
    }

    #[test]
    fn round_robin_compiler_variant() {
        let topo = Topology::a100(2, 4);
        let plan = Compiler::new()
            .with_round_robin()
            .compile_spec(&hm_allreduce(2, 4), &topo)
            .unwrap();
        assert_eq!(plan.schedule.policy, "rr");
        let rep = plan.run(16 << 20, 1 << 20).unwrap();
        assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn statically_broken_collective_is_rejected_before_scheduling() {
        use rescc_lang::{AlgoBuilder, OpType};
        let topo = Topology::a100(1, 4);
        let mut b = AlgoBuilder::new("broken", OpType::AllGather, 4);
        b.recv(0, 1, 0, 0); // only one chunk ever moves
        match Compiler::new().compile_spec(&b.build().unwrap(), &topo) {
            Err(SimError::InvalidAlgorithm(e @ LangError::Eval { .. })) => {
                assert!(e.to_string().contains("does not implement"), "{e}")
            }
            other => panic!("expected a typed verification error, got {other:?}"),
        }
    }

    #[test]
    fn verification_can_be_disabled() {
        use rescc_lang::{AlgoBuilder, OpType};
        let topo = Topology::a100(1, 4);
        let mut b = AlgoBuilder::new("partial", OpType::AllGather, 4);
        b.recv(0, 1, 0, 0);
        let mut compiler = Compiler::new();
        compiler.verify = false;
        // Compiles (the runtime check would still catch it when run).
        compiler.compile_spec(&b.build().unwrap(), &topo).unwrap();
    }

    #[test]
    fn sanitize_phase_runs_and_is_clean_on_seed_algorithms() {
        let topo = Topology::a100(2, 4);
        let plan = Compiler::new()
            .compile_spec(&hm_allreduce(2, 4), &topo)
            .unwrap();
        assert!(
            plan.diagnostics.is_clean(),
            "{}",
            plan.diagnostics.render_human()
        );
        // RA007 attaches a certificate on every sanitize run.
        assert!(plan.diagnostics.certificate().is_some());
        assert!(plan.timings.sanitize > Duration::ZERO);
    }

    #[test]
    fn certificate_floor_is_never_undercut_by_the_engine() {
        use rescc_algos::{dbtree_allreduce, ring_allgather};
        let buffer: u64 = 16 << 20;
        let chunk: u64 = 1 << 20;
        let cases: Vec<(rescc_lang::AlgoSpec, Topology)> = vec![
            (hm_allreduce(2, 4), Topology::a100(2, 4)),
            (ring_allgather(8), Topology::a100(1, 8)),
            (dbtree_allreduce(8), Topology::a100(2, 4)),
        ];
        for (spec, topo) in cases {
            let plan = Compiler::new().compile_spec(&spec, &topo).unwrap();
            let floor = plan
                .makespan_floor_ns(buffer, chunk)
                .expect("every sanitized plan carries a certificate");
            assert!(floor > 0.0, "{}: degenerate floor {floor}", spec.name());
            let rep = plan.run(buffer, chunk).unwrap();
            assert!(
                !rep.undercuts_floor(floor),
                "{}: run finished at {} ns, under its certified floor {} ns",
                spec.name(),
                rep.completion_ns,
                floor
            );
        }
    }

    /// The report a deny gate refused a plan with; panics on any other
    /// outcome.
    fn lint_refusal(result: SimResult<CompiledPlan>) -> String {
        match result {
            Err(SimError::LintRejected { report }) => report,
            other => panic!("expected a lint-gate refusal, got {other:?}"),
        }
    }

    #[test]
    fn lint_gate_denies_plan_routed_over_dead_resource() {
        use rescc_topology::{NicId, TopologyHealth};
        // Mask a NIC direction on a single-NIC topology: the router has no
        // healthy alternative and falls back to the dead resource, which
        // RA005 must catch and the deny gate must refuse.
        let healthy = Topology::a100(2, 2);
        let nic = healthy.nic_tx(NicId::new(0));
        let mut mask = TopologyHealth::healthy();
        mask.mask(nic);
        let degraded = Topology::a100(2, 2).with_health(mask);
        let spec = hm_allreduce(2, 2);
        let report = lint_refusal(Compiler::new().compile_spec(&spec, &degraded));
        assert!(report.contains("RA005"), "{report}");
        // Warn gate always yields a plan, carrying what was found.
        let plan = Compiler::new()
            .with_lint_gate(LintGate::Warn)
            .compile_spec(&spec, &degraded)
            .unwrap();
        assert!(plan.diagnostics.has_errors());
    }

    #[test]
    fn compile_spec_then_overlaps_the_lints_and_keeps_the_gate() {
        use rescc_topology::{NicId, TopologyHealth};
        let compiler = Compiler::new();
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let serial = compiler.compile_spec(&spec, &topo).unwrap();
        let (plan, ran) = compiler
            .compile_spec_then(&spec, &topo, |p| {
                assert!(p.diagnostics.certificate().is_none(), "not sanitized yet");
                p.run(16 << 20, 1 << 20)
            })
            .unwrap();
        assert!(plan.semantic_eq(&serial));
        assert_eq!(plan.diagnostics, serial.diagnostics);
        assert!(plan.timings.sanitize > Duration::ZERO);
        assert_eq!(ran.unwrap(), serial.run(16 << 20, 1 << 20).unwrap());

        // A refused plan fails as `compile_spec` does, though `then` ran.
        let mut mask = TopologyHealth::healthy();
        mask.mask(Topology::a100(2, 2).nic_tx(NicId::new(0)));
        let degraded = Topology::a100(2, 2).with_health(mask);
        let spec = hm_allreduce(2, 2);
        let mut ran = false;
        let refused = compiler.compile_spec_then(&spec, &degraded, |_| ran = true);
        assert!(ran);
        assert_eq!(
            lint_refusal(refused.map(|(plan, ())| plan)),
            lint_refusal(compiler.compile_spec(&spec, &degraded))
        );
    }

    #[test]
    fn bad_source_is_a_typed_language_error() {
        let topo = Topology::a100(1, 4);
        match Compiler::new().compile_source("def Broken(:\n", &topo) {
            Err(SimError::InvalidAlgorithm(LangError::Parse { line, .. })) => assert_eq!(line, 1),
            other => panic!("expected a typed parse error, got {other:?}"),
        }
    }
}
