//! # rescc-analyze — cross-phase static analysis over compiled plans
//!
//! Each stage of the compile pipeline validates its *own* invariants:
//! the verifier proves the spec's transfers realize the collective, the
//! scheduler checks per-sub-pipeline conflict loads, the TB allocator
//! checks slot placement. None of them sees the *combination* — and the
//! combination is what the engine executes. This crate runs clippy-style
//! lints over the full artifact stack (`AlgoSpec`, `DepDag`, `Schedule`,
//! `TbAllocation`, `KernelProgram`, `Topology`) and reports machine-stable
//! diagnostics:
//!
//! | code  | severity | lint |
//! |-------|----------|------|
//! | RA001 | error    | deadlock: cycle over DAG edges ∪ per-TB slot order ∪ fusion gates |
//! | RA002 | error    | buffer race: unordered writes to one `(rank, chunk)` slot |
//! | RA003 | warn     | over-subscription: conflict load above saturation / TB budget |
//! | RA004 | warn     | dead transfer: contribution never reaches the postcondition |
//! | RA005 | error    | degraded-plan soundness: task routed over a health-masked resource |
//! | RA006 | error    | buffer-lifetime overlap: slot reuse unordered with a reader of the previous write |
//! | RA007 | error    | cost infeasibility: windowed demand above link capacity (α–β–γ) |
//!
//! Order-sensitive lints (RA001, RA002, RA006) share one happens-before
//! oracle ([`HbOracle`]) built over the combined order per `analyze`
//! call; RA007 additionally computes an α–β–γ makespan lower-bound
//! [`CostCertificate`] attached to the report, which the bench harness
//! and the communicator cross-check against simulation results.
//!
//! Diagnostics carry a [`Site`] (task / rank / TB / step / sub-pipeline /
//! resource / chunk, each optional) plus a counterexample [`path`]
//! (`Diagnostic::path`) where the lint has one, and render both
//! human-readable (`error[RA001] at t3 r0 tb1: ...`) and as stable JSON
//! via [`AnalysisReport::to_json`].
//!
//! The pass is wired into two places: the compiler's *sanitize* phase
//! after lowering (gate deny or warn), which every compile goes through,
//! and the `rescc-lint` CLI.
//!
//! [`path`]: Diagnostic::path

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod graph;
pub mod lints;
pub mod oracle;

pub use diag::{
    escape_json, AnalysisReport, CostCertificate, Diagnostic, LintCode, Severity, Site,
};
pub use graph::CombinedOrder;
pub use oracle::{HbOracle, OracleStats};

use rescc_alloc::TbAllocation;
use rescc_ir::DepDag;
use rescc_kernel::KernelProgram;
use rescc_lang::AlgoSpec;
use rescc_sched::Schedule;
use rescc_topology::Topology;

/// Tunables for the analysis pass.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Per-rank thread-block budget (Eq. 7 resource frame). Allocations
    /// above it get an RA003 warning. NCCL's default channel budget on
    /// A100-class parts works out to 64 TBs.
    pub tb_budget_per_rank: u32,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            tb_budget_per_rank: 64,
        }
    }
}

/// The full artifact stack one analysis run inspects. All borrows — the
/// pass never mutates a plan.
pub struct AnalysisInput<'a> {
    /// The verified algorithm spec (postconditions for RA004).
    pub spec: &'a AlgoSpec,
    /// The dependency DAG (tasks, edges, conflict limits).
    pub dag: &'a DepDag,
    /// The sub-pipeline schedule.
    pub schedule: &'a Schedule,
    /// The TB allocation.
    pub alloc: &'a TbAllocation,
    /// The lowered kernel program (slot order, fusion).
    pub program: &'a KernelProgram,
    /// The topology the plan targets, including its health overlay.
    pub topo: &'a Topology,
}

/// Run the lints over one compiled plan and collect the diagnostics.
///
/// Every lint runs (RA001–RA007); the order-sensitive ones share one
/// [`HbOracle`]. The report is
/// deterministic: diagnostics are sorted by `(code, site, message)`
/// regardless of discovery order, and it carries the RA007 makespan
/// certificate.
pub fn analyze(input: &AnalysisInput, config: &AnalysisConfig) -> AnalysisReport {
    let mut out = Vec::new();
    let order = CombinedOrder::build(input.dag, input.program);
    // The oracle keeps its own copy of the chunks until a query needs
    // them, so this one goes before the lints run.
    let oracle = {
        let chunk_of: Vec<u32> = input.dag.tasks().iter().map(|t| t.chunk.0).collect();
        HbOracle::build(&order, &chunk_of)
    };
    match oracle {
        // A cycle poisons reachability queries; report only the
        // deadlock and let the user re-run once it is fixed.
        Err(stuck) => lints::ra001_deadlock(input, &order, &stuck, &mut out),
        Ok(mut oracle) => {
            lints::ra002_buffer_race(input, &order, &mut oracle, &mut out);
            lints::ra006_lifetime_overlap(input, &order, &mut oracle, &mut out);
        }
    }
    lints::ra003_oversubscription(input, config, &mut out);
    lints::ra004_dead_transfer(input, &mut out);
    lints::ra005_degraded_soundness(input, &mut out);
    let certificate = lints::ra007_cost_feasibility(input, &mut out);
    AnalysisReport::new(out).with_certificate(certificate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_kernel::{ExecMode, LoopOrder};
    use rescc_topology::Topology;

    fn full_stack(
        spec: &AlgoSpec,
        topo: &Topology,
    ) -> (DepDag, Schedule, TbAllocation, KernelProgram) {
        let dag = DepDag::build(spec, topo).expect("dag");
        let sched = rescc_sched::hpds(&dag);
        let alloc = TbAllocation::connection_based(&dag, &sched, 1);
        let program = KernelProgram::generate(
            spec.name(),
            &dag,
            &alloc,
            LoopOrder::SlotMajor,
            ExecMode::DirectKernel,
        );
        (dag, sched, alloc, program)
    }

    #[test]
    fn ring_allgather_is_clean() {
        let topo = Topology::a100(1, 4);
        let spec = rescc_algos::ring_allgather(4);
        let (dag, schedule, alloc, program) = full_stack(&spec, &topo);
        let report = analyze(
            &AnalysisInput {
                spec: &spec,
                dag: &dag,
                schedule: &schedule,
                alloc: &alloc,
                program: &program,
                topo: &topo,
            },
            &AnalysisConfig::default(),
        );
        assert!(report.is_clean(), "unexpected: {}", report.render_human());
        let cert = report.certificate().expect("certificate attached");
        assert!(cert.alpha_chain_ns > 0.0, "ring has a nonempty alpha chain");
        assert!(cert.bottleneck_tasks > 0);
        assert!(cert.lower_bound_ns(1 << 20) > 0.0);
    }

    #[test]
    fn hm_allreduce_is_clean() {
        let topo = Topology::a100(2, 4);
        let spec = rescc_algos::hm_allreduce(2, 4);
        let (dag, schedule, alloc, program) = full_stack(&spec, &topo);
        let report = analyze(
            &AnalysisInput {
                spec: &spec,
                dag: &dag,
                schedule: &schedule,
                alloc: &alloc,
                program: &program,
                topo: &topo,
            },
            &AnalysisConfig::default(),
        );
        assert!(report.is_clean(), "unexpected: {}", report.render_human());
        assert!(report.certificate().is_some());
    }
}
