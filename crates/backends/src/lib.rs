//! # rescc-backends
//!
//! The three collective-communication backends the paper compares. They
//! run the same algorithm on the same simulated cluster and differ only in
//! how [`Compiler`] schedules and lowers it, so differences come purely
//! from backend design. [`Backend`] is one enum whose variants carry the
//! parameters of their lowering:
//!
//! | backend | scheduler | [`Lowering`] | execution granularity | TB allocation | runtime | release (follows the lowering) |
//! |---|---|---|---|---|---|---|
//! | [`Backend::Nccl`] | by-step | `Rigid`, 1 stage | algorithm-level (lazy, barrier per micro-batch) | connection-based × channels | direct kernel | rigid: barrier groups hold every TB to the end |
//! | [`Backend::Msccl`] | by-step | `Rigid`, 2 stages | stage-level (barrier per stage per micro-batch) | connection-based × channels | **interpreter** | rigid: barrier groups hold every TB to the end |
//! | [`Backend::Resccl`] | HPDS | `StateBased` | task-level (HPDS sub-pipelines, no barrier) | state-based (merged) | generated lightweight kernel | early: a TB frees its SM after its last invocation |
//!
//! A backend builds no plan itself: it names its [`Compiler`]
//! ([`Backend::compiler`]), and the [`Communicator`] is the one path that
//! runs it. `Communicator::new(topo).with_backend(backend)` compiles
//! through that compiler, caches the plan, runs it under the watchdog and
//! produces a [`RunReport`] with identical metrics for every backend,
//! which the benchmark harness turns into the paper's tables and figures.
//! Every plan is verified and passes the deny gate before it runs; a
//! by-step baseline's over-subscription is an RA003 warning, not a
//! refusal, since the simulator prices it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod communicator;

pub use communicator::Communicator;
pub use rescc_obs::{RecoveryAction, RecoveryEvent};

use rescc_core::{Compiler, Lowering, SchedulerChoice};
use rescc_kernel::ExecMode;
use rescc_obs::DispatchEvent;
use rescc_sim::SimReport;

/// The paper's default chunk (primitive transfer unit) size: 1 MB.
pub const DEFAULT_CHUNK_BYTES: u64 = 1 << 20;

/// Stages the MSCCL model manually divides every algorithm into.
const MSCCL_STAGES: u32 = 2;

/// Channels per connection of the NCCL and MSCCL models by default.
const DEFAULT_CHANNELS: u32 = 4;

/// What the [`Communicator`]'s watchdog/recovery layer did to complete a
/// collective on a faulty fabric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Attempts replayed after transient faults (backoff in sim time).
    pub retries: u32,
    /// Permanent faults masked, each followed by a dispatch against the
    /// degraded topology, served from the plan cache or compiled.
    pub recompiles: u32,
    /// Attempts that resumed the cached plan from an accumulated fault
    /// frontier instead of restarting from scratch.
    pub resumes: u32,
    /// Masked resources un-masked because their fault schedule no longer
    /// declares them permanently dead (fail-back to the healthier plan).
    pub heals: u32,
    /// Sim time burned by failed attempts and backoff before the
    /// successful attempt started, ns.
    pub recovery_ns: f64,
    /// The final health mask: raw resource indices masked as dead.
    pub dead_resources: Vec<u32>,
    /// Fingerprint of the plan that completed (distinct from the healthy
    /// plan's whenever the mask is non-empty).
    pub plan_fingerprint: u64,
    /// Sanitize-phase findings on the plan that completed. Every plan
    /// passed the deny gate, so these are warnings; a post-fault recompile
    /// the gate denies fails the call with its lint refusal.
    pub lint_diagnostics: u32,
    /// Per-trigger journal of what the watchdog saw and did, in order.
    pub journal: Vec<RecoveryEvent>,
}

impl RecoveryStats {
    /// Fold a dispatch record into the counters, the journal and
    /// `recovery_ns`; the fields describing the completed plan stay at
    /// their defaults. A trigger journals as number `retries + recompiles`
    /// so far, so heals, which precede every attempt, journal as 0.
    fn from_events(events: &[DispatchEvent]) -> Self {
        let mut stats = Self::default();
        for event in events {
            let DispatchEvent::Trigger(t) = event else {
                stats.resumes += u32::from(matches!(event, DispatchEvent::Resume));
                continue;
            };
            match t.action {
                RecoveryAction::Retry | RecoveryAction::Resume => stats.retries += 1,
                RecoveryAction::Heal => stats.heals += 1,
                _ => stats.recompiles += 1,
            }
            stats.journal.push(RecoveryEvent {
                attempt: stats.retries + stats.recompiles,
                cause: t.cause.clone(),
                at_ns: stats.recovery_ns + t.failed_ns,
                action: t.action,
            });
            stats.recovery_ns += t.failed_ns + t.wait_ns;
        }
        stats
    }
}

/// Result of running one collective call through a backend.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Backend name.
    pub backend: String,
    /// Algorithm name.
    pub algo: String,
    /// Per-rank buffer size synchronized.
    pub buffer_bytes: u64,
    /// Total TBs launched across the cluster by the kernel that ran: the
    /// dispatched plan's, resumed or not.
    pub total_tbs: usize,
    /// TBs on the busiest rank of the kernel that ran (the `#TB` metric of
    /// Table 3).
    pub max_rank_tbs: usize,
    /// The underlying simulation report.
    pub sim: SimReport,
    /// Watchdog/recovery accounting when the [`Communicator`] had faults
    /// injected or a resource masked dead; `None` for plain healthy-fabric
    /// runs.
    pub recovery: Option<RecoveryStats>,
    /// Whether the simulated completion undercut the plan's certified
    /// α–β–γ makespan lower bound — `Some(true)` flags a cost-model/engine
    /// disagreement that the bench harness escalates to a warning.
    /// `Some(_)` for fresh, fault-free, non-resumed dispatches (the
    /// certificate is computed against the healthy plan's routes and full
    /// task set); `None` for degraded, faulted or resumed ones.
    pub certificate_undercut: Option<bool>,
    /// Cross-layer spans and counters (compiler phases, cache traffic,
    /// watchdog activity) when the [`Communicator`] was built
    /// [`with_observability`](Communicator::with_observability); `None`
    /// otherwise. Wall-time spans make this field nondeterministic, so
    /// replay-stable consumers must leave observability off.
    pub obs: Option<rescc_obs::ObsStats>,
}

impl RunReport {
    /// Algorithm bandwidth in GB/s (buffer size / completion time).
    pub fn algbw_gbps(&self) -> f64 {
        self.sim.algo_bandwidth_gbps(self.buffer_bytes)
    }

    /// End-to-end completion including sim time burned on failed attempts
    /// and backoff (equals `sim.completion_ns` on a clean run).
    pub fn total_completion_ns(&self) -> f64 {
        self.sim.completion_ns + self.recovery.as_ref().map_or(0.0, |r| r.recovery_ns)
    }
}

/// A collective communication backend: a [`Compiler`] configuration whose
/// plans run on the simulated cluster through a [`Communicator`]
/// ([`Communicator::with_backend`]). The three backends differ only in
/// how a plan is scheduled, lowered and released (§2.1), so each variant
/// is the parameters of its lowering.
#[derive(Clone, Debug)]
pub enum Backend {
    /// The NCCL model: lazy algorithm-level execution with
    /// connection-based TB allocation and rigid release.
    Nccl {
        /// Parallel channels per connection (NCCL's nChannels).
        n_channels: u32,
    },
    /// The MSCCL model: stage-level execution (the algorithm manually
    /// divided into two stages), per-stage channels, runtime interpreter,
    /// rigid release.
    Msccl {
        /// Channels per connection.
        n_channels: u32,
        /// Interpreter overhead per primitive invocation (ns).
        interpreter_overhead_ns: f64,
    },
    /// ResCCL: the given compiler, HPDS and state-based TB allocation by
    /// default ([`Compiler::with_round_robin`] and
    /// [`Compiler::with_fusion`] give the ablation variants), generated
    /// lightweight kernels, early release.
    Resccl(Compiler),
}

impl Backend {
    /// NCCL with its default four channels.
    pub fn nccl() -> Self {
        Backend::Nccl {
            n_channels: DEFAULT_CHANNELS,
        }
    }

    /// MSCCL with four channels and the calibrated interpreter overhead
    /// ([`ExecMode::default_interpreter`]).
    pub fn msccl() -> Self {
        Backend::Msccl {
            n_channels: DEFAULT_CHANNELS,
            interpreter_overhead_ns: ExecMode::default_interpreter().overhead_ns(),
        }
    }

    /// ResCCL with the default (HPDS, state-based) compiler.
    pub fn resccl() -> Self {
        Backend::Resccl(Compiler::new())
    }

    /// Backend name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Nccl { .. } => "nccl",
            Backend::Msccl { .. } => "msccl",
            Backend::Resccl(compiler) => match compiler.scheduler {
                SchedulerChoice::Hpds => "resccl",
                SchedulerChoice::RoundRobin => "resccl-rr",
                SchedulerChoice::ByStep => "resccl-by-step",
            },
        }
    }

    /// The compiler this backend lowers every plan through: its scheduler
    /// and [`Lowering`].
    pub fn compiler(&self) -> Compiler {
        let (n_channels, n_stages, exec) = match *self {
            // One stage, so one global barrier: algorithm-level execution.
            Backend::Nccl { n_channels } => (n_channels, 1, ExecMode::DirectKernel),
            Backend::Msccl {
                n_channels,
                interpreter_overhead_ns,
            } => (
                n_channels,
                MSCCL_STAGES,
                ExecMode::Interpreter {
                    per_invocation_overhead_ns: interpreter_overhead_ns,
                },
            ),
            Backend::Resccl(ref compiler) => return compiler.clone(),
        };
        // The baselines: a by-step schedule and the rigid lowering.
        Compiler {
            scheduler: SchedulerChoice::ByStep,
            lowering: Lowering::Rigid {
                n_channels,
                n_stages,
                exec,
            },
            ..Compiler::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_algos::{hm_allgather, hm_allreduce, taccl_like_allgather};
    use rescc_sim::SimError;
    use rescc_topology::Topology;

    const MB: u64 = 1 << 20;

    /// A communicator over `topo` dispatching through `backend`.
    fn comm(backend: &Backend, topo: &Topology) -> Communicator {
        Communicator::new(topo.clone()).with_backend(backend.clone())
    }

    #[test]
    fn all_backends_run_correct_collectives() {
        let topo = Topology::a100(2, 4);
        let spec = hm_allgather(2, 4);
        for backend in [Backend::nccl(), Backend::msccl(), Backend::resccl()] {
            let rep = comm(&backend, &topo)
                .with_validation()
                .run_spec(&spec, 64 * MB, MB)
                .unwrap_or_else(|e| panic!("{} failed: {e}", backend.name()));
            assert_eq!(rep.sim.data_valid, Some(true), "{}", backend.name());
            assert!(rep.algbw_gbps() > 0.0);
        }
    }

    #[test]
    fn resccl_beats_baselines_on_hm_allreduce() {
        // The headline claim (Fig. 6): same algorithm, large buffer —
        // ResCCL's backend delivers strictly more bandwidth than both
        // NCCL-style and MSCCL-style execution.
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let buffer = 512 * MB;
        let r = comm(&Backend::resccl(), &topo)
            .run_spec(&spec, buffer, MB)
            .unwrap();
        let m = comm(&Backend::msccl(), &topo)
            .run_spec(&spec, buffer, MB)
            .unwrap();
        let n = comm(&Backend::nccl(), &topo)
            .run_spec(&spec, buffer, MB)
            .unwrap();
        assert!(
            r.algbw_gbps() > m.algbw_gbps(),
            "resccl {} <= msccl {}",
            r.algbw_gbps(),
            m.algbw_gbps()
        );
        assert!(
            r.algbw_gbps() > n.algbw_gbps(),
            "resccl {} <= nccl {}",
            r.algbw_gbps(),
            n.algbw_gbps()
        );
    }

    #[test]
    fn resccl_uses_fewer_tbs() {
        let topo = Topology::a100(2, 8);
        let spec = hm_allreduce(2, 8);
        let r = comm(&Backend::resccl(), &topo)
            .run_spec(&spec, 32 * MB, MB)
            .unwrap();
        let m = comm(&Backend::msccl(), &topo)
            .run_spec(&spec, 32 * MB, MB)
            .unwrap();
        assert!(
            r.total_tbs * 2 <= m.total_tbs,
            "resccl {} vs msccl {}",
            r.total_tbs,
            m.total_tbs
        );
    }

    #[test]
    fn resccl_has_higher_tb_utilization() {
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let r = comm(&Backend::resccl(), &topo)
            .run_spec(&spec, 256 * MB, MB)
            .unwrap();
        let m = comm(&Backend::msccl(), &topo)
            .run_spec(&spec, 256 * MB, MB)
            .unwrap();
        assert!(
            r.sim.avg_idle_ratio() < m.sim.avg_idle_ratio(),
            "resccl idle {} >= msccl idle {}",
            r.sim.avg_idle_ratio(),
            m.sim.avg_idle_ratio()
        );
    }

    #[test]
    fn hpds_not_worse_than_round_robin() {
        let topo = Topology::a100(2, 4);
        let spec = taccl_like_allgather(2, 4);
        let h = comm(&Backend::resccl(), &topo)
            .run_spec(&spec, 256 * MB, MB)
            .unwrap();
        let rr = comm(&Backend::Resccl(Compiler::new().with_round_robin()), &topo)
            .run_spec(&spec, 256 * MB, MB)
            .unwrap();
        assert!(h.sim.completion_ns <= rr.sim.completion_ns * 1.001);
    }

    /// The `a100` shapes on which round-robin finishes HM-AllReduce at
    /// 256 MB before HPDS does. The cause is not known yet: RR adds only
    /// communication-compatible tasks, so it meets Eq. 1 as HPDS does.
    const KNOWN_INVERSIONS: &[(u32, u32)] = &[(4, 4), (4, 8)];

    #[test]
    fn round_robin_beats_hpds_only_on_known_inversions() {
        for (nodes, g) in [(2, 8), (4, 4), (4, 8)] {
            let topo = Topology::a100(nodes, g);
            let spec = hm_allreduce(nodes, g);
            let h = comm(&Backend::resccl(), &topo)
                .run_spec(&spec, 256 * MB, MB)
                .unwrap();
            let rr = comm(&Backend::Resccl(Compiler::new().with_round_robin()), &topo)
                .run_spec(&spec, 256 * MB, MB)
                .unwrap();
            let (h, rr) = (h.sim.completion_ns, rr.sim.completion_ns);
            assert_eq!(
                rr < h,
                KNOWN_INVERSIONS.contains(&(nodes, g)),
                "{nodes}x{g}: HPDS {h} ns, RR {rr} ns"
            );
        }
    }

    #[test]
    fn fusion_trades_tbs_for_bounded_slack() {
        // Chain-merged fused kernels halve the TB budget of ring transits.
        // Fused forwards issue asynchronously (they never gate their TB's
        // issue groups), so the recv→send pair pipelines across
        // micro-batches like its unfused counterpart; the residual slack
        // from sharing one TB must stay within 20% of the plain run.
        let topo = Topology::a100(2, 8);
        let spec = rescc_algos::nccl_rings_allgather(2, 8, 4);
        let plain = comm(&Backend::resccl(), &topo)
            .run_spec(&spec, 256 * MB, MB)
            .unwrap();
        let fused = comm(&Backend::Resccl(Compiler::new().with_fusion()), &topo)
            .run_spec(&spec, 256 * MB, MB)
            .unwrap();
        assert!(
            fused.total_tbs < plain.total_tbs,
            "fusion must reduce TBs: {} !< {}",
            fused.total_tbs,
            plain.total_tbs
        );
        assert!(
            fused.sim.completion_ns <= plain.sim.completion_ns * 1.2,
            "fused {} more than 20% beyond plain {}",
            fused.sim.completion_ns,
            plain.sim.completion_ns
        );
    }

    #[test]
    fn fusion_preserves_correctness() {
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let rep = comm(&Backend::Resccl(Compiler::new().with_fusion()), &topo)
            .with_validation()
            .run_spec(&spec, 32 * MB, MB)
            .unwrap();
        assert_eq!(rep.sim.data_valid, Some(true));
    }

    #[test]
    fn nccl_with_no_channel_is_an_invalid_config() {
        let topo = Topology::a100(1, 4);
        let nccl = Backend::Nccl { n_channels: 0 };
        match comm(&nccl, &topo).run_spec(&hm_allgather(1, 4), 16 * MB, MB) {
            Err(SimError::InvalidConfig(e)) => assert!(e.contains("one channel"), "{e}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn msccl_with_a_negative_or_non_finite_overhead_is_an_invalid_config() {
        let topo = Topology::a100(1, 4);
        for interpreter_overhead_ns in [-1e6, f64::NAN, f64::INFINITY] {
            let msccl = Backend::Msccl {
                n_channels: 4,
                interpreter_overhead_ns,
            };
            match comm(&msccl, &topo).run_spec(&hm_allgather(1, 4), 16 * MB, MB) {
                Err(SimError::InvalidConfig(e)) => assert!(e.contains("overhead"), "{e}"),
                other => {
                    panic!("{interpreter_overhead_ns} ns: expected InvalidConfig, got {other:?}")
                }
            }
        }
    }

    #[test]
    fn msccl_with_no_stage_is_an_invalid_config() {
        let topo = Topology::a100(1, 4);
        let no_stage = Compiler {
            lowering: Lowering::Rigid {
                n_channels: 4,
                n_stages: 0,
                exec: ExecMode::DirectKernel,
            },
            ..Compiler::new()
        };
        match no_stage.compile_spec(&hm_allgather(1, 4), &topo) {
            Err(SimError::InvalidConfig(e)) => assert!(e.contains("one stage"), "{e}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn rank_mismatch_is_a_typed_dag_error() {
        // An 8-rank algorithm on a 4-rank cluster cannot form a DAG, on
        // every backend.
        let topo = Topology::a100(1, 4);
        let spec = hm_allgather(2, 4);
        for backend in [Backend::nccl(), Backend::msccl(), Backend::resccl()] {
            match comm(&backend, &topo)
                .with_validation()
                .run_spec(&spec, 16 * MB, MB)
            {
                Err(SimError::InvalidDag(e)) => {
                    assert!(e.to_string().contains("8 ranks"), "{e}")
                }
                other => panic!("{}: expected InvalidDag, got {other:?}", backend.name()),
            }
        }
    }
}
