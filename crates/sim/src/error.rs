//! Simulator error type.
//!
//! [`SimError`] is an enum so callers (notably the Communicator's
//! watchdog/retry layer) can branch on *kind* — a transient fault is worth
//! retrying, a permanent one needs a recompile against a masked topology,
//! and an invalid program or config is fatal no matter how often it is
//! retried. The `Display` prefix (`"simulation error: "`) is stable across
//! every variant.

use crate::frontier::FaultFrontier;
use rescc_ir::{IrError, TaskId};
use rescc_lang::LangError;
use rescc_topology::{ResourceId, TopologyError};
use std::fmt;

/// Error produced during simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The plan or its inputs are malformed in a way no other variant
    /// names (also wraps compile-pipeline failures surfaced through the sim
    /// result).
    InvalidProgram(String),
    /// The algorithm source failed to lex, parse or evaluate, or the
    /// algorithm does not implement its declared collective — an input
    /// error. Carries the language layer's finding.
    InvalidAlgorithm(LangError),
    /// The algorithm does not form a valid dependency DAG on the given
    /// topology (a rank count the topology does not match, a dependency
    /// cycle, a stage partition with a backward dependency, …) — an input
    /// error, not a compiler bug. Carries the IR's finding.
    InvalidDag(IrError),
    /// The scheduler emitted a pipeline that failed validation — a compiler
    /// bug, never an input error. Carries the validator's finding.
    SchedulerBug(IrError),
    /// The TB allocator emitted an allocation that failed validation — a
    /// compiler bug. Carries the validator's finding.
    AllocationBug(IrError),
    /// Kernel generation emitted a program inconsistent with its DAG — a
    /// compiler bug, whether the compiler or the simulator catches it.
    /// Carries the validator's finding.
    LoweringBug(IrError),
    /// The topology could not describe a resource the run needs (its
    /// α–β–γ parameters). Carries the topology's finding.
    Topology(TopologyError),
    /// The engine's own bookkeeping is inconsistent: a finished transfer
    /// was not on the drain list of a resource on its path. A simulator
    /// bug, never an input error.
    EngineBug {
        /// The task whose transfer finished.
        task: TaskId,
        /// The transfer's micro-batch.
        mb: u32,
        /// The resource whose drain list missed it.
        resource: ResourceId,
    },
    /// A plan cache's in-flight compile panicked; the callers waiting on
    /// it get this error and the next dispatch compiles afresh.
    CompilePanicked,
    /// Execution wedged: the event heap drained with invocations pending.
    Deadlock(String),
    /// The collective finished but produced wrong data.
    Validation(String),
    /// A transfer needed a resource a fault had taken down.
    ResourceDown {
        /// The dead resource's index.
        resource: u32,
        /// The task whose transfer hit the dead resource.
        task: u32,
        /// Sim time of the failure, ns (rounded to the nanosecond).
        at_ns: u64,
        /// `true` when the timeline never brings the resource back: the
        /// caller must mask it and recompile rather than retry.
        permanent: bool,
        /// The set of invocations that had completed when the run aborted
        /// — the partial progress a recovery layer can resume from instead
        /// of restarting. Boxed to keep the error small on the happy path.
        frontier: Option<Box<FaultFrontier>>,
    },
    /// The [`SimConfig`](crate::SimConfig) itself is invalid (jitter
    /// fraction outside `[0, 1]`, brownout factor outside `(0, 1]`,
    /// fault event out of range, …).
    InvalidConfig(String),
    /// Static analysis found `Error`-severity diagnostics in a compiled or
    /// recompiled plan and the compiler's sanitize gate refused it.
    LintRejected {
        /// The analysis report, rendered human-readable: one line per
        /// diagnostic, each naming its lint code (e.g. `RA005`).
        report: String,
    },
}

impl SimError {
    /// Create an [`SimError::InvalidProgram`] error with a message (the
    /// historical constructor; pipeline wrappers funnel through it).
    pub fn new(msg: impl Into<String>) -> Self {
        Self::InvalidProgram(msg.into())
    }

    /// Is this failure worth retrying as-is (exponential backoff), rather
    /// than recompiling or giving up? A transient fault is a resource that
    /// is down now but scheduled to come back.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Self::ResourceDown {
                permanent: false,
                ..
            }
        )
    }

    /// The sim time (ns) at which the failure occurred: the fault instant
    /// for [`SimError::ResourceDown`], the one variant that carries one.
    /// The watchdog charges this — not zero — to its elapsed-time
    /// accounting, so backoff and `recovery_ns` stay accurate for every
    /// retried error.
    pub fn at_ns(&self) -> Option<u64> {
        match self {
            Self::ResourceDown { at_ns, .. } => Some(*at_ns),
            _ => None,
        }
    }

    /// The fault frontier captured at abort, when the variant carries one.
    pub fn frontier(&self) -> Option<&FaultFrontier> {
        match self {
            Self::ResourceDown {
                frontier: Some(f), ..
            } => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: ")?;
        match self {
            Self::InvalidProgram(msg) | Self::Deadlock(msg) | Self::Validation(msg) => {
                write!(f, "{msg}")
            }
            Self::InvalidAlgorithm(e) => write!(f, "{e}"),
            Self::InvalidDag(e) => write!(f, "{e}"),
            Self::Topology(e) => write!(f, "{e}"),
            Self::EngineBug { task, mb, resource } => write!(
                f,
                "engine bug: transfer of task {task} (mb {mb}) not \
                 registered on resource {resource} it drains"
            ),
            Self::CompilePanicked => write!(f, "plan cache: in-flight compile panicked"),
            Self::SchedulerBug(e) => write!(f, "scheduler bug: {e}"),
            Self::AllocationBug(e) => write!(f, "allocation bug: {e}"),
            Self::LoweringBug(e) => write!(f, "lowering bug: {e}"),
            Self::ResourceDown {
                resource,
                task,
                at_ns,
                permanent,
                frontier,
            } => {
                write!(
                    f,
                    "resource {resource} went down at {at_ns}ns under task {task} ({})",
                    if *permanent { "permanent" } else { "transient" }
                )?;
                if let Some(fr) = frontier {
                    write!(
                        f,
                        "; {}/{} invocations complete",
                        fr.completed(),
                        fr.n_tasks as u64 * fr.n_mb as u64
                    )?;
                }
                Ok(())
            }
            Self::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            Self::LintRejected { report } => {
                write!(f, "sanitize: plan rejected by lint gate\n{report}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidDag(e)
            | Self::SchedulerBug(e)
            | Self::AllocationBug(e)
            | Self::LoweringBug(e) => Some(e),
            Self::InvalidAlgorithm(e) => Some(e),
            Self::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for SimError {
    fn from(e: IrError) -> Self {
        Self::InvalidDag(e)
    }
}

impl From<LangError> for SimError {
    fn from(e: LangError) -> Self {
        Self::InvalidAlgorithm(e)
    }
}

/// Convenience alias.
pub type SimResult<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefix_is_stable_across_variants() {
        let errors = [
            SimError::new("bad program"),
            SimError::Deadlock("deadlock: 0/4".into()),
            SimError::Validation("collective produced wrong data".into()),
            SimError::ResourceDown {
                resource: 3,
                task: 7,
                at_ns: 1000,
                permanent: true,
                frontier: Some(Box::new(FaultFrontier::new(4, 2, 1000))),
            },
            SimError::InvalidConfig("jitter 2".into()),
            SimError::InvalidAlgorithm(LangError::Eval {
                msg: "does not implement AllGather".into(),
            }),
            SimError::InvalidDag(IrError::new("algorithm is for 8 ranks")),
            SimError::SchedulerBug(IrError::new("task 3 scheduled twice")),
            SimError::AllocationBug(IrError::new("slot missing")),
            SimError::LoweringBug(IrError::new("bad rendezvous")),
            SimError::LintRejected {
                report: "error[RA005] at t0: routed over a masked resource".into(),
            },
            SimError::Topology(TopologyError::ResourceOutOfRange {
                resource: 99,
                n_resources: 8,
                topology: "a100-1x4".into(),
            }),
            SimError::EngineBug {
                task: TaskId::new(3),
                mb: 1,
                resource: ResourceId::new(5),
            },
            SimError::CompilePanicked,
        ];
        for e in &errors {
            assert!(e.to_string().starts_with("simulation error: "), "{e}");
        }
    }

    #[test]
    fn compiler_bug_variants_carry_their_source() {
        use std::error::Error;
        let inner = IrError::new("task 3 scheduled twice");
        let e = SimError::SchedulerBug(inner.clone());
        assert!(e.to_string().contains("scheduler bug:"), "{e}");
        assert_eq!(
            e.source().expect("has source").to_string(),
            inner.to_string()
        );
        assert!(!e.is_transient());
        assert!(!SimError::AllocationBug(inner.clone()).is_transient());
        assert!(!SimError::LoweringBug(inner).is_transient());
    }

    #[test]
    fn transient_classification() {
        assert!(SimError::ResourceDown {
            resource: 0,
            task: 0,
            at_ns: 0,
            permanent: false,
            frontier: None
        }
        .is_transient());
        assert!(!SimError::ResourceDown {
            resource: 0,
            task: 0,
            at_ns: 0,
            permanent: true,
            frontier: None
        }
        .is_transient());
        assert!(!SimError::new("nope").is_transient());
        assert!(!SimError::InvalidConfig("nope".into()).is_transient());
        assert!(!SimError::CompilePanicked.is_transient());
    }

    #[test]
    fn typed_variants_keep_their_messages() {
        let bug = SimError::EngineBug {
            task: TaskId::new(3),
            mb: 1,
            resource: ResourceId::new(5),
        };
        assert_eq!(
            bug.to_string(),
            format!(
                "simulation error: engine bug: transfer of task {} (mb 1) not \
                 registered on resource {} it drains",
                TaskId::new(3),
                ResourceId::new(5)
            )
        );
        assert_eq!(
            SimError::CompilePanicked.to_string(),
            "simulation error: plan cache: in-flight compile panicked"
        );
        let topo = TopologyError::ResourceOutOfRange {
            resource: 99,
            n_resources: 8,
            topology: "a100-1x4".into(),
        };
        assert_eq!(
            SimError::Topology(topo.clone()).to_string(),
            format!("simulation error: {topo}")
        );
    }

    #[test]
    fn at_ns_and_frontier_accessors() {
        let mut f = FaultFrontier::new(2, 1, 77);
        f.mark(0, 0);
        let down = SimError::ResourceDown {
            resource: 1,
            task: 0,
            at_ns: 77,
            permanent: false,
            frontier: Some(Box::new(f.clone())),
        };
        assert_eq!(down.at_ns(), Some(77));
        assert_eq!(down.frontier(), Some(&f));
        assert_eq!(SimError::new("x").at_ns(), None);
        assert_eq!(SimError::new("x").frontier(), None);
    }
}
