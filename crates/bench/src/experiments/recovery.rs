//! **Recovery** — degraded-topology recovery under injected faults.
//!
//! Not a paper figure: this experiment exercises the robustness layer
//! added on top of the reproduction. A 1 GB AllReduce on the 2×4 A100
//! cluster is run three times:
//!
//! * healthy baseline (no faults);
//! * one NVLink pair channel killed permanently mid-run — the
//!   [`rescc_backends::Communicator`] watchdog masks the channel,
//!   recompiles against the degraded topology (relay routing through a
//!   healthy peer), and resumes;
//! * one NIC TX direction killed mid-run — traffic fails over to a
//!   healthy sibling NIC on the same node.
//!
//! Each degraded run must still validate (`data_valid == Some(true)`),
//! recompile at least once against a topology whose plan fingerprint
//! differs from the healthy plan's, resume from the fault frontier
//! instead of restarting (strictly cheaper than the restart-from-zero
//! counterfactual on the same degraded plan), and finish in under 3x the
//! healthy completion time. A final heal phase restores the killed
//! channel and checks the communicator fails back to the healthy plan at
//! the next collective boundary. Machine-readable results go to
//! `BENCH_recovery.json`. [`smoke`] runs the same drill on a 256 MB
//! AllReduce with a late kill, where resuming must cost under half of a
//! restart.

use crate::{print_table, write_bench_json, Gate, GB, MB};
use rescc_backends::{Communicator, RecoveryAction, RecoveryStats};
use rescc_core::Compiler;
use rescc_sim::{FaultTimeline, SimConfig};
use rescc_topology::{Rank, Topology};

/// Resume-over-restart budget of a late (60%) kill in the smoke gate.
const LATE_RESUME_BUDGET: f64 = 0.5;
/// Recovered-over-healthy completion budget of every drill.
const SLOWDOWN_BUDGET: f64 = 3.0;

/// The fault-free run every drill compares against.
struct Healthy {
    ns: f64,
    fingerprint: u64,
    data_valid: Option<bool>,
}

impl Healthy {
    fn measure(topo: &Topology, buffer: u64) -> Self {
        let report = Communicator::new(topo.clone())
            .with_validation()
            .all_reduce(buffer)
            .expect("healthy baseline");
        // The healthy plan's fingerprint, for comparison with the degraded
        // recompiles (obtained via an explicitly engaged but fault-free
        // watchdog run).
        let fingerprint = Communicator::new(topo.clone())
            .with_faults(FaultTimeline::new().straggler(0, 0.0, 1.0, 1.0))
            .all_reduce(buffer)
            .expect("healthy fingerprint")
            .recovery
            .expect("watchdog engaged")
            .plan_fingerprint;
        Healthy {
            ns: report.sim.completion_ns,
            fingerprint,
            data_valid: report.sim.data_valid,
        }
    }
}

/// One fault scenario: a label plus the timeline to inject.
pub(super) struct Scenario {
    name: &'static str,
    faults: FaultTimeline,
}

/// Permanent kills at `kill_at` ns: an NVLink pair channel (the first
/// scenario, which [`Drill::heal`] restores), then a NIC TX direction.
pub(super) fn scenarios(topo: &Topology, kill_at: f64) -> Vec<Scenario> {
    vec![
        Scenario {
            name: "NVLink chan 0->1 down",
            faults: FaultTimeline::new().kill(topo.pair_chan(Rank::new(0), Rank::new(1)), kill_at),
        },
        Scenario {
            name: "NIC0 tx down",
            faults: FaultTimeline::new().kill(topo.nic_tx(topo.nic_of(Rank::new(0))), kill_at),
        },
    ]
}

/// A scenario's AllReduce through a validating communicator, recovered by
/// the watchdog, with the restart-from-zero counterfactual: the degraded
/// plan the watchdog recompiled to, run in full.
pub(super) struct Drill {
    name: &'static str,
    comm: Communicator,
    pub(super) data_valid: Option<bool>,
    pub(super) rec: RecoveryStats,
    /// The resumed attempt alone.
    pub(super) resume_ns: f64,
    /// Every attempt plus backoff.
    total_ns: f64,
    pub(super) restart_ns: f64,
}

impl Drill {
    pub(super) fn run(topo: &Topology, buffer: u64, sc: Scenario) -> Self {
        let mut comm = Communicator::new(topo.clone())
            .with_validation()
            .with_faults(sc.faults);
        let report = comm
            .all_reduce(buffer)
            .unwrap_or_else(|e| panic!("scenario '{}' failed: {e}", sc.name));
        let degraded = topo.clone().with_health(comm.health().clone());
        let restart_ns = Compiler::new()
            .compile_spec(
                &rescc_algos::hm_allreduce(topo.n_nodes(), topo.gpus_per_node()),
                &degraded,
            )
            .unwrap_or_else(|e| panic!("scenario '{}': degraded compile: {e}", sc.name))
            .run_with(buffer, MB, &SimConfig::default().without_validation())
            .unwrap_or_else(|e| panic!("scenario '{}': restart run: {e}", sc.name))
            .completion_ns;
        Drill {
            name: sc.name,
            comm,
            data_valid: report.sim.data_valid,
            resume_ns: report.sim.completion_ns,
            total_ns: report.total_completion_ns(),
            restart_ns,
            rec: report
                .recovery
                .expect("fault scenarios engage the watchdog"),
        }
    }

    /// The resumed attempt over the restart counterfactual.
    pub(super) fn resume_ratio(&self) -> f64 {
        self.resume_ns / self.restart_ns
    }

    fn slowdown(&self, healthy: &Healthy) -> f64 {
        self.total_ns / healthy.ns
    }

    /// The run validates, recompiles to a distinct plan, resumes from the
    /// fault frontier at under `resume_budget` of the restart cost, stays
    /// within [`SLOWDOWN_BUDGET`], and journals what its counters count.
    fn check(&self, healthy: &Healthy, resume_budget: f64, gate: &mut Gate) {
        let (name, rec) = (self.name, &self.rec);
        gate.check(self.data_valid == Some(true), || {
            format!("'{name}': recovered run did not validate")
        });
        gate.check(rec.recompiles >= 1, || {
            format!("'{name}': no recompile against the masked topology")
        });
        gate.check(rec.resumes >= 1, || {
            format!("'{name}': restarted instead of resuming from the fault frontier")
        });
        gate.check(rec.plan_fingerprint != healthy.fingerprint, || {
            format!("'{name}': degraded plan has the healthy plan's fingerprint")
        });
        let ratio = self.resume_ratio();
        gate.check(ratio < resume_budget, || {
            format!("'{name}': resume/restart ratio {ratio:.3} is not under {resume_budget}")
        });
        let slowdown = self.slowdown(healthy);
        gate.check(slowdown < SLOWDOWN_BUDGET, || {
            format!("'{name}': {slowdown:.2}x exceeds the {SLOWDOWN_BUDGET}x recovery budget")
        });
        let count = |a| rec.journal.iter().filter(|e| e.action == a).count() as u32;
        gate.check(
            rec.journal.len() as u32 == rec.retries + rec.recompiles + rec.heals,
            || format!("'{name}': journal length does not match its counters"),
        );
        gate.check(
            count(RecoveryAction::FullRecompile) == rec.recompiles,
            || format!("'{name}': journal recompile entries do not match the counter"),
        );
        gate.check(
            rec.journal
                .iter()
                .all(|e| e.at_ns >= 0.0 && !e.cause.is_empty()),
            || format!("'{name}': journal entry without a sim instant or a cause"),
        );
    }

    /// Restore the killed resource: the next collective must drop the
    /// mask and fail back to the healthy plan from the cache, with no
    /// retry or recompile. Returns the heals and the sim-time latency the
    /// healed run pays over the healthy one.
    fn heal(mut self, buffer: u64, healthy: &Healthy, gate: &mut Gate) -> (u32, f64) {
        self.comm.set_faults(FaultTimeline::new());
        let healed = self.comm.all_reduce(buffer).expect("healed run");
        let rec = healed.recovery.expect("watchdog stays engaged");
        gate.check(rec.heals == 1, || {
            format!("expected exactly one heal, got {}", rec.heals)
        });
        gate.check(rec.retries == 0 && rec.recompiles == 0, || {
            "healed run retried or recompiled".into()
        });
        gate.check(rec.plan_fingerprint == healthy.fingerprint, || {
            "healed run did not fail back to the healthy plan".into()
        });
        gate.check(healed.sim.data_valid == Some(true), || {
            "healed run did not validate".into()
        });
        gate.check(self.comm.health().is_empty(), || {
            "health mask not empty after healing".into()
        });
        (rec.heals, healed.sim.completion_ns - healthy.ns)
    }
}

/// Run the recovery experiment and write `BENCH_recovery.json`.
pub fn run() {
    let buffer = GB;
    let topo = Topology::a100(2, 4);
    let healthy = Healthy::measure(&topo, buffer);
    let mut gate = Gate::default();

    let mut rows = vec![vec![
        "healthy".to_string(),
        format!("{:.2}ms", healthy.ns / 1e6),
        "-".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        "-".into(),
        "1.00x".into(),
        format!("{:?}", healthy.data_valid),
    ]];
    let mut json_rows = Vec::new();

    // Kill mid-run: late enough that transfers are in flight, early
    // enough that most of the collective still runs degraded.
    let mut drills = Vec::new();
    for sc in scenarios(&topo, 0.35 * healthy.ns) {
        let drill = Drill::run(&topo, buffer, sc);
        // The resumed attempt ran only the invocations its frontier left
        // undone, so it must be strictly cheaper than restarting.
        drill.check(&healthy, 1.0, &mut gate);
        let rec = &drill.rec;
        let (resume_ns, restart_ns, total) = (drill.resume_ns, drill.restart_ns, drill.total_ns);
        let slowdown = drill.slowdown(&healthy);
        rows.push(vec![
            drill.name.to_string(),
            format!("{:.2}ms", total / 1e6),
            format!("{:.2}ms", rec.recovery_ns / 1e6),
            rec.retries.to_string(),
            rec.recompiles.to_string(),
            rec.resumes.to_string(),
            format!("{:.2}x", resume_ns / restart_ns),
            format!("{slowdown:.2}x"),
            format!("{:?}", drill.data_valid),
        ]);
        let journal: Vec<String> = rec
            .journal
            .iter()
            .map(|e| {
                format!(
                    "{{\"attempt\": {}, \"cause\": \"{}\", \"at_ns\": {:.1}, \
                     \"action\": \"{}\"}}",
                    e.attempt,
                    e.cause,
                    e.at_ns,
                    e.action.as_str()
                )
            })
            .collect();
        json_rows.push(format!(
            "    {{\"scenario\": \"{}\", \"total_ns\": {:.1}, \
             \"recovery_ns\": {:.1}, \"retries\": {}, \"recompiles\": {}, \
             \"resumes\": {}, \"resume_ns\": {:.1}, \"restart_ns\": {:.1}, \
             \"resume_vs_restart\": {:.4}, \
             \"slowdown\": {:.4}, \"dead_resources\": {:?}, \
             \"plan_fingerprint\": {}, \"data_valid\": true, \
             \"journal\": [{}]}}",
            drill.name,
            total,
            rec.recovery_ns,
            rec.retries,
            rec.recompiles,
            rec.resumes,
            resume_ns,
            restart_ns,
            resume_ns / restart_ns,
            slowdown,
            rec.dead_resources,
            rec.plan_fingerprint,
            journal.join(", "),
        ));
        drills.push(drill);
    }

    print_table(
        "Recovery: 1GB AllReduce with a resource killed mid-run (2 servers x 4 GPUs)",
        &[
            "scenario",
            "completion",
            "recovery",
            "retries",
            "recompiles",
            "resumes",
            "res/rst",
            "slowdown",
            "data_valid",
        ],
        &rows,
    );
    println!(
        "the watchdog masks the dead resource, recompiles against the degraded \
         topology (distinct plan fingerprint), resumes from the fault frontier \
         (cheaper than restarting), and the collective still validates."
    );

    let nvlink = drills.into_iter().next().expect("NVLink scenario");
    let (heals, latency_ns) = nvlink.heal(buffer, &healthy, &mut gate);
    println!(
        "heal: channel restored -> mask dropped, healthy plan re-dispatched \
         from cache, heal latency {:.3}ms",
        latency_ns / 1e6
    );

    let json = format!(
        "{{\n  \"buffer_bytes\": {buffer},\n  \"topology\": \"a100(2,4)\",\n  \
         \"healthy_ns\": {:.1},\n  \
         \"healthy_fingerprint\": {},\n  \"scenarios\": [\n{}\n  ],\n  \
         \"heal\": {{\"heals\": {heals}, \"heal_latency_ns\": {latency_ns:.1}, \
         \"fingerprint_restored\": true}}\n}}\n",
        healthy.ns,
        healthy.fingerprint,
        json_rows.join(",\n"),
    );
    write_bench_json("BENCH_recovery.json", &json);
    gate.finish("recovery");
}

/// CI smoke gate: [`run`]'s NVLink drill on a 256 MB AllReduce with the
/// kill at 60% of the healthy run, where resuming must cost under
/// `LATE_RESUME_BUDGET` (half) of a restart, then the heal.
pub fn smoke() {
    let (buffer, kill_frac) = (256 * MB, 0.6);
    let topo = Topology::a100(2, 4);
    let healthy = Healthy::measure(&topo, buffer);
    let kill_at = kill_frac * healthy.ns;
    let nvlink = scenarios(&topo, kill_at).swap_remove(0);
    let drill = Drill::run(&topo, buffer, nvlink);
    println!(
        "resume: kill at {:.2}ms ({:.0}% of healthy {:.2}ms), resumed attempt \
         {:.2}ms vs restart {:.2}ms, ratio {:.2}x, resumes {}, recompiles {}, \
         journal entries {}",
        kill_at / 1e6,
        kill_frac * 100.0,
        healthy.ns / 1e6,
        drill.resume_ns / 1e6,
        drill.restart_ns / 1e6,
        drill.resume_ratio(),
        drill.rec.resumes,
        drill.rec.recompiles,
        drill.rec.journal.len(),
    );
    let mut gate = Gate::default();
    drill.check(&healthy, LATE_RESUME_BUDGET, &mut gate);
    let (heals, latency_ns) = drill.heal(buffer, &healthy, &mut gate);
    println!(
        "heal: heals {heals}, heal latency {:.3}ms",
        latency_ns / 1e6
    );
    gate.finish("recovery-smoke");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> Healthy {
        Healthy {
            ns: 10.0,
            fingerprint: 1,
            data_valid: Some(true),
        }
    }

    /// A late kill's drill that passes every check.
    fn drill() -> Drill {
        let rec = RecoveryStats {
            recompiles: 1,
            resumes: 1,
            plan_fingerprint: 2,
            journal: vec![rescc_backends::RecoveryEvent {
                attempt: 1,
                cause: "r24 dead".into(),
                at_ns: 6.0,
                action: RecoveryAction::FullRecompile,
            }],
            ..RecoveryStats::default()
        };
        Drill {
            name: "late kill",
            comm: Communicator::new(Topology::a100(1, 2)),
            data_valid: Some(true),
            rec,
            resume_ns: 4.0,
            total_ns: 11.0,
            restart_ns: 10.0,
        }
    }

    fn failures(drill: &Drill) -> Vec<String> {
        let mut gate = Gate::default();
        drill.check(&healthy(), LATE_RESUME_BUDGET, &mut gate);
        gate.failures
    }

    #[test]
    fn a_passing_drill_passes() {
        assert_eq!(failures(&drill()), Vec::<String>::new());
    }

    #[test]
    fn drill_check_reports_each_failure() {
        let slow = Drill {
            resume_ns: 6.0,
            ..drill()
        };
        assert_eq!(
            failures(&slow),
            ["'late kill': resume/restart ratio 0.600 is not under 0.5"]
        );
        let mut broken = Drill {
            data_valid: None,
            total_ns: 30.0,
            ..drill()
        };
        broken.rec.resumes = 0;
        broken.rec.plan_fingerprint = 1;
        broken.rec.journal.clear();
        let f = failures(&broken);
        assert_eq!(f.len(), 6, "{f:?}");
        for want in [
            "validate",
            "resuming",
            "fingerprint",
            "3x",
            "journal length",
            "recompile entries",
        ] {
            assert!(f.iter().any(|f| f.contains(want)), "{want}: {f:?}");
        }
    }
}
