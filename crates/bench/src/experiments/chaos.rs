//! **Chaos campaign** — randomized multi-fault robustness sweep (not a
//! paper figure).
//!
//! Seeded chaos timelines ([`FaultTimeline::seeded_chaos`]: permanent
//! kills, kill-then-restore outages, flaps, brownouts, stragglers —
//! including faults that land during recovery attempts) are injected into
//! every collective operator on every Table-3 topology. Each run must
//! either deliver machine-validated data within the watchdog's bounded
//! retry/recompile budgets or give up with a typed error, and at least
//! one seed per cell must survive.
//!
//! A second section measures the partial-progress economics the frontier
//! resume exists for: a permanent NVLink kill late in an AllReduce is
//! recovered twice — once resuming from the fault frontier (what the
//! watchdog actually does) and once as the restart-from-zero
//! counterfactual (a full run of the same degraded plan), both by the
//! recovery experiment's drill — and resuming must be cheaper on every
//! topology. Machine-readable results go to
//! `BENCH_chaos.json`.

use super::recovery;
use crate::{print_table, write_bench_json};
use rescc_backends::{Communicator, RunReport};
use rescc_lang::OpType;
use rescc_sim::{FaultTimeline, SimResult};
use rescc_topology::Topology;

const MB: u64 = 1 << 20;
/// Seeds per (topology, operator) cell.
const SEEDS: u64 = 8;

fn issue(comm: &mut Communicator, op: OpType, buffer: u64) -> SimResult<RunReport> {
    match op {
        OpType::AllReduce => comm.all_reduce(buffer),
        OpType::AllGather => comm.all_gather(buffer),
        OpType::ReduceScatter => comm.reduce_scatter(buffer),
    }
}

/// Run the chaos campaign and write `BENCH_chaos.json`.
pub fn run() {
    let buffer = 64 * MB;
    let ops = [OpType::AllReduce, OpType::AllGather, OpType::ReduceScatter];

    let mut rows = Vec::new();
    let mut json_cells = Vec::new();
    for i in 1..=4usize {
        let topo = Topology::table3_topo(i).expect("table-3 topology");
        for op in ops {
            let healthy = issue(&mut Communicator::new(topo.clone()), op, buffer)
                .unwrap_or_else(|e| panic!("chaos healthy {op:?} on {}: {e}", topo.name()));
            let horizon = healthy.sim.completion_ns;
            let (mut survived, mut gave_up) = (0u32, 0u32);
            let (mut retries, mut recompiles, mut resumes, mut heals) = (0u32, 0u32, 0u32, 0u32);
            for seed in 0..SEEDS {
                let tl =
                    FaultTimeline::seeded_chaos(seed, topo.n_resources(), topo.n_ranks(), horizon);
                let mut comm = Communicator::new(topo.clone())
                    .with_validation()
                    .with_faults(tl);
                match issue(&mut comm, op, buffer) {
                    Ok(rep) => {
                        assert_eq!(
                            rep.sim.data_valid,
                            Some(true),
                            "chaos {op:?} on {} seed {seed}: recovered run must validate",
                            topo.name()
                        );
                        let rec = rep.recovery.expect("chaos engages the watchdog");
                        survived += 1;
                        retries += rec.retries;
                        recompiles += rec.recompiles;
                        resumes += rec.resumes;
                        heals += rec.heals;
                    }
                    Err(_) => gave_up += 1,
                }
            }
            assert!(
                survived > 0,
                "chaos {op:?} on {}: every seed gave up",
                topo.name()
            );
            rows.push(vec![
                topo.name().to_string(),
                format!("{op:?}"),
                format!("{survived}/{SEEDS}"),
                retries.to_string(),
                recompiles.to_string(),
                resumes.to_string(),
                heals.to_string(),
            ]);
            json_cells.push(format!(
                "    {{\"topology\": \"{}\", \"op\": \"{op:?}\", \"seeds\": {SEEDS}, \
                 \"survived\": {survived}, \"gave_up\": {gave_up}, \"retries\": {retries}, \
                 \"recompiles\": {recompiles}, \"resumes\": {resumes}, \"heals\": {heals}}}",
                topo.name(),
            ));
        }
    }
    print_table(
        "Chaos campaign: seeded multi-fault timelines, 64 MB collectives",
        &[
            "topology",
            "op",
            "survived",
            "retries",
            "recompiles",
            "resumes",
            "heals",
        ],
        &rows,
    );

    // Resume-vs-restart economics: late permanent kill, frontier resume
    // against the restart-from-zero counterfactual on the same degraded
    // plan.
    let mut econ_rows = Vec::new();
    let mut json_econ = Vec::new();
    for i in 1..=4usize {
        let topo = Topology::table3_topo(i).expect("table-3 topology");
        let healthy = Communicator::new(topo.clone())
            .all_reduce(buffer)
            .unwrap_or_else(|e| panic!("econ healthy on {}: {e}", topo.name()));
        let nvlink = recovery::scenarios(&topo, 0.6 * healthy.sim.completion_ns).swap_remove(0);
        let drill = recovery::Drill::run(&topo, buffer, nvlink);
        assert_eq!(drill.data_valid, Some(true));
        assert!(
            drill.rec.resumes >= 1,
            "{}: late kill must resume from the frontier, not restart",
            topo.name()
        );
        let (resume_ns, restart_ns) = (drill.resume_ns, drill.restart_ns);
        let ratio = drill.resume_ratio();
        assert!(
            ratio < 1.0,
            "{}: resuming ({resume_ns:.0}ns) must beat restarting ({restart_ns:.0}ns)",
            topo.name()
        );
        econ_rows.push(vec![
            topo.name().to_string(),
            format!("{:.2}ms", resume_ns / 1e6),
            format!("{:.2}ms", restart_ns / 1e6),
            format!("{ratio:.2}x"),
        ]);
        json_econ.push(format!(
            "    {{\"topology\": \"{}\", \"resume_ns\": {resume_ns:.1}, \
             \"restart_ns\": {restart_ns:.1}, \"ratio\": {ratio:.4}}}",
            topo.name(),
        ));
    }
    print_table(
        "Resume vs restart: permanent NVLink kill at 60% of a 64 MB AllReduce",
        &["topology", "resume", "restart", "ratio"],
        &econ_rows,
    );
    println!(
        "frontier resume runs the cached plan with its completed invocations \
         pre-marked, so recovering a late fault costs a fraction of \
         restarting the collective from zero."
    );

    let json = format!(
        "{{\n  \"buffer_bytes\": {buffer},\n  \"seeds_per_cell\": {SEEDS},\n  \
         \"campaign\": [\n{}\n  ],\n  \"resume_vs_restart\": [\n{}\n  ]\n}}\n",
        json_cells.join(",\n"),
        json_econ.join(",\n"),
    );
    write_bench_json("BENCH_chaos.json", &json);
}
