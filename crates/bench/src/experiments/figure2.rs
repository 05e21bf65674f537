//! **Figure 2** — Time-cost breakdown of primitives in custom and
//! synthesized single-node AllReduce on the existing (MSCCL-model) CCL
//! runtime.
//!
//! Paper observations: TBs on the additional channels remain idle up to
//! 98.2% of the time (a), and synchronization blocking reaches 67.1% of TB
//! lifetime (b).

use crate::{pct, print_table, MB};
use rescc_algos::{hm_allreduce, taccl_like_allreduce};
use rescc_backends::{Backend, Communicator};
use rescc_topology::Topology;

/// Regenerate Figure 2.
pub fn run() {
    let mut comm = Communicator::new(Topology::a100(1, 8)).with_backend(Backend::msccl());
    for (label, spec) in [
        ("(a) custom (HM) AllReduce", hm_allreduce(1, 8)),
        (
            "(b) synthesized (TACCL-like) AllReduce",
            taccl_like_allreduce(1, 8),
        ),
    ] {
        // A typical synchronization size: 16 MB yields two micro-batches,
        // so half of the four channel TBs opened per connection get no
        // work at all — exactly the over-provisioned extra channels the
        // paper measured at 98.2% idle.
        let rep = comm.run_spec(&spec, 16 * MB, MB).expect("figure2 run");
        // Per-TB breakdown on rank 0 (all ranks are symmetric for (a)).
        let rank0: Vec<_> = rep.sim.tb_stats.iter().filter(|t| t.rank == 0).collect();
        let rows: Vec<Vec<String>> = rank0
            .iter()
            .map(|t| {
                vec![
                    format!("TB{}", t.tb),
                    format!("{:.2}ms", t.busy_ns / 1e6),
                    format!("{:.2}ms", t.sync_ns / 1e6),
                    pct(t.idle_ratio()),
                    t.n_invocations.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 2 {label}: rank-0 TB time breakdown (MSCCL-model)"),
            &[
                "TB",
                "execution",
                "sync-blocked",
                "idle ratio",
                "invocations",
            ],
            &rows,
        );
        let max_idle = rep.sim.max_idle_ratio();
        let idle_channel_tbs = rep
            .sim
            .tb_stats
            .iter()
            .filter(|t| t.idle_ratio() > 0.9)
            .count();
        println!(
            "max TB idle ratio = {} | TBs idle >90% of their lifetime: {}/{} | avg idle = {}",
            pct(max_idle),
            idle_channel_tbs,
            rep.sim.tb_stats.len(),
            pct(rep.sim.avg_idle_ratio()),
        );
    }
    println!("paper: extra-channel TBs idle up to 98.2% (a); sync blocking reaches 67.1% (b).");
}
