//! Fault injection and bottleneck analysis: run the same collective on a
//! healthy cluster, a jittery one, and one with a browned-out NIC, then use
//! the execution trace to see where the time went. Finally, kill an
//! NVLink channel mid-run and let the `Communicator` watchdog mask it,
//! recompile against the degraded topology, and finish correctly.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use rescc::algos::hm_allreduce;
use rescc::backends::Communicator;
use rescc::core::Compiler;
use rescc::sim::{render_gantt, BottleneckReport, FaultTimeline, SimConfig};
use rescc::topology::{Rank, ResourceKind, Topology};

fn main() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 4), &topo)
        .expect("compiles");
    let buffer = 128u64 << 20;

    let describe = |topo: &Topology, res: u32| -> String {
        match topo
            .resource_kind(rescc::topology::ResourceId::new(res))
            .expect("resource id taken from this topology")
        {
            ResourceKind::GpuTx(r) => format!("NVLink egress of {r}"),
            ResourceKind::GpuRx(r) => format!("NVLink ingress of {r}"),
            ResourceKind::NicTx(n) => format!("NIC {n} transmit"),
            ResourceKind::NicRx(n) => format!("NIC {n} receive"),
            ResourceKind::PairChan(a, b) => format!("NVLink channel {a}->{b}"),
        }
    };

    let scenarios: Vec<(&str, SimConfig)> = vec![
        ("healthy", SimConfig::default().with_trace()),
        (
            "40% latency jitter (seed 7)",
            SimConfig::default().with_jitter(0.4, 7).with_trace(),
        ),
        (
            "NIC of ranks 0-1 browned out to 25% for the whole run",
            SimConfig::default()
                .with_faults(
                    FaultTimeline::new()
                        .brownout(topo.nic_tx(topo.nic_of(Rank::new(0))), 0.0, 0.25, f64::MAX)
                        .brownout(topo.nic_rx(topo.nic_of(Rank::new(0))), 0.0, 0.25, f64::MAX),
                )
                .with_trace(),
        ),
    ];

    for (name, cfg) in scenarios {
        let rep = plan.run_with(buffer, 1 << 20, &cfg).expect("runs");
        assert_eq!(rep.data_valid, Some(true));
        println!("\n=== {name} ===");
        println!(
            "completion {:.2} ms  ({:.1} GB/s algbw), data verified",
            rep.completion_ns / 1e6,
            rep.algo_bandwidth_gbps(buffer)
        );
        let bn = BottleneckReport::from_report(&rep);
        for (res, ratio, bytes) in bn.hottest.iter().take(3) {
            println!(
                "  hot: {:<28} active {:>5.1}%  ({} MB through)",
                describe(&topo, *res),
                100.0 * ratio,
                bytes >> 20
            );
        }
        println!("{}", render_gantt(&rep.trace, topo.n_ranks(), 56));
    }
    println!("note how the browned-out NIC becomes the bottleneck and stretches the tail.");

    // Permanent failure: kill the 0->1 NVLink channel 200 µs in. A bare
    // plan.run_with() would fail with a typed ResourceDown; the
    // Communicator's watchdog masks the channel, recompiles against the
    // degraded topology, and resumes.
    let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
    let mut comm = Communicator::new(topo.clone())
        .with_validation()
        .with_faults(FaultTimeline::new().kill(chan, 200_000.0));
    let rep = comm.all_reduce(buffer).expect("watchdog recovers");
    let rec = rep
        .recovery
        .clone()
        .expect("fault run engages the watchdog");
    println!("\n=== NVLink channel 0->1 killed at 200us (watchdog) ===");
    println!(
        "completion {:.2} ms (+{:.2} ms lost to the failed attempt), \
         {} recompile(s), data verified: {:?}",
        rep.total_completion_ns() / 1e6,
        rec.recovery_ns / 1e6,
        rec.recompiles,
        rep.sim.data_valid,
    );
    for res in &rec.dead_resources {
        println!("  masked: {}", describe(&topo, *res));
    }
}
