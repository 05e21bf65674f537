//! Fault-injection integration tests: the pipeline must stay *correct*
//! under adverse conditions (latency jitter, browned-out links, mid-run
//! resource death) and the timing must respond the way a real cluster
//! would. The property tests at the bottom drive the full watchdog
//! (retry + mask + recompile) path with seeded random fault timelines.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescc::algos::{hm_allgather, hm_allreduce};
use rescc::backends::Communicator;
use rescc::core::Compiler;
use rescc::sim::{FaultTimeline, SimConfig, SimError};
use rescc::topology::{Rank, ResourceId, Topology};

const MB: u64 = 1 << 20;

/// `res` at `factor` of its bandwidth from launch to past the end of any
/// run: a link that was already slow when the kernel launched.
fn whole_run_brownout(res: ResourceId, factor: f64) -> FaultTimeline {
    FaultTimeline::new().brownout(res, 0.0, factor, f64::MAX)
}

/// A seeded random timeline whose resources **all recover**: flaps with
/// short down windows, brownouts, and bounded straggler windows — never a
/// permanent kill. The same seed always yields the same timeline; with a
/// retrying dispatcher on top, any such timeline must end in a correct
/// collective (the recovery property the tests below assert).
fn seeded_recovering(seed: u64, n_resources: u32, n_ranks: u32, horizon_ns: f64) -> FaultTimeline {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tl = FaultTimeline::new();
    let n_events = 1 + rng.gen_range(0..3);
    for _ in 0..n_events {
        let at = 0.05 * horizon_ns + 0.5 * horizon_ns * rng.gen::<f64>();
        match rng.gen_range(0..3) {
            0 => {
                let res = ResourceId::new(rng.gen_range(0..n_resources as u64) as u32);
                let down = 50_000.0 + 100_000.0 * rng.gen::<f64>(); // 50–150 µs
                let up = 200_000.0 + 200_000.0 * rng.gen::<f64>();
                let cycles = 1 + rng.gen_range(0..2) as u32;
                tl = tl.flap(res, at, down, up, cycles);
            }
            1 => {
                let res = ResourceId::new(rng.gen_range(0..n_resources as u64) as u32);
                let factor = 0.2 + 0.6 * rng.gen::<f64>();
                tl = tl.brownout(res, at, factor, 0.3 * horizon_ns);
            }
            _ => {
                let rank = rng.gen_range(0..n_ranks as u64) as u32;
                let mult = 1.5 + 2.0 * rng.gen::<f64>();
                tl = tl.straggler(rank, at, mult, 0.2 * horizon_ns);
            }
        }
    }
    tl
}

#[test]
fn seeded_timeline_is_deterministic_and_recovering() {
    let a = seeded_recovering(7, 40, 8, 1e6);
    let b = seeded_recovering(7, 40, 8, 1e6);
    assert_eq!(a, b);
    assert!(!a.is_empty());
    assert!(a.validate(40, 8).is_ok());
    for e in a.events() {
        if let Some(r) = e.fault.resource() {
            assert!(!a.is_permanent_down(r), "resource {r} never recovers");
        }
    }
    let c = seeded_recovering(8, 40, 8, 1e6);
    assert_ne!(a, c);
}

#[test]
fn jitter_never_breaks_correctness() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 4), &topo)
        .unwrap();
    for seed in 0..5u64 {
        let cfg = SimConfig::default().with_jitter(0.8, seed);
        let rep = plan.run_with(32 * MB, MB, &cfg).unwrap();
        assert_eq!(rep.data_valid, Some(true), "seed {seed}");
    }
}

#[test]
fn jitter_is_reproducible_per_seed() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allgather(2, 4), &topo)
        .unwrap();
    let cfg = SimConfig::default().with_jitter(0.5, 7);
    let a = plan.run_with(32 * MB, MB, &cfg).unwrap();
    let b = plan.run_with(32 * MB, MB, &cfg).unwrap();
    assert_eq!(a, b);
    let other = plan
        .run_with(32 * MB, MB, &SimConfig::default().with_jitter(0.5, 8))
        .unwrap();
    assert_ne!(a.completion_ns, other.completion_ns);
}

#[test]
fn degrading_a_bottleneck_nic_slows_more_than_an_nvlink() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 4), &topo)
        .unwrap();
    let base = plan
        .run_with(128 * MB, MB, &SimConfig::default().without_validation())
        .unwrap();

    // Brown one NIC out to 25% for the whole run.
    let nic = topo.nic_tx(topo.nic_of(Rank::new(0)));
    let cfg_nic = SimConfig::default()
        .without_validation()
        .with_faults(whole_run_brownout(nic, 0.25));
    let slow_nic = plan.run_with(128 * MB, MB, &cfg_nic).unwrap();

    // Brown one NVLink pair channel out to 25% for the whole run.
    let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
    let cfg_chan = SimConfig::default()
        .without_validation()
        .with_faults(whole_run_brownout(chan, 0.25));
    let slow_chan = plan.run_with(128 * MB, MB, &cfg_chan).unwrap();

    assert!(slow_nic.completion_ns > base.completion_ns * 1.2);
    assert!(
        slow_nic.completion_ns > slow_chan.completion_ns,
        "a degraded NIC ({:.1}ms) must hurt more than a degraded NVLink \
         channel ({:.1}ms); baseline {:.1}ms",
        slow_nic.completion_ns / 1e6,
        slow_chan.completion_ns / 1e6,
        base.completion_ns / 1e6
    );
}

#[test]
fn degraded_runs_stay_correct() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 4), &topo)
        .unwrap();
    let nic = topo.nic_rx(topo.nic_of(Rank::new(5)));
    let cfg = SimConfig::default().with_faults(whole_run_brownout(nic, 0.1));
    let rep = plan.run_with(16 * MB, MB, &cfg).unwrap();
    assert_eq!(rep.data_valid, Some(true));
}

#[test]
fn combined_faults() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allgather(2, 4), &topo)
        .unwrap();
    let nic = topo.nic_tx(topo.nic_of(Rank::new(2)));
    let cfg = SimConfig::default()
        .with_jitter(0.4, 99)
        .with_faults(whole_run_brownout(nic, 0.5));
    let rep = plan.run_with(32 * MB, MB, &cfg).unwrap();
    assert_eq!(rep.data_valid, Some(true));
}

#[test]
fn mid_run_link_death_is_a_typed_error_without_a_watchdog() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 4), &topo)
        .unwrap();
    let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
    let cfg = SimConfig::default()
        .without_validation()
        .with_faults(FaultTimeline::new().kill(chan, 100_000.0));
    let err = plan.run_with(128 * MB, MB, &cfg).unwrap_err();
    match err {
        SimError::ResourceDown {
            resource,
            permanent,
            at_ns,
            ..
        } => {
            assert_eq!(resource, chan.index() as u32);
            assert!(permanent);
            assert_eq!(at_ns, 100_000);
        }
        other => panic!("expected ResourceDown, got {other}"),
    }
}

#[test]
fn communicator_survives_permanent_link_death() {
    let topo = Topology::a100(2, 4);
    let chan = topo.pair_chan(Rank::new(2), Rank::new(3));
    let mut comm = Communicator::new(topo)
        .with_validation()
        .with_faults(FaultTimeline::new().kill(chan, 200_000.0));
    let rep = comm.all_reduce(128 * MB).unwrap();
    assert_eq!(rep.sim.data_valid, Some(true));
    let rec = rep.recovery.expect("fault run engages the watchdog");
    assert!(rec.recompiles >= 1);
    assert_eq!(rec.dead_resources, vec![chan.index() as u32]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seeded *recovering* timeline (flaps, brownouts, stragglers —
    /// no permanent damage) must leave the collective correct once the
    /// watchdog has retried its way through.
    #[test]
    fn recovering_timelines_stay_correct(seed in 0u64..64) {
        let topo = Topology::a100(2, 4);
        let horizon = 1_500_000.0; // ~ a 32 MB AllReduce on this cluster
        let tl = seeded_recovering(
            seed,
            topo.n_resources(),
            topo.n_ranks(),
            horizon,
        );
        let mut comm = Communicator::new(topo).with_validation().with_faults(tl);
        let rep = comm.all_reduce(32 * MB).unwrap();
        prop_assert_eq!(rep.sim.data_valid, Some(true), "seed {}", seed);
        prop_assert!(rep.recovery.is_some());
    }

    /// Identical seeds replay byte-identically, including the recovery
    /// counters — the whole fault path is deterministic.
    #[test]
    fn fault_recovery_replays_byte_identically(seed in 0u64..32) {
        let run = || {
            let topo = Topology::a100(2, 4);
            let tl = seeded_recovering(
                seed,
                topo.n_resources(),
                topo.n_ranks(),
                1_500_000.0,
            );
            let mut comm = Communicator::new(topo).with_validation().with_faults(tl);
            comm.all_reduce(32 * MB).unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
    }
}
