//! Observability integration tests: bubble attribution must *account*
//! for the engine's aggregate counters exactly, and must never perturb
//! the simulation it observes. The property tests at the bottom check
//! the reconciliation invariants over randomized topologies and buffer
//! sizes.

use proptest::prelude::*;
use rescc::algos::{hm_allgather, hm_allreduce, ring_allgather};
use rescc::core::Compiler;
use rescc::sim::{FaultTimeline, SimConfig, SimReport};
use rescc::topology::{Rank, Topology};

const MB: u64 = 1 << 20;

fn run_observed(topo: &Topology, spec: &rescc::lang::AlgoSpec, buffer: u64) -> SimReport {
    let plan = Compiler::new().compile_spec(spec, topo).unwrap();
    let cfg = SimConfig::default()
        .without_validation()
        .with_observability();
    plan.run_with(buffer, MB, &cfg).unwrap()
}

/// The reconciliation contract: hard bubbles tile sync time, soft
/// bubbles plus line-rate segments tile busy time, link buckets tile
/// link active time — each within relative float-association error.
/// Busy plus sync fits in each TB's occupancy unless the plan is `fused`:
/// a fused forward drains beside its feeder on one TB, and busy time
/// counts both.
fn assert_reconciles(rep: &SimReport, fused: bool) {
    let obs = rep.obs.as_ref().expect("attribution enabled");

    // Every interval is well-formed and inside the run.
    for b in &obs.bubbles {
        assert!(b.end_ns >= b.start_ns, "negative bubble: {b:?}");
        assert!(b.start_ns >= 0.0, "bubble before launch: {b:?}");
        assert!(
            b.end_ns <= rep.completion_ns * (1.0 + 1e-9),
            "bubble past completion: {b:?}"
        );
    }

    for (i, tb) in rep.tb_stats.iter().enumerate() {
        // Hard bubbles (rendezvous + dep waits) are the classified
        // decomposition of `sync_ns`.
        let hard = obs.hard_bubble_ns(i as u32);
        assert!(
            (hard - tb.sync_ns).abs() <= 1e-6 * tb.sync_ns.max(1.0),
            "r{}tb{}: hard bubbles {hard} vs sync {}",
            tb.rank,
            tb.tb,
            tb.sync_ns
        );
        // The bucketed timeline tiles the same decomposition: line-rate
        // transfer + startup + contention sum to busy, rendezvous +
        // dep-wait sum to sync.
        let tl = &obs.tb_timelines[i];
        assert_eq!((tl.rank, tl.tb), (tb.rank, tb.tb), "timeline order");
        let soft: f64 = tl.transfer.iter().sum::<f64>()
            + tl.startup.iter().sum::<f64>()
            + tl.contention.iter().sum::<f64>();
        assert!(
            (soft - tb.busy_ns).abs() <= 1e-6 * tb.busy_ns.max(1.0),
            "r{}tb{}: timeline busy {soft} vs busy {}",
            tb.rank,
            tb.tb,
            tb.busy_ns
        );
        let blocked: f64 = tl.rendezvous.iter().sum::<f64>() + tl.dep_wait.iter().sum::<f64>();
        assert!(
            (blocked - tb.sync_ns).abs() <= 1e-6 * tb.sync_ns.max(1.0),
            "r{}tb{}: timeline sync {blocked} vs sync {}",
            tb.rank,
            tb.tb,
            tb.sync_ns
        );
        // busy + sync never exceeds the SM occupancy window.
        assert!(
            fused || tb.busy_ns + tb.sync_ns <= tb.occupancy_ns * (1.0 + 1e-9) + 1.0,
            "r{}tb{}: busy {} + sync {} vs occupancy {}",
            tb.rank,
            tb.tb,
            tb.busy_ns,
            tb.sync_ns,
            tb.occupancy_ns
        );
    }

    // Per-link bucket sums equal the engine's active-time counter, and
    // the timeline population mirrors `resource_stats`.
    assert_eq!(obs.link_timelines.len(), rep.resource_stats.len());
    for (lt, rs) in obs.link_timelines.iter().zip(rep.resource_stats.iter()) {
        assert_eq!(lt.resource, rs.resource);
        let sum: f64 = lt.active.iter().sum();
        assert!(
            (sum - rs.active_ns).abs() <= 1e-6 * rs.active_ns.max(1.0),
            "link {}: buckets {sum} vs active {}",
            lt.resource,
            rs.active_ns
        );
    }
}

/// The runs the other tests do not attribute, each with attribution off
/// and on: a fused plan, whose forwards never block their sender, and a
/// run resumed from a fault frontier, whose table keeps the rows of the
/// invocations done before it unstamped.
fn fused_and_resumed() -> Vec<(&'static str, SimReport, SimReport)> {
    let off = SimConfig::default().without_validation();
    let on = off.clone().with_observability();
    let topo = Topology::a100(2, 4);

    // A ring's forwards start after their sender TB arrives, so the
    // sender side a fused forward never blocks on is visible here.
    let fused = Compiler::new()
        .with_fusion()
        .compile_spec(&ring_allgather(8), &topo)
        .unwrap();
    assert!(
        fused.program.fused_pairs().next().is_some(),
        "no fused pair"
    );
    let run = |cfg: &SimConfig| fused.run_with(64 * MB, MB, cfg).unwrap();
    let mut runs = vec![("fused", run(&off), run(&on))];

    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 4), &topo)
        .unwrap();
    let horizon = plan.run_with(32 * MB, MB, &off).unwrap().completion_ns;
    let nic = topo.nic_tx(topo.nic_of(Rank::new(0)));
    let kill = off
        .clone()
        .with_faults(FaultTimeline::new().kill(nic, 0.4 * horizon));
    let err = plan
        .run_with(32 * MB, MB, &kill)
        .expect_err("a kill mid-run aborts");
    let frontier = err
        .frontier()
        .expect("the abort carries a frontier")
        .clone();
    assert!(!frontier.is_empty(), "nothing to resume");
    let run = |cfg: &SimConfig| {
        let cfg = cfg.clone().with_resume(frontier.clone());
        plan.run_with(32 * MB, MB, &cfg).unwrap()
    };
    runs.push(("resumed", run(&off), run(&on)));
    runs
}

#[test]
fn fused_and_resumed_runs_reconcile_and_stay_read_only() {
    for (name, off, mut on) in fused_and_resumed() {
        assert_reconciles(&on, name == "fused");
        assert!(!on.obs.as_ref().unwrap().bubbles.is_empty(), "{name}");
        on.obs = None;
        assert_eq!(on, off, "{name}: attribution changed the simulation");
    }
}

#[test]
fn hard_bubbles_reconcile_with_sync_time() {
    for (topo, spec, buffer) in [
        (Topology::a100(2, 4), hm_allreduce(2, 4), 128 * MB),
        (Topology::a100(2, 8), hm_allgather(2, 8), 64 * MB),
        (Topology::a100(1, 4), ring_allgather(4), 32 * MB),
    ] {
        let rep = run_observed(&topo, &spec, buffer);
        assert_reconciles(&rep, false);
        assert!(
            !rep.obs.as_ref().unwrap().bubbles.is_empty(),
            "a multi-rank collective with startup latency must have bubbles"
        );
    }
}

#[test]
fn per_tb_per_cause_intervals_never_overlap() {
    let rep = run_observed(&Topology::a100(2, 4), &hm_allreduce(2, 4), 64 * MB);
    let obs = rep.obs.as_ref().unwrap();
    let mut by_key: std::collections::HashMap<(u32, u32), Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    for b in &obs.bubbles {
        by_key
            .entry((b.tb_index, b.cause as u32))
            .or_default()
            .push((b.start_ns, b.end_ns));
    }
    for ((tb, cause), mut iv) in by_key {
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in iv.windows(2) {
            assert!(
                w[0].1 <= w[1].0 + 1e-9 * w[1].0.abs().max(1.0),
                "tb {tb} cause {cause}: [{}, {}) overlaps [{}, {})",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
    }
}

#[test]
fn attribution_is_read_only() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 4), &topo)
        .unwrap();
    let off = SimConfig::default().without_validation();
    let on = off.clone().with_observability();
    let rep_off = plan.run_with(64 * MB, MB, &off).unwrap();
    let mut rep_on = plan.run_with(64 * MB, MB, &on).unwrap();
    assert!(rep_on.obs.is_some());
    rep_on.obs = None;
    assert_eq!(rep_on, rep_off, "attribution changed the simulation");
    // And off means *off*: no payload, no cost center.
    assert!(rep_off.obs.is_none());
}

#[test]
fn timelines_have_64_buckets_and_conserve_time() {
    let topo = Topology::a100(2, 4);
    // Each buffer size gives the buckets a different width.
    for buffer in [MB, 8 * MB, 32 * MB, 96 * MB] {
        let rep = run_observed(&topo, &hm_allgather(2, 4), buffer);
        let obs = rep.obs.as_ref().unwrap();
        assert_eq!(obs.n_buckets, 64);
        assert_reconciles(&rep, false); // conservation holds at any granularity
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reconciliation holds for arbitrary shapes and buffer sizes, and
    /// attribution stays read-only everywhere — not just on the seeds.
    #[test]
    fn attribution_reconciles_everywhere(
        nodes in 1u32..3,
        gpus_idx in 0usize..3,
        buf_idx in 0usize..3,
    ) {
        let gpus = [2u32, 4, 8][gpus_idx];
        let buf_mb = [8u64, 32, 96][buf_idx];
        let topo = Topology::a100(nodes, gpus);
        let spec = hm_allreduce(nodes, gpus);
        let plan = Compiler::new().compile_spec(&spec, &topo).unwrap();
        let off = SimConfig::default().without_validation();
        let on = off.clone().with_observability();
        let rep_off = plan.run_with(buf_mb * MB, MB, &off).unwrap();
        let mut rep_on = plan.run_with(buf_mb * MB, MB, &on).unwrap();
        assert_reconciles(&rep_on, false);
        rep_on.obs = None;
        prop_assert_eq!(rep_on, rep_off);
    }
}
