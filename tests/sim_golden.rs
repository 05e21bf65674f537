//! Golden-report oracle for the simulator.
//!
//! Every case runs one simulation and keeps the FNV-1a digest of the
//! `Debug` rendering of its `SimResult<SimReport>`: the report on success,
//! the typed error (fault frontier included) on failure. `Debug` prints
//! each `f64` in its shortest round-trip form, so equal digests mean
//! bit-identical reports. The tables pin the engine's exact output — event
//! order, rate arithmetic, fault handling, instrumentation — so an engine
//! change that is meant to alter cost only must leave every digest alone.
//! On a mismatch the failure message prints the table the current engine
//! produces.
//!
//! The runs of `instrumentation`, `fault_timelines` and `instant_stress`
//! also keep a physics digest, which is blind to the order of events within
//! one simulated instant: it sorts the trace and the bubbles, and drops the
//! task a `ResourceDown` names as its first victim. Their physics tables
//! were generated before the engine stopped moving a re-keyed transfer to
//! the back of its instant, and pin that on these runs completion times,
//! TB and link statistics, fault logs and abort frontiers did not move
//! with it. The jittered rows with trace or observability on, and the
//! jittered brownout-plus-straggler timeline, were pinned, in both tables,
//! on the engine that still projected a re-key at once when its instant
//! held no other event; jitter makes that the common case. They pin that
//! making every re-key a deferral moved no output.

use rescc::algos::{hm_allreduce, ring_allgather, seed_suite};
use rescc::backends::{Backend, Communicator};
use rescc::core::{Compiler, LintGate};
use rescc::sim::{FaultTimeline, SimConfig, SimError, SimReport, SimResult};
use rescc::topology::{ClusterSpec, FabricParams, LinkParams, Rank, Topology};
use rescc::train::{train_throughput, ModelConfig, ParallelConfig};
use std::fmt::Debug;

const MB: u64 = 1 << 20;

/// Per-chunk bytes of the suite runs: three micro-batches at 1 MiB, the
/// last one ragged.
const CHUNK_LEN: u64 = 2 * MB + 1000;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest<T: Debug>(result: &SimResult<T>) -> u64 {
    fnv1a(format!("{result:?}").as_bytes())
}

/// The digest of what a run computes, whatever the order of the events
/// within one instant: a report's times, TB and link statistics, data
/// check, fault log and observability timelines, its trace and bubbles
/// sorted; a `ResourceDown`'s resource, time, permanence and frontier, but
/// not the task it names.
fn physics(result: &SimResult<SimReport>) -> u64 {
    fn sorted<T: Debug>(items: &[T]) -> Vec<String> {
        let mut out: Vec<String> = items.iter().map(|i| format!("{i:?}")).collect();
        out.sort_unstable();
        out
    }
    let text = match result {
        Ok(r) => {
            let obs = r.obs.as_ref().map(|o| {
                (
                    o.n_buckets,
                    o.bucket_ns,
                    sorted(&o.bubbles),
                    &o.tb_timelines,
                    &o.link_timelines,
                )
            });
            format!(
                "{:?}",
                (
                    r.completion_ns,
                    r.total_bytes,
                    &r.tb_stats,
                    &r.resource_stats,
                    r.data_valid,
                    r.n_micro_batches,
                    r.n_invocations,
                    &r.faults,
                    sorted(&r.trace),
                    obs,
                )
            )
        }
        Err(SimError::ResourceDown {
            resource,
            at_ns,
            permanent,
            frontier,
            ..
        }) => format!("ResourceDown {:?}", (resource, at_ns, permanent, frontier)),
        Err(e) => format!("{e:?}"),
    };
    fnv1a(text.as_bytes())
}

/// Check named runs against a physics table, then a full-digest table.
fn check_runs(
    runs: &[(String, SimResult<SimReport>)],
    physics_table: &[(&str, u64)],
    golden: &[(&str, u64)],
) {
    let with = |f: fn(&SimResult<SimReport>) -> u64| -> Vec<(String, u64)> {
        runs.iter().map(|(n, r)| (n.clone(), f(r))).collect()
    };
    check(&with(physics), physics_table);
    check(&with(digest), golden);
}

/// Compare computed digests with a golden table, in order.
fn check(got: &[(String, u64)], golden: &[(&str, u64)]) {
    let matches = got.len() == golden.len()
        && got
            .iter()
            .zip(golden)
            .all(|((n, d), (gn, gd))| n == gn && d == gd);
    if !matches {
        let table: String = got
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
            .collect();
        let diff: Vec<&str> = got
            .iter()
            .filter(|(n, d)| !golden.contains(&(n.as_str(), *d)))
            .map(|(n, _)| n.as_str())
            .collect();
        panic!(
            "simulation reports diverged from the golden table on {diff:?}; \
             the current engine produces:\n{table}"
        );
    }
}

/// The `rescc-lint` seed suite on Table-3 topology `i`, validated and
/// unchecked.
fn seed_suite_digests(i: usize) -> Vec<(String, u64)> {
    let topo = Topology::table3_topo(i).expect("table 3 preset");
    let shape = topo.spec();
    let compiler = Compiler::new().with_lint_gate(LintGate::Warn);
    let mut out = Vec::new();
    for spec in seed_suite(shape.n_nodes, shape.gpus_per_node) {
        let buffer = spec.n_chunks() as u64 * CHUNK_LEN;
        let plan = compiler.compile_spec(&spec, &topo);
        for (mode, cfg) in [
            ("validated", SimConfig::default()),
            ("unchecked", SimConfig::default().without_validation()),
        ] {
            let result = match &plan {
                Ok(plan) => plan.run_with(buffer, MB, &cfg),
                Err(e) => Err(e.clone()),
            };
            out.push((
                format!("{}/{}/{mode}", topo.name(), spec.name()),
                digest(&result),
            ));
        }
    }
    out
}

#[test]
fn seed_suite_topo1() {
    check(&seed_suite_digests(1), GOLDEN_TOPO1);
}

#[test]
fn seed_suite_topo2() {
    check(&seed_suite_digests(2), GOLDEN_TOPO2);
}

#[test]
fn seed_suite_topo3() {
    check(&seed_suite_digests(3), GOLDEN_TOPO3);
}

#[test]
fn seed_suite_topo4() {
    check(&seed_suite_digests(4), GOLDEN_TOPO4);
}

/// The oversubscribed single-NIC P2P fabric of Figure 4: more TBs than
/// the link saturates at, so the γ·L(z) contention penalty engages.
fn oversubscribed_p2p() -> Topology {
    Topology::new(
        "fig4-p2p",
        ClusterSpec {
            n_nodes: 2,
            gpus_per_node: 1,
            nics_per_node: 1,
        },
        FabricParams {
            inter: LinkParams::new(25.0, 10.0, 4),
            ..FabricParams::a100()
        },
    )
}

/// The NCCL and MSCCL models (global and stage barriers, micro-batch-major
/// order, interpreter overhead, rigid release), fused and round-robin
/// ResCCL, and the oversubscribed fabric. The single- and twelve-channel
/// baselines are the non-default parameters Figures 3 and 4 run.
#[test]
fn backends() {
    let topo = Topology::a100(2, 4);
    let msccl_1ch = |interpreter_overhead_ns| Backend::Msccl {
        n_channels: 1,
        interpreter_overhead_ns,
    };
    let backends = [
        ("nccl", Backend::nccl()),
        ("msccl", Backend::msccl()),
        (
            "resccl-fused",
            Backend::Resccl(Compiler::new().with_fusion()),
        ),
        (
            "resccl-rr",
            Backend::Resccl(Compiler::new().with_round_robin()),
        ),
        ("msccl-1ch", msccl_1ch(9_000.0)),
        ("msccl-1ch-direct", msccl_1ch(0.0)),
        ("nccl-1ch", Backend::Nccl { n_channels: 1 }),
        ("nccl-12ch", Backend::Nccl { n_channels: 12 }),
    ];
    let mut got = Vec::new();
    for (name, backend) in &backends {
        for spec in [hm_allreduce(2, 4), ring_allgather(8)] {
            let buffer = spec.n_chunks() as u64 * CHUNK_LEN;
            let comm = || Communicator::new(topo.clone()).with_backend(backend.clone());
            let checked = comm()
                .with_validation()
                .run_spec(&spec, buffer, MB)
                .map(|r| r.sim);
            let unchecked = comm().run_spec(&spec, buffer, MB).map(|r| r.sim);
            got.push((
                format!("{name}/{}/validated", spec.name()),
                digest(&checked),
            ));
            got.push((
                format!("{name}/{}/unchecked", spec.name()),
                digest(&unchecked),
            ));
        }
    }
    let p2p = oversubscribed_p2p();
    let plan = Compiler::new()
        .compile_spec(&ring_allgather(2), &p2p)
        .expect("compile on the P2P fabric");
    got.push((
        "fig4-p2p/ring-allgather".into(),
        digest(&plan.run_with(64 * MB, MB, &SimConfig::default())),
    ));
    check(&got, GOLDEN_BACKENDS);
}

/// Attribution, the trace and jitter.
#[test]
fn instrumentation() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 4), &topo)
        .expect("compile");
    let buffer = 32 * MB;
    let cases = [
        ("observability", SimConfig::default().with_observability()),
        ("trace", SimConfig::default().with_trace()),
        ("jitter", SimConfig::default().with_jitter(0.5, 7)),
        (
            "jitter+trace",
            SimConfig::default().with_jitter(0.5, 7).with_trace(),
        ),
        (
            "jitter+observability",
            SimConfig::default()
                .with_jitter(1.0, 11)
                .with_observability(),
        ),
        (
            "light-jitter+trace+observability",
            SimConfig::default()
                .with_jitter(0.1, 3)
                .with_trace()
                .with_observability(),
        ),
    ];
    let runs: Vec<_> = cases
        .into_iter()
        .map(|(name, cfg)| (name.to_string(), plan.run_with(buffer, MB, &cfg)))
        .collect();
    check_runs(&runs, PHYSICS_INSTRUMENTATION, GOLDEN_INSTRUMENTATION);
}

/// Mid-run fault timelines: brownout with a straggler, a permanent link
/// death aborting with its frontier, the resume from that frontier, a
/// flap and a link already down at launch.
#[test]
fn fault_timelines() {
    let topo = Topology::a100(2, 4);
    let compiler = Compiler::new();
    let plan = compiler
        .compile_spec(&hm_allreduce(2, 4), &topo)
        .expect("compile");
    let buffer = 32 * MB;
    let base = plan
        .run_with(buffer, MB, &SimConfig::default())
        .expect("healthy run");
    let horizon = base.completion_ns;
    let nic = topo.nic_tx(topo.nic_of(Rank::new(0)));
    let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
    let mut runs = vec![("healthy".to_string(), Ok(base))];

    let brown = SimConfig::default().with_faults(
        FaultTimeline::new()
            .brownout(nic, 0.1 * horizon, 0.3, 0.5 * horizon)
            .brownout(chan, 0.2 * horizon, 0.5, 0.3 * horizon)
            .straggler(3, 0.05 * horizon, 4.0, 0.4 * horizon),
    );
    runs.push((
        "brownout+straggler".into(),
        plan.run_with(buffer, MB, &brown),
    ));
    let jittered = brown
        .clone()
        .with_jitter(0.5, 5)
        .with_trace()
        .with_observability();
    runs.push((
        "jitter+brownout+straggler".into(),
        plan.run_with(buffer, MB, &jittered),
    ));

    let kill = SimConfig::default().with_faults(FaultTimeline::new().kill(nic, 0.4 * horizon));
    let killed = plan.run_with(buffer, MB, &kill);
    let frontier = killed
        .as_ref()
        .expect_err("a permanent kill mid-run aborts")
        .frontier()
        .expect("the abort carries a frontier")
        .clone();
    runs.push(("link-down".into(), killed));
    compiler
        .residual_plan(&plan, &frontier)
        .expect("the plan resumes from its own frontier");
    let resumed = plan.run_with(buffer, MB, &SimConfig::default().with_resume(frontier));
    runs.push(("resume".into(), resumed));

    let flap = SimConfig::default().with_faults(FaultTimeline::new().flap(
        nic,
        0.35 * horizon,
        50_000.0,
        20_000.0,
        2,
    ));
    runs.push(("flap".into(), plan.run_with(buffer, MB, &flap)));

    let past = SimConfig::default().with_faults(
        FaultTimeline::new()
            .kill(chan, 0.1 * horizon)
            .restore(chan, 0.8 * horizon)
            .advanced(0.5 * horizon),
    );
    runs.push(("advanced-kill".into(), plan.run_with(buffer, MB, &past)));
    check_runs(&runs, PHYSICS_FAULTS, GOLDEN_FAULTS);
}

/// Faults that land exactly on the busiest completion instant of a
/// healthy HM-AllReduce 2×8 run: the fault fires first, then every
/// completion of that instant re-keys its peers to the same time or a
/// later one.
#[test]
fn instant_stress() {
    let topo = Topology::a100(2, 8);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 8), &topo)
        .expect("compile");
    let buffer = 32 * MB;
    let traced = plan
        .run_with(buffer, MB, &SimConfig::default().with_trace())
        .expect("healthy run");
    let horizon = traced.completion_ns;
    // Completions per instant; the busiest instant, earliest on a tie.
    let mut per_instant = std::collections::BTreeMap::<u64, Vec<_>>::new();
    for ev in &traced.trace {
        per_instant.entry(ev.end_ns.to_bits()).or_default().push(ev);
    }
    let (at, burst) = per_instant
        .iter()
        .rev()
        .max_by_key(|(_, evs)| evs.len())
        .map(|(&t, evs)| (f64::from_bits(t), evs))
        .expect("the run completes transfers");
    assert!(burst.len() > 1, "a lockstep burst completes together");
    // A resource on the path of the burst member with the smallest
    // `(src, dst, task, mb)`, which does not depend on the order of the
    // burst's events.
    let first = burst
        .iter()
        .min_by_key(|e| (e.src, e.dst, e.task, e.mb))
        .expect("the burst is not empty");
    let (src, dst) = (Rank::new(first.src), Rank::new(first.dst));
    let res = if topo.same_node(src, dst) {
        topo.pair_chan(src, dst)
    } else {
        topo.nic_tx(topo.nic_of(src))
    };

    let brown = SimConfig::default().with_faults(FaultTimeline::new().brownout(
        res,
        at,
        0.5,
        0.2 * horizon,
    ));
    let mut runs = vec![(
        "brownout-at-burst".to_string(),
        plan.run_with(buffer, MB, &brown),
    )];
    let kill = SimConfig::default().with_faults(FaultTimeline::new().kill(res, at));
    let killed = plan.run_with(buffer, MB, &kill);
    assert!(
        killed
            .as_ref()
            .is_err_and(|e| matches!(e, SimError::ResourceDown { .. }) && e.frontier().is_some()),
        "a kill at the burst aborts with a frontier: {killed:?}"
    );
    runs.push(("link-down-at-burst".into(), killed));
    check_runs(&runs, PHYSICS_INSTANT, GOLDEN_INSTANT);
}

/// One GPT-3 (tensor + data parallel) and one T5 (data parallel) cell of
/// Fig. 13 under each CCL choice: the whole training report, so the
/// collectives' completion times and TB footprints are pinned through the
/// throughput model.
#[test]
fn train() {
    let cells = [
        (
            ModelConfig::gpt3("6.7B").expect("preset"),
            ParallelConfig::gpt3(2, 16),
        ),
        (
            ModelConfig::t5("770M").expect("preset"),
            ParallelConfig::t5(16, 16),
        ),
    ];
    let mut got = Vec::new();
    for (model, par) in &cells {
        for backend in [Backend::nccl(), Backend::msccl(), Backend::resccl()] {
            got.push((
                format!("{}/{}", model.name, backend.name()),
                digest(&train_throughput(model, par, &backend)),
            ));
        }
    }
    check(&got, GOLDEN_TRAIN);
}

const GOLDEN_TOPO1: &[(&str, u64)] = &[
    ("a100-2x4/hm-ag-2x4/validated", 0xa6350ac0da8fcd47),
    ("a100-2x4/hm-ag-2x4/unchecked", 0xfa3a3fbfd355ef54),
    ("a100-2x4/hm-rs-2x4/validated", 0xeec306913a01a565),
    ("a100-2x4/hm-rs-2x4/unchecked", 0x89b2342b0acca6aa),
    ("a100-2x4/hm-ar-2x4/validated", 0x0378c25a29677165),
    ("a100-2x4/hm-ar-2x4/unchecked", 0xf93633a97ce7b9aa),
    ("a100-2x4/ring-ag-8/validated", 0x5babec41a6d71d46),
    ("a100-2x4/ring-ag-8/unchecked", 0x6a61d9f200091081),
    ("a100-2x4/ring-rs-8/validated", 0x5babec41a6d71d46),
    ("a100-2x4/ring-rs-8/unchecked", 0x6a61d9f200091081),
    ("a100-2x4/ring-ar-8/validated", 0x984c36ea339a0f8d),
    ("a100-2x4/ring-ar-8/unchecked", 0xd48ac991faad7082),
    ("a100-2x4/nccl-rings2-ar-2x4/validated", 0x71e165d9ee24edfd),
    ("a100-2x4/nccl-rings2-ar-2x4/unchecked", 0xea6719099e326b32),
    ("a100-2x4/recdbl-ag-8/validated", 0xc39bd6dfc79fb25a),
    ("a100-2x4/recdbl-ag-8/unchecked", 0xe245f280eae90e95),
    ("a100-2x4/rechlv-rs-8/validated", 0x4860ebd48b541249),
    ("a100-2x4/rechlv-rs-8/unchecked", 0x1a9c9e2ea0347b3e),
    ("a100-2x4/rechd-ar-8/validated", 0x2b3ce9509f6c6692),
    ("a100-2x4/rechd-ar-8/unchecked", 0x57646ef26eb69ddd),
    ("a100-2x4/dbtree-ar-8/validated", 0x87a0b46770efddd3),
    ("a100-2x4/dbtree-ar-8/unchecked", 0x145706c462066b58),
];
const GOLDEN_TOPO2: &[(&str, u64)] = &[
    ("a100-2x8/hm-ag-2x8/validated", 0x8cb97f9ec08c1679),
    ("a100-2x8/hm-ag-2x8/unchecked", 0x7cdc58002d87c1aa),
    ("a100-2x8/hm-rs-2x8/validated", 0xb3989e990afeeae5),
    ("a100-2x8/hm-rs-2x8/unchecked", 0xc34b44dc4c58cbd6),
    ("a100-2x8/hm-ar-2x8/validated", 0x28a8b383d3ff1a9e),
    ("a100-2x8/hm-ar-2x8/unchecked", 0x04667ac18abd74db),
    ("a100-2x8/ring-ag-16/validated", 0x2fe7806e57c22f55),
    ("a100-2x8/ring-ag-16/unchecked", 0x387bdb6b013af686),
    ("a100-2x8/ring-rs-16/validated", 0x2fe7806e57c22f55),
    ("a100-2x8/ring-rs-16/unchecked", 0x387bdb6b013af686),
    ("a100-2x8/ring-ar-16/validated", 0xac0d48693fe7f687),
    ("a100-2x8/ring-ar-16/unchecked", 0x19347372caacc92a),
    ("a100-2x8/nccl-rings2-ar-2x8/validated", 0x60956ab65d49c452),
    ("a100-2x8/nccl-rings2-ar-2x8/unchecked", 0x6ad1b1ad04189bef),
    ("a100-2x8/recdbl-ag-16/validated", 0xab1c4bc12467dc05),
    ("a100-2x8/recdbl-ag-16/unchecked", 0xbf9eb36e39016776),
    ("a100-2x8/rechlv-rs-16/validated", 0xb781800bf595bb6a),
    ("a100-2x8/rechlv-rs-16/unchecked", 0xab8590d48f135ed9),
    ("a100-2x8/rechd-ar-16/validated", 0xde7e95daaca15f5e),
    ("a100-2x8/rechd-ar-16/unchecked", 0x3e88a953da05809b),
    ("a100-2x8/dbtree-ar-16/validated", 0x0879401ce0bfee43),
    ("a100-2x8/dbtree-ar-16/unchecked", 0x2015bd83d017fb76),
];
const GOLDEN_TOPO3: &[(&str, u64)] = &[
    ("a100-4x4/hm-ag-4x4/validated", 0x20e707ae24855d7c),
    ("a100-4x4/hm-ag-4x4/unchecked", 0xfcdd87358f3292a3),
    ("a100-4x4/hm-rs-4x4/validated", 0xa6dc5e353bbc9d29),
    ("a100-4x4/hm-rs-4x4/unchecked", 0x9c75da90f3944e9a),
    ("a100-4x4/hm-ar-4x4/validated", 0x6eef78b638bf7af9),
    ("a100-4x4/hm-ar-4x4/unchecked", 0x0ac7ed611863210c),
    ("a100-4x4/ring-ag-16/validated", 0x91751321bb4f548e),
    ("a100-4x4/ring-ag-16/unchecked", 0xf399f15a4ce83add),
    ("a100-4x4/ring-rs-16/validated", 0x91751321bb4f548e),
    ("a100-4x4/ring-rs-16/unchecked", 0xf399f15a4ce83add),
    ("a100-4x4/ring-ar-16/validated", 0xc7c5630f3c0c2410),
    ("a100-4x4/ring-ar-16/unchecked", 0x1337c5cec616d6ed),
    ("a100-4x4/nccl-rings2-ar-4x4/validated", 0xba83acb299c33bc0),
    ("a100-4x4/nccl-rings2-ar-4x4/unchecked", 0x7261227339959f1d),
    ("a100-4x4/recdbl-ag-16/validated", 0xe03bc30cb94b34c9),
    ("a100-4x4/recdbl-ag-16/unchecked", 0x5e3784005c45b83a),
    ("a100-4x4/rechlv-rs-16/validated", 0x258451d49436cff3),
    ("a100-4x4/rechlv-rs-16/unchecked", 0x49f5e24bd37ac98c),
    ("a100-4x4/rechd-ar-16/validated", 0x0cb39027d4d031a1),
    ("a100-4x4/rechd-ar-16/unchecked", 0x9e91a63f9c306204),
    ("a100-4x4/dbtree-ar-16/validated", 0xfc1f24cb00607c1a),
    ("a100-4x4/dbtree-ar-16/unchecked", 0x387cdd681a047d47),
];
const GOLDEN_TOPO4: &[(&str, u64)] = &[
    ("a100-4x8/hm-ag-4x8/validated", 0x02268fdd0bc94841),
    ("a100-4x8/hm-ag-4x8/unchecked", 0x6382bf9f16e98e34),
    ("a100-4x8/hm-rs-4x8/validated", 0xf42d6086cde6bf2e),
    ("a100-4x8/hm-rs-4x8/unchecked", 0xb733ac5dd52d4f8b),
    ("a100-4x8/hm-ar-4x8/validated", 0x8d9b9f1a46c1c81b),
    ("a100-4x8/hm-ar-4x8/unchecked", 0xe81c049f22a8074a),
    ("a100-4x8/ring-ag-32/validated", 0x53319566fd00e95a),
    ("a100-4x8/ring-ag-32/unchecked", 0x041b9e379fe99627),
    ("a100-4x8/ring-rs-32/validated", 0x53319566fd00e95a),
    ("a100-4x8/ring-rs-32/unchecked", 0x041b9e379fe99627),
    ("a100-4x8/ring-ar-32/validated", 0x58e41d129428a2e0),
    ("a100-4x8/ring-ar-32/unchecked", 0xb66465bcbeec4be9),
    ("a100-4x8/nccl-rings2-ar-4x8/validated", 0x2c811c46a7682c13),
    ("a100-4x8/nccl-rings2-ar-4x8/unchecked", 0x8e474b30a233f432),
    ("a100-4x8/recdbl-ag-32/validated", 0x948e45e867b3b8e5),
    ("a100-4x8/recdbl-ag-32/unchecked", 0xc8532f2385d8bb88),
    ("a100-4x8/rechlv-rs-32/validated", 0x3f41b9a01ec32565),
    ("a100-4x8/rechlv-rs-32/unchecked", 0xf69ccba2abe78c08),
    ("a100-4x8/rechd-ar-32/validated", 0x0fa1f225964abee4),
    ("a100-4x8/rechd-ar-32/unchecked", 0xc966538019cf98cd),
    ("a100-4x8/dbtree-ar-32/validated", 0x0c0bfde378523395),
    ("a100-4x8/dbtree-ar-32/unchecked", 0xe19304a5dfb691bc),
];
const GOLDEN_BACKENDS: &[(&str, u64)] = &[
    ("nccl/hm-ar-2x4/validated", 0x53a66a904026349b),
    ("nccl/hm-ar-2x4/unchecked", 0x6cf40a28e276db30),
    ("nccl/ring-ag-8/validated", 0xe1d4021e0e4f0dfb),
    ("nccl/ring-ag-8/unchecked", 0xf899ef629419de18),
    ("msccl/hm-ar-2x4/validated", 0xa3496dacf9ea2b98),
    ("msccl/hm-ar-2x4/unchecked", 0x4f1881c06ac1daa3),
    ("msccl/ring-ag-8/validated", 0x67d5a73818c69fa4),
    ("msccl/ring-ag-8/unchecked", 0x25f6c093cb84a1b7),
    ("resccl-fused/hm-ar-2x4/validated", 0x58d66d41c90dec65),
    ("resccl-fused/hm-ar-2x4/unchecked", 0x849af3f92c5a0caa),
    ("resccl-fused/ring-ag-8/validated", 0xb352bcf2d203a3e3),
    ("resccl-fused/ring-ag-8/unchecked", 0x0da194e3078e9390),
    ("resccl-rr/hm-ar-2x4/validated", 0xa4d5d0f975fd93ef),
    ("resccl-rr/hm-ar-2x4/unchecked", 0xf19c775aac213f64),
    ("resccl-rr/ring-ag-8/validated", 0xaeb985d3f2ab6552),
    ("resccl-rr/ring-ag-8/unchecked", 0x8517117c25af6d9d),
    ("msccl-1ch/hm-ar-2x4/validated", 0x6727ae7dc870481d),
    ("msccl-1ch/hm-ar-2x4/unchecked", 0x9bd03df54ca383d2),
    ("msccl-1ch/ring-ag-8/validated", 0x82a740237f0f00d0),
    ("msccl-1ch/ring-ag-8/unchecked", 0x43dca27d223f4af3),
    ("msccl-1ch-direct/hm-ar-2x4/validated", 0xa3cc7813b2304404),
    ("msccl-1ch-direct/hm-ar-2x4/unchecked", 0xf6989d1f541727af),
    ("msccl-1ch-direct/ring-ag-8/validated", 0x9392008d9027e3d8),
    ("msccl-1ch-direct/ring-ag-8/unchecked", 0x2c23b2168d9c69ab),
    ("nccl-1ch/hm-ar-2x4/validated", 0xa3cc7813b2304404),
    ("nccl-1ch/hm-ar-2x4/unchecked", 0xf6989d1f541727af),
    ("nccl-1ch/ring-ag-8/validated", 0x9392008d9027e3d8),
    ("nccl-1ch/ring-ag-8/unchecked", 0x2c23b2168d9c69ab),
    ("nccl-12ch/hm-ar-2x4/validated", 0xd08012ce342e058f),
    ("nccl-12ch/hm-ar-2x4/unchecked", 0x3ad4bfe823a7f184),
    ("nccl-12ch/ring-ag-8/validated", 0xdb0b302a46796f63),
    ("nccl-12ch/ring-ag-8/unchecked", 0xd826df33e0eebb10),
    ("fig4-p2p/ring-allgather", 0xd1f3d84b13a947e8),
];
const PHYSICS_INSTRUMENTATION: &[(&str, u64)] = &[
    ("observability", 0x98f1218c1c7f61ef),
    ("trace", 0xaa94868f9159df29),
    ("jitter", 0xc47b033f48619208),
    ("jitter+trace", 0xa159da3b0cd970ad),
    ("jitter+observability", 0xd86789744f8c32cd),
    ("light-jitter+trace+observability", 0x7dd5366db0948ddf),
];
const PHYSICS_FAULTS: &[(&str, u64)] = &[
    ("healthy", 0xa4b27336c9576507),
    ("brownout+straggler", 0x2dfeb10e104dbf89),
    ("jitter+brownout+straggler", 0xff872f01273bee3f),
    ("link-down", 0x19a373d2ddd4495c),
    ("resume", 0x1bb16d3639008551),
    ("flap", 0x6164f60ec398b9ee),
    ("advanced-kill", 0x9d1682992f3c335b),
];
const PHYSICS_INSTANT: &[(&str, u64)] = &[
    ("brownout-at-burst", 0x8f73d9b5e43457f1),
    ("link-down-at-burst", 0x810cc1ee523f5e14),
];
const GOLDEN_INSTRUMENTATION: &[(&str, u64)] = &[
    ("observability", 0xb40630a449fdfbc5),
    ("trace", 0x6427892107c25763),
    ("jitter", 0xce96c73d1906e54c),
    ("jitter+trace", 0x8d0baec2af5a87f9),
    ("jitter+observability", 0xef1853bc8d3e67ff),
    ("light-jitter+trace+observability", 0x4cc80cdf88dac48f),
];
const GOLDEN_FAULTS: &[(&str, u64)] = &[
    ("healthy", 0xa4ebcdab910299a5),
    ("brownout+straggler", 0xcb4c60c594b8f047),
    ("jitter+brownout+straggler", 0xd8fd4014546a6bbf),
    ("link-down", 0x27681b66d488a03d),
    ("resume", 0xe4013e191df8c569),
    ("flap", 0x88c2b66f06fd5241),
    ("advanced-kill", 0x1fb0cce158fc3a15),
];
const GOLDEN_INSTANT: &[(&str, u64)] = &[
    ("brownout-at-burst", 0x3e8bf2951d6ce689),
    ("link-down-at-burst", 0x6d602202b5ec546d),
];
const GOLDEN_TRAIN: &[(&str, u64)] = &[
    ("GPT-3 6.7B/nccl", 0x4229a5d818f881ea),
    ("GPT-3 6.7B/msccl", 0xe5ae91e601d30c19),
    ("GPT-3 6.7B/resccl", 0x704d2b3f87cf73ad),
    ("T5 770M/nccl", 0xcec4c6f6221d9594),
    ("T5 770M/msccl", 0x7ce2285a54f6742f),
    ("T5 770M/resccl", 0x543a8467ee6a46d7),
];
