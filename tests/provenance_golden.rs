//! Golden oracle for the per-chunk provenance replays.
//!
//! Three passes replay a chunk's transfer history against the
//! collective's contract: the static verifier (`verify_collective`), the
//! dead-transfer lint RA004, and the resume check's provenance proof
//! (`residual_plan`). Each case keeps the FNV-1a digest of one pass's
//! verdict, rendered as text:
//!
//! * `verify/…` — `verify_collective`'s `Ok`, or its error's `Display`;
//! * `ra004/…` — RA004's report as `AnalysisReport::to_json()`;
//! * `residual/…` — `ok` when the plan may resume from the frontier, or
//!   the resume check's error `Display`.
//!
//! The corpus is the seed suite on the Table-3 topologies, plus seeded
//! corruptions of every spec (a dropped transfer, a duplicated reduction,
//! a transfer moved one step later), plus seeded downward-closed fault
//! frontiers for the resume cases. A change to how any of these passes
//! replays a chunk must leave every digest alone; on a mismatch the
//! failure message prints the table the current code produces.

use rescc::algos::{ring_allgather, seed_suite};
use rescc::alloc::TbAllocation;
use rescc::analyze::{lints, AnalysisInput, AnalysisReport};
use rescc::core::{CompiledPlan, Compiler, LintGate};
use rescc::ir::DepDag;
use rescc::kernel::{ExecMode, KernelProgram, LoopOrder};
use rescc::lang::{verify_collective, AlgoSpec, CommType, OpType, TransferRec};
use rescc::sched::hpds;
use rescc::sim::FaultFrontier;
use rescc::topology::{ChunkId, Rank, Step, Topology};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A small deterministic generator (64-bit LCG) seeded from a case name.
struct Lcg(u64);

impl Lcg {
    fn new(name: &str) -> Self {
        Self(fnv1a(name.as_bytes()))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
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
            "provenance verdicts diverged from the golden table on {diff:?}; \
             the current code produces:\n{table}"
        );
    }
}

/// The three seeded corruptions of `spec`. `Err` carries the spec
/// validator's message when a corruption yields an invalid spec (e.g. a
/// moved transfer colliding with an existing tuple), and `None` marks a
/// corruption that does not apply (no reduction to duplicate).
fn corruptions(
    spec: &AlgoSpec,
    tag: &str,
) -> Vec<(&'static str, Option<Result<AlgoSpec, String>>)> {
    let ts = spec.transfers();
    let rebuild = |kind: &str, ts: Vec<TransferRec>| {
        AlgoSpec::new(
            format!("{}-{kind}", spec.name()),
            spec.op(),
            spec.n_ranks(),
            ts,
        )
        .map_err(|e| e.to_string())
    };

    let mut rng = Lcg::new(&format!("{tag}/drop"));
    let mut dropped = ts.to_vec();
    dropped.remove(rng.below(ts.len()));

    let rrcs: Vec<&TransferRec> = ts.iter().filter(|t| t.comm == CommType::Rrc).collect();
    let duplicated = (!rrcs.is_empty()).then(|| {
        let mut rng = Lcg::new(&format!("{tag}/dup-rrc"));
        let t = *rrcs[rng.below(rrcs.len())];
        let mut v = ts.to_vec();
        v.push(TransferRec {
            step: Step::new(t.step.0 + 1),
            ..t
        });
        rebuild("dup-rrc", v)
    });

    let mut rng = Lcg::new(&format!("{tag}/late"));
    let mut late = ts.to_vec();
    let i = rng.below(ts.len());
    late[i].step = Step::new(late[i].step.0 + 1);

    vec![
        ("drop", Some(rebuild("drop", dropped))),
        ("dup-rrc", duplicated),
        ("late", Some(rebuild("late", late))),
    ]
}

fn verify_verdict(spec: &AlgoSpec) -> String {
    match verify_collective(spec) {
        Ok(()) => "ok".to_string(),
        Err(e) => e.to_string(),
    }
}

/// RA004 on a freshly built stack, rendered as the `--json` report.
fn ra004_report(spec: &AlgoSpec, topo: &Topology) -> String {
    let dag = DepDag::build(spec, topo).expect("dag");
    let schedule = hpds(&dag);
    let alloc = TbAllocation::connection_based(&dag, &schedule, 1);
    let program = KernelProgram::generate(
        spec.name(),
        &dag,
        &alloc,
        LoopOrder::SlotMajor,
        ExecMode::DirectKernel,
    );
    let input = AnalysisInput {
        spec,
        dag: &dag,
        schedule: &schedule,
        alloc: &alloc,
        program: &program,
        topo,
    };
    let mut out = Vec::new();
    lints::ra004_dead_transfer(&input, &mut out);
    AnalysisReport::new(out).to_json()
}

/// Verifier and RA004 verdicts over the seed suite on Table-3 topology
/// `i` and every seeded corruption of each spec.
fn contract_digests(i: usize) -> Vec<(String, u64)> {
    let topo = Topology::table3_topo(i).expect("table 3 preset");
    let shape = topo.spec();
    let mut out = Vec::new();
    for spec in seed_suite(shape.n_nodes, shape.gpus_per_node) {
        let tag = format!("{}/{}", topo.name(), spec.name());
        out.push((
            format!("verify/{tag}"),
            fnv1a(verify_verdict(&spec).as_bytes()),
        ));
        out.push((
            format!("ra004/{tag}"),
            fnv1a(ra004_report(&spec, &topo).as_bytes()),
        ));
        for (kind, corrupted) in corruptions(&spec, &tag) {
            let (verify, ra004) = match corrupted {
                None => continue,
                Some(Err(e)) => (e.clone(), e),
                Some(Ok(bad)) => (verify_verdict(&bad), ra004_report(&bad, &topo)),
            };
            out.push((format!("verify/{tag}/{kind}"), fnv1a(verify.as_bytes())));
            out.push((format!("ra004/{tag}/{kind}"), fnv1a(ra004.as_bytes())));
        }
    }
    out
}

/// A seeded downward-closed frontier: per chunk, a random step-order
/// prefix of the chain is complete in every micro-batch, and the next task
/// has a random prefix of its micro-batches complete.
fn seeded_frontier(plan: &CompiledPlan, n_mb: u32, seed: &str) -> FaultFrontier {
    let mut rng = Lcg::new(seed);
    let mut f = FaultFrontier::new(plan.dag.len() as u32, n_mb, 1_000_000);
    for c in 0..plan.dag.n_chunks() {
        let chain = plan.dag.chunk_tasks(ChunkId::new(c));
        let full = rng.below(chain.len() + 1);
        for tid in &chain[..full] {
            for mb in 0..n_mb {
                f.mark(tid.0, mb);
            }
        }
        if let Some(next) = chain.get(full) {
            for mb in 0..rng.below(n_mb as usize) as u32 {
                f.mark(next.0, mb);
            }
        }
    }
    f
}

fn residual_verdict(compiler: &Compiler, plan: &CompiledPlan, frontier: &FaultFrontier) -> String {
    match compiler.residual_plan(plan, frontier) {
        Ok(()) => "ok".to_string(),
        Err(e) => e.to_string(),
    }
}

/// `residual_plan` (the resume provenance proof) over seeded frontiers
/// of the seed suite and of its corruptions on Table-3 topology `i`.
fn residual_digests(i: usize) -> Vec<(String, u64)> {
    const N_MB: u32 = 3;
    let topo = Topology::table3_topo(i).expect("table 3 preset");
    let shape = topo.spec();
    let compiler = Compiler::new().with_lint_gate(LintGate::Warn);
    let mut unverified = compiler.clone();
    unverified.verify = false;
    let mut out = Vec::new();
    for spec in seed_suite(shape.n_nodes, shape.gpus_per_node) {
        let tag = format!("{}/{}", topo.name(), spec.name());
        let mut specs = vec![(tag.clone(), spec.clone())];
        for (kind, corrupted) in corruptions(&spec, &tag) {
            if let Some(Ok(bad)) = corrupted {
                specs.push((format!("{tag}/{kind}"), bad));
            }
        }
        for (name, spec) in specs {
            let plan = match unverified.compile_spec(&spec, &topo) {
                Ok(plan) => plan,
                Err(e) => {
                    out.push((format!("residual/{name}"), fnv1a(e.to_string().as_bytes())));
                    continue;
                }
            };
            for k in 0..2 {
                let seed = format!("{name}/frontier{k}");
                let frontier = seeded_frontier(&plan, N_MB, &seed);
                let verdict = residual_verdict(&compiler, &plan, &frontier);
                out.push((format!("residual/{seed}"), fnv1a(verdict.as_bytes())));
            }
        }
    }
    out
}

#[test]
fn contracts_topo1() {
    check(&contract_digests(1), GOLDEN_CONTRACT_TOPO1);
}

#[test]
fn contracts_topo2() {
    check(&contract_digests(2), GOLDEN_CONTRACT_TOPO2);
}

#[test]
fn contracts_topo3() {
    check(&contract_digests(3), GOLDEN_CONTRACT_TOPO3);
}

#[test]
fn contracts_topo4() {
    check(&contract_digests(4), GOLDEN_CONTRACT_TOPO4);
}

#[test]
fn residuals_topo1() {
    check(&residual_digests(1), GOLDEN_RESIDUAL_TOPO1);
}

#[test]
fn residuals_topo2() {
    check(&residual_digests(2), GOLDEN_RESIDUAL_TOPO2);
}

/// The RA004 fixture's ring-plus-dead plan: a ring AllGather plus two
/// late copies into one slot, the first overwritten by the second, with
/// seeded frontiers.
#[test]
fn residuals_ring_plus_dead() {
    let topo = Topology::a100(1, 4);
    let ring = ring_allgather(4);
    let last = ring.max_step().0;
    let mut transfers = ring.transfers().to_vec();
    for step in [last + 1, last + 2] {
        transfers.push(TransferRec {
            src: Rank::new(2),
            dst: Rank::new(1),
            step: Step::new(step),
            chunk: ChunkId::new(0),
            comm: CommType::Recv,
        });
    }
    let spec = AlgoSpec::new("ring-plus-dead", OpType::AllGather, 4, transfers).expect("spec");
    let compiler = Compiler::new().with_lint_gate(LintGate::Warn);
    let plan = compiler.compile_spec(&spec, &topo).expect("compiles");

    let mut got = vec![(
        "ra004/ring-plus-dead".to_string(),
        fnv1a(ra004_report(&spec, &topo).as_bytes()),
    )];
    for k in 0..4 {
        let seed = format!("ring-plus-dead/frontier{k}");
        let verdict = residual_verdict(&compiler, &plan, &seeded_frontier(&plan, 2, &seed));
        got.push((format!("residual/{seed}"), fnv1a(verdict.as_bytes())));
    }
    check(&got, GOLDEN_RING_PLUS_DEAD);
}

const GOLDEN_CONTRACT_TOPO1: &[(&str, u64)] = &[
    ("verify/a100-2x4/hm-ag-2x4", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/hm-ag-2x4", 0x26c8df2c6012929f),
    ("verify/a100-2x4/hm-ag-2x4/drop", 0xf08e289444ad6efa),
    ("ra004/a100-2x4/hm-ag-2x4/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x4/hm-ag-2x4/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/hm-ag-2x4/late", 0x26c8df2c6012929f),
    ("verify/a100-2x4/hm-rs-2x4", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/hm-rs-2x4", 0x26c8df2c6012929f),
    ("verify/a100-2x4/hm-rs-2x4/drop", 0x51cb549e1c694dc0),
    ("ra004/a100-2x4/hm-rs-2x4/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x4/hm-rs-2x4/dup-rrc", 0x6047243a23626ba2),
    ("ra004/a100-2x4/hm-rs-2x4/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-2x4/hm-rs-2x4/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/hm-rs-2x4/late", 0x26c8df2c6012929f),
    ("verify/a100-2x4/hm-ar-2x4", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/hm-ar-2x4", 0x26c8df2c6012929f),
    ("verify/a100-2x4/hm-ar-2x4/drop", 0x71ac27c97665ea1b),
    ("ra004/a100-2x4/hm-ar-2x4/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x4/hm-ar-2x4/dup-rrc", 0xab2cc13f72289c1c),
    ("ra004/a100-2x4/hm-ar-2x4/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-2x4/hm-ar-2x4/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/hm-ar-2x4/late", 0x26c8df2c6012929f),
    ("verify/a100-2x4/ring-ag-8", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/ring-ag-8", 0x26c8df2c6012929f),
    ("verify/a100-2x4/ring-ag-8/drop", 0xa3db5df5d2e23ce2),
    ("ra004/a100-2x4/ring-ag-8/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x4/ring-ag-8/late", 0x902ca17880d3f053),
    ("ra004/a100-2x4/ring-ag-8/late", 0x26c8df2c6012929f),
    ("verify/a100-2x4/ring-rs-8", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/ring-rs-8", 0x26c8df2c6012929f),
    ("verify/a100-2x4/ring-rs-8/drop", 0x496301f3259107e7),
    ("ra004/a100-2x4/ring-rs-8/drop", 0x3e8467e3b4b16de1),
    ("verify/a100-2x4/ring-rs-8/dup-rrc", 0xa0625aee079acd6a),
    ("ra004/a100-2x4/ring-rs-8/dup-rrc", 0xd3044aead3c14d90),
    ("verify/a100-2x4/ring-rs-8/late", 0x663ce3d0ac161173),
    ("ra004/a100-2x4/ring-rs-8/late", 0x7bcd294e681c6c98),
    ("verify/a100-2x4/ring-ar-8", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/ring-ar-8", 0x26c8df2c6012929f),
    ("verify/a100-2x4/ring-ar-8/drop", 0x3a5431ae2dc47e89),
    ("ra004/a100-2x4/ring-ar-8/drop", 0xc217cdd34426d75b),
    ("verify/a100-2x4/ring-ar-8/dup-rrc", 0xd1154f4b345ee404),
    ("ra004/a100-2x4/ring-ar-8/dup-rrc", 0x4a1795927c142099),
    ("verify/a100-2x4/ring-ar-8/late", 0x25223c3cf150e0b5),
    ("ra004/a100-2x4/ring-ar-8/late", 0x1cec49ebae72e2c6),
    ("verify/a100-2x4/nccl-rings2-ar-2x4", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/nccl-rings2-ar-2x4", 0x26c8df2c6012929f),
    (
        "verify/a100-2x4/nccl-rings2-ar-2x4/drop",
        0x22c10ec70d1c08b9,
    ),
    ("ra004/a100-2x4/nccl-rings2-ar-2x4/drop", 0x47080a3f290adf9d),
    (
        "verify/a100-2x4/nccl-rings2-ar-2x4/dup-rrc",
        0xbae67ef290d80cfc,
    ),
    (
        "ra004/a100-2x4/nccl-rings2-ar-2x4/dup-rrc",
        0xe0527ed21a33a734,
    ),
    (
        "verify/a100-2x4/nccl-rings2-ar-2x4/late",
        0x3692599bec07628f,
    ),
    ("ra004/a100-2x4/nccl-rings2-ar-2x4/late", 0x10824dee43f5ac5a),
    ("verify/a100-2x4/recdbl-ag-8", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/recdbl-ag-8", 0x26c8df2c6012929f),
    ("verify/a100-2x4/recdbl-ag-8/drop", 0x55e79e8e97ea0963),
    ("ra004/a100-2x4/recdbl-ag-8/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x4/recdbl-ag-8/late", 0x837196c9088bde91),
    ("ra004/a100-2x4/recdbl-ag-8/late", 0x26c8df2c6012929f),
    ("verify/a100-2x4/rechlv-rs-8", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/rechlv-rs-8", 0x26c8df2c6012929f),
    ("verify/a100-2x4/rechlv-rs-8/drop", 0x2dded94e654be4d5),
    ("ra004/a100-2x4/rechlv-rs-8/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x4/rechlv-rs-8/dup-rrc", 0x4cce5e9c1d2f56fa),
    ("ra004/a100-2x4/rechlv-rs-8/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-2x4/rechlv-rs-8/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/rechlv-rs-8/late", 0x26c8df2c6012929f),
    ("verify/a100-2x4/rechd-ar-8", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/rechd-ar-8", 0x26c8df2c6012929f),
    ("verify/a100-2x4/rechd-ar-8/drop", 0x325805e4e84c9e1a),
    ("ra004/a100-2x4/rechd-ar-8/drop", 0x442c6ba1f2840e0c),
    ("verify/a100-2x4/rechd-ar-8/dup-rrc", 0x8ab56c2986190b3d),
    ("ra004/a100-2x4/rechd-ar-8/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-2x4/rechd-ar-8/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/rechd-ar-8/late", 0x26c8df2c6012929f),
    ("verify/a100-2x4/dbtree-ar-8", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/dbtree-ar-8", 0x26c8df2c6012929f),
    ("verify/a100-2x4/dbtree-ar-8/drop", 0xbd6f8d241b60cc40),
    ("ra004/a100-2x4/dbtree-ar-8/drop", 0xe0e4af5c34676388),
    ("verify/a100-2x4/dbtree-ar-8/dup-rrc", 0x082795048b19c9c9),
    ("ra004/a100-2x4/dbtree-ar-8/dup-rrc", 0x39d1379dc7eabbc9),
    ("verify/a100-2x4/dbtree-ar-8/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x4/dbtree-ar-8/late", 0x26c8df2c6012929f),
];

const GOLDEN_CONTRACT_TOPO2: &[(&str, u64)] = &[
    ("verify/a100-2x8/hm-ag-2x8", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/hm-ag-2x8", 0x26c8df2c6012929f),
    ("verify/a100-2x8/hm-ag-2x8/drop", 0xdd6ccaee4f0e1166),
    ("ra004/a100-2x8/hm-ag-2x8/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x8/hm-ag-2x8/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/hm-ag-2x8/late", 0x26c8df2c6012929f),
    ("verify/a100-2x8/hm-rs-2x8", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/hm-rs-2x8", 0x26c8df2c6012929f),
    ("verify/a100-2x8/hm-rs-2x8/drop", 0xde32ce504c878924),
    ("ra004/a100-2x8/hm-rs-2x8/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x8/hm-rs-2x8/dup-rrc", 0xd7ede3f0be5fa536),
    ("ra004/a100-2x8/hm-rs-2x8/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-2x8/hm-rs-2x8/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/hm-rs-2x8/late", 0x26c8df2c6012929f),
    ("verify/a100-2x8/hm-ar-2x8", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/hm-ar-2x8", 0x26c8df2c6012929f),
    ("verify/a100-2x8/hm-ar-2x8/drop", 0xe5a591ba8a97ecb2),
    ("ra004/a100-2x8/hm-ar-2x8/drop", 0x68809c88975fa4b9),
    ("verify/a100-2x8/hm-ar-2x8/dup-rrc", 0xc576cdc7d8d5a37e),
    ("ra004/a100-2x8/hm-ar-2x8/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-2x8/hm-ar-2x8/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/hm-ar-2x8/late", 0x26c8df2c6012929f),
    ("verify/a100-2x8/ring-ag-16", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/ring-ag-16", 0x26c8df2c6012929f),
    ("verify/a100-2x8/ring-ag-16/drop", 0xd59e1744a758476e),
    ("ra004/a100-2x8/ring-ag-16/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x8/ring-ag-16/late", 0x7a13216f6f45f574),
    ("ra004/a100-2x8/ring-ag-16/late", 0x26c8df2c6012929f),
    ("verify/a100-2x8/ring-rs-16", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/ring-rs-16", 0x26c8df2c6012929f),
    ("verify/a100-2x8/ring-rs-16/drop", 0x7276a5016c1ac3f0),
    ("ra004/a100-2x8/ring-rs-16/drop", 0xfed29225abe7fc0b),
    ("verify/a100-2x8/ring-rs-16/dup-rrc", 0x9f05a29d32524448),
    ("ra004/a100-2x8/ring-rs-16/dup-rrc", 0xada6f714f8f62c08),
    ("verify/a100-2x8/ring-rs-16/late", 0x9c656dbf8f8f340c),
    ("ra004/a100-2x8/ring-rs-16/late", 0x30320794829c545f),
    ("verify/a100-2x8/ring-ar-16", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/ring-ar-16", 0x26c8df2c6012929f),
    ("verify/a100-2x8/ring-ar-16/drop", 0x3611623f0f6a3cf7),
    ("ra004/a100-2x8/ring-ar-16/drop", 0x5ec3a08efae10657),
    ("verify/a100-2x8/ring-ar-16/dup-rrc", 0x464380a300a2eef4),
    ("ra004/a100-2x8/ring-ar-16/dup-rrc", 0x399df8217b15d2ac),
    ("verify/a100-2x8/ring-ar-16/late", 0x3a1f7cd105e6897c),
    ("ra004/a100-2x8/ring-ar-16/late", 0x26c8df2c6012929f),
    ("verify/a100-2x8/nccl-rings2-ar-2x8", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/nccl-rings2-ar-2x8", 0x26c8df2c6012929f),
    (
        "verify/a100-2x8/nccl-rings2-ar-2x8/drop",
        0x27c1661f10ed47a9,
    ),
    ("ra004/a100-2x8/nccl-rings2-ar-2x8/drop", 0x390b9742eaf3de6d),
    (
        "verify/a100-2x8/nccl-rings2-ar-2x8/dup-rrc",
        0x8beaac2a2a90e0af,
    ),
    (
        "ra004/a100-2x8/nccl-rings2-ar-2x8/dup-rrc",
        0xfd370e0aeeb4afd6,
    ),
    (
        "verify/a100-2x8/nccl-rings2-ar-2x8/late",
        0xc6fb0daf7faf4aec,
    ),
    ("ra004/a100-2x8/nccl-rings2-ar-2x8/late", 0x26c8df2c6012929f),
    ("verify/a100-2x8/recdbl-ag-16", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/recdbl-ag-16", 0x26c8df2c6012929f),
    ("verify/a100-2x8/recdbl-ag-16/drop", 0x5449fef93d02d339),
    ("ra004/a100-2x8/recdbl-ag-16/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x8/recdbl-ag-16/late", 0xefc8e7578b10fa72),
    ("ra004/a100-2x8/recdbl-ag-16/late", 0x26c8df2c6012929f),
    ("verify/a100-2x8/rechlv-rs-16", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/rechlv-rs-16", 0x26c8df2c6012929f),
    ("verify/a100-2x8/rechlv-rs-16/drop", 0x6f4184df00a0f933),
    ("ra004/a100-2x8/rechlv-rs-16/drop", 0x24c30c48a09160b4),
    ("verify/a100-2x8/rechlv-rs-16/dup-rrc", 0x97c947353197dbc6),
    ("ra004/a100-2x8/rechlv-rs-16/dup-rrc", 0x3b6f4e568479d5ad),
    ("verify/a100-2x8/rechlv-rs-16/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/rechlv-rs-16/late", 0x26c8df2c6012929f),
    ("verify/a100-2x8/rechd-ar-16", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/rechd-ar-16", 0x26c8df2c6012929f),
    ("verify/a100-2x8/rechd-ar-16/drop", 0x6523f1cfbe5dc863),
    ("ra004/a100-2x8/rechd-ar-16/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x8/rechd-ar-16/dup-rrc", 0x74c04cf92b97b6ba),
    ("ra004/a100-2x8/rechd-ar-16/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-2x8/rechd-ar-16/late", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/rechd-ar-16/late", 0x26c8df2c6012929f),
    ("verify/a100-2x8/dbtree-ar-16", 0x08b05d07b5566bef),
    ("ra004/a100-2x8/dbtree-ar-16", 0x26c8df2c6012929f),
    ("verify/a100-2x8/dbtree-ar-16/drop", 0x36c983619e8b873d),
    ("ra004/a100-2x8/dbtree-ar-16/drop", 0x26c8df2c6012929f),
    ("verify/a100-2x8/dbtree-ar-16/dup-rrc", 0x36744df9bd5c85cc),
    ("ra004/a100-2x8/dbtree-ar-16/dup-rrc", 0x3f0fbcdf41d526ee),
    ("verify/a100-2x8/dbtree-ar-16/late", 0x12223c5dee1be3d7),
    ("ra004/a100-2x8/dbtree-ar-16/late", 0x26c8df2c6012929f),
];

const GOLDEN_CONTRACT_TOPO3: &[(&str, u64)] = &[
    ("verify/a100-4x4/hm-ag-4x4", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/hm-ag-4x4", 0x26c8df2c6012929f),
    ("verify/a100-4x4/hm-ag-4x4/drop", 0x4a263ad023fb7db4),
    ("ra004/a100-4x4/hm-ag-4x4/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x4/hm-ag-4x4/late", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/hm-ag-4x4/late", 0x26c8df2c6012929f),
    ("verify/a100-4x4/hm-rs-4x4", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/hm-rs-4x4", 0x26c8df2c6012929f),
    ("verify/a100-4x4/hm-rs-4x4/drop", 0xa85bcf5311376bee),
    ("ra004/a100-4x4/hm-rs-4x4/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x4/hm-rs-4x4/dup-rrc", 0xfdfeabff5148f668),
    ("ra004/a100-4x4/hm-rs-4x4/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-4x4/hm-rs-4x4/late", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/hm-rs-4x4/late", 0x26c8df2c6012929f),
    ("verify/a100-4x4/hm-ar-4x4", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/hm-ar-4x4", 0x26c8df2c6012929f),
    ("verify/a100-4x4/hm-ar-4x4/drop", 0x4b0011d471ba2873),
    ("ra004/a100-4x4/hm-ar-4x4/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x4/hm-ar-4x4/dup-rrc", 0xb4f5e3ac3711573f),
    ("ra004/a100-4x4/hm-ar-4x4/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-4x4/hm-ar-4x4/late", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/hm-ar-4x4/late", 0x26c8df2c6012929f),
    ("verify/a100-4x4/ring-ag-16", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/ring-ag-16", 0x26c8df2c6012929f),
    ("verify/a100-4x4/ring-ag-16/drop", 0x19ad9d9a2a74bbac),
    ("ra004/a100-4x4/ring-ag-16/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x4/ring-ag-16/late", 0x7b78cb26addea86f),
    ("ra004/a100-4x4/ring-ag-16/late", 0x26c8df2c6012929f),
    ("verify/a100-4x4/ring-rs-16", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/ring-rs-16", 0x26c8df2c6012929f),
    ("verify/a100-4x4/ring-rs-16/drop", 0x5a8c6be821f07676),
    ("ra004/a100-4x4/ring-rs-16/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x4/ring-rs-16/dup-rrc", 0xbd3639ab0e73f58b),
    ("ra004/a100-4x4/ring-rs-16/dup-rrc", 0xdbaf0d71429bf20c),
    ("verify/a100-4x4/ring-rs-16/late", 0x91fd9bb1187d3b5d),
    ("ra004/a100-4x4/ring-rs-16/late", 0xd529c59f0ca6b114),
    ("verify/a100-4x4/ring-ar-16", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/ring-ar-16", 0x26c8df2c6012929f),
    ("verify/a100-4x4/ring-ar-16/drop", 0x68aa89750a3c1a4a),
    ("ra004/a100-4x4/ring-ar-16/drop", 0x37a273524821c4f6),
    ("verify/a100-4x4/ring-ar-16/dup-rrc", 0x6a05a5a15af40e4f),
    ("ra004/a100-4x4/ring-ar-16/dup-rrc", 0x2bb718d3f0f64149),
    ("verify/a100-4x4/ring-ar-16/late", 0x052de5e72cb351c1),
    ("ra004/a100-4x4/ring-ar-16/late", 0x26c8df2c6012929f),
    ("verify/a100-4x4/nccl-rings2-ar-4x4", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/nccl-rings2-ar-4x4", 0x26c8df2c6012929f),
    (
        "verify/a100-4x4/nccl-rings2-ar-4x4/drop",
        0x50b5cbcd479f36d6,
    ),
    ("ra004/a100-4x4/nccl-rings2-ar-4x4/drop", 0x26c8df2c6012929f),
    (
        "verify/a100-4x4/nccl-rings2-ar-4x4/dup-rrc",
        0x8e3bc7420854c41d,
    ),
    (
        "ra004/a100-4x4/nccl-rings2-ar-4x4/dup-rrc",
        0xbe536a7f87bd3a9d,
    ),
    (
        "verify/a100-4x4/nccl-rings2-ar-4x4/late",
        0xfc865882052409b7,
    ),
    ("ra004/a100-4x4/nccl-rings2-ar-4x4/late", 0x26c8df2c6012929f),
    ("verify/a100-4x4/recdbl-ag-16", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/recdbl-ag-16", 0x26c8df2c6012929f),
    ("verify/a100-4x4/recdbl-ag-16/drop", 0x87d498961415c9e7),
    ("ra004/a100-4x4/recdbl-ag-16/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x4/recdbl-ag-16/late", 0xf460c109d8c9b08b),
    ("ra004/a100-4x4/recdbl-ag-16/late", 0x26c8df2c6012929f),
    ("verify/a100-4x4/rechlv-rs-16", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/rechlv-rs-16", 0x26c8df2c6012929f),
    ("verify/a100-4x4/rechlv-rs-16/drop", 0xed8d91ba5f72a4b0),
    ("ra004/a100-4x4/rechlv-rs-16/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x4/rechlv-rs-16/dup-rrc", 0x06a585a09c79bed7),
    ("ra004/a100-4x4/rechlv-rs-16/dup-rrc", 0xf13c0a916a7df569),
    ("verify/a100-4x4/rechlv-rs-16/late", 0x2415c201a294fa5c),
    ("ra004/a100-4x4/rechlv-rs-16/late", 0x1c39776a61850ea8),
    ("verify/a100-4x4/rechd-ar-16", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/rechd-ar-16", 0x26c8df2c6012929f),
    ("verify/a100-4x4/rechd-ar-16/drop", 0x44539324e92dc1b9),
    ("ra004/a100-4x4/rechd-ar-16/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x4/rechd-ar-16/dup-rrc", 0x99347e476f8f9508),
    ("ra004/a100-4x4/rechd-ar-16/dup-rrc", 0xd474569d4179d20d),
    ("verify/a100-4x4/rechd-ar-16/late", 0xb6ee3b8171b1cafd),
    ("ra004/a100-4x4/rechd-ar-16/late", 0x26c8df2c6012929f),
    ("verify/a100-4x4/dbtree-ar-16", 0x08b05d07b5566bef),
    ("ra004/a100-4x4/dbtree-ar-16", 0x26c8df2c6012929f),
    ("verify/a100-4x4/dbtree-ar-16/drop", 0x282a98f8ce3cd54f),
    ("ra004/a100-4x4/dbtree-ar-16/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x4/dbtree-ar-16/dup-rrc", 0x2dc85a61cbb8c972),
    ("ra004/a100-4x4/dbtree-ar-16/dup-rrc", 0x8b6bc065f9713c56),
    ("verify/a100-4x4/dbtree-ar-16/late", 0x82f2c7c441f9ce21),
    ("ra004/a100-4x4/dbtree-ar-16/late", 0x26c8df2c6012929f),
];

const GOLDEN_CONTRACT_TOPO4: &[(&str, u64)] = &[
    ("verify/a100-4x8/hm-ag-4x8", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/hm-ag-4x8", 0x26c8df2c6012929f),
    ("verify/a100-4x8/hm-ag-4x8/drop", 0x360e202ff87c0850),
    ("ra004/a100-4x8/hm-ag-4x8/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x8/hm-ag-4x8/late", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/hm-ag-4x8/late", 0x26c8df2c6012929f),
    ("verify/a100-4x8/hm-rs-4x8", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/hm-rs-4x8", 0x26c8df2c6012929f),
    ("verify/a100-4x8/hm-rs-4x8/drop", 0x44ea80934a286f3e),
    ("ra004/a100-4x8/hm-rs-4x8/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x8/hm-rs-4x8/dup-rrc", 0xcb429268ed2953a8),
    ("ra004/a100-4x8/hm-rs-4x8/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-4x8/hm-rs-4x8/late", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/hm-rs-4x8/late", 0x26c8df2c6012929f),
    ("verify/a100-4x8/hm-ar-4x8", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/hm-ar-4x8", 0x26c8df2c6012929f),
    ("verify/a100-4x8/hm-ar-4x8/drop", 0x75501543f0aaae78),
    ("ra004/a100-4x8/hm-ar-4x8/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x8/hm-ar-4x8/dup-rrc", 0x70b7db65640650e6),
    ("ra004/a100-4x8/hm-ar-4x8/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-4x8/hm-ar-4x8/late", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/hm-ar-4x8/late", 0x26c8df2c6012929f),
    ("verify/a100-4x8/ring-ag-32", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/ring-ag-32", 0x26c8df2c6012929f),
    ("verify/a100-4x8/ring-ag-32/drop", 0xd41023865360be4f),
    ("ra004/a100-4x8/ring-ag-32/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x8/ring-ag-32/late", 0x425faa59d910e2d0),
    ("ra004/a100-4x8/ring-ag-32/late", 0x26c8df2c6012929f),
    ("verify/a100-4x8/ring-rs-32", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/ring-rs-32", 0x26c8df2c6012929f),
    ("verify/a100-4x8/ring-rs-32/drop", 0xf7bc456dcec14c62),
    ("ra004/a100-4x8/ring-rs-32/drop", 0xaa6a22e9f4c2ffcb),
    ("verify/a100-4x8/ring-rs-32/dup-rrc", 0x6dddeaa47733890f),
    ("ra004/a100-4x8/ring-rs-32/dup-rrc", 0xbf605346f690f7cd),
    ("verify/a100-4x8/ring-rs-32/late", 0x624e05dda1009138),
    ("ra004/a100-4x8/ring-rs-32/late", 0x3673f6954fe29a54),
    ("verify/a100-4x8/ring-ar-32", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/ring-ar-32", 0x26c8df2c6012929f),
    ("verify/a100-4x8/ring-ar-32/drop", 0x475e214889e5b8ff),
    ("ra004/a100-4x8/ring-ar-32/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x8/ring-ar-32/dup-rrc", 0x6ae95537163ecd56),
    ("ra004/a100-4x8/ring-ar-32/dup-rrc", 0xabe976f7da38774d),
    ("verify/a100-4x8/ring-ar-32/late", 0x27942ec7d1db3f6f),
    ("ra004/a100-4x8/ring-ar-32/late", 0x26c8df2c6012929f),
    ("verify/a100-4x8/nccl-rings2-ar-4x8", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/nccl-rings2-ar-4x8", 0x26c8df2c6012929f),
    (
        "verify/a100-4x8/nccl-rings2-ar-4x8/drop",
        0x1d5b10777c94fcff,
    ),
    ("ra004/a100-4x8/nccl-rings2-ar-4x8/drop", 0xf5151b05f4a3e755),
    (
        "verify/a100-4x8/nccl-rings2-ar-4x8/dup-rrc",
        0x9084547432adf3d6,
    ),
    (
        "ra004/a100-4x8/nccl-rings2-ar-4x8/dup-rrc",
        0x74a193a8478e5997,
    ),
    (
        "verify/a100-4x8/nccl-rings2-ar-4x8/late",
        0x2870e34745962328,
    ),
    ("ra004/a100-4x8/nccl-rings2-ar-4x8/late", 0x99a956cb992aeb1b),
    ("verify/a100-4x8/recdbl-ag-32", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/recdbl-ag-32", 0x26c8df2c6012929f),
    ("verify/a100-4x8/recdbl-ag-32/drop", 0xb850153111aa8ede),
    ("ra004/a100-4x8/recdbl-ag-32/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x8/recdbl-ag-32/late", 0x25c305b383ebad99),
    ("ra004/a100-4x8/recdbl-ag-32/late", 0x26c8df2c6012929f),
    ("verify/a100-4x8/rechlv-rs-32", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/rechlv-rs-32", 0x26c8df2c6012929f),
    ("verify/a100-4x8/rechlv-rs-32/drop", 0x45e401f06ce2ab02),
    ("ra004/a100-4x8/rechlv-rs-32/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x8/rechlv-rs-32/dup-rrc", 0x35a35ee30d2fd17b),
    ("ra004/a100-4x8/rechlv-rs-32/dup-rrc", 0xcd9ca1e555a88cd5),
    ("verify/a100-4x8/rechlv-rs-32/late", 0xf130399cf4cbbe85),
    ("ra004/a100-4x8/rechlv-rs-32/late", 0x67e3ea8f94af402e),
    ("verify/a100-4x8/rechd-ar-32", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/rechd-ar-32", 0x26c8df2c6012929f),
    ("verify/a100-4x8/rechd-ar-32/drop", 0x13326e46b1d7527d),
    ("ra004/a100-4x8/rechd-ar-32/drop", 0xaab6a79e70f852ce),
    ("verify/a100-4x8/rechd-ar-32/dup-rrc", 0xe7125fa4408d1589),
    ("ra004/a100-4x8/rechd-ar-32/dup-rrc", 0x26c8df2c6012929f),
    ("verify/a100-4x8/rechd-ar-32/late", 0x2d52f4d330f99dca),
    ("ra004/a100-4x8/rechd-ar-32/late", 0xdbe1138d51a41e16),
    ("verify/a100-4x8/dbtree-ar-32", 0x08b05d07b5566bef),
    ("ra004/a100-4x8/dbtree-ar-32", 0x26c8df2c6012929f),
    ("verify/a100-4x8/dbtree-ar-32/drop", 0xb4bdf5cc263a5c7f),
    ("ra004/a100-4x8/dbtree-ar-32/drop", 0x26c8df2c6012929f),
    ("verify/a100-4x8/dbtree-ar-32/dup-rrc", 0xf4f32681dc112fbd),
    ("ra004/a100-4x8/dbtree-ar-32/dup-rrc", 0x698273b7e0b5602f),
    ("verify/a100-4x8/dbtree-ar-32/late", 0x47070a48c4b2d759),
    ("ra004/a100-4x8/dbtree-ar-32/late", 0x83f2bf7225ca48bb),
];

const GOLDEN_RESIDUAL_TOPO1: &[(&str, u64)] = &[
    ("residual/a100-2x4/hm-ag-2x4/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x4/hm-ag-2x4/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x4/hm-ag-2x4/drop/frontier0",
        0xa3f30ad2a0de6db7,
    ),
    (
        "residual/a100-2x4/hm-ag-2x4/drop/frontier1",
        0xa3f30ad2a0de6db7,
    ),
    (
        "residual/a100-2x4/hm-ag-2x4/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/hm-ag-2x4/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x4/hm-rs-2x4/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x4/hm-rs-2x4/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x4/hm-rs-2x4/drop/frontier0",
        0xa82bf8ba9ab252f6,
    ),
    (
        "residual/a100-2x4/hm-rs-2x4/drop/frontier1",
        0xa82bf8ba9ab252f6,
    ),
    (
        "residual/a100-2x4/hm-rs-2x4/dup-rrc/frontier0",
        0xdcc79b31e1118886,
    ),
    (
        "residual/a100-2x4/hm-rs-2x4/dup-rrc/frontier1",
        0xdcc79b31e1118886,
    ),
    (
        "residual/a100-2x4/hm-rs-2x4/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/hm-rs-2x4/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x4/hm-ar-2x4/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x4/hm-ar-2x4/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x4/hm-ar-2x4/drop/frontier0",
        0x8f69cfc4dc8ca33a,
    ),
    (
        "residual/a100-2x4/hm-ar-2x4/drop/frontier1",
        0x8f69cfc4dc8ca33a,
    ),
    (
        "residual/a100-2x4/hm-ar-2x4/dup-rrc/frontier0",
        0xc44f6d378208d8e9,
    ),
    (
        "residual/a100-2x4/hm-ar-2x4/dup-rrc/frontier1",
        0xc44f6d378208d8e9,
    ),
    (
        "residual/a100-2x4/hm-ar-2x4/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/hm-ar-2x4/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x4/ring-ag-8/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x4/ring-ag-8/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x4/ring-ag-8/drop/frontier0",
        0xcebddcb5d3af13cd,
    ),
    (
        "residual/a100-2x4/ring-ag-8/drop/frontier1",
        0xcebddcb5d3af13cd,
    ),
    (
        "residual/a100-2x4/ring-ag-8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/ring-ag-8/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x4/ring-rs-8/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x4/ring-rs-8/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x4/ring-rs-8/drop/frontier0",
        0x960e5d636c3e43ea,
    ),
    (
        "residual/a100-2x4/ring-rs-8/drop/frontier1",
        0x960e5d636c3e43ea,
    ),
    (
        "residual/a100-2x4/ring-rs-8/dup-rrc/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/ring-rs-8/dup-rrc/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/ring-rs-8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/ring-rs-8/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x4/ring-ar-8/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x4/ring-ar-8/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x4/ring-ar-8/drop/frontier0",
        0x4c2ba0fca4cab548,
    ),
    (
        "residual/a100-2x4/ring-ar-8/drop/frontier1",
        0x4c2ba0fca4cab548,
    ),
    (
        "residual/a100-2x4/ring-ar-8/dup-rrc/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/ring-ar-8/dup-rrc/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/ring-ar-8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/ring-ar-8/late/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/nccl-rings2-ar-2x4/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/nccl-rings2-ar-2x4/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/nccl-rings2-ar-2x4/drop/frontier0",
        0x4fc5146f7568ba43,
    ),
    (
        "residual/a100-2x4/nccl-rings2-ar-2x4/drop/frontier1",
        0x4fc5146f7568ba43,
    ),
    (
        "residual/a100-2x4/nccl-rings2-ar-2x4/dup-rrc/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/nccl-rings2-ar-2x4/dup-rrc/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/nccl-rings2-ar-2x4/late/frontier0",
        0xdc9afee806cb732d,
    ),
    (
        "residual/a100-2x4/nccl-rings2-ar-2x4/late/frontier1",
        0xdc9afee806cb732d,
    ),
    (
        "residual/a100-2x4/recdbl-ag-8/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/recdbl-ag-8/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/recdbl-ag-8/drop/frontier0",
        0x0751d96ce22e9fdb,
    ),
    (
        "residual/a100-2x4/recdbl-ag-8/drop/frontier1",
        0x0751d96ce22e9fdb,
    ),
    (
        "residual/a100-2x4/recdbl-ag-8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/recdbl-ag-8/late/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/rechlv-rs-8/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/rechlv-rs-8/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/rechlv-rs-8/drop/frontier0",
        0xa82bf8ba9ab252f6,
    ),
    (
        "residual/a100-2x4/rechlv-rs-8/drop/frontier1",
        0xa82bf8ba9ab252f6,
    ),
    (
        "residual/a100-2x4/rechlv-rs-8/dup-rrc/frontier0",
        0x4fe9c812fa7034f6,
    ),
    (
        "residual/a100-2x4/rechlv-rs-8/dup-rrc/frontier1",
        0x4fe9c812fa7034f6,
    ),
    (
        "residual/a100-2x4/rechlv-rs-8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/rechlv-rs-8/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x4/rechd-ar-8/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x4/rechd-ar-8/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x4/rechd-ar-8/drop/frontier0",
        0x4fc5146f7568ba43,
    ),
    (
        "residual/a100-2x4/rechd-ar-8/drop/frontier1",
        0x4fc5146f7568ba43,
    ),
    (
        "residual/a100-2x4/rechd-ar-8/dup-rrc/frontier0",
        0x8f69cfc4dc8ca33a,
    ),
    (
        "residual/a100-2x4/rechd-ar-8/dup-rrc/frontier1",
        0x8f69cfc4dc8ca33a,
    ),
    (
        "residual/a100-2x4/rechd-ar-8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/rechd-ar-8/late/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/dbtree-ar-8/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/dbtree-ar-8/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/dbtree-ar-8/drop/frontier0",
        0x774f8da9a2d92ec7,
    ),
    (
        "residual/a100-2x4/dbtree-ar-8/drop/frontier1",
        0x774f8da9a2d92ec7,
    ),
    (
        "residual/a100-2x4/dbtree-ar-8/dup-rrc/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/dbtree-ar-8/dup-rrc/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/dbtree-ar-8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x4/dbtree-ar-8/late/frontier1",
        0x08b05d07b5566bef,
    ),
];

const GOLDEN_RESIDUAL_TOPO2: &[(&str, u64)] = &[
    ("residual/a100-2x8/hm-ag-2x8/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x8/hm-ag-2x8/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x8/hm-ag-2x8/drop/frontier0",
        0x5769144aaf48dd31,
    ),
    (
        "residual/a100-2x8/hm-ag-2x8/drop/frontier1",
        0x5769144aaf48dd31,
    ),
    (
        "residual/a100-2x8/hm-ag-2x8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/hm-ag-2x8/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x8/hm-rs-2x8/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x8/hm-rs-2x8/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x8/hm-rs-2x8/drop/frontier0",
        0xa90f017240bdf2b6,
    ),
    (
        "residual/a100-2x8/hm-rs-2x8/drop/frontier1",
        0xa90f017240bdf2b6,
    ),
    (
        "residual/a100-2x8/hm-rs-2x8/dup-rrc/frontier0",
        0xdcc79b31e1118886,
    ),
    (
        "residual/a100-2x8/hm-rs-2x8/dup-rrc/frontier1",
        0xdcc79b31e1118886,
    ),
    (
        "residual/a100-2x8/hm-rs-2x8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/hm-rs-2x8/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x8/hm-ar-2x8/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x8/hm-ar-2x8/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x8/hm-ar-2x8/drop/frontier0",
        0x21a87c3d42092256,
    ),
    (
        "residual/a100-2x8/hm-ar-2x8/drop/frontier1",
        0x21a87c3d42092256,
    ),
    (
        "residual/a100-2x8/hm-ar-2x8/dup-rrc/frontier0",
        0x046769e1911e9c85,
    ),
    (
        "residual/a100-2x8/hm-ar-2x8/dup-rrc/frontier1",
        0x046769e1911e9c85,
    ),
    (
        "residual/a100-2x8/hm-ar-2x8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/hm-ar-2x8/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x8/ring-ag-16/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x8/ring-ag-16/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x8/ring-ag-16/drop/frontier0",
        0x1c334af5adda7a26,
    ),
    (
        "residual/a100-2x8/ring-ag-16/drop/frontier1",
        0x1c334af5adda7a26,
    ),
    (
        "residual/a100-2x8/ring-ag-16/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/ring-ag-16/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x8/ring-rs-16/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x8/ring-rs-16/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x8/ring-rs-16/drop/frontier0",
        0xa82bf8ba9ab252f6,
    ),
    (
        "residual/a100-2x8/ring-rs-16/drop/frontier1",
        0xa82bf8ba9ab252f6,
    ),
    (
        "residual/a100-2x8/ring-rs-16/dup-rrc/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/ring-rs-16/dup-rrc/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/ring-rs-16/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/ring-rs-16/late/frontier1",
        0x08b05d07b5566bef,
    ),
    ("residual/a100-2x8/ring-ar-16/frontier0", 0x08b05d07b5566bef),
    ("residual/a100-2x8/ring-ar-16/frontier1", 0x08b05d07b5566bef),
    (
        "residual/a100-2x8/ring-ar-16/drop/frontier0",
        0x774f8da9a2d92ec7,
    ),
    (
        "residual/a100-2x8/ring-ar-16/drop/frontier1",
        0x774f8da9a2d92ec7,
    ),
    (
        "residual/a100-2x8/ring-ar-16/dup-rrc/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/ring-ar-16/dup-rrc/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/ring-ar-16/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/ring-ar-16/late/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/nccl-rings2-ar-2x8/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/nccl-rings2-ar-2x8/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/nccl-rings2-ar-2x8/drop/frontier0",
        0x4fc5146f7568ba43,
    ),
    (
        "residual/a100-2x8/nccl-rings2-ar-2x8/drop/frontier1",
        0x4fc5146f7568ba43,
    ),
    (
        "residual/a100-2x8/nccl-rings2-ar-2x8/dup-rrc/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/nccl-rings2-ar-2x8/dup-rrc/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/nccl-rings2-ar-2x8/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/nccl-rings2-ar-2x8/late/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/recdbl-ag-16/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/recdbl-ag-16/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/recdbl-ag-16/drop/frontier0",
        0x2597bfcf42794f36,
    ),
    (
        "residual/a100-2x8/recdbl-ag-16/drop/frontier1",
        0x2597bfcf42794f36,
    ),
    (
        "residual/a100-2x8/recdbl-ag-16/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/recdbl-ag-16/late/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/rechlv-rs-16/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/rechlv-rs-16/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/rechlv-rs-16/drop/frontier0",
        0x960e5d636c3e43ea,
    ),
    (
        "residual/a100-2x8/rechlv-rs-16/drop/frontier1",
        0x960e5d636c3e43ea,
    ),
    (
        "residual/a100-2x8/rechlv-rs-16/dup-rrc/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/rechlv-rs-16/dup-rrc/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/rechlv-rs-16/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/rechlv-rs-16/late/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/rechd-ar-16/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/rechd-ar-16/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/rechd-ar-16/drop/frontier0",
        0x9ef8eee01b4308a6,
    ),
    (
        "residual/a100-2x8/rechd-ar-16/drop/frontier1",
        0x9ef8eee01b4308a6,
    ),
    (
        "residual/a100-2x8/rechd-ar-16/dup-rrc/frontier0",
        0x9ef8eee01b4308a6,
    ),
    (
        "residual/a100-2x8/rechd-ar-16/dup-rrc/frontier1",
        0x9ef8eee01b4308a6,
    ),
    (
        "residual/a100-2x8/rechd-ar-16/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/rechd-ar-16/late/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/dbtree-ar-16/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/dbtree-ar-16/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/dbtree-ar-16/drop/frontier0",
        0x942bf3fff83a8d6c,
    ),
    (
        "residual/a100-2x8/dbtree-ar-16/drop/frontier1",
        0x942bf3fff83a8d6c,
    ),
    (
        "residual/a100-2x8/dbtree-ar-16/dup-rrc/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/dbtree-ar-16/dup-rrc/frontier1",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/dbtree-ar-16/late/frontier0",
        0x08b05d07b5566bef,
    ),
    (
        "residual/a100-2x8/dbtree-ar-16/late/frontier1",
        0x08b05d07b5566bef,
    ),
];

const GOLDEN_RING_PLUS_DEAD: &[(&str, u64)] = &[
    ("ra004/ring-plus-dead", 0x87a9c9e88b3d2e57),
    ("residual/ring-plus-dead/frontier0", 0x08b05d07b5566bef),
    ("residual/ring-plus-dead/frontier1", 0x08b05d07b5566bef),
    ("residual/ring-plus-dead/frontier2", 0x08b05d07b5566bef),
    ("residual/ring-plus-dead/frontier3", 0x08b05d07b5566bef),
];
