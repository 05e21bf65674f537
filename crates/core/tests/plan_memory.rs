//! What a compiled plan costs to keep resident, measured: a counting
//! global allocator reads the live heap of each artifact of the HM 16×8
//! plans, of two small HM-AllReduce plans and of an NCCL-lowered one. The
//! test pins a ceiling per 16×8 plan, holds [`plan_cost_bytes`], the size
//! model the plan cache budgets against, to within ±20% of the measured
//! heap of each of these plans, which share nothing, and pins that a
//! rigid plan's slots do not grow with its channels. It also pins the
//! ceiling of a second HM-AllGather 16×8 plan whose spec is already
//! resident: one spec, many plans, so the second plan adds only its
//! topology-dependent artifacts.
//!
//! One test in its own binary: the allocator counts every thread, so no
//! other test may allocate while it measures.

use rescc_algos::{hm_allgather, hm_allreduce, hm_reduce_scatter};
use rescc_alloc::Tb;
use rescc_core::{plan_cost_bytes, CompiledPlan, Compiler, Lowering, SchedulerChoice};
use rescc_kernel::ExecMode;
use rescc_lang::AlgoSpec;
use rescc_topology::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting the bytes it has live.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter only observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The heap `drop_it` frees.
fn freed(drop_it: impl FnOnce()) -> usize {
    let before = live();
    drop_it();
    (before - live()) as usize
}

/// Live heap bytes of one plan, by artifact.
#[derive(Debug)]
struct PlanBytes {
    spec: usize,
    dag: usize,
    schedule: usize,
    alloc: usize,
    program: usize,
    table: usize,
    rest: usize,
}

impl PlanBytes {
    fn total(&self) -> usize {
        self.spec + self.dag + self.schedule + self.alloc + self.program + self.table + self.rest
    }
}

/// The NCCL baseline's compiler with `n_channels` channels.
fn nccl(n_channels: u32) -> Compiler {
    Compiler {
        scheduler: SchedulerChoice::ByStep,
        lowering: Lowering::Rigid {
            n_channels,
            n_stages: 1,
            exec: ExecMode::DirectKernel,
        },
        ..Compiler::new()
    }
}

/// Compile `spec` for `topo` and measure the plan's heap, then the heap
/// each artifact frees. The spec's transfer records and its memos (the
/// dependency index among them), which the DAG shares, are counted with
/// the spec; the slot table, which the allocation and the program share,
/// on its own. Also returns the plan's TB count.
fn measure(
    compiler: &Compiler,
    spec: impl FnOnce() -> AlgoSpec,
    topo: &Topology,
) -> (PlanBytes, u64, usize) {
    let before = live();
    let spec = spec();
    let plan = compiler.compile_spec(&spec, topo).unwrap();
    drop(spec);
    let total = (live() - before) as usize;
    let model = plan_cost_bytes(&plan);
    let tbs = plan.total_tbs();
    let table = std::sync::Arc::clone(&plan.program.table);
    let CompiledPlan {
        spec,
        dag,
        schedule,
        alloc,
        program,
        ..
    } = plan;
    let bytes = PlanBytes {
        dag: freed(|| drop(dag)),
        spec: freed(|| drop(spec)),
        schedule: freed(|| drop(schedule)),
        alloc: freed(|| drop(alloc)),
        program: freed(|| drop(program)),
        table: freed(|| drop(table)),
        rest: 0,
    };
    let rest = total - bytes.total();
    (PlanBytes { rest, ..bytes }, model, tbs)
}

/// One MiB: sizes are reported and bounded in MiB.
const MIB: f64 = (1u64 << 20) as f64;

/// The ceiling of a second HM-AllGather 16×8 plan whose spec is resident.
const SECOND_PLAN_CEILING_MIB: f64 = 0.40;

#[test]
fn resident_plans_fit_their_ceilings_and_the_cost_model() {
    type Algo = fn(u32, u32) -> AlgoSpec;
    let cases: [(&str, Algo, u32, Compiler, Option<f64>); 6] = [
        ("hm-ar-16x8", hm_allreduce, 16, Compiler::new(), Some(1.95)),
        ("hm-ag-16x8", hm_allgather, 16, Compiler::new(), Some(1.05)),
        (
            "hm-rs-16x8",
            hm_reduce_scatter,
            16,
            Compiler::new(),
            Some(1.05),
        ),
        ("hm-ar-2x8", hm_allreduce, 2, Compiler::new(), None),
        ("hm-ar-4x8", hm_allreduce, 4, Compiler::new(), None),
        ("nccl-ar-4x8", hm_allreduce, 4, nccl(4), None),
    ];
    let mut failures = Vec::new();
    for (name, algo, nodes, compiler, ceiling_mib) in cases {
        let (bytes, model, _) = measure(&compiler, || algo(nodes, 8), &Topology::a100(nodes, 8));
        let total = bytes.total() as f64;
        println!(
            "{name}: {:.2} MiB (spec {:.2}, DAG {:.2}, schedule {:.2}, alloc {:.3}, \
             program {:.3}, slot table {:.2}, rest {:.3}); model {:.2} MiB ({:+.1}%)",
            total / MIB,
            bytes.spec as f64 / MIB,
            bytes.dag as f64 / MIB,
            bytes.schedule as f64 / MIB,
            bytes.alloc as f64 / MIB,
            bytes.program as f64 / MIB,
            bytes.table as f64 / MIB,
            bytes.rest as f64 / MIB,
            model as f64 / MIB,
            100.0 * (model as f64 / total - 1.0),
        );
        if let Some(ceiling) = ceiling_mib {
            if total > ceiling * MIB {
                failures.push(format!(
                    "{name}: {:.2} MiB resident, above its {ceiling} MiB ceiling",
                    total / MIB
                ));
            }
        }
        if (model as f64 - total).abs() > 0.2 * total {
            failures.push(format!(
                "{name}: plan_cost_bytes charges {:.2} MiB for {:.2} MiB of heap (outside ±20%)",
                model as f64 / MIB,
                total / MIB
            ));
        }
    }
    // One spec, many plans: a second tenant of the shape, under another
    // topology name, holds only its topology-dependent artifacts.
    let shape = Topology::a100(16, 8);
    let other = Topology::new("second-tenant", shape.spec(), *shape.fabric());
    let before = live();
    let spec = hm_allgather(16, 8);
    let first = Compiler::new().compile_spec(&spec, &shape).unwrap();
    let alone = (live() - before) as f64;
    let before = live();
    let second = Compiler::new().compile_spec(&spec, &other).unwrap();
    let marginal = (live() - before) as f64;
    println!(
        "hm-ag-16x8, second plan of a resident spec: {:.2} MiB, against {:.2} MiB for the \
         first plan and its spec",
        marginal / MIB,
        alone / MIB
    );
    if marginal > SECOND_PLAN_CEILING_MIB * MIB {
        failures.push(format!(
            "hm-ag-16x8: a second plan of a resident spec adds {:.2} MiB, above its \
             {SECOND_PLAN_CEILING_MIB} MiB ceiling",
            marginal / MIB
        ));
    }
    drop((first, second, spec));

    // A rigid plan's channel TBs share their endpoint's slots: more
    // channels add TB records, never slots.
    let topo = Topology::a100(4, 8);
    let (one, _, one_tbs) = measure(&nccl(1), || hm_allreduce(4, 8), &topo);
    for n_channels in [4, 8] {
        let (bytes, _, tbs) = measure(&nccl(n_channels), || hm_allreduce(4, 8), &topo);
        let records = (tbs - one_tbs) * std::mem::size_of::<Tb>();
        println!(
            "nccl-ar-4x8, {n_channels} channels: slot table {} B, {} B with one channel, \
             {tbs} TBs against {one_tbs}",
            bytes.table, one.table
        );
        if bytes.table != one.table + records {
            failures.push(format!(
                "nccl-ar-4x8: {n_channels} channels hold a {} B slot table, one channel {} B \
                 plus {records} B of TB records",
                bytes.table, one.table
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
