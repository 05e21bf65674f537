//! Criterion micro-benchmarks of the offline compiler: DSL parsing /
//! evaluation throughput and the full compile pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rescc_algos::{hm_allreduce, hm_allreduce_source};
use rescc_core::{Compiler, PlanCache};
use rescc_ir::MicroBatchPlan;
use rescc_lang::{eval_source, parse};
use rescc_topology::Topology;

fn bench_dsl(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsl");
    let src = hm_allreduce_source(4, 8);
    group.bench_function("parse/hm-ar-4x8", |b| b.iter(|| parse(&src).unwrap()));
    group.bench_function("eval/hm-ar-4x8", |b| b.iter(|| eval_source(&src).unwrap()));
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile");
    group.sample_size(10);
    for (nodes, g) in [(2u32, 8u32), (4, 8), (8, 8)] {
        let topo = Topology::a100(nodes, g);
        let spec = hm_allreduce(nodes, g);
        group.bench_with_input(
            BenchmarkId::new("full-pipeline/hm-ar", format!("{nodes}x{g}")),
            &(&spec, &topo),
            |b, (spec, topo)| {
                let compiler = Compiler::new();
                b.iter(|| compiler.compile_spec(spec, topo).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_warm_cache(c: &mut Criterion) {
    // Warm-cache dispatch: fingerprint + hash lookup, no compile phases.
    let mut group = c.benchmark_group("warm-cache");
    let topo = Topology::a100(8, 8);
    let spec = hm_allreduce(8, 8);
    let compiler = Compiler::new();
    let cache = PlanCache::new();
    let mb = MicroBatchPlan::plan(256 << 20, spec.n_chunks(), 1 << 20);
    cache
        .get_or_compile(&compiler, &spec, &topo, &mb)
        .expect("prime");
    group.bench_function("hit/hm-ar-8x8", |b| {
        b.iter(|| cache.get_or_compile(&compiler, &spec, &topo, &mb).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_dsl, bench_compile, bench_warm_cache);
criterion_main!(benches);
