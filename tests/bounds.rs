//! Soundness anchors: no simulated completion may beat the information-
//! theoretic lower bounds of its DAG (critical path, bottleneck resource),
//! and pipelined completions must stay below the fully-serial upper bound.
//!
//! The bounds are a test-only oracle (module `metrics` below), computed
//! independently of RA007's cost certificate, which the library ships.

use metrics::{bottleneck_resource_ns, critical_path_ns, lower_bound_ns};
use rescc::algos::{hm_allgather, hm_allreduce, ring_allgather, taccl_like_allgather};
use rescc::backends::{Backend, Communicator};
use rescc::ir::DepDag;
use rescc::lang::{AlgoBuilder, AlgoSpec, OpType};
use rescc::topology::Topology;

const MB: u64 = 1 << 20;

/// DAG metrics: critical path and per-link serial load — the quantities
/// that bound any schedule's completion time from below.
///
/// For a single micro-batch with per-task cost `c(t)`:
///
/// * no schedule can finish before the **critical path** (longest
///   cost-weighted chain of data dependencies), and
/// * no schedule can finish before the **busiest conflict resource**
///   drains its serial load `Σ c(t) / saturation`.
mod metrics {
    use rescc::ir::{DepDag, Task};
    use rescc::topology::ResourceId;
    use std::collections::HashMap;

    /// Cost-weighted critical path length through the data-dependency DAG.
    pub fn critical_path_ns(dag: &DepDag, cost_ns: impl Fn(&Task) -> f64) -> f64 {
        // topo_order yields every dependency before its dependents.
        let order = dag.topo_order();
        let mut finish = vec![0.0f64; dag.len()];
        let mut best = 0.0f64;
        for id in order {
            let t = dag.task(id);
            let start = dag
                .preds(id)
                .iter()
                .map(|p| finish[p.index()])
                .fold(0.0, f64::max);
            finish[id.index()] = start + cost_ns(&t);
            best = best.max(finish[id.index()]);
        }
        best
    }

    /// Serial load per conflict resource: `Σ cost / saturation`, maximized.
    pub fn bottleneck_resource_ns(dag: &DepDag, cost_ns: impl Fn(&Task) -> f64) -> f64 {
        let mut load: HashMap<ResourceId, f64> = HashMap::new();
        for t in dag.tasks() {
            for r in t.conflict.iter() {
                *load.entry(r).or_insert(0.0) += cost_ns(&t);
            }
        }
        load.into_iter()
            .map(|(r, l)| l / dag.conflict_limit(r).max(1) as f64)
            .fold(0.0, f64::max)
    }

    /// A lower bound on any single-micro-batch completion:
    /// `max(critical path, bottleneck resource)`.
    pub fn lower_bound_ns(dag: &DepDag, cost_ns: impl Fn(&Task) -> f64 + Copy) -> f64 {
        critical_path_ns(dag, cost_ns).max(bottleneck_resource_ns(dag, cost_ns))
    }
}

/// Per-task serial cost under the topology's parameters for a single
/// invocation of `chunk_bytes` at the TB-limited single-stream rate.
fn task_cost(topo: &Topology, chunk_bytes: u64) -> impl Fn(&rescc::ir::Task) -> f64 + Copy + '_ {
    move |t: &rescc::ir::Task| {
        let conn = topo.connection(t.src, t.dst);
        conn.params.alpha_ns
            + conn.extra_latency_ns
            + chunk_bytes as f64 / conn.params.tb_bw_bytes_per_ns
    }
}

fn check_bounds(spec: &AlgoSpec, topo: &Topology) {
    let dag = DepDag::build(spec, topo).unwrap();
    let chunk = MB;
    let n_mb = 4u64;
    let buffer = n_mb * spec.n_chunks() as u64 * chunk;

    // Lower bound for n micro-batches: at least the single-micro-batch
    // bound once (pipelining can overlap the rest), and at least the
    // bottleneck's full n× serial load at line rate.
    let single = lower_bound_ns(&dag, task_cost(topo, chunk));
    let line_rate_cost = |t: &rescc::ir::Task| {
        let conn = topo.connection(t.src, t.dst);
        chunk as f64 * conn.params.beta_ns_per_byte
    };
    let bottleneck_line = bottleneck_resource_ns(&dag, line_rate_cost) * n_mb as f64;
    let lower = single.max(bottleneck_line);

    // Upper bound: every invocation strictly serialized at TB rate.
    let serial_all: f64 = dag
        .tasks()
        .iter()
        .map(|t| task_cost(topo, chunk)(&t))
        .sum::<f64>()
        * n_mb as f64;

    for backend in [
        Backend::resccl(),
        Backend::nccl(),
        Backend::Msccl {
            n_channels: 4,
            interpreter_overhead_ns: 0.0,
        },
    ] {
        let name = backend.name();
        let rep = Communicator::new(topo.clone())
            .with_backend(backend)
            .run_spec(spec, buffer, chunk)
            .unwrap();
        assert!(
            rep.sim.completion_ns >= lower * 0.999,
            "{} on {} finished in {:.1}us, below the lower bound {:.1}us",
            name,
            spec.name(),
            rep.sim.completion_ns / 1e3,
            lower / 1e3
        );
        assert!(
            rep.sim.completion_ns <= serial_all * 1.5,
            "{} on {} took {:.1}us, above even the serial bound {:.1}us",
            name,
            spec.name(),
            rep.sim.completion_ns / 1e3,
            serial_all / 1e3
        );
    }
}

#[test]
fn bounds_hold_for_ring() {
    check_bounds(&ring_allgather(8), &Topology::a100(1, 8));
    check_bounds(&ring_allgather(8), &Topology::a100(2, 4));
}

#[test]
fn bounds_hold_for_hm() {
    check_bounds(&hm_allgather(2, 4), &Topology::a100(2, 4));
    check_bounds(&hm_allreduce(2, 4), &Topology::a100(2, 4));
}

#[test]
fn bounds_hold_for_synthesized() {
    check_bounds(&taccl_like_allgather(2, 4), &Topology::a100(2, 4));
}

#[test]
fn bounds_hold_on_v100() {
    check_bounds(&hm_allgather(2, 4), &Topology::v100(2, 4));
}

#[test]
fn chain_critical_path_is_sum() {
    let mut b = AlgoBuilder::new("chain", OpType::AllGather, 4);
    for i in 0..3 {
        b.recv(i, i + 1, i, 0);
    }
    let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(1, 4)).unwrap();
    let cp = critical_path_ns(&dag, |_| 10.0);
    assert!((cp - 30.0).abs() < 1e-9); // 3 hops × 10
}

#[test]
fn parallel_tasks_do_not_stack() {
    // Four independent transfers: critical path = one task.
    let mut b = AlgoBuilder::new("par", OpType::AllGather, 8);
    for i in 0..4u32 {
        b.recv(2 * i, 2 * i + 1, 0, 2 * i);
    }
    let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(1, 8)).unwrap();
    assert!((critical_path_ns(&dag, |_| 7.0) - 7.0).abs() < 1e-9);
}

#[test]
fn bottleneck_counts_saturation() {
    // Five transfers on one pair channel (saturation 4): serial load
    // 5×c shared by 4 lanes.
    let mut b = AlgoBuilder::new("hot", OpType::AllGather, 8);
    for c in 0..5u32 {
        b.recv(0, 1, 0, c);
    }
    let dag = DepDag::build(&b.build().unwrap(), &Topology::a100(1, 8)).unwrap();
    let bn = bottleneck_resource_ns(&dag, |_| 4.0);
    assert!((bn - 5.0 * 4.0 / 4.0).abs() < 1e-9);
}
