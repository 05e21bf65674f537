//! The paper's motivating workload: the hierarchical-mesh (HM) AllReduce of
//! Appendix A on a multi-node cluster, with the scheduling internals laid
//! open — dependency DAG, HPDS sub-pipelines, TB merging, and the effect of
//! pipelining across micro-batches.
//!
//! ```sh
//! cargo run --release --example hierarchical_allreduce
//! ```

use rescc::algos::hm_allreduce;
use rescc::backends::Backend;
use rescc::core::Compiler;
use rescc::topology::Topology;

fn main() {
    let (nodes, g) = (4u32, 8u32); // the paper's 32-GPU testbed
    let topo = Topology::a100(nodes, g);
    let algo = hm_allreduce(nodes, g);
    println!(
        "HM-AllReduce on {}: {} tasks across 4 phases (intra-RS, inter-RS, \
         inter-AG, intra-AG)",
        topo.name(),
        algo.transfers().len()
    );

    let plan = Compiler::new()
        .compile_spec(&algo, &topo)
        .expect("compiles");

    // How HPDS organizes the DAG into sub-pipelines.
    let sp = &plan.schedule.sub_pipelines;
    println!(
        "HPDS: {} sub-pipelines; first three sizes: {:?}",
        sp.len(),
        sp.iter().take(3).map(Vec::len).collect::<Vec<_>>()
    );
    let inter_tasks = plan
        .dag
        .tasks()
        .iter()
        .filter(|t| !topo.same_node(t.src, t.dst))
        .count();
    println!(
        "tasks: {} intra-node (NVLink), {} inter-node (RoCE NICs)",
        plan.dag.len() - inter_tasks,
        inter_tasks
    );

    // State-based TB merging vs the rigid connection-based scheme.
    // NCCL's by-step schedule oversubscribes links by design, which RA003
    // reports as a warning, so the plan passes the deny gate.
    let rigid = Backend::nccl()
        .compiler()
        .compile_spec(&algo, &topo)
        .expect("compiles");
    println!(
        "TB allocation: connection-based (4 channels) = {} TBs, \
         state-based = {} TBs ({:.1}% saved)",
        rigid.total_tbs(),
        plan.total_tbs(),
        100.0 * (1.0 - plan.total_tbs() as f64 / rigid.total_tbs() as f64)
    );

    // Micro-batch pipelining in action: more micro-batches, higher algbw.
    println!("\nbuffer    micro-batches  completion    algbw");
    for shift in [3u32, 5, 7, 9] {
        let buffer = (32u64 << 20) << shift;
        let rep = plan.run(buffer, 1 << 20).expect("runs");
        assert_eq!(rep.data_valid, Some(true));
        println!(
            "{:>5} MB  {:>12}  {:>9.2} ms  {:>6.1} GB/s",
            buffer >> 20,
            rep.n_micro_batches,
            rep.completion_ns / 1e6,
            rep.algo_bandwidth_gbps(buffer)
        );
    }
    println!("\n(the pipeline-fill cost amortizes away as micro-batches grow — Eq. 5)");
}
