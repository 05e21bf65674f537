//! Writing a collective algorithm in ResCCLang and inspecting the
//! generated lightweight kernels.
//!
//! ```sh
//! cargo run --release --example custom_dsl_algorithm
//! ```

use rescc::core::Compiler;
use rescc::topology::Topology;

/// A ring AllGather over 8 GPUs, written exactly like the paper's Fig. 5(a)
/// example program.
const RING_ALLGATHER: &str = r#"
# Ring AllGather: each rank forwards a chunk to its ring successor per step.
def ResCCLAlgo(nRanks=8, AlgoName="ring-from-dsl", OpType="Allgather"):
    N = nRanks
    for r in range(0, N):
        peer = (r+1)%N
        for step in range(0, N-1):
            transfer(r, peer, step, (r-step)%N, recv)
"#;

fn main() {
    let topo = Topology::a100(1, 8);
    let plan = Compiler::new()
        .compile_source(RING_ALLGATHER, &topo)
        .expect("DSL compiles");

    println!(
        "parsed + evaluated in {:?}; {} tasks over {} connections",
        plan.timings.parsing,
        plan.dag.len(),
        plan.dag
            .tasks()
            .iter()
            .map(|t| (t.src, t.dst))
            .collect::<std::collections::HashSet<_>>()
            .len()
    );

    // Show the generated pseudo-CUDA for rank 0 — the lightweight kernel
    // that replaces MSCCL's runtime interpreter.
    let kernels = plan.emit_kernels();
    let rank0: String = kernels
        .lines()
        .skip_while(|l| !l.contains("resccl_kernel_r0"))
        .take_while(|l| !l.contains("resccl_kernel_r1"))
        .collect::<Vec<_>>()
        .join("\n");
    println!("\n--- generated kernel, rank 0 ---\n{rank0}\n");

    let buffer = 128u64 << 20;
    let report = plan.run(buffer, 1 << 20).expect("runs");
    assert_eq!(report.data_valid, Some(true));
    println!(
        "ran {} micro-batches, {:.2} ms, algbw {:.1} GB/s (verified)",
        report.n_micro_batches,
        report.completion_ns / 1e6,
        report.algo_bandwidth_gbps(buffer)
    );
}
