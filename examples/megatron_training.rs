//! End-to-end distributed training (§5.5): Megatron-style GPT-3 and T5
//! training throughput with each CCL backend, including the SM-contention
//! coupling between communication TB footprint and compute.
//!
//! ```sh
//! cargo run --release --example megatron_training
//! ```

use rescc::backends::Backend;
use rescc::train::{train_throughput, ModelConfig, ParallelConfig};

fn main() {
    println!("=== GPT-3 (tensor parallel, TP=8) ===");
    println!(
        "{:<12} {:>8} {:>22} {:>22} {:>22}",
        "model", "GPUs", "NCCL", "MSCCL", "ResCCL"
    );
    for size in ["6.7B", "13B", "45B"] {
        let model = ModelConfig::gpt3(size).expect("known preset");
        let par = if model.params < 13_000_000_000 {
            ParallelConfig::gpt3(2, 16)
        } else {
            ParallelConfig::gpt3(4, 32)
        };
        let cell = |backend| {
            let r = train_throughput(&model, &par, &backend).expect("train sim");
            format!("{:.2} samp/s ({:.0}ms it)", r.samples_per_s, r.iter_s * 1e3)
        };
        println!(
            "{:<12} {:>8} {:>22} {:>22} {:>22}",
            model.name,
            par.n_gpus(),
            cell(Backend::nccl()),
            cell(Backend::msccl()),
            cell(Backend::resccl())
        );
    }

    println!("\n=== T5 (data parallel, 16 GPUs) ===");
    for size in ["220M", "770M", "3B"] {
        let model = ModelConfig::t5(size).expect("known preset");
        let par = ParallelConfig::t5(16, 16);
        let n = train_throughput(&model, &par, &Backend::nccl()).expect("train sim");
        let r = train_throughput(&model, &par, &Backend::resccl()).expect("train sim");
        println!(
            "{:<8} NCCL {:>7.2} samp/s -> ResCCL {:>7.2} samp/s ({:+.1}%); \
             breakdown: compute {:.0}ms, exposed DP comm {:.0}ms -> {:.0}ms",
            model.name,
            n.samples_per_s,
            r.samples_per_s,
            100.0 * (r.samples_per_s / n.samples_per_s - 1.0),
            r.compute_s * 1e3,
            n.dp_exposed_s * 1e3,
            r.dp_exposed_s * 1e3,
        );
    }
    println!("\n(collective times come from the simulated backends — Fig. 13's couplings)");
}
