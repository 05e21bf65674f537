//! **Figure 13** — End-to-end Megatron training throughput with ResCCL as
//! the communication backend, vs NCCL (native) and MSCCL, for GPT-3
//! (tensor parallel) and T5 (data parallel) models of increasing size.
//!
//! Paper shape: 18–39% over native Megatron on T5 (and up to 1.8× over the
//! MSCCL variant); 11–20% over native and 7.5–29.3% over MSCCL on GPT-3.

use crate::print_table;
use rescc_backends::Backend;
use rescc_train::{train_throughput, ModelConfig, ParallelConfig};

/// Regenerate Figure 13.
pub fn run() {
    // (a) GPT-3, tensor parallel: <13B on 2 servers (batch 16), larger on
    // 4 servers (batch 32) — the §5.5 deployment rule.
    let mut rows = Vec::new();
    for size in ["6.7B", "13B", "22B", "45B"] {
        let model = ModelConfig::gpt3(size).expect("figure13 preset");
        let par = if model.params < 13_000_000_000 {
            ParallelConfig::gpt3(2, 16)
        } else {
            ParallelConfig::gpt3(4, 32)
        };
        let n = train_throughput(&model, &par, &Backend::nccl()).expect("figure13 nccl");
        let m = train_throughput(&model, &par, &Backend::msccl()).expect("figure13 msccl");
        let r = train_throughput(&model, &par, &Backend::resccl()).expect("figure13 resccl");
        rows.push(vec![
            model.name.clone(),
            format!("{}x{}", par.dp, par.tp),
            format!("{:.2}", n.samples_per_s),
            format!("{:.2}", m.samples_per_s),
            format!("{:.2}", r.samples_per_s),
            format!("{:+.1}%", 100.0 * (r.samples_per_s / n.samples_per_s - 1.0)),
            format!("{:+.1}%", 100.0 * (r.samples_per_s / m.samples_per_s - 1.0)),
        ]);
    }
    print_table(
        "Figure 13(a): GPT-3 training throughput (samples/s), TP=8",
        &[
            "model", "DPxTP", "NCCL", "MSCCL", "ResCCL", "vs NCCL", "vs MSCCL",
        ],
        &rows,
    );

    // (b) T5, data parallel over 16 GPUs, batch 16.
    let mut rows = Vec::new();
    for size in ["220M", "770M", "3B"] {
        let model = ModelConfig::t5(size).expect("figure13 preset");
        let par = ParallelConfig::t5(16, 16);
        let n = train_throughput(&model, &par, &Backend::nccl()).expect("figure13 nccl");
        let m = train_throughput(&model, &par, &Backend::msccl()).expect("figure13 msccl");
        let r = train_throughput(&model, &par, &Backend::resccl()).expect("figure13 resccl");
        rows.push(vec![
            model.name.clone(),
            "16 (DP)".to_string(),
            format!("{:.2}", n.samples_per_s),
            format!("{:.2}", m.samples_per_s),
            format!("{:.2}", r.samples_per_s),
            format!("{:+.1}%", 100.0 * (r.samples_per_s / n.samples_per_s - 1.0)),
            format!("{:+.1}%", 100.0 * (r.samples_per_s / m.samples_per_s - 1.0)),
        ]);
    }
    print_table(
        "Figure 13(b): T5 training throughput (samples/s), DP=16",
        &[
            "model", "GPUs", "NCCL", "MSCCL", "ResCCL", "vs NCCL", "vs MSCCL",
        ],
        &rows,
    );
    println!(
        "paper: T5 +18-39% over native Megatron (up to 1.8x over MSCCL); \
         GPT-3 +11-20% over native, +7.5-29.3% over MSCCL."
    );
}
