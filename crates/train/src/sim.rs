//! End-to-end training iteration model.
//!
//! Fig. 13's mechanism has two couplings between the CCL backend and
//! training throughput, and this model reproduces both:
//!
//! 1. **Communication on the critical path** — tensor-parallel activation
//!    AllReduces are exposed (4 per layer per iteration); data-parallel
//!    gradient AllReduce overlaps with the backward pass up to an overlap
//!    window. Collective times come from the *simulated backends*, so the
//!    backend differences of §5.2 propagate here.
//! 2. **SM contention** — communication TBs occupy SMs that computation
//!    cannot use. During overlapped communication, compute slows by the
//!    fraction of SMs held by the backend's TBs — ResCCL's smaller TB
//!    footprint (§5.4) directly buys compute throughput.

use crate::model::{ModelConfig, ParallelConfig};
use rescc_algos::{hm_allreduce, nccl_rings_allreduce};
use rescc_backends::{Backend, Communicator};
use rescc_sim::SimResult;
use rescc_topology::Topology;

/// Effective per-GPU compute throughput (FLOP/s) after kernel efficiency:
/// A100 bf16 peak 312 TFLOP/s at ≈45% MFU.
const GPU_FLOPS: f64 = 140e12;
/// SMs per GPU (A100: 108).
const SMS_PER_GPU: u32 = 108;
/// Fraction of the backward pass usable to hide DP communication.
const OVERLAP_WINDOW_FRAC: f64 = 0.5;
/// Chunk size for the simulated collectives (bytes).
const CHUNK_BYTES: u64 = 4 << 20;

/// Breakdown of one training iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainReport {
    /// Model name.
    pub model: String,
    /// Backend name.
    pub backend: String,
    /// Pure compute time per iteration, seconds.
    pub compute_s: f64,
    /// Exposed tensor-parallel communication per iteration, seconds.
    pub tp_comm_s: f64,
    /// Exposed (non-overlapped) data-parallel communication, seconds.
    pub dp_exposed_s: f64,
    /// Extra compute time caused by SM contention during overlapped
    /// communication, seconds.
    pub contention_s: f64,
    /// Total iteration time, seconds.
    pub iter_s: f64,
    /// Training throughput, samples per second.
    pub samples_per_s: f64,
}

/// Simulate the throughput of one (model, parallelism, backend) cell of
/// Fig. 13: Megatron linked against `backend`.
pub fn train_throughput(
    model: &ModelConfig,
    par: &ParallelConfig,
    backend: &Backend,
) -> SimResult<TrainReport> {
    // ---- Compute -------------------------------------------------------
    let tokens = par.global_batch as u64 * model.seq_len as u64;
    let total_flops = model.flops_per_token() * tokens as f64;
    // Work splits over TP within a replica and DP across replicas.
    let flops_per_gpu = total_flops / par.n_gpus() as f64;
    let compute_s = flops_per_gpu / GPU_FLOPS;

    // ---- Collectives ---------------------------------------------------
    let algo_for = |n_nodes: u32, gpn: u32| match backend {
        // Native Megatron/NCCL runs its standard multi-ring AllReduce (one
        // ring per NIC); the custom-algorithm backends run the HM AllReduce
        // of Appendix A.
        Backend::Nccl { .. } => nccl_rings_allreduce(n_nodes, gpn, (gpn / 2).max(1)),
        Backend::Msccl { .. } | Backend::Resccl(_) => hm_allreduce(n_nodes, gpn),
    };
    // One AllReduce of at least 1 MB per rank on an `n_nodes`×`gpn` group.
    let all_reduce = |n_nodes: u32, gpn: u32, bytes: u64| {
        Communicator::new(Topology::a100(n_nodes, gpn))
            .with_backend(backend.clone())
            .run_spec(&algo_for(n_nodes, gpn), bytes.max(1 << 20), CHUNK_BYTES)
    };

    // Tensor-parallel activation AllReduce: 4 per layer per iteration
    // (2 forward + 2 backward), over the intra-node TP group.
    let (tp_comm_s, tp_tbs_per_gpu) = if par.tp > 1 {
        let batch_per_replica = (par.global_batch / par.dp).max(1) as u64;
        let act_bytes = batch_per_replica * model.seq_len as u64 * model.hidden as u64 * 2;
        let rep = all_reduce(1, par.tp, act_bytes)?;
        let per_call_s = rep.sim.completion_ns * 1e-9;
        let calls = 4.0 * model.n_layers as f64;
        (per_call_s * calls, rep.max_rank_tbs as u32)
    } else {
        (0.0, 0)
    };

    // Data-parallel gradient AllReduce. For TP jobs the 8 TP ranks run 8
    // parallel group-AllReduces whose aggregate traffic over the NICs is
    // that of one cluster-wide AllReduce of the full (TP-sharded) gradient,
    // so we simulate the collective on the whole cluster — which also
    // engages the NIC-sharing contention the backends differ on.
    let (dp_comm_s, dp_tbs_per_gpu) = if par.dp > 1 {
        let (nodes, gpn) = if par.tp > 1 {
            (par.dp, par.tp)
        } else {
            (par.dp.div_ceil(8).max(1), par.dp.min(8))
        };
        let grad_bytes = (model.params as f64 * 2.0 / par.tp as f64) as u64;
        let rep = all_reduce(nodes, gpn, grad_bytes)?;
        (rep.sim.completion_ns * 1e-9, rep.max_rank_tbs as u32)
    } else {
        (0.0, 0)
    };

    // ---- Overlap and SM contention --------------------------------------
    let overlap_window = OVERLAP_WINDOW_FRAC * compute_s;
    let overlapped = dp_comm_s.min(overlap_window);
    let dp_exposed_s = dp_comm_s - overlapped;
    // While communication overlaps compute, its TBs steal SMs.
    let comm_tbs = tp_tbs_per_gpu.max(dp_tbs_per_gpu) as f64;
    let sm_frac = (comm_tbs / SMS_PER_GPU as f64).min(0.9);
    let contention_s = overlapped * sm_frac / (1.0 - sm_frac);

    let iter_s = compute_s + contention_s + tp_comm_s + dp_exposed_s;
    Ok(TrainReport {
        model: model.name.clone(),
        backend: backend.name().to_string(),
        compute_s,
        tp_comm_s,
        dp_exposed_s,
        contention_s,
        iter_s,
        samples_per_s: par.global_batch as f64 / iter_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt3_throughput_orders_backends() {
        // Fig. 13(a): ResCCL > native NCCL and > MSCCL variant.
        let model = ModelConfig::gpt3("6.7B").unwrap();
        let par = ParallelConfig::gpt3(2, 16);
        let r = train_throughput(&model, &par, &Backend::resccl()).unwrap();
        let n = train_throughput(&model, &par, &Backend::nccl()).unwrap();
        let m = train_throughput(&model, &par, &Backend::msccl()).unwrap();
        assert!(
            r.samples_per_s > n.samples_per_s,
            "resccl {} <= nccl {}",
            r.samples_per_s,
            n.samples_per_s
        );
        assert!(
            r.samples_per_s > m.samples_per_s,
            "resccl {} <= msccl {}",
            r.samples_per_s,
            m.samples_per_s
        );
    }

    #[test]
    fn t5_throughput_orders_backends() {
        let model = ModelConfig::t5("770M").unwrap();
        let par = ParallelConfig::t5(16, 16);
        let r = train_throughput(&model, &par, &Backend::resccl()).unwrap();
        let n = train_throughput(&model, &par, &Backend::nccl()).unwrap();
        assert!(r.samples_per_s > n.samples_per_s);
    }

    #[test]
    fn iteration_time_decomposes() {
        let model = ModelConfig::gpt3("6.7B").unwrap();
        let par = ParallelConfig::gpt3(2, 16);
        let rep = train_throughput(&model, &par, &Backend::resccl()).unwrap();
        let sum = rep.compute_s + rep.contention_s + rep.tp_comm_s + rep.dp_exposed_s;
        assert!((rep.iter_s - sum).abs() < 1e-12);
        assert!(rep.compute_s > 0.0 && rep.tp_comm_s > 0.0);
    }

    #[test]
    fn repeated_iterations_are_identical() {
        let model = ModelConfig::gpt3("6.7B").unwrap();
        let par = ParallelConfig::gpt3(2, 16);
        let a = train_throughput(&model, &par, &Backend::resccl()).unwrap();
        let b = train_throughput(&model, &par, &Backend::resccl()).unwrap();
        assert_eq!(a, b, "two identical iterations must report the same");
    }

    #[test]
    fn bigger_models_are_slower() {
        let par = ParallelConfig::gpt3(4, 32);
        let resccl = Backend::resccl();
        let small = train_throughput(&ModelConfig::gpt3("6.7B").unwrap(), &par, &resccl).unwrap();
        let big = train_throughput(&ModelConfig::gpt3("45B").unwrap(), &par, &resccl).unwrap();
        assert!(small.samples_per_s > big.samples_per_s);
    }
}
