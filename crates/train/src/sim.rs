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
use rescc_backends::{Backend, MscclBackend, NcclBackend, RescclBackend};
use rescc_sim::SimResult;
use rescc_topology::Topology;

/// Which CCL backend Megatron links against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CclChoice {
    /// Native Megatron: NCCL with ring algorithms.
    Nccl,
    /// Megatron + MSCCL running the custom HM algorithms.
    Msccl,
    /// Megatron + ResCCL running the custom HM algorithms.
    Resccl,
}

impl CclChoice {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CclChoice::Nccl => "nccl",
            CclChoice::Msccl => "msccl",
            CclChoice::Resccl => "resccl",
        }
    }
}

/// Hardware and overlap assumptions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainConfig {
    /// Effective per-GPU compute throughput (FLOP/s) after kernel
    /// efficiency — A100 bf16 peak 312 TFLOP/s at ≈45% MFU.
    pub gpu_flops: f64,
    /// SMs per GPU (A100: 108).
    pub sms_per_gpu: u32,
    /// Fraction of the backward pass usable to hide DP communication.
    pub overlap_window_frac: f64,
    /// Chunk size for the simulated collectives (bytes).
    pub chunk_bytes: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            gpu_flops: 140e12,
            sms_per_gpu: 108,
            overlap_window_frac: 0.5,
            chunk_bytes: 4 << 20,
        }
    }
}

/// Pipeline-parallel timing: the classic 1F1B schedule fills and drains
/// `pp − 1` stage slots around `m` micro-batches, and every stage boundary
/// forwards activations point-to-point each micro-batch (and gradients on
/// the way back).
fn pipeline_terms(model: &ModelConfig, par: &ParallelConfig, compute_s: f64) -> (f64, f64) {
    if par.pp <= 1 {
        return (compute_s, 0.0);
    }
    let m = par.pipeline_micro_batches.max(1) as f64;
    let pp = par.pp as f64;
    // Per-stage compute of one micro-batch, then fill/drain bubble.
    let stage_micro = compute_s / (pp * m);
    let pipelined_compute = (m + pp - 1.0) * stage_micro * pp / pp; // (m+pp-1) slots
                                                                    // Activation P2P per boundary per micro-batch, forward + backward,
                                                                    // over the inter-node fabric.
    let topo = Topology::a100(2.max(par.pp), 1);
    let conn = topo.connection(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
    let batch_per_replica = (par.global_batch / par.dp).max(1) as u64;
    let act_bytes =
        (batch_per_replica as f64 / m) as u64 * model.seq_len as u64 * model.hidden as u64 * 2;
    let p2p_s = conn.serial_cost_ns(act_bytes.max(1)) * 1e-9;
    let p2p_total = 2.0 * (pp - 1.0) * m * p2p_s / m; // amortized per slot chain
    (pipelined_compute, p2p_total)
}

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
/// Fig. 13.
pub fn train_throughput(
    model: &ModelConfig,
    par: &ParallelConfig,
    ccl: CclChoice,
    cfg: &TrainConfig,
) -> SimResult<TrainReport> {
    // ---- Compute -------------------------------------------------------
    let tokens = par.global_batch as u64 * model.seq_len as u64;
    let total_flops = model.flops_per_token() * tokens as f64;
    // Work splits over TP within a replica and DP across replicas.
    let flops_per_gpu = total_flops / par.n_gpus() as f64;
    let compute_s = flops_per_gpu / cfg.gpu_flops;

    // ---- Collectives ---------------------------------------------------
    let backend: Box<dyn Backend> = match ccl {
        CclChoice::Nccl => Box::new(NcclBackend::default()),
        CclChoice::Msccl => Box::new(MscclBackend::default()),
        CclChoice::Resccl => Box::new(RescclBackend::default()),
    };
    let algo_for = |n_nodes: u32, gpn: u32| match ccl {
        // Native Megatron/NCCL runs its standard multi-ring AllReduce (one
        // ring per NIC); the custom-algorithm backends run the HM AllReduce
        // of Appendix A.
        CclChoice::Nccl => nccl_rings_allreduce(n_nodes, gpn, (gpn / 2).max(1)),
        CclChoice::Msccl | CclChoice::Resccl => hm_allreduce(n_nodes, gpn),
    };

    // Tensor-parallel activation AllReduce: 4 per layer per iteration
    // (2 forward + 2 backward), over the intra-node TP group.
    let (tp_comm_s, tp_tbs_per_gpu) = if par.tp > 1 {
        let tp_topo = Topology::a100(1, par.tp);
        let batch_per_replica = (par.global_batch / par.dp).max(1) as u64;
        let act_bytes = batch_per_replica * model.seq_len as u64 * model.hidden as u64 * 2;
        let spec = algo_for(1, par.tp);
        let rep =
            backend.run_unchecked(&spec, &tp_topo, act_bytes.max(1 << 20), cfg.chunk_bytes)?;
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
        let dp_topo = Topology::a100(nodes, gpn);
        let grad_bytes = (model.params as f64 * 2.0 / par.tp as f64) as u64;
        let spec = algo_for(nodes, gpn);
        let rep =
            backend.run_unchecked(&spec, &dp_topo, grad_bytes.max(1 << 20), cfg.chunk_bytes)?;
        (rep.sim.completion_ns * 1e-9, rep.max_rank_tbs as u32)
    } else {
        (0.0, 0)
    };

    // ---- Pipeline parallelism (extension) -------------------------------
    let (compute_s, pp_comm_s) = pipeline_terms(model, par, compute_s);

    // ---- Overlap and SM contention --------------------------------------
    let overlap_window = cfg.overlap_window_frac * compute_s;
    let overlapped = dp_comm_s.min(overlap_window);
    let dp_exposed_s = dp_comm_s - overlapped;
    // While communication overlaps compute, its TBs steal SMs.
    let comm_tbs = tp_tbs_per_gpu.max(dp_tbs_per_gpu) as f64;
    let sm_frac = (comm_tbs / cfg.sms_per_gpu as f64).min(0.9);
    let contention_s = overlapped * sm_frac / (1.0 - sm_frac);

    let iter_s = compute_s + contention_s + tp_comm_s + dp_exposed_s + pp_comm_s;
    Ok(TrainReport {
        model: model.name.clone(),
        backend: ccl.name().to_string(),
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
        let cfg = TrainConfig::default();
        let r = train_throughput(&model, &par, CclChoice::Resccl, &cfg).unwrap();
        let n = train_throughput(&model, &par, CclChoice::Nccl, &cfg).unwrap();
        let m = train_throughput(&model, &par, CclChoice::Msccl, &cfg).unwrap();
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
        let cfg = TrainConfig::default();
        let r = train_throughput(&model, &par, CclChoice::Resccl, &cfg).unwrap();
        let n = train_throughput(&model, &par, CclChoice::Nccl, &cfg).unwrap();
        assert!(r.samples_per_s > n.samples_per_s);
    }

    #[test]
    fn iteration_time_decomposes() {
        let model = ModelConfig::gpt3("6.7B").unwrap();
        let par = ParallelConfig::gpt3(2, 16);
        let rep =
            train_throughput(&model, &par, CclChoice::Resccl, &TrainConfig::default()).unwrap();
        let sum = rep.compute_s + rep.contention_s + rep.tp_comm_s + rep.dp_exposed_s;
        assert!((rep.iter_s - sum).abs() < 1e-12);
        assert!(rep.compute_s > 0.0 && rep.tp_comm_s > 0.0);
    }

    #[test]
    fn pipeline_parallelism_extension() {
        // 3D parallel: same GPU count, PP splits stages. With few pipeline
        // micro-batches the fill/drain bubble hurts; with many it fades.
        let model = ModelConfig::gpt3("13B").unwrap();
        let cfg = TrainConfig::default();
        let flat = ParallelConfig::gpt3(4, 32);
        let deep_few = ParallelConfig::three_d(8, 2, 2, 32, 2);
        let deep_many = ParallelConfig::three_d(8, 2, 2, 32, 16);
        let t_flat = train_throughput(&model, &flat, CclChoice::Resccl, &cfg).unwrap();
        let t_few = train_throughput(&model, &deep_few, CclChoice::Resccl, &cfg).unwrap();
        let t_many = train_throughput(&model, &deep_many, CclChoice::Resccl, &cfg).unwrap();
        assert!(
            t_many.samples_per_s > t_few.samples_per_s,
            "more pipeline micro-batches must shrink the bubble: {} !> {}",
            t_many.samples_per_s,
            t_few.samples_per_s
        );
        assert!(t_flat.samples_per_s > 0.0 && t_few.samples_per_s > 0.0);
    }

    #[test]
    fn repeated_iterations_are_identical() {
        let model = ModelConfig::gpt3("6.7B").unwrap();
        let par = ParallelConfig::gpt3(2, 16);
        let cfg = TrainConfig::default();
        let a = train_throughput(&model, &par, CclChoice::Resccl, &cfg).unwrap();
        let b = train_throughput(&model, &par, CclChoice::Resccl, &cfg).unwrap();
        assert_eq!(a, b, "two identical iterations must report the same");
    }

    #[test]
    fn bigger_models_are_slower() {
        let par = ParallelConfig::gpt3(4, 32);
        let cfg = TrainConfig::default();
        let small = train_throughput(
            &ModelConfig::gpt3("6.7B").unwrap(),
            &par,
            CclChoice::Resccl,
            &cfg,
        )
        .unwrap();
        let big = train_throughput(
            &ModelConfig::gpt3("45B").unwrap(),
            &par,
            CclChoice::Resccl,
            &cfg,
        )
        .unwrap();
        assert!(small.samples_per_s > big.samples_per_s);
    }
}
