//! **Analytic model validation** (beyond the paper's figures): the §3
//! closed forms (Eq. 3 algorithm-level, Eq. 5 task-level) predict how the
//! three execution granularities scale with the micro-batch count `n`;
//! this experiment checks those predictions against the simulator.
//!
//! Three checks:
//!
//! 1. **Linearity** — Eq. 3/5 say completion is affine in `n`
//!    (`T(n) = fill + n · steady`); measured completions at n ∈ {8..128}
//!    must fit an affine model with small residuals.
//! 2. **Limit ratio** (Eq. 6) — as `n` grows, the task-level/algorithm-
//!    level ratio must converge toward the bubble ratio: task-level strictly
//!    faster, and the measured per-micro-batch steady-state cost lower.
//! 3. **Eq. 5 prediction** — the bubble-free stream `n·m·(α + c·β)` on the
//!    bottleneck link of RA007's certificate is within 10% of the ResCCL run.

use crate::{print_table, MB};
use rescc_algos::hm_allgather;
use rescc_backends::{Backend, Communicator};
use rescc_lang::AlgoSpec;
use rescc_sim::SimConfig;
use rescc_topology::{ResourceId, Topology};

fn affine_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    // Least squares y = a + b x; returns (a, b, max relative residual).
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let a = (sy - b * sx) / n;
    let max_rel = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| ((a + b * x - y) / y).abs())
        .fold(0.0, f64::max);
    (a, b, max_rel)
}

/// Eq. 5 at `n` micro-batches of 1 MiB chunks: the predicted and the
/// simulated ResCCL completion, ns. Panics on an error above 10%.
fn eq5_check(spec: &AlgoSpec, topo: &Topology, n: u64) -> (f64, f64) {
    let plan = Backend::resccl().compiler().compile_spec(spec, topo);
    let plan = plan.expect("resccl compile");
    let cert = plan.diagnostics.certificate().expect("RA007 certificate");
    let link = topo.resource_params(ResourceId::new(cert.bottleneck_resource));
    let task_ns = link.expect("bottleneck").alpha_ns + MB as f64 * cert.bottleneck_beta_ns_per_byte;
    let predicted = (n * u64::from(cert.bottleneck_tasks)) as f64 * task_ns;
    let buffer = n * u64::from(spec.n_chunks()) * MB;
    let sim = plan.run_with(buffer, MB, &SimConfig::default());
    let simulated = sim.expect("resccl run").completion_ns;
    let error = predicted / simulated - 1.0;
    assert!(error.abs() <= 0.10, "Eq. 5 error {error:+.3} at n = {n}");
    (predicted, simulated)
}

/// Run the analytic-model validation.
pub fn run() {
    let topo = Topology::a100(2, 4);
    let spec = hm_allgather(2, 4);
    let n_chunks = spec.n_chunks() as u64;

    let mut nccl = Communicator::new(topo.clone()).with_backend(Backend::nccl());

    let ns: Vec<u64> = vec![8, 16, 32, 64, 128];
    let mut xs = Vec::new();
    let mut task_level = Vec::new();
    let mut algo_level = Vec::new();
    let mut rows = Vec::new();
    let mut eq5_rows = Vec::new();
    for &n in &ns {
        let buffer = n * n_chunks * MB;
        let (predicted, tr) = eq5_check(&spec, &topo, n);
        let ta = nccl
            .run_spec(&spec, buffer, MB)
            .expect("nccl run")
            .sim
            .completion_ns;
        xs.push(n as f64);
        task_level.push(tr);
        algo_level.push(ta);
        rows.push(vec![
            n.to_string(),
            format!("{:.2}ms", tr / 1e6),
            format!("{:.2}ms", ta / 1e6),
            format!("{:.2}x", ta / tr),
        ]);
        eq5_rows.push(vec![
            n.to_string(),
            format!("{:.1}us", predicted / 1e3),
            format!("{:.1}us", tr / 1e3),
            format!("{:+.1}%", 100.0 * (predicted / tr - 1.0)),
        ]);
    }
    print_table(
        "Analytic validation: completion vs micro-batch count n (HM-AG, 2x4)",
        &["n", "task-level (Eq.5)", "algorithm-level (Eq.3)", "ratio"],
        &rows,
    );

    let (fill_p, steady_p, res_p) = affine_fit(&xs, &task_level);
    let (fill_a, steady_a, res_a) = affine_fit(&xs, &algo_level);
    println!(
        "task-level fit:      T(n) = {:.1}us + n * {:.1}us   (max residual {:.2}%)",
        fill_p / 1e3,
        steady_p / 1e3,
        100.0 * res_p
    );
    println!(
        "algorithm-level fit: T(n) = {:.1}us + n * {:.1}us   (max residual {:.2}%)",
        fill_a / 1e3,
        steady_a / 1e3,
        100.0 * res_a
    );
    println!(
        "Eq. 6 asymptotics: per-micro-batch steady cost ratio = {:.2}x \
         (task-level steady cost must be lower: {})",
        steady_a / steady_p,
        if steady_p < steady_a { "yes" } else { "NO" },
    );
    assert!(
        res_p < 0.15 && res_a < 0.15,
        "completions must be near-affine in n (Eq. 3/5)"
    );
    assert!(steady_p < steady_a, "Eq. 6 must favor task-level");
    print_table(
        "Eq. 5 on the RA007 bottleneck link vs simulated ResCCL completion (HM-AG, 2x4)",
        &["n", "Eq.5 n*m*(a+c*b)", "simulated", "error"],
        &eq5_rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq5_predicts_the_resccl_run() {
        eq5_check(&hm_allgather(2, 4), &Topology::a100(2, 4), 8);
    }
}
