//! # rescc-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§5). Each `src/bin/<id>.rs` binary reproduces one
//! artifact and prints the same rows/series the paper reports;
//! `reproduce-all` runs the full set. Figure 10(a) and the non-paper
//! experiments (lint cost, recovery, chaos, observability, plan service,
//! simulator wall time) also write `BENCH_*.json` files, and each
//! `*-smoke` CI gate forwards to a small run of its experiment's own
//! measurement code.
//!
//! Shared here: the buffer-size grids, table formatting, the backend
//! comparison panel (parallelized across buffer sizes with scoped
//! threads), and the pass/fail gate, sample statistics and `BENCH_*.json`
//! writer the experiments share. [`mod@reference`] holds the seed
//! schedulers that the library's flat HPDS and round-robin are measured
//! and tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod reference;

use rescc_backends::{Backend, Communicator};
use rescc_lang::AlgoSpec;
use rescc_topology::Topology;

/// 1 MiB.
pub const MB: u64 = 1 << 20;
/// 1 GiB.
pub const GB: u64 = 1 << 30;

/// The paper's buffer-size sweep: 8 MB – 4 GB in powers of two
/// (Figs. 6–7).
pub fn buffer_sweep() -> Vec<u64> {
    (0..10).map(|i| (8 * MB) << i).collect()
}

/// A shorter sweep for the V100 figures (16 MB – 4 GB, Fig. 11).
pub fn v100_sweep() -> Vec<u64> {
    (0..9).map(|i| (16 * MB) << i).collect()
}

/// Human-friendly byte formatting ("8MB", "4GB").
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= GB {
        format!("{}GB", bytes / GB)
    } else {
        format!("{}MB", bytes / MB)
    }
}

/// Percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Print an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The failed checks of one experiment or smoke-gate run.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// Record `failure` unless `ok`.
    pub(crate) fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Print every failure and exit non-zero if there was one; otherwise
    /// print that `name` passed.
    pub(crate) fn finish(self, name: &str) {
        if self.failures.is_empty() {
            println!("{name}: all guards passed");
            return;
        }
        for f in &self.failures {
            eprintln!("{name} FAILURE: {f}");
        }
        std::process::exit(1);
    }
}

/// Wall time of `f` in seconds, with its result.
pub(crate) fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = std::time::Instant::now();
    let v = f();
    (t0.elapsed().as_secs_f64(), v)
}

/// `(median, min, max)` of a sample set.
pub(crate) fn median_min_max(samples: &mut [f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    (
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
    )
}

/// Write a `BENCH_*.json` document to the working directory.
///
/// # Panics
///
/// If `json` does not parse: a `NaN` or `inf` cell is not JSON.
pub(crate) fn write_bench_json(file: &str, json: &str) {
    if let Err(e) = rescc_obs::parse_json(json) {
        panic!("{file} is not valid JSON ({e}):\n{json}");
    }
    match std::fs::write(file, json) {
        Ok(()) => println!("wrote {file}"),
        Err(e) => eprintln!("could not write {file}: {e}"),
    }
}

/// A standard comparison panel: NCCL runs its own standard algorithm
/// (`nccl_spec` — real NCCL cannot execute custom algorithms), while MSCCL
/// and ResCCL execute the custom `custom_spec`, swept over the paper's
/// buffer grid.
pub fn backend_panel(title: &str, nccl_spec: &AlgoSpec, custom_spec: &AlgoSpec, topo: &Topology) {
    backend_panel_with(title, nccl_spec, custom_spec, topo, &buffer_sweep());
}

/// [`backend_panel`] with an explicit buffer grid.
pub fn backend_panel_with(
    title: &str,
    nccl_spec: &AlgoSpec,
    custom_spec: &AlgoSpec,
    topo: &Topology,
    buffers: &[u64],
) {
    let comm = |backend| Communicator::new(topo.clone()).with_backend(backend);
    let mut nccl = comm(Backend::nccl());
    let mut msccl = comm(Backend::msccl());
    let mut resccl = comm(Backend::resccl());
    let mut rows = Vec::new();
    for &buffer in buffers {
        let n = nccl
            .run_spec(nccl_spec, buffer, MB)
            .unwrap_or_else(|e| panic!("nccl {}: {e}", fmt_bytes(buffer)));
        let m = msccl
            .run_spec(custom_spec, buffer, MB)
            .unwrap_or_else(|e| panic!("msccl {}: {e}", fmt_bytes(buffer)));
        let r = resccl
            .run_spec(custom_spec, buffer, MB)
            .unwrap_or_else(|e| panic!("resccl {}: {e}", fmt_bytes(buffer)));
        rows.push(vec![
            fmt_bytes(buffer),
            format!("{:.2}", n.algbw_gbps()),
            format!("{:.2}", m.algbw_gbps()),
            format!("{:.2}", r.algbw_gbps()),
            format!("{:.2}x", r.algbw_gbps() / n.algbw_gbps()),
            format!("{:.2}x", r.algbw_gbps() / m.algbw_gbps()),
        ]);
    }
    print_table(
        &format!("{title}: algorithm bandwidth (GB/s)"),
        &["buffer", "NCCL", "MSCCL", "ResCCL", "vs NCCL", "vs MSCCL"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grid_matches_paper_range() {
        let g = buffer_sweep();
        assert_eq!(g.first().copied(), Some(8 * MB));
        assert_eq!(g.last().copied(), Some(4 * GB));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(8 * MB), "8MB");
        assert_eq!(fmt_bytes(4 * GB), "4GB");
        assert_eq!(fmt_bytes(512 * MB), "512MB");
    }

    #[test]
    fn gate_collects_only_failed_checks() {
        let mut gate = Gate::default();
        gate.check(true, || unreachable!());
        gate.check(false, || "slow".into());
        assert_eq!(gate.failures, ["slow"]);
    }

    #[test]
    fn median_min_max_sorts_samples() {
        assert_eq!(median_min_max(&mut [3.0, 1.0, 2.0]), (2.0, 1.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "BENCH_nan.json is not valid JSON")]
    fn write_bench_json_rejects_nan() {
        write_bench_json("BENCH_nan.json", &format!("{{\"x\": {}}}", f64::NAN));
    }
}
