//! `resccl-compile` — the offline compiler as a command-line tool.
//!
//! ```text
//! resccl-compile <algorithm.rcl> [options]
//!
//!   --nodes <N>        servers in the cluster            (default 2)
//!   --gpus <G>         GPUs per server                   (default 8)
//!   --fabric <a100|v100>                                 (default a100)
//!   --scheduler <hpds|rr>                                (default hpds)
//!   --emit-kernels     print the generated pseudo-CUDA
//!   --run <BYTES>      simulate one collective of this buffer size
//!   --chunk <BYTES>    transfer chunk size               (default 1048576)
//!   --gantt            with --run: print a sender-activity timeline
//! ```
//!
//! Example:
//!
//! ```sh
//! cargo run --release -p rescc-core --bin resccl-compile -- \
//!     my_allreduce.rcl --nodes 2 --gpus 8 --run 268435456 --gantt
//! ```

use rescc_core::{Compiler, SchedulerChoice};
use rescc_lang::LangError;
use rescc_sim::{render_gantt, BottleneckReport, SimConfig, SimError};
use rescc_topology::Topology;
use std::num::NonZeroU32;
use std::process::ExitCode;

struct Args {
    source_path: String,
    nodes: NonZeroU32,
    gpus: NonZeroU32,
    fabric: String,
    scheduler: SchedulerChoice,
    emit_kernels: bool,
    run_bytes: Option<u64>,
    chunk_bytes: u64,
    gantt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        source_path: String::new(),
        nodes: NonZeroU32::new(2).unwrap(),
        gpus: NonZeroU32::new(8).unwrap(),
        fabric: "a100".into(),
        scheduler: SchedulerChoice::Hpds,
        emit_kernels: false,
        run_bytes: None,
        chunk_bytes: 1 << 20,
        gantt: false,
    };
    let mut it = std::env::args().skip(1);
    let next_val = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--nodes" => {
                args.nodes = next_val(&mut it, "--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--gpus" => {
                args.gpus = next_val(&mut it, "--gpus")?
                    .parse()
                    .map_err(|e| format!("--gpus: {e}"))?
            }
            "--fabric" => args.fabric = next_val(&mut it, "--fabric")?,
            "--scheduler" => {
                args.scheduler = match next_val(&mut it, "--scheduler")?.as_str() {
                    "hpds" => SchedulerChoice::Hpds,
                    "rr" => SchedulerChoice::RoundRobin,
                    other => return Err(format!("unknown scheduler `{other}` (hpds|rr)")),
                }
            }
            "--emit-kernels" => args.emit_kernels = true,
            "--run" => {
                args.run_bytes = Some(
                    next_val(&mut it, "--run")?
                        .parse()
                        .map_err(|e| format!("--run: {e}"))?,
                )
            }
            "--chunk" => {
                args.chunk_bytes = next_val(&mut it, "--chunk")?
                    .parse()
                    .map_err(|e| format!("--chunk: {e}"))?
            }
            "--gantt" => args.gantt = true,
            "--help" | "-h" => {
                return Err(
                    "usage: resccl-compile <algorithm.rcl> [--nodes N] [--gpus G] \
                            [--fabric a100|v100] [--scheduler hpds|rr] [--emit-kernels] \
                            [--run BYTES] [--chunk BYTES] [--gantt]"
                        .into(),
                )
            }
            path if !path.starts_with('-') && args.source_path.is_empty() => {
                args.source_path = path.to_string();
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.source_path.is_empty() {
        return Err("missing <algorithm.rcl> source path (try --help)".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let source = match std::fs::read_to_string(&args.source_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.source_path);
            return ExitCode::FAILURE;
        }
    };

    let topo = match args.fabric.as_str() {
        "a100" => Topology::a100(args.nodes.get(), args.gpus.get()),
        "v100" => Topology::v100(args.nodes.get(), args.gpus.get()),
        other => {
            eprintln!("unknown fabric `{other}` (a100|v100)");
            return ExitCode::FAILURE;
        }
    };

    let compiler = Compiler {
        scheduler: args.scheduler,
        ..Compiler::new()
    };
    let plan = match compiler.compile_source(&source, &topo) {
        Ok(p) => p,
        // A syntactic failure gets a caret diagnostic.
        Err(SimError::InvalidAlgorithm(
            lang_err @ (LangError::Lex { .. } | LangError::Parse { .. }),
        )) => {
            eprint!(
                "{}",
                rescc_lang::render_diagnostic(&lang_err, &source, &args.source_path)
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("compilation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "compiled `{}` for {}: {} tasks, {} sub-pipelines, {} TBs",
        args.source_path,
        topo.name(),
        plan.dag.len(),
        plan.schedule.sub_pipelines.len(),
        plan.total_tbs(),
    );
    println!(
        "phases: parsing {:?}, analysis {:?}, scheduling {:?}, lowering {:?}, \
         sanitize {:?} (total {:?})",
        plan.timings.parsing,
        plan.timings.analysis,
        plan.timings.scheduling,
        plan.timings.lowering,
        plan.timings.sanitize,
        plan.timings.total(),
    );

    if args.emit_kernels {
        println!("\n{}", plan.emit_kernels());
    }

    if let Some(buffer) = args.run_bytes {
        let mut cfg = SimConfig::default();
        if args.gantt {
            cfg = cfg.with_trace();
        }
        match plan.run_with(buffer, args.chunk_bytes, &cfg) {
            Ok(report) => {
                println!(
                    "\nrun: {} bytes in {:.3} ms -> {:.2} GB/s algbw, \
                     {} invocations over {} micro-batches, data {}",
                    buffer,
                    report.completion_ns / 1e6,
                    report.algo_bandwidth_gbps(buffer),
                    report.n_invocations,
                    report.n_micro_batches,
                    match report.data_valid {
                        Some(true) => "VERIFIED",
                        Some(false) => "CORRUPT",
                        None => "unchecked",
                    },
                );
                println!(
                    "TBs: avg utilization {:.1}%, max idle {:.1}%",
                    100.0 * report.avg_comm_ratio(),
                    100.0 * report.max_idle_ratio(),
                );
                if let Some((res, ratio)) = BottleneckReport::from_report(&report).bottleneck() {
                    println!(
                        "bottleneck: resource res{res} active {:.1}% of the run",
                        100.0 * ratio
                    );
                }
                if args.gantt {
                    println!("\nsender activity (one row per rank):");
                    print!("{}", render_gantt(&report.trace, topo.n_ranks(), 64));
                }
            }
            Err(e) => {
                eprintln!("simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
