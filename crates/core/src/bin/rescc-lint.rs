//! `rescc-lint` — run the cross-phase static analysis (lints RA001–RA007)
//! over compiled plans, without executing anything.
//!
//! ```text
//! rescc-lint <algorithm.rcl> [options]     lint one DSL source
//! rescc-lint --all [options]               lint the seed algorithm library
//!                                          across the Table 3 topologies
//!
//!   --nodes <N>        servers in the cluster            (default 2)
//!   --gpus <G>         GPUs per server                   (default 8)
//!   --fabric <a100|v100>                                 (default a100)
//!   --scheduler <hpds|rr>                                (default hpds)
//!   --tb-budget <N>    per-rank TB budget for RA003      (default 64)
//!   --json             machine-readable output (stable schema)
//!   --explain          expand counterexample paths and the α–β–γ cost
//!                      certificate under each human-readable report
//!   --deny-warnings    exit nonzero on warnings too
//! ```
//!
//! Exit status is nonzero when any linted plan carries an `Error`-severity
//! finding (or any finding at all under `--deny-warnings`), or when a plan
//! fails to compile.
//!
//! JSON schema (append-only; one entry per linted plan; the `report`
//! object — including per-diagnostic `path` arrays and the plan's
//! `certificate` — is documented in DESIGN.md §12):
//!
//! ```json
//! {"plans": [{"algo": "hm-ar-2x8", "topology": "a100-2x8",
//!             "report": {"diagnostics": [...], "errors": 0, "warnings": 0,
//!                        "certificate": {...}}}],
//!  "errors": 0, "warnings": 0}
//! ```
//!
//! Compile failures appear as `{"algo": ..., "topology": ...,
//! "compile_error": "..."}` entries and count as errors.

use rescc_analyze::escape_json;
use rescc_core::{CompiledPlan, Compiler, LintGate, SchedulerChoice};
use rescc_lang::AlgoSpec;
use rescc_topology::Topology;
use std::num::NonZeroU32;
use std::process::ExitCode;

struct Args {
    source_path: Option<String>,
    all: bool,
    nodes: NonZeroU32,
    gpus: NonZeroU32,
    fabric: String,
    scheduler: SchedulerChoice,
    tb_budget: u32,
    json: bool,
    explain: bool,
    deny_warnings: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        source_path: None,
        all: false,
        nodes: NonZeroU32::new(2).unwrap(),
        gpus: NonZeroU32::new(8).unwrap(),
        fabric: "a100".into(),
        scheduler: SchedulerChoice::Hpds,
        tb_budget: 64,
        json: false,
        explain: false,
        deny_warnings: false,
    };
    let mut it = std::env::args().skip(1);
    let next_val = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => args.all = true,
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
            "--tb-budget" => {
                args.tb_budget = next_val(&mut it, "--tb-budget")?
                    .parse()
                    .map_err(|e| format!("--tb-budget: {e}"))?
            }
            "--json" => args.json = true,
            "--explain" => args.explain = true,
            "--deny-warnings" => args.deny_warnings = true,
            "--help" | "-h" => {
                return Err(
                    "usage: rescc-lint <algorithm.rcl> | --all  [--nodes N] [--gpus G] \
                     [--fabric a100|v100] [--scheduler hpds|rr] [--tb-budget N] \
                     [--json] [--explain] [--deny-warnings]"
                        .into(),
                )
            }
            path if !path.starts_with('-') && args.source_path.is_none() => {
                args.source_path = Some(path.to_string());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.source_path.is_none() && !args.all {
        return Err("need an <algorithm.rcl> source path or --all (try --help)".into());
    }
    if args.source_path.is_some() && args.all {
        return Err("--all and a source path are mutually exclusive".into());
    }
    Ok(args)
}

/// One linted plan, ready for rendering. The whole plan is kept (not just
/// its report) so `--explain` can resolve counterexample path nodes back
/// to their task tuples.
struct Outcome {
    algo: String,
    topology: String,
    result: Result<Box<CompiledPlan>, String>,
}

impl Outcome {
    fn n_errors(&self) -> usize {
        match &self.result {
            Ok(plan) => plan.diagnostics.n_errors(),
            Err(_) => 1,
        }
    }

    fn n_warnings(&self) -> usize {
        match &self.result {
            Ok(plan) => plan.diagnostics.n_warnings(),
            Err(_) => 0,
        }
    }
}

fn lint_spec(compiler: &Compiler, spec: &AlgoSpec, topo: &Topology) -> Outcome {
    Outcome {
        algo: spec.name().to_string(),
        topology: topo.name().to_string(),
        result: compiler
            .compile_spec(spec, topo)
            .map(Box::new)
            .map_err(|e| e.to_string()),
    }
}

fn render_json(outcomes: &[Outcome]) -> String {
    let mut out = String::from("{\"plans\": [");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"algo\": \"{}\", \"topology\": \"{}\", ",
            escape_json(&o.algo),
            escape_json(&o.topology)
        ));
        match &o.result {
            Ok(plan) => out.push_str(&format!("\"report\": {}}}", plan.diagnostics.to_json())),
            Err(e) => out.push_str(&format!("\"compile_error\": \"{}\"}}", escape_json(e))),
        }
    }
    let errors: usize = outcomes.iter().map(Outcome::n_errors).sum();
    let warnings: usize = outcomes.iter().map(Outcome::n_warnings).sum();
    out.push_str(&format!(
        "], \"errors\": {errors}, \"warnings\": {warnings}}}"
    ));
    out
}

/// `--explain`: expand each diagnostic's counterexample path into the
/// concrete task tuples behind the node ids, and render the plan's
/// certified makespan floor.
fn render_explain(plan: &CompiledPlan) -> String {
    let mut out = String::new();
    for d in plan.diagnostics.diagnostics() {
        if d.path.is_empty() {
            continue;
        }
        out.push_str(&format!("  {} counterexample path:\n", d.code.as_str()));
        for &t in &d.path {
            if (t as usize) < plan.dag.len() {
                let task = plan.dag.task(rescc_ir::TaskId::new(t));
                out.push_str(&format!(
                    "    t{t}: {} -> {} chunk c{} step {} ({:?})\n",
                    task.src, task.dst, task.chunk.0, task.step.0, task.comm
                ));
            } else {
                out.push_str(&format!("    t{t}: (outside this plan's task space)\n"));
            }
        }
    }
    if let Some(c) = plan.diagnostics.certificate() {
        out.push_str(&format!(
            "  certified makespan floor: max(α-chain {:.0} ns, res{} drain: \
             {} task(s) x chunk_bytes x {:.4} ns/B)\n",
            c.alpha_chain_ns,
            c.bottleneck_resource,
            c.bottleneck_tasks,
            c.bottleneck_beta_ns_per_byte
        ));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Warn gate: always produce the plan and its report — this tool *is*
    // the gate, and decides the exit status itself.
    let mut compiler = Compiler {
        scheduler: args.scheduler,
        ..Compiler::new()
    }
    .with_lint_gate(LintGate::Warn);
    compiler.lint_config.tb_budget_per_rank = args.tb_budget;

    let mut outcomes: Vec<Outcome> = Vec::new();

    if let Some(path) = &args.source_path {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
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
        let result = compiler
            .compile_source(&source, &topo)
            .map(Box::new)
            .map_err(|e| e.to_string());
        outcomes.push(Outcome {
            algo: path.clone(),
            topology: topo.name().to_string(),
            result,
        });
    } else {
        for i in 1..=4 {
            let topo = Topology::table3_topo(i).expect("table 3 preset");
            let spec = topo.spec();
            for algo in rescc_algos::seed_suite(spec.n_nodes, spec.gpus_per_node) {
                outcomes.push(lint_spec(&compiler, &algo, &topo));
            }
        }
    }

    let errors: usize = outcomes.iter().map(Outcome::n_errors).sum();
    let warnings: usize = outcomes.iter().map(Outcome::n_warnings).sum();

    if args.json {
        println!("{}", render_json(&outcomes));
    } else {
        for o in &outcomes {
            match &o.result {
                Ok(plan) if plan.diagnostics.is_clean() => {
                    println!("{} on {}: clean", o.algo, o.topology);
                    if args.explain {
                        print!("{}", render_explain(plan));
                    }
                }
                Ok(plan) => {
                    println!("{} on {}:", o.algo, o.topology);
                    print!("{}", plan.diagnostics.render_human());
                    if args.explain {
                        print!("{}", render_explain(plan));
                    }
                }
                Err(e) => println!("{} on {}: compile error: {e}", o.algo, o.topology),
            }
        }
        println!(
            "{} plan(s) linted, {errors} error(s), {warnings} warning(s)",
            outcomes.len()
        );
    }

    if errors > 0 || (args.deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
