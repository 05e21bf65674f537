//! `rescc-profile` — export one collective run as a Chrome trace.
//!
//! Compiles an algorithm for a Table-3 topology, simulates it with the
//! transfer trace and bubble attribution enabled, and merges everything
//! the observability stack produces — transfer events, classified TB
//! idle intervals, fault records, compiler phase spans, per-link
//! activity counters and (optionally) watchdog recovery spans from a
//! fault-injected `Communicator` run — into one trace-event JSON file
//! loadable in `chrome://tracing` or Perfetto.
//!
//! Track layout: one process per rank with one thread per TB (transfers
//! on the sender *and* receiver TB tracks, bubbles on the waiting TB's
//! track), one `pipeline` process for compile-phase wall-time spans, one
//! `links` process carrying per-link active-fraction counters and fault
//! instants, and one `watchdog demo` process for recovery spans.
//!
//! ```text
//! rescc-profile [--topo NxG] [--algo hm-allreduce|hm-allgather|taccl-allgather]
//!               [--buffer-mb N] [--fault] [--no-recovery] [--no-check]
//!               [--out FILE]
//! ```

use rescc_algos::{hm_allgather, hm_allreduce, taccl_like_allgather};
use rescc_alloc::{Direction, Slot, TbAllocation};
use rescc_backends::Communicator;
use rescc_core::Compiler;
use rescc_ir::TaskId;
use rescc_obs::{bubble_span, ArgValue, ChromeTrace, ObsStats, SpanCategory};
use rescc_sim::{BubbleCause, FaultTimeline, SimConfig};
use rescc_topology::{Rank, Topology};
use std::num::NonZeroU32;

struct Args {
    nodes: u32,
    gpus: u32,
    algo: String,
    buffer_mb: u64,
    fault: bool,
    recovery: bool,
    check: bool,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: rescc-profile [--topo NxG] [--algo hm-allreduce|hm-allgather|taccl-allgather]\n\
         \x20                    [--buffer-mb N] [--fault] [--no-recovery] [--no-check] [--out FILE]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: 2,
        gpus: 4,
        algo: "hm-allreduce".into(),
        buffer_mb: 128,
        fault: true,
        recovery: true,
        check: true,
        out: "rescc-profile-trace.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--topo" => {
                let v = it.next().unwrap_or_else(|| usage());
                let (n, g) = v.split_once('x').unwrap_or_else(|| usage());
                // Zero nodes or GPUs is a usage error, not a topology panic.
                let dim = |v: &str| v.parse::<NonZeroU32>().unwrap_or_else(|_| usage()).get();
                args.nodes = dim(n);
                args.gpus = dim(g);
            }
            "--algo" => args.algo = it.next().unwrap_or_else(|| usage()),
            "--buffer-mb" => {
                args.buffer_mb = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => args.out = it.next().unwrap_or_else(|| usage()),
            "--fault" => args.fault = true,
            "--no-fault" => args.fault = false,
            "--no-recovery" => args.recovery = false,
            "--no-check" => args.check = false,
            _ => usage(),
        }
    }
    args
}

/// The TB on `rank` that executes side `dir` of `task` for micro-batch
/// `mb`, per the compiled allocation.
fn tb_of(alloc: &TbAllocation, rank: u32, task: u32, dir: Direction, mb: u32) -> Option<u32> {
    let table = &alloc.table;
    let slot = Slot::new(TaskId::new(task), dir);
    table
        .rank_tbs(rank as usize)
        .iter()
        .position(|tb| tb.owns_micro_batch(mb) && table.tb_slots(tb).contains(&slot))
        .map(|i| i as u32)
}

const MB: u64 = 1 << 20;

fn main() {
    let args = parse_args();
    let topo = Topology::a100(args.nodes, args.gpus);
    let spec = match args.algo.as_str() {
        "hm-allreduce" => hm_allreduce(args.nodes, args.gpus),
        "hm-allgather" => hm_allgather(args.nodes, args.gpus),
        "taccl-allgather" => taccl_like_allgather(args.nodes, args.gpus),
        other => {
            eprintln!("unknown algorithm '{other}'");
            usage()
        }
    };
    let buffer = args.buffer_mb * MB;
    let n_ranks = topo.n_ranks();

    // Compile (phase spans) and dry-run to scale the fault schedule.
    let compiler = Compiler::new();
    let plan = compiler
        .compile_spec(&spec, &topo)
        .unwrap_or_else(|e| panic!("compile failed: {e}"));
    let mut stats = ObsStats::default();
    stats.add_compile(&plan.timings, "compiler", 0.0);

    let base_cfg = SimConfig::default()
        .without_validation()
        .with_trace()
        .with_observability();
    let dry = plan
        .run_with(buffer, MB, &base_cfg)
        .unwrap_or_else(|e| panic!("dry run failed: {e}"));
    let completion = dry.completion_ns;

    // The profiled run: optionally brown out one NVLink channel
    // mid-collective so the trace carries fault instants and the
    // contention bubble they cause. (A full LinkDown would abort the raw
    // engine — retries are the Communicator's job, demoed below.)
    let cfg = if args.fault {
        let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
        base_cfg.clone().with_faults(FaultTimeline::new().brownout(
            chan,
            0.3 * completion,
            0.2,
            0.3 * completion,
        ))
    } else {
        base_cfg.clone()
    };
    let sim = plan
        .run_with(buffer, MB, &cfg)
        .unwrap_or_else(|e| panic!("profiled run failed: {e}"));
    let obs = sim.obs.as_ref().expect("observability enabled");

    let mut trace = ChromeTrace::new();
    let pid_pipeline = 0u32;
    let pid_rank = |r: u32| r + 1;
    let pid_links = n_ranks + 1;
    let pid_watchdog = n_ranks + 2;

    // Pipeline track: compile-phase wall-time spans.
    trace.name_process(pid_pipeline, "pipeline (wall time)");
    trace.name_thread(pid_pipeline, 0, "compiler");
    for s in &stats.spans {
        trace.add_complete(
            pid_pipeline,
            0,
            &s.name,
            s.category.as_str(),
            s.start_ns,
            s.dur_ns,
            vec![("domain".into(), s.domain.as_str().into())],
        );
    }

    // Rank/TB tracks: transfers on both endpoint TBs, bubbles on theirs.
    for r in 0..n_ranks {
        trace.name_process(pid_rank(r), &format!("rank {r}"));
        for t in 0..plan.alloc.table.rank_tbs(r as usize).len() {
            trace.name_thread(pid_rank(r), t as u32, &format!("tb {t}"));
        }
    }
    for ev in &sim.trace {
        let dur = ev.end_ns - ev.start_ns;
        let args_of = |peer: String| {
            vec![
                ("peer".into(), ArgValue::Str(peer)),
                ("bytes".into(), (ev.bytes as f64).into()),
                ("drain_start_ns".into(), ev.drain_start_ns.into()),
                ("task".into(), (ev.task as f64).into()),
                ("mb".into(), (ev.mb as f64).into()),
            ]
        };
        if let Some(tb) = tb_of(&plan.alloc, ev.src, ev.task, Direction::Send, ev.mb) {
            trace.add_complete(
                pid_rank(ev.src),
                tb,
                &format!("send t{} mb{}", ev.task, ev.mb),
                "transfer",
                ev.start_ns,
                dur,
                args_of(format!("-> r{}", ev.dst)),
            );
        }
        if let Some(tb) = tb_of(&plan.alloc, ev.dst, ev.task, Direction::Recv, ev.mb) {
            trace.add_complete(
                pid_rank(ev.dst),
                tb,
                &format!("recv t{} mb{}", ev.task, ev.mb),
                "transfer",
                ev.start_ns,
                dur,
                args_of(format!("<- r{}", ev.src)),
            );
        }
    }
    for b in &obs.bubbles {
        let s = bubble_span(b);
        trace.add_complete(
            pid_rank(b.rank),
            b.tb,
            &s.name,
            s.category.as_str(),
            s.start_ns,
            s.dur_ns,
            vec![
                ("task".into(), (b.task as f64).into()),
                ("mb".into(), (b.mb as f64).into()),
            ],
        );
    }

    // Link track: active-fraction counters for the hottest links, fault
    // instants for every recorded transition.
    trace.name_process(pid_links, "links");
    let mut hottest: Vec<_> = sim.resource_stats.iter().collect();
    hottest.sort_by(|a, b| b.active_ns.total_cmp(&a.active_ns));
    let hot: Vec<u32> = hottest.iter().take(4).map(|r| r.resource).collect();
    if hottest.len() > 4 {
        println!(
            "note: counter tracks limited to the 4 hottest of {} links",
            hottest.len()
        );
    }
    for lt in obs
        .link_timelines
        .iter()
        .filter(|l| hot.contains(&l.resource))
    {
        let name = format!("link {} active", lt.resource);
        for (k, active) in lt.active.iter().enumerate() {
            let frac = if obs.bucket_ns > 0.0 {
                active / obs.bucket_ns
            } else {
                0.0
            };
            trace.add_counter(
                pid_links,
                &name,
                k as f64 * obs.bucket_ns,
                &[("frac", frac)],
            );
        }
    }
    for fr in &sim.faults {
        trace.add_instant(
            pid_links,
            0,
            &format!("{:?}", fr.fault),
            "fault",
            fr.at_ns.max(0.0),
            vec![],
        );
    }

    // Watchdog demo: a fault-injected Communicator run contributes
    // recovery spans (retries, backoff, mask+recompile) on its own track.
    if args.recovery {
        let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
        let mut comm = Communicator::new(topo.clone())
            .with_observability()
            .with_faults(FaultTimeline::new().kill(chan, 0.35 * completion));
        match comm.all_reduce(buffer) {
            Err(e) => eprintln!("watchdog demo failed (skipping track): {e}"),
            Ok(rep) => {
                trace.name_process(pid_watchdog, "watchdog demo (sim time)");
                trace.name_thread(pid_watchdog, 0, "recovery");
                trace.name_thread(pid_watchdog, 1, "compiler");
                trace.name_thread(pid_watchdog, 2, "journal");
                let demo = rep.obs.as_ref().expect("observability enabled");
                for s in &demo.spans {
                    let tid = match s.category {
                        SpanCategory::Recovery => 0,
                        _ => 1,
                    };
                    trace.add_complete(
                        pid_watchdog,
                        tid,
                        &s.name,
                        s.category.as_str(),
                        s.start_ns,
                        s.dur_ns,
                        vec![("domain".into(), s.domain.as_str().into())],
                    );
                }
                // Per-attempt recovery journal: one instant per watchdog
                // decision, named by the action taken, stamped at the sim
                // time the triggering fault was observed.
                if let Some(rec) = rep.recovery.as_ref() {
                    for ev in &rec.journal {
                        trace.add_instant(
                            pid_watchdog,
                            2,
                            ev.action.as_str(),
                            "recovery",
                            ev.at_ns.max(0.0),
                            vec![
                                ("attempt".into(), (ev.attempt as f64).into()),
                                ("cause".into(), ArgValue::Str(ev.cause.clone())),
                            ],
                        );
                    }
                }
            }
        }
    }

    let json = trace.to_json();
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", args.out));

    // Text summary.
    println!(
        "profiled {} on a100({}, {}), {} MB: completion {:.3} ms, {} transfers, {} bubbles",
        spec.name(),
        args.nodes,
        args.gpus,
        args.buffer_mb,
        sim.completion_ns / 1e6,
        sim.trace.len(),
        obs.bubbles.len(),
    );
    let totals = obs.cause_totals_ns();
    for (cause, ns) in BubbleCause::ALL.iter().zip(totals.iter()) {
        println!("  {:<16} {:>10.3} ms", cause.as_str(), ns / 1e6);
    }
    println!("wrote {} ({} events)", args.out, trace.len());

    if args.check {
        match rescc_obs::validate_chrome_trace_str(&json) {
            Ok(s) => println!(
                "validated: {} events ({} spans, {} instants, {} counters) on {} tracks",
                s.total_events(),
                s.complete,
                s.instants,
                s.counters,
                s.tracks
            ),
            Err(e) => {
                eprintln!("emitted trace failed validation: {e}");
                std::process::exit(1);
            }
        }
    }
}
