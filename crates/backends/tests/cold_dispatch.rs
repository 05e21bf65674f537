//! A cold dispatch overlaps its plan's sanitize phase with its first run
//! (`Compiler::compile_spec_then`). The deny gate still decides: a refused
//! plan fails the call as a serial compile would, caches nothing and
//! starts no recovery. A dispatch that compiled and the same dispatch
//! served from the cache report the same run.

use rescc_algos::{hm_allgather, hm_allreduce};
use rescc_backends::{Backend, Communicator};
use rescc_core::{Compiler, LintGate};
use rescc_sim::{FaultTimeline, SimError};
use rescc_topology::{Rank, Topology};

const MB: u64 = 1 << 20;

/// The fused HM-AllReduce plan on a100 1×8 deadlocks in the engine, and
/// RA001 refuses it. The speculative run fails first or last, but the
/// call fails with the lint refusal either way.
#[test]
fn the_gate_wins_over_the_speculative_run() {
    let topo = Topology::a100(1, 8);
    let spec = hm_allreduce(1, 8);
    let fused = Compiler::new().with_fusion();

    // Precondition: the engine, run past the gate, deadlocks.
    let warned = fused.clone().with_lint_gate(LintGate::Warn);
    let plan = warned.compile_spec(&spec, &topo).unwrap();
    let ran = plan.run(64 * MB, MB).unwrap_err();
    assert!(matches!(ran, SimError::Deadlock(_)), "{ran}");

    // A transient flap inside the speculative run would start a retry if
    // the watchdog saw that run.
    let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
    for faults in [
        FaultTimeline::new(),
        FaultTimeline::new().flap(chan, 1_000.0, 50_000.0, 50_000.0, 1),
    ] {
        let mut comm = Communicator::new(topo.clone())
            .with_backend(Backend::Resccl(fused.clone()))
            .with_faults(faults);
        match comm.run_spec(&spec, 64 * MB, MB) {
            Err(SimError::LintRejected { report }) => {
                assert!(report.contains("RA001"), "{report}")
            }
            other => panic!("expected the RA001 refusal, got {other:?}"),
        }
        let stats = comm.cache_stats();
        assert_eq!((stats.misses, stats.entries), (0, 0), "{stats:?}");
        // No trigger: the call dispatched once and never again.
        assert!(comm.cache_handle().journal().is_empty());
        assert!(comm.health().is_empty());
    }
}

/// The first call compiles and overlaps, the second hits: their reports
/// are equal, plain, validated, and with a transient fault that lands in
/// the first attempt, which is the overlapped run on the miss.
#[test]
fn a_miss_and_its_repeat_report_the_same_run() {
    let topo = Topology::a100(2, 4);
    let spec = hm_allgather(2, 4);
    let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
    let comms = [
        Communicator::new(topo.clone()),
        Communicator::new(topo.clone()).with_validation(),
        Communicator::new(topo.clone())
            .with_validation()
            .with_faults(FaultTimeline::new().flap(chan, 20_000.0, 60_000.0, 60_000.0, 1)),
    ];
    for (case, mut comm) in comms.into_iter().enumerate() {
        let miss = comm.run_spec(&spec, 64 * MB, MB).unwrap();
        let repeat = comm.run_spec(&spec, 64 * MB, MB).unwrap();
        let stats = comm.cache_stats();
        assert_eq!(stats.misses, 1, "case {case}: {stats:?}");
        assert_eq!(miss, repeat, "case {case}");
        match case {
            0 => assert_eq!(miss.sim.data_valid, None),
            1 => assert_eq!(miss.sim.data_valid, Some(true)),
            _ => {
                assert_eq!(miss.sim.data_valid, Some(true));
                let rec = miss.recovery.as_ref().expect("watchdog engaged");
                assert!(rec.retries >= 1, "the first attempt must fault: {rec:?}");
                assert_eq!(rec.recompiles, 0);
            }
        }
    }
}
