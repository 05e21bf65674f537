//! Chaos campaign: seeded randomized multi-fault timelines (permanent
//! kills, kill-then-restore outages, flaps, brownouts, stragglers —
//! including faults that land *during* recovery attempts) driven through
//! the full watchdog stack on every workload × Table-3 topology. The
//! properties: the collective either delivers machine-validated data
//! within the watchdog's bounded retry/recompile budgets, or gives up
//! with a typed error; recovery accounting (retries, recompiles, resumes,
//! heals, journal) stays internally consistent; and identical seeds
//! replay byte-identically.

use rescc_backends::{Communicator, RecoveryAction, RecoveryStats, RunReport};
use rescc_lang::OpType;
use rescc_sim::{FaultTimeline, SimError, SimResult};
use rescc_topology::Topology;

const MB: u64 = 1 << 20;

/// The workload axis: one collective per operator the communicator serves.
const OPS: [OpType; 3] = [OpType::AllReduce, OpType::AllGather, OpType::ReduceScatter];

fn issue(comm: &mut Communicator, op: OpType, buffer: u64) -> SimResult<RunReport> {
    match op {
        OpType::AllReduce => comm.all_reduce(buffer),
        OpType::AllGather => comm.all_gather(buffer),
        OpType::ReduceScatter => comm.reduce_scatter(buffer),
    }
}

/// Per-attempt journal and counters must describe the same history:
/// every retry/recompile/heal journals exactly one event whose action
/// tallies match the counters, attempts are issued in order, and resumed
/// dispatches never outnumber the failures that could have produced a
/// frontier.
fn check_accounting(ctx: &str, rec: &RecoveryStats) {
    let count = |a: RecoveryAction| rec.journal.iter().filter(|e| e.action == a).count() as u32;
    assert_eq!(
        rec.journal.len() as u32,
        rec.retries + rec.recompiles + rec.heals,
        "{ctx}: journal entries must match the counters"
    );
    assert_eq!(
        count(RecoveryAction::Retry) + count(RecoveryAction::Resume),
        rec.retries,
        "{ctx}: every transient failure journals a retry or a resume"
    );
    assert_eq!(
        count(RecoveryAction::FullRecompile),
        rec.recompiles,
        "{ctx}: every permanent failure journals a recompile"
    );
    assert_eq!(
        count(RecoveryAction::Heal),
        rec.heals,
        "{ctx}: every heal journals"
    );
    assert!(
        rec.resumes <= rec.retries + rec.recompiles,
        "{ctx}: {} resumed dispatches but only {} failed attempts",
        rec.resumes,
        rec.retries + rec.recompiles
    );
    let attempts: Vec<u32> = rec.journal.iter().map(|e| e.attempt).collect();
    assert!(
        attempts.windows(2).all(|w| w[0] <= w[1]),
        "{ctx}: journal attempts out of order: {attempts:?}"
    );
    for e in &rec.journal {
        assert!(
            e.at_ns >= 0.0 && e.at_ns.is_finite(),
            "{ctx}: journal timestamp {} not a sim instant",
            e.at_ns
        );
        assert!(!e.cause.is_empty(), "{ctx}: journal entry without a cause");
    }
}

/// A give-up must be a *typed*, explained error — never a panic, never a
/// silent wrong answer. The legitimate shapes: a permanent `ResourceDown`
/// the routing could not mask around (budget exhausted or already
/// masked), or the sanitize gate denying the degraded plan.
fn check_give_up(ctx: &str, err: &SimError) {
    match err {
        SimError::ResourceDown { permanent, .. } => {
            assert!(*permanent, "{ctx}: gave up on a transient fault: {err}")
        }
        other => {
            let msg = other.to_string();
            assert!(
                msg.contains("RA005") || msg.contains("recovery") || msg.contains("sanitize"),
                "{ctx}: unexplained give-up: {msg}"
            );
        }
    }
}

#[test]
fn chaos_timelines_validate_or_give_up_typed_across_grid() {
    let buffer = 16 * MB;
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        for op in OPS {
            // Healthy baseline scales the fault horizon so chaos lands
            // mid-collective rather than after completion.
            let healthy = issue(&mut Communicator::new(topo.clone()), op, buffer)
                .unwrap_or_else(|e| panic!("healthy {op:?} on {}: {e}", topo.name()));
            let horizon = healthy.sim.completion_ns;
            let mut survived = 0u32;
            for seed in 0..4u64 {
                let ctx = format!("{op:?} on {} seed {seed}", topo.name());
                let tl =
                    FaultTimeline::seeded_chaos(seed, topo.n_resources(), topo.n_ranks(), horizon);
                let mut comm = Communicator::new(topo.clone())
                    .with_validation()
                    .with_faults(tl);
                match issue(&mut comm, op, buffer) {
                    Ok(rep) => {
                        survived += 1;
                        assert_eq!(
                            rep.sim.data_valid,
                            Some(true),
                            "{ctx}: recovered run must validate"
                        );
                        let rec = rep.recovery.expect("chaos engages the watchdog");
                        assert!(rec.retries <= 8, "{ctx}: retry budget exceeded");
                        assert!(rec.recompiles <= 4, "{ctx}: recompile budget exceeded");
                        check_accounting(&ctx, &rec);
                    }
                    Err(err) => check_give_up(&ctx, &err),
                }
            }
            assert!(
                survived > 0,
                "{op:?} on {}: every chaos seed gave up — recovery is not working",
                topo.name()
            );
        }
    }
}

#[test]
fn chaos_replays_byte_identically() {
    // The whole recovery path — frontier capture, the resume check,
    // resume, mask + recompile — is deterministic: identical seeds must
    // produce identical reports (or identical give-ups).
    let topo = Topology::a100(2, 4);
    let buffer = 32 * MB;
    for seed in 0..6u64 {
        let run = || {
            let tl =
                FaultTimeline::seeded_chaos(seed, topo.n_resources(), topo.n_ranks(), 1_500_000.0);
            let mut comm = Communicator::new(topo.clone())
                .with_validation()
                .with_faults(tl);
            comm.all_reduce(buffer)
        };
        match (run(), run()) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed}: reports diverge"),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "seed {seed}: errors diverge")
            }
            (a, b) => panic!(
                "seed {seed}: one replay succeeded, the other failed: {:?} vs {:?}",
                a.map(|r| r.sim.completion_ns),
                b.map(|r| r.sim.completion_ns)
            ),
        }
    }
}

#[test]
fn chaos_during_recovery_and_rearming_heals() {
    // Sequential collectives on one communicator, re-armed with a fresh
    // chaos schedule between calls: masked resources whose new schedule
    // no longer declares them dead must heal, and every surviving call
    // must still validate.
    let topo = Topology::a100(2, 4);
    let buffer = 16 * MB;
    let mut comm = Communicator::new(topo.clone()).with_validation();
    let mut healed = 0u32;
    for seed in 10..16u64 {
        let tl = FaultTimeline::seeded_chaos(seed, topo.n_resources(), topo.n_ranks(), 1_000_000.0);
        comm.set_faults(tl);
        match comm.all_reduce(buffer) {
            Ok(rep) => {
                assert_eq!(rep.sim.data_valid, Some(true), "seed {seed}");
                if let Some(rec) = rep.recovery {
                    healed += rec.heals;
                    check_accounting(&format!("re-armed seed {seed}"), &rec);
                }
            }
            Err(err) => check_give_up(&format!("re-armed seed {seed}"), &err),
        }
    }
    // Disarm entirely: everything previously masked but no longer dead
    // heals at this boundary, and the collective runs clean.
    comm.set_faults(FaultTimeline::new());
    let rep = comm.all_reduce(buffer).expect("disarmed call runs clean");
    assert_eq!(rep.sim.data_valid, Some(true));
    if let Some(rec) = &rep.recovery {
        healed += rec.heals;
        assert_eq!(rec.retries, 0, "disarmed call must not retry");
    }
    assert!(
        comm.health().is_empty(),
        "disarming the schedule must heal every mask, {} still dead",
        comm.health().len()
    );
    // At least one seed in this range kills something permanently, so the
    // campaign must have exercised the healing path.
    assert!(
        healed > 0,
        "no heal ever fired across the re-armed campaign"
    );
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// First-seen ordinals of the plan keys the golden table's records name.
/// A digest then still says which plan a record refers to (the same one,
/// the healthy one or a degraded one) without pinning the key's hash value.
#[derive(Default)]
struct PlanOrdinals(Vec<u64>);

impl PlanOrdinals {
    fn of(&mut self, fingerprint: u64) -> u64 {
        let i = match self.0.iter().position(|&f| f == fingerprint) {
            Some(i) => i,
            None => {
                self.0.push(fingerprint);
                self.0.len() - 1
            }
        };
        i as u64
    }
}

/// Digests of one observed call: the `Debug` form of `RunReport.recovery`,
/// and the `ObsStats` record with its wall-clock values masked — sim-time
/// spans whole, wall-time spans reduced to (track, name, category), plus
/// the cache counters and the backoff total. Every plan key, the
/// recovery's `plan_fingerprint` and the one in each cache span's name,
/// is replaced by its ordinal in `plans` first. A give-up digests its
/// error twice.
fn observed_digests(result: &SimResult<RunReport>, plans: &mut PlanOrdinals) -> (u64, u64) {
    let rep = match result {
        Ok(rep) => rep,
        Err(err) => {
            let d = fnv1a(err.to_string().as_bytes());
            return (d, d);
        }
    };
    let obs = rep.obs.as_ref().expect("observability enabled");
    let mut record = format!(
        "hits {} misses {} coalesced {} backoff {:?}\n",
        obs.cache_hits, obs.cache_misses, obs.cache_coalesced, obs.backoff_ns
    );
    for s in &obs.spans {
        record += &match (s.domain.as_str(), s.track.as_str()) {
            ("sim", _) => format!("{s:?}\n"),
            (_, "cache") => {
                let (label, key) = s.name.split_once(' ').expect("cache span names its key");
                let key = u64::from_str_radix(key, 16).expect("cache span key is hex");
                format!("cache {label} plan{} {:?}\n", plans.of(key), s.category)
            }
            _ => format!("{} {} {:?}\n", s.track, s.name, s.category),
        };
    }
    let recovery = rep.recovery.as_ref().map(|r| RecoveryStats {
        plan_fingerprint: plans.of(r.plan_fingerprint),
        ..r.clone()
    });
    (
        fnv1a(format!("{recovery:?}").as_bytes()),
        fnv1a(record.as_bytes()),
    )
}

/// Golden digests of the watchdog's two records — `RunReport.recovery`
/// and the masked `ObsStats` — with observability on: seeded chaos
/// timelines × the three operators, then the communicator's flap, kill
/// (sticky mask, then heal on disarm) and kill-then-restore scenarios.
/// Any change to what the watchdog records, or in which order, moves a
/// digest; plan keys enter as ordinals, so a change of the key's hash
/// function alone does not. On a mismatch the failure prints the current
/// table.
#[test]
fn observed_recovery_matches_golden() {
    #[rustfmt::skip]
    const GOLDEN: &[(&str, u64, u64)] = &[
        ("chaos/AllReduce/seed0", 0x09739aea382682a0, 0x3c4521ab4ce74b1e),
        ("chaos/AllReduce/seed1", 0x965f6b00e4e5a2ca, 0xcc563eb83145920f),
        ("chaos/AllReduce/seed2", 0xc8e8650b8f11ec5c, 0x3cb629d0cc7007be),
        ("chaos/AllReduce/seed3", 0x28f83d02ec991e9a, 0x28f83d02ec991e9a),
        ("chaos/AllGather/seed0", 0x9be9041bedc0a976, 0x674eb5abcfbebe84),
        ("chaos/AllGather/seed1", 0x6d8fc4db540f5fc7, 0x527b2d9b66ef1d2e),
        ("chaos/AllGather/seed2", 0xf1adc05c2a72a5b2, 0x87e9cb4373018eb4),
        ("chaos/AllGather/seed3", 0x7c0ac78a6dd2af60, 0x7c0ac78a6dd2af60),
        ("chaos/ReduceScatter/seed0", 0xead83b333122a77b, 0xc6fa855c7fda9d82),
        ("chaos/ReduceScatter/seed1", 0x8681bd5d4adb4d93, 0x0068ddee5bd0fe86),
        ("chaos/ReduceScatter/seed2", 0x61e0f1276608aa70, 0xf69aea466c4d0b86),
        ("chaos/ReduceScatter/seed3", 0xa9a19ca4f041e0a8, 0xd8bf1966f3533562),
        ("flap", 0x29bb61acce98722e, 0xa9d0ac2bc853916b),
        ("flap/warm", 0x29bb61acce98722e, 0xd46e323b1408c26c),
        ("kill", 0x65b06e7a69013d75, 0xd9a62c211a9a3ea7),
        ("kill/masked", 0x428309192fd61ba1, 0x47a91996fbb557a2),
        ("kill/heal", 0xe04e345ffd82bfab, 0x69c4edb3967f316d),
        ("kill-restore", 0xe8842241eba2b8c2, 0x8dd570ee851fadc4),
    ];
    let topo = Topology::a100(2, 4);
    let observed = |faults: FaultTimeline| {
        Communicator::new(topo.clone())
            .with_validation()
            .with_observability()
            .with_faults(faults)
    };
    let mut got: Vec<(String, u64, u64)> = Vec::new();
    let mut plans = PlanOrdinals::default();
    let mut row = |name: String, result: SimResult<RunReport>| {
        let (rec, obs) = observed_digests(&result, &mut plans);
        got.push((name, rec, obs));
    };
    let buffer = 16 * MB;
    for op in OPS {
        let horizon = issue(&mut Communicator::new(topo.clone()), op, buffer)
            .expect("healthy baseline")
            .sim
            .completion_ns;
        for seed in 0..4u64 {
            let tl = FaultTimeline::seeded_chaos(seed, topo.n_resources(), topo.n_ranks(), horizon);
            row(
                format!("chaos/{op:?}/seed{seed}"),
                issue(&mut observed(tl), op, buffer),
            );
        }
    }
    let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
    let buffer = 64 * MB;
    let mut flap = observed(FaultTimeline::new().flap(chan, 50_000.0, 80_000.0, 80_000.0, 1));
    row("flap".into(), flap.all_reduce(buffer));
    row("flap/warm".into(), flap.all_reduce(buffer));
    let mut kill = observed(FaultTimeline::new().kill(chan, 100_000.0));
    row("kill".into(), kill.all_reduce(buffer));
    row("kill/masked".into(), kill.all_reduce(buffer));
    kill.set_faults(FaultTimeline::new());
    row("kill/heal".into(), kill.all_reduce(buffer));
    let mut outage = observed(
        FaultTimeline::new()
            .kill(chan, 300_000.0)
            .restore(chan, 500_000.0),
    );
    row("kill-restore".into(), outage.all_reduce(buffer));

    let matches = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((n, r, o), (gn, gr, go))| n == gn && r == gr && o == go);
    if !matches {
        let table: String = got
            .iter()
            .map(|(n, r, o)| format!("        (\"{n}\", {r:#018x}, {o:#018x}),\n"))
            .collect();
        panic!(
            "watchdog records diverged from the golden table; the current code produces:\n{table}"
        );
    }
}
