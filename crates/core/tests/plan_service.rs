//! Concurrency property suite for the sharded plan service
//! (`PlanCache`): singleflight dedup, stats/journal coherence, bounded
//! memory, and the plan key (`plan_fingerprint`) moving with every input
//! it covers. The differential check against the single-mutex reference
//! lives with that reference, in the plan-service experiment.

use rescc_algos::{hm_allreduce, seed_suite};
use rescc_backends::Backend;
use rescc_core::{
    plan_cost_bytes, plan_fingerprint, CacheEventKind, Compiler, LintGate, Lowering, PlanCache,
    SchedulerChoice, SHARD_COUNT,
};
use rescc_ir::MicroBatchPlan;
use rescc_kernel::ExecMode;
use rescc_lang::{AlgoSpec, CommType, OpType, TransferRec};
use rescc_sim::SimError;
use rescc_topology::{
    ChunkId, ClusterSpec, FabricParams, LinkParams, Rank, ResourceId, Step, Topology,
    TopologyHealth,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

const MB: u64 = 1 << 20;

/// A dispatchable configuration; distinct `i` → distinct fingerprint
/// (the micro-batch chunk size is part of the plan key).
struct Config {
    spec: AlgoSpec,
    topo: Topology,
    mb: MicroBatchPlan,
}

fn config(i: u64) -> Config {
    let spec = hm_allreduce(1, 4);
    let mb = MicroBatchPlan::plan(16 << 20, spec.n_chunks(), (1 << 20) + i * 8192);
    Config {
        spec,
        topo: Topology::a100(1, 4),
        mb,
    }
}

fn dispatch(cache: &PlanCache, compiler: &Compiler, c: &Config) -> rescc_core::CacheEvent {
    cache
        .get_or_compile_traced(compiler, &c.spec, &c.topo, &c.mb)
        .expect("dispatch")
        .1
}

/// The satellite-bug regression: K threads racing one cold fingerprint
/// must produce exactly one compile (counted in the closure), one journaled
/// miss, and K−1 hits — the pre-singleflight cache compiled once per
/// racer ("last insert wins"). The leader's compile is gated so the
/// race is deterministic, not a scheduler accident.
#[test]
fn racing_cold_dispatches_coalesce_to_one_compile() {
    const K: usize = 8;
    let compiler = Compiler::new();
    let c = config(0);
    let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
    let cache = PlanCache::new();
    let compiles = AtomicU64::new(0);
    let gate = Barrier::new(2);
    let (arrived_tx, arrived_rx) = mpsc::channel::<()>();

    let events = thread::scope(|s| {
        // Leader: its compile blocks on the gate, guaranteeing the other
        // K−1 dispatches arrive while the compile is still in flight.
        let leader = s.spawn(|| {
            cache
                .get_or_compile_keyed(key, || {
                    compiles.fetch_add(1, Ordering::SeqCst);
                    gate.wait();
                    compiler.compile_spec(&c.spec, &c.topo)
                })
                .expect("leader dispatch")
        });
        while compiles.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        let cache = &cache;
        let followers: Vec<_> = (0..K - 1)
            .map(|_| {
                let tx = arrived_tx.clone();
                s.spawn(move || {
                    tx.send(()).unwrap();
                    // A follower's closure runs only if it were elected
                    // leader — impossible while the gated compile holds
                    // the in-flight slot, and unnecessary after it
                    // publishes. Either way: never.
                    cache
                        .get_or_compile_keyed(key, || panic!("duplicate concurrent compile"))
                        .expect("follower dispatch")
                })
            })
            .collect();
        for _ in 0..K - 1 {
            arrived_rx.recv().unwrap();
        }
        // Let the followers reach the in-flight table before releasing
        // the leader's compile.
        thread::sleep(Duration::from_millis(100));
        gate.wait();
        let mut out = vec![leader.join().expect("leader")];
        out.extend(followers.into_iter().map(|f| f.join().expect("follower")));
        out
    });

    assert_eq!(compiles.load(Ordering::SeqCst), 1, "compile closure reran");
    for (plan, _) in &events[1..] {
        assert!(
            Arc::ptr_eq(plan, &events[0].0),
            "all racers must share the leader's artifact"
        );
    }
    let misses = events.iter().filter(|(_, e)| !e.is_hit()).count();
    assert_eq!(misses, 1, "exactly one dispatch may count as the miss");
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (1, (K - 1) as u64));
    assert!(
        stats.coalesced >= 1 && stats.coalesced <= (K - 1) as u64,
        "gated racers must coalesce: {stats:?}"
    );
    // The journal tells the same story as the counters.
    let journal = cache.journal();
    assert_eq!(journal.len(), K);
    assert_eq!(
        journal
            .iter()
            .filter(|e| e.kind == CacheEventKind::Miss)
            .count(),
        1
    );
    assert!(journal.iter().all(|e| e.fingerprint == key));
}

/// A compile that panics releases the dispatches waiting on it with the
/// typed `SimError::CompilePanicked`, and the next dispatch compiles
/// afresh.
#[test]
fn panicked_compile_releases_waiters_with_a_typed_error() {
    let compiler = Compiler::new();
    let c = config(0);
    let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
    let cache = PlanCache::new();
    let (started_tx, started_rx) = mpsc::channel();
    thread::scope(|s| {
        let leader = s.spawn(|| {
            cache.get_or_compile_keyed(key, || {
                started_tx.send(()).expect("test thread alive");
                // Long enough for the waiter below to join the flight.
                thread::sleep(Duration::from_millis(500));
                panic!("compile blew up");
            })
        });
        started_rx.recv().expect("leader started");
        let err = cache
            .get_or_compile_keyed(key, || compiler.compile_spec(&c.spec, &c.topo))
            .expect_err("a waiter on a panicked compile gets an error");
        assert_eq!(err, SimError::CompilePanicked);
        assert!(leader.join().is_err(), "the leader's panic propagates");
    });
    cache
        .get_or_compile_keyed(key, || compiler.compile_spec(&c.spec, &c.topo))
        .expect("the next dispatch leads a fresh compile");
}

/// A failed compile is propagated to the caller and cached nowhere, so
/// the next dispatch retries (and can succeed).
#[test]
fn failed_compile_is_propagated_and_not_cached() {
    let compiler = Compiler::new();
    let c = config(0);
    let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
    let cache = PlanCache::new();
    let err = cache
        .get_or_compile_keyed(key, || Err(SimError::new("transient tooling failure")))
        .expect_err("erroring compile must propagate");
    assert!(matches!(err, SimError::InvalidProgram(_)));
    assert!(!cache.contains(key), "failures must not be cached");
    assert_eq!(cache.stats().misses, 0, "failures are not misses");
    let (_, ev) = cache
        .get_or_compile_keyed(key, || compiler.compile_spec(&c.spec, &c.topo))
        .expect("retry must be allowed to succeed");
    assert!(!ev.is_hit());
    assert!(cache.contains(key));
}

/// N threads over mixed hot/cold fingerprints produce exactly the plans
/// a serial compiler produces, and the service's books stay balanced:
/// every dispatch is a hit or a miss, journal seqs are unique, and the
/// stats identity holds.
#[test]
fn mixed_hot_cold_traffic_matches_serial_compiles() {
    const THREADS: usize = 4;
    const OPS: usize = 32;
    const DISTINCT: u64 = 6;
    let compiler = Compiler::new();
    let cache = PlanCache::new();
    let start = Barrier::new(THREADS);

    thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, compiler, start) = (&cache, &compiler, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..OPS {
                    // Interleave so every thread touches every config,
                    // hot (repeated) and cold (first toucher compiles).
                    let c = config(((t + i) as u64) % DISTINCT);
                    dispatch(cache, compiler, &c);
                }
            });
        }
    });

    // Byte-identical artifacts: whatever thread won each compile race,
    // the cached plan equals a fresh serial compile.
    for i in 0..DISTINCT {
        let c = config(i);
        let (cached, ev) = cache
            .get_or_compile_traced(&compiler, &c.spec, &c.topo, &c.mb)
            .expect("post-run dispatch");
        assert!(ev.is_hit(), "config {i} must be resident");
        let serial_plan = compiler.compile_spec(&c.spec, &c.topo).expect("serial");
        assert!(
            cached.semantic_eq(&serial_plan),
            "config {i}: cached plan diverged from serial compile"
        );
    }

    let total = (THREADS * OPS + DISTINCT as usize) as u64;
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, total);
    assert_eq!(stats.misses, DISTINCT, "one compile per distinct config");
    assert_eq!(stats.entries as u64, DISTINCT);
    assert_eq!(stats.entries as u64, stats.misses - stats.evictions);
    let journal = cache.journal();
    assert_eq!(journal.len(), total as usize);
    let mut seqs: Vec<u64> = journal.iter().map(|e| e.seq).collect();
    let sorted = seqs.windows(2).all(|w| w[0] < w[1]);
    assert!(sorted, "merged journal must be strictly seq-ordered");
    seqs.dedup();
    assert_eq!(seqs.len(), total as usize, "seq numbers must be unique");
}

/// The tearing regression: `stats()` snapshots taken *during* concurrent
/// dispatch must satisfy `entries == misses − evictions` —
/// each shard updates counters and entry accounting in one critical
/// section, and the identity is linear, so it survives summation. The
/// pre-PR cache bumped `misses` before inserting into the map under a
/// different lock, so a mid-dispatch snapshot could violate this.
#[test]
fn stats_snapshots_stay_coherent_during_dispatch() {
    const WRITERS: usize = 3;
    const OPS: usize = 24;
    let compiler = Compiler::new();
    let cache = PlanCache::new();
    let done = AtomicU64::new(0);
    // The writers wait for the sampler's first snapshot, so it samples
    // even when dispatch would finish before its thread is scheduled.
    let start = Barrier::new(WRITERS + 1);

    thread::scope(|s| {
        for t in 0..WRITERS {
            let (cache, compiler, done, start) = (&cache, &compiler, &done, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..OPS {
                    let c = config(((t * OPS + i) as u64) % 8);
                    dispatch(cache, compiler, &c);
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Sampler: hammer snapshots while the writers dispatch.
        let (cache, done, start) = (&cache, &done, &start);
        s.spawn(move || {
            let mut samples = 0u64;
            let mut sample = || {
                let st = cache.stats();
                assert_eq!(
                    st.entries as u64,
                    st.misses - st.evictions,
                    "torn snapshot: {st:?}"
                );
                samples += 1;
            };
            sample();
            start.wait();
            while done.load(Ordering::SeqCst) < WRITERS as u64 {
                sample();
            }
            assert!(samples > 0);
        });
    });

    let st = cache.stats();
    assert_eq!(st.hits + st.misses, (WRITERS * OPS) as u64);
}

/// Bounded memory: a byte budget caps residency via LRU eviction, the
/// books count every eviction, and the entry being published is never its
/// own victim. (In-flight compiles cannot be evicted at all: they are not
/// resident until published.)
#[test]
fn byte_budget_evicts_lru_and_spares_the_fresh_publish() {
    let compiler = Compiler::new();
    // A 1-byte budget is below any plan's cost → maximum pressure.
    let cache = PlanCache::new().with_byte_budget(1);
    for i in 0..10 {
        let c = config(i);
        let (_, ev) = cache
            .get_or_compile_traced(&compiler, &c.spec, &c.topo, &c.mb)
            .expect("dispatch");
        let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
        assert!(!ev.is_hit());
        assert!(
            cache.contains(key),
            "a just-published plan must survive its own publish"
        );
    }
    let st = cache.stats();
    assert_eq!(
        (st.entries, st.evictions),
        (1, 9),
        "a 1-byte budget keeps only the newest entry: {st:?}"
    );
    assert_eq!(
        st.entries as u64,
        st.misses - st.evictions,
        "eviction accounting out of balance: {st:?}"
    );
}

/// The cost of one `config` plan; every chunking compiles the same
/// `hm_allreduce(1, 4)` plan, so they all cost the same.
fn config_cost(compiler: &Compiler) -> u64 {
    let c = config(0);
    plan_cost_bytes(&compiler.compile_spec(&c.spec, &c.topo).expect("compile"))
}

/// The shard a fingerprint lands on: the top bits of its Fibonacci mix,
/// as `PlanCache` picks it.
fn shard_of(fingerprint: u64) -> u64 {
    fingerprint.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60 & (SHARD_COUNT as u64 - 1)
}

/// The budget bounds the resident bytes of the whole cache, not of each
/// shard: a budget of four plans never holds a fifth, however the keys
/// spread over the shards.
#[test]
fn byte_budget_is_a_global_bound() {
    let compiler = Compiler::new();
    let budget = 4 * config_cost(&compiler);
    let cache = PlanCache::new().with_byte_budget(budget);
    for i in 0..40 {
        dispatch(&cache, &compiler, &config(i));
        let st = cache.stats();
        assert!(
            st.resident_bytes <= budget && st.entries <= 4,
            "publish {i} left the cache over its budget of {budget} B: {st:?}"
        );
    }
    let st = cache.stats();
    assert_eq!((st.entries, st.evictions), (4, 36), "{st:?}");
}

/// The victim is the stalest entry of the whole cache: a hit protects the
/// oldest entry, and the next-stalest goes, from another shard than the
/// publish that evicts it.
#[test]
fn lru_victim_is_global() {
    let compiler = Compiler::new();
    let key = |i: u64| {
        let c = config(i);
        plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb)
    };
    // Three chunkings: the victim's shard differs from the publisher's.
    let (oldest, victim) = (0, 1);
    let publisher = (2..)
        .find(|&i| shard_of(key(i)) != shard_of(key(victim)))
        .expect("keys spread over the shards");
    let cache = PlanCache::new().with_byte_budget(2 * config_cost(&compiler));
    dispatch(&cache, &compiler, &config(oldest));
    dispatch(&cache, &compiler, &config(victim));
    let ev = dispatch(&cache, &compiler, &config(oldest));
    assert_eq!(ev.kind, CacheEventKind::Hit);

    dispatch(&cache, &compiler, &config(publisher));
    assert!(
        cache.contains(key(oldest)),
        "the hit protects the oldest entry"
    );
    assert!(
        !cache.contains(key(victim)),
        "the stalest entry is the victim"
    );
    assert!(cache.contains(key(publisher)));
    let st = cache.stats();
    assert_eq!((st.entries, st.evictions), (2, 1), "{st:?}");
}

/// Publishes racing from several threads keep the books balanced, and the
/// next publish brings the cache back within its budget.
#[test]
fn concurrent_publishes_under_a_global_budget() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 6;
    let compiler = Compiler::new();
    let budget = 2 * config_cost(&compiler);
    let cache = PlanCache::new().with_byte_budget(budget);
    let start = Barrier::new(THREADS as usize);
    thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, compiler, start) = (&cache, &compiler, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    let ev = dispatch(cache, compiler, &config(t * PER_THREAD + i));
                    assert_eq!(ev.kind, CacheEventKind::Miss, "keys are distinct");
                }
            });
        }
    });
    let st = cache.stats();
    assert_eq!(st.misses, THREADS * PER_THREAD);
    assert_eq!(
        st.entries as u64,
        st.misses - st.evictions,
        "eviction accounting out of balance: {st:?}"
    );
    dispatch(&cache, &compiler, &config(THREADS * PER_THREAD));
    let st = cache.stats();
    assert!(
        st.resident_bytes <= budget && st.entries <= 2,
        "over the budget of {budget} B after the join: {st:?}"
    );
}

/// A publish that lands while eviction pressure is active still wins: a
/// gated leader compiles while other traffic evicts everything, and its
/// artifact is resident and served once published.
#[test]
fn in_flight_compile_publishes_despite_eviction_pressure() {
    let compiler = Compiler::new();
    let cache = PlanCache::new().with_byte_budget(1);
    let c = config(0);
    let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
    let entered = AtomicU64::new(0);
    let gate = Barrier::new(2);

    thread::scope(|s| {
        let leader = s.spawn(|| {
            cache
                .get_or_compile_keyed(key, || {
                    entered.fetch_add(1, Ordering::SeqCst);
                    gate.wait();
                    compiler.compile_spec(&c.spec, &c.topo)
                })
                .expect("leader")
        });
        while entered.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        // While the compile is in flight, churn the cache hard.
        for i in 1..8 {
            let other = config(i);
            dispatch(&cache, &compiler, &other);
        }
        gate.wait();
        let (plan, _) = leader.join().expect("leader join");
        let (served, ev) = cache
            .get_or_compile_traced(&compiler, &c.spec, &c.topo, &c.mb)
            .expect("re-dispatch");
        assert!(ev.is_hit(), "published artifact must be resident");
        assert!(Arc::ptr_eq(&plan, &served));
    });
}

/// The eight compilers `lowerings_fingerprint_distinctly` keeps apart:
/// default, fused, round-robin, NCCL at 4 and 12 channels, and MSCCL as
/// shipped, with one channel, and without interpreter overhead.
fn eight_compilers() -> Vec<Compiler> {
    vec![
        Compiler::new(),
        Compiler::new().with_fusion(),
        Compiler::new().with_round_robin(),
        Backend::nccl().compiler(),
        Backend::Nccl { n_channels: 12 }.compiler(),
        Backend::msccl().compiler(),
        Backend::Msccl {
            n_channels: 1,
            interpreter_overhead_ns: 9_000.0,
        }
        .compiler(),
        Backend::Msccl {
            n_channels: 4,
            interpreter_overhead_ns: 0.0,
        }
        .compiler(),
    ]
}

/// An edit of one transfer field; the `u32` is `edit_transfer`'s `k`.
type TransferEdit<'a> = dyn Fn(&mut TransferRec, u32) + 'a;
/// Selects one of a fabric's three links.
type PickLink = fn(&mut FabricParams) -> &mut LinkParams;
/// An edit of one link field.
type EditLink = fn(&mut LinkParams);

/// `spec` with transfer `i` changed by `edit(t, k)`, for the smallest
/// `k >= 1` that leaves a valid spec (no self-transfer, no duplicate).
fn edit_transfer(spec: &AlgoSpec, i: usize, edit: impl Fn(&mut TransferRec, u32)) -> AlgoSpec {
    (1..spec.n_ranks())
        .find_map(|k| {
            let mut transfers = spec.transfers().to_vec();
            edit(&mut transfers[i], k);
            AlgoSpec::new(spec.name(), spec.op(), spec.n_ranks(), transfers).ok()
        })
        .expect("some edit keeps the spec valid")
}

/// `topo` rebuilt with its shape and fabric edited; name and health kept.
fn edit_topo(
    topo: &Topology,
    shape: impl FnOnce(&mut ClusterSpec),
    fabric: impl FnOnce(&mut FabricParams),
) -> Topology {
    let (mut s, mut f) = (topo.spec(), *topo.fabric());
    shape(&mut s);
    fabric(&mut f);
    Topology::new(topo.name(), s, f).with_health(topo.health().clone())
}

/// Changing any one input the key covers changes the key: each compiler
/// option, the spec's name, operator and rank count, each field of the
/// first, a middle and the last transfer, the topology's name, shape,
/// every fabric parameter and health mask, and the micro-batch shape.
/// Every edited configuration also keys apart from every other one.
#[test]
fn every_key_input_moves_the_key() {
    let compiler = Compiler::new();
    let spec = hm_allreduce(2, 4);
    let topo = Topology::a100(2, 4);
    let mb = MicroBatchPlan::plan(64 * MB, spec.n_chunks(), MB);
    let base = plan_fingerprint(&compiler, &spec, &topo, &mb);
    // Rebuilding an input unchanged keeps the key, so the edits below are
    // what moves it.
    let same_spec = AlgoSpec::new(
        spec.name(),
        spec.op(),
        spec.n_ranks(),
        spec.transfers().to_vec(),
    )
    .unwrap();
    assert_eq!(
        plan_fingerprint(
            &compiler,
            &same_spec,
            &edit_topo(&topo, |_| {}, |_| {}),
            &mb
        ),
        base
    );

    let mut keys: Vec<(String, u64)> = Vec::new();
    let mut compilers: Vec<(&str, Compiler)> = vec![
        ("round-robin", compiler.clone().with_round_robin()),
        ("fused", compiler.clone().with_fusion()),
        (
            "by-step",
            Compiler {
                scheduler: SchedulerChoice::ByStep,
                ..compiler.clone()
            },
        ),
        (
            "no-verify",
            Compiler {
                verify: false,
                ..compiler.clone()
            },
        ),
        (
            "warn-gate",
            Compiler {
                lint_gate: LintGate::Warn,
                ..compiler.clone()
            },
        ),
    ];
    let mut budget = compiler.clone();
    budget.lint_config.tb_budget_per_rank += 1;
    compilers.push(("tb-budget", budget));
    let rigid = |n_channels, n_stages, exec| Compiler {
        lowering: Lowering::Rigid {
            n_channels,
            n_stages,
            exec,
        },
        ..compiler.clone()
    };
    let interpreter = |ns| ExecMode::Interpreter {
        per_invocation_overhead_ns: ns,
    };
    compilers.extend([
        ("rigid", rigid(4, 2, ExecMode::DirectKernel)),
        ("rigid/channels", rigid(5, 2, ExecMode::DirectKernel)),
        ("rigid/stages", rigid(4, 3, ExecMode::DirectKernel)),
        ("rigid/interpreter", rigid(4, 2, interpreter(9_000.0))),
        ("rigid/overhead", rigid(4, 2, interpreter(9_001.0))),
    ]);
    for (name, c) in &compilers {
        keys.push((
            format!("compiler/{name}"),
            plan_fingerprint(c, &spec, &topo, &mb),
        ));
    }

    let n = spec.n_ranks();
    let rebuilt = |name: &str, op: OpType, n_ranks: u32| {
        AlgoSpec::new(name, op, n_ranks, spec.transfers().to_vec()).unwrap()
    };
    let mut specs: Vec<(String, AlgoSpec)> = vec![
        ("spec/name".into(), rebuilt("hm-ar-renamed", spec.op(), n)),
        ("spec/op".into(), rebuilt(spec.name(), OpType::AllGather, n)),
        ("spec/ranks".into(), rebuilt(spec.name(), spec.op(), n + 1)),
    ];
    let last = spec.transfers().len() - 1;
    for (at, i) in [("first", 0), ("middle", last / 2), ("last", last)] {
        let fields: [(&str, &TransferEdit<'_>); 5] = [
            ("src", &|t, k| t.src = Rank::new((t.src.0 + k) % n)),
            ("dst", &|t, k| t.dst = Rank::new((t.dst.0 + k) % n)),
            ("step", &|t, k| t.step = Step::new(t.step.0 + k)),
            ("chunk", &|t, k| t.chunk = ChunkId::new((t.chunk.0 + k) % n)),
            ("comm", &|t, _| {
                t.comm = match t.comm {
                    CommType::Recv => CommType::Rrc,
                    CommType::Rrc => CommType::Recv,
                }
            }),
        ];
        for (field, edit) in fields {
            specs.push((
                format!("transfer/{at}/{field}"),
                edit_transfer(&spec, i, edit),
            ));
        }
    }
    for (name, s) in &specs {
        keys.push((name.clone(), plan_fingerprint(&compiler, s, &topo, &mb)));
    }

    let mut topos: Vec<(String, Topology)> = vec![
        (
            "topo/name".into(),
            Topology::new("a100-renamed", topo.spec(), *topo.fabric()),
        ),
        (
            "topo/nodes".into(),
            edit_topo(&topo, |s| s.n_nodes += 1, |_| {}),
        ),
        (
            "topo/gpus".into(),
            edit_topo(&topo, |s| s.gpus_per_node *= 2, |_| {}),
        ),
        (
            "topo/nics".into(),
            edit_topo(&topo, |s| s.nics_per_node = 1, |_| {}),
        ),
        (
            "fabric/cross_rack_extra_ns".into(),
            edit_topo(&topo, |_| {}, |f| f.cross_rack_extra_ns += 1.0),
        ),
        (
            "fabric/servers_per_rack".into(),
            edit_topo(&topo, |_| {}, |f| f.servers_per_rack += 1),
        ),
    ];
    assert_ne!(topo.spec().nics_per_node, 1, "the nics edit must change it");
    let links: [(&str, PickLink); 3] = [
        ("intra", |f| &mut f.intra),
        ("port", |f| &mut f.port),
        ("inter", |f| &mut f.inter),
    ];
    for (link, pick) in links {
        let fields: [(&str, EditLink); 5] = [
            ("alpha_ns", |l| l.alpha_ns += 1.0),
            ("beta_ns_per_byte", |l| l.beta_ns_per_byte *= 2.0),
            ("gamma_ns", |l| l.gamma_ns += 1.0),
            ("tb_bw_bytes_per_ns", |l| l.tb_bw_bytes_per_ns *= 2.0),
            ("saturation_tbs", |l| l.saturation_tbs ^= 1),
        ];
        for (field, edit) in fields {
            topos.push((
                format!("fabric/{link}/{field}"),
                edit_topo(&topo, |_| {}, |f| edit(pick(f))),
            ));
        }
    }
    for dead in [[0].as_slice(), &[1], &[0, 1]] {
        let mut health = TopologyHealth::healthy();
        for &r in dead {
            health.mask(ResourceId::new(r));
        }
        topos.push((format!("health/{dead:?}"), topo.clone().with_health(health)));
    }
    for (name, t) in &topos {
        keys.push((name.clone(), plan_fingerprint(&compiler, &spec, t, &mb)));
    }

    for (name, m) in [
        (
            "mb/n_chunks",
            MicroBatchPlan {
                n_chunks: mb.n_chunks + 1,
                ..mb
            },
        ),
        (
            "mb/chunk_bytes",
            MicroBatchPlan {
                chunk_bytes: mb.chunk_bytes + 1,
                ..mb
            },
        ),
        (
            "mb/n_micro_batches",
            MicroBatchPlan {
                n_micro_batches: mb.n_micro_batches + 1,
                ..mb
            },
        ),
    ] {
        keys.push((name.into(), plan_fingerprint(&compiler, &spec, &topo, &m)));
    }

    let mut seen: HashMap<u64, &str> = HashMap::from([(base, "base")]);
    for (name, key) in &keys {
        if let Some(other) = seen.insert(*key, name) {
            panic!("{name} keys as {other} ({key:#018x})");
        }
    }
}

/// The key follows the transfers' order, not only their set.
#[test]
fn swapping_two_transfers_moves_the_key() {
    let compiler = Compiler::new();
    let spec = hm_allreduce(2, 4);
    let topo = Topology::a100(2, 4);
    let mb = MicroBatchPlan::plan(64 * MB, spec.n_chunks(), MB);
    let last = spec.transfers().len() - 1;
    for (i, j) in [(0, 1), (0, last), (last / 2, last / 2 + 1)] {
        let mut transfers = spec.transfers().to_vec();
        transfers.swap(i, j);
        let swapped = AlgoSpec::new(spec.name(), spec.op(), spec.n_ranks(), transfers).unwrap();
        assert_ne!(
            plan_fingerprint(&compiler, &swapped, &topo, &mb),
            plan_fingerprint(&compiler, &spec, &topo, &mb),
            "swapping transfers {i} and {j}"
        );
    }
}

/// Two buffers with the same micro-batch shape share a plan: the raw
/// buffer size is not part of the key.
#[test]
fn buffer_bytes_alone_keeps_the_key() {
    let compiler = Compiler::new();
    let spec = hm_allreduce(2, 4);
    let topo = Topology::a100(2, 4);
    let mb = MicroBatchPlan::plan(64 * MB, spec.n_chunks(), MB);
    let resized = MicroBatchPlan {
        buffer_bytes: mb.buffer_bytes + 1,
        ..mb
    };
    assert_eq!(
        plan_fingerprint(&compiler, &spec, &topo, &resized),
        plan_fingerprint(&compiler, &spec, &topo, &mb)
    );
}

/// No two configurations share a key across the seed suite × the Table 3
/// topologies × three chunkings × the eight compilers.
#[test]
fn seed_suite_configurations_key_apart() {
    let compilers = eight_compilers();
    let mut seen: HashMap<u64, String> = HashMap::new();
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        for spec in seed_suite(topo.n_nodes(), topo.gpus_per_node()) {
            for (buffer, chunk) in [(64 * MB, MB), (64 * MB, MB / 4), (MB, MB)] {
                let mb = MicroBatchPlan::plan(buffer, spec.n_chunks(), chunk);
                for (c, compiler) in compilers.iter().enumerate() {
                    let name = format!(
                        "{}/{}/{buffer}/{chunk}/compiler{c}",
                        topo.name(),
                        spec.name()
                    );
                    let key = plan_fingerprint(compiler, &spec, &topo, &mb);
                    if let Some(other) = seen.insert(key, name.clone()) {
                        panic!("{name} keys as {other} ({key:#018x})");
                    }
                }
            }
        }
    }
    assert_eq!(seen.len(), 4 * 11 * 3 * 8);
}
