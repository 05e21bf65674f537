//! Content-addressed, sharded, concurrency-safe cache of compiled plans —
//! the plan service behind every dispatcher.
//!
//! Compiling an algorithm is orders of magnitude slower than dispatching
//! it, and training loops issue the *same* collective (same algorithm,
//! same topology, same micro-batch shape) thousands of times — across
//! many streams and many communicators at once. [`PlanCache`] memoizes
//! [`CompiledPlan`]s behind a content fingerprint so only the first call
//! of each distinct configuration pays for Analysis, Scheduling and
//! Lowering; every subsequent call, from any thread, is a hash lookup
//! plus an `Arc` clone.
//!
//! Concurrency architecture (DESIGN.md §13):
//!
//! * **Sharding** — entries live in [`SHARD_COUNT`] independent shards
//!   selected by a mixed fingerprint, so dispatches of distinct plans
//!   touch distinct locks.
//! * **Read-mostly hit path** — each shard's map sits behind an
//!   `RwLock`; a hit looks the plan up under the *shared* lock (never
//!   exclusive), so concurrent warm lookups of any number of threads
//!   proceed in parallel. Recency for eviction is stamped through an
//!   atomic on the entry, not by mutating the map. The hit is then
//!   counted and journaled under the shard's `state` mutex, a short
//!   critical section, and bumps two cache-wide atomics: the recency
//!   `clock` and the journal's `next_seq`.
//! * **Singleflight** — concurrent cold dispatches of the *same*
//!   fingerprint are deduplicated: the first thread compiles, the rest
//!   block on a shard-local in-flight table and are handed the leader's
//!   artifact. Exactly one miss is counted per actual compile; the
//!   waiters count as coalesced hits.
//! * **Bounded memory** — an optional byte budget
//!   ([`with_byte_budget`](PlanCache::with_byte_budget)) bounds the
//!   resident bytes of all shards together: after each publish the
//!   globally least-recently-used entries are evicted until the total
//!   fits. Plans are charged by task / program size ([`plan_cost_bytes`]);
//!   the entry being published is never its own victim, so a
//!   just-compiled plan survives for the dispatch that compiled it.
//! * **Per-shard journal rings** — dispatch-order journaling is a
//!   bounded ring per shard; [`journal`](PlanCache::journal) merges the
//!   rings by globally-assigned `seq`, so concurrent dispatches stay
//!   attributable and ordered.
//!
//! The fingerprint covers everything the compiled artifact depends on:
//!
//! * the full algorithm spec (name, operator, ranks, chunks, and every
//!   transfer tuple),
//! * the topology (name, cluster shape, all fabric cost parameters, and
//!   the health mask — a plan compiled around a dead link must never alias
//!   the healthy plan),
//! * the micro-batch plan *shape* (logical chunks, per-invocation chunk
//!   bytes, invocation count) — buffer sizes that produce the same shape
//!   share an entry,
//! * the compiler options that change output (scheduler choice, the
//!   verify flag, the lowering, the lint gate and its TB budget).
//!
//! Anything that changes one of these — a different chunking, another
//! topology, a tweaked fabric parameter — changes the key and misses.

use crate::{CompiledPlan, Compiler, LintGate, Lowering, SchedulerChoice};
use rescc_analyze::Diagnostic;
use rescc_ir::MicroBatchPlan;
use rescc_lang::{AlgoSpec, CommType, OpType, TransferRec};
use rescc_sim::SimResult;
use rescc_topology::{LinkParams, Topology};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Journal entries retained **per shard**. Long-running training loops
/// dispatch millions of times; the journal exists for observability
/// tails, not full history, so each shard's ring is bounded and drops its
/// oldest entries first.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Number of cache shards (fixed, power of two). Dispatches of distinct
/// fingerprints land on independent locks with probability
/// `1 − 1/SHARD_COUNT`.
pub const SHARD_COUNT: usize = 16;

/// Snapshot of a cache's counters.
///
/// Each shard updates its counters and its entry/byte accounting inside
/// one critical section, so a snapshot is **coherent per shard**: the
/// identity `entries == misses − evictions` holds exactly for every
/// shard's contribution. Across shards the snapshot is a sum of per-shard
/// snapshots taken in shard order — each internally consistent, mutually
/// skewed by at most the dispatches that landed between the reads.
/// Because the identity is linear, it holds for the summed snapshot too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Dispatches served from the cache (includes `coalesced`).
    pub hits: u64,
    /// Dispatches that actually compiled. With singleflight dedup this
    /// counts *compiles*, not cold arrivals: concurrent requesters of an
    /// in-flight fingerprint land in `coalesced`, not here.
    pub misses: u64,
    /// The subset of `hits` that were served by waiting on another
    /// thread's in-flight compile of the same fingerprint.
    pub coalesced: u64,
    /// Distinct plans currently cached.
    pub entries: usize,
    /// Entries removed by cost-budget LRU eviction.
    pub evictions: u64,
    /// Estimated bytes currently charged to resident plans
    /// ([`plan_cost_bytes`]).
    pub resident_bytes: u64,
}

/// What a journaled cache event records about its dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEventKind {
    /// Served from the resident map on the shared-lock fast path.
    Hit,
    /// This dispatch compiled and published the plan.
    Miss,
    /// Served by waiting on another dispatch's in-flight compile of the
    /// same fingerprint (singleflight).
    Coalesced,
}

/// One recorded cache event, in dispatch order.
///
/// The journal is the cache's event log for observability consumers: a
/// deterministic record of which fingerprints were dispatched and whether
/// each dispatch compiled, independent of wall-clock timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheEvent {
    /// Position in global dispatch order (0-based; assigned from one
    /// cache-wide counter inside the owning shard's critical section, so
    /// concurrent dispatches get distinct numbers and each shard's ring
    /// is seq-sorted).
    pub seq: u64,
    /// The plan fingerprint that was looked up.
    pub fingerprint: u64,
    /// How the event was served.
    pub kind: CacheEventKind,
}

impl CacheEvent {
    /// Whether the dispatch was served without compiling (a map hit or a
    /// coalesced wait on another thread's compile).
    pub fn is_hit(&self) -> bool {
        matches!(self.kind, CacheEventKind::Hit | CacheEventKind::Coalesced)
    }
}

/// A resident entry: the plan, its byte charge, and an atomically
/// stamped recency so the hit path never needs the exclusive map lock.
#[derive(Debug)]
struct CacheSlot {
    plan: Arc<CompiledPlan>,
    cost: u64,
    last_used: AtomicU64,
}

/// Rendezvous for one in-flight compile: the leader fills `done` and
/// notifies; followers wait. Shared out of the shard's in-flight table.
#[derive(Debug, Default)]
struct Inflight {
    done: Mutex<Option<SimResult<Arc<CompiledPlan>>>>,
    cv: Condvar,
}

impl Inflight {
    fn wait(&self) -> SimResult<Arc<CompiledPlan>> {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while done.is_none() {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        done.as_ref().expect("filled").clone()
    }

    fn fill(&self, result: SimResult<Arc<CompiledPlan>>) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
        self.cv.notify_all();
    }
}

/// Counters, entry accounting, and the journal ring of one shard — all
/// mutated under one mutex so snapshots cannot tear (the satellite bug
/// this replaces: hits/misses atomics and `map.len()` were read under no
/// common lock).
#[derive(Debug, Default)]
struct ShardState {
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    entries: usize,
    resident_bytes: u64,
    ring: VecDeque<CacheEvent>,
}

impl ShardState {
    fn record(&mut self, ev: CacheEvent) {
        if self.ring.len() == DEFAULT_JOURNAL_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(ev);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            coalesced: self.coalesced,
            entries: self.entries,
            evictions: self.evictions,
            resident_bytes: self.resident_bytes,
        }
    }
}

#[derive(Debug, Default)]
struct Shard {
    map: RwLock<HashMap<u64, CacheSlot>>,
    state: Mutex<ShardState>,
    inflight: Mutex<HashMap<u64, Arc<Inflight>>>,
}

impl Shard {
    /// Lock order: `map` may be acquired while holding `inflight` or the
    /// cache's eviction mutex; `state` may be acquired while holding
    /// `map`; nothing is acquired while holding `state`, and no two
    /// shards' maps are ever held at once. All three recover from
    /// poisoning — entries are only ever whole values written inside a
    /// critical section, so inheriting the structures is always safe.
    fn state(&self) -> std::sync::MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn read_map(&self) -> std::sync::RwLockReadGuard<'_, HashMap<u64, CacheSlot>> {
        self.map.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_map(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<u64, CacheSlot>> {
        self.map.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// What a dispatcher's algorithm choice depends on: the operator, whether
/// the buffer is small (latency-bound), and the cluster shape. The key of
/// [`PlanCache::spec`]'s table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpecKey {
    /// The collective operator.
    pub op: OpType,
    /// Whether the buffer falls in the small-buffer bucket.
    pub small: bool,
    /// Nodes of the cluster.
    pub nodes: u32,
    /// GPUs per node.
    pub gpus_per_node: u32,
}

/// A thread-safe, sharded memo table from plan fingerprints to compiled
/// plans, with singleflight compile dedup and optional cost-bounded LRU
/// eviction across all shards. Designed to be shared: wrap it in an `Arc`
/// and hand it to any number of dispatching threads or `Communicator`s.
///
/// Next to the plans, the cache holds one spec table ([`Self::spec`]):
/// dispatchers that share the cache share each algorithm they select,
/// and with it everything memoized in the spec (its verdict, its
/// dependency index, its dead transfers), so a new tenant derives only
/// the topology-dependent part of its plan.
///
/// ```
/// use rescc_core::{Compiler, PlanCache};
/// use rescc_ir::MicroBatchPlan;
/// use rescc_topology::Topology;
/// use rescc_algos::hm_allreduce;
///
/// let cache = PlanCache::new();
/// let compiler = Compiler::new();
/// let topo = Topology::a100(2, 4);
/// let spec = hm_allreduce(2, 4);
/// let mb = MicroBatchPlan::plan(64 << 20, spec.n_chunks(), 1 << 20);
/// let first = cache.get_or_compile(&compiler, &spec, &topo, &mb).unwrap();
/// let second = cache.get_or_compile(&compiler, &spec, &topo, &mb).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Shard>,
    /// Global dispatch-order sequence, shared by every shard's journal.
    next_seq: AtomicU64,
    /// Global recency clock for LRU stamps (bumped on every hit/publish).
    clock: AtomicU64,
    /// Byte budget on the resident bytes of all shards together;
    /// `None` = unbounded.
    byte_budget: Option<u64>,
    /// Held while enforcing the budget, so one publish at a time searches
    /// the shards for victims.
    evicting: Mutex<()>,
    /// The spec table: one spec per [`SpecKey`], never evicted. Its keys
    /// are few (three operators, two buckets, the cluster shapes served).
    /// Its lock is never held with another lock of the cache.
    specs: RwLock<HashMap<SpecKey, Arc<AlgoSpec>>>,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            next_seq: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            byte_budget: None,
            evicting: Mutex::new(()),
            specs: RwLock::default(),
        }
    }
}

impl PlanCache {
    /// An empty cache with unbounded memory. Each shard journals at most
    /// [`DEFAULT_JOURNAL_CAPACITY`] events, so at most `SHARD_COUNT ×
    /// DEFAULT_JOURNAL_CAPACITY` are retained.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound resident plan memory to `bytes` (charged via
    /// [`plan_cost_bytes`], summed over every shard). After each publish,
    /// the least-recently-used entries of the whole cache are evicted
    /// until the total fits — never the entry just published, so a
    /// just-compiled plan always survives its own publish even if it alone
    /// exceeds the budget.
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.byte_budget = Some(bytes);
        self
    }

    /// The spec the table holds under `key`; on the key's first use,
    /// `build` makes it. Concurrent first uses may each build one, but
    /// all of them get the one the table keeps.
    pub fn spec(&self, key: SpecKey, build: impl FnOnce() -> AlgoSpec) -> Arc<AlgoSpec> {
        let resident = self.specs.read().unwrap_or_else(|e| e.into_inner());
        if let Some(spec) = resident.get(&key) {
            return Arc::clone(spec);
        }
        drop(resident);
        let spec = Arc::new(build());
        let mut specs = self.specs.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(specs.entry(key).or_insert(spec))
    }

    fn shard(&self, fingerprint: u64) -> &Shard {
        // Fibonacci mix, then take the top bits: the shard choice stays
        // even whatever the bit quality of the key's hash.
        let mixed = fingerprint.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 60) as usize & (SHARD_COUNT - 1)]
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Shared-lock lookup: returns the plan and stamps recency without
    /// ever taking an exclusive lock.
    fn try_hit(&self, shard: &Shard, fingerprint: u64) -> Option<Arc<CompiledPlan>> {
        let map = shard.read_map();
        map.get(&fingerprint).map(|slot| {
            slot.last_used.store(self.stamp(), Ordering::Relaxed);
            Arc::clone(&slot.plan)
        })
    }

    /// Count and journal a served dispatch on its shard.
    fn record_served(&self, shard: &Shard, fingerprint: u64, kind: CacheEventKind) -> CacheEvent {
        let mut st = shard.state();
        match kind {
            CacheEventKind::Hit => st.hits += 1,
            CacheEventKind::Coalesced => {
                st.hits += 1;
                st.coalesced += 1;
            }
            CacheEventKind::Miss => unreachable!("publishes go through publish()"),
        }
        let ev = CacheEvent {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            fingerprint,
            kind,
        };
        st.record(ev);
        ev
    }

    /// Install a just-compiled `plan` under `fingerprint` and count its
    /// miss and journal it in one coherent critical section, then evict
    /// over budget with the shard's locks released. Only the in-flight
    /// leader of `fingerprint` publishes, and only an absent one.
    fn publish(&self, shard: &Shard, fingerprint: u64, plan: Arc<CompiledPlan>) -> CacheEvent {
        let cost = plan_cost_bytes(&plan);
        let mut map = shard.write_map();
        let replaced = map.insert(
            fingerprint,
            CacheSlot {
                plan,
                cost,
                last_used: AtomicU64::new(self.stamp()),
            },
        );
        debug_assert!(replaced.is_none(), "a published fingerprint is absent");
        // State updates while still holding the map write lock: entry
        // count, byte charge, and counters move together.
        let mut st = shard.state();
        st.misses += 1;
        st.entries += 1;
        st.resident_bytes += cost;
        debug_assert_eq!(st.entries, map.len());
        let ev = CacheEvent {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            fingerprint,
            kind: CacheEventKind::Miss,
        };
        st.record(ev);
        drop(st);
        drop(map);
        self.evict_over_budget(fingerprint);
        ev
    }

    /// Evict the cache's stalest entry, by `(last_used, fingerprint)` so
    /// replays evict deterministically, until the resident bytes of all
    /// shards fit the budget. `keep`, the entry just published, is never
    /// a victim. Called with no shard lock held; under the eviction
    /// mutex it read-locks one shard's map at a time to find the victim,
    /// then takes only the victim shard's `map → state`. A victim hit or
    /// replaced since the search carries a new stamp and is spared.
    fn evict_over_budget(&self, keep: u64) {
        let Some(budget) = self.byte_budget else {
            return;
        };
        let _evicting = self.evicting.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let mut resident = 0;
            let mut victim: Option<(u64, u64)> = None;
            for shard in &self.shards {
                for (&k, slot) in shard.read_map().iter() {
                    resident += slot.cost;
                    let candidate = (slot.last_used.load(Ordering::Relaxed), k);
                    if k != keep && victim.is_none_or(|v| candidate < v) {
                        victim = Some(candidate);
                    }
                }
            }
            let Some((stamp, k)) = victim.filter(|_| resident > budget) else {
                return;
            };
            let shard = self.shard(k);
            let mut map = shard.write_map();
            if map
                .get(&k)
                .is_some_and(|s| s.last_used.load(Ordering::Relaxed) == stamp)
            {
                let slot = map.remove(&k).expect("victim is resident");
                let mut st = shard.state();
                st.evictions += 1;
                st.entries -= 1;
                st.resident_bytes -= slot.cost;
                debug_assert_eq!(st.entries, map.len());
            }
        }
    }

    /// Return the cached plan for this configuration, compiling (and
    /// caching) it on first sight. See
    /// [`get_or_compile_traced`](Self::get_or_compile_traced) for the
    /// variant that also returns this dispatch's journal event.
    pub fn get_or_compile(
        &self,
        compiler: &Compiler,
        spec: &AlgoSpec,
        topo: &Topology,
        mb: &MicroBatchPlan,
    ) -> SimResult<Arc<CompiledPlan>> {
        self.get_or_compile_traced(compiler, spec, topo, mb)
            .map(|(plan, _)| plan)
    }

    /// [`get_or_compile`](Self::get_or_compile), additionally returning
    /// the [`CacheEvent`] journaled for **this** dispatch — the handle an
    /// observability consumer needs to attribute its own dispatch without
    /// reading the shared journal (whose tail belongs to whichever thread
    /// dispatched last).
    pub fn get_or_compile_traced(
        &self,
        compiler: &Compiler,
        spec: &AlgoSpec,
        topo: &Topology,
        mb: &MicroBatchPlan,
    ) -> SimResult<(Arc<CompiledPlan>, CacheEvent)> {
        let key = plan_fingerprint(compiler, spec, topo, mb);
        self.get_or_compile_keyed(key, || compiler.compile_spec(spec, topo))
    }

    /// The service fast path: dispatch by a precomputed fingerprint.
    ///
    /// `fingerprint` must come from [`plan_fingerprint`] for the
    /// configuration `compile` builds — callers that dispatch the same
    /// shape repeatedly (a training loop, a communicator) compute it once
    /// and skip re-hashing the spec on every call. `compile` runs at most
    /// once across all concurrent callers of this fingerprint
    /// (singleflight): the leader compiles with no cache lock held,
    /// concurrent requesters block on the shard's in-flight table and
    /// are handed the leader's artifact as [`CacheEventKind::Coalesced`]
    /// hits. A failed compile is propagated to every waiter and cached
    /// nowhere, so the next dispatch retries.
    pub fn get_or_compile_keyed(
        &self,
        fingerprint: u64,
        compile: impl FnOnce() -> SimResult<CompiledPlan>,
    ) -> SimResult<(Arc<CompiledPlan>, CacheEvent)> {
        let shard = self.shard(fingerprint);
        if let Some(plan) = self.try_hit(shard, fingerprint) {
            let ev = self.record_served(shard, fingerprint, CacheEventKind::Hit);
            return Ok((plan, ev));
        }

        enum Role {
            Leader(Arc<Inflight>),
            Follower(Arc<Inflight>),
            Hit(Arc<CompiledPlan>),
        }
        let role = {
            let mut inflight = shard.inflight.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(slot) = inflight.get(&fingerprint) {
                Role::Follower(Arc::clone(slot))
            } else if let Some(plan) = self.try_hit(shard, fingerprint) {
                // Published between our fast-path miss and taking the
                // in-flight lock: a plain hit after all.
                Role::Hit(plan)
            } else {
                let slot = Arc::new(Inflight::default());
                inflight.insert(fingerprint, Arc::clone(&slot));
                Role::Leader(slot)
            }
        };

        match role {
            Role::Hit(plan) => {
                let ev = self.record_served(shard, fingerprint, CacheEventKind::Hit);
                Ok((plan, ev))
            }
            Role::Follower(slot) => {
                let plan = slot.wait()?;
                let ev = self.record_served(shard, fingerprint, CacheEventKind::Coalesced);
                Ok((plan, ev))
            }
            Role::Leader(slot) => {
                // Ensure the in-flight entry never outlives this call:
                // if `compile` panics, waiters are released with an error
                // and the next dispatch elects a fresh leader instead of
                // blocking forever.
                struct Unpark<'a> {
                    shard: &'a Shard,
                    fingerprint: u64,
                    slot: &'a Inflight,
                    result: Option<SimResult<Arc<CompiledPlan>>>,
                }
                impl Drop for Unpark<'_> {
                    fn drop(&mut self) {
                        self.slot.fill(
                            self.result
                                .take()
                                .unwrap_or(Err(rescc_sim::SimError::CompilePanicked)),
                        );
                        self.shard
                            .inflight
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .remove(&self.fingerprint);
                    }
                }
                let mut unpark = Unpark {
                    shard,
                    fingerprint,
                    slot: &slot,
                    result: None,
                };
                // Compile with no cache lock held: cold compiles of
                // *distinct* fingerprints run fully in parallel.
                match compile() {
                    Ok(plan) => {
                        let plan = Arc::new(plan);
                        let ev = self.publish(shard, fingerprint, Arc::clone(&plan));
                        unpark.result = Some(Ok(Arc::clone(&plan)));
                        drop(unpark);
                        Ok((plan, ev))
                    }
                    Err(e) => {
                        unpark.result = Some(Err(e.clone()));
                        drop(unpark);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Whether a plan is currently resident for `fingerprint` (no journal
    /// event, no recency bump — a diagnostic peek).
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.shard(fingerprint)
            .read_map()
            .contains_key(&fingerprint)
    }

    /// Snapshot of the *retained* dispatch journal, merged across shards
    /// and sorted by global `seq` (one [`CacheEvent`] per
    /// [`get_or_compile`](Self::get_or_compile) call). Each shard keeps a ring of its own
    /// [`DEFAULT_JOURNAL_CAPACITY`] most recent events; when more than that
    /// landed on one shard, that shard's oldest events are gone — `seq`
    /// numbers stay globally unique and ordered, so drops appear as gaps.
    pub fn journal(&self) -> Vec<CacheEvent> {
        let mut out: Vec<CacheEvent> = self
            .shards
            .iter()
            .flat_map(|s| s.state().ring.iter().copied().collect::<Vec<_>>())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Counter snapshot — coherent per shard, summed across shards (see
    /// [`CacheStats`] for the exact guarantee).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.state().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.coalesced += s.coalesced;
            total.entries += s.entries;
            total.evictions += s.evictions;
            total.resident_bytes += s.resident_bytes;
        }
        total
    }
}

/// Estimated resident cost of a compiled plan, in bytes — the charge
/// [`PlanCache::with_byte_budget`] evicts against. A deterministic size
/// model rather than an allocator measurement, so budgets behave
/// identically across platforms and replays. Its coefficients are the
/// plan's layout (DESIGN.md §15): per spec transfer, its 20-byte record,
/// which the DAG shares; per task, the DAG's route index, its dependency
/// index's adjacency and chunk lists (about 1.5 edges a task) and the
/// schedule's entry; per
/// stored slot, 4 bytes of the slot table the allocation and the program
/// share (channel TBs share their slots); per TB, its 20-byte record; per
/// barrier-group entry, 4 bytes; per route, one route-table entry; per
/// sanitize finding, its record, message and path.
/// `crates/core/tests/plan_memory.rs` holds it to within ±20% of the heap
/// a counting allocator measures for a plan that shares nothing.
///
/// The spec's records and the dependency index belong to the spec, which
/// every plan of it shares ([`PlanCache::spec`]), yet they are charged
/// to every plan that holds them: for plans of one spec the charge is an
/// upper bound.
pub fn plan_cost_bytes(plan: &CompiledPlan) -> u64 {
    let transfers = plan.spec.transfers().len() as u64;
    let tasks = plan.dag.len() as u64;
    let table = &plan.program.table;
    let slots = table.slots().len() as u64;
    let tbs = table.tbs().len() as u64;
    let barriers = plan.program.barrier_groups.as_ref().map_or(0, Vec::len) as u64;
    let routes = plan.dag.n_routes() as u64;
    let findings: usize = (plan.diagnostics.diagnostics().iter())
        .map(|d| size_of::<Diagnostic>() + d.message.len() + 4 * d.path.len())
        .sum();
    4096 + transfers * 20
        + tasks * 28
        + slots * 4
        + tbs * 20
        + barriers * 4
        + routes * 72
        + findings as u64
}

/// The content fingerprint keying [`PlanCache`] entries: a 64-bit
/// word-at-a-time hash (one 64×64→128-bit multiply per transfer, see
/// `WordHasher`) of every field listed in the module docs, in a fixed
/// order. O(transfers); identical on every platform and toolchain.
pub fn plan_fingerprint(
    compiler: &Compiler,
    spec: &AlgoSpec,
    topo: &Topology,
    mb: &MicroBatchPlan,
) -> u64 {
    let mut h = WordHasher::new();

    // Compiler options that change the artifact.
    h.u32(match compiler.scheduler {
        SchedulerChoice::Hpds => 0,
        SchedulerChoice::RoundRobin => 1,
        SchedulerChoice::ByStep => 2,
    });
    h.u32(compiler.verify as u32);
    // Folded in only when not the default, so state-based plans keep
    // their keys. `Fused` hashes as the old fusion flag did; `Rigid` hashes
    // its `Debug` rendering, which prints every field (its `f64` in
    // shortest round-trip form).
    match compiler.lowering {
        Lowering::StateBased => {}
        Lowering::Fused => h.u32(1),
        rigid @ Lowering::Rigid { .. } => h.str(&format!("{rigid:?}")),
    }
    // The lint gate changes whether a plan exists at all (deny) and what
    // diagnostics ride on it, so warn- and deny-gated plans must not
    // alias. The values are part of every plan key; keep them.
    h.u32(match compiler.lint_gate {
        LintGate::Warn => 1,
        LintGate::Deny => 2,
    });
    h.u32(compiler.lint_config.tb_budget_per_rank);

    // Algorithm spec.
    h.str(spec.name());
    h.u32(match spec.op() {
        OpType::AllGather => 0,
        OpType::AllReduce => 1,
        OpType::ReduceScatter => 2,
    });
    h.u32(spec.n_ranks());
    h.u32(spec.n_chunks());
    h.u64(spec.transfers().len() as u64);
    for t in spec.transfers() {
        h.transfer(t);
    }

    // Topology: shape and every fabric cost parameter.
    h.str(topo.name());
    let s = topo.spec();
    h.u32(s.n_nodes);
    h.u32(s.gpus_per_node);
    h.u32(s.nics_per_node);
    let f = topo.fabric();
    for link in [&f.intra, &f.port, &f.inter] {
        h.link(link);
    }
    h.f64(f.cross_rack_extra_ns);
    h.u32(f.servers_per_rack);
    // Health mask: recompiling around a dead resource must produce a
    // distinct entry.
    h.u64(topo.health().dead().len() as u64);
    for r in topo.health().dead() {
        h.u32(r.0);
    }

    // Micro-batch plan shape (not the raw buffer size: two buffers with
    // the same chunking and invocation count share a plan).
    h.u32(mb.n_chunks);
    h.u64(mb.chunk_bytes);
    h.u32(mb.n_micro_batches);

    h.finish()
}

/// wyhash's default secret. `SECRET[0]` seeds the accumulator,
/// `SECRET[1]` keys every scalar and string word, and a transfer's
/// `CommType` picks `SECRET[2]` or `SECRET[3]`.
const SECRET: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// Streaming word-at-a-time 64-bit hash. Each step folds two words into
/// the one accumulator with a single 64×64→128-bit multiply whose halves
/// are xored (wyhash's "mum" fold), so a transfer costs one multiply
/// instead of FNV-1a's twenty byte steps. Deliberately not a std
/// hasher, whose output may change between Rust releases: plan keys are
/// pinned by tests and must stay identical across toolchains (CI greps
/// this file for the std names).
struct WordHasher(u64);

impl WordHasher {
    fn new() -> Self {
        WordHasher(SECRET[0])
    }

    /// A word equal to its secret would zero the product and drop the
    /// state (wyhash's known weak point); key words are small integers,
    /// lengths, text and float bits, nowhere near the secrets.
    fn fold(&mut self, a: u64, b: u64, secret: u64) {
        let m = u128::from(a ^ secret) * u128::from(b ^ self.0);
        self.0 = m as u64 ^ (m >> 64) as u64;
    }

    fn u32(&mut self, v: u32) {
        self.u64(v.into());
    }

    fn u64(&mut self, v: u64) {
        self.fold(v, 0, SECRET[1]);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length first, then the bytes 16 at a time as two little-endian
    /// words, the last pair zero-padded (the length makes padding
    /// unambiguous).
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for piece in s.as_bytes().chunks(16) {
            let mut buf = [0u8; 16];
            buf[..piece.len()].copy_from_slice(piece);
            let pair = u128::from_le_bytes(buf);
            self.fold(pair as u64, (pair >> 64) as u64, SECRET[1]);
        }
    }

    /// One transfer, one fold: `src | dst << 32` and `step | chunk << 32`,
    /// keyed by the receive semantics.
    fn transfer(&mut self, t: &TransferRec) {
        let secret = match t.comm {
            CommType::Recv => SECRET[2],
            CommType::Rrc => SECRET[3],
        };
        self.fold(
            u64::from(t.src.0) | u64::from(t.dst.0) << 32,
            u64::from(t.step.0) | u64::from(t.chunk.0) << 32,
            secret,
        );
    }

    fn link(&mut self, l: &LinkParams) {
        self.f64(l.alpha_ns);
        self.f64(l.beta_ns_per_byte);
        self.f64(l.gamma_ns);
        self.f64(l.tb_bw_bytes_per_ns);
        self.u32(l.saturation_tbs);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_algos::{hm_allgather, hm_allreduce};

    fn mb(buffer: u64, chunks: u32) -> MicroBatchPlan {
        MicroBatchPlan::plan(buffer, chunks, 1 << 20)
    }

    #[test]
    fn identical_configuration_hits() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let plan = mb(64 << 20, spec.n_chunks());
        let a = cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        let b = cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.coalesced, stats.evictions), (0, 0));
        assert_eq!(stats.resident_bytes, plan_cost_bytes(&a));
    }

    #[test]
    fn changed_chunking_misses() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let coarse = MicroBatchPlan::plan(64 << 20, spec.n_chunks(), 1 << 20);
        let fine = MicroBatchPlan::plan(64 << 20, spec.n_chunks(), 512 << 10);
        cache
            .get_or_compile(&compiler, &spec, &topo, &coarse)
            .unwrap();
        cache
            .get_or_compile(&compiler, &spec, &topo, &fine)
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn changed_topology_or_algorithm_misses() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let ar = hm_allreduce(2, 4);
        let plan = mb(64 << 20, ar.n_chunks());
        cache
            .get_or_compile(&compiler, &ar, &Topology::a100(2, 4), &plan)
            .unwrap();
        // Same shape, different fabric.
        cache
            .get_or_compile(&compiler, &ar, &Topology::v100(2, 4), &plan)
            .unwrap();
        // Same topology, different algorithm.
        let ag = hm_allgather(2, 4);
        let plan_ag = mb(64 << 20, ag.n_chunks());
        cache
            .get_or_compile(&compiler, &ag, &Topology::a100(2, 4), &plan_ag)
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 3));
    }

    #[test]
    fn masked_topology_fingerprints_distinctly() {
        use rescc_topology::{Rank, TopologyHealth};
        let spec = hm_allreduce(2, 4);
        let plan = mb(64 << 20, spec.n_chunks());
        let compiler = Compiler::new();
        let healthy = Topology::a100(2, 4);
        let chan = healthy.pair_chan(Rank::new(0), Rank::new(1));
        let mut mask = TopologyHealth::healthy();
        mask.mask(chan);
        let degraded = Topology::a100(2, 4).with_health(mask);
        assert_ne!(
            plan_fingerprint(&compiler, &spec, &healthy, &plan),
            plan_fingerprint(&compiler, &spec, &degraded, &plan)
        );
        // An explicit empty mask is the healthy fingerprint.
        let empty = Topology::a100(2, 4).with_health(TopologyHealth::healthy());
        assert_eq!(
            plan_fingerprint(&compiler, &spec, &healthy, &plan),
            plan_fingerprint(&compiler, &spec, &empty, &plan)
        );
    }

    #[test]
    fn journal_records_dispatches_in_order() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let plan = mb(64 << 20, spec.n_chunks());
        assert!(cache.journal().is_empty());
        cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        let journal = cache.journal();
        assert_eq!(journal.len(), 2);
        let fp = plan_fingerprint(&compiler, &spec, &topo, &plan);
        assert_eq!(
            journal[0],
            CacheEvent {
                seq: 0,
                fingerprint: fp,
                kind: CacheEventKind::Miss
            }
        );
        assert_eq!(
            journal[1],
            CacheEvent {
                seq: 1,
                fingerprint: fp,
                kind: CacheEventKind::Hit
            }
        );
        assert!(!journal[0].is_hit());
        assert!(journal[1].is_hit());
    }

    #[test]
    fn journal_is_a_bounded_ring() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(1, 4);
        let spec = hm_allreduce(1, 4);
        let plan = mb(16 << 20, spec.n_chunks());
        // One miss, then 4,097 hits: two events more than a ring holds.
        for _ in 0..DEFAULT_JOURNAL_CAPACITY + 2 {
            cache
                .get_or_compile(&compiler, &spec, &topo, &plan)
                .unwrap();
        }
        // One fingerprint → one shard → its ring behaves exactly like the
        // old global ring: oldest retained first, globally consecutive seq
        // numbers, and the gap before the first retained event equals the
        // drop count.
        let journal = cache.journal();
        assert_eq!(
            journal.len(),
            DEFAULT_JOURNAL_CAPACITY,
            "ring stays at capacity"
        );
        assert!(journal
            .iter()
            .map(|e| e.seq)
            .eq(2..=DEFAULT_JOURNAL_CAPACITY as u64 + 1));
        // Stats are unaffected by journal truncation.
        assert_eq!(cache.stats().hits, DEFAULT_JOURNAL_CAPACITY as u64 + 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn byte_budget_evicts_lru_but_never_the_newest_entry() {
        // A 1-byte budget is below any plan's cost, so each publish
        // evicts everything except the entry being published.
        let cache = PlanCache::new().with_byte_budget(1);
        let compiler = Compiler::new();
        let topo = Topology::a100(1, 4);
        let spec = hm_allreduce(1, 4);
        let mut last = (0, 0);
        for i in 0..6 {
            let plan = MicroBatchPlan::plan(16 << 20, spec.n_chunks(), (1 << 20) + i * 4096);
            let compiled = cache
                .get_or_compile(&compiler, &spec, &topo, &plan)
                .unwrap();
            last = (
                plan_fingerprint(&compiler, &spec, &topo, &plan),
                plan_cost_bytes(&compiled),
            );
            // The just-published plan always survives its own publish.
            assert!(cache.contains(last.0));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 6);
        assert_eq!(
            (stats.entries, stats.evictions),
            (1, 5),
            "a 1-byte budget keeps only the newest entry: {stats:?}"
        );
        assert_eq!(stats.entries as u64, stats.misses - stats.evictions);
        assert_eq!(stats.resident_bytes, last.1);
        // An evicted configuration recompiles (counts a fresh miss).
        let first = MicroBatchPlan::plan(16 << 20, spec.n_chunks(), 1 << 20);
        let first_fp = plan_fingerprint(&compiler, &spec, &topo, &first);
        assert!(!cache.contains(first_fp));
        cache
            .get_or_compile(&compiler, &spec, &topo, &first)
            .unwrap();
        assert_eq!(cache.stats().misses, 7);
        assert!(!cache.contains(last.0), "the older entry is the victim");
    }

    #[test]
    fn unbudgeted_cache_never_evicts() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(1, 4);
        let spec = hm_allreduce(1, 4);
        for i in 0..4 {
            let plan = MicroBatchPlan::plan(16 << 20, spec.n_chunks(), (1 << 20) + i * 4096);
            cache
                .get_or_compile(&compiler, &spec, &topo, &plan)
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (4, 0));
        assert!(stats.resident_bytes > 0);
    }
}
