//! The one dispatch path, NCCL-style: create a [`Communicator`] for a
//! cluster and a [`Backend`] once, then issue collectives by operator and
//! size, or by spec and chunk size ([`Communicator::run_spec`]) for sweeps
//! that pick their own algorithm. Compilation, plan caching, the watchdog
//! and the dispatch record happen inside, for every backend.
//!
//! Algorithm selection policy (mirroring how vendor libraries pick):
//!
//! * single node → hierarchical mesh (full-mesh phases use every pair
//!   channel; latency-optimal recursive variants for power-of-two small
//!   buffers),
//! * multi-node → the HM family of Appendix A (hierarchical:
//!   intra-mesh + inter-ring) — the paper's expert choice for Clos
//!   clusters.

use crate::{Backend, RecoveryAction, RecoveryStats, RunReport, DEFAULT_CHUNK_BYTES};
use rescc_algos::{
    hm_allgather, hm_allreduce, hm_reduce_scatter, recursive_halving_doubling_allreduce,
};
use rescc_core::{plan_fingerprint, CacheStats, CompiledPlan, Compiler, PlanCache, SpecKey};
use rescc_ir::MicroBatchPlan;
use rescc_lang::{AlgoSpec, OpType};
use rescc_obs::{DispatchEvent, ObsStats, RecoveryTrigger};
use rescc_sim::{FaultFrontier, FaultTimeline, SimConfig, SimError, SimResult};
use rescc_topology::{ResourceId, Topology, TopologyHealth};
use std::sync::Arc;

/// Transient-fault retries per call before the watchdog gives up.
const MAX_RETRIES: u32 = 8;
/// Degraded-topology recompiles per call before the watchdog gives up.
const MAX_RECOMPILES: u32 = 4;
/// Sim time (ns) the first retry waits before relaunching; each further
/// retry waits [`BACKOFF_FACTOR`] times longer.
const BACKOFF_BASE_NS: f64 = 200_000.0;
/// Backoff multiplier per further retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// A handle for issuing collectives on a fixed cluster.
///
/// Dispatch goes through a [`PlanCache`]: the first call of each distinct
/// (operator, algorithm, micro-batch shape) configuration compiles, every
/// repeat is a fingerprint lookup — none of the compile phases run again
/// (the dispatch's [`CacheEvent`](rescc_core::CacheEvent) reports a hit).
/// [`cache_stats`](Self::cache_stats) reads the cache's counters.
///
/// The cache is held through an `Arc`: by default each communicator owns a
/// private one (today's behavior), and
/// [`with_shared_cache`](Self::with_shared_cache) opts a group of
/// communicators — across threads — into one shared plan service, so a
/// plan compiled by any tenant serves all of them.
///
/// A watchdog completes collectives on a faulty fabric. Transient failures
/// (a link down now but scheduled to come back) are retried up to 8 times; each failed attempt burns its failure time plus
/// a backoff of *sim* time, 200 µs doubling per retry, and the fault
/// timeline is replayed shifted by the total elapsed time — a flap that
/// already passed stays passed. Permanent failures mask the dead resource
/// in a [`TopologyHealth`] overlay and dispatch again against the degraded
/// topology, through the plan cache like any dispatch, at most 4 times per
/// call.
///
/// A collective on a topology of fewer than two ranks, of zero bytes or in
/// zero-byte chunks fails with [`SimError::InvalidConfig`] before anything
/// is planned.
pub struct Communicator {
    topo: Topology,
    /// The backend's [`Backend::compiler`]. Every `Backend` constructor
    /// gates deny, so every plan this communicator dispatches, cached or
    /// compiled, has passed the sanitize phase. The fingerprint covers the
    /// compiler options, so a shared cache never hands one backend's plan
    /// to another, nor a warn-gated plan to a deny-gated tenant.
    compiler: Compiler,
    /// The backend's [`Backend::name`], for reports.
    backend: &'static str,
    /// The plan cache, and through it the spec table
    /// ([`PlanCache::spec`]). Building a spec is not cheap (a 128-rank HM
    /// AllGather takes about 0.5 ms on a 2-vCPU host, some 4% of a cold
    /// dispatch), and each spec memoizes its topology-independent compile
    /// work, so tenants that share the cache select one shared spec per
    /// operator, bucket and cluster shape. A private cache is an unshared
    /// table.
    cache: Arc<PlanCache>,
    /// Fault schedule injected into every collective issued through this
    /// communicator (sim-time timestamps relative to each call's start).
    faults: FaultTimeline,
    /// Resources masked dead by permanent-fault recovery; sticky across
    /// calls, the way a real communicator remembers a dead link.
    health: TopologyHealth,
    /// Validate collective data in the simulator. Off by default: it never
    /// changes simulated times, and it would add about a fifth to the
    /// event loop of every warm dispatch.
    validate: bool,
    /// Collect cross-layer observability: compile-phase and watchdog
    /// spans on [`RunReport::obs`], bubble attribution on the sim report.
    observe: bool,
}

impl Communicator {
    /// Create a communicator over `topo` with the default ResCCL backend.
    pub fn new(topo: Topology) -> Self {
        let backend = Backend::resccl();
        Self {
            topo,
            compiler: backend.compiler(),
            backend: backend.name(),
            cache: Arc::new(PlanCache::new()),
            faults: FaultTimeline::new(),
            health: TopologyHealth::healthy(),
            validate: false,
            observe: false,
        }
    }

    /// Dispatch every collective through `backend`'s compiler, and name it
    /// in every report.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.compiler = backend.compiler();
        self.backend = backend.name();
        self
    }

    /// Inject a fault schedule into every collective issued through this
    /// communicator. Timestamps are sim time relative to each call's start.
    pub fn with_faults(mut self, faults: FaultTimeline) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the fault schedule in place — the chaos harness re-arms the
    /// same communicator between collectives, and healing reacts to it: a
    /// masked resource whose *current* schedule no longer declares it
    /// permanently dead is un-masked at the next collective boundary.
    pub fn set_faults(&mut self, faults: FaultTimeline) {
        self.faults = faults;
    }

    /// Enable machine-checked data validation on every collective.
    pub fn with_validation(mut self) -> Self {
        self.validate = true;
        self
    }

    /// Collect cross-layer observability on every collective: compiler
    /// phase spans, cache hit/miss events and watchdog recovery spans
    /// ride on [`RunReport::obs`]; the simulator runs with a transfer
    /// trace and bubble attribution
    /// ([`SimReport::obs`](rescc_sim::SimReport)). Off by default — the
    /// wall-clock compile spans make observed reports nondeterministic,
    /// so replay-comparison consumers must not enable this.
    pub fn with_observability(mut self) -> Self {
        self.observe = true;
        self
    }

    /// The current health mask (resources masked by permanent-fault
    /// recovery so far).
    pub fn health(&self) -> &TopologyHealth {
        &self.health
    }

    /// The topology this communicator serves.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Share a plan cache with other communicators (multi-tenant
    /// dispatch). Tenants of one cluster shape then share their specs too
    /// ([`PlanCache::spec`]), so a new tenant skips the spec-only compile
    /// work. All tenants must agree on compiler configuration for
    /// sharing to pay off — the fingerprint covers compiler options, so a
    /// mismatched tenant simply misses into its own entries. Concurrent
    /// tenants are safe: a warm dispatch looks its plan up under a shared
    /// per-shard lock, then counts the hit under the shard's short `state`
    /// mutex and bumps two cache-wide atomics, and cold dispatches of the
    /// same fingerprint are coalesced into one compile.
    pub fn with_shared_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The plan cache this communicator dispatches through — clone the
    /// `Arc` to share it with another tenant.
    pub fn cache_handle(&self) -> Arc<PlanCache> {
        Arc::clone(&self.cache)
    }

    /// Plan-cache counters (hits, misses, resident entries). Under a
    /// shared cache these are service-wide, not per-tenant.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Pick the algorithm for an operator and buffer size, from the spec
    /// table of the plan cache.
    fn select(&self, op: OpType, buffer_bytes: u64) -> Arc<AlgoSpec> {
        let nodes = self.topo.n_nodes();
        let g = self.topo.gpus_per_node();
        let n = self.topo.n_ranks();
        // "Small" = latency-dominated: few micro-batches to pipeline.
        let small = buffer_bytes <= (n as u64) * DEFAULT_CHUNK_BYTES * 2;
        let key = SpecKey {
            op,
            small,
            nodes,
            gpus_per_node: g,
        };
        self.cache.spec(key, || match op {
            OpType::AllGather => hm_allgather(nodes, g),
            OpType::ReduceScatter => hm_reduce_scatter(nodes, g),
            OpType::AllReduce => {
                if small && n.is_power_of_two() && nodes == 1 {
                    // Log-depth butterfly wins when α dominates.
                    recursive_halving_doubling_allreduce(n)
                } else {
                    hm_allreduce(nodes, g)
                }
            }
        })
    }

    /// AllReduce `buffer_bytes` per rank.
    pub fn all_reduce(&mut self, buffer_bytes: u64) -> SimResult<RunReport> {
        self.run(OpType::AllReduce, buffer_bytes)
    }

    /// AllGather `buffer_bytes` per rank (the gathered size).
    pub fn all_gather(&mut self, buffer_bytes: u64) -> SimResult<RunReport> {
        self.run(OpType::AllGather, buffer_bytes)
    }

    /// ReduceScatter `buffer_bytes` per rank.
    pub fn reduce_scatter(&mut self, buffer_bytes: u64) -> SimResult<RunReport> {
        self.run(OpType::ReduceScatter, buffer_bytes)
    }

    fn run(&mut self, op: OpType, buffer_bytes: u64) -> SimResult<RunReport> {
        // Checked before selection: algorithm construction needs at least
        // two ranks.
        if self.topo.n_ranks() < 2 {
            return Err(SimError::InvalidConfig(format!(
                "{op:?} on {} rank(s): a collective needs at least two ranks",
                self.topo.n_ranks()
            )));
        }
        let spec = self.select(op, buffer_bytes);
        self.run_spec(&spec, buffer_bytes, DEFAULT_CHUNK_BYTES)
    }

    /// Run `spec` over `buffer_bytes` per rank, moving `chunk_bytes` per
    /// primitive invocation: the collectives above with the algorithm and
    /// chunk size chosen by the caller.
    pub fn run_spec(
        &mut self,
        spec: &AlgoSpec,
        buffer_bytes: u64,
        chunk_bytes: u64,
    ) -> SimResult<RunReport> {
        // Checked here: the micro-batch planner asserts both are positive.
        if buffer_bytes == 0 || chunk_bytes == 0 {
            return Err(SimError::InvalidConfig(format!(
                "{} of {buffer_bytes} B in {chunk_bytes} B chunks: both must be positive",
                spec.name()
            )));
        }
        let mb = MicroBatchPlan::plan(buffer_bytes, spec.n_chunks(), chunk_bytes);
        // The watchdog only reports recovery accounting when it could have
        // done something — otherwise the report stays byte-compatible with
        // a plain healthy dispatch.
        let engaged = !self.faults.is_empty() || !self.health.is_empty();
        // The dispatch record: every heal, cache event, compile, resume and
        // failed attempt of this call, once each and in order. The budgets
        // count it, and the report's `recovery` and `obs` are folds of it.
        let mut events: Vec<DispatchEvent> = Vec::new();
        // Healing: a masked resource whose current fault schedule no
        // longer declares it permanently dead has been restored — un-mask
        // it and fail back to the healthier plan at this collective
        // boundary (the dispatch below picks it up via the fingerprint).
        for r in self.health.dead().to_vec() {
            if !self.faults.is_permanent_down(r) {
                self.health.unmask(r);
                events.push(DispatchEvent::Trigger(RecoveryTrigger {
                    action: RecoveryAction::Heal,
                    cause: format!("{r} restored"),
                    failed_ns: 0.0,
                    wait_ns: 0.0,
                }));
            }
        }
        // Completed invocations accumulated across aborted attempts, in
        // the plan's task-id space — stable across resumes (a resumed
        // attempt runs the same plan) and across recompiles (task `i` is
        // transfer `i` of the spec on every topology). While non-empty,
        // each attempt resumes from it.
        let mut acc: Option<FaultFrontier> = None;
        loop {
            // The recovery so far, for the budgets. Each retry replays the
            // fault timeline shifted into the past by its `recovery_ns`, so
            // a flap that already passed stays passed.
            let so_far = RecoveryStats::from_events(&events);
            let elapsed = so_far.recovery_ns;
            let topo = self.topo.clone().with_health(self.health.clone());
            // One attempt: the resume check, the simulator configuration
            // and the run. While the accumulated frontier is non-empty the
            // attempt resumes from it, so only the remainder executes; a
            // frontier the resume check refuses (wrong dimensions, or a
            // provenance violation under verify) falls back to a restart.
            let run = |plan: &CompiledPlan| {
                let mut cfg = SimConfig {
                    validate_data: self.validate,
                    faults: self.faults.advanced(elapsed),
                    record_trace: self.observe,
                    attribute_bubbles: self.observe,
                    ..SimConfig::default()
                };
                let resumed = match &acc {
                    Some(f) if !f.is_empty() && self.compiler.residual_plan(plan, f).is_ok() => {
                        cfg = cfg.with_resume(f.clone());
                        true
                    }
                    _ => false,
                };
                (plan.run_with(buffer_bytes, chunk_bytes, &cfg), resumed)
            };
            // On a miss, the first attempt runs the plan while its lints
            // run; the deny gate still decides before the plan is cached
            // or its run reported. A miss after a fault (a degraded
            // topology) is where the gate refuses plans, so it stays
            // serial. The dispatch's own `CacheEvent` keeps attribution
            // exact under a shared cache.
            let overlap = so_far.retries + so_far.recompiles == 0;
            let mut first_run = None;
            let fp = plan_fingerprint(&self.compiler, spec, &topo, &mb);
            let (plan, ev) = self.cache.get_or_compile_keyed(fp, || {
                if !overlap {
                    return self.compiler.compile_spec(spec, &topo);
                }
                let (plan, out) = self.compiler.compile_spec_then(spec, &topo, run)?;
                first_run = Some(out);
                Ok(plan)
            })?;
            events.push(DispatchEvent::Cache(ev));
            if !ev.is_hit() {
                events.push(DispatchEvent::Compile(plan.timings));
            }
            let (attempt, resumed) = first_run.unwrap_or_else(|| run(&plan));
            if resumed {
                events.push(DispatchEvent::Resume);
            }
            match attempt {
                Ok(sim) => {
                    let recovery = engaged.then(|| RecoveryStats {
                        dead_resources: self.health.dead().iter().map(|r| r.0).collect(),
                        plan_fingerprint: ev.fingerprint,
                        lint_diagnostics: plan.diagnostics.diagnostics().len() as u32,
                        ..RecoveryStats::from_events(&events)
                    });
                    // Certificate cross-check, fresh fault-free runs only:
                    // a resumed attempt skips completed work and a
                    // degraded/faulted one runs against parameters the
                    // certificate was not computed for, so neither bounds
                    // from below.
                    let certificate_undercut = (!resumed
                        && self.faults.is_empty()
                        && self.health.is_empty()
                        && elapsed == 0.0)
                        .then(|| {
                            plan.makespan_floor_ns(buffer_bytes, chunk_bytes)
                                .is_some_and(|floor| sim.undercuts_floor(floor))
                        });
                    return Ok(RunReport {
                        backend: self.backend.to_string(),
                        algo: spec.name().to_string(),
                        buffer_bytes,
                        total_tbs: plan.total_tbs(),
                        max_rank_tbs: plan.alloc.max_rank_tbs(),
                        sim,
                        recovery,
                        certificate_undercut,
                        obs: self.observe.then(|| ObsStats::from_events(&events)),
                    });
                }
                Err(err) if err.is_transient() => {
                    if so_far.retries >= MAX_RETRIES {
                        return Err(err);
                    }
                    let resumable = absorb_frontier(err.frontier(), &mut acc);
                    events.push(DispatchEvent::Trigger(RecoveryTrigger {
                        action: if resumable {
                            RecoveryAction::Resume
                        } else {
                            RecoveryAction::Retry
                        },
                        cause: match &err {
                            SimError::ResourceDown { resource, .. } => {
                                format!("transient r{resource} down")
                            }
                            _ => "transient".to_string(),
                        },
                        failed_ns: err.at_ns().unwrap_or(0) as f64,
                        // Exponential backoff: base × factor^(retries so far).
                        wait_ns: BACKOFF_BASE_NS * BACKOFF_FACTOR.powi(so_far.retries as i32),
                    }));
                }
                Err(SimError::ResourceDown {
                    resource,
                    task,
                    at_ns,
                    permanent: true,
                    frontier,
                }) => {
                    if so_far.recompiles >= MAX_RECOMPILES
                        || !self.health.mask(ResourceId::new(resource))
                    {
                        // Budget exhausted, or the resource was already
                        // masked (routing could not avoid it): no progress
                        // is possible.
                        return Err(SimError::ResourceDown {
                            resource,
                            task,
                            at_ns,
                            permanent: true,
                            frontier,
                        });
                    }
                    // Fold the aborted attempt's completed work in before
                    // the plan changes under us: the dispatch at the top of
                    // the loop serves the degraded plan from the cache or
                    // compiles it (its deny gate refusing a plan with no
                    // healthy route), and resumes from the frontier.
                    absorb_frontier(frontier.as_deref(), &mut acc);
                    events.push(DispatchEvent::Trigger(RecoveryTrigger {
                        action: RecoveryAction::FullRecompile,
                        cause: format!("r{resource} dead"),
                        failed_ns: at_ns as f64,
                        wait_ns: BACKOFF_BASE_NS,
                    }));
                }
                // Invalid program/config, wrong data, deadlock, …: not
                // recoverable by retrying or rerouting.
                Err(err) => return Err(err),
            }
        }
    }
}

/// Fold a just-aborted attempt's frontier into the accumulated one.
/// Returns whether the accumulated frontier is now non-empty (i.e. the
/// next attempt can resume).
fn absorb_frontier(frontier: Option<&FaultFrontier>, acc: &mut Option<FaultFrontier>) -> bool {
    if let Some(f) = frontier {
        match acc {
            Some(a) => {
                a.union(f);
            }
            None => *acc = Some(f.clone()),
        }
    }
    acc.as_ref().is_some_and(|a| !a.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn issues_all_three_collectives() {
        let mut comm = Communicator::new(Topology::a100(2, 4));
        for rep in [
            comm.all_reduce(64 * MB).unwrap(),
            comm.all_gather(64 * MB).unwrap(),
            comm.reduce_scatter(64 * MB).unwrap(),
        ] {
            assert!(rep.algbw_gbps() > 0.0);
            assert_eq!(rep.backend, "resccl");
        }
    }

    #[test]
    fn empty_buffer_is_an_invalid_config() {
        let mut comm = Communicator::new(Topology::a100(2, 4));
        for err in [
            comm.all_reduce(0).unwrap_err(),
            comm.all_gather(0).unwrap_err(),
            comm.reduce_scatter(0).unwrap_err(),
            comm.run_spec(&hm_allgather(2, 4), 64 * MB, 0).unwrap_err(),
        ] {
            assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
        }
        // Refused before planning: nothing compiled, nothing cached.
        assert_eq!(comm.cache_stats().misses, 0);
        let rep = comm
            .all_reduce(64 * MB)
            .expect("the communicator still works");
        assert!(rep.algbw_gbps() > 0.0);
    }

    #[test]
    fn baselines_dispatch_through_the_cache_and_record() {
        for backend in [Backend::nccl(), Backend::msccl()] {
            let name = backend.name();
            let mut comm = Communicator::new(Topology::a100(2, 4))
                .with_backend(backend)
                .with_observability();
            let first = comm.all_gather(64 * MB).unwrap();
            let second = comm.all_gather(64 * MB).unwrap();
            assert_eq!(first.backend, name);
            assert_eq!(first.obs.as_ref().unwrap().cache_misses, 1, "{name}");
            let obs = second.obs.as_ref().unwrap();
            assert_eq!((obs.cache_hits, obs.cache_misses), (1, 0), "{name}");
            assert_eq!(second.certificate_undercut, Some(false), "{name}");
        }
    }

    #[test]
    fn baselines_recover_from_permanent_link_death() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        for backend in [Backend::nccl(), Backend::msccl()] {
            let name = backend.name();
            let mut comm = Communicator::new(topo.clone())
                .with_backend(backend)
                .with_validation()
                .with_faults(FaultTimeline::new().kill(chan, 100_000.0));
            let rep = comm.all_reduce(64 * MB).unwrap();
            assert_eq!(rep.sim.data_valid, Some(true), "{name}");
            let rec = rep.recovery.expect("watchdog engaged");
            assert!(rec.recompiles >= 1, "{name}: {rec:?}");
            assert!(
                (rec.journal.iter()).all(|e| e.action == RecoveryAction::FullRecompile),
                "{name}: {rec:?}"
            );
            // The healthy plan and each degraded one compiled once.
            assert_eq!(comm.cache_stats().misses, 1 + u64::from(rec.recompiles));
        }
    }

    #[test]
    fn single_rank_topology_is_an_invalid_config() {
        let mut comm = Communicator::new(Topology::a100(1, 1));
        for err in [
            comm.all_reduce(64 * MB).unwrap_err(),
            comm.all_gather(64 * MB).unwrap_err(),
            comm.reduce_scatter(64 * MB).unwrap_err(),
        ] {
            assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
        }
        assert_eq!(comm.cache_stats().misses, 0);
    }

    #[test]
    fn small_single_node_allreduce_uses_butterfly() {
        let mut comm = Communicator::new(Topology::a100(1, 8));
        let small = comm.all_reduce(4 * MB).unwrap();
        assert!(small.algo.starts_with("rechd-ar"));
        let large = comm.all_reduce(1024 * MB).unwrap();
        assert!(large.algo.starts_with("hm-ar"));
    }

    #[test]
    fn multi_node_uses_hierarchical_mesh() {
        let mut comm = Communicator::new(Topology::a100(4, 8));
        let rep = comm.all_reduce(256 * MB).unwrap();
        assert!(rep.algo.starts_with("hm-ar"));
    }

    #[test]
    fn spec_cache_is_stable() {
        let mut comm = Communicator::new(Topology::a100(2, 4));
        let a = comm.all_gather(128 * MB).unwrap();
        let b = comm.all_gather(128 * MB).unwrap();
        assert_eq!(a.sim, b.sim);
    }

    #[test]
    fn healthy_run_reports_no_recovery() {
        let mut comm = Communicator::new(Topology::a100(2, 4));
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.recovery, None);
        assert_eq!(rep.total_completion_ns(), rep.sim.completion_ns);
    }

    #[test]
    fn transient_flap_is_retried_to_success() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let mut comm = Communicator::new(topo)
            .with_validation()
            .with_faults(FaultTimeline::new().flap(chan, 50_000.0, 80_000.0, 80_000.0, 1));
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.sim.data_valid, Some(true));
        let rec = rep.recovery.clone().expect("watchdog engaged");
        assert!(rec.retries >= 1, "flap must force at least one retry");
        assert_eq!(rec.recompiles, 0, "transient faults never recompile");
        assert!(rec.dead_resources.is_empty());
        assert!(rec.recovery_ns > 0.0);
        assert!(rep.total_completion_ns() > rep.sim.completion_ns);
        assert!(comm.health().is_empty(), "no permanent masking");
    }

    #[test]
    fn permanent_link_death_masks_and_recompiles() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let mut comm = Communicator::new(topo)
            .with_validation()
            .with_faults(FaultTimeline::new().kill(chan, 100_000.0));
        let healthy_fp = {
            let mut h = Communicator::new(Topology::a100(2, 4)).with_validation();
            h.all_reduce(64 * MB)
                .unwrap()
                .recovery
                .map(|r| r.plan_fingerprint)
        };
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.sim.data_valid, Some(true));
        let rec = rep.recovery.expect("watchdog engaged");
        assert_eq!(rec.recompiles, 1, "link death must recompile once");
        assert_eq!(rec.journal[0].action, RecoveryAction::FullRecompile);
        // The post-fault dispatch missed and compiled the degraded plan.
        let stats = comm.cache_stats();
        assert_eq!((stats.misses, stats.hits), (2, 0));
        assert_eq!(rec.dead_resources, vec![chan.0]);
        // The degraded plan was re-analyzed (deny gate) and came out clean.
        assert_eq!(rec.lint_diagnostics, 0);
        assert!(comm.health().is_dead(chan));
        // The degraded plan's fingerprint differs from any healthy plan's.
        assert_ne!(Some(rec.plan_fingerprint), healthy_fp);
        assert_ne!(rec.plan_fingerprint, 0);
        // The mask is sticky: a second call reuses the degraded plan
        // without failing again (the kill at 100µs re-fires, but the dead
        // channel is no longer on any path).
        let again = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(again.sim.data_valid, Some(true));
        assert_eq!(again.recovery.expect("engaged").recompiles, 0);
        let stats = comm.cache_stats();
        assert_eq!((stats.misses, stats.hits), (2, 1), "the degraded plan hits");
    }

    #[test]
    fn repeated_permanent_fault_compiles_nothing() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let kill = FaultTimeline::new().kill(chan, 100_000.0);
        let mut comm = Communicator::new(topo)
            .with_observability()
            .with_faults(kill.clone());
        // Kill the channel, heal it with a fault-free dispatch, kill it
        // again: the third dispatch finds both plans cached.
        comm.all_reduce(64 * MB).unwrap();
        comm.set_faults(FaultTimeline::new());
        comm.all_reduce(64 * MB).unwrap();
        assert!(comm.health().is_empty());
        comm.set_faults(kill);
        let rep = comm.all_reduce(64 * MB).unwrap();
        let obs = rep.obs.as_ref().unwrap();
        assert_eq!(obs.compile_total_ns(), 0.0);
        assert_eq!(obs.cache_misses, 0);
        assert_eq!(rep.recovery.expect("engaged").recompiles, 1);
    }

    #[test]
    fn recompile_budget_bounds_permanent_faults() {
        use rescc_topology::Rank;
        let topo = Topology::a100(1, 8);
        // Five directed pair channels of the full-mesh plan, all dead from
        // 100 µs on. Each attempt runs into one more of them: the first
        // four are masked and recompiled around, the fifth exhausts the
        // budget and fails the call.
        let chans: Vec<ResourceId> = [(0, 1), (2, 3), (4, 5), (6, 7), (1, 0)]
            .iter()
            .map(|&(a, b)| topo.pair_chan(Rank::new(a), Rank::new(b)))
            .collect();
        let faults = chans
            .iter()
            .fold(FaultTimeline::new(), |tl, &c| tl.kill(c, 100_000.0));
        let mut comm = Communicator::new(topo).with_faults(faults);
        let err = comm.all_reduce(256 * MB).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::ResourceDown {
                    permanent: true,
                    ..
                }
            ),
            "{err}"
        );
        // Four masks, one per recompile; the fifth dead channel is not.
        assert_eq!(comm.health().dead().len(), 4, "{:?}", comm.health());
        let SimError::ResourceDown { resource, .. } = err else {
            unreachable!()
        };
        assert!(chans.contains(&ResourceId::new(resource)));
        assert!(!comm.health().is_dead(ResourceId::new(resource)));
    }

    #[test]
    fn observability_is_off_by_default() {
        let mut comm = Communicator::new(Topology::a100(2, 4));
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.obs, None);
        assert_eq!(rep.sim.obs, None);
        assert!(rep.sim.trace.is_empty());
    }

    #[test]
    fn observability_collects_compile_cache_and_watchdog_spans() {
        use rescc_obs::SpanCategory;
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let mut comm = Communicator::new(topo)
            .with_observability()
            .with_faults(FaultTimeline::new().flap(chan, 50_000.0, 80_000.0, 80_000.0, 1));
        let rep = comm.all_reduce(64 * MB).unwrap();
        let obs = rep.obs.as_ref().expect("observability enabled");
        // First dispatch compiles; phase spans rode along.
        assert_eq!(obs.cache_misses, 1);
        assert!(obs.compile_total_ns() > 0.0);
        assert!(obs
            .spans
            .iter()
            .any(|s| s.category == SpanCategory::Compile));
        assert!(obs.spans.iter().any(|s| s.category == SpanCategory::Cache));
        // The flap forced at least one retry; watchdog spans and counters
        // agree with the recovery accounting.
        let rec = rep.recovery.as_ref().expect("watchdog engaged");
        assert!(rec.retries >= 1);
        let retry_spans = obs.spans.iter().filter(|s| s.name.starts_with("retry#"));
        assert_eq!(retry_spans.count(), rec.retries as usize);
        assert!(obs.backoff_ns > 0.0);
        assert!(obs
            .spans
            .iter()
            .any(|s| s.category == SpanCategory::Recovery && s.name == "backoff"));
        // The simulator ran with trace + bubble attribution.
        assert!(rep.sim.obs.is_some());
        assert!(!rep.sim.trace.is_empty());
        // A second identical call hits the cache (once per attempt — the
        // flap timeline re-fires, so the retry dispatches again): no new
        // compile time.
        let rep2 = comm.all_reduce(64 * MB).unwrap();
        let obs2 = rep2.obs.as_ref().unwrap();
        assert!(obs2.cache_hits >= 1);
        assert_eq!(obs2.cache_misses, 0);
        assert_eq!(obs2.compile_total_ns(), 0.0);
    }

    #[test]
    fn observability_stacks_recompile_spans() {
        use rescc_obs::SpanCategory;
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let mut comm = Communicator::new(topo)
            .with_observability()
            .with_faults(FaultTimeline::new().kill(chan, 100_000.0));
        let rep = comm.all_reduce(64 * MB).unwrap();
        let obs = rep.obs.as_ref().unwrap();
        let rec = rep.recovery.as_ref().unwrap();
        assert!(rec.recompiles >= 1);
        let spans = |name: &str| obs.spans.iter().filter(|s| s.name == name).count() as u32;
        assert_eq!(spans("mask+recompile"), rec.recompiles);
        // The healthy plan and each degraded one missed and compiled.
        assert_eq!(obs.cache_misses, 1 + u64::from(rec.recompiles));
        assert_eq!(obs.cache_hits, 0);
        assert!(obs
            .spans
            .iter()
            .any(|s| s.category == SpanCategory::Recovery && s.name == "mask+recompile"));
        // Compile spans from the two compiles stack without overlap.
        let mut compile_spans: Vec<_> = obs
            .spans
            .iter()
            .filter(|s| s.category == SpanCategory::Compile)
            .collect();
        compile_spans.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns));
        for w in compile_spans.windows(2) {
            assert!(w[0].end_ns() <= w[1].start_ns + 1e-6);
        }
    }

    #[test]
    fn permanent_fault_resumes_from_frontier() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let healthy_ns = {
            let mut h = Communicator::new(Topology::a100(2, 4)).with_validation();
            h.all_reduce(64 * MB).unwrap().sim.completion_ns
        };
        // Kill well past the halfway point: most invocations completed,
        // so the post-recompile attempt must resume, not restart.
        let mut comm = Communicator::new(topo)
            .with_validation()
            .with_faults(FaultTimeline::new().kill(chan, healthy_ns * 0.6));
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.sim.data_valid, Some(true));
        let rec = rep.recovery.clone().expect("watchdog engaged");
        assert!(rec.recompiles >= 1);
        assert!(
            rec.resumes >= 1,
            "late fault must resume from the frontier: {rec:?}"
        );
        // The resumed attempt ran the plan the cache holds under the
        // reported fingerprint: the report's TB counts are that kernel's.
        let (plan, ev) = comm
            .cache_handle()
            .get_or_compile_keyed(rec.plan_fingerprint, || {
                panic!("the dispatched plan must be cached")
            })
            .unwrap();
        assert!(ev.is_hit());
        assert_eq!(
            (rep.total_tbs, rep.max_rank_tbs),
            (plan.total_tbs(), plan.alloc.max_rank_tbs())
        );
        assert!(
            rep.sim.completion_ns < healthy_ns,
            "resumed attempt {} must be shorter than a full run {healthy_ns}",
            rep.sim.completion_ns
        );
        assert!(!rec.journal.is_empty());
        assert_eq!(rec.journal[0].action, crate::RecoveryAction::FullRecompile);
        assert!(rec.journal[0].cause.contains("dead"), "{rec:?}");
        assert!(rec.journal[0].at_ns > 0.0);
    }

    #[test]
    fn transient_kill_with_restore_resumes_without_masking() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        // Down at 300µs, restored 200µs later: the timeline declares the
        // outage non-permanent, so the abort is transient and recovery
        // resumes on the *same* (unmasked) plan.
        let mut comm = Communicator::new(topo).with_validation().with_faults(
            FaultTimeline::new()
                .kill(chan, 300_000.0)
                .restore(chan, 500_000.0),
        );
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.sim.data_valid, Some(true));
        let rec = rep.recovery.expect("watchdog engaged");
        assert!(rec.retries >= 1);
        assert_eq!(rec.recompiles, 0, "restored outage must not recompile");
        assert!(
            rec.resumes >= 1,
            "mid-run outage must resume from the frontier: {rec:?}"
        );
        assert!(comm.health().is_empty(), "no masking for restored faults");
        assert!(rec
            .journal
            .iter()
            .any(|e| e.action == crate::RecoveryAction::Resume));
    }

    #[test]
    fn restored_resource_heals_back_to_healthy_plan() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let healthy_fp = {
            // A no-op straggler engages the watchdog on a healthy twin,
            // exposing the healthy plan's fingerprint.
            let mut h = Communicator::new(Topology::a100(2, 4))
                .with_faults(FaultTimeline::new().straggler(0, 0.0, 1.0, 1.0));
            h.all_reduce(64 * MB)
                .unwrap()
                .recovery
                .unwrap()
                .plan_fingerprint
        };
        let mut comm = Communicator::new(topo)
            .with_validation()
            .with_faults(FaultTimeline::new().kill(chan, 100_000.0));
        let first = comm.all_reduce(64 * MB).unwrap();
        assert!(comm.health().is_dead(chan), "kill masks the channel");
        let degraded_fp = first.recovery.unwrap().plan_fingerprint;
        assert_ne!(degraded_fp, healthy_fp);
        // The link comes back: the schedule no longer declares it dead.
        comm.set_faults(FaultTimeline::new());
        let healed = comm.all_reduce(64 * MB).unwrap();
        assert!(comm.health().is_empty(), "heal must clear the mask");
        let rec = healed.recovery.expect("heal engages the watchdog");
        assert_eq!(rec.heals, 1);
        assert_eq!(rec.recompiles, 0);
        assert_eq!(rec.retries, 0);
        assert_eq!(
            rec.plan_fingerprint, healthy_fp,
            "heal must fail back to the cached healthy plan"
        );
        assert_eq!(rec.journal.len(), 1);
        assert_eq!(rec.journal[0].action, crate::RecoveryAction::Heal);
        assert!(rec.journal[0].cause.contains("restored"));
        // Fully healthy again: the next call reports no recovery at all.
        let clean = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(clean.recovery, None);
    }

    #[test]
    fn journal_orders_attempts_and_observability_counts_resumes() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let mut comm = Communicator::new(topo)
            .with_observability()
            .with_validation()
            .with_faults(
                FaultTimeline::new()
                    .kill(chan, 300_000.0)
                    .restore(chan, 500_000.0),
            );
        let rep = comm.all_reduce(64 * MB).unwrap();
        let rec = rep.recovery.expect("watchdog engaged");
        assert!(!rec.journal.is_empty());
        for (i, ev) in rec.journal.iter().enumerate() {
            assert_eq!(ev.attempt, i as u32 + 1, "attempts must be ordered");
            assert!(ev.at_ns >= 0.0);
        }
        assert!(rec.resumes >= 1);
        let obs = rep.obs.expect("observability enabled");
        let resume_spans = obs.spans.iter().filter(|s| {
            s.name.starts_with("resume#") && s.category == rescc_obs::SpanCategory::Recovery
        });
        assert_eq!(resume_spans.count(), rec.resumes as usize);
    }

    #[test]
    fn recovery_replays_byte_identically() {
        let run = || {
            let topo = Topology::a100(2, 4);
            let chan = topo.pair_chan(rescc_topology::Rank::new(1), rescc_topology::Rank::new(2));
            let mut comm = Communicator::new(topo).with_validation().with_faults(
                FaultTimeline::new()
                    .kill(chan, 150_000.0)
                    .straggler(0, 0.0, 2.0, 400_000.0),
            );
            comm.all_reduce(64 * MB).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed/timeline must replay byte-identically");
        assert!(a.recovery.is_some());
    }
}
