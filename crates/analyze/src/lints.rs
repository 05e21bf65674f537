//! The lint passes RA001–RA007.
//!
//! Order-sensitive passes (RA001, RA002, RA006) share one happens-before
//! oracle ([`HbOracle`]) built over the combined order; cost-side passes
//! (RA007) work on the data DAG and the schedule alone so the incremental
//! paths can re-run them without rebuilding the combined order.

use crate::diag::{CostCertificate, Diagnostic, LintCode, Severity, Site};
use crate::graph::CombinedOrder;
use crate::oracle::HbOracle;
use crate::{AnalysisConfig, AnalysisInput};
use rescc_ir::{ConflictLoads, Csr, DepDag, DepIndex, TaskId};
use rescc_lang::provenance::{required, step_groups, Move, Provenance, Slots};
use rescc_lang::{CommType, Derivation, OpType};
use rescc_topology::{ChunkId, LinkParams};
use std::sync::Arc;

/// RA001 — deadlock: a cycle in the combined order (DAG edges ∪ per-TB
/// serialization ∪ fusion cut-through gates). Every invocation needs both
/// its TBs at the rendezvous *and* its DAG predecessors complete; a cycle
/// therefore wedges the engine with the event heap drained.
///
/// `stuck` is the cycle-stuck set the oracle build reported (the `Err`
/// value of [`HbOracle::build`]); the pass walks inside it to print one
/// concrete cycle and records it as the diagnostic's counterexample path.
pub fn ra001_deadlock(
    input: &AnalysisInput,
    order: &CombinedOrder,
    stuck: &[u32],
    out: &mut Vec<Diagnostic>,
) {
    if stuck.is_empty() {
        return;
    }
    // Walk inside the stuck set to print one concrete cycle.
    let cycle = find_cycle(order, stuck);
    let path = cycle
        .iter()
        .map(|t| format!("t{t}"))
        .collect::<Vec<_>>()
        .join(" -> ");
    let first = cycle.first().copied().unwrap_or(stuck[0]);
    // The site is the last TB in program order that runs the task's send
    // side, else the last that runs its receive side.
    let mut sides: [Option<(u32, u32)>; 2] = [None, None];
    let table = &*input.program.table;
    for rank in 0..table.n_ranks() {
        for (tb_idx, tb) in table.rank_tbs(rank).iter().enumerate() {
            for slot in table.tb_slots(tb).iter().filter(|s| s.task().0 == first) {
                sides[usize::from(!slot.is_send())] = Some((rank as u32, tb_idx as u32));
            }
        }
    }
    let (rank, tb) = sides[0]
        .or(sides[1])
        .map(|(r, tb)| (Some(r), Some(tb)))
        .unwrap_or((None, None));
    out.push(Diagnostic {
        code: LintCode::RA001,
        severity: Severity::Error,
        message: format!(
            "deadlock: {} task(s) wait on each other across DAG dependencies and \
             TB slot order; cycle {path} -> t{first}",
            stuck.len()
        ),
        site: Site {
            task: Some(first),
            rank,
            tb,
            step: Some(input.dag.transfer(rescc_ir::TaskId::new(first)).step.0),
            ..Site::default()
        },
        path: cycle,
    });
}

/// Find one cycle within `stuck` (every member has a successor in the
/// set, so a walk must revisit a node).
fn find_cycle(order: &CombinedOrder, stuck: &[u32]) -> Vec<u32> {
    let in_stuck: Vec<bool> = {
        let mut v = vec![false; order.len()];
        for &t in stuck {
            v[t as usize] = true;
        }
        v
    };
    // Position of each visited node on the walk.
    let mut pos: Vec<u32> = vec![u32::MAX; order.len()];
    let mut path: Vec<u32> = Vec::new();
    let mut cur = stuck[0];
    loop {
        if pos[cur as usize] != u32::MAX {
            return path[pos[cur as usize] as usize..].to_vec();
        }
        pos[cur as usize] = path.len() as u32;
        path.push(cur);
        let next = order
            .succs(cur)
            .iter()
            .copied()
            .find(|&s| in_stuck[s as usize]);
        match next {
            Some(n) => cur = n,
            // Unreachable for a true cycle set; bail deterministically.
            None => return path,
        }
    }
}

/// RA002 — buffer race: two deliveries into one `(rank, chunk)` slot with
/// no happens-before path between them in the combined order, where at
/// least one is a plain copy (`recv`). Two unordered reductions commute;
/// an unordered copy does not — the slot's final value depends on arrival
/// order. The front-end verifier applies the same rule, but only within
/// one *step*; TB allocation and fusion can leave *cross-step* writes
/// unordered too, and those are invisible at spec level.
///
/// Reachability queries go through the shared [`HbOracle`]. Reachability
/// is transitive, so the group of same-slot writers is ordered by topo
/// position and *consecutive* pairs are queried once; any wider pair is
/// ordered iff no unordered gap lies between them (`gaps` prefix count).
/// Racing pairs additionally record their divergence point (the latest
/// common ancestor) as the counterexample path `[divergence, a, b]`.
pub fn ra002_buffer_race(
    input: &AnalysisInput,
    order: &CombinedOrder,
    oracle: &mut HbOracle,
    out: &mut Vec<Diagnostic>,
) {
    let dag = input.dag;
    // Writers per (dst rank, chunk) slot, slots in (rank, chunk) order and
    // each slot's writers in task order: tasks by dst rank, then each
    // rank's tasks by chunk.
    let by_dst = Csr::from_pairs(
        input.spec.n_ranks() as usize,
        dag.tasks().iter().map(|t| (t.dst.0, t.id.0)),
    );
    let n_chunks = dag.n_chunks();
    let mut writers = Csr::new();
    let mut sorted: Vec<u32> = Vec::new();
    let mut gaps: Vec<u32> = Vec::new();
    // Index in `sorted` of each writer of the current slot.
    let mut sorted_at: Vec<u32> = vec![0; dag.len()];
    for rank in 0..by_dst.n_rows() as u32 {
        writers.refill(
            n_chunks as usize,
            by_dst
                .row(rank as usize)
                .iter()
                .map(|&t| (dag.transfer(TaskId::new(t)).chunk.0, t)),
        );
        for chunk in 0..n_chunks {
            let group = writers.row(chunk as usize);
            if group.len() < 2 {
                continue;
            }
            sorted.clear();
            sorted.extend_from_slice(group);
            sorted.sort_unstable_by_key(|&t| oracle.pos(t));
            for (i, &t) in sorted.iter().enumerate() {
                sorted_at[t as usize] = i as u32;
            }
            gaps.clear();
            gaps.resize(sorted.len(), 0);
            for i in 1..sorted.len() {
                let linked = oracle.reaches(order, sorted[i - 1], sorted[i]);
                gaps[i] = gaps[i - 1] + u32::from(!linked);
            }
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    let ca = dag.transfer(TaskId::new(a)).comm;
                    let cb = dag.transfer(TaskId::new(b)).comm;
                    if ca != CommType::Recv && cb != CommType::Recv {
                        continue; // rrc + rrc commutes
                    }
                    let (first, second) = if oracle.pos(a) < oracle.pos(b) {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    let ia = sorted_at[first as usize] as usize;
                    let ib = sorted_at[second as usize] as usize;
                    let ordered = gaps[ia] == gaps[ib] || oracle.reaches(order, first, second);
                    if !ordered {
                        let tb = dag.transfer(TaskId::new(b));
                        let mut path = Vec::new();
                        if let Some(d) = oracle.divergence(order, a, b) {
                            path.push(d);
                        }
                        path.push(a);
                        path.push(b);
                        out.push(Diagnostic {
                            code: LintCode::RA002,
                            severity: Severity::Error,
                            message: format!(
                                "buffer race: tasks t{a} and t{b} both write rank r{rank} \
                                 chunk c{chunk} with no ordering between them (at least \
                                 one is a plain copy — the final value depends on arrival \
                                 order)"
                            ),
                            site: Site {
                                task: Some(b),
                                rank: Some(rank),
                                chunk: Some(chunk),
                                step: Some(tb.step.0),
                                ..Site::default()
                            },
                            path,
                        });
                    }
                }
            }
        }
    }
}

/// RA003 — over-subscription: (a) a conflict resource carries more
/// concurrent tasks inside one sub-pipeline than its saturation limit
/// (the Eq. 1 contention constraint the scheduler must respect), and
/// (b) a rank launches more TBs than the configured per-rank budget
/// (the Eq. 7 resource frame). Both are warnings on a correct plan: under
/// (a) the sim serializes the excess into bubbles (a by-step baseline's
/// slowdown; `Schedule::validate` refuses HPDS and RR plans with it), under
/// (b) the kernel competes with compute kernels for SMs.
pub fn ra003_oversubscription(
    input: &AnalysisInput,
    config: &AnalysisConfig,
    out: &mut Vec<Diagnostic>,
) {
    let dag = input.dag;
    let mut loads = ConflictLoads::new(dag);
    for (sp_idx, sp) in input.schedule.sub_pipelines.iter().enumerate() {
        loads.count(dag, sp);
        // Each oversubscribed resource, ascending, with the latest task to
        // push it over.
        for (d, load, task) in loads.over_limit(dag) {
            let res = dag.resource_at(d).0;
            let limit = dag.conflict_limit_at(d);
            out.push(Diagnostic {
                code: LintCode::RA003,
                severity: Severity::Warn,
                message: format!(
                    "over-subscription: sub-pipeline {sp_idx} drives resource \
                     res{res} with {load} concurrent tasks, above its saturation \
                     limit {limit} — the excess serializes into pipeline bubbles"
                ),
                site: Site {
                    task: Some(task.0),
                    resource: Some(res),
                    sub_pipeline: Some(sp_idx as u32),
                    ..Site::default()
                },
                path: Vec::new(),
            });
        }
    }

    for rank in 0..input.alloc.table.n_ranks() {
        let n_tbs = input.alloc.table.rank_tbs(rank).len() as u32;
        if n_tbs > config.tb_budget_per_rank {
            out.push(Diagnostic {
                code: LintCode::RA003,
                severity: Severity::Warn,
                message: format!(
                    "TB budget: rank r{rank} launches {n_tbs} TBs, above the \
                     per-rank budget of {} (Eq. 7) — communication TBs crowd out \
                     compute kernels",
                    config.tb_budget_per_rank
                ),
                site: Site {
                    rank: Some(rank as u32),
                    ..Site::default()
                },
                path: Vec::new(),
            });
        }
    }
}

/// RA004 — dead transfer: replay each chunk's transfers with provenance
/// tracking (which tasks flowed into each slot's current value, with the
/// verifier's step semantics: reads observe the pre-step state, writes
/// commit per step). A task whose contribution reaches no slot the
/// operator's postcondition reads — e.g. it was overwritten before anyone
/// forwarded it — moves bytes for nothing.
///
/// The dead set depends on the spec alone, so it is memoized in the spec
/// ([`Derivation::DeadTasks`]) whenever the DAG under analysis carries
/// the spec's own [`DepIndex`]; another DAG is replayed afresh.
pub fn ra004_dead_transfer(input: &AnalysisInput, out: &mut Vec<Diagnostic>) {
    let (spec, dag) = (input.spec, input.dag);
    let replay = || dead_tasks(spec.op(), spec.n_ranks(), dag);
    let dead = if Arc::ptr_eq(dag.index(), &DepIndex::of(spec)) {
        spec.derived(Derivation::DeadTasks, |_| replay())
    } else {
        Arc::new(replay())
    };
    for &t in dead.iter() {
        let task = dag.task(t);
        out.push(Diagnostic {
            code: LintCode::RA004,
            severity: Severity::Warn,
            message: format!(
                "dead transfer: task t{} ({} -> {} chunk c{}) never \
                 contributes to the operator's postcondition — its delivery \
                 is overwritten before any required slot reads it",
                t.0, task.src, task.dst, task.chunk.0
            ),
            site: Site {
                task: Some(t.0),
                rank: Some(task.dst.0),
                step: Some(task.step.0),
                chunk: Some(task.chunk.0),
                ..Site::default()
            },
            path: Vec::new(),
        });
    }
}

/// The dead-transfer replay behind RA004. Per chunk of `dag`, replay task
/// provenance over the ranks' slots step group by step group. Returns, in
/// chunk order, every task whose bit reaches no slot the postcondition of
/// `op` reads.
fn dead_tasks(op: OpType, n_ranks: u32, dag: &DepDag) -> Vec<TaskId> {
    let n_ranks = n_ranks as usize;
    let mut prov = Slots::<Provenance>::new(n_ranks);
    let mut dead = Vec::new();
    for chunk in 0..dag.n_chunks() {
        let tasks = dag.chunk_tasks(ChunkId::new(chunk));
        if tasks.is_empty() {
            continue;
        }
        // Provenance bits index tasks *within* the chunk: every task writes
        // exactly one chunk's slots, so bitsets sized to the chunk (not the
        // whole DAG) carry the same information at a fraction of the
        // footprint. Slot `r` is rank `r`'s copy of the chunk.
        let words = tasks.len().div_ceil(64);
        prov.clear(n_ranks);
        let mv = |li: usize| {
            let t = dag.transfer(tasks[li]);
            Move {
                src: t.src.index(),
                dst: t.dst.index(),
                comm: t.comm,
                writer: li,
            }
        };
        let mut start = 0;
        for group in step_groups(tasks, |t| dag.transfer(*t).step) {
            let range = start..start + group.len();
            start = range.end;
            prov.apply_group(range.map(mv));
        }

        // Union the provenance of every slot the postcondition reads.
        let mut useful = vec![0u64; words];
        for r in (0..n_ranks).filter(|&r| required(op, r as u32, chunk)) {
            for (u, s) in useful.iter_mut().zip(prov.slot(r)) {
                *u |= s;
            }
        }
        dead.extend(
            (tasks.iter().enumerate())
                .filter(|&(li, _)| useful[li / 64] & (1 << (li % 64)) == 0)
                .map(|(_, &t)| t),
        );
    }
    dead
}

/// RA005 — degraded-plan soundness: no task may traverse a resource the
/// topology's health overlay masks dead. The router relays around dead
/// NVLink channels and fails over dead NIC directions, but falls back to
/// the dead resource when no healthy alternative exists — a plan carrying
/// such a task fails at runtime on its first transfer.
pub fn ra005_degraded_soundness(input: &AnalysisInput, out: &mut Vec<Diagnostic>) {
    let health = input.topo.health();
    if health.is_empty() {
        return;
    }
    for t in input.dag.tasks() {
        // `path` is a superset of `conflict`; check both defensively.
        let hit = t
            .path
            .iter()
            .chain(t.conflict.iter())
            .find(|&r| health.is_dead(r));
        if let Some(res) = hit {
            out.push(Diagnostic {
                code: LintCode::RA005,
                severity: Severity::Error,
                message: format!(
                    "degraded-plan soundness: task t{} ({} -> {}) is routed over \
                     resource res{} which the health overlay masks dead — the \
                     first transfer on it fails",
                    t.id.0, t.src, t.dst, res.0
                ),
                site: Site {
                    task: Some(t.id.0),
                    rank: Some(t.src.0),
                    step: Some(t.step.0),
                    resource: Some(res.0),
                    ..Site::default()
                },
                path: Vec::new(),
            });
        }
    }
}

/// RA006 — cross-micro-batch buffer-lifetime overlap.
///
/// A `(rank, chunk)` slot's value lives from the write that produced it
/// until its last reader. The slot-major engine reuses the same device
/// slot for every micro-batch, so when a *later* write into the slot is
/// not ordered after every reader of the *previous* write, micro-batch
/// pipelining can land the overwrite while a reader is still forwarding
/// the old value. RA002 cannot see this class: the two writes themselves
/// may be perfectly ordered (WAW edge) — it is the write→read→write
/// triangle that is broken.
///
/// For each slot the writers are ordered by topo position; for each
/// consecutive writer pair `(w1, w2)` every reader `r` of the slot with
/// `w1 ⊑ r` must satisfy `r ⊑ w2` or `w2 ⊑ r`. Violations are errors
/// with counterexample path `[w1, r, w2]`.
///
/// Same-chunk positive queries are resolved against a per-chunk
/// transitive closure over the chunk-local DAG edges (chunk data flow is
/// intra-chunk, so this is the hot path); everything else falls back to
/// the shared oracle.
pub fn ra006_lifetime_overlap(
    input: &AnalysisInput,
    order: &CombinedOrder,
    oracle: &mut HbOracle,
    out: &mut Vec<Diagnostic>,
) {
    let n_tasks = input.dag.len();
    let n_ranks = input.spec.n_ranks() as usize;
    let mut local: Vec<u32> = vec![u32::MAX; n_tasks];
    let mut closure: Vec<u64> = Vec::new();
    // Writers (by dst) and readers (by src) per rank, within one chunk.
    let mut writers = Csr::new();
    let mut readers = Csr::new();
    // `(src, dst, task)` of each task of the chunk.
    let mut ends: Vec<(u32, u32, u32)> = Vec::new();
    let mut sorted: Vec<u32> = Vec::new();
    for chunk in 0..input.dag.n_chunks() {
        let chunk_tasks = input.dag.chunk_tasks(ChunkId::new(chunk));
        if chunk_tasks.len() < 2 {
            continue;
        }
        for (li, &t) in chunk_tasks.iter().enumerate() {
            local[t.index()] = li as u32;
        }
        let n = chunk_tasks.len();
        let words = n.div_ceil(64);
        // Chunk-local transitive closure over DAG edges, positive-only:
        // rows are filled in reverse list order so a row unions its
        // successors' completed rows. Edges that point backward in list
        // order (impossible for chunk-internal data edges, which follow
        // ascending steps) are skipped, keeping every set bit a true
        // "reaches" fact.
        closure.clear();
        closure.resize(n * words, 0);
        for (li, &t) in chunk_tasks.iter().enumerate().rev() {
            for &s in input.dag.succs(t) {
                let ls = local[s.index()];
                if ls == u32::MAX {
                    continue; // cross-chunk successor
                }
                let ls = ls as usize;
                if ls <= li {
                    continue;
                }
                let (head, tail) = closure.split_at_mut(ls * words);
                let row = &mut head[li * words..(li + 1) * words];
                for (a, b) in row.iter_mut().zip(&tail[..words]) {
                    *a |= b;
                }
                row[ls / 64] |= 1u64 << (ls % 64);
            }
        }
        let chunk_reaches = |closure: &[u64], a: u32, b: u32| -> bool {
            let la = local[a as usize] as usize;
            let lb = local[b as usize] as usize;
            closure[la * words + lb / 64] >> (lb % 64) & 1 == 1
        };

        ends.clear();
        ends.extend(chunk_tasks.iter().map(|&t| {
            let task = input.dag.transfer(t);
            (task.src.0, task.dst.0, t.0)
        }));
        writers.refill(n_ranks, ends.iter().map(|&(_, dst, t)| (dst, t)));
        readers.refill(n_ranks, ends.iter().map(|&(src, _, t)| (src, t)));
        for rank in 0..n_ranks as u32 {
            let (ws, rs) = (writers.row(rank as usize), readers.row(rank as usize));
            if ws.len() < 2 || rs.is_empty() {
                continue;
            }
            sorted.clear();
            sorted.extend_from_slice(ws);
            sorted.sort_unstable_by_key(|&t| oracle.pos(t));
            for win in sorted.windows(2) {
                let (w1, w2) = (win[0], win[1]);
                for &r in rs {
                    if r == w1 || r == w2 {
                        continue;
                    }
                    // Reader of w1's lifetime?
                    if !(chunk_reaches(&closure, w1, r) || oracle.reaches(order, w1, r)) {
                        continue;
                    }
                    // Safe iff the reuse is ordered with the reader
                    // (either direction: after the read, or the reader
                    // observes the new value deterministically).
                    if chunk_reaches(&closure, r, w2)
                        || chunk_reaches(&closure, w2, r)
                        || oracle.reaches(order, r, w2)
                        || oracle.reaches(order, w2, r)
                    {
                        continue;
                    }
                    let task = input.dag.transfer(rescc_ir::TaskId::new(w2));
                    out.push(Diagnostic {
                        code: LintCode::RA006,
                        severity: Severity::Error,
                        message: format!(
                            "buffer lifetime overlap: task t{w2} reuses rank r{rank} \
                             chunk c{chunk} while t{r}, a reader of the previous \
                             write t{w1}, is unordered with the reuse — micro-batch \
                             pipelining can overwrite the slot mid-read"
                        ),
                        site: Site {
                            task: Some(w2),
                            rank: Some(rank),
                            chunk: Some(chunk),
                            step: Some(task.step.0),
                            ..Site::default()
                        },
                        path: vec![w1, r, w2],
                    });
                }
            }
        }

        for &t in chunk_tasks {
            local[t.index()] = u32::MAX;
        }
    }
}

/// RA007 — static bandwidth/latency feasibility under the α–β–γ model,
/// plus the makespan lower-bound certificate.
///
/// The certificate is `max(critical-path α-chain, per-link bytes·β)`:
///
/// * **α-chain** — longest-path DP over the data DAG where each task
///   costs its startup α (the maximum α over its conflict resources, the
///   same rule the engine applies) and fused cut-through forwards cost
///   zero (they start when their feeder starts and pay no α). Every
///   completion-gated edge forces `start(succ) ≥ start(pred) + α(pred)`,
///   so no run finishes before the heaviest chain.
/// * **per-link drain** — every task moves its chunk's bytes through
///   every resource on its route, and a link moves at most `1/β` bytes
///   per ns regardless of concurrency, so
///   `n_tasks(link) · chunk_bytes · β` lower-bounds the makespan. The
///   certificate records the bottleneck link (the argmax).
///
/// The feasibility *error* fires when a sub-pipeline window demands bytes
/// through a resource whose deliverable bandwidth is **zero** under the
/// configured α–β–γ parameters: the windowed demand then exceeds the
/// link's capacity over every window duration, so the window can never
/// drain and the makespan floor is infinite. *Finite* over-demand is
/// deliberately not an error in this model — the engine fair-shares a
/// capacity port's line rate and prices conflict-link oversubscription
/// with the γ·L(z) penalty, and seed algorithms lean on exactly that
/// (the hierarchical one-shot intra phase drives every peer TB through
/// the GPU port at once). Conflict-resource saturation is RA003's
/// domain and the boolean dead-resource mask is RA005's; RA007 catches
/// the parameter-level collapse (a brownout overlay or misconfigured
/// fabric that zeroes a link's rate) that neither sees.
pub fn ra007_cost_feasibility(input: &AnalysisInput, out: &mut Vec<Diagnostic>) -> CostCertificate {
    let n = input.dag.len();

    // Fused marks + feeder edges from the lowered program (the engine
    // derives its cut-through gates from the same slots).
    let mut fused = vec![false; n];
    let mut feeder: Vec<u32> = vec![u32::MAX; n];
    for (a, b) in input.program.fused_pairs() {
        fused[b.index()] = true;
        feeder[b.index()] = a.0;
    }

    // Per-task startup α: the engine charges the max α over the task's
    // conflict resources, and zero for fused forwards.
    let resource_alpha: Vec<f64> = (0..input.dag.n_dense_resources() as u32)
        .map(|d| {
            input
                .topo
                .resource_params(input.dag.resource_at(d))
                .expect("task routed over a resource of this topology")
                .alpha_ns
        })
        .collect();
    let alpha: Vec<f64> = input
        .dag
        .tasks()
        .iter()
        .map(|t| {
            if fused[t.id.index()] {
                return 0.0;
            }
            let mut a = 0.0f64;
            for &d in input.dag.conflict_dense(t.id).as_slice() {
                a = a.max(resource_alpha[d as usize]);
            }
            a
        })
        .collect();

    // Longest α-chain over the data DAG. Every data edge joins two tasks
    // of one chunk at increasing steps, so the chunks' (step, id) lists,
    // one after another, are a topological order.
    let mut alpha_chain_ns = 0.0f64;
    let mut es = vec![0.0f64; n];
    for chunk in 0..input.dag.n_chunks() {
        for &tid in input.dag.chunk_tasks(ChunkId::new(chunk)) {
            let t = tid.0;
            let a_t = alpha[t as usize];
            for &p in input.dag.preds(tid) {
                let w = if feeder[t as usize] == p.0 {
                    0.0 // fused follower starts when its feeder starts
                } else {
                    alpha[p.index()]
                };
                es[t as usize] = es[t as usize].max(es[p.index()] + w);
            }
            alpha_chain_ns = alpha_chain_ns.max(es[t as usize] + a_t);
        }
    }

    // Route-resource occupancy (raw ids; `path` includes capacity
    // resources the dense conflict index never sees).
    let n_res = input.topo.n_resources() as usize;
    let mut route_tasks: Vec<u32> = vec![0; n_res];
    for t in input.dag.tasks() {
        for r in t.path.iter() {
            route_tasks[r.index()] += 1;
        }
    }
    // Zero-rate resources (infinite β) are excluded: the certificate
    // stays finite and reports the tightest *deliverable* link floor,
    // while the infeasibility itself is RA007's error below.
    let mut bottleneck = (0u32, 0u32, 0.0f64); // (resource, tasks, beta)
    let mut best_floor = -1.0f64;
    // Routed resources that deliver nothing to their first TB.
    let mut zero_rate: Vec<bool> = vec![false; n_res];
    for (r, &count) in route_tasks.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let p: LinkParams = input
            .topo
            .resource_params(rescc_topology::ResourceId::new(r as u32))
            .expect("task routed over a resource of this topology");
        zero_rate[r] = p.tb_bw_bytes_per_ns <= 0.0 || p.bandwidth() <= 0.0;
        let floor = count as f64 * p.beta_ns_per_byte;
        if floor.is_finite() && floor > best_floor {
            best_floor = floor;
            bottleneck = (r as u32, count, p.beta_ns_per_byte);
        }
    }

    // Windowed demand vs deliverable capacity, per sub-pipeline window.
    // A resource delivers min(tb_bw, 1/β) to its first TB; when that is
    // zero the window's demand exceeds the link's capacity for every
    // window length — the bytes can never drain.
    // Per resource: (tasks, first offender), reset where touched.
    let mut window: Vec<(u32, u32)> = vec![(0, 0); n_res];
    let mut touched: Vec<u32> = Vec::new();
    let windows = if zero_rate.contains(&true) {
        &input.schedule.sub_pipelines[..]
    } else {
        &[]
    };
    for (sp_idx, sp) in windows.iter().enumerate() {
        for &r in &touched {
            window[r as usize] = (0, 0);
        }
        touched.clear();
        for &tid in sp {
            let task = input.dag.task(tid);
            for r in task.path.iter() {
                if zero_rate[r.index()] {
                    let w = &mut window[r.index()];
                    if w.0 == 0 {
                        *w = (0, tid.0);
                        touched.push(r.0);
                    }
                    w.0 += 1;
                }
            }
        }
        touched.sort_unstable();
        for &r in &touched {
            let (n_tasks, task) = window[r as usize];
            out.push(Diagnostic {
                code: LintCode::RA007,
                severity: Severity::Error,
                message: format!(
                    "cost infeasibility: sub-pipeline {sp_idx} demands \
                     {n_tasks} transfer(s) through resource res{r} whose \
                     deliverable bandwidth is zero under the \u{3b1}\u{2013}\
                     \u{3b2}\u{2013}\u{3b3} parameters — windowed demand \
                     exceeds link capacity at every window length, the bytes \
                     never drain (Eq. 1)"
                ),
                site: Site {
                    task: Some(task),
                    resource: Some(r),
                    sub_pipeline: Some(sp_idx as u32),
                    ..Site::default()
                },
                path: Vec::new(),
            });
        }
    }

    CostCertificate {
        alpha_chain_ns,
        bottleneck_resource: bottleneck.0,
        bottleneck_tasks: bottleneck.1,
        bottleneck_beta_ns_per_byte: bottleneck.2,
    }
}
