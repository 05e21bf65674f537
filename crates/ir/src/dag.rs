//! The dependency DAG `G_A = (V_T, E)` of §3.
//!
//! Vertices are transmission tasks; edges are **data dependencies**: task
//! `t2` depends on `t1` when `t2` consumes (or overwrites) the buffer slot
//! `t1` writes. With the DataBuffer abstraction of §4.2 a buffer slot is a
//! `(rank, chunk)` pair, so for each chunk:
//!
//! * **RAW** — a task sending chunk `c` *from* rank `r` depends on the most
//!   recent earlier-step delivery of `c` *into* `r`;
//! * **WAW** — a task delivering `c` into rank `r` depends on the most
//!   recent earlier-step delivery of `c` into `r` (reduce order must follow
//!   algorithm steps).
//!
//! **Communication dependencies** (link conflicts) are *not* edges — they
//! are a symmetric interference relation: two tasks interfere when their
//! conflict sets ([`Task::conflict`]) share a contention resource. The
//! scheduler consumes both relations.
//!
//! Storage is arena-flat and stores each per-task fact once: the spec's
//! transfer records (shared, not copied), one route index per task into a
//! table with one entry per distinct `(src, dst)` pair, and adjacency
//! (preds, succs, per-chunk task lists) in CSR arrays. Every conflict
//! resource is assigned a **dense index** so the scheduler's hot loops can
//! track per-resource load in plain vectors instead of hash maps.
//!
//! The records and the adjacency depend on the algorithm alone: they form
//! the [`DepIndex`], derived once per spec and shared by every DAG built
//! from it, whatever the topology. Routes and the resource index are per
//! topology.
//!
//! Every edge joins two tasks of one chunk at increasing steps, so the DAG
//! is acyclic by construction and its chunks' step-ordered task lists, one
//! after another, are a topological order ([`DepDag::topo_order`]).

use crate::dense::Csr;
use crate::error::{IrError, Result};
use crate::task::{Task, TaskId};
use rescc_lang::provenance::step_groups;
use rescc_lang::{AlgoSpec, Derivation, TransferRec};
use rescc_topology::{ChunkId, Rank, ResourceId, ResourceSet, Topology, MAX_PATH_RESOURCES};
use std::sync::Arc;

/// The conflict resources of one route as **dense indices** (positions in
/// the DAG's sorted resource table), stored inline so the scheduler's
/// per-resource load bookkeeping stays allocation-free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DenseResSet {
    items: [u32; MAX_PATH_RESOURCES],
    len: u8,
}

impl DenseResSet {
    fn push(&mut self, idx: u32) {
        debug_assert!((self.len as usize) < MAX_PATH_RESOURCES);
        self.items[self.len as usize] = idx;
        self.len += 1;
    }

    /// The dense indices as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.items[..self.len as usize]
    }
}

/// One entry of the route table: everything about a task that depends
/// only on its `(src, dst)` pair under the topology's health.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Route {
    src: Rank,
    dst: Rank,
    /// Conflict resources (the communication-dependency domain of §3).
    conflict: ResourceSet,
    /// Every capacity resource the path traverses.
    path: ResourceSet,
    /// `conflict` as dense indices.
    dense: DenseResSet,
}

/// The spec-only half of a [`DepDag`]: the task table, the tasks of each
/// chunk in step order and the data-dependency adjacency.
///
/// [`DepIndex::of`] derives it once per spec and memoizes it in the spec
/// ([`AlgoSpec::derived`]), so every DAG of one spec shares one index,
/// whatever topology or health mask it was built for.
#[derive(Debug, PartialEq)]
pub struct DepIndex {
    /// The spec's transfer records, task `i` being record `i`.
    transfers: Arc<[TransferRec]>,
    /// Data-dependency predecessors of each task (CSR).
    preds: Csr<TaskId>,
    /// Data-dependency successors of each task (CSR).
    succs: Csr<TaskId>,
    /// Tasks of each chunk, sorted by step (the per-chunk DAG `G[C]` of
    /// Algorithm 1), CSR over chunks.
    by_chunk: Csr<TaskId>,
    n_chunks: u32,
}

impl DepIndex {
    /// The index of `spec`, derived on the first call on any clone of the
    /// spec and shared from then on.
    pub fn of(spec: &AlgoSpec) -> Arc<Self> {
        spec.derived(Derivation::DepIndex, Self::derive)
    }

    fn derive(spec: &AlgoSpec) -> Self {
        let transfers = spec.shared_transfers();
        let n_chunks = spec.n_chunks();
        // Tasks of each chunk in (step, id) order: a counting sort by step
        // (ids ascending within a step), then a stable one by chunk.
        let n_steps = transfers
            .iter()
            .map(|t| t.step.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let by_step = Csr::from_pairs(
            n_steps,
            transfers
                .iter()
                .enumerate()
                .map(|(i, t)| (t.step.0, TaskId::new(i as u32))),
        );
        let by_chunk = Csr::from_pairs(
            n_chunks as usize,
            by_step
                .items()
                .iter()
                .map(|&id| (transfers[id.index()].chunk.0, id)),
        );

        // Data dependencies, per chunk in ascending chunk order. Every edge
        // into a task is found while that task is visited, so `preds` rows
        // and `succs` rows are the edges' arrival order.
        let n = transfers.len();
        let edges = data_edges(&transfers, &by_chunk, spec.n_ranks() as usize);
        let preds = Csr::from_pairs(n, edges.iter().map(|&(from, to)| (to.0, from)));
        let succs = Csr::from_pairs(n, edges.iter().map(|&(from, to)| (from.0, to)));
        Self {
            transfers,
            preds,
            succs,
            by_chunk,
            n_chunks,
        }
    }
}

/// The dependency DAG for one algorithm on one topology.
///
/// Each per-task fact is stored once. Task `i` is transfer `i` of the
/// spec, whose records and adjacency the DAG shares with every other DAG
/// of the spec through its [`DepIndex`], and its route is an index into a
/// table with one entry per distinct `(src, dst)` pair. [`DepDag::task`]
/// assembles a [`Task`] from the two.
#[derive(Clone, Debug, PartialEq)]
pub struct DepDag {
    /// The spec-only records and adjacency.
    index: Arc<DepIndex>,
    /// Each task's entry in `routes`.
    route_of: Vec<u32>,
    /// One route per distinct `(src, dst)` pair, in order of first use.
    routes: Vec<Route>,
    /// Every conflict resource any task occupies, ascending. A resource's
    /// position here is its **dense index**.
    resource_ids: Vec<ResourceId>,
    /// Concurrency limit of each conflict resource (indexed densely): how
    /// many tasks can drive it before a communication dependency (Eq. 1
    /// contention) arises — the resource's `saturation_tbs`.
    conflict_limit: Vec<u32>,
}

impl DepDag {
    /// Build the DAG from a validated algorithm spec and a topology.
    ///
    /// The spec's [`DepIndex`] is derived on the first build of the spec
    /// and reused by every later one; only the routes and the resource
    /// index are done per build.
    ///
    /// Fails if the spec's rank count does not match the topology, or if a
    /// route crosses a resource the topology does not describe.
    pub fn build(spec: &AlgoSpec, topo: &Topology) -> Result<Self> {
        if spec.n_ranks() != topo.n_ranks() {
            return Err(IrError::new(format!(
                "algorithm `{}` is for {} ranks but topology `{}` has {}",
                spec.name(),
                spec.n_ranks(),
                topo.name(),
                topo.n_ranks()
            )));
        }
        let index = DepIndex::of(spec);
        let (route_of, mut routes) = intern_routes(&index.transfers, topo);
        let (resource_ids, conflict_limit) = index_resources(&mut routes, topo)?;
        Ok(Self {
            index,
            route_of,
            routes,
            resource_ids,
            conflict_limit,
        })
    }

    /// [`DepDag::build`]; `threads` is ignored. Kept only because the
    /// dispatch benchmark's cold-start replay calls this signature.
    #[doc(hidden)]
    pub fn build_with_threads(spec: &AlgoSpec, topo: &Topology, _threads: usize) -> Result<Self> {
        Self::build(spec, topo)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.index.transfers.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.index.transfers.is_empty()
    }

    /// The spec-only records and adjacency this DAG shares with every
    /// other DAG of its spec.
    pub fn index(&self) -> &Arc<DepIndex> {
        &self.index
    }

    /// All tasks, in id order.
    pub fn tasks(&self) -> Tasks<'_> {
        Tasks { dag: self }
    }

    /// Look up a task, assembled from its transfer record and its route.
    #[inline]
    pub fn task(&self, id: TaskId) -> Task {
        let rec = self.transfer(id);
        let route = self.route(id);
        Task {
            id,
            src: rec.src,
            dst: rec.dst,
            step: rec.step,
            chunk: rec.chunk,
            comm: rec.comm,
            conflict: route.conflict,
            path: route.path,
        }
    }

    /// The transfer record of a task: its endpoints, step, chunk and
    /// receive semantics, without the route.
    #[inline]
    pub fn transfer(&self, id: TaskId) -> &TransferRec {
        &self.index.transfers[id.index()]
    }

    #[inline]
    fn route(&self, id: TaskId) -> &Route {
        &self.routes[self.route_of[id.index()] as usize]
    }

    /// How many distinct routes the tasks take: one per distinct
    /// `(src, dst)` pair.
    pub fn n_routes(&self) -> usize {
        self.routes.len()
    }

    /// The index of `id`'s route, `0..n_routes()`: tasks between one
    /// `(src, dst)` pair share it.
    #[inline]
    pub fn route_id(&self, id: TaskId) -> u32 {
        self.route_of[id.index()]
    }

    /// Route `route`'s source rank, conflict resources and path, as
    /// [`DepDag::task`] reports them for each of its tasks.
    pub fn route_at(&self, route: u32) -> (Rank, ResourceSet, ResourceSet) {
        let r = &self.routes[route as usize];
        (r.src, r.conflict, r.path)
    }

    /// Data-dependency predecessors of `id`.
    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        self.index.preds.row(id.index())
    }

    /// Data-dependency successors of `id`.
    pub fn succs(&self, id: TaskId) -> &[TaskId] {
        self.index.succs.row(id.index())
    }

    /// Number of chunks (== ranks).
    pub fn n_chunks(&self) -> u32 {
        self.index.n_chunks
    }

    /// The per-chunk DAG `G[C]`: tasks of `chunk` sorted by step.
    pub fn chunk_tasks(&self, chunk: ChunkId) -> &[TaskId] {
        self.index.by_chunk.row(chunk.index())
    }

    /// How many distinct conflict resources the DAG's tasks occupy. Dense
    /// indices run `0..n_dense_resources()`.
    pub fn n_dense_resources(&self) -> usize {
        self.resource_ids.len()
    }

    /// The dense index of `res`, if any task occupies it.
    fn dense_resource(&self, res: ResourceId) -> Option<u32> {
        self.resource_ids.binary_search(&res).ok().map(|i| i as u32)
    }

    /// The resource at a dense index.
    pub fn resource_at(&self, dense: u32) -> ResourceId {
        self.resource_ids[dense as usize]
    }

    /// The conflict resources of `id` as dense indices.
    #[inline]
    pub fn conflict_dense(&self, id: TaskId) -> &DenseResSet {
        &self.route(id).dense
    }

    /// How many concurrent tasks conflict resource `res` admits before
    /// contention arises (its `saturation_tbs`).
    pub fn conflict_limit(&self, res: ResourceId) -> u32 {
        match self.dense_resource(res) {
            Some(d) => self.conflict_limit[d as usize],
            None => 1,
        }
    }

    /// [`Self::conflict_limit`] by dense index (no lookup).
    pub fn conflict_limit_at(&self, dense: u32) -> u32 {
        self.conflict_limit[dense as usize]
    }

    /// A topological order of the data-dependency DAG: each chunk's tasks
    /// in step order, chunk after chunk. Every edge joins two tasks of one
    /// chunk at increasing steps, so no sort is needed.
    pub fn topo_order(&self) -> Vec<TaskId> {
        self.index.by_chunk.items().to_vec()
    }

    /// Verify that `order` is a valid execution order (every task appears
    /// exactly once, after all of its predecessors). Used to validate
    /// scheduler output in tests and debug builds.
    pub fn validate_order(&self, order: &[TaskId]) -> Result<()> {
        let n = self.len();
        if order.len() != n {
            return Err(IrError::new(format!(
                "order covers {}/{} tasks",
                order.len(),
                n
            )));
        }
        let mut pos = vec![usize::MAX; n];
        for (i, id) in order.iter().enumerate() {
            if id.index() >= n {
                return Err(IrError::new(format!("unknown task {id}")));
            }
            if pos[id.index()] != usize::MAX {
                return Err(IrError::new(format!("task {id} appears twice")));
            }
            pos[id.index()] = i;
        }
        for i in 0..n {
            for dep in self.index.preds.row(i) {
                if pos[dep.index()] > pos[i] {
                    return Err(IrError::new(format!(
                        "task t{i} scheduled before its dependency {dep}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The tasks of a [`DepDag`] in id order: a view that assembles each
/// [`Task`] from the transfer records and the route table.
#[derive(Clone, Copy)]
pub struct Tasks<'a> {
    dag: &'a DepDag,
}

impl<'a> Tasks<'a> {
    /// Every task, by value, in id order.
    pub fn iter(&self) -> TaskIter<'a> {
        TaskIter {
            dag: self.dag,
            ids: 0..self.dag.len() as u32,
        }
    }
}

impl<'a> IntoIterator for Tasks<'a> {
    type Item = Task;
    type IntoIter = TaskIter<'a>;

    fn into_iter(self) -> TaskIter<'a> {
        self.iter()
    }
}

/// Iterator over a DAG's tasks by value ([`Tasks::iter`]).
#[derive(Clone)]
pub struct TaskIter<'a> {
    dag: &'a DepDag,
    ids: std::ops::Range<u32>,
}

impl Iterator for TaskIter<'_> {
    type Item = Task;

    fn next(&mut self) -> Option<Task> {
        self.ids.next().map(|i| self.dag.task(TaskId::new(i)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for TaskIter<'_> {}

/// Intern the routes of `transfers`: each task's index into a table with
/// one entry per distinct `(src, dst)` pair, numbered in order of first
/// use, and that table. Each distinct pair's route is resolved against
/// `topo` once, at the pair's first transfer. Dense indices are filled in
/// by [`index_resources`].
fn intern_routes(transfers: &[TransferRec], topo: &Topology) -> (Vec<u32>, Vec<Route>) {
    const UNSEEN: u32 = u32::MAX;
    // The pair table spans the ranks the transfers name.
    let n = transfers
        .iter()
        .map(|t| t.src.index().max(t.dst.index()) + 1)
        .max()
        .unwrap_or(0);
    let mut route_of_pair = vec![UNSEEN; n * n];
    let mut routes = Vec::new();
    let route_of = transfers
        .iter()
        .map(|t| {
            let r = &mut route_of_pair[t.src.index() * n + t.dst.index()];
            if *r == UNSEEN {
                *r = routes.len() as u32;
                let conn = topo.connection(t.src, t.dst);
                routes.push(Route {
                    src: t.src,
                    dst: t.dst,
                    conflict: conn.conflict,
                    path: conn.path,
                    dense: DenseResSet::default(),
                });
            }
            *r
        })
        .collect();
    (route_of, routes)
}

/// Build the dense resource index over the routes' conflict sets: the
/// sorted resource table and the per-resource conflict limits. Fills in
/// each route's dense conflict set.
fn index_resources(routes: &mut [Route], topo: &Topology) -> Result<(Vec<ResourceId>, Vec<u32>)> {
    // Dense index of every raw resource id a route occupies, numbered in
    // ascending raw id; `UNUSED` for the rest.
    const UNUSED: u32 = u32::MAX;
    let mut dense_of: Vec<u32> = Vec::new();
    for route in routes.iter() {
        for r in route.conflict.iter() {
            if r.index() >= dense_of.len() {
                dense_of.resize(r.index() + 1, UNUSED);
            }
            dense_of[r.index()] = 0;
        }
    }
    let mut resource_ids = Vec::new();
    for (raw, d) in dense_of.iter_mut().enumerate() {
        if *d != UNUSED {
            *d = resource_ids.len() as u32;
            resource_ids.push(ResourceId::new(raw as u32));
        }
    }
    for route in routes.iter_mut() {
        route.dense = DenseResSet::default();
        for r in route.conflict.iter() {
            route.dense.push(dense_of[r.index()]);
        }
    }

    let conflict_limit = resource_ids
        .iter()
        .map(|&r| {
            let params = topo
                .resource_params(r)
                .map_err(|e| IrError::new(e.to_string()))?;
            Ok(params.saturation_tbs.max(1))
        })
        .collect::<Result<_>>()?;
    Ok((resource_ids, conflict_limit))
}

/// The RAW/WAW edges of every chunk, chunk by chunk in ascending order and,
/// within a chunk, in task order; each edge is `(from, to)`.
///
/// Per chunk, the latest writers of each rank's slot are tracked step by
/// step. Several same-step reductions may write one slot (commutative),
/// and later readers must wait for every one of them. Steps are processed
/// as groups: deliveries of the current step must not appear as
/// predecessors of same-step reads (the DSL's total order is strict
/// between steps only).
///
/// The writers live in tables indexed by rank and by task, shared by every
/// chunk: rank `r`'s latest writers are the list `head[r]`, `next[head[r]]`,
/// … in delivery order, valid while `stamp[r]` names a step group of the
/// current chunk.
fn data_edges(
    tasks: &[TransferRec],
    by_chunk: &Csr<TaskId>,
    n_ranks: usize,
) -> Vec<(TaskId, TaskId)> {
    const NONE: u32 = u32::MAX;
    let mut head = vec![NONE; n_ranks];
    let mut tail = vec![NONE; n_ranks];
    let mut stamp = vec![0u32; n_ranks];
    let mut next = vec![NONE; tasks.len()];
    let mut group_id = 0u32;
    let mut edges = Vec::new();
    for c in 0..by_chunk.n_rows() {
        let chunk_first_group = group_id + 1;
        for group in step_groups(by_chunk.row(c), |t| tasks[t.index()].step) {
            group_id += 1;
            // Reads (the send side) and overwrites both depend on every
            // latest earlier-step write.
            for &tid in group {
                let t = tasks[tid.index()];
                let row_start = edges.len();
                for rank in [t.src.index(), t.dst.index()] {
                    if stamp[rank] < chunk_first_group {
                        continue;
                    }
                    let mut w = head[rank];
                    while w != NONE {
                        let edge = (TaskId::new(w), tid);
                        if w != tid.0 && !edges[row_start..].contains(&edge) {
                            debug_assert!(
                                tasks[w as usize].step < t.step,
                                "edge against step order"
                            );
                            edges.push(edge);
                        }
                        w = next[w as usize];
                    }
                }
            }
            // Commit this step's writes, replacing any older step's.
            for &tid in group {
                let rank = tasks[tid.index()].dst.index();
                if stamp[rank] == group_id {
                    next[tail[rank] as usize] = tid.0;
                } else {
                    stamp[rank] = group_id;
                    head[rank] = tid.0;
                }
                tail[rank] = tid.0;
                next[tid.index()] = NONE;
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_lang::{AlgoBuilder, OpType};
    use rescc_topology::Rank;

    fn ring_ag(n: u32) -> AlgoSpec {
        let mut b = AlgoBuilder::new("Ring", OpType::AllGather, n);
        for r in 0..n {
            let peer = (r + 1) % n;
            for step in 0..n - 1 {
                b.recv(r, peer, step, (r + n - step) % n);
            }
        }
        b.build().unwrap()
    }

    /// The communication dependency of §3: do two tasks share a
    /// contention resource?
    fn interferes(dag: &DepDag, a: TaskId, b: TaskId) -> bool {
        let theirs = dag.task(b).conflict;
        dag.task(a).conflict.iter().any(|r| theirs.contains(r))
    }

    #[test]
    fn ring_dag_has_chain_per_chunk() {
        let topo = Topology::a100(1, 8);
        let dag = DepDag::build(&ring_ag(8), &topo).unwrap();
        assert_eq!(dag.len(), 8 * 7);
        // Each chunk has a linear chain: 7 tasks, task k depends on k-1.
        for c in 0..8u32 {
            let tasks = dag.chunk_tasks(ChunkId::new(c));
            assert_eq!(tasks.len(), 7);
            assert!(dag.preds(tasks[0]).is_empty());
            for w in tasks.windows(2) {
                assert_eq!(dag.preds(w[1]), &[w[0]]);
            }
        }
    }

    #[test]
    fn topo_order_valid() {
        for i in 1..=4 {
            let topo = Topology::table3_topo(i).unwrap();
            let nodes = topo.n_nodes();
            for spec in rescc_algos::seed_suite(nodes, topo.n_ranks() / nodes) {
                let dag = DepDag::build(&spec, &topo).unwrap();
                dag.validate_order(&dag.topo_order()).unwrap();
            }
        }
    }

    #[test]
    fn rank_count_mismatch_rejected() {
        let topo = Topology::a100(1, 4);
        let err = DepDag::build(&ring_ag(8), &topo).unwrap_err();
        assert!(err.to_string().contains("ranks"));
    }

    #[test]
    fn interference_follows_topology_resources() {
        let topo = Topology::a100(1, 8);
        let dag = DepDag::build(&ring_ag(8), &topo).unwrap();
        // Two sends out of the same rank interfere (shared GPU TX port).
        let same_src: Vec<TaskId> = dag
            .tasks()
            .iter()
            .filter(|t| t.src == Rank::new(0))
            .map(|t| t.id)
            .collect();
        assert!(same_src.len() >= 2);
        assert!(interferes(&dag, same_src[0], same_src[1]));
        // Ring neighbours with disjoint endpoints do not interfere.
        let t01 = dag
            .tasks()
            .iter()
            .find(|t| t.src == Rank::new(0) && t.dst == Rank::new(1))
            .unwrap();
        let t23 = dag
            .tasks()
            .iter()
            .find(|t| t.src == Rank::new(2) && t.dst == Rank::new(3))
            .unwrap();
        assert!(!interferes(&dag, t01.id, t23.id));
    }

    #[test]
    fn dense_resource_index_round_trips() {
        let topo = Topology::a100(2, 4);
        let dag = DepDag::build(&ring_ag(8), &topo).unwrap();
        assert!(dag.n_dense_resources() > 0);
        for i in 0..dag.n_dense_resources() as u32 {
            let r = dag.resource_at(i);
            assert_eq!(dag.dense_resource(r), Some(i));
            assert_eq!(dag.conflict_limit(r), dag.conflict_limit_at(i));
        }
        // Per-task dense sets mirror the ResourceSet conflicts.
        for t in dag.tasks() {
            let dense = dag.conflict_dense(t.id);
            assert_eq!(dense.as_slice().len(), t.conflict.len());
            for &d in dense.as_slice() {
                assert!(t.conflict.contains(dag.resource_at(d)));
            }
        }
    }

    #[test]
    fn validate_order_catches_violations() {
        let topo = Topology::a100(1, 4);
        let dag = DepDag::build(&ring_ag(4), &topo).unwrap();
        let mut order = dag.topo_order();
        // Find an edge and swap its endpoints' positions.
        let victim = (0..dag.len() as u32)
            .map(TaskId::new)
            .find(|id| !dag.preds(*id).is_empty())
            .unwrap();
        let dep = dag.preds(victim)[0];
        let pi = order.iter().position(|x| *x == victim).unwrap();
        let pj = order.iter().position(|x| *x == dep).unwrap();
        order.swap(pi, pj);
        assert!(dag.validate_order(&order).is_err());
    }

    #[test]
    fn validate_order_rejects_duplicates_and_short_orders() {
        let topo = Topology::a100(1, 4);
        let dag = DepDag::build(&ring_ag(4), &topo).unwrap();
        let order = dag.topo_order();
        assert!(dag.validate_order(&order[..order.len() - 1]).is_err());
        let mut dup = order.clone();
        dup[0] = dup[1];
        assert!(dag.validate_order(&dup).is_err());
    }

    #[test]
    fn waw_ordering_for_reductions() {
        // Two reduce deliveries into the same (rank, chunk) at different
        // steps must be ordered.
        let mut b = AlgoBuilder::new("red", OpType::ReduceScatter, 4);
        b.rrc(1, 0, 0, 0); // step 0: rank1 reduces into rank0 chunk0
        b.rrc(2, 0, 1, 0); // step 1: rank2 reduces into rank0 chunk0
        b.rrc(3, 0, 2, 0); // step 2
        let spec = b.build().unwrap();
        let topo = Topology::a100(1, 4);
        let dag = DepDag::build(&spec, &topo).unwrap();
        let chain = dag.chunk_tasks(ChunkId::new(0));
        assert_eq!(dag.preds(chain[1]), &[chain[0]]);
        assert_eq!(dag.preds(chain[2]), &[chain[1]]);
    }
}
