//! The combined task order: DAG data edges ∪ per-TB slot serialization ∪
//! fused-slot cut-through gates.
//!
//! Each artifact's own validator only sees its own ordering relation —
//! `Schedule::validate` re-checks DAG edges, `TbAllocation::validate`
//! checks slot placement. The *combination* is what the engine actually
//! executes: a TB runs its gating slots in order (slot-major: every
//! micro-batch of a slot before the next slot), a fused slot issues
//! asynchronously behind its feeder, and every invocation additionally
//! waits for its DAG predecessors via rendezvous with the peer TB. A cycle
//! in this combined relation wedges the run even though every individual
//! artifact is valid.
//!
//! The relation is stored in CSR form — one flat `targets` array indexed
//! by `offsets` — because the happens-before oracle
//! ([`HbOracle`](crate::HbOracle)) traverses it many times per `analyze`
//! call and per-node `Vec`s cost a pointer chase per hop.

use rescc_ir::{DepDag, TaskId};
use rescc_kernel::KernelProgram;

/// The combined order as a CSR adjacency over task indices.
pub struct CombinedOrder {
    /// CSR row offsets: node `u`'s successors live at
    /// `targets[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<u32>,
    /// CSR edge targets, deduplicated, in insertion order (DAG edges
    /// first, then TB gating edges in program order).
    targets: Vec<u32>,
}

impl CombinedOrder {
    /// Build the combined order for one compiled plan.
    ///
    /// The CSR is filled in two passes over the edges (count, then place),
    /// then each row drops repeated targets, keeping first occurrences.
    pub fn build(dag: &DepDag, program: &KernelProgram) -> Self {
        let n = dag.len();
        let mut offsets = vec![0u32; n + 1];
        let ids = (0..n as u32).map(TaskId::new);
        for id in ids.clone() {
            offsets[id.index() + 1] = dag.succs(id).len() as u32;
        }
        tb_edges(program, |from, _| offsets[from.index() + 1] += 1);
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Data dependencies first, then TB gating edges in program order.
        let mut targets = vec![0u32; offsets[n] as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for id in ids {
            let at = cursor[id.index()] as usize;
            for (slot, s) in targets[at..].iter_mut().zip(dag.succs(id)) {
                *slot = s.0;
            }
            cursor[id.index()] += dag.succs(id).len() as u32;
        }
        tb_edges(program, |from, to| {
            let at = &mut cursor[from.index()];
            targets[*at as usize] = to.0;
            *at += 1;
        });

        // Drop repeated targets row by row, compacting in place.
        // `seen[v]` is the last row (plus one) that kept target `v`.
        let mut seen = vec![0u32; n];
        let mut write = 0usize;
        let mut start = 0usize;
        for u in 0..n {
            let end = offsets[u + 1] as usize;
            for read in start..end {
                let v = targets[read];
                if seen[v as usize] != u as u32 + 1 {
                    seen[v as usize] = u as u32 + 1;
                    targets[write] = v;
                    write += 1;
                }
            }
            start = end;
            offsets[u + 1] = write as u32;
        }
        targets.truncate(write);

        Self { offsets, targets }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of combined-order edges.
    pub fn n_edges(&self) -> usize {
        self.targets.len()
    }

    /// Successors of `u` under the combined relation.
    pub fn succs(&self, u: u32) -> &[u32] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Kahn's algorithm over the combined relation. `Ok` is a valid
    /// execution order; `Err` is the set of task indices stuck on a cycle
    /// (ascending).
    pub fn topo_or_cycle(&self) -> Result<Vec<u32>, Vec<u32>> {
        let n = self.len();
        let mut indeg = vec![0u32; n];
        for &s in &self.targets {
            indeg[s as usize] += 1;
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|&t| indeg[t as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = queue.pop() {
            order.push(t);
            for &s in self.succs(t) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let mut seen = vec![false; n];
            for &t in &order {
                seen[t as usize] = true;
            }
            Err((0..n as u32).filter(|&t| !seen[t as usize]).collect())
        }
    }
}

/// Per-TB serialization edges `(from, to)`, in program order. Both sides
/// of a task map onto the same combined-order node (rendezvous: an
/// invocation needs both TBs). A fused slot issues asynchronously behind
/// the slot directly before it — it is gated by that feeder (cut-through)
/// but never gates the slots after it.
fn tb_edges(program: &KernelProgram, mut edge: impl FnMut(TaskId, TaskId)) {
    let table = &*program.table;
    for tb in table.tbs() {
        let mut last_gating: Option<TaskId> = None;
        let mut prev: Option<TaskId> = None;
        for i in tb.slots() {
            let task = table.slots()[i].task();
            if program.is_fused(i) {
                if let Some(p) = prev {
                    if p != task {
                        edge(p, task);
                    }
                }
            } else {
                if let Some(g) = last_gating {
                    if g != task {
                        edge(g, task);
                    }
                }
                last_gating = Some(task);
            }
            prev = Some(task);
        }
    }
}
