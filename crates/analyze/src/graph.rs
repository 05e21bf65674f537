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
//! The relation is stored as a [`Csr`] adjacency because the
//! happens-before oracle ([`HbOracle`](crate::HbOracle)) traverses it many
//! times per `analyze` call and per-node `Vec`s cost a pointer chase per
//! hop.

use rescc_ir::{Csr, DepDag, TaskId};
use rescc_kernel::KernelProgram;

/// The combined order as a CSR adjacency over task indices.
pub struct CombinedOrder {
    /// Each task's successors, deduplicated, in insertion order (DAG edges
    /// first, then TB gating edges in program order).
    succs: Csr<u32>,
}

impl CombinedOrder {
    /// Build the combined order for one compiled plan: data edges first,
    /// then TB gating edges in program order, then each row drops repeated
    /// targets, keeping first occurrences.
    pub fn build(dag: &DepDag, program: &KernelProgram) -> Self {
        let n = dag.len();
        let mut gating = Vec::new();
        tb_edges(program, |from, to| gating.push((from.0, to.0)));
        let data =
            (0..n as u32).flat_map(|u| dag.succs(TaskId::new(u)).iter().map(move |s| (u, s.0)));
        let mut succs = Csr::from_pairs(n, data.chain(gating.iter().copied()));
        // `seen[v]` is the last row (plus one) that kept target `v`.
        let mut seen = vec![0u32; n];
        succs.retain(|u, v| {
            let first = seen[v as usize] != u as u32 + 1;
            seen[v as usize] = u as u32 + 1;
            first
        });
        Self { succs }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.succs.n_rows()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successors of `u` under the combined relation.
    pub fn succs(&self, u: u32) -> &[u32] {
        self.succs.row(u as usize)
    }

    /// Kahn's algorithm over the combined relation: the one cycle check of
    /// a compile, since the combined order contains every data edge. `Ok`
    /// is a valid execution order; `Err` is the set of task indices stuck
    /// on a cycle (ascending).
    pub fn topo_or_cycle(&self) -> Result<Vec<u32>, Vec<u32>> {
        let n = self.len();
        let mut indeg = vec![0u32; n];
        for &s in self.succs.items() {
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
