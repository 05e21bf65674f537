//! Shared happens-before reachability oracle over the combined order.
//!
//! Every order-sensitive lint used to re-derive reachability with its own
//! ad-hoc DFS. The oracle is built **once** per [`analyze`](crate::analyze)
//! call and answers `a ⊑ b` (does `a` happen before `b`?) queries for all
//! of them, with three O(1) certificate layers in front of an exact
//! fallback:
//!
//! 1. **Topological positions** (Kahn order): `pos[a] ≥ pos[b]` refutes
//!    `a ⊑ b` immediately. The same pass is RA001's cycle check.
//! 2. **Chain labels**: a greedy path decomposition biased toward
//!    same-chunk successors. Two nodes on one chain are ordered by their
//!    chain positions; ring-style per-chunk pipelines collapse onto single
//!    chains, so the dominant query class in real plans is O(1)-positive.
//! 3. **GRAIL-style interval labels**: one DFS postorder `post[u]` plus
//!    `low[u] = min(post over u's reachable set)`. `a ⊑ b` implies
//!    `low[a] ≤ low[b] ∧ post[b] ≤ post[a]`, so a violated inequality is
//!    an O(1) negative certificate.
//!
//! The build runs only layer 1. Layers 2 and 3 are built on the first
//! query that the positions cannot refute: many plans' lints ask no
//! such query, and then the oracle costs one topological pass.
//!
//! Queries that pass all three filters fall back to a stamp-versioned DFS
//! that prunes with the same position/interval tests per hop. The
//! fallback count is exposed via [`HbOracle::stats`] so the bench harness
//! can prove the certificates actually absorb the load.

use crate::graph::CombinedOrder;
use rescc_ir::Csr;

const UNSET: u32 = u32::MAX;

/// Query counters for the bench harness (how much work the certificate
/// layers absorbed).
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleStats {
    /// Total `reaches` queries answered.
    pub queries: u64,
    /// Queries that needed the exact DFS fallback.
    pub dfs_fallbacks: u64,
    /// Number of chains in the decomposition; 0 until a query builds
    /// the labels.
    pub n_chains: u32,
}

/// Happens-before oracle over one [`CombinedOrder`].
///
/// Built by [`HbOracle::build`]; `Err` carries the ascending set of task
/// indices stuck on a cycle (the combined relation is not a partial
/// order, which is lint RA001's domain). The build keeps only the
/// topological positions; the chain and interval labels are built on
/// the first query the positions cannot refute, so a plan whose lints
/// ask nothing beyond the positions never pays for them.
pub struct HbOracle {
    pos: Vec<u32>,
    // Each task's chunk, held for the chain decomposition until the
    // labels are built.
    chunk_of: Vec<u32>,
    labels: Option<Labels>,
    // Lazily-built reverse adjacency, only materialized when a diagnostic
    // needs divergence evidence.
    preds: Option<Csr<u32>>,
    stats: OracleStats,
}

/// The certificate layers behind the position test, and the DFS
/// fallback's scratch.
struct Labels {
    chain: Vec<u32>,
    n_chains: u32,
    post: Vec<u32>,
    low: Vec<u32>,
    // Stamp-versioned scratch for the DFS fallback (avoids clearing an
    // O(n) bitmap per query).
    visited: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
}

impl HbOracle {
    /// Build the oracle. `chunk_of[t]` is task `t`'s chunk index, used to
    /// bias the chain decomposition so per-chunk pipelines stay on one
    /// chain.
    pub fn build(order: &CombinedOrder, chunk_of: &[u32]) -> Result<Self, Vec<u32>> {
        let topo = order.topo_or_cycle()?;
        let n = order.len();
        debug_assert_eq!(chunk_of.len(), n);

        let mut pos = vec![0u32; n];
        for (i, &t) in topo.iter().enumerate() {
            pos[t as usize] = i as u32;
        }
        Ok(Self {
            pos,
            chunk_of: chunk_of.to_vec(),
            labels: None,
            preds: None,
            stats: OracleStats::default(),
        })
    }

    /// Topological position of task `t` (smaller runs earlier).
    pub fn pos(&self, t: u32) -> u32 {
        self.pos[t as usize]
    }

    /// Query counters accumulated so far.
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// Exact happens-before: is there a combined-order path `from → to`?
    /// Reflexive (`reaches(t, t)` is true).
    pub fn reaches(&mut self, order: &CombinedOrder, from: u32, to: u32) -> bool {
        self.stats.queries += 1;
        if from == to {
            return true;
        }
        if self.pos[from as usize] >= self.pos[to as usize] {
            return false;
        }
        if self.labels.is_none() {
            let labels = Labels::build(order, &self.pos, &self.chunk_of);
            self.stats.n_chains = labels.n_chains;
            self.chunk_of = Vec::new();
            self.labels = Some(labels);
        }
        let labels = self.labels.as_mut().expect("built above");
        if labels.chain[from as usize] == labels.chain[to as usize] {
            // Same chain and earlier topological position ⇒ earlier chain
            // position ⇒ a real edge path along the chain.
            return true;
        }
        if !labels.interval_may_reach(from, to) {
            return false;
        }
        self.stats.dfs_fallbacks += 1;
        labels.dfs_reaches(order, &self.pos, from, to)
    }

    /// The latest common ancestor (maximum topological position) of two
    /// unordered tasks — the point where their histories diverge. `None`
    /// when they share no ancestor at all (fully independent histories).
    ///
    /// Only called when emitting a diagnostic, so it allocates freely and
    /// lazily materializes the reverse adjacency on first use.
    pub fn divergence(&mut self, order: &CombinedOrder, a: u32, b: u32) -> Option<u32> {
        let preds = self.preds.get_or_insert_with(|| {
            let n = order.len() as u32;
            let reversed = (0..n).flat_map(|u| order.succs(u).iter().map(move |&v| (v, u)));
            Csr::from_pairs(n as usize, reversed)
        });
        let n = self.pos.len();
        let mut anc_a = vec![false; n];
        let mut stack = vec![a];
        while let Some(u) = stack.pop() {
            if anc_a[u as usize] {
                continue;
            }
            anc_a[u as usize] = true;
            stack.extend_from_slice(preds.row(u as usize));
        }
        let mut best: Option<u32> = None;
        let mut seen_b = vec![false; n];
        stack.push(b);
        while let Some(u) = stack.pop() {
            if seen_b[u as usize] {
                continue;
            }
            seen_b[u as usize] = true;
            if anc_a[u as usize] && u != a && u != b {
                let better = match best {
                    Some(cur) => self.pos[u as usize] > self.pos[cur as usize],
                    None => true,
                };
                if better {
                    best = Some(u);
                }
            }
            stack.extend_from_slice(preds.row(u as usize));
        }
        best
    }
}

impl Labels {
    /// The chain and interval labels of the DAG `order`, whose
    /// topological positions are `pos`.
    fn build(order: &CombinedOrder, pos: &[u32], chunk_of: &[u32]) -> Self {
        let n = order.len();
        // Each buffer is one of the labels, so building them needs no
        // more memory than keeping them: `chain` first marks the tasks
        // that have a predecessor, and `visited` first holds the
        // topological order.
        let mut chain = vec![0u32; n];
        for u in 0..n as u32 {
            for &v in order.succs(u) {
                chain[v as usize] = 1;
            }
        }

        // Postorder via iterative DFS from every in-degree-0 root, roots
        // and successors visited in deterministic (index/insertion) order.
        // A DAG's DFS finishes every successor of a task before the task,
        // so the task's interval lower bound is final when it finishes.
        let mut post = vec![UNSET; n];
        let mut low = vec![UNSET; n];
        let mut counter = 0u32;
        let mut frame: Vec<(u32, u32)> = Vec::new();
        for root in (0..n as u32).filter(|&t| chain[t as usize] == 0) {
            if post[root as usize] != UNSET {
                continue;
            }
            frame.push((root, 0));
            while let Some((u, ci)) = frame.pop() {
                let succs = order.succs(u);
                if (ci as usize) < succs.len() {
                    frame.push((u, ci + 1));
                    let v = succs[ci as usize];
                    // An unfinished `v` is undiscovered: the frame stack
                    // is exactly the current DFS path, and an edge into
                    // the path would be a back edge — impossible in the
                    // DAG this topological order certifies.
                    if post[v as usize] == UNSET {
                        frame.push((v, 0));
                    }
                } else if post[u as usize] == UNSET {
                    post[u as usize] = counter;
                    low[u as usize] = (succs.iter()).fold(counter, |m, &v| m.min(low[v as usize]));
                    counter += 1;
                }
            }
        }

        // Greedy chain decomposition in topological order, same-chunk
        // successors first. A chain member's topological position orders
        // it within the chain (chain edges are real edges), so no
        // per-chain position index is needed.
        let mut topo = vec![0u32; n];
        for (t, &p) in pos.iter().enumerate() {
            topo[p as usize] = t as u32;
        }
        chain.fill(UNSET);
        let mut n_chains = 0u32;
        for &start in &topo {
            if chain[start as usize] != UNSET {
                continue;
            }
            let c = n_chains;
            n_chains += 1;
            let mut cur = start;
            loop {
                chain[cur as usize] = c;
                let succs = order.succs(cur);
                let next = succs
                    .iter()
                    .copied()
                    .find(|&v| {
                        chain[v as usize] == UNSET && chunk_of[v as usize] == chunk_of[cur as usize]
                    })
                    .or_else(|| succs.iter().copied().find(|&v| chain[v as usize] == UNSET));
                match next {
                    Some(v) => cur = v,
                    None => break,
                }
            }
        }
        let mut visited = topo;
        visited.fill(0);

        Self {
            chain,
            n_chains,
            post,
            low,
            visited,
            stamp: 0,
            stack: Vec::new(),
        }
    }

    #[inline]
    fn interval_may_reach(&self, a: u32, b: u32) -> bool {
        self.low[a as usize] <= self.low[b as usize]
            && self.post[b as usize] <= self.post[a as usize]
    }

    /// The exact fallback: a DFS from `from` that prunes with the
    /// position, chain and interval tests at every hop.
    fn dfs_reaches(&mut self, order: &CombinedOrder, pos: &[u32], from: u32, to: u32) -> bool {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.visited.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        self.stack.clear();
        self.stack.push(from);
        self.visited[from as usize] = stamp;
        while let Some(u) = self.stack.pop() {
            for &v in order.succs(u) {
                if v == to {
                    return true;
                }
                if self.visited[v as usize] == stamp {
                    continue;
                }
                self.visited[v as usize] = stamp;
                if pos[v as usize] >= pos[to as usize] {
                    continue;
                }
                if self.chain[v as usize] == self.chain[to as usize] {
                    // v is on `to`'s chain at an earlier position.
                    return true;
                }
                if !self.interval_may_reach(v, to) {
                    continue;
                }
                self.stack.push(v);
            }
        }
        false
    }
}
