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
    /// Number of chains in the decomposition.
    pub n_chains: u32,
}

/// Happens-before oracle over one [`CombinedOrder`].
///
/// Built by [`HbOracle::build`]; `Err` carries the ascending set of task
/// indices stuck on a cycle (the combined relation is not a partial
/// order, which is lint RA001's domain).
pub struct HbOracle {
    pos: Vec<u32>,
    chain: Vec<u32>,
    post: Vec<u32>,
    low: Vec<u32>,
    // Stamp-versioned scratch for the DFS fallback (avoids clearing an
    // O(n) bitmap per query).
    visited: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
    // Lazily-built reverse adjacency, only materialized when a diagnostic
    // needs divergence evidence.
    preds: Option<Csr<u32>>,
    stats: OracleStats,
}

impl HbOracle {
    /// Build the oracle. `chunk_of[t]` is task `t`'s chunk index, used to
    /// bias the chain decomposition so per-chunk pipelines stay on one
    /// chain.
    pub fn build(order: &CombinedOrder, chunk_of: &[u32]) -> Result<Self, Vec<u32>> {
        let (topo, roots) = order.topo_or_cycle()?;
        let n = order.len();
        debug_assert_eq!(chunk_of.len(), n);

        let mut pos = vec![0u32; n];
        for (i, &t) in topo.iter().enumerate() {
            pos[t as usize] = i as u32;
        }

        // Postorder via iterative DFS from every in-degree-0 root, roots
        // and successors visited in deterministic (index/insertion) order.
        let mut post = vec![UNSET; n];
        let mut counter = 0u32;
        let mut frame: Vec<(u32, u32)> = Vec::new();
        for root in roots {
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
                    counter += 1;
                }
            }
        }

        // Interval lower bounds in reverse topological order (every
        // successor is finalized before its predecessors).
        let mut low: Vec<u32> = post.clone();
        for &u in topo.iter().rev() {
            let mut m = post[u as usize];
            for &v in order.succs(u) {
                m = m.min(low[v as usize]);
            }
            low[u as usize] = m;
        }

        // Greedy chain decomposition, same-chunk successors first. A
        // chain member's topological position orders it within the chain
        // (chain edges are real edges), so no per-chain position index is
        // needed.
        let mut chain = vec![UNSET; n];
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

        Ok(Self {
            pos,
            chain,
            post,
            low,
            visited: vec![0u32; n],
            stamp: 0,
            stack: Vec::new(),
            preds: None,
            stats: OracleStats {
                queries: 0,
                dfs_fallbacks: 0,
                n_chains,
            },
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

    #[inline]
    fn interval_may_reach(&self, a: u32, b: u32) -> bool {
        self.low[a as usize] <= self.low[b as usize]
            && self.post[b as usize] <= self.post[a as usize]
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
        if self.chain[from as usize] == self.chain[to as usize] {
            // Same chain and earlier topological position ⇒ earlier chain
            // position ⇒ a real edge path along the chain.
            return true;
        }
        if !self.interval_may_reach(from, to) {
            return false;
        }
        self.dfs_reaches(order, from, to)
    }

    fn dfs_reaches(&mut self, order: &CombinedOrder, from: u32, to: u32) -> bool {
        self.stats.dfs_fallbacks += 1;
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
                if self.pos[v as usize] >= self.pos[to as usize] {
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
