//! Micro-batch planning.
//!
//! §2.1: the chunk moved by one primitive invocation is a small fraction of
//! the data being synchronized, so the backend splits the buffer into
//! micro-batches and executes the algorithm's transfer pattern once per
//! micro-batch. The *execution granularity* — how invocations of different
//! micro-batches interleave — is what distinguishes algorithm-level,
//! stage-level and ResCCL's task-level execution.

/// The micro-batch decomposition of one collective call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MicroBatchPlan {
    /// Bytes of the whole per-rank buffer being synchronized.
    pub buffer_bytes: u64,
    /// Number of chunks the buffer is partitioned into (== nRanks).
    pub n_chunks: u32,
    /// Bytes one primitive invocation moves (the transfer-chunk size,
    /// 1 MB in the paper's CCL config).
    pub chunk_bytes: u64,
    /// Number of micro-batches `n`.
    pub n_micro_batches: u32,
}

impl MicroBatchPlan {
    /// Plan micro-batches for a `buffer_bytes`-sized per-rank buffer over
    /// `n_chunks` chunks with `chunk_bytes` per invocation.
    ///
    /// Each logical chunk holds `buffer_bytes / n_chunks` bytes and is
    /// moved in `ceil(chunk_len / chunk_bytes)` invocations — that count is
    /// the number of micro-batches. Small buffers yield a single
    /// micro-batch (with a proportionally smaller chunk), reproducing the
    /// paper's observation that small messages offer fewer scheduling
    /// opportunities.
    pub fn plan(buffer_bytes: u64, n_chunks: u32, chunk_bytes: u64) -> Self {
        assert!(buffer_bytes > 0, "empty buffer");
        assert!(n_chunks > 0, "need at least one chunk");
        assert!(chunk_bytes > 0, "chunk size must be positive");
        let chunk_len = (buffer_bytes / n_chunks as u64).max(1);
        let n_micro_batches = chunk_len.div_ceil(chunk_bytes).max(1);
        Self {
            buffer_bytes,
            n_chunks,
            chunk_bytes: chunk_len.min(chunk_bytes),
            n_micro_batches: n_micro_batches.min(u32::MAX as u64) as u32,
        }
    }

    /// Bytes moved by one invocation in micro-batch `mb` (the final
    /// micro-batch may be short).
    pub fn invocation_bytes(&self, mb: u32) -> u64 {
        debug_assert!(mb < self.n_micro_batches);
        let chunk_len = (self.buffer_bytes / self.n_chunks as u64).max(1);
        if mb + 1 < self.n_micro_batches {
            self.chunk_bytes
        } else {
            let consumed = self.chunk_bytes * (self.n_micro_batches as u64 - 1);
            (chunk_len - consumed).max(1)
        }
    }

    /// Total bytes a single chunk contributes across all micro-batches.
    pub fn chunk_total_bytes(&self) -> u64 {
        (self.buffer_bytes / self.n_chunks as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_buffer_many_micro_batches() {
        // 1 GiB over 16 chunks with 1 MiB invocations: 64 MiB per chunk
        // => 64 micro-batches.
        let p = MicroBatchPlan::plan(1 << 30, 16, 1 << 20);
        assert_eq!(p.n_micro_batches, 64);
        assert_eq!(p.invocation_bytes(0), 1 << 20);
        assert_eq!(p.invocation_bytes(63), 1 << 20);
    }

    #[test]
    fn small_buffer_single_micro_batch() {
        // 8 MiB over 16 chunks: 512 KiB per chunk < 1 MiB invocation
        // => one micro-batch of 512 KiB.
        let p = MicroBatchPlan::plan(8 << 20, 16, 1 << 20);
        assert_eq!(p.n_micro_batches, 1);
        assert_eq!(p.invocation_bytes(0), 512 << 10);
    }

    #[test]
    fn ragged_tail() {
        // chunk_len = 2.5 MiB => 3 micro-batches: 1 MiB, 1 MiB, 0.5 MiB.
        let p = MicroBatchPlan::plan(40 << 20, 16, 1 << 20);
        assert_eq!(p.n_micro_batches, 3);
        assert_eq!(p.invocation_bytes(0), 1 << 20);
        assert_eq!(p.invocation_bytes(2), 512 << 10);
    }

    #[test]
    fn totals_are_consistent() {
        let p = MicroBatchPlan::plan(100 << 20, 8, 1 << 20);
        let sum: u64 = (0..p.n_micro_batches).map(|m| p.invocation_bytes(m)).sum();
        assert_eq!(sum, p.chunk_total_bytes());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn invocations_always_partition_the_chunk(
                buffer in 1u64..(8 << 30),
                n_chunks in 1u32..64,
                chunk_shift in 10u32..24,
            ) {
                let chunk_bytes = 1u64 << chunk_shift;
                let p = MicroBatchPlan::plan(buffer, n_chunks, chunk_bytes);
                prop_assert!(p.n_micro_batches >= 1);
                let sum: u64 =
                    (0..p.n_micro_batches).map(|m| p.invocation_bytes(m)).sum();
                prop_assert_eq!(sum, p.chunk_total_bytes());
                for m in 0..p.n_micro_batches {
                    let b = p.invocation_bytes(m);
                    prop_assert!(b >= 1);
                    prop_assert!(b <= chunk_bytes.max(1));
                }
            }
        }
    }
}
