//! CI gate for partial-progress recovery on a 2x4 A100 cluster: an NVLink
//! kill at 60% of a 256 MB AllReduce resumes from the fault frontier at
//! under half the restart cost with validated data and a consistent
//! journal, and restoring the channel heals back to the healthy plan.

fn main() {
    rescc_bench::experiments::recovery::smoke();
}
