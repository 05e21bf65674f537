//! CI gate for the static-analysis layer at 64 emulated GPUs: the 7-lint
//! sweep stays within 2x of the 5-lint subset, and three seed plans lint
//! clean with no simulated run below its certified makespan floor.

fn main() {
    rescc_bench::experiments::analyze::smoke();
}
