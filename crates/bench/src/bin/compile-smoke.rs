//! CI gate for the compile pipeline at 128 emulated GPUs: the flat
//! scheduler is byte-identical to the reference and faster, and a delta
//! recompile after one masked NVLink channel splices, beats a full
//! recompile, and returns the cached plan for an unchanged mask.

fn main() {
    rescc_bench::experiments::figure10::smoke();
}
