//! CI gate for the compile pipeline at 128 emulated GPUs: the flat
//! scheduler is byte-identical to the reference and faster.

fn main() {
    rescc_bench::experiments::figure10::smoke();
}
