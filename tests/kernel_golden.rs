//! Golden oracle for kernel codegen.
//!
//! Every case compiles one seed-suite spec on one Table 3 topology under
//! one lowering and keeps the FNV-1a digest of
//! [`CompiledPlan::emit_kernels`](rescc::core::CompiledPlan::emit_kernels):
//! the whole pseudo-CUDA translation unit, every TB, slot, peer, chunk,
//! sub-pipeline and fused primitive of it. A compile that fails keeps the
//! digest of its typed error instead. The four lowerings are ResCCL's
//! state-based one, its fused variant, and the rigid NCCL and MSCCL
//! baselines, so a change to how the allocation or the kernel program is
//! stored must leave every digest alone. On a mismatch the failure message
//! prints the table the current code produces.

use rescc::algos::seed_suite;
use rescc::backends::Backend;
use rescc::core::{Compiler, LintGate};
use rescc::topology::Topology;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The lowerings, each warn-gated so a plan a lint would refuse (a fused
/// deadlock) still emits its kernels.
fn lowerings() -> [(&'static str, Compiler); 4] {
    let warn = |c: Compiler| c.with_lint_gate(LintGate::Warn);
    [
        ("state", warn(Compiler::new())),
        ("fused", warn(Compiler::new().with_fusion())),
        ("nccl", warn(Backend::nccl().compiler())),
        ("msccl", warn(Backend::msccl().compiler())),
    ]
}

/// The seed suite on Table 3 topology `i` under every lowering.
fn kernel_digests(i: usize) -> Vec<(String, u64)> {
    let topo = Topology::table3_topo(i).expect("table 3 preset");
    let shape = topo.spec();
    let mut out = Vec::new();
    for spec in seed_suite(shape.n_nodes, shape.gpus_per_node) {
        for (lowering, compiler) in lowerings() {
            let text = match compiler.compile_spec(&spec, &topo) {
                Ok(plan) => plan.emit_kernels(),
                Err(e) => format!("{e:?}"),
            };
            out.push((
                format!("{}/{}/{lowering}", topo.name(), spec.name()),
                fnv1a(text.as_bytes()),
            ));
        }
    }
    out
}

/// Compare computed digests with a golden table, in order.
fn check(got: &[(String, u64)], golden: &[(&str, u64)]) {
    let matches = got.len() == golden.len()
        && got
            .iter()
            .zip(golden)
            .all(|((n, d), (gn, gd))| n == gn && d == gd);
    if !matches {
        let table: String = got
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
            .collect();
        let diff: Vec<&str> = got
            .iter()
            .filter(|(n, d)| !golden.contains(&(n.as_str(), *d)))
            .map(|(n, _)| n.as_str())
            .collect();
        panic!(
            "emitted kernels diverged from the golden table on {diff:?}; \
             the current codegen produces:\n{table}"
        );
    }
}

#[test]
fn seed_suite_topo1() {
    check(&kernel_digests(1), GOLDEN_TOPO1);
}

#[test]
fn seed_suite_topo2() {
    check(&kernel_digests(2), GOLDEN_TOPO2);
}

#[test]
fn seed_suite_topo3() {
    check(&kernel_digests(3), GOLDEN_TOPO3);
}

#[test]
fn seed_suite_topo4() {
    check(&kernel_digests(4), GOLDEN_TOPO4);
}

const GOLDEN_TOPO1: &[(&str, u64)] = &[
    ("a100-2x4/hm-ag-2x4/state", 0xf58d51dbd21d3efe),
    ("a100-2x4/hm-ag-2x4/fused", 0xf7924098a4711710),
    ("a100-2x4/hm-ag-2x4/nccl", 0x310cb7ed4f78d8ce),
    ("a100-2x4/hm-ag-2x4/msccl", 0x310cb7ed4f78d8ce),
    ("a100-2x4/hm-rs-2x4/state", 0x502d8a5e66ad26b5),
    ("a100-2x4/hm-rs-2x4/fused", 0x502d8a5e66ad26b5),
    ("a100-2x4/hm-rs-2x4/nccl", 0x1bfa2b4c9faf763d),
    ("a100-2x4/hm-rs-2x4/msccl", 0x1bfa2b4c9faf763d),
    ("a100-2x4/hm-ar-2x4/state", 0x3ebc925ffa3cabf3),
    ("a100-2x4/hm-ar-2x4/fused", 0x419330ed99fe1585),
    ("a100-2x4/hm-ar-2x4/nccl", 0x3a401076f919f6dd),
    ("a100-2x4/hm-ar-2x4/msccl", 0x3a401076f919f6dd),
    ("a100-2x4/ring-ag-8/state", 0x939356ecdabc0803),
    ("a100-2x4/ring-ag-8/fused", 0xcbabac9a8ba40041),
    ("a100-2x4/ring-ag-8/nccl", 0x86cadbe5feed390f),
    ("a100-2x4/ring-ag-8/msccl", 0x86cadbe5feed390f),
    ("a100-2x4/ring-rs-8/state", 0x70eff8d244ff91d4),
    ("a100-2x4/ring-rs-8/fused", 0x1cea2afadeb04e74),
    ("a100-2x4/ring-rs-8/nccl", 0x3775a6edf449b458),
    ("a100-2x4/ring-rs-8/msccl", 0x3775a6edf449b458),
    ("a100-2x4/ring-ar-8/state", 0xf276635421819204),
    ("a100-2x4/ring-ar-8/fused", 0x7a4837f7cb44853a),
    ("a100-2x4/ring-ar-8/nccl", 0xdd73128503810ccc),
    ("a100-2x4/ring-ar-8/msccl", 0xdd73128503810ccc),
    ("a100-2x4/nccl-rings2-ar-2x4/state", 0x2080cc263878e008),
    ("a100-2x4/nccl-rings2-ar-2x4/fused", 0x195e484ac3905824),
    ("a100-2x4/nccl-rings2-ar-2x4/nccl", 0x1e79702af34dd834),
    ("a100-2x4/nccl-rings2-ar-2x4/msccl", 0x1e79702af34dd834),
    ("a100-2x4/recdbl-ag-8/state", 0x56861ac664c506d1),
    ("a100-2x4/recdbl-ag-8/fused", 0xebf30193fbe120eb),
    ("a100-2x4/recdbl-ag-8/nccl", 0x4e3472872eb90cf1),
    ("a100-2x4/recdbl-ag-8/msccl", 0x4e3472872eb90cf1),
    ("a100-2x4/rechlv-rs-8/state", 0x4c31659c26300d3e),
    ("a100-2x4/rechlv-rs-8/fused", 0xbe54c5e96e2c1082),
    ("a100-2x4/rechlv-rs-8/nccl", 0x37391e3b333e7052),
    ("a100-2x4/rechlv-rs-8/msccl", 0x37391e3b333e7052),
    ("a100-2x4/rechd-ar-8/state", 0xa0f940d2aeb7086e),
    ("a100-2x4/rechd-ar-8/fused", 0xa0f940d2aeb7086e),
    ("a100-2x4/rechd-ar-8/nccl", 0x5953086b80ab31d4),
    ("a100-2x4/rechd-ar-8/msccl", 0x5953086b80ab31d4),
    ("a100-2x4/dbtree-ar-8/state", 0xdaddd59ac121c6a2),
    ("a100-2x4/dbtree-ar-8/fused", 0x32e099e22531e13e),
    ("a100-2x4/dbtree-ar-8/nccl", 0xaa41506d5a0afef2),
    ("a100-2x4/dbtree-ar-8/msccl", 0xaa41506d5a0afef2),
];
const GOLDEN_TOPO2: &[(&str, u64)] = &[
    ("a100-2x8/hm-ag-2x8/state", 0x76f7ca019ea251b8),
    ("a100-2x8/hm-ag-2x8/fused", 0xd6b5fe88bf25038c),
    ("a100-2x8/hm-ag-2x8/nccl", 0x7de7626048963018),
    ("a100-2x8/hm-ag-2x8/msccl", 0x7de7626048963018),
    ("a100-2x8/hm-rs-2x8/state", 0x153ed85b9bf21ac7),
    ("a100-2x8/hm-rs-2x8/fused", 0x153ed85b9bf21ac7),
    ("a100-2x8/hm-rs-2x8/nccl", 0x27b907ab264877c7),
    ("a100-2x8/hm-rs-2x8/msccl", 0x27b907ab264877c7),
    ("a100-2x8/hm-ar-2x8/state", 0x6a7391e04698a2cd),
    ("a100-2x8/hm-ar-2x8/fused", 0x216209f5a0c03597),
    ("a100-2x8/hm-ar-2x8/nccl", 0x09fb6736b73a6013),
    ("a100-2x8/hm-ar-2x8/msccl", 0x09fb6736b73a6013),
    ("a100-2x8/ring-ag-16/state", 0xf04c56f60d9e3760),
    ("a100-2x8/ring-ag-16/fused", 0x25bec10b6742183a),
    ("a100-2x8/ring-ag-16/nccl", 0x1c52ceb96ad103ee),
    ("a100-2x8/ring-ag-16/msccl", 0x1c52ceb96ad103ee),
    ("a100-2x8/ring-rs-16/state", 0x98e43a9ba72705c3),
    ("a100-2x8/ring-rs-16/fused", 0x430c17bae968692b),
    ("a100-2x8/ring-rs-16/nccl", 0xf35a959937dfe90f),
    ("a100-2x8/ring-rs-16/msccl", 0xf35a959937dfe90f),
    ("a100-2x8/ring-ar-16/state", 0xb9d3e6534aa4fe55),
    ("a100-2x8/ring-ar-16/fused", 0xdc81b668b547e615),
    ("a100-2x8/ring-ar-16/nccl", 0x8a504e45bcf81f9b),
    ("a100-2x8/ring-ar-16/msccl", 0x8a504e45bcf81f9b),
    ("a100-2x8/nccl-rings2-ar-2x8/state", 0xb756dd3a7a1dc968),
    ("a100-2x8/nccl-rings2-ar-2x8/fused", 0x02c5f43883ce7654),
    ("a100-2x8/nccl-rings2-ar-2x8/nccl", 0xccc70a905c5904d6),
    ("a100-2x8/nccl-rings2-ar-2x8/msccl", 0xccc70a905c5904d6),
    ("a100-2x8/recdbl-ag-16/state", 0x96e76e20e492bc50),
    ("a100-2x8/recdbl-ag-16/fused", 0x4271ad94799bc90e),
    ("a100-2x8/recdbl-ag-16/nccl", 0xc535253874cbea30),
    ("a100-2x8/recdbl-ag-16/msccl", 0xc535253874cbea30),
    ("a100-2x8/rechlv-rs-16/state", 0xbe8865ca0c8548cf),
    ("a100-2x8/rechlv-rs-16/fused", 0x5a38896053447c43),
    ("a100-2x8/rechlv-rs-16/nccl", 0xf314b5e259f9ab75),
    ("a100-2x8/rechlv-rs-16/msccl", 0xf314b5e259f9ab75),
    ("a100-2x8/rechd-ar-16/state", 0xaae02e992b315e97),
    ("a100-2x8/rechd-ar-16/fused", 0xaae02e992b315e97),
    ("a100-2x8/rechd-ar-16/nccl", 0x57c39ec430201d0f),
    ("a100-2x8/rechd-ar-16/msccl", 0x57c39ec430201d0f),
    ("a100-2x8/dbtree-ar-16/state", 0xc3439744f625e959),
    ("a100-2x8/dbtree-ar-16/fused", 0xc6308645a0b8f2b6),
    ("a100-2x8/dbtree-ar-16/nccl", 0x62e23ddccf9d91fb),
    ("a100-2x8/dbtree-ar-16/msccl", 0x62e23ddccf9d91fb),
];
const GOLDEN_TOPO3: &[(&str, u64)] = &[
    ("a100-4x4/hm-ag-4x4/state", 0x4cf4dd41acd336f2),
    ("a100-4x4/hm-ag-4x4/fused", 0xe5bb06b500d80d3e),
    ("a100-4x4/hm-ag-4x4/nccl", 0x835413a1977afc16),
    ("a100-4x4/hm-ag-4x4/msccl", 0x835413a1977afc16),
    ("a100-4x4/hm-rs-4x4/state", 0x6e5c0b6c9b1d16cb),
    ("a100-4x4/hm-rs-4x4/fused", 0x6e5c0b6c9b1d16cb),
    ("a100-4x4/hm-rs-4x4/nccl", 0xe8863cf9775684d9),
    ("a100-4x4/hm-rs-4x4/msccl", 0xe8863cf9775684d9),
    ("a100-4x4/hm-ar-4x4/state", 0x6af6977ee4b1c71d),
    ("a100-4x4/hm-ar-4x4/fused", 0x50e513e712270811),
    ("a100-4x4/hm-ar-4x4/nccl", 0xc1710e08428bd1d5),
    ("a100-4x4/hm-ar-4x4/msccl", 0xc1710e08428bd1d5),
    ("a100-4x4/ring-ag-16/state", 0xc7f776066861f0b8),
    ("a100-4x4/ring-ag-16/fused", 0x00f5b0951e79f96a),
    ("a100-4x4/ring-ag-16/nccl", 0x1c52ceb96ad103ee),
    ("a100-4x4/ring-ag-16/msccl", 0x1c52ceb96ad103ee),
    ("a100-4x4/ring-rs-16/state", 0xe7eb5cd7971db5fb),
    ("a100-4x4/ring-rs-16/fused", 0x843b21f802a43d7f),
    ("a100-4x4/ring-rs-16/nccl", 0xf35a959937dfe90f),
    ("a100-4x4/ring-rs-16/msccl", 0xf35a959937dfe90f),
    ("a100-4x4/ring-ar-16/state", 0x0169440bf1ba4081),
    ("a100-4x4/ring-ar-16/fused", 0x6969b44c9cc31725),
    ("a100-4x4/ring-ar-16/nccl", 0x8a504e45bcf81f9b),
    ("a100-4x4/ring-ar-16/msccl", 0x8a504e45bcf81f9b),
    ("a100-4x4/nccl-rings2-ar-4x4/state", 0x06ba50494c3a7518),
    ("a100-4x4/nccl-rings2-ar-4x4/fused", 0x3db3cf6cf6e4cc40),
    ("a100-4x4/nccl-rings2-ar-4x4/nccl", 0xbc7329caf0f42cd8),
    ("a100-4x4/nccl-rings2-ar-4x4/msccl", 0xbc7329caf0f42cd8),
    ("a100-4x4/recdbl-ag-16/state", 0x73f03f8c6247e6d2),
    ("a100-4x4/recdbl-ag-16/fused", 0xf19e8fcf804e2a88),
    ("a100-4x4/recdbl-ag-16/nccl", 0xc535253874cbea30),
    ("a100-4x4/recdbl-ag-16/msccl", 0xc535253874cbea30),
    ("a100-4x4/rechlv-rs-16/state", 0x2561ab61d01bd43f),
    ("a100-4x4/rechlv-rs-16/fused", 0xbd634a4faa2937cf),
    ("a100-4x4/rechlv-rs-16/nccl", 0xf314b5e259f9ab75),
    ("a100-4x4/rechlv-rs-16/msccl", 0xf314b5e259f9ab75),
    ("a100-4x4/rechd-ar-16/state", 0xf2327627b563dc0b),
    ("a100-4x4/rechd-ar-16/fused", 0xf2327627b563dc0b),
    ("a100-4x4/rechd-ar-16/nccl", 0x57c39ec430201d0f),
    ("a100-4x4/rechd-ar-16/msccl", 0x57c39ec430201d0f),
    ("a100-4x4/dbtree-ar-16/state", 0xeed4b73b02b84845),
    ("a100-4x4/dbtree-ar-16/fused", 0xfe014f3e4a8ca7d9),
    ("a100-4x4/dbtree-ar-16/nccl", 0x62e23ddccf9d91fb),
    ("a100-4x4/dbtree-ar-16/msccl", 0x62e23ddccf9d91fb),
];
const GOLDEN_TOPO4: &[(&str, u64)] = &[
    ("a100-4x8/hm-ag-4x8/state", 0x185c634e6388eff2),
    ("a100-4x8/hm-ag-4x8/fused", 0x7da411507ded2c54),
    ("a100-4x8/hm-ag-4x8/nccl", 0xdfe521733d0d5d12),
    ("a100-4x8/hm-ag-4x8/msccl", 0xdfe521733d0d5d12),
    ("a100-4x8/hm-rs-4x8/state", 0xa0cc317af45584cf),
    ("a100-4x8/hm-rs-4x8/fused", 0xa0cc317af45584cf),
    ("a100-4x8/hm-rs-4x8/nccl", 0x84fd827e3a25bf15),
    ("a100-4x8/hm-rs-4x8/msccl", 0x84fd827e3a25bf15),
    ("a100-4x8/hm-ar-4x8/state", 0xdd7fc6453f7a1ed7),
    ("a100-4x8/hm-ar-4x8/fused", 0x17cad2b87137147b),
    ("a100-4x8/hm-ar-4x8/nccl", 0xc85ad4843e20c0cd),
    ("a100-4x8/hm-ar-4x8/msccl", 0xc85ad4843e20c0cd),
    ("a100-4x8/ring-ag-32/state", 0x334e8c6e9c08356c),
    ("a100-4x8/ring-ag-32/fused", 0x29bb5ab0a3747d16),
    ("a100-4x8/ring-ag-32/nccl", 0x4365ccab822f1e74),
    ("a100-4x8/ring-ag-32/msccl", 0x4365ccab822f1e74),
    ("a100-4x8/ring-rs-32/state", 0x6841098e0fd95641),
    ("a100-4x8/ring-rs-32/fused", 0xad201f1b2865464d),
    ("a100-4x8/ring-rs-32/nccl", 0x3716eecd20c5abf5),
    ("a100-4x8/ring-rs-32/msccl", 0x3716eecd20c5abf5),
    ("a100-4x8/ring-ar-32/state", 0xdd321bc6c56232a5),
    ("a100-4x8/ring-ar-32/fused", 0x2b0ce898ee225869),
    ("a100-4x8/ring-ar-32/nccl", 0x623a80ee2d3dd5b1),
    ("a100-4x8/ring-ar-32/msccl", 0x623a80ee2d3dd5b1),
    ("a100-4x8/nccl-rings2-ar-4x8/state", 0xbfcaf56d10015454),
    ("a100-4x8/nccl-rings2-ar-4x8/fused", 0xbd9c8f0a015ccb60),
    ("a100-4x8/nccl-rings2-ar-4x8/nccl", 0x046ac88382238dd4),
    ("a100-4x8/nccl-rings2-ar-4x8/msccl", 0x046ac88382238dd4),
    ("a100-4x8/recdbl-ag-32/state", 0x7193cc382267f4b2),
    ("a100-4x8/recdbl-ag-32/fused", 0x3f3886257e1eb978),
    ("a100-4x8/recdbl-ag-32/nccl", 0xa9adfbd9267b49ea),
    ("a100-4x8/recdbl-ag-32/msccl", 0xa9adfbd9267b49ea),
    ("a100-4x8/rechlv-rs-32/state", 0x2a7f2959b760cf49),
    ("a100-4x8/rechlv-rs-32/fused", 0x49a98444a2785d41),
    ("a100-4x8/rechlv-rs-32/nccl", 0x58d3dd6e5d53b813),
    ("a100-4x8/rechlv-rs-32/msccl", 0x58d3dd6e5d53b813),
    ("a100-4x8/rechd-ar-32/state", 0x361b9fb18f77382d),
    ("a100-4x8/rechd-ar-32/fused", 0x361b9fb18f77382d),
    ("a100-4x8/rechd-ar-32/nccl", 0x5870f97b1b2747d1),
    ("a100-4x8/rechd-ar-32/msccl", 0x5870f97b1b2747d1),
    ("a100-4x8/dbtree-ar-32/state", 0xbde95b7e73fbd8d1),
    ("a100-4x8/dbtree-ar-32/fused", 0xeb49cf69e1298e9e),
    ("a100-4x8/dbtree-ar-32/nccl", 0x5f3cbcd8eadbe535),
    ("a100-4x8/dbtree-ar-32/msccl", 0x5f3cbcd8eadbe535),
];
