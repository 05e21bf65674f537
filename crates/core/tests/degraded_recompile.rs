//! Property grid for the compile a permanent fault triggers: every
//! workload × Table-3 topology × fault site, compiled for the topology
//! with that resource masked, must either produce a *valid* degraded plan
//! (schedule, allocation, and program all validate against its DAG, and
//! the simulator delivers correct data on it) or be denied by the
//! sanitize gate with an RA005 finding.

use rescc_core::Compiler;
use rescc_lang::AlgoSpec;
use rescc_sim::SimError;
use rescc_topology::{NicId, Rank, Topology, TopologyHealth};

const MB: u64 = 1 << 20;

/// The workload axis: one expert, one multi-ring, one synthesized
/// algorithm per topology shape.
fn workloads(topo: &Topology) -> Vec<(&'static str, AlgoSpec)> {
    let (nodes, g) = (topo.n_nodes(), topo.gpus_per_node());
    vec![
        ("hm_allreduce", rescc_algos::hm_allreduce(nodes, g)),
        (
            "nccl_rings_allgather",
            rescc_algos::nccl_rings_allgather(nodes, g, 2),
        ),
        (
            "taccl_like_allgather",
            rescc_algos::taccl_like_allgather(nodes, g),
        ),
    ]
}

/// The fault axis: intra-node NVLink channels at different offsets plus a
/// NIC transmit direction.
fn fault_sites(topo: &Topology) -> Vec<(String, TopologyHealth)> {
    let g = topo.gpus_per_node();
    let mut sites = Vec::new();
    let chan = |a: u32, b: u32| {
        let mut h = TopologyHealth::default();
        h.mask(topo.pair_chan(Rank::new(a), Rank::new(b)));
        (format!("chan({a},{b})"), h)
    };
    sites.push(chan(0, 1));
    sites.push(chan(g - 2, g - 1));
    // A channel on the second node, crossing NIC-sharing pairs.
    sites.push(chan(g, g + 2));
    let mut h = TopologyHealth::default();
    h.mask(topo.nic_tx(NicId::new(0)));
    sites.push(("nic_tx(0)".into(), h));
    sites
}

/// Whether `err` is the sanitize gate refusing a plan with an RA005
/// finding in its report.
fn is_ra005_refusal(err: &SimError) -> bool {
    match err {
        SimError::LintRejected { report } => report.contains("RA005"),
        _ => false,
    }
}

#[test]
fn degraded_plans_are_valid_or_denied_with_ra005() {
    let compiler = Compiler::new();
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        for (name, spec) in workloads(&topo) {
            for (site, health) in fault_sites(&topo) {
                let ctx = format!("{name} on {} with {site}", topo.name());
                let degraded = topo.clone().with_health(health.clone());
                match compiler.compile_spec(&spec, &degraded) {
                    Ok(plan) => {
                        assert_eq!(plan.topo.health(), &health, "{ctx}: health not applied");
                        plan.schedule
                            .validate(&plan.dag)
                            .unwrap_or_else(|e| panic!("{ctx}: invalid schedule: {e}"));
                        plan.alloc
                            .validate(&plan.dag, &plan.schedule)
                            .unwrap_or_else(|e| panic!("{ctx}: invalid allocation: {e}"));
                        plan.program
                            .validate(&plan.dag)
                            .unwrap_or_else(|e| panic!("{ctx}: invalid program: {e}"));
                        assert!(
                            plan.diagnostics.is_clean(),
                            "{ctx}: degraded plan carries diagnostics: {}",
                            plan.diagnostics.render_human()
                        );
                        let report = plan
                            .run(64 * MB, MB)
                            .unwrap_or_else(|e| panic!("{ctx}: sim failed: {e}"));
                        assert_eq!(report.data_valid, Some(true), "{ctx}: wrong data");
                    }
                    // The only legitimate refusal is the lint gate
                    // catching a route over a masked resource.
                    Err(e) => assert!(
                        is_ra005_refusal(&e),
                        "{ctx}: denied without an RA005 finding: {e}"
                    ),
                }
            }
        }
    }
}

#[test]
fn masking_every_nic_tx_on_a_node_is_denied() {
    let compiler = Compiler::new();
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        let spec = rescc_algos::hm_allreduce(topo.n_nodes(), topo.gpus_per_node());
        let mut health = TopologyHealth::default();
        for nic in 0..topo.spec().nics_per_node {
            health.mask(topo.nic_tx(NicId::new(nic)));
        }
        let err = compiler
            .compile_spec(&spec, &topo.clone().with_health(health))
            .expect_err("a node with no transmit NIC cannot host inter-node transfers");
        assert!(
            is_ra005_refusal(&err),
            "{}: expected an RA005 denial, got: {err}",
            topo.name()
        );
    }
}
