//! The DAG's task table against the per-task layout it replaced: every
//! task assembled from the shared transfer records and the route table
//! must equal the `Task` built directly from its transfer and
//! `topo.connection(src, dst)`, on the seed suite × the Table 3
//! topologies, healthy and with one resource masked.

use rescc_ir::{DepDag, Task, TaskId};
use rescc_lang::AlgoSpec;
use rescc_topology::{NicId, Rank, Topology, TopologyHealth};

/// The task as the DAG stored it before the table: one `Task` per
/// transfer, with the route resolved per task.
fn task_the_old_way(spec: &AlgoSpec, topo: &Topology, i: usize) -> Task {
    let rec = spec.transfers()[i];
    let conn = topo.connection(rec.src, rec.dst);
    Task {
        id: TaskId::new(i as u32),
        src: rec.src,
        dst: rec.dst,
        step: rec.step,
        chunk: rec.chunk,
        comm: rec.comm,
        conflict: conn.conflict,
        path: conn.path,
    }
}

/// Each Table 3 topology, healthy, with its first pair channel masked
/// (an intra-node relay) and with its first NIC's TX masked.
fn topologies() -> Vec<Topology> {
    let mut out = Vec::new();
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        let mut chan = TopologyHealth::healthy();
        chan.mask(topo.pair_chan(Rank::new(0), Rank::new(1)));
        let mut nic = TopologyHealth::healthy();
        nic.mask(topo.nic_tx(NicId::new(0)));
        out.push(topo.clone().with_health(chan));
        out.push(topo.clone().with_health(nic));
        out.push(topo);
    }
    out
}

fn suite(topo: &Topology) -> Vec<AlgoSpec> {
    let nodes = topo.n_nodes();
    rescc_algos::seed_suite(nodes, topo.n_ranks() / nodes)
}

#[test]
fn every_task_equals_the_task_built_from_its_connection() {
    for topo in topologies() {
        for spec in suite(&topo) {
            let dag = DepDag::build(&spec, &topo).unwrap();
            assert_eq!(dag.len(), spec.transfers().len());
            for (i, t) in dag.tasks().iter().enumerate() {
                let want = task_the_old_way(&spec, &topo, i);
                assert_eq!(t, want, "{} on {}", spec.name(), topo.name());
                assert_eq!(dag.task(t.id), want);
                assert_eq!(*dag.transfer(t.id), want.rec());
            }
        }
    }
}

#[test]
fn the_route_table_has_one_entry_per_distinct_pair() {
    for topo in topologies() {
        for spec in suite(&topo) {
            let dag = DepDag::build(&spec, &topo).unwrap();
            assert_eq!(
                dag.n_routes(),
                spec.connections().len(),
                "{} on {}",
                spec.name(),
                topo.name()
            );
        }
    }
}
