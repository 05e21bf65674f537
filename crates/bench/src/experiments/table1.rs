//! **Table 1** — Global link utilization during the execution of existing
//! expert and synthesized algorithms on the MSCCL-model backend.
//!
//! Paper values (for shape comparison): utilizations fall from ~70–77%
//! (expert MSCCLang algorithms) to ~30–52% (TACCL/TECCL synthesized), and
//! degrade as the cluster grows from 1 to 4 servers.

use crate::{fmt_bytes, pct, print_table, MB};
use rescc_algos::{
    hm_allgather, hm_allreduce, taccl_like_allgather, taccl_like_allreduce, teccl_like_allgather,
};
use rescc_backends::{Backend, Communicator};
use rescc_topology::Topology;

/// Regenerate Table 1.
pub fn run() {
    let buffer = 256 * MB;
    let mut rows = Vec::new();
    for nodes in [1u32, 2, 4] {
        let g = 8;
        let topo = Topology::a100(nodes, g);
        let scale = format!("{} Server(s) ({} GPUs)", nodes, nodes * g);
        let algos = [
            ("MS-AG", hm_allgather(nodes, g)),
            ("MS-AR", hm_allreduce(nodes, g)),
            ("TA-AG", taccl_like_allgather(nodes, g)),
            ("TA-AR", taccl_like_allreduce(nodes, g)),
            ("TE-AG", teccl_like_allgather(nodes * g)),
        ];
        let mut comm = Communicator::new(topo).with_backend(Backend::msccl());
        let mut row = vec![scale];
        for (_, spec) in &algos {
            let rep = comm.run_spec(spec, buffer, MB).expect("table1 run");
            row.push(pct(rep.sim.global_link_utilization()));
        }
        rows.push(row);
    }
    print_table(
        &format!(
            "Table 1: global link utilization on the MSCCL-model backend (buffer {})",
            fmt_bytes(buffer)
        ),
        &["Topo Scale", "MS-AG", "MS-AR", "TA-AG", "TA-AR", "TE-AG"],
        &rows,
    );
    println!(
        "paper: expert (MS) algorithms utilize links far better than synthesized \
         (TA/TE) ones, and utilization drops with scale."
    );
}
