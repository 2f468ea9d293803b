//! Table 6 — TPC-B on the OpenSSD profile: `[0×0]` vs `[2×4]` in pSLC and
//! odd-MLC modes — the configuration under which the paper reports its
//! largest relative gains.

use ipa_bench::{openssd_table, run_workload, scale, OpenSsdTable};
use ipa_core::NxM;
use ipa_workloads::TpcB;

fn main() {
    let s = scale();
    let table = OpenSsdTable {
        name: "table6_tpcb_openssd",
        title: "Table 6 — TPC-B on OpenSSD: [0x0] vs [2x4] pSLC / odd-MLC",
        paper_ref: "paper Table 6",
        scheme: NxM::tpcb(),
        paper_rel: [(-75.0, -48.0), (-54.0, -51.0), (-83.0, -56.0), (-70.0, -59.0), (48.0, 22.0)],
        paper_split: ("33/67", "50/50"),
        paper_shape: [
            "large GC reductions in both modes, pSLC > odd-MLC",
            "(odd-MLC can only append on LSB residencies); throughput up in both.",
        ],
    };
    openssd_table(&table, |cfg| {
        run_workload(cfg, &mut TpcB::new(8, 8_000 * s), 2_000 * s, 10_000 * s).0
    });
}
