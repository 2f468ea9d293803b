//! Table 8 — TPC-C on the OpenSSD profile: `[0×0]` vs `[2×3]` in pSLC and
//! odd-MLC modes.

use ipa_bench::{openssd_table, run_workload, scale, OpenSsdTable};
use ipa_core::NxM;
use ipa_workloads::TpcC;

fn main() {
    let s = scale();
    let table = OpenSsdTable {
        name: "table8_tpcc_openssd",
        title: "Table 8 — TPC-C on OpenSSD: [0x0] vs [2x3] pSLC / odd-MLC",
        paper_ref: "paper Table 8",
        scheme: NxM::tpcc(),
        paper_rel: [(-81.0, -45.0), (-60.0, -47.0), (-86.0, -52.0), (-70.0, -53.0), (46.0, 11.0)],
        paper_split: ("49/51", "70/30"),
        paper_shape: [
            "same as Table 6 but with TPC-C's lower IPA fraction;",
            "odd-MLC captures roughly half the appends pSLC does.",
        ],
    };
    openssd_table(&table, |cfg| {
        run_workload(cfg, &mut TpcC::new(2, 6_000 * s, 300), 1_500 * s, 6_000 * s).0
    });
}
