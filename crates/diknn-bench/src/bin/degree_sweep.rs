//! §5.1 remark: "By fixing the number of sensor nodes and varying the
//! simulated field from 200×200 to 115×115 m², the node degree ranges
//! from 5 to 20."
//!
//! Sweeps the node degree and compares the three protocols: sparse
//! networks stress routing (voids, perimeter mode) and itinerary
//! connectivity.

use diknn_baselines::{KptConfig, PeerTreeConfig};
use diknn_bench::{default_workload, print_csv_header, print_row, run_cell};
use diknn_core::DiknnConfig;
use diknn_sim::config::RADIO_RANGE;
use diknn_workloads::{ProtocolKind, WorkloadConfig};

fn main() {
    println!(
        "Node-degree sweep (k = 40, µmax = 10 m/s, runs per cell: {})\n",
        diknn_bench::runs()
    );
    print_csv_header();
    for degree in [5.0f64, 10.0, 15.0, 20.0] {
        for proto in [
            ProtocolKind::Diknn(DiknnConfig::default()),
            ProtocolKind::Kpt(KptConfig::default()),
            ProtocolKind::PeerTree(PeerTreeConfig::default()),
        ] {
            let name = proto.name();
            let scenario = diknn_bench::default_scenario().with_node_degree(degree, RADIO_RANGE);
            let agg = run_cell(
                proto,
                scenario,
                WorkloadConfig {
                    k: 40,
                    ..default_workload()
                },
            );
            print_row("degree_sweep", "degree", degree, name, &agg);
        }
        println!();
    }
}
