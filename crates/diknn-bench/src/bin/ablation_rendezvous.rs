//! §4.3 rendezvous ablation: dynamic boundary adjustment on vs. off, on a
//! spatially irregular (clustered) field where KNNB's uniform-density
//! assumption fails — the scenario rendezvous was designed for.
//!
//! With rendezvous the sectors exchange explored counts, stop early when
//! the network-wide estimate suffices, and extend when it falls short; the
//! accuracy/energy trade should beat the static-boundary variant.

use diknn_bench::{default_workload, print_csv_header, print_row, run_cell};
use diknn_core::DiknnConfig;
use diknn_workloads::{PlacementKind, ProtocolKind, ScenarioConfig, WorkloadConfig};

fn main() {
    println!(
        "Rendezvous ablation (k = 40, clustered field, runs per cell: {})\n",
        diknn_bench::runs()
    );
    print_csv_header();
    for placement in ["uniform", "clustered"] {
        for rendezvous in [true, false] {
            let cfg = DiknnConfig {
                rendezvous,
                ..DiknnConfig::default()
            };
            let scenario = ScenarioConfig {
                placement: if placement == "clustered" {
                    PlacementKind::Clustered
                } else {
                    PlacementKind::Uniform
                },
                ..diknn_bench::default_scenario()
            };
            let agg = run_cell(
                ProtocolKind::Diknn(cfg),
                scenario,
                WorkloadConfig {
                    k: 40,
                    ..default_workload()
                },
            );
            let label: &'static str = match (placement, rendezvous) {
                ("uniform", true) => "uni+rdv",
                ("uniform", false) => "uni-rdv",
                ("clustered", true) => "clu+rdv",
                _ => "clu-rdv",
            };
            print_row(
                "ablation_rendezvous",
                "rdv",
                rendezvous as u8 as f64,
                label,
                &agg,
            );
        }
        println!();
    }
}
