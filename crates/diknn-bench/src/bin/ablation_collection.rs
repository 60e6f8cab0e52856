//! §3.3 footnote 1: "the data collection scheme introduced in this paper
//! combines both the token ring based and contention based scheme to
//! achieve higher performance."
//!
//! Compares the three collection schemes, plus the contention-free-period
//! (CFP) MAC mode the paper mentions for LR-WPAN, at the default workload.

use diknn_bench::{
    default_scenario, default_workload, print_csv_header, print_row, run_experiment,
};
use diknn_core::{CollectionScheme, DiknnConfig};
use diknn_sim::MacMode;
use diknn_workloads::{Experiment, ProtocolKind, WorkloadConfig};

fn main() {
    println!(
        "Collection-scheme ablation (k = 40, µmax = 10 m/s, runs per cell: {})\n",
        diknn_bench::runs()
    );
    print_csv_header();
    for (label, scheme) in [
        ("contention", CollectionScheme::Contention),
        ("token-ring", CollectionScheme::TokenRing),
        ("combined", CollectionScheme::Combined),
    ] {
        let cfg = DiknnConfig {
            collection: scheme,
            ..DiknnConfig::default()
        };
        let exp = Experiment::new(
            ProtocolKind::Diknn(cfg),
            default_scenario(),
            WorkloadConfig {
                k: 40,
                ..default_workload()
            },
        );
        let agg = run_experiment(&exp);
        print_row("ablation_collection", "scheme", 0.0, label, &agg);
    }

    // CFP: an idealised contention-free MAC ("when Contention Free Period
    // is exercised in LR-WPAN", §3.3) — collisions disappear entirely.
    let mut exp = Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        default_scenario(),
        WorkloadConfig {
            k: 40,
            ..default_workload()
        },
    );
    exp.sim_tweak = Some(|cfg| cfg.mac = MacMode::ContentionFree);
    let agg = run_experiment(&exp);
    print_row("ablation_collection", "scheme", 1.0, "combined+CFP", &agg);
}
