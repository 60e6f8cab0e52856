//! Seed-matrix smoke pass: every protocol × scenario shape from the tier-1
//! suite, over 5 fixed seeds, asserting *structure* instead of metric
//! thresholds.
//!
//! The accuracy/energy assertions elsewhere are seed-sensitive by nature
//! (`flood_answers_but_burns_energy` had to be re-pinned more than once);
//! this matrix catches the failures that matter structurally, on every
//! seed: the run terminates, every query is classified, and — via the
//! runner's built-in trace replay — all protocol invariants held. A seed
//! that breaks here is a bug, not a flake.

use diknn_baselines::{FloodConfig, KptConfig, PeerTreeConfig};
use diknn_core::{DiknnConfig, QueryStatus};
use diknn_sim::FaultPlan;
use diknn_workloads::{fault_sweep, Experiment, ProtocolKind, ScenarioConfig, WorkloadConfig};

const SEEDS: [u64; 5] = [11, 23, 47, 101, 2007];

fn protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Diknn(DiknnConfig::default()),
        ProtocolKind::Kpt(KptConfig::default()),
        ProtocolKind::PeerTree(PeerTreeConfig::default()),
        ProtocolKind::Flood(FloodConfig::default()),
    ]
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        k: 10,
        first_at: 2.0,
        last_at: 10.0,
        mean_interval: 4.0,
    }
}

/// Run one experiment cell over all seeds; `run_once` panics internally on
/// any invariant violation, so the assertions here are only liveness.
fn smoke(label: &str, mut make: impl FnMut(ProtocolKind) -> Experiment) {
    for proto in protocols() {
        let name = proto.name();
        let exp = make(proto);
        for seed in SEEDS {
            let m = exp.run_once(seed);
            assert!(m.queries >= 1, "{label}/{name} seed {seed}: no queries ran");
            assert_eq!(
                m.status_counts[QueryStatus::Pending as usize],
                0,
                "{label}/{name} seed {seed}: unclassified queries: {:?}",
                m.status_counts
            );
            let classified: usize = m.status_counts.iter().sum();
            assert_eq!(
                classified, m.queries,
                "{label}/{name} seed {seed}: status counts do not partition"
            );
        }
    }
}

#[test]
fn static_network_matrix() {
    smoke("static", |proto| {
        Experiment::new(
            proto,
            ScenarioConfig {
                nodes: 120,
                duration: 20.0,
                max_speed: 0.0,
                ..ScenarioConfig::default()
            },
            workload(),
        )
    });
}

#[test]
fn mobile_network_matrix() {
    smoke("mobile", |proto| {
        Experiment::new(
            proto,
            ScenarioConfig {
                nodes: 120,
                duration: 20.0,
                max_speed: 10.0,
                ..ScenarioConfig::default()
            },
            workload(),
        )
    });
}

#[test]
fn churn_and_bursts_matrix() {
    smoke("faulted", |proto| {
        let scenario = ScenarioConfig {
            nodes: 150,
            duration: 25.0,
            max_speed: 5.0,
            ..ScenarioConfig::default()
        };
        let mut exp = Experiment::new(proto, scenario, workload());
        exp.fault_plan = Some(fault_sweep::churn_and_bursts(25.0));
        exp
    });
}

#[test]
fn energy_budget_matrix() {
    smoke("energy", |proto| {
        let scenario = ScenarioConfig {
            nodes: 120,
            duration: 20.0,
            max_speed: 5.0,
            ..ScenarioConfig::default()
        };
        let mut exp = Experiment::new(proto, scenario, workload());
        exp.fault_plan = Some(FaultPlan {
            energy_budget_j: Some(0.05),
            ..FaultPlan::default()
        });
        exp
    });
}
