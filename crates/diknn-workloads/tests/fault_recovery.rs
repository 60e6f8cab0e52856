//! Acceptance tests for the fault-injection + self-healing work: under
//! heavy churn and bursty links every query must *terminate with a
//! classified outcome* (no silent hangs until `time_limit`), and the
//! recovery machinery (token watchdog + sink retry) must measurably raise
//! completion over running with it disabled.

use diknn_baselines::PeerTreeConfig;
use diknn_core::{DiknnConfig, QueryStatus};
use diknn_sim::FaultPlan;
use diknn_workloads::{
    fault_sweep, Experiment, ProtocolKind, RunMetrics, ScenarioConfig, WorkloadConfig,
};

fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        nodes: 200,
        duration: 30.0,
        max_speed: 5.0,
        ..ScenarioConfig::default()
    }
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        k: 10,
        first_at: 2.0,
        last_at: 22.0,
        mean_interval: 2.0,
    }
}

fn run_with(cfg: DiknnConfig, seed: u64) -> RunMetrics {
    let mut exp = Experiment::new(ProtocolKind::Diknn(cfg), scenario(), workload());
    exp.fault_plan = Some(fault_sweep::churn_and_bursts(scenario().duration));
    exp.run_once(seed)
}

/// Default recovery, with a sink timeout short enough that a retry round
/// still fits before `time_limit` (the stock 20 s is sized for 100 s
/// paper-scale runs).
fn recovery_on() -> DiknnConfig {
    DiknnConfig {
        sink_timeout: 6.0,
        ..DiknnConfig::default()
    }
}

fn recovery_off() -> DiknnConfig {
    DiknnConfig {
        token_watchdog: false,
        max_query_retries: 0,
        ..recovery_on()
    }
}

/// With 20% of nodes crashing mid-run and half-severity bursty links,
/// every query ends with a definite status: completed, or degraded with a
/// reason. `Pending` after the run would be a silent hang.
#[test]
fn every_query_terminates_with_a_classified_outcome() {
    for seed in [1u64, 2, 3, 4] {
        for cfg in [recovery_on(), recovery_off()] {
            let m = run_with(cfg, seed);
            assert!(
                m.queries >= 3,
                "seed {seed}: vacuous run ({} queries)",
                m.queries
            );
            assert_eq!(
                m.status_counts[QueryStatus::Pending as usize],
                0,
                "seed {seed}: unclassified queries: {:?}",
                m.status_counts
            );
            // Degraded + completed partitions the query set.
            let classified: usize = m.status_counts.iter().sum();
            assert_eq!(classified, m.queries, "seed {seed}");
        }
    }
}

/// Regression for the Peer-tree stage-2 recursion fix: on a sparse network
/// under severe bursty loss, neighbour tables starve and a clusterhead
/// holding a *final-stage* (stage-2) query can find itself routeless.
/// Before the guard in `forward_query`, `query_at_head` and
/// `forward_query` would mutually recurse at that head until the stack
/// overflowed; the fix drops the query so it ages out at the sink. This
/// test dies (process abort) if the recursion ever comes back, and the
/// runner's invariant checker vouches for the rest of the run.
#[test]
fn routeless_final_stage_peertree_query_is_dropped() {
    // nodes=40 (degree ≈ 3.8) + severity-0.9 bursts: verified by
    // temporarily instrumenting the drop branch that these seeds reach a
    // routeless stage-2 head — the test is not vacuous.
    let sparse = ScenarioConfig {
        nodes: 40,
        duration: 30.0,
        max_speed: 5.0,
        ..ScenarioConfig::default()
    };
    let wl = WorkloadConfig {
        k: 5,
        first_at: 2.0,
        last_at: 20.0,
        mean_interval: 2.0,
    };
    for seed in [1u64, 2, 3, 4, 7, 8] {
        let mut exp = Experiment::new(
            ProtocolKind::PeerTree(PeerTreeConfig::default()),
            sparse.clone(),
            wl,
        );
        exp.fault_plan = Some(FaultPlan::bursty(0.9));
        let m = exp.run_once(seed);
        assert!(m.queries >= 3, "seed {seed}: vacuous run");
        assert_eq!(
            m.status_counts[QueryStatus::Pending as usize],
            0,
            "seed {seed}: unclassified queries: {:?}",
            m.status_counts
        );
    }
}

/// The watchdog + sink retry must buy completions back under faults: over
/// a set of seeds, recovery-on completes strictly more queries than
/// recovery-off, and actually exercises the machinery (re-issues or
/// retries observed).
#[test]
fn recovery_measurably_raises_completion_under_faults() {
    // "Complete" here means *fully* complete (every sector merged): queries
    // that time out with partial sectors still carry a `completed_at`, so
    // `RunMetrics::completed` alone cannot see what recovery buys back.
    let full = |m: &RunMetrics| m.status_counts[QueryStatus::Completed as usize];
    let mut on = (0usize, 0usize); // (fully completed, queries)
    let mut off = (0usize, 0usize);
    let mut recoveries = 0u64;
    for seed in 1u64..=6 {
        let m_on = run_with(recovery_on(), seed);
        let m_off = run_with(recovery_off(), seed);
        assert_eq!(m_on.queries, m_off.queries, "seed {seed}: workloads differ");
        on.0 += full(&m_on);
        on.1 += m_on.queries;
        off.0 += full(&m_off);
        off.1 += m_off.queries;
        recoveries += m_on.tokens_reissued + m_on.query_retries;
        println!(
            "seed {seed}: on {:?} (reissues {}, retries {}) vs off {:?}",
            m_on.status_counts, m_on.tokens_reissued, m_on.query_retries, m_off.status_counts,
        );
    }
    assert!(
        recoveries > 0,
        "fault plan never exercised the recovery machinery"
    );
    assert!(
        on.0 > off.0,
        "recovery should complete more queries: on {}/{} vs off {}/{}",
        on.0,
        on.1,
        off.0,
        off.1
    );
}
