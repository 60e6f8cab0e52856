//! Parallel sweep equivalence: `Experiment::run_parallel` must return an
//! [`Aggregate`] bit-identical to the sequential `Experiment::run` for
//! the same `(runs, base_seed)` — same per-run seeds, same collection
//! order, same float summation order. Aggregates are compared with full
//! `PartialEq` (every mean/min/max/stddev field), so any reordering or
//! seed drift in the parallel path shows up immediately.

use diknn_core::{DiknnConfig, QueryStatus, ServingConfig};
use diknn_sim::{NeighborIndex, SimConfig};
use diknn_workloads::{
    admission_experiment, fault_sweep, Experiment, ParallelSweep, ProtocolKind, QueryLoad,
    ScenarioConfig, ServingSummary, WorkloadConfig,
};

fn pinned_experiment() -> Experiment {
    Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        ScenarioConfig {
            nodes: 120,
            duration: 25.0,
            max_speed: 2.0,
            ..ScenarioConfig::default()
        },
        WorkloadConfig {
            k: 10,
            first_at: 2.0,
            last_at: 10.0,
            mean_interval: 4.0,
        },
    )
}

#[test]
fn parallel_aggregate_is_bit_identical_to_sequential() {
    let exp = pinned_experiment();
    let sequential = exp.run(4, 42);
    for threads in [2, 8] {
        let parallel = exp.run_parallel(4, 42, &ParallelSweep::new(threads));
        assert_eq!(
            parallel, sequential,
            "{threads}-thread sweep diverged from the sequential aggregate"
        );
    }
    // One worker *is* the sequential loop.
    assert_eq!(exp.run_parallel(4, 42, &ParallelSweep::new(1)), sequential);
}

#[test]
fn faulted_parallel_sweep_matches_sequential() {
    // Fault plans draw from seed-derived RNG streams; the parallel path
    // must reproduce them run for run.
    let mut exp = pinned_experiment();
    exp.fault_plan = Some(fault_sweep::churn_and_bursts(25.0));
    let sequential = exp.run(3, 7);
    let parallel = exp.run_parallel(3, 7, &ParallelSweep::new(3));
    assert_eq!(parallel, sequential);
}

#[test]
fn multi_query_parallel_aggregate_is_bit_identical_to_sequential() {
    // The concurrent multi-query engine: a high arrival rate keeps many
    // queries in flight at once (interleaved timers, shared channel,
    // per-query energy ledgers). The parallel sweep must still be
    // bit-identical — including the new per-query fields (p50/p95
    // latency, max_in_flight, per-query energy attribution).
    let load = QueryLoad {
        rate_qps: 10.0,
        k: 10,
        first_at: 2.0,
        last_at: 10.0,
    };
    let exp = Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        ScenarioConfig {
            nodes: 120,
            duration: 25.0,
            max_speed: 2.0,
            ..ScenarioConfig::default()
        },
        load.workload(),
    );
    let sequential = exp.run(3, 42);
    // The load regime is genuinely concurrent, not a relabelled
    // single-query sweep.
    assert!(
        sequential.max_in_flight.mean >= 2.0,
        "expected overlapping queries, got max_in_flight {:?}",
        sequential.max_in_flight
    );
    for threads in [2, 4] {
        let parallel = exp.run_parallel(3, 42, &ParallelSweep::new(threads));
        assert_eq!(
            parallel, sequential,
            "{threads}-thread multi-query sweep diverged from sequential"
        );
    }
}

#[test]
fn overload_with_serving_classifies_every_query_and_stays_bit_identical() {
    // Pinned deep-overload regime: 25 q/s — the rate where the unprotected
    // engine collapses (post-accuracy ~0.02 in BENCH_query_load). With the
    // full serving layer on, every single query must still end in exactly
    // one terminal classification (completed / degraded / rejected /
    // merged / cache-hit, zero Pending), the admission-soundness law must
    // hold (checked inside run_once), and the parallel sweep must remain
    // bit-identical to the sequential loop.
    let load = QueryLoad {
        rate_qps: 25.0,
        k: 10,
        first_at: 2.0,
        last_at: 10.0,
    };
    let exp = admission_experiment(120, 25.0, 2.0, &load, ServingConfig::enabled());
    let runs: Vec<_> = (0..3)
        .map(|i| exp.run_once(Experiment::sweep_seed(42, i)))
        .collect();
    let summary = ServingSummary::from_runs(&runs);
    assert!(
        summary.queries >= 100,
        "overload regime too small: {summary:?}"
    );
    assert!(
        summary.all_terminal(),
        "every query must be classified: {summary:?}"
    );
    assert_eq!(
        summary.status_counts[QueryStatus::Pending as usize],
        0,
        "{summary:?}"
    );
    for m in &runs {
        for q in &m.per_query {
            assert_ne!(
                q.status,
                QueryStatus::Pending,
                "q{} unclassified after finish",
                q.qid
            );
        }
    }
    // The serving layer must actually engage at this rate.
    assert!(
        summary.rejected + summary.merged + summary.cache_hits > 0,
        "25 q/s must exercise shedding/coalescing: {summary:?}"
    );
    // Bit-identity under the parallel sweep, per-query rows included.
    let sequential = exp.run(3, 42);
    for threads in [2, 4] {
        let parallel = exp.run_parallel(3, 42, &ParallelSweep::new(threads));
        assert_eq!(
            parallel, sequential,
            "{threads}-thread serving sweep diverged from sequential"
        );
    }
}

#[test]
fn grid_and_brute_force_aggregates_agree() {
    // The spatial grid changes cost, not behaviour: the whole experiment
    // pipeline (warm tables, MAC, faults, metrics) aggregates identically
    // under either index, sequentially or in parallel.
    let grid_exp = pinned_experiment();
    let mut brute_exp = pinned_experiment();
    fn force_brute(cfg: &mut SimConfig) {
        cfg.neighbor_index = NeighborIndex::BruteForce;
    }
    brute_exp.sim_tweak = Some(force_brute);
    let grid = grid_exp.run_parallel(3, 11, &ParallelSweep::new(2));
    let brute = brute_exp.run(3, 11);
    assert_eq!(grid, brute);
}
