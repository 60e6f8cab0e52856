//! Shared plumbing for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index) and prints a plain text table
//! plus CSV rows (lines starting with `csv,`) for downstream plotting.
//!
//! Knobs via environment variables, so full paper-scale runs and quick
//! smoke runs use the same binaries:
//!
//! * `DIKNN_RUNS`   — seeded runs per cell (paper: 20; default: 5)
//! * `DIKNN_SEED`   — base seed (default 1000)
//! * `DIKNN_DURATION` — simulated seconds per run (paper: 100; default 100)
//! * `DIKNN_THREADS` — sweep worker threads (default: all available cores)
//!
//! Bins with knobs of their own read them through [`env_usize`],
//! [`env_f64`] and [`env_list`], and write their results through
//! [`report`].
// Shared strict-lint header (checked by `cargo xtask lint`): the
// simulation stack must stay safe Rust, and determinism rules are enforced
// by clippy `disallowed-types`/`disallowed-methods` plus `cargo xtask lint`.
#![forbid(unsafe_code)]
#![deny(unused_must_use)]

pub mod report;
pub mod svg;

use std::str::FromStr;

use diknn_core::ServingConfig;
use diknn_workloads::{
    admission_experiment, Aggregate, Experiment, ProtocolKind, QueryLoad, RunMetrics,
    ScenarioConfig, WorkloadConfig,
};

fn env<T: FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.parse().ok()
}

/// `name` parsed as a count, or `default` when unset or unparsable.
pub fn env_usize(name: &str, default: usize) -> usize {
    env(name).unwrap_or(default)
}

/// `name` parsed as a float, or `default` when unset or unparsable.
pub fn env_f64(name: &str, default: f64) -> f64 {
    env(name).unwrap_or(default)
}

/// Comma-separated `name`: the tokens that parse and pass `keep`, or
/// `default` when the variable is unset or no token survives.
pub fn env_list<T: FromStr + Clone>(
    name: &str,
    default: &[T],
    keep: impl Fn(&T) -> bool,
) -> Vec<T> {
    let parsed: Vec<T> = std::env::var(name)
        .unwrap_or_default()
        .split(',')
        .filter_map(|tok| tok.trim().parse().ok())
        .filter(|v| keep(v))
        .collect();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
}

/// Runs-per-cell from `DIKNN_RUNS` (default 5, floor 1).
pub fn runs() -> usize {
    env_usize("DIKNN_RUNS", 5).max(1)
}

/// Base seed from `DIKNN_SEED` (default 1000).
pub fn base_seed() -> u64 {
    env("DIKNN_SEED").unwrap_or(1000)
}

/// Simulated duration from `DIKNN_DURATION` (default 100 s, as the paper).
pub fn duration() -> f64 {
    env_f64("DIKNN_DURATION", 100.0)
}

/// Sweep worker threads from `DIKNN_THREADS` (default: the machine's
/// available parallelism, floor 1). Parallelism never changes results —
/// see `diknn_workloads::parallel` — so this is purely a wall-time knob.
pub fn threads() -> usize {
    env("DIKNN_THREADS")
        .unwrap_or_else(|| diknn_workloads::ParallelSweep::available().threads())
        .max(1)
}

/// The DIKNN cell that `query_load` and `admission` sweep: a seeded
/// Poisson-like stream of `rate_qps` k-NN queries from t = 2 s until ten
/// seconds before the end (at least half the run), with the sink-side
/// serving layer configured by `serving`.
pub fn load_experiment(
    nodes: usize,
    duration: f64,
    rate_qps: f64,
    k: usize,
    max_speed: f64,
    serving: ServingConfig,
) -> Experiment {
    let load = QueryLoad {
        rate_qps,
        k,
        first_at: 2.0,
        last_at: (duration - 10.0).max(duration * 0.5),
    };
    admission_experiment(nodes, duration, max_speed, &load, serving)
}

/// Whether running `exp` over the sweep seeds `0..parallel.len()` of
/// `seed` one after another reproduces the `ParallelSweep` metrics
/// `parallel`, per-query rows included. `Debug` text round-trips `f64`
/// exactly and renders NaN (a never-completed query's latency) equal to
/// itself, unlike `PartialEq`.
pub fn matches_sequential(exp: &Experiment, seed: u64, parallel: &[RunMetrics]) -> bool {
    let sequential: Vec<RunMetrics> = (0..parallel.len())
        .map(|i| exp.run_once(Experiment::sweep_seed(seed, i)))
        .collect();
    format!("{sequential:?}") == format!("{parallel:?}")
}

/// The paper's default scenario with the configured duration.
pub fn default_scenario() -> ScenarioConfig {
    ScenarioConfig {
        duration: duration(),
        ..ScenarioConfig::default()
    }
}

/// Default workload adjusted to the configured duration.
pub fn default_workload() -> WorkloadConfig {
    let duration = duration();
    WorkloadConfig {
        last_at: (duration - 20.0).max(duration * 0.5),
        ..WorkloadConfig::default()
    }
}

/// Run one experiment cell and return the aggregate.
pub fn run_cell(
    protocol: ProtocolKind,
    scenario: ScenarioConfig,
    workload: WorkloadConfig,
) -> Aggregate {
    Experiment::new(protocol, scenario, workload).run(runs(), base_seed())
}

/// Run one experiment cell with a fault plan installed.
pub fn run_cell_faulted(
    protocol: ProtocolKind,
    scenario: ScenarioConfig,
    workload: WorkloadConfig,
    plan: diknn_sim::FaultPlan,
) -> Aggregate {
    let mut exp = Experiment::new(protocol, scenario, workload);
    exp.fault_plan = Some(plan);
    exp.run(runs(), base_seed())
}

/// Print one row of an experiment table (human text + a `csv,` line).
pub fn print_row(figure: &str, x_name: &str, x: f64, proto: &str, agg: &Aggregate) {
    println!(
        "{figure} {x_name}={x:<6} {proto:10} latency={:.3}±{:.3}s energy={:.3}±{:.3}J \
         pre={:.3} post={:.3} completion={:.2}",
        agg.latency_s.mean,
        agg.latency_s.std,
        agg.energy_j.mean,
        agg.energy_j.std,
        agg.pre_accuracy.mean,
        agg.post_accuracy.mean,
        agg.completion_rate.mean,
    );
    println!(
        "csv,{figure},{x_name},{x},{proto},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
        agg.latency_s.mean,
        agg.latency_s.std,
        agg.energy_j.mean,
        agg.energy_j.std,
        agg.pre_accuracy.mean,
        agg.post_accuracy.mean,
        agg.completion_rate.mean,
    );
}

/// Header explaining the csv columns, printed once per binary.
pub fn print_csv_header() {
    println!(
        "csv,figure,x_name,x,protocol,latency_mean,latency_std,energy_mean,energy_std,\
         pre_accuracy,post_accuracy,completion_rate"
    );
}

/// Print one row of a fault-sweep table: the usual metrics plus the
/// degradation taxonomy (degraded rate, watchdog re-issues, sink retries,
/// nodes lost).
pub fn print_fault_row(figure: &str, x_name: &str, x: f64, proto: &str, agg: &Aggregate) {
    println!(
        "{figure} {x_name}={x:<5} {proto:10} completion={:.2} degraded={:.2} \
         latency={:.3}±{:.3}s energy={:.3}±{:.3}J post={:.3} \
         reissues={:.1} retries={:.1} lost_nodes={:.1}",
        agg.completion_rate.mean,
        agg.degraded_rate.mean,
        agg.latency_s.mean,
        agg.latency_s.std,
        agg.energy_j.mean,
        agg.energy_j.std,
        agg.post_accuracy.mean,
        agg.tokens_reissued.mean,
        agg.query_retries.mean,
        agg.nodes_failed.mean,
    );
    println!(
        "csv,{figure},{x_name},{x},{proto},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
        agg.completion_rate.mean,
        agg.degraded_rate.mean,
        agg.latency_s.mean,
        agg.latency_s.std,
        agg.energy_j.mean,
        agg.energy_j.std,
        agg.post_accuracy.mean,
        agg.tokens_reissued.mean,
        agg.query_retries.mean,
        agg.nodes_failed.mean,
    );
}

/// Header for the fault-sweep csv columns, printed once per binary.
pub fn print_fault_csv_header() {
    println!(
        "csv,figure,x_name,x,protocol,completion_rate,degraded_rate,latency_mean,latency_std,\
         energy_mean,energy_std,post_accuracy,tokens_reissued,query_retries,nodes_failed"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Do not set the env vars here (tests run in parallel in one
        // process); just check the defaults parse path.
        assert!(runs() >= 1);
        assert!(duration() > 0.0);
        assert!(threads() >= 1);
        let _ = base_seed();
    }

    #[test]
    fn env_list_keeps_parsed_tokens_that_pass() {
        // A variable no other test reads, so setting it cannot race.
        let name = "DIKNN_TEST_ENV_LIST";
        let positive = |v: &usize| *v > 0;
        assert_eq!(env_list(name, &[7], positive), vec![7]);
        std::env::set_var(name, " 3, x,0 ,5,");
        assert_eq!(env_list(name, &[7], positive), vec![3, 5]);
        std::env::set_var(name, "0,y");
        assert_eq!(env_list(name, &[7], positive), vec![7]);
        std::env::remove_var(name);
    }

    #[test]
    fn default_configs_are_consistent() {
        let s = default_scenario();
        let w = default_workload();
        assert!(w.last_at < s.duration);
        assert!(w.first_at < w.last_at);
    }
}
