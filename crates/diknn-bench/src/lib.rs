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
// Shared strict-lint header (checked by `cargo xtask lint`): the
// simulation stack must stay safe Rust, and determinism rules are enforced
// by clippy `disallowed-types`/`disallowed-methods` plus `cargo xtask lint`.
#![forbid(unsafe_code)]
#![deny(unused_must_use)]

pub mod report;
pub mod svg;

use diknn_workloads::{Aggregate, Experiment, ProtocolKind, ScenarioConfig, WorkloadConfig};

/// Runs-per-cell from `DIKNN_RUNS` (default 5, floor 1).
pub fn runs() -> usize {
    std::env::var("DIKNN_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
        .max(1)
}

/// Base seed from `DIKNN_SEED` (default 1000).
pub fn base_seed() -> u64 {
    std::env::var("DIKNN_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

/// Simulated duration from `DIKNN_DURATION` (default 100 s, as the paper).
pub fn duration() -> f64 {
    std::env::var("DIKNN_DURATION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100.0)
}

/// Sweep worker threads from `DIKNN_THREADS` (default: the machine's
/// available parallelism, floor 1). Parallelism never changes results —
/// see `diknn_workloads::parallel` — so this is purely a wall-time knob.
pub fn threads() -> usize {
    std::env::var("DIKNN_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| diknn_workloads::ParallelSweep::available().threads())
        .max(1)
}

/// The paper's default scenario with the configured duration.
pub fn default_scenario() -> ScenarioConfig {
    let duration = duration();
    let mut wl_last = duration - 20.0;
    if wl_last < 5.0 {
        wl_last = duration * 0.6;
    }
    let _ = wl_last;
    ScenarioConfig {
        duration,
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
    fn default_configs_are_consistent() {
        let s = default_scenario();
        let w = default_workload();
        assert!(w.last_at < s.duration);
        assert!(w.first_at < w.last_at);
    }
}
