//! `service_soak` — the resident service mode under churn, with a
//! snapshot/restore equivalence check.
//!
//! One long-lived simulator is driven in epochs by streaming arrivals
//! (`RateSchedule`) over a churning population, twice:
//!
//! * **reference** — straight to the horizon, and
//! * **interrupted** — to the midpoint, then snapshot → drop → restore →
//!   on to the horizon.
//!
//! Three hard checks decide the exit code (CI's soak-smoke job relies on
//! them):
//!
//! 1. the interrupted run's flight-recorder trace is *bit-identical* to
//!    the reference run's (the restore-equivalence law),
//! 2. every issued query reaches a terminal classification and the run
//!    passes the full invariant law set (laws 1–9),
//! 3. the rolling metrics stay finite at every sampled epoch.
//!
//! Output: a human log on stdout and in `results/service_soak.txt`, the
//! final metrics in scrape-friendly line format in
//! `results/service_soak_metrics.prom`, and machine-readable
//! `results/BENCH_service_soak.json`.
//!
//! Knobs:
//!
//! * `DIKNN_SEED`       — run seed (default 1000)
//! * `DIKNN_DURATION`   — simulated seconds (default 300)
//! * `DIKNN_SVC_NODES`  — node count (default 150)
//! * `DIKNN_SVC_RATE`   — arrival rate in queries/sec (default 0.5)
//!
//! Every run uses 5 s epochs, µmax 5 m/s, k = 10 and 20 % churn.

// Wall-clock timing never feeds back into simulation state, so the
// determinism ban is lifted here (the xtask pass is exempted per call site
// with `// lint: wall-clock-ok`).
#![allow(clippy::disallowed_methods)]

use std::time::Instant; // lint: wall-clock-ok (host-side benchmark timing)

use diknn_bench::report::{gate, write_results, Json};
use diknn_bench::{base_seed, env_f64, env_usize};
use diknn_core::{KnnProtocol, QueryStatus, ServingConfig};
use diknn_sim::FaultPlan;
use diknn_workloads::{
    invariants, RateSchedule, ScenarioConfig, ServiceConfig, ServiceMetrics, ServiceRun,
};

/// Epoch length in seconds.
const EPOCH_S: f64 = 5.0;
/// Maximum node speed µmax in m/s.
const SPEED: f64 = 5.0;
/// Fraction of the population that churns.
const CHURN: f64 = 0.2;
/// Neighbours requested per query.
const K: usize = 10;

fn service_cfg(nodes: usize, duration: f64, rate: f64) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(
        ScenarioConfig {
            nodes,
            max_speed: SPEED,
            duration,
            ..ScenarioConfig::default()
        },
        RateSchedule::constant(rate),
    );
    cfg.k = K;
    cfg.epoch_s = EPOCH_S;
    cfg.diknn.serving = ServingConfig::enabled();
    cfg.faults = FaultPlan::churning(CHURN, 60.0, 20.0, 5.0, (duration - 20.0).max(5.0));
    cfg
}

/// Every rolling metric is finite, except the latency percentiles, which
/// are both NaN while the latency window is empty (no query has finished).
fn metrics_finite(m: &ServiceMetrics) -> bool {
    let (p50, p95) = (m.latency_p50_s, m.latency_p95_s);
    let empty_window = p50.is_nan() && p95.is_nan();
    m.sim_time_s.is_finite()
        && m.completion_rate.is_finite()
        && (empty_window || (p50.is_finite() && p95.is_finite()))
        && m.joules_per_query.is_finite()
}

fn main() {
    let seed = base_seed();
    let duration = env_f64("DIKNN_DURATION", 300.0).max(20.0);
    let nodes = env_usize("DIKNN_SVC_NODES", 150).max(10);
    let rate = env_f64("DIKNN_SVC_RATE", 0.5).max(0.01);
    let epochs = (duration / EPOCH_S).floor() as u64;
    let cut = epochs / 2;

    let mut out = String::new();
    let mut line = |s: String| {
        println!("{s}");
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "service_soak: resident DIKNN service, {nodes} nodes, {rate} q/s, \
         churn {CHURN}, {epochs} epochs x {EPOCH_S}s"
    ));
    line(format!(
        "seed={seed} duration={duration}s speed={SPEED} k={K} snapshot_at_epoch={cut}"
    ));

    let cfg = service_cfg(nodes, duration, rate);

    // Reference: uninterrupted run, sampling metrics every 10 epochs.
    let t0 = Instant::now(); // lint: wall-clock-ok
    let mut reference = ServiceRun::new(cfg.clone(), seed);
    let mut metrics_ok = true;
    let mut done = 0;
    while done < epochs {
        let n = 10.min(epochs - done);
        reference.run_epochs(n);
        done += n;
        let m = reference.metrics();
        if !metrics_finite(&m) {
            metrics_ok = false;
            line(format!("NON-FINITE metrics at epoch {done}: {m:?}"));
        }
    }
    let reference_wall = t0.elapsed().as_secs_f64();
    let reference_fp = reference.trace_fingerprint();
    let final_metrics = reference.metrics();
    line(format!(
        "reference: {} injected, {} issued, completion {:.3}, p50 {:.3}s, \
         p95 {:.3}s, {:.4} J/query, wall {:.1}s",
        final_metrics.injected,
        final_metrics.issued,
        final_metrics.completion_rate,
        final_metrics.latency_p50_s,
        final_metrics.latency_p95_s,
        final_metrics.joules_per_query,
        reference_wall,
    ));

    // Interrupted twin: run to the midpoint, serialize, drop, restore,
    // run to the horizon.
    let t1 = Instant::now(); // lint: wall-clock-ok
    let mut head = ServiceRun::new(cfg.clone(), seed);
    head.run_epochs(cut);
    let snapshot = head.snapshot();
    let snap_bytes = snapshot.len();
    drop(head);
    let mut restored = match ServiceRun::restore(&snapshot, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: snapshot did not restore: {e:?}");
            std::process::exit(1);
        }
    };
    restored.run_epochs(epochs - cut);
    let interrupted_wall = t1.elapsed().as_secs_f64();
    let restored_fp = restored.trace_fingerprint();
    let equivalent = restored_fp == reference_fp && restored.metrics() == final_metrics;
    line(format!(
        "interrupted: snapshot {snap_bytes} B at epoch {cut}, trace fp \
         {restored_fp:016x} vs {reference_fp:016x}, equivalent={equivalent}, \
         wall {interrupted_wall:.1}s"
    ));

    // Tear down the reference run and check the law set + accounting.
    let prom = reference.metrics_export();
    let (protocol, ctx) = reference.finish();
    let violations = invariants::check(ctx.trace(), protocol.outcomes());
    for v in &violations {
        line(format!("VIOLATION: {v}"));
    }
    let non_terminal = protocol
        .outcomes()
        .iter()
        .filter(|o| o.status == QueryStatus::Pending)
        .count();
    let all_terminal = non_terminal == 0;
    line(format!(
        "laws: {} violations; terminal: {} of {} outcomes",
        violations.len(),
        protocol.outcomes().len() - non_terminal,
        protocol.outcomes().len(),
    ));

    let m = &final_metrics;
    let json = Json::obj([
        ("bench", "service_soak".into()),
        ("schema_version", 1usize.into()),
        (
            "config",
            Json::obj([
                ("seed", Json::UInt(seed)),
                ("duration_s", Json::Fixed(duration, 1)),
                ("nodes", nodes.into()),
                ("rate_qps", Json::Num(rate)),
                ("epoch_s", Json::Num(EPOCH_S)),
                ("max_speed", Json::Num(SPEED)),
                ("churn_fraction", Json::Num(CHURN)),
                ("k", K.into()),
                ("epochs", Json::UInt(epochs)),
                ("snapshot_epoch", Json::UInt(cut)),
            ]),
        ),
        (
            "metrics",
            Json::obj([
                ("injected", Json::UInt(m.injected)),
                ("issued", Json::UInt(m.issued)),
                ("never_issued", Json::UInt(m.never_issued)),
                ("terminal", Json::UInt(m.terminal)),
                ("completion_rate", Json::Fixed(m.completion_rate, 4)),
                ("latency_p50_s", Json::Fixed(m.latency_p50_s, 6)),
                ("latency_p95_s", Json::Fixed(m.latency_p95_s, 6)),
                ("joules_per_query", Json::Fixed(m.joules_per_query, 6)),
                ("nodes_alive", Json::UInt(m.nodes_alive)),
            ]),
        ),
        (
            "checks",
            Json::obj([
                ("snapshot_bytes", snap_bytes.into()),
                ("restore_equivalent", Json::Bool(equivalent)),
                ("all_terminal", Json::Bool(all_terminal)),
                ("metrics_finite", Json::Bool(metrics_ok)),
                ("invariant_violations", violations.len().into()),
            ]),
        ),
        (
            "wall",
            Json::obj([
                ("reference_s", Json::Fixed(reference_wall, 3)),
                ("interrupted_s", Json::Fixed(interrupted_wall, 3)),
            ]),
        ),
    ])
    .render();
    write_results(&[
        ("BENCH_service_soak.json", &json),
        ("service_soak.txt", &out),
        ("service_soak_metrics.prom", &prom),
    ]);
    gate(
        &[
            (
                equivalent,
                "restored run diverged from the uninterrupted reference".into(),
            ),
            (
                all_terminal,
                format!("{non_terminal} queries never reached a terminal classification"),
            ),
            (
                violations.is_empty(),
                format!("{} invariant violations", violations.len()),
            ),
            (metrics_ok, "rolling metrics went non-finite".into()),
        ],
        &format!(
            "restore bit-identical over {epochs} epochs, {} queries all classified, laws clean",
            final_metrics.issued
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_latency_window_is_not_a_non_finite_metric() {
        let run = ServiceRun::new(service_cfg(30, 20.0, 0.5), 1);
        let empty = run.metrics();
        assert!(empty.latency_p50_s.is_nan(), "{empty:?}");
        assert!(metrics_finite(&empty), "{empty:?}");
        let half = ServiceMetrics {
            latency_p95_s: 1.0,
            ..empty.clone()
        };
        assert!(!metrics_finite(&half), "{half:?}");
        let energy = ServiceMetrics {
            joules_per_query: f64::NAN,
            ..empty
        };
        assert!(!metrics_finite(&energy), "{energy:?}");
    }
}
