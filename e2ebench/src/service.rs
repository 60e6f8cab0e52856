//! The resident-service lifecycle of `service_churn`, driven through
//! `ServiceRun`'s public functions: build, epochs, snapshot, drop,
//! restore, more epochs, export, finish.

use diknn_core::{KnnProtocol, ServingConfig};
use diknn_sim::{FaultPlan, SharedMobility};
use diknn_workloads::{
    invariants, GroundTruth, RateSchedule, RunMetrics, ScenarioConfig, ServiceConfig, ServiceRun,
};

use crate::spans::{self, Probe};
use crate::stats::digest;
use crate::{timed, verdict, wrap, Counts};

/// Epochs per lifecycle and the epoch after which the run is
/// snapshotted, dropped and restored.
pub const EPOCHS: u64 = 60;
pub const CUT: u64 = 30;

/// 500 nodes at degree 20, µmax 5 m/s, serving on, 20 % churn, λ = 2 q/s,
/// 60 epochs of 5 s.
pub fn config() -> ServiceConfig {
    let epoch_s = 5.0;
    let duration = EPOCHS as f64 * epoch_s;
    let scenario = ScenarioConfig {
        nodes: 500,
        max_speed: 5.0,
        duration,
        ..ScenarioConfig::default()
    }
    .with_node_degree(20.0, 20.0);
    let mut cfg = ServiceConfig::new(scenario, RateSchedule::constant(2.0));
    cfg.epoch_s = epoch_s;
    cfg.diknn.serving = ServingConfig::enabled();
    cfg.faults = FaultPlan::churning(0.2, 60.0, 20.0, 5.0, duration - 20.0);
    cfg
}

/// Trace fingerprint of a straight-through run: the reference side of the
/// restore-equivalence law.
pub fn straight_through(cfg: &ServiceConfig, seed: u64) -> u64 {
    let mut run = ServiceRun::new(cfg.clone(), seed);
    run.run_epochs(EPOCHS);
    run.trace_fingerprint()
}

/// One lifecycle.
pub struct ServiceOut {
    pub metrics: RunMetrics,
    /// FNV-1a over the trace fingerprint and the `ServiceMetrics` Debug
    /// string.
    pub digest: u64,
    pub fingerprint: u64,
    pub setup_s: f64,
    /// Host seconds of each `run_epochs(1)` call.
    pub epochs_s: Vec<f64>,
    pub restore_s: f64,
    pub counts: Counts,
    /// The oracle's plans when tracing (for the mobility calibration loop).
    pub plans: Vec<SharedMobility>,
}

pub fn lifecycle(cfg: &ServiceConfig, seed: u64, probe: &mut Probe) -> Result<ServiceOut, String> {
    let (mut run, setup_s) = timed(|| {
        probe.span("service.new", spans::SETUP, || {
            ServiceRun::new(cfg.clone(), seed)
        })
    });
    let mut epochs_s = Vec::new();
    let mut epoch = |run: &mut ServiceRun, probe: &mut Probe| {
        let ((), s) =
            timed(|| probe.span("service.run_epochs", spans::ENGINE, || run.run_epochs(1)));
        epochs_s.push(s);
    };
    for _ in 0..CUT {
        epoch(&mut run, probe);
    }
    // Performance counters restart at zero on restore: keep the first half.
    let perf_before = *run.sim().ctx().perf();
    let image = probe.span("service.snapshot", spans::SNAP, || run.snapshot());
    drop(run);
    let (restored, restore_s) = timed(|| {
        probe.span("service.restore", spans::SNAP, || {
            ServiceRun::restore(&image, cfg.clone())
        })
    });
    let mut run = restored.map_err(|e| format!("restore failed: {e}"))?;
    for _ in CUT..EPOCHS {
        epoch(&mut run, probe);
    }
    let export = probe.span("service.export", spans::SERVICE, || run.metrics_export());
    let (fingerprint, service_metrics) = probe.span("service.digest", spans::SERVICE, || {
        (run.trace_fingerprint(), run.metrics())
    });
    let digest = digest(&format!("{fingerprint:016x} {service_metrics:?}"));
    let perf_after = *run.sim().ctx().perf();
    let (protocol, ctx) = probe.span("service.finish", spans::PROTOCOL, || run.finish());
    let violations = probe.span("invariants.check", spans::INVARIANTS, || {
        invariants::check(ctx.trace(), protocol.outcomes())
    });
    let plans = probe.span("scenario.build", spans::SCENARIO, || {
        cfg.scenario.build(seed)
    });
    let plans = if probe.on() {
        wrap::counting(plans)
    } else {
        plans
    };
    let oracle = GroundTruth::new(plans.clone(), cfg.scenario.nodes);
    let stats = *ctx.stats();
    let metrics = probe.span("metrics.compute", spans::ORACLE, || {
        RunMetrics::compute(
            protocol.outcomes(),
            &stats,
            ctx.total_protocol_energy_j(),
            ctx.flow_energy_j(),
            &oracle,
        )
    });
    verdict(&violations, &metrics)?;
    if export.is_empty() {
        return Err("empty metrics export".into());
    }
    let mut counts = Counts::default();
    counts.engine(&stats, &perf_after);
    counts.perf(&perf_before);
    counts.queries(&metrics);
    counts.add("inv.records", ctx.trace().len() as f64);
    counts.add("service.epochs", EPOCHS as f64);
    counts.add("service.injected", service_metrics.injected as f64);
    counts.add("scenario.plans", plans.len() as f64);
    counts.add("scenario.requests", service_metrics.injected as f64);
    counts.add("service.never_issued", service_metrics.never_issued as f64);
    counts.add("snap.bytes", image.len() as f64);
    Ok(ServiceOut {
        metrics,
        digest,
        fingerprint,
        setup_s,
        epochs_s,
        restore_s,
        counts,
        plans: if probe.on() { plans } else { Vec::new() },
    })
}
