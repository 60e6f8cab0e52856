//! Soak regression suite: three pinned long-horizon resident-service
//! scenarios, each 1000 simulated seconds — an order of magnitude past the
//! longest batch test — checked for total accounting (every arrival
//! reaches a terminal status), finite rolling metrics at every sampled
//! epoch, and the full invariant law set (laws 1–9) over the flight
//! recorder.

use diknn_core::{DiknnConfig, KnnProtocol, QueryStatus, ServingConfig};
use diknn_geom::Point;
use diknn_sim::{FaultPlan, FaultRegion, JamZone, SimDuration};
use diknn_workloads::{
    invariants, RateSchedule, ScenarioConfig, ServiceConfig, ServiceMetrics, ServiceRun,
};

const HORIZON_S: f64 = 1000.0;
const EPOCH_S: f64 = 5.0;
const EPOCHS: u64 = (HORIZON_S / EPOCH_S) as u64;

fn soak_scenario(nodes: usize, max_speed: f64) -> ScenarioConfig {
    ScenarioConfig {
        nodes,
        max_speed,
        duration: HORIZON_S,
        ..ScenarioConfig::default()
    }
}

fn assert_finite(m: &ServiceMetrics) {
    assert!(m.sim_time_s.is_finite(), "{m:?}");
    assert!(m.completion_rate.is_finite(), "{m:?}");
    assert!(
        m.latency_p50_s.is_finite() && m.latency_p50_s >= 0.0,
        "{m:?}"
    );
    assert!(
        m.latency_p95_s.is_finite() && m.latency_p95_s >= 0.0,
        "{m:?}"
    );
    assert!(m.latency_p50_s <= m.latency_p95_s + 1e-12, "{m:?}");
    assert!(
        m.joules_per_query.is_finite() && m.joules_per_query >= 0.0,
        "{m:?}"
    );
}

/// Drive a run to the full horizon in bursts, checking the rolling metrics
/// at every sampling point, then tear down and run the invariant checker.
/// Returns the status census.
fn soak(cfg: ServiceConfig, seed: u64) -> (u64, Vec<(QueryStatus, usize)>) {
    // Only fault mechanisms that take nodes down can swallow an issue
    // timer; link loss and jamming cannot.
    let cfg_allows_no_loss = cfg.faults.crashes.is_empty()
        && cfg.faults.random_crashes.is_none()
        && cfg.faults.energy_budget_j.is_none()
        && cfg.faults.churn.is_none();
    let mut run = ServiceRun::new(cfg, seed);
    let burst = 20; // sample metrics every 20 epochs (100 s)
    let mut done = 0;
    while done < EPOCHS {
        let n = burst.min(EPOCHS - done);
        run.run_epochs(n);
        done += n;
        assert_finite(&run.metrics());
    }
    assert!(
        (run.sim().ctx().now().as_secs_f64() - HORIZON_S).abs() < EPOCH_S + 1.0,
        "run should have reached the horizon"
    );
    let injected = run.injected();
    let never_issued = run.metrics().never_issued;
    let (protocol, ctx) = run.finish();
    // Laws 1–9 over the whole recorded history.
    invariants::assert_clean(ctx.trace(), protocol.outcomes());
    // Total accounting: every injected request either issued (and below,
    // reached a terminal status) or died client-side because its sink was
    // offline at issue time — the engine suppresses timers of down nodes.
    assert_eq!(
        protocol.outcomes().len() as u64 + never_issued,
        injected,
        "request accounting must balance"
    );
    if cfg_allows_no_loss {
        assert_eq!(
            never_issued, 0,
            "without churn or crashes every request must issue"
        );
    }
    let mut census: Vec<(QueryStatus, usize)> = Vec::new();
    for o in protocol.outcomes() {
        assert_ne!(
            o.status,
            QueryStatus::Pending,
            "query {} never reached a terminal status",
            o.qid
        );
        match census.iter_mut().find(|(s, _)| *s == o.status) {
            Some((_, n)) => *n += 1,
            None => census.push((o.status, 1)),
        }
    }
    (injected, census)
}

fn count(census: &[(QueryStatus, usize)], s: QueryStatus) -> usize {
    census
        .iter()
        .find(|(k, _)| *k == s)
        .map(|(_, n)| *n)
        .unwrap_or(0)
}

/// Scenario 1: steady node churn for the whole horizon — a quarter of the
/// population cycles through leave/rejoin with state loss while queries
/// keep arriving.
#[test]
fn soak_steady_churn() {
    let mut cfg = ServiceConfig::new(soak_scenario(110, 5.0), RateSchedule::constant(0.4));
    cfg.k = 8;
    cfg.faults = FaultPlan::churning(0.25, 60.0, 20.0, 5.0, HORIZON_S - 50.0);
    let (injected, census) = soak(cfg, 71);
    assert!(injected > 300, "expected ~400 arrivals, got {injected}");
    let completed = count(&census, QueryStatus::Completed);
    assert!(
        completed as f64 / injected as f64 > 0.3,
        "churn should degrade but not destroy completion: {census:?}"
    );
}

/// Scenario 2: a rate step into overload with the serving layer on — the
/// admission ceiling sheds and coalesces the burst at the sink, and every
/// shed query still ends in a terminal status.
#[test]
fn soak_rate_step_overload() {
    let mut cfg = ServiceConfig::new(
        soak_scenario(120, 0.0),
        RateSchedule::new(vec![(0.0, 0.4), (300.0, 6.0), (400.0, 0.4)]),
    );
    cfg.k = 8;
    cfg.diknn = DiknnConfig {
        serving: ServingConfig::enabled(),
        ..DiknnConfig::default()
    };
    let (injected, census) = soak(cfg, 72);
    assert!(
        injected > 700,
        "the step should add ~560 arrivals: {injected}"
    );
    let shed = count(&census, QueryStatus::Rejected)
        + count(&census, QueryStatus::Merged)
        + count(&census, QueryStatus::CacheHit);
    assert!(
        shed > 0,
        "a 15x overload step must exercise the serving layer: {census:?}"
    );
    assert!(
        count(&census, QueryStatus::Completed) > 0,
        "steady-state traffic must still complete: {census:?}"
    );
}

/// Scenario 3: a jamming sweep — a mid-field interferer switches on for
/// 200 s in the middle of the run, killing most receptions inside its
/// disc, then clears.
#[test]
fn soak_jam_zone_sweep() {
    let mut cfg = ServiceConfig::new(soak_scenario(110, 0.0), RateSchedule::constant(0.4));
    cfg.k = 8;
    cfg.faults = FaultPlan {
        jam_zones: vec![JamZone {
            region: FaultRegion::Circle {
                center: Point::new(57.5, 57.5),
                radius: 30.0,
            },
            from: SimDuration::from_secs_f64(400.0),
            until: SimDuration::from_secs_f64(600.0),
            loss: 0.85,
        }],
        ..FaultPlan::default()
    };
    let (injected, census) = soak(cfg, 73);
    assert!(injected > 300, "expected ~400 arrivals, got {injected}");
    assert!(
        count(&census, QueryStatus::Completed) as f64 / injected as f64 > 0.4,
        "jamming is localised and temporary; most queries should complete: {census:?}"
    );
}
