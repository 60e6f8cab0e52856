//! End-to-end continuous KNN monitoring: periodic rounds complete, deltas
//! are consistent, churn scales with mobility, and rounds are classified
//! exactly as DIKNN classifies its queries.

use std::collections::BTreeSet;
use std::sync::Arc;

use diknn_core::{
    ContinuousKnn, Diknn, DiknnConfig, KnnProtocol, MonitorRequest, QueryStatus, RoundDelta,
    ServingConfig,
};
use diknn_geom::{Point, Rect};
use diknn_mobility::{placement, RandomWaypoint, RwpConfig, StaticMobility};
use diknn_sim::{
    NodeId, ProtoEvent, SharedMobility, SimConfig, SimDuration, Simulator, TraceConfig, TraceKind,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Classify still-pending rounds, then replay the recorded trace against
/// all protocol laws. Call after every `sim.run()`.
fn finish_and_check<P: KnnProtocol>(sim: &mut Simulator<P>) {
    let (proto, ctx) = sim.split_mut();
    proto.finish(ctx);
    diknn_workloads::invariants::assert_clean(ctx.trace(), proto.outcomes());
}

const FIELD: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 115.0,
    max_y: 115.0,
};

fn network(speed: f64, seed: u64) -> Vec<SharedMobility> {
    let mut rng = SmallRng::seed_from_u64(seed);
    placement::uniform(FIELD, 180, &mut rng)
        .into_iter()
        .map(|p| {
            if speed > 0.0 {
                Arc::new(RandomWaypoint::new(
                    p,
                    &RwpConfig::new(FIELD, speed, 90.0),
                    &mut rng,
                )) as SharedMobility
            } else {
                Arc::new(StaticMobility::new(p)) as SharedMobility
            }
        })
        .collect()
}

/// Run `plan`'s rounds on a plain DIKNN instance, classify and check
/// them, and return the simulator.
fn run_plan(
    plan: &ContinuousKnn,
    cfg: DiknnConfig,
    secs: f64,
    speed: f64,
    seed: u64,
) -> Simulator<Diknn> {
    let sim_cfg = SimConfig {
        time_limit: SimDuration::from_secs_f64(secs),
        trace: TraceConfig::enabled(),
        ..SimConfig::default()
    };
    let protocol = Diknn::new(cfg, plan.requests().to_vec());
    let mut sim = Simulator::new(sim_cfg, network(speed, seed), protocol, seed);
    sim.warm_neighbor_tables();
    sim.run();
    finish_and_check(&mut sim);
    sim
}

fn run_monitor(speed: f64, seed: u64) -> (usize, usize, f64) {
    let monitor = MonitorRequest {
        start_at: 2.0,
        period: 8.0,
        rounds: 5,
        sink: NodeId(0),
        q: Point::new(57.0, 57.0),
        k: 10,
    };
    let plan = ContinuousKnn::new(vec![monitor]);
    let sim = run_plan(&plan, DiknnConfig::default(), 60.0, speed, seed);
    let outcomes = sim.protocol().outcomes();
    let completed = outcomes.iter().filter(|o| o.completed_at.is_some()).count();
    let deltas = plan.deltas(outcomes);
    (completed, deltas.len(), plan.mean_churn(&deltas))
}

#[test]
fn all_rounds_complete_and_deltas_cover_them() {
    let (completed, rounds, _) = run_monitor(10.0, 5);
    assert_eq!(rounds, 5);
    assert!(completed >= 4, "only {completed}/5 rounds completed");
}

#[test]
fn static_network_has_near_zero_churn() {
    let (_, _, churn) = run_monitor(0.0, 7);
    assert!(
        churn < 0.25,
        "static churn should be small (protocol noise only): {churn}"
    );
}

#[test]
fn churn_grows_with_mobility() {
    let (_, _, slow) = run_monitor(0.0, 9);
    let (_, _, fast) = run_monitor(25.0, 9);
    assert!(
        fast > slow + 0.1,
        "churn must rise with speed: static {slow} vs fast {fast}"
    );
    // At 25 m/s over 8 s the set rotates substantially but not fully.
    assert!(fast > 0.2 && fast <= 2.0, "implausible churn {fast}");
}

#[test]
fn first_round_delta_is_the_full_answer() {
    let monitor = MonitorRequest {
        start_at: 1.0,
        period: 10.0,
        rounds: 2,
        sink: NodeId(3),
        q: Point::new(40.0, 70.0),
        k: 8,
    };
    let plan = ContinuousKnn::new(vec![monitor]);
    let sim = run_plan(&plan, DiknnConfig::default(), 30.0, 5.0, 11);
    let deltas: Vec<RoundDelta> = plan.deltas(sim.protocol().outcomes());
    let first = &deltas[0];
    assert_eq!(first.round, 0);
    assert!(first.left.is_empty());
    assert_eq!(first.joined, first.answer);
    // Second round: joined/left must be consistent with the answers.
    let second = &deltas[1];
    for n in &second.joined {
        assert!(second.answer.contains(n));
        assert!(!first.answer.contains(n));
    }
    for n in &second.left {
        assert!(first.answer.contains(n));
        assert!(!second.answer.contains(n));
    }
}

/// With the serving layer on, a monitor's rounds are classified by DIKNN's
/// own end-of-run rules: rounds still parked behind admission when time
/// runs out were never executed, so they end `rejected`, not `token-lost`.
#[test]
fn rounds_parked_behind_admission_end_rejected() {
    // Twelve monitors, each issuing one round at t = 1 s. Their points are
    // 25 m apart, farther than the 10 m merge and cache radii, so no round
    // rides another: the first eight fill the admission ceiling of eight
    // and the other four are deferred. A deferral at depth eight with no
    // completion yet waits the 4 s cap, so a run that ends at 4 s still
    // has those four parked, none of them out of deferrals.
    let monitors = (0..12)
        .map(|i| MonitorRequest {
            start_at: 1.0,
            period: 1.0,
            rounds: 1,
            sink: NodeId(0),
            q: Point::new(20.0 + 25.0 * (i % 4) as f64, 30.0 + 25.0 * (i / 4) as f64),
            k: 10,
        })
        .collect();
    let cfg = DiknnConfig {
        serving: ServingConfig::enabled(),
        ..DiknnConfig::default()
    };
    let plan = ContinuousKnn::new(monitors);
    let sim = run_plan(&plan, cfg, 4.0, 0.0, 3);
    let serving = |pick: fn(&ProtoEvent) -> Option<u32>| -> BTreeSet<u32> {
        let events = sim.ctx().trace().events();
        events
            .filter_map(|e| match &e.kind {
                TraceKind::Proto(p) => pick(p),
                _ => None,
            })
            .collect()
    };
    let admitted = serving(|p| match p {
        ProtoEvent::QueryAdmitted { qid, .. } => Some(*qid),
        _ => None,
    });
    let terminally_rejected = serving(|p| match p {
        ProtoEvent::QueryRejected {
            qid,
            terminal: true,
            ..
        } => Some(*qid),
        _ => None,
    });
    let outcomes = sim.protocol().outcomes();
    assert_eq!(outcomes.len(), 12);
    assert!(terminally_rejected.is_empty(), "{terminally_rejected:?}");
    let parked: Vec<u32> = (0..12).filter(|q| !admitted.contains(q)).collect();
    assert_eq!(
        parked,
        [8, 9, 10, 11],
        "the rounds past the ceiling stay parked"
    );
    for o in outcomes {
        if parked.contains(&o.qid) {
            assert_eq!(o.status, QueryStatus::Rejected, "parked round {}", o.qid);
        } else {
            assert_ne!(o.status, QueryStatus::Rejected, "admitted round {}", o.qid);
        }
    }
}
