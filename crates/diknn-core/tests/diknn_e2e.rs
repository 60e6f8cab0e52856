//! End-to-end DIKNN runs over the simulator: accuracy against exact ground
//! truth, mobility behaviour, configuration variants, determinism. Every
//! run records a flight-recorder trace and is replayed against the
//! protocol invariants (`diknn_workloads::invariants`) before any metric
//! assertion — a wrong-but-lucky execution fails here even if the answer
//! happens to be accurate.

use std::sync::Arc;

use diknn_core::{CollectionScheme, Diknn, DiknnConfig, KnnProtocol, QueryRequest};
use diknn_geom::{Point, Rect};
use diknn_mobility::{placement, RandomWaypoint, RwpConfig, StaticMobility};
use diknn_sim::{
    LinkLossModel, NodeId, SharedMobility, SimConfig, SimDuration, Simulator, TraceConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Classify still-pending queries, then replay the recorded trace against
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

fn static_network(n: usize, seed: u64) -> (Vec<SharedMobility>, Vec<Point>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts = placement::uniform(FIELD, n, &mut rng);
    let mob = pts
        .iter()
        .map(|&p| Arc::new(StaticMobility::new(p)) as SharedMobility)
        .collect();
    (mob, pts)
}

fn mobile_network(n: usize, max_speed: f64, seed: u64) -> Vec<SharedMobility> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts = placement::uniform(FIELD, n, &mut rng);
    pts.into_iter()
        .map(|p| {
            Arc::new(RandomWaypoint::new(
                p,
                &RwpConfig::new(FIELD, max_speed, 120.0),
                &mut rng,
            )) as SharedMobility
        })
        .collect()
}

fn exact_knn(positions: &[Point], q: Point, k: usize, exclude: Option<usize>) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..positions.len())
        .filter(|&i| Some(i) != exclude)
        .collect();
    idx.sort_by(|&a, &b| {
        positions[a]
            .dist(q)
            .partial_cmp(&positions[b].dist(q))
            .unwrap()
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

fn accuracy(answer: &[NodeId], truth: &[usize]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hits = answer.iter().filter(|n| truth.contains(&n.index())).count();
    hits as f64 / truth.len() as f64
}

fn sim_config(seconds: f64) -> SimConfig {
    SimConfig {
        time_limit: SimDuration::from_secs_f64(seconds),
        trace: TraceConfig::enabled(),
        ..SimConfig::default()
    }
}

#[test]
fn static_network_high_accuracy() {
    let (mob, pts) = static_network(200, 11);
    let q = Point::new(60.0, 55.0);
    let k = 10;
    let req = QueryRequest {
        at: 0.5,
        sink: NodeId(0),
        q,
        k,
    };
    let mut sim = Simulator::new(
        sim_config(30.0),
        mob,
        Diknn::new(DiknnConfig::default(), vec![req]),
        11,
    );
    sim.warm_neighbor_tables();
    sim.run();
    finish_and_check(&mut sim);
    let o = &sim.protocol().outcomes()[0];
    assert!(o.completed_at.is_some(), "query never completed");
    let truth = exact_knn(&pts, q, k, None);
    let acc = accuracy(&o.answer, &truth);
    assert!(acc >= 0.9, "static accuracy {acc} too low: {o:?}");
    assert!(o.parts_returned >= 6, "lost sectors: {}", o.parts_returned);
}

#[test]
fn several_queries_static_accuracy_above_90_percent() {
    let (mob, pts) = static_network(200, 23);
    let queries: Vec<QueryRequest> = (0..5)
        .map(|i| QueryRequest {
            at: 0.5 + i as f64 * 4.0,
            sink: NodeId(i as u32 * 7),
            q: Point::new(20.0 + i as f64 * 18.0, 95.0 - i as f64 * 16.0),
            k: 20,
        })
        .collect();
    let mut sim = Simulator::new(
        sim_config(40.0),
        mob,
        Diknn::new(DiknnConfig::default(), queries.clone()),
        23,
    );
    sim.warm_neighbor_tables();
    sim.run();
    finish_and_check(&mut sim);
    let outcomes = sim.protocol().outcomes();
    assert_eq!(outcomes.len(), 5);
    let mut accs = Vec::new();
    for (o, req) in outcomes.iter().zip(&queries) {
        assert!(o.completed_at.is_some(), "query {} incomplete", o.qid);
        let truth = exact_knn(&pts, req.q, req.k, None);
        accs.push(accuracy(&o.answer, &truth));
    }
    let mean = accs.iter().sum::<f64>() / accs.len() as f64;
    assert!(mean >= 0.88, "mean static accuracy {mean}: {accs:?}");
}

#[test]
fn latency_is_subsecond_scale_on_static_network() {
    let (mob, _) = static_network(200, 31);
    let req = QueryRequest {
        at: 0.5,
        sink: NodeId(3),
        q: Point::new(90.0, 90.0),
        k: 20,
    };
    let mut sim = Simulator::new(
        sim_config(30.0),
        mob,
        Diknn::new(DiknnConfig::default(), vec![req]),
        31,
    );
    sim.warm_neighbor_tables();
    sim.run();
    finish_and_check(&mut sim);
    let o = &sim.protocol().outcomes()[0];
    let lat = o.latency().expect("completed");
    // The paper reports DIKNN latencies of roughly 0.5–2 s for k up to 100;
    // a k=20 query should be comfortably under 5 s.
    assert!(lat < 5.0, "latency {lat}s is out of scale");
    assert!(lat > 0.01, "latency {lat}s is implausibly small");
}

#[test]
fn mobile_network_still_answers_with_good_accuracy() {
    let mob = mobile_network(200, 10.0, 41);
    let oracle = mobile_network(200, 10.0, 41); // same seed = same plans
    let q = Point::new(55.0, 60.0);
    let k = 10;
    let req = QueryRequest {
        at: 2.0,
        sink: NodeId(1),
        q,
        k,
    };
    let mut sim = Simulator::new(
        sim_config(40.0),
        mob,
        Diknn::new(DiknnConfig::default(), vec![req]),
        41,
    );
    sim.warm_neighbor_tables();
    sim.run();
    finish_and_check(&mut sim);
    let o = &sim.protocol().outcomes()[0];
    assert!(o.completed_at.is_some(), "mobile query never completed");
    // Post-accuracy: ground truth at completion time.
    let t = o.completed_at.unwrap().as_secs_f64();
    let positions: Vec<Point> = oracle.iter().map(|m| m.position_at(t)).collect();
    let truth = exact_knn(&positions, q, k, None);
    let acc = accuracy(&o.answer, &truth);
    assert!(acc >= 0.6, "mobile post-accuracy {acc} too low");
}

#[test]
fn deterministic_outcomes_per_seed() {
    let run = |seed: u64| {
        let mob = mobile_network(120, 10.0, seed);
        let req = QueryRequest {
            at: 1.0,
            sink: NodeId(2),
            q: Point::new(70.0, 40.0),
            k: 15,
        };
        let mut sim = Simulator::new(
            sim_config(30.0),
            mob,
            Diknn::new(DiknnConfig::default(), vec![req]),
            seed,
        );
        sim.warm_neighbor_tables();
        sim.run();
        finish_and_check(&mut sim);
        let o = &sim.protocol().outcomes()[0];
        (o.answer.clone(), o.completed_at, o.boundary_radius)
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn boundary_radius_grows_with_k() {
    let (mob, _) = static_network(200, 55);
    let queries: Vec<QueryRequest> = [5usize, 20, 60]
        .iter()
        .enumerate()
        .map(|(i, &k)| QueryRequest {
            at: 0.5 + i as f64 * 8.0,
            sink: NodeId(0),
            q: Point::new(57.0, 57.0),
            k,
        })
        .collect();
    let mut sim = Simulator::new(
        sim_config(40.0),
        mob,
        Diknn::new(DiknnConfig::default(), queries),
        55,
    );
    sim.warm_neighbor_tables();
    sim.run();
    finish_and_check(&mut sim);
    let radii: Vec<f64> = sim
        .protocol()
        .outcomes()
        .iter()
        .map(|o| o.boundary_radius)
        .collect();
    assert!(radii[0] < radii[2], "boundary must grow with k: {radii:?}");
}

#[test]
fn all_collection_schemes_work() {
    for scheme in [
        CollectionScheme::Contention,
        CollectionScheme::TokenRing,
        CollectionScheme::Combined,
    ] {
        let (mob, pts) = static_network(200, 77);
        let q = Point::new(45.0, 70.0);
        let req = QueryRequest {
            at: 0.5,
            sink: NodeId(4),
            q,
            k: 10,
        };
        let cfg = DiknnConfig {
            collection: scheme,
            ..DiknnConfig::default()
        };
        let mut sim = Simulator::new(sim_config(30.0), mob, Diknn::new(cfg, vec![req]), 77);
        sim.warm_neighbor_tables();
        sim.run();
        finish_and_check(&mut sim);
        let o = &sim.protocol().outcomes()[0];
        assert!(
            o.completed_at.is_some(),
            "{scheme:?}: query never completed"
        );
        let truth = exact_knn(&pts, q, 10, None);
        let acc = accuracy(&o.answer, &truth);
        assert!(acc >= 0.8, "{scheme:?}: accuracy {acc}");
    }
}

#[test]
fn rendezvous_off_still_completes() {
    let (mob, pts) = static_network(200, 88);
    let q = Point::new(60.0, 60.0);
    let req = QueryRequest {
        at: 0.5,
        sink: NodeId(0),
        q,
        k: 15,
    };
    let cfg = DiknnConfig {
        rendezvous: false,
        ..DiknnConfig::default()
    };
    let mut sim = Simulator::new(sim_config(30.0), mob, Diknn::new(cfg, vec![req]), 88);
    sim.warm_neighbor_tables();
    sim.run();
    finish_and_check(&mut sim);
    let o = &sim.protocol().outcomes()[0];
    assert!(o.completed_at.is_some());
    let truth = exact_knn(&pts, q, 15, None);
    assert!(accuracy(&o.answer, &truth) >= 0.8);
}

#[test]
fn different_sector_counts_work() {
    for sectors in [1usize, 2, 4, 8, 16] {
        let (mob, pts) = static_network(200, 101);
        let q = Point::new(57.0, 50.0);
        let req = QueryRequest {
            at: 0.5,
            sink: NodeId(9),
            q,
            k: 10,
        };
        let cfg = DiknnConfig {
            sectors,
            ..DiknnConfig::default()
        };
        let mut sim = Simulator::new(sim_config(40.0), mob, Diknn::new(cfg, vec![req]), 101);
        sim.warm_neighbor_tables();
        sim.run();
        finish_and_check(&mut sim);
        let o = &sim.protocol().outcomes()[0];
        assert!(o.completed_at.is_some(), "S={sectors}: incomplete");
        let truth = exact_knn(&pts, q, 10, None);
        let acc = accuracy(&o.answer, &truth);
        assert!(acc >= 0.7, "S={sectors}: accuracy {acc}");
    }
}

#[test]
fn query_at_field_corner_completes() {
    // Boundary clipped by the field edge: sectors facing outside find no
    // nodes; the query must still terminate and answer.
    let (mob, pts) = static_network(200, 113);
    let q = Point::new(5.0, 5.0);
    let req = QueryRequest {
        at: 0.5,
        sink: NodeId(0),
        q,
        k: 10,
    };
    let mut sim = Simulator::new(
        sim_config(30.0),
        mob,
        Diknn::new(DiknnConfig::default(), vec![req]),
        113,
    );
    sim.warm_neighbor_tables();
    sim.run();
    finish_and_check(&mut sim);
    let o = &sim.protocol().outcomes()[0];
    assert!(o.completed_at.is_some(), "corner query never completed");
    let truth = exact_knn(&pts, q, 10, None);
    let acc = accuracy(&o.answer, &truth);
    assert!(acc >= 0.6, "corner accuracy {acc}");
}

#[test]
fn packet_loss_degrades_gracefully() {
    let (mob, pts) = static_network(200, 131);
    let q = Point::new(55.0, 55.0);
    let req = QueryRequest {
        at: 0.5,
        sink: NodeId(0),
        q,
        k: 10,
    };
    let mut cfg = sim_config(40.0);
    cfg.faults.link_loss = LinkLossModel::Uniform(0.15);
    let mut sim = Simulator::new(cfg, mob, Diknn::new(DiknnConfig::default(), vec![req]), 131);
    sim.warm_neighbor_tables();
    sim.run();
    finish_and_check(&mut sim);
    let o = &sim.protocol().outcomes()[0];
    // Under 15% loss the query should still complete (ARQ + timeout), with
    // possibly reduced accuracy — but never a crash or hang.
    if o.completed_at.is_some() {
        let truth = exact_knn(&pts, q, 10, None);
        let acc = accuracy(&o.answer, &truth);
        assert!(acc >= 0.4, "lossy accuracy collapsed: {acc}");
    }
}

#[test]
fn energy_and_traffic_are_attributed_to_protocol() {
    let (mob, _) = static_network(200, 149);
    let req = QueryRequest {
        at: 0.5,
        sink: NodeId(0),
        q: Point::new(60.0, 60.0),
        k: 20,
    };
    let mut sim = Simulator::new(
        sim_config(20.0),
        mob,
        Diknn::new(DiknnConfig::default(), vec![req]),
        149,
    );
    sim.warm_neighbor_tables();
    sim.run();
    finish_and_check(&mut sim);
    let e = sim.ctx().total_protocol_energy_j();
    assert!(e > 0.0, "no protocol energy recorded");
    assert!(e < 5.0, "energy {e} J out of scale for one query");
    assert!(sim.ctx().stats().tx_protocol_frames > 20);
}

#[test]
fn larger_k_costs_more_energy_and_latency() {
    let run = |k: usize| {
        let (mob, _) = static_network(200, 163);
        let req = QueryRequest {
            at: 0.5,
            sink: NodeId(0),
            q: Point::new(57.0, 57.0),
            k,
        };
        let mut sim = Simulator::new(
            sim_config(30.0),
            mob,
            Diknn::new(DiknnConfig::default(), vec![req]),
            163,
        );
        sim.warm_neighbor_tables();
        sim.run();
        finish_and_check(&mut sim);
        let o = &sim.protocol().outcomes()[0];
        (
            o.latency().unwrap_or(f64::INFINITY),
            sim.ctx().total_protocol_energy_j(),
        )
    };
    let (lat_small, e_small) = run(5);
    let (lat_big, e_big) = run(80);
    assert!(
        e_big > e_small,
        "energy should grow with k: {e_small} !< {e_big}"
    );
    assert!(
        lat_big > lat_small * 0.8,
        "latency collapsed with larger k: {lat_small} vs {lat_big}"
    );
}
