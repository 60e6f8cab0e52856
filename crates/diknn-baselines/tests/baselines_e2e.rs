//! End-to-end runs of the baseline protocols: they must answer queries with
//! reasonable accuracy on static networks and exhibit the qualitative
//! weaknesses the paper attributes to them.

use std::sync::Arc;

use diknn_baselines::{Flood, FloodConfig, Kpt, KptBoundary, KptConfig, PeerTree, PeerTreeConfig};
use diknn_core::{KnnProtocol, QueryRequest};
use diknn_geom::{Point, Rect};
use diknn_mobility::{placement, RandomWaypoint, RwpConfig, StaticMobility};
use diknn_sim::{NodeId, SharedMobility, SimConfig, SimDuration, Simulator, TraceConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const FIELD: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 115.0,
    max_y: 115.0,
};

fn static_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    placement::uniform(FIELD, n, &mut rng)
}

fn to_static(points: &[Point]) -> Vec<SharedMobility> {
    points
        .iter()
        .map(|&p| Arc::new(StaticMobility::new(p)) as SharedMobility)
        .collect()
}

fn exact_knn(positions: &[Point], q: Point, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..positions.len()).collect();
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
    answer.iter().filter(|n| truth.contains(&n.index())).count() as f64 / truth.len() as f64
}

fn sim_config(seconds: f64) -> SimConfig {
    SimConfig {
        time_limit: SimDuration::from_secs_f64(seconds),
        trace: TraceConfig::enabled(),
        ..SimConfig::default()
    }
}

fn run_protocol<P: KnnProtocol>(
    nodes: Vec<SharedMobility>,
    protocol: P,
    seed: u64,
    seconds: f64,
) -> Simulator<P> {
    let mut sim = Simulator::new(sim_config(seconds), nodes, protocol, seed);
    sim.warm_neighbor_tables();
    sim.run();
    // Classify anything still pending and replay the flight-recorder trace
    // against the protocol laws before any assertion looks at metrics.
    let (proto, ctx) = sim.split_mut();
    proto.finish(ctx);
    diknn_workloads::invariants::assert_clean(ctx.trace(), proto.outcomes());
    sim
}

#[test]
fn kpt_static_answers_accurately() {
    let pts = static_points(200, 7);
    let q = Point::new(60.0, 55.0);
    let req = QueryRequest {
        at: 0.5,
        sink: NodeId(0),
        q,
        k: 10,
    };
    let sim = run_protocol(
        to_static(&pts),
        Kpt::new(KptConfig::default(), vec![req]),
        7,
        30.0,
    );
    let o = &sim.protocol().outcomes()[0];
    assert!(o.completed_at.is_some(), "KPT query never completed: {o:?}");
    let truth = exact_knn(&pts, q, 10);
    let acc = accuracy(&o.answer, &truth);
    assert!(acc >= 0.8, "KPT static accuracy {acc}");
}

#[test]
fn kpt_conservative_boundary_floods_more_than_knnb() {
    let pts = static_points(200, 9);
    let q = Point::new(57.0, 57.0);
    let mk_req = || QueryRequest {
        at: 0.5,
        sink: NodeId(0),
        q,
        k: 20,
    };
    let knnb_sim = run_protocol(
        to_static(&pts),
        Kpt::new(KptConfig::default(), vec![mk_req()]),
        9,
        30.0,
    );
    let cons_sim = run_protocol(
        to_static(&pts),
        Kpt::new(
            KptConfig {
                boundary: KptBoundary::Conservative {
                    mean_hop_distance: 15.0,
                },
            },
            vec![mk_req()],
        ),
        9,
        30.0,
    );
    let e_knnb = knnb_sim.ctx().total_protocol_energy_j();
    let e_cons = cons_sim.ctx().total_protocol_energy_j();
    assert!(
        e_cons > 1.5 * e_knnb,
        "conservative boundary should flood: {e_cons} vs {e_knnb}"
    );
    let r_knnb = knnb_sim.protocol().outcomes()[0].boundary_radius;
    let r_cons = cons_sim.protocol().outcomes()[0].boundary_radius;
    assert!(r_cons > 2.0 * r_knnb, "radius {r_cons} vs {r_knnb}");
}

#[test]
fn peertree_static_answers() {
    let pts = static_points(200, 13);
    let cfg = PeerTreeConfig::default();
    let mut nodes = to_static(&pts);
    for hp in PeerTree::clusterhead_positions(FIELD, cfg.grid) {
        nodes.push(Arc::new(StaticMobility::new(hp)) as SharedMobility);
    }
    let q = Point::new(60.0, 55.0);
    let req = QueryRequest {
        at: 6.0, // give the index time to build
        sink: NodeId(0),
        q,
        k: 10,
    };
    let sim = run_protocol(nodes, PeerTree::new(cfg, FIELD, 200, vec![req]), 13, 30.0);
    let o = &sim.protocol().outcomes()[0];
    assert!(
        o.completed_at.is_some(),
        "Peer-tree query never completed: {o:?}"
    );
    let truth = exact_knn(&pts, q, 10);
    let acc = accuracy(&o.answer, &truth);
    assert!(acc >= 0.6, "Peer-tree static accuracy {acc}");
    // Clusterheads must never appear in answers.
    assert!(o.answer.iter().all(|n| n.index() < 200));
}

#[test]
fn peertree_accuracy_collapses_under_high_mobility() {
    let run = |speed: f64| -> f64 {
        let mut rng = SmallRng::seed_from_u64(17);
        let pts = placement::uniform(FIELD, 200, &mut rng);
        let cfg = PeerTreeConfig::default();
        let mut nodes: Vec<SharedMobility> = Vec::new();
        let mut oracle: Vec<SharedMobility> = Vec::new();
        let mut rng2 = SmallRng::seed_from_u64(18);
        for &p in &pts {
            if speed > 0.0 {
                let m = RandomWaypoint::new(p, &RwpConfig::new(FIELD, speed, 60.0), &mut rng2);
                nodes.push(Arc::new(m.clone()) as SharedMobility);
                oracle.push(Arc::new(m) as SharedMobility);
            } else {
                nodes.push(Arc::new(StaticMobility::new(p)) as SharedMobility);
                oracle.push(Arc::new(StaticMobility::new(p)) as SharedMobility);
            }
        }
        for hp in PeerTree::clusterhead_positions(FIELD, cfg.grid) {
            nodes.push(Arc::new(StaticMobility::new(hp)) as SharedMobility);
        }
        let queries: Vec<QueryRequest> = (0..3)
            .map(|i| QueryRequest {
                at: 6.0 + 6.0 * i as f64,
                sink: NodeId(i as u32),
                q: Point::new(40.0 + 15.0 * i as f64, 60.0),
                k: 10,
            })
            .collect();
        let sim = run_protocol(
            nodes,
            PeerTree::new(cfg, FIELD, 200, queries.clone()),
            17,
            40.0,
        );
        let mut total = 0.0;
        for (o, req) in sim.protocol().outcomes().iter().zip(&queries) {
            let t = o
                .completed_at
                .map(|t| t.as_secs_f64())
                .unwrap_or(req.at + 20.0);
            let positions: Vec<Point> = oracle.iter().map(|m| m.position_at(t)).collect();
            let truth = exact_knn(&positions, req.q, req.k);
            total += accuracy(&o.answer, &truth);
        }
        total / 3.0
    };
    let acc_static = run(0.0);
    let acc_fast = run(25.0);
    assert!(
        acc_fast < acc_static,
        "mobility should hurt Peer-tree: static {acc_static} vs fast {acc_fast}"
    );
}

#[test]
fn flood_answers_but_burns_energy() {
    // The paper's argument against naive flooding is the "excessive number
    // of independent routing paths from sensor nodes to s": it bites when
    // k is large and the sink is far from the query point, so compare at
    // k = 60 with q across the field from the sink.
    //
    // Flood accuracy is strongly seed-sensitive (MAC collisions on the many
    // independent reply paths drop responses — exactly the weakness the
    // paper describes), so a single pinned seed makes this test fragile to
    // any behaviour-preserving engine change. Assert on the *median* over a
    // fixed seed set instead: individual placements may lose replies, but
    // the typical run must clear the accuracy bar while the energy gap
    // stays large.
    const SEEDS: [u64; 5] = [27, 28, 29, 31, 33];
    let mut accs = Vec::new();
    let mut energy_gaps = Vec::new();
    for seed in SEEDS {
        let pts = static_points(200, seed);
        let q = Point::new(100.0, 100.0);
        let req = QueryRequest {
            at: 0.5,
            sink: NodeId(0),
            q,
            k: 60,
        };
        let flood_sim = run_protocol(
            to_static(&pts),
            Flood::new(FloodConfig::default(), vec![req]),
            seed,
            30.0,
        );
        let o = &flood_sim.protocol().outcomes()[0];
        assert!(
            o.completed_at.is_some(),
            "flood query never completed (seed {seed})"
        );
        let truth = exact_knn(&pts, q, 60);
        accs.push(accuracy(&o.answer, &truth));
        // Compare energy with DIKNN on the same scenario: the naive flood
        // should typically cost clearly more.
        let diknn_sim = run_protocol(
            to_static(&pts),
            diknn_core::Diknn::new(diknn_core::DiknnConfig::default(), vec![req]),
            seed,
            30.0,
        );
        let e_flood = flood_sim.ctx().total_protocol_energy_j();
        let e_diknn = diknn_sim.ctx().total_protocol_energy_j();
        energy_gaps.push(e_flood / e_diknn);
    }
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let med_acc = median(&mut accs);
    assert!(med_acc >= 0.7, "median flood accuracy {med_acc} ({accs:?})");
    let med_gap = median(&mut energy_gaps);
    assert!(
        med_gap > 1.0,
        "flood should typically out-spend DIKNN: median ratio {med_gap} ({energy_gaps:?})"
    );
}

#[test]
fn kpt_latency_grows_with_k() {
    let pts = static_points(200, 25);
    let run_k = |k: usize| -> f64 {
        let req = QueryRequest {
            at: 0.5,
            sink: NodeId(0),
            q: Point::new(57.0, 57.0),
            k,
        };
        let sim = run_protocol(
            to_static(&pts),
            Kpt::new(KptConfig::default(), vec![req]),
            25,
            30.0,
        );
        sim.protocol().outcomes()[0]
            .latency()
            .unwrap_or(f64::INFINITY)
    };
    let lat_small = run_k(10);
    let lat_large = run_k(80);
    assert!(
        lat_large > lat_small,
        "KPT latency must grow with k: {lat_small} vs {lat_large}"
    );
}

#[test]
fn baseline_runs_are_deterministic() {
    let pts = static_points(150, 29);
    let run = || {
        let req = QueryRequest {
            at: 0.5,
            sink: NodeId(0),
            q: Point::new(60.0, 60.0),
            k: 15,
        };
        let sim = run_protocol(
            to_static(&pts),
            Kpt::new(KptConfig::default(), vec![req]),
            29,
            30.0,
        );
        let o = &sim.protocol().outcomes()[0];
        (o.answer.clone(), o.completed_at)
    };
    assert_eq!(run(), run());
}

/// A request sink outside the network is a caller bug: the query's first
/// timer at the sink names it, instead of an index panic deep in the run.
#[test]
#[should_panic(expected = "node n99 is out of range: the network has 5 nodes")]
fn out_of_range_sink_panics_with_a_named_message() {
    let req = QueryRequest {
        at: 0.5,
        sink: NodeId(99),
        q: Point::new(50.0, 50.0),
        k: 3,
    };
    let kpt = Kpt::new(KptConfig::default(), vec![req]);
    run_protocol(to_static(&static_points(5, 1)), kpt, 1, 5.0);
}
