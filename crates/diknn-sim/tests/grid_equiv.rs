//! Equivalence of the spatial grid with the brute-force oracle.
//!
//! The grid is only allowed to change *cost*, never behaviour: a range
//! query answered through `SpatialGrid` candidates + exact re-check must
//! produce exactly the set the O(n) scan produces, in the same order, for
//! any placement — including nodes exactly on cell boundaries, pairs at
//! exactly the range² boundary, out-of-field positions (clamped into edge
//! cells), and drifted positions covered by the `vmax · Δt` query pad.
//! A full-engine test then pins the strongest form of the claim: a whole
//! simulation under `NeighborIndex::Grid` is bit-identical to one under
//! `NeighborIndex::BruteForce`.

use diknn_geom::{Point, Rect};
use diknn_mobility::{Mobility, RandomWaypoint, RwpConfig, StaticMobility, WaypointTrace};
use diknn_sim::{
    Ctx, FaultPlan, FaultRegion, JamZone, NeighborIndex, NodeId, Protocol, SharedMobility,
    SimConfig, SimDuration, SimTime, Simulator, SpatialGrid, TraceConfig,
};
use proptest::prelude::*;
use proptest::ProptestConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const FIELD: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 115.0,
    max_y: 115.0,
};
const RANGE: f64 = 20.0;

/// Brute-force oracle: ids within `radius` of `center`, ascending.
fn brute_in_range(positions: &[Point], center: Point, radius: f64) -> Vec<u32> {
    (0..positions.len() as u32)
        .filter(|&i| center.dist_sq(positions[i as usize]) <= radius * radius)
        .collect()
}

/// Grid path: candidates, exact re-check with the same predicate, sort.
fn grid_in_range(
    grid: &SpatialGrid,
    positions: &[Point],
    center: Point,
    radius: f64,
    now: SimTime,
) -> Vec<u32> {
    let mut cand = Vec::new();
    grid.candidates_near(center, radius, now, &mut cand);
    cand.sort_unstable();
    cand.retain(|&i| center.dist_sq(positions[i as usize]) <= radius * radius);
    cand
}

fn assert_equivalent(positions: &[Point], queries: &[Point]) {
    let grid = SpatialGrid::build(FIELD, RANGE, positions, 0.0, 0.5 * RANGE, SimTime::ZERO);
    for &q in queries {
        let brute = brute_in_range(positions, q, RANGE);
        let fast = grid_in_range(&grid, positions, q, RANGE, SimTime::ZERO);
        assert_eq!(fast, brute, "query at ({}, {})", q.x, q.y);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform random placements, including positions outside the field
    /// (the grid clamps them into edge cells; membership must not care).
    #[test]
    fn random_placements_match_brute_force(
        pts in prop::collection::vec((-10.0..130.0f64, -10.0..130.0f64), 1..150),
        qx in -10.0..130.0f64,
        qy in -10.0..130.0f64,
    ) {
        let positions: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let queries = [Point::new(qx, qy), positions[0]];
        assert_equivalent(&positions, &queries);
    }

    /// Clustered placements: everything piled into a few dense cells plus
    /// points snapped exactly onto cell-boundary coordinates.
    #[test]
    fn clustered_and_boundary_placements_match_brute_force(
        picks in prop::collection::vec((0usize..4, -3.0..3.0f64, -3.0..3.0f64), 1..120),
        snaps in prop::collection::vec((0usize..6, 0usize..6), 0..20),
        qc in 0usize..4,
    ) {
        let centers = [
            Point::new(10.0, 10.0),
            Point::new(60.0, 60.0),
            Point::new(60.0, 61.0),
            Point::new(110.0, 10.0),
        ];
        let mut positions: Vec<Point> = picks
            .iter()
            .map(|&(c, dx, dy)| Point::new(centers[c].x + dx, centers[c].y + dy))
            .collect();
        // Nodes exactly on cell corners (multiples of the cell size = 20):
        // the floor() bucketing must stay consistent with the query window.
        positions.extend(
            snaps
                .iter()
                .map(|&(i, j)| Point::new(i as f64 * RANGE, j as f64 * RANGE)),
        );
        let queries = [centers[qc], Point::new(40.0, 40.0)];
        assert_equivalent(&positions, &queries);
    }

    /// Drift coverage: the grid is built from stale positions, nodes have
    /// since moved at most `vmax · Δt`; the padded query must still agree
    /// with brute force evaluated on the *true* positions.
    #[test]
    fn padded_queries_cover_drifted_nodes(
        pts in prop::collection::vec(
            (0.0..115.0f64, 0.0..115.0f64, 0.0..std::f64::consts::TAU),
            1..100,
        ),
        vmax in 0.0..5.0f64,
        dt in 0.0..8.0f64,
        qx in 0.0..115.0f64,
        qy in 0.0..115.0f64,
    ) {
        let built: Vec<Point> = pts.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
        // Each node drifts the maximum allowed distance in its own direction.
        let moved: Vec<Point> = pts
            .iter()
            .map(|&(x, y, theta)| Point::new(x, y).polar_offset(theta, vmax * dt))
            .collect();
        let grid = SpatialGrid::build(FIELD, RANGE, &built, vmax, 0.5 * RANGE, SimTime::ZERO);
        let now = SimTime::ZERO + SimDuration::from_secs_f64(dt);
        let q = Point::new(qx, qy);
        let brute = brute_in_range(&moved, q, RANGE);
        let fast = grid_in_range(&grid, &moved, q, RANGE, now);
        prop_assert_eq!(fast, brute);
    }

    /// Teleport-style playback jumps: a [`WaypointTrace`] crossing most of
    /// the field in a few milliseconds yields an enormous `max_speed`, and
    /// the grid's `vmax · Δt` pad must absorb exactly that — queries built
    /// from pre-jump buckets still agree with brute force on the true
    /// post-jump positions, with no forced refresh.
    #[test]
    fn trace_playback_jumps_stay_covered_by_the_pad(
        jumps in prop::collection::vec(
            // (start x, start y, landing x, landing y, jump time)
            (0.0..115.0f64, 0.0..115.0f64, 0.0..115.0f64, 0.0..115.0f64, 0.5..6.0f64),
            1..40,
        ),
        dt in 0.0..8.0f64,
        qx in 0.0..115.0f64,
        qy in 0.0..115.0f64,
    ) {
        let plans: Vec<WaypointTrace> = jumps
            .iter()
            .map(|&(x0, y0, x1, y1, at)| {
                WaypointTrace::new(vec![
                    (0.0, Point::new(x0, y0)),
                    (at, Point::new(x0, y0)),
                    // The node crosses to its landing point in 2 ms.
                    (at + 0.002, Point::new(x1, y1)),
                ])
            })
            .collect();
        let built: Vec<Point> = plans.iter().map(|p| p.position_at(0.0)).collect();
        let vmax = plans.iter().map(|p| p.max_speed()).fold(0.0, f64::max);
        let moved: Vec<Point> = plans.iter().map(|p| p.position_at(dt)).collect();
        let grid = SpatialGrid::build(FIELD, RANGE, &built, vmax, 0.5 * RANGE, SimTime::ZERO);
        let now = SimTime::ZERO + SimDuration::from_secs_f64(dt);
        let q = Point::new(qx, qy);
        let brute = brute_in_range(&moved, q, RANGE);
        let fast = grid_in_range(&grid, &moved, q, RANGE, now);
        prop_assert_eq!(fast, brute);
    }
}

/// Two nodes at *exactly* the radio range: `dist_sq <= range²` includes
/// them, and the grid must agree even though they sit in non-adjacent
/// cells' worth of distance.
#[test]
fn range_boundary_pair_is_included() {
    let positions = vec![Point::new(30.0, 30.0), Point::new(30.0 + RANGE, 30.0)];
    let grid = SpatialGrid::build(FIELD, RANGE, &positions, 0.0, 0.5 * RANGE, SimTime::ZERO);
    let fast = grid_in_range(&grid, &positions, positions[0], RANGE, SimTime::ZERO);
    assert_eq!(fast, vec![0, 1]);
    // Nudge epsilon outside: excluded by both paths.
    let positions = vec![
        Point::new(30.0, 30.0),
        Point::new(30.0 + RANGE + 1e-9, 30.0),
    ];
    let grid = SpatialGrid::build(FIELD, RANGE, &positions, 0.0, 0.5 * RANGE, SimTime::ZERO);
    let fast = grid_in_range(&grid, &positions, positions[0], RANGE, SimTime::ZERO);
    assert_eq!(fast, brute_in_range(&positions, positions[0], RANGE));
    assert_eq!(fast, vec![0]);
}

/// A chatty protocol exercising every grid-backed engine path: periodic
/// broadcasts (audible sets) and beacon-table neighbour reads, on tables
/// seeded by the warm-up round.
struct Gossip {
    heard: u64,
    neighbor_checksum: u64,
}

impl Protocol for Gossip {
    type Msg = u8;

    fn on_start(&mut self, ctx: &mut Ctx<u8>) {
        for i in 0..ctx.node_count() as u32 {
            ctx.set_timer(NodeId(i), SimDuration::from_millis(200 + i as u64), 1);
        }
    }

    fn on_timer(&mut self, at: NodeId, _key: u64, ctx: &mut Ctx<u8>) {
        let pruned = ctx.neighbors(at);
        self.neighbor_checksum = self
            .neighbor_checksum
            .wrapping_mul(31)
            .wrapping_add(pruned.len() as u64);
        ctx.broadcast(at, 24, 7);
        ctx.set_timer(at, SimDuration::from_millis(900), 1);
    }

    fn on_message(&mut self, _at: NodeId, _from: NodeId, _msg: &u8, _ctx: &mut Ctx<u8>) {
        self.heard += 1;
    }
}

fn mobile_nodes(n: usize, max_speed: f64, seed: u64) -> Vec<SharedMobility> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cfg = RwpConfig::new(FIELD, max_speed.max(0.01), 30.0);
    (0..n)
        .map(|_| {
            let start = Point::new(rng.gen_range(0.0..115.0), rng.gen_range(0.0..115.0));
            Arc::new(RandomWaypoint::new(start, &cfg, &mut rng)) as SharedMobility
        })
        .collect()
}

fn run_gossip(index: NeighborIndex, seed: u64) -> (String, u64, u64, f64) {
    let mut cfg = SimConfig {
        neighbor_index: index,
        time_limit: SimDuration::from_secs_f64(12.0),
        trace: TraceConfig::enabled(),
        ..SimConfig::default()
    };
    // A moving jam zone population check plus churn: every fault path that
    // consults positions runs through the index under test.
    cfg.faults = FaultPlan {
        jam_zones: vec![JamZone {
            region: FaultRegion::Circle {
                center: Point::new(60.0, 60.0),
                radius: 25.0,
            },
            from: SimDuration::from_secs_f64(2.0),
            until: SimDuration::from_secs_f64(9.0),
            loss: 0.6,
        }],
        ..FaultPlan::random_crashes(0.1, 1.0, 8.0)
    };
    let nodes = mobile_nodes(60, 3.0, seed ^ 0xABCD);
    let mut sim = Simulator::new(
        cfg,
        nodes,
        Gossip {
            heard: 0,
            neighbor_checksum: 0,
        },
        seed,
    );
    sim.warm_neighbor_tables();
    sim.run();
    let (proto, ctx) = sim.into_parts();
    (
        ctx.trace().render(),
        proto.heard,
        proto.neighbor_checksum,
        ctx.total_energy_j(),
    )
}

/// The whole-engine claim: grid and brute-force runs are bit-identical —
/// same trace bytes, same delivery counts, same neighbour-read history,
/// same energy — under mobility, crashes, and a jam zone.
#[test]
fn grid_and_brute_force_runs_are_bit_identical() {
    for seed in [3, 17, 2024] {
        let grid = run_gossip(NeighborIndex::Grid, seed);
        let brute = run_gossip(NeighborIndex::BruteForce, seed);
        assert!(!grid.0.is_empty(), "run recorded no trace events");
        assert_eq!(grid, brute, "seed {seed}: beacon-table runs diverged");
    }
}

/// Whole-engine teleport + churn: nodes on playback traces that jump
/// across the field mid-run, with crash/recovery faults layered on top.
/// Crashes never move a node and trace jumps are bounded by the trace's
/// own `max_speed`, so the grid needs no special-case refresh — and the
/// run must stay bit-identical to brute force.
#[test]
fn teleporting_traces_with_churn_run_bit_identical() {
    let mut rng = SmallRng::seed_from_u64(77);
    let nodes: Vec<SharedMobility> = (0..40)
        .map(|_| {
            let a = Point::new(rng.gen_range(0.0..115.0), rng.gen_range(0.0..115.0));
            let b = Point::new(rng.gen_range(0.0..115.0), rng.gen_range(0.0..115.0));
            let at = rng.gen_range(2.0..9.0);
            Arc::new(WaypointTrace::new(vec![
                (0.0, a),
                (at, a),
                (at + 0.002, b), // cross-field teleport in 2 ms
            ])) as SharedMobility
        })
        .collect();
    let run = |index: NeighborIndex| {
        let cfg = SimConfig {
            neighbor_index: index,
            time_limit: SimDuration::from_secs_f64(12.0),
            trace: TraceConfig::enabled(),
            faults: FaultPlan::random_crashes(0.15, 1.0, 8.0),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            cfg,
            nodes.clone(),
            Gossip {
                heard: 0,
                neighbor_checksum: 0,
            },
            13,
        );
        sim.warm_neighbor_tables();
        sim.run();
        let (proto, ctx) = sim.into_parts();
        (
            ctx.trace().render(),
            proto.heard,
            proto.neighbor_checksum,
            ctx.total_energy_j(),
        )
    };
    let grid = run(NeighborIndex::Grid);
    let brute = run(NeighborIndex::BruteForce);
    assert!(!grid.0.is_empty(), "run recorded no trace events");
    assert_eq!(grid, brute, "teleport runs diverged between indexes");
}

/// Static pathological placement: everyone in one cell (worst case for
/// the grid) — behaviour still identical.
#[test]
fn single_cell_pileup_matches_brute_force() {
    let positions: Vec<SharedMobility> = (0..25)
        .map(|i| {
            Arc::new(StaticMobility::new(Point::new(
                50.0 + (i % 5) as f64,
                50.0 + (i / 5) as f64,
            ))) as SharedMobility
        })
        .collect();
    let run = |index: NeighborIndex| {
        let cfg = SimConfig {
            neighbor_index: index,
            time_limit: SimDuration::from_secs_f64(6.0),
            trace: TraceConfig::enabled(),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            cfg,
            positions.clone(),
            Gossip {
                heard: 0,
                neighbor_checksum: 0,
            },
            9,
        );
        sim.warm_neighbor_tables();
        sim.run();
        let (proto, ctx) = sim.into_parts();
        (ctx.trace().render(), proto.heard, proto.neighbor_checksum)
    };
    assert_eq!(run(NeighborIndex::Grid), run(NeighborIndex::BruteForce));
}

/// Boundary-heavy placement through the engine's own receiver query:
/// static nodes on every 20 m cell corner (lattice neighbours sit at
/// exactly the radio range), a centre node with partners just inside and
/// just outside the range — `RANGE ± 1e-9` lands inside the anchor
/// triage's ε band, `RANGE ± 2e-6` outside it — and out-of-field nodes
/// clamped into edge cells. The fully static run has zero drift, so ε is
/// the whole triage margin; the second run adds movers crossing cell
/// edges, so the grid pads and refreshes. Grid and brute force must agree
/// bit for bit either way.
#[test]
fn boundary_lattice_runs_bit_identical() {
    let fixed = |x: f64, y: f64| Arc::new(StaticMobility::new(Point::new(x, y))) as SharedMobility;
    let mut statics: Vec<SharedMobility> = Vec::new();
    for i in 0..6 {
        for j in 0..6 {
            statics.push(fixed(i as f64 * RANGE, j as f64 * RANGE));
        }
    }
    let centre = Point::new(50.0, 50.0);
    statics.push(fixed(centre.x, centre.y));
    for (k, d) in [-2e-6, -1e-9, 1e-9, 2e-6].into_iter().enumerate() {
        // One partner per side of the centre, on an axis so the distance
        // is exactly `RANGE + d` up to the rounding of the coordinate.
        let (dx, dy) = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][k];
        statics.push(fixed(
            centre.x + dx * (RANGE + d),
            centre.y + dy * (RANGE + d),
        ));
    }
    // Out of field: a hair left of the edge (1e-9 beyond range of the
    // lattice node at x = 20), on the far edge, and beyond it at exactly
    // the range from the edge node.
    statics.push(fixed(-1e-9, 2.0 * RANGE));
    statics.push(fixed(115.0, 3.0 * RANGE));
    statics.push(fixed(115.0 + RANGE, 3.0 * RANGE));

    let run = |nodes: &[SharedMobility], index: NeighborIndex| {
        let cfg = SimConfig {
            neighbor_index: index,
            time_limit: SimDuration::from_secs_f64(12.0),
            trace: TraceConfig::enabled(),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            cfg,
            nodes.to_vec(),
            Gossip {
                heard: 0,
                neighbor_checksum: 0,
            },
            5,
        );
        sim.warm_neighbor_tables();
        sim.run();
        let (proto, ctx) = sim.into_parts();
        (
            ctx.trace().render(),
            proto.heard,
            proto.neighbor_checksum,
            ctx.total_energy_j(),
        )
    };

    let mut movers = statics.clone();
    for (a, b) in [
        (Point::new(5.0, 10.0), Point::new(75.0, 10.0)),
        (Point::new(30.0, 5.0), Point::new(30.0, 95.0)),
        (Point::new(95.0, 95.0), Point::new(25.0, 25.0)),
    ] {
        movers.push(Arc::new(WaypointTrace::new(vec![(0.0, a), (12.0, b)])) as SharedMobility);
    }
    for (label, nodes) in [("static", &statics), ("movers", &movers)] {
        let grid = run(nodes, NeighborIndex::Grid);
        let brute = run(nodes, NeighborIndex::BruteForce);
        assert!(grid.1 > 0, "{label}: no deliveries");
        assert_eq!(
            grid, brute,
            "{label}: lattice runs diverged between indexes"
        );
    }
}
