//! Figure 7: visualisation of a DIKNN execution over a spatially irregular
//! ("caribou herd") node distribution.
//!
//! The paper runs one large query over real animal-tracking data and
//! observes (1) the concurrent itinerary traversals, (2) itinerary voids
//! bypassed during traversal, and (3) a small population of isolated nodes
//! that never hear the query, costing 0.2–1 % accuracy. We substitute a
//! clustered Gaussian-mixture placement (see DESIGN.md) scaled to our
//! field: 400 nodes, 6 herds, k = 120.
//!
//! Output: an ASCII map of the field (nodes `.`, itinerary hops per sector
//! `0..7`, query point `Q`), followed by void/isolation statistics. The
//! itinerary is rebuilt from the flight recorder's token handoffs.

use diknn_core::{Diknn, DiknnConfig, KnnProtocol, QueryRequest};
use diknn_geom::{Point, Rect};
use diknn_sim::config::RADIO_RANGE;
use diknn_sim::{NodeId, SimConfig, Simulator, TraceConfig};
use diknn_workloads::{GroundTruth, HerdSetup, PlacementKind, ScenarioConfig};

const COLS: usize = 76;
const ROWS: usize = 34;

fn main() {
    let field = Rect::new(0.0, 0.0, 160.0, 160.0);
    let scenario = ScenarioConfig {
        nodes: 500,
        field,
        max_speed: 0.0,
        // True group mobility: six drifting herds plus enough independent
        // background animals that the herds stay connected through them
        // (the paper's field is connected).
        placement: PlacementKind::Herds(HerdSetup {
            herds: 6,
            background_fraction: 0.35,
        }),
        duration: 40.0,
        infrastructure: Vec::new(),
    };
    let seed = diknn_bench::base_seed();
    let plans = scenario.build(seed);
    let oracle = GroundTruth::new(plans.clone(), scenario.nodes);

    let k = 120usize;
    // As in the paper, query "around an arbitrary point" inside the
    // populated area: the centre of the densest neighbourhood. Issue the
    // query from the best-connected node of a *different* region so the
    // routing phase crosses the field.
    let positions = oracle.positions_at(0.0);
    let degree = |i: usize| {
        positions
            .iter()
            .filter(|p| p.dist(positions[i]) <= RADIO_RANGE)
            .count()
    };
    let densest = (0..positions.len()).max_by_key(|&i| degree(i)).unwrap();
    let q = positions[densest];
    let sink = (0..positions.len())
        .filter(|&i| positions[i].dist(q) > 70.0)
        .max_by_key(|&i| degree(i))
        .unwrap_or(0);
    let request = QueryRequest {
        at: 2.0,
        sink: NodeId(sink as u32),
        q,
        k,
    };
    let sim_cfg = SimConfig {
        trace: TraceConfig::enabled(),
        ..scenario.sim_config()
    };
    let mut sim = Simulator::new(
        sim_cfg,
        plans,
        Diknn::new(DiknnConfig::default(), vec![request]),
        seed,
    );
    sim.warm_neighbor_tables();
    sim.run();

    let outcome = &sim.protocol().outcomes()[0];
    let hops = oracle.itinerary_hops(sim.ctx().trace());

    // ---- ASCII map -----------------------------------------------------
    let mut grid = vec![[b' '; COLS]; ROWS];
    let cell = |p: Point| -> (usize, usize) {
        let cx = ((p.x - field.min_x) / field.width() * (COLS as f64 - 1.0)).round() as usize;
        let cy = ((p.y - field.min_y) / field.height() * (ROWS as f64 - 1.0)).round() as usize;
        (cx.min(COLS - 1), ROWS - 1 - cy.min(ROWS - 1))
    };
    let t0 = 2.0;
    for p in oracle.positions_at(t0) {
        let (x, y) = cell(p);
        if grid[y][x] == b' ' {
            grid[y][x] = b'.';
        }
    }
    for (&(_, sector), list) in &hops {
        for &(from, to, _) in list {
            for p in [from, to] {
                let (x, y) = cell(p);
                grid[y][x] = b'0' + sector.min(9);
            }
        }
    }
    let (qx, qy) = cell(q);
    grid[qy][qx] = b'Q';

    println!(
        "Figure 7: DIKNN over an irregular (herd) distribution — k = {k}, \
         500 nodes, 160x160 m^2\n"
    );
    println!("+{}+", "-".repeat(COLS));
    for row in &grid {
        println!("|{}|", String::from_utf8_lossy(row));
    }
    println!("+{}+", "-".repeat(COLS));
    println!("  '.' node   '0'-'7' itinerary hops of that sector   'Q' query point\n");

    // ---- void / isolation statistics ------------------------------------
    // Itinerary voids: hops whose frontier jumped by more than one probe
    // step beyond the Q-node spacing (the traversal skipped unreachable
    // targets).
    let mut voids = 0usize;
    let mut per_sector: Vec<u32> = vec![0; 8];
    for (&(_, sector), list) in &hops {
        let s = sector as usize % 8;
        per_sector[s] = per_sector[s].max(list.len() as u32);
        let mut last_frontier = 0.0;
        for &(_, _, frontier) in list {
            if frontier - last_frontier > 2.0 * 12.0 {
                voids += 1;
            }
            last_frontier = frontier;
        }
    }

    // Isolated nodes: inside the final boundary but never explored.
    let t_done = outcome
        .completed_at
        .map(|t| t.as_secs_f64())
        .unwrap_or(scenario.duration);
    let positions = oracle.positions_at(t_done);
    let inside = positions
        .iter()
        .filter(|p| p.dist(q) <= outcome.final_radius)
        .count();
    let isolated = inside.saturating_sub(outcome.explored_nodes as usize);
    let isolated_frac = isolated as f64 / scenario.nodes as f64;

    let pre = oracle.accuracy(&outcome.answer, q, k, 2.0);
    let post = oracle.accuracy(&outcome.answer, q, k, t_done);

    println!(
        "boundary: KNNB R = {:.1} m, final R = {:.1} m",
        outcome.boundary_radius, outcome.final_radius
    );
    println!("itinerary hops per sector: {per_sector:?}");
    println!("void bypasses observed: {voids}");
    println!(
        "nodes inside boundary: {inside}; explored: {}; isolated: {isolated} \
         ({:.2}% of the network)",
        outcome.explored_nodes,
        isolated_frac * 100.0
    );
    println!("pre-accuracy: {pre:.3}   post-accuracy: {post:.3}");

    // SVG rendering alongside the ASCII map.
    let svg = diknn_bench::svg::render(
        field,
        &oracle.positions_at(t0),
        &hops,
        q,
        outcome.final_radius,
    );
    let svg_path = "results/fig7.svg";
    match std::fs::create_dir_all("results").and_then(|_| std::fs::write(svg_path, svg)) {
        Ok(()) => println!("SVG written to {svg_path}"),
        Err(e) => println!("(could not write {svg_path}: {e})"),
    }
    println!(
        "csv,fig7,k,{k},DIKNN,{:.6},{:.6},{pre:.6},{post:.6},{voids},{isolated}",
        outcome.latency().unwrap_or(f64::NAN),
        outcome.final_radius,
    );
    println!(
        "\nNote: 'isolated' counts in-boundary nodes never probed. Most of \
         them are\nintentional — rendezvous early termination stops sectors \
         once enough nodes are\nexplored. The paper's 0.2-1% figure counts \
         only nodes missed *within traversed\nregions* (true isolation by \
         voids), which corresponds to the void-bypass events\nabove."
    );
}
