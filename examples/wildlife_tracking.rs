//! Wildlife tracking: the paper's Figure-7 motivating scenario.
//!
//! A ranger station (the sink) periodically asks "which k collared animals
//! are nearest to the watering hole right now?" over a herd-structured
//! (spatially irregular) population. This is the workload DIKNN's
//! rendezvous-based boundary adjustment was designed for: herd density
//! breaks KNNB's uniformity assumption, and gaps between herds create
//! itinerary voids the traversal must route around.
//!
//! ```sh
//! cargo run --release --example wildlife_tracking
//! ```

use diknn_repro::prelude::*;
use diknn_repro::sim::config::RADIO_RANGE;
use diknn_repro::sim::TraceConfig;
use diknn_repro::workloads::{GroundTruth, HerdSetup};

fn main() {
    let field = Rect::new(0.0, 0.0, 200.0, 200.0);
    let scenario = ScenarioConfig {
        nodes: 400,
        field,
        max_speed: 0.0,
        placement: PlacementKind::Herds(HerdSetup {
            herds: 5,
            background_fraction: 0.3,
        }),
        duration: 60.0,
        infrastructure: Vec::new(),
    };
    let seed = 2026;
    let plans = scenario.build(seed);
    let oracle = GroundTruth::new(plans.clone(), scenario.nodes);

    // The ranger station: the best-connected animal carries the uplink.
    let positions = oracle.positions_at(0.0);
    let sink = (0..positions.len())
        .max_by_key(|&i| {
            positions
                .iter()
                .filter(|p| p.dist(positions[i]) <= RADIO_RANGE)
                .count()
        })
        .expect("non-empty herd");

    // The watering hole sits where the animals actually are: the centre of
    // the densest neighbourhood at mission start.
    let watering_hole = {
        let densest = (0..positions.len())
            .max_by_key(|&i| {
                positions
                    .iter()
                    .filter(|p| p.dist(positions[i]) <= RADIO_RANGE)
                    .count()
            })
            .expect("non-empty population");
        positions[densest]
    };
    let requests: Vec<QueryRequest> = (0..5)
        .map(|i| QueryRequest {
            at: 3.0 + 10.0 * i as f64,
            sink: NodeId(sink as u32),
            q: watering_hole,
            k: 40,
        })
        .collect();

    let protocol = Diknn::new(DiknnConfig::default(), requests);
    // The flight recorder logs every token handoff; the void count below
    // reads the itinerary back from it.
    let sim_cfg = SimConfig {
        trace: TraceConfig::enabled(),
        ..scenario.sim_config()
    };
    let mut sim = Simulator::new(sim_cfg, plans, protocol, seed);
    sim.warm_neighbor_tables();
    sim.run();

    println!("wildlife tracking: 5 queries for the 40 animals nearest the watering hole\n");
    println!(
        "{:>5} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "query", "R_knnb(m)", "R_final(m)", "latency", "pre-acc", "post-acc"
    );
    for o in sim.protocol().outcomes() {
        let (lat, pre, post) = match o.completed_at {
            Some(done) => (
                format!("{:.2}s", o.latency().unwrap()),
                oracle.accuracy(&o.answer, o.q, o.k, o.issued_at.as_secs_f64()),
                oracle.accuracy(&o.answer, o.q, o.k, done.as_secs_f64()),
            ),
            None => ("-".into(), 0.0, 0.0),
        };
        println!(
            "{:>5} {:>10.1} {:>10.1} {:>9} {:>8.0}% {:>8.0}%",
            o.qid,
            o.boundary_radius,
            o.final_radius,
            lat,
            pre * 100.0,
            post * 100.0
        );
    }
    // Count void detours: handoffs whose itinerary frontier jumped by
    // more than two probe steps.
    let mut voids = 0usize;
    for list in oracle.itinerary_hops(sim.ctx().trace()).values() {
        let mut prev = 0.0;
        for &(_, _, frontier) in list {
            if frontier - prev > 24.0 {
                voids += 1;
            }
            prev = frontier;
        }
    }
    println!("\nitinerary void bypasses across all queries: {voids}");
    println!(
        "energy over the whole mission: {:.2} J across {} animals",
        sim.ctx().total_protocol_energy_j(),
        scenario.nodes
    );
}
