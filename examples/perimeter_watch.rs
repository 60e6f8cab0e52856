//! Perimeter watch: continuous KNN monitoring (the standing-interest
//! counterpart to the paper's snapshot queries).
//!
//! A command post keeps a standing interest in the 12 sensors nearest to a
//! protected asset, re-evaluated every 6 seconds with the infrastructure-
//! free DIKNN rounds that [`ContinuousKnn`] plans. The per-round deltas
//! show how fast the guard set rotates under mobility.
//!
//! ```sh
//! cargo run --release --example perimeter_watch
//! ```

use diknn_repro::core::{ContinuousKnn, MonitorRequest};
use diknn_repro::prelude::*;

fn main() {
    let scenario = ScenarioConfig {
        max_speed: 8.0,
        duration: 60.0,
        ..ScenarioConfig::default()
    };
    let seed = 31;
    let plans = scenario.build(seed);

    let asset = Point::new(70.0, 45.0);
    let monitor = MonitorRequest {
        start_at: 2.0,
        period: 6.0,
        rounds: 8,
        sink: NodeId(0),
        q: asset,
        k: 12,
    };
    let plan = ContinuousKnn::new(vec![monitor]);
    let mut sim = Simulator::new(
        scenario.sim_config(),
        plans,
        Diknn::new(DiknnConfig::default(), plan.requests().to_vec()),
        seed,
    );
    sim.warm_neighbor_tables();
    sim.run();

    println!(
        "perimeter watch: 12 nearest sensors to ({:.0},{:.0}), re-evaluated every 6 s\n",
        asset.x, asset.y
    );
    println!(
        "{:>5} {:>10} {:>8} {:>8}",
        "round", "completed", "joined", "left"
    );
    let energy = sim.ctx().total_protocol_energy_j();
    let deltas = plan.deltas(sim.protocol().outcomes());
    for d in &deltas {
        println!(
            "{:>5} {:>10} {:>8} {:>8}",
            d.round,
            d.completed_at
                .map(|t| format!("{:.1}s", t.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            d.joined.len(),
            d.left.len()
        );
    }
    println!(
        "\nmean churn per round: {:.0}% of the guard set",
        plan.mean_churn(&deltas) * 100.0
    );
    println!("energy for the whole watch: {energy:.2} J");
}
