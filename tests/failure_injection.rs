//! Failure injection: lossy channels, sparse/partitioned networks, extreme
//! parameters. Protocols must degrade gracefully — reduced accuracy or
//! completion is expected; hangs, panics, or nonsense metrics are not.

use diknn_repro::prelude::*;
use diknn_repro::sim::config::RADIO_RANGE;
use diknn_repro::sim::{LinkLossModel, MacMode};

fn base_scenario() -> ScenarioConfig {
    ScenarioConfig {
        nodes: 150,
        max_speed: 10.0,
        duration: 40.0,
        ..ScenarioConfig::default()
    }
}

fn wl(k: usize) -> WorkloadConfig {
    WorkloadConfig {
        k,
        first_at: 2.0,
        last_at: 20.0,
        ..WorkloadConfig::default()
    }
}

fn with_loss(rate: f64) -> Experiment {
    let mut exp = Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        base_scenario(),
        wl(15),
    );
    // fn-pointer tweaks cannot capture `rate`, so dispatch to constants.
    exp.sim_tweak = if rate <= 0.1 {
        Some(|c: &mut SimConfig| c.faults.link_loss = LinkLossModel::Uniform(0.1))
    } else if rate <= 0.3 {
        Some(|c: &mut SimConfig| c.faults.link_loss = LinkLossModel::Uniform(0.3))
    } else {
        Some(|c: &mut SimConfig| c.faults.link_loss = LinkLossModel::Uniform(0.5))
    };
    exp
}

#[test]
fn diknn_degrades_gracefully_under_packet_loss() {
    let clean = Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        base_scenario(),
        wl(15),
    )
    .run(1, 3);
    let light = with_loss(0.1).run(1, 3);
    let heavy = with_loss(0.5).run(1, 3);
    // No panic and sane metrics is the main claim; accuracy must not
    // *improve* under heavy loss.
    assert!(clean.post_accuracy.mean >= heavy.post_accuracy.mean - 0.05);
    assert!(light.completion_rate.mean > 0.0);
    for agg in [&clean, &light, &heavy] {
        assert!(agg.energy_j.mean.is_finite());
        assert!(agg.pre_accuracy.mean >= 0.0 && agg.pre_accuracy.mean <= 1.0);
    }
}

#[test]
fn sparse_network_terminates_for_every_protocol() {
    // Node degree ~4: frequent partitions; queries may fail but runs must
    // finish with sane metrics.
    let scenario = ScenarioConfig {
        nodes: 120,
        duration: 40.0,
        max_speed: 10.0,
        ..ScenarioConfig::default()
    }
    .with_node_degree(4.0, RADIO_RANGE);
    for proto in [
        ProtocolKind::Diknn(DiknnConfig::default()),
        ProtocolKind::Kpt(KptConfig::default()),
        ProtocolKind::PeerTree(PeerTreeConfig::default()),
        ProtocolKind::Flood(FloodConfig::default()),
    ] {
        let name = proto.name();
        let m = Experiment::new(proto, scenario.clone(), wl(10)).run_once(7);
        assert!(m.queries >= 1, "{name}: no queries issued");
        assert!(m.energy_j.is_finite(), "{name}: bad energy");
    }
}

#[test]
fn extreme_k_values_work() {
    // k = 1 and k close to the population.
    for k in [1usize, 120] {
        let m = Experiment::new(
            ProtocolKind::Diknn(DiknnConfig::default()),
            base_scenario(),
            wl(k),
        )
        .run_once(9);
        assert!(m.completed >= 1, "k={k}: nothing completed ({m:?})");
        assert!(
            m.post_accuracy > 0.2,
            "k={k}: accuracy collapsed ({:.3})",
            m.post_accuracy
        );
    }
}

#[test]
fn contention_free_mac_improves_or_matches_accuracy() {
    let contended = Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        base_scenario(),
        wl(30),
    )
    .run(3, 13);
    let mut cfp = Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        base_scenario(),
        wl(30),
    );
    cfp.sim_tweak = Some(|c: &mut SimConfig| c.mac = MacMode::ContentionFree);
    let cfp = cfp.run(3, 13);
    // CFP is not a paired variance reduction (the event interleaving
    // changes completely), so compare means with slack.
    assert!(
        cfp.post_accuracy.mean >= contended.post_accuracy.mean - 0.06,
        "CFP {:.3} should not be clearly worse than contention {:.3}",
        cfp.post_accuracy.mean,
        contended.post_accuracy.mean
    );
}

#[test]
fn very_high_mobility_does_not_break_diknn() {
    let scenario = ScenarioConfig {
        max_speed: 40.0, // beyond the paper's range
        ..base_scenario()
    };
    let m = Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        scenario,
        wl(20),
    )
    .run_once(17);
    assert!(m.completed >= 1, "nothing completed at 40 m/s");
    assert!(m.post_accuracy > 0.2, "accuracy {:.3}", m.post_accuracy);
}

#[test]
fn single_node_network_answers_trivially() {
    // Degenerate: the sink is the only node; it is its own home node and
    // there are no neighbours to find.
    let scenario = ScenarioConfig {
        nodes: 1,
        max_speed: 0.0,
        duration: 20.0,
        ..ScenarioConfig::default()
    };
    let requests = vec![QueryRequest {
        at: 1.0,
        sink: NodeId(0),
        q: Point::new(50.0, 50.0),
        k: 3,
    }];
    let plans = scenario.build(1);
    let mut sim = Simulator::new(
        scenario.sim_config(),
        plans,
        Diknn::new(DiknnConfig::default(), requests),
        1,
    );
    sim.run();
    // Must terminate; the outcome may be empty (no data nodes besides the
    // sink itself replying to its own probes is fine either way).
    let o = &sim.protocol().outcomes()[0];
    assert!(o.answer.len() <= 3);
}
