//! Focused MAC and energy-model tests: ARQ accounting, address filtering,
//! beacon/protocol energy separation, backoff saturation.

use std::sync::Arc;

use diknn_geom::Point;
use diknn_mobility::StaticMobility;
use diknn_sim::config::{BITS_PER_SEC, HEADER_BYTES};
use diknn_sim::energy::RX_POWER_W;
use diknn_sim::{
    Ctx, MacMode, NodeId, Protocol, SharedMobility, SimConfig, SimDuration, Simulator,
    UNICAST_RETRIES,
};

fn static_nodes(points: &[(f64, f64)]) -> Vec<SharedMobility> {
    points
        .iter()
        .map(|&(x, y)| Arc::new(StaticMobility::new(Point::new(x, y))) as SharedMobility)
        .collect()
}

fn quiet() -> SimConfig {
    SimConfig {
        beacon_interval: SimDuration::ZERO,
        ..SimConfig::default()
    }
}

struct OneShot {
    unicast_to: Option<u32>,
    payload: usize,
    received: usize,
}

impl Protocol for OneShot {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<()>) {
        match self.unicast_to {
            Some(t) => ctx.unicast(NodeId(0), NodeId(t), self.payload, ()),
            None => ctx.broadcast(NodeId(0), self.payload, ()),
        }
    }
    fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {
        self.received += 1;
    }
}

#[test]
fn address_filtering_charges_overhearers_header_only() {
    // Node 1 is the addressee, node 2 overhears.
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (12.0, 0.0)]);
    let payload = 200usize;
    let mut sim = Simulator::new(
        quiet(),
        nodes,
        OneShot {
            unicast_to: Some(1),
            payload,
            received: 0,
        },
        1,
    );
    sim.run();
    let full = RX_POWER_W * ((HEADER_BYTES + payload) * 8) as f64 / BITS_PER_SEC as f64;
    let header = RX_POWER_W * (HEADER_BYTES * 8) as f64 / BITS_PER_SEC as f64;
    let e1 = sim.ctx().energy(NodeId(1)).rx_protocol_j;
    let e2 = sim.ctx().energy(NodeId(2)).rx_protocol_j;
    assert!((e1 - full).abs() < 1e-12, "addressee pays full rx: {e1}");
    assert!(
        (e2 - header).abs() < 1e-12,
        "overhearer pays header rx: {e2}"
    );
}

#[test]
fn broadcast_charges_everyone_full_rx() {
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (12.0, 0.0)]);
    let payload = 200usize;
    let mut sim = Simulator::new(
        quiet(),
        nodes,
        OneShot {
            unicast_to: None,
            payload,
            received: 0,
        },
        1,
    );
    sim.run();
    let e1 = sim.ctx().energy(NodeId(1)).rx_protocol_j;
    let e2 = sim.ctx().energy(NodeId(2)).rx_protocol_j;
    assert!((e1 - e2).abs() < 1e-15, "broadcast receivers pay equally");
}

#[test]
fn beacon_energy_is_metered_separately() {
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let cfg = SimConfig {
        time_limit: SimDuration::from_secs_f64(5.0),
        ..SimConfig::default()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Idle, 1);
    sim.run();
    let e = sim.ctx().energy(NodeId(0));
    assert!(e.tx_beacon_j > 0.0, "beacon tx energy missing");
    assert!(e.rx_beacon_j > 0.0, "beacon rx energy missing");
    assert_eq!(e.tx_protocol_j, 0.0);
    assert_eq!(e.rx_protocol_j, 0.0);
    assert!(sim.ctx().total_protocol_energy_j() == 0.0);
    assert!(sim.ctx().total_energy_j() > 0.0);
}

#[test]
fn arq_gives_up_after_configured_retries() {
    struct Fail {
        failures: u32,
    }
    impl Protocol for Fail {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.unicast(NodeId(0), NodeId(1), 10, ());
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {
            panic!("out-of-range unicast must not be delivered");
        }
        fn on_send_failed(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {
            self.failures += 1;
        }
    }
    let nodes = static_nodes(&[(0.0, 0.0), (100.0, 0.0)]);
    let mut sim = Simulator::new(quiet(), nodes, Fail { failures: 0 }, 1);
    sim.run();
    assert_eq!(sim.protocol().failures, 1);
    let s = sim.ctx().stats();
    assert_eq!(s.tx_frames, 1 + u64::from(UNICAST_RETRIES));
    assert_eq!(s.arq_retries, u64::from(UNICAST_RETRIES));
}

#[test]
fn collision_destruction_charges_rx_airtime_exactly_once() {
    // Hidden-terminal collision: nodes 0 and 2 cannot hear each other
    // (30 m apart, 20 m range) and transmit overlapping frames; node 1
    // hears both and both copies are destroyed mid-frame. The radio still
    // listened for each frame's full airtime, so node 1 must be charged
    // rx_power × (airtime_A + airtime_B) — each destroyed frame exactly
    // once, never re-charged when the collision is resolved at TxEnd.
    struct Hidden {
        received: usize,
    }
    impl Protocol for Hidden {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(NodeId(0), SimDuration::from_millis(10), 0);
            ctx.set_timer(NodeId(2), SimDuration::from_millis(20), 0);
        }
        fn on_timer(&mut self, at: NodeId, _: u64, ctx: &mut Ctx<()>) {
            ctx.broadcast(at, 900, ()); // ~29 ms airtime: generous overlap
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {
            self.received += 1;
        }
    }
    let cfg = SimConfig {
        time_limit: SimDuration::from_secs_f64(1.0),
        ..quiet()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (15.0, 0.0), (30.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Hidden { received: 0 }, 1);
    sim.run();
    // The overlap really was a collision (one event corrupts both copies).
    assert_eq!(
        sim.ctx().stats().collisions,
        1,
        "expected a mutual collision"
    );
    assert_eq!(
        sim.protocol().received,
        0,
        "corrupted frames must not deliver"
    );
    let airtime = ((HEADER_BYTES + 900) * 8) as f64 / BITS_PER_SEC as f64;
    let expected = RX_POWER_W * 2.0 * airtime;
    let e1 = sim.ctx().energy(NodeId(1)).rx_protocol_j;
    assert!(
        (e1 - expected).abs() < 1e-12,
        "two destroyed frames must cost exactly two rx airtimes: {e1} vs {expected}"
    );
}

#[test]
fn energy_is_monotone_across_crash_and_recovery() {
    // Node 1 crashes mid-run and recovers; traffic keeps flowing the whole
    // time. Replay the energy meter readings from the trace: every node's
    // cumulative spend must be non-decreasing — a crash freezes the meter,
    // it never rewinds it, and recovery resumes from the frozen value.
    struct Chatter;
    impl Protocol for Chatter {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            for round in 0..40u64 {
                ctx.set_timer(
                    NodeId((round % 3) as u32),
                    SimDuration::from_millis(round * 50),
                    0,
                );
            }
        }
        fn on_timer(&mut self, at: NodeId, _: u64, ctx: &mut Ctx<()>) {
            ctx.broadcast(at, 100, ());
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let cfg = SimConfig {
        time_limit: SimDuration::from_secs_f64(3.0),
        // A budget far above anything spendable: enables per-frame Energy
        // trace events without ever killing a node.
        faults: diknn_sim::FaultPlan {
            crashes: vec![diknn_sim::CrashSpec {
                node: 1,
                at: SimDuration::from_millis(500),
                recover_after: Some(SimDuration::from_millis(700)),
            }],
            energy_budget_j: Some(1e9),
            ..diknn_sim::FaultPlan::default()
        },
        trace: diknn_sim::TraceConfig::enabled(),
        ..quiet()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (15.0, 0.0), (10.0, 8.0)]);
    let mut sim = Simulator::new(cfg, nodes, Chatter, 5);
    sim.run();
    let s = sim.ctx().stats();
    assert_eq!(s.nodes_crashed, 1, "{s:?}");
    assert_eq!(s.nodes_recovered, 1, "{s:?}");
    let mut last = [0.0f64; 3];
    let mut samples = 0usize;
    for e in sim.ctx().trace().events() {
        if let diknn_sim::TraceKind::Energy { spent_j } = e.kind {
            let i = e.node.index();
            assert!(
                spent_j >= last[i],
                "node {} energy went backwards: {} -> {spent_j}",
                e.node,
                last[i]
            );
            last[i] = spent_j;
            samples += 1;
        }
    }
    assert!(samples > 10, "trace carried only {samples} energy samples");
    // The frozen-while-dead meter still matches the final accounting.
    for (i, &l) in last.iter().enumerate() {
        let total = sim.ctx().energy(NodeId(i as u32)).total_j();
        assert!(
            (total - l).abs() < 1e-12,
            "node {i}: trace ends at {l}, meter says {total}"
        );
    }
}

#[test]
fn backoff_saturation_drops_frames() {
    // A node surrounded by a permanently busy channel: saturate it with
    // long overlapping broadcasts from two hidden senders so the victim's
    // carrier sense never clears.
    struct Saturate {
        dropped: bool,
    }
    impl Protocol for Saturate {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            // Nodes 0 and 2 keep the channel busy around node 1.
            for round in 0..60u64 {
                ctx.set_timer(NodeId(0), SimDuration::from_millis(round * 30), 1);
                ctx.set_timer(NodeId(2), SimDuration::from_millis(round * 30 + 15), 1);
            }
            // Node 1 tries to unicast to node 3 while jammed.
            ctx.set_timer(NodeId(1), SimDuration::from_millis(100), 2);
        }
        fn on_timer(&mut self, at: NodeId, key: u64, ctx: &mut Ctx<u32>) {
            match key {
                1 => ctx.broadcast(at, 900, 0), // ~29 ms airtime each
                _ => ctx.unicast(NodeId(1), NodeId(3), 10, 1),
            }
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {}
        fn on_send_failed(&mut self, at: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {
            if at == NodeId(1) {
                self.dropped = true;
            }
        }
    }
    let cfg = SimConfig {
        time_limit: SimDuration::from_secs_f64(3.0),
        ..quiet()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (15.0, 0.0), (30.0, 0.0), (15.0, 15.0)]);
    let mut sim = Simulator::new(cfg, nodes, Saturate { dropped: false }, 3);
    sim.run();
    let s = sim.ctx().stats();
    // The budget of `MAX_BACKOFFS` busy attempts runs out: the frame is
    // dropped at the MAC and its sender told.
    assert!(
        s.mac_drops > 0,
        "sustained jamming must exhaust the backoffs: {s:?}"
    );
    assert!(
        sim.protocol().dropped,
        "the sender must learn of the drop: {s:?}"
    );
}

#[test]
fn contention_free_mode_never_corrupts() {
    struct Spam;
    impl Protocol for Spam {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            for i in 0..50u64 {
                ctx.set_timer(NodeId((i % 3) as u32), SimDuration::from_millis(i), 0);
            }
        }
        fn on_timer(&mut self, at: NodeId, _: u64, ctx: &mut Ctx<()>) {
            ctx.broadcast(at, 500, ());
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let cfg = SimConfig {
        mac: MacMode::ContentionFree,
        time_limit: SimDuration::from_secs_f64(3.0),
        ..quiet()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (30.0, 0.0), (15.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Spam, 9);
    sim.run();
    assert_eq!(sim.ctx().stats().collisions, 0);
}
