//! Behavioural tests of the simulator engine: delivery, range, collisions,
//! timers, beacons, energy, and determinism.

use std::sync::Arc;

use diknn_geom::{Point, Rect};
use diknn_mobility::{RandomWaypoint, RwpConfig, StaticMobility, WaypointTrace};
use diknn_sim::config::RADIO_RANGE;
use diknn_sim::{
    Ctx, FaultPlan, LinkLossModel, MacMode, Neighbor, NeighborIndex, NodeId, Protocol,
    SharedMobility, SimConfig, SimDuration, SimTime, Simulator,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn static_nodes(points: &[(f64, f64)]) -> Vec<SharedMobility> {
    points
        .iter()
        .map(|&(x, y)| Arc::new(StaticMobility::new(Point::new(x, y))) as SharedMobility)
        .collect()
}

/// Records every message each node receives.
#[derive(Default)]
struct Recorder {
    received: Vec<(NodeId, NodeId, u32)>,
    failed: Vec<(NodeId, NodeId)>,
    timers: Vec<(NodeId, u64, SimTime)>,
    start_sends: Vec<(NodeId, NodeId, u32)>,
    start_broadcasts: Vec<(NodeId, u32)>,
}

impl Protocol for Recorder {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        for &(from, to, tag) in &self.start_sends {
            ctx.unicast(from, to, 10, tag);
        }
        for &(from, tag) in &self.start_broadcasts {
            ctx.broadcast(from, 10, tag);
        }
    }

    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &u32, _ctx: &mut Ctx<u32>) {
        self.received.push((at, from, *msg));
    }

    fn on_timer(&mut self, at: NodeId, key: u64, ctx: &mut Ctx<u32>) {
        self.timers.push((at, key, ctx.now()));
    }

    fn on_send_failed(&mut self, at: NodeId, to: NodeId, _msg: &u32, _ctx: &mut Ctx<u32>) {
        self.failed.push((at, to));
    }
}

fn quiet_config() -> SimConfig {
    // No beacons: tests drive traffic explicitly.
    SimConfig {
        beacon_interval: SimDuration::ZERO,
        ..SimConfig::default()
    }
}

#[test]
fn unicast_within_range_is_delivered() {
    let nodes = static_nodes(&[(0.0, 0.0), (15.0, 0.0)]);
    let proto = Recorder {
        start_sends: vec![(NodeId(0), NodeId(1), 7)],
        ..Recorder::default()
    };
    let mut sim = Simulator::new(quiet_config(), nodes, proto, 1);
    sim.run();
    assert_eq!(sim.protocol().received, vec![(NodeId(1), NodeId(0), 7)]);
    assert!(sim.protocol().failed.is_empty());
}

#[test]
fn unicast_out_of_range_fails_after_retries() {
    let nodes = static_nodes(&[(0.0, 0.0), (50.0, 0.0)]);
    let proto = Recorder {
        start_sends: vec![(NodeId(0), NodeId(1), 7)],
        ..Recorder::default()
    };
    let mut sim = Simulator::new(quiet_config(), nodes, proto, 1);
    sim.run();
    assert!(sim.protocol().received.is_empty());
    assert_eq!(sim.protocol().failed, vec![(NodeId(0), NodeId(1))]);
    let stats = *sim.ctx().stats();
    assert_eq!(stats.unicast_failures, 1);
    // Original + 3 ARQ retries went on the air.
    assert_eq!(stats.tx_frames, 4);
    assert_eq!(stats.arq_retries, 3);
}

#[test]
fn broadcast_reaches_only_nodes_in_range() {
    // Node 1 at 10 m (in range), node 2 at 19.9 m (in range),
    // node 3 at 25 m (out of range).
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (19.9, 0.0), (25.0, 0.0)]);
    let proto = Recorder {
        start_broadcasts: vec![(NodeId(0), 9)],
        ..Recorder::default()
    };
    let mut sim = Simulator::new(quiet_config(), nodes, proto, 1);
    sim.run();
    let mut got: Vec<u32> = sim.protocol().received.iter().map(|r| r.0 .0).collect();
    got.sort_unstable();
    assert_eq!(got, vec![1, 2]);
}

#[test]
fn timers_fire_in_order_at_requested_times() {
    struct TimerProto {
        fired: Vec<(u64, f64)>,
    }
    impl Protocol for TimerProto {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(NodeId(0), SimDuration::from_millis(500), 2);
            ctx.set_timer(NodeId(0), SimDuration::from_millis(100), 1);
            let cancel_me = ctx.set_timer(NodeId(0), SimDuration::from_millis(300), 99);
            ctx.cancel_timer(cancel_me);
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
        fn on_timer(&mut self, _at: NodeId, key: u64, ctx: &mut Ctx<()>) {
            self.fired.push((key, ctx.now().as_secs_f64()));
        }
    }
    let nodes = static_nodes(&[(0.0, 0.0)]);
    let mut sim = Simulator::new(quiet_config(), nodes, TimerProto { fired: vec![] }, 1);
    sim.run();
    let fired = &sim.protocol().fired;
    assert_eq!(fired.len(), 2);
    assert_eq!(fired[0].0, 1);
    assert!((fired[0].1 - 0.1).abs() < 1e-9);
    assert_eq!(fired[1].0, 2);
    assert!((fired[1].1 - 0.5).abs() < 1e-9);
}

#[test]
fn hidden_terminal_collision_destroys_both_receptions() {
    // A (0,0) and C (30,0) cannot hear each other; B (15,0) hears both.
    // Both transmit "simultaneously" -> B gets nothing in contention mode.
    struct TwoSenders;
    impl Protocol for TwoSenders {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            // Large payloads so the airtimes surely overlap despite jitter.
            ctx.broadcast(NodeId(0), 2000, 0);
            ctx.broadcast(NodeId(2), 2000, 2);
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {
            panic!("reception should have been destroyed by the collision");
        }
    }
    let nodes = static_nodes(&[(0.0, 0.0), (15.0, 0.0), (30.0, 0.0)]);
    let mut sim = Simulator::new(quiet_config(), nodes, TwoSenders, 3);
    sim.run();
    assert!(sim.ctx().stats().collisions >= 1);
}

#[test]
fn contention_free_mode_has_no_collisions() {
    struct TwoSenders {
        got: u32,
    }
    impl Protocol for TwoSenders {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            ctx.broadcast(NodeId(0), 2000, 0);
            ctx.broadcast(NodeId(2), 2000, 2);
        }
        fn on_message(&mut self, at: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {
            if at == NodeId(1) {
                self.got += 1;
            }
        }
    }
    let cfg = SimConfig {
        mac: MacMode::ContentionFree,
        ..quiet_config()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (15.0, 0.0), (30.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, TwoSenders { got: 0 }, 3);
    sim.run();
    assert_eq!(sim.protocol().got, 2);
    assert_eq!(sim.ctx().stats().collisions, 0);
}

#[test]
fn carrier_sense_serialises_neighbours() {
    // Two mutually audible senders: carrier sense + backoff should let both
    // frames through (no collision at the third node).
    struct TwoSenders {
        got: u32,
    }
    impl Protocol for TwoSenders {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            ctx.broadcast(NodeId(0), 500, 0);
            ctx.broadcast(NodeId(1), 500, 1);
        }
        fn on_message(&mut self, at: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {
            if at == NodeId(2) {
                self.got += 1;
            }
        }
    }
    // All three mutually in range.
    let nodes = static_nodes(&[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]);
    let mut got_totals = Vec::new();
    for seed in 0..20 {
        let mut sim = Simulator::new(
            quiet_config(),
            static_nodes_clone(&nodes),
            TwoSenders { got: 0 },
            seed,
        );
        sim.run();
        got_totals.push(sim.protocol().got);
    }
    // Backoff jitter is random; over 20 seeds the vast majority must
    // serialise cleanly.
    let clean = got_totals.iter().filter(|&&g| g == 2).count();
    assert!(
        clean >= 16,
        "only {clean}/20 runs serialised: {got_totals:?}"
    );
}

fn static_nodes_clone(nodes: &[SharedMobility]) -> Vec<SharedMobility> {
    nodes.to_vec()
}

#[test]
fn random_loss_drops_some_receptions() {
    struct Spammer {
        got: u32,
    }
    impl Protocol for Spammer {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            for i in 0..200 {
                ctx.set_timer(NodeId(0), SimDuration::from_millis(20 * i), i);
            }
        }
        fn on_timer(&mut self, at: NodeId, key: u64, ctx: &mut Ctx<u32>) {
            ctx.broadcast(at, 10, key as u32);
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {
            self.got += 1;
        }
    }
    let cfg = SimConfig {
        faults: FaultPlan {
            link_loss: LinkLossModel::Uniform(0.3),
            ..FaultPlan::default()
        },
        ..quiet_config()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Spammer { got: 0 }, 5);
    sim.run();
    let got = sim.protocol().got;
    assert!(got < 190, "loss rate had no visible effect: {got}/200");
    assert!(got > 100, "loss far beyond configured rate: {got}/200");
    assert!(sim.ctx().stats().random_losses > 0);
}

#[test]
fn beacons_fill_neighbor_tables() {
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let cfg = SimConfig {
        time_limit: SimDuration::from_secs_f64(3.0),
        ..SimConfig::default()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (18.0, 0.0), (60.0, 60.0)]);
    let mut sim = Simulator::new(cfg, nodes, Idle, 7);
    sim.run();
    let nb0: Vec<u32> = {
        let ctx = sim.ctx_mut();
        let mut ids: Vec<u32> = ctx.neighbors(NodeId(0)).iter().map(|n| n.id.0).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(nb0, vec![1, 2]);
    // The far node heard nobody.
    assert!(sim.ctx_mut().neighbors(NodeId(3)).is_empty());
    assert!(sim.ctx().stats().beacons_sent >= 4 * 5);
}

#[test]
fn neighbor_tables_go_stale_under_mobility() {
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    // Node 1 races away from node 0 at 30 m/s; after it leaves range its
    // entry must eventually expire from node 0's table.
    let trace = diknn_mobility::WaypointTrace::at_constant_speed(
        &[Point::new(10.0, 0.0), Point::new(300.0, 0.0)],
        30.0,
    );
    let nodes: Vec<SharedMobility> = vec![
        Arc::new(StaticMobility::new(Point::new(0.0, 0.0))),
        Arc::new(trace),
    ];
    let cfg = SimConfig {
        field: Rect::new(0.0, 0.0, 300.0, 300.0),
        time_limit: SimDuration::from_secs_f64(10.0),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg, nodes, Idle, 11);
    sim.run();
    assert!(
        sim.ctx_mut().neighbors(NodeId(0)).is_empty(),
        "stale neighbor never expired"
    );
}

#[test]
fn energy_is_charged_for_tx_and_rx() {
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (12.0, 0.0)]);
    let proto = Recorder {
        start_broadcasts: vec![(NodeId(0), 1)],
        ..Recorder::default()
    };
    let mut sim = Simulator::new(quiet_config(), nodes, proto, 1);
    sim.run();
    let e0 = *sim.ctx().energy(NodeId(0));
    let e1 = *sim.ctx().energy(NodeId(1));
    let e2 = *sim.ctx().energy(NodeId(2));
    assert!(e0.tx_protocol_j > 0.0);
    assert_eq!(e0.rx_protocol_j, 0.0);
    assert!(e1.rx_protocol_j > 0.0);
    assert!(e2.rx_protocol_j > 0.0);
    // 26 bytes at 250 kbps = 0.832 ms; tx at 52.2 mW.
    let expected_tx = 0.0522 * (26.0 * 8.0 / 250_000.0);
    assert!((e0.tx_protocol_j - expected_tx).abs() < 1e-9);
    assert!(
        (sim.ctx().total_protocol_energy_j()
            - (e0.protocol_j() + e1.protocol_j() + e2.protocol_j()))
        .abs()
            < 1e-12
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    fn run_once(seed: u64) -> (u64, u64, u64, f64) {
        struct Chatty;
        impl Protocol for Chatty {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                for i in 0..ctx.node_count() {
                    ctx.set_timer(
                        NodeId(i as u32),
                        SimDuration::from_millis(100 * (i as u64 + 1)),
                        0,
                    );
                }
            }
            fn on_timer(&mut self, at: NodeId, _key: u64, ctx: &mut Ctx<u32>) {
                ctx.broadcast(at, 25, at.0);
                if ctx.now() < SimTime::from_secs_f64(8.0) {
                    ctx.set_timer(at, SimDuration::from_millis(700), 0);
                }
            }
            fn on_message(&mut self, _: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {}
        }
        let field = Rect::new(0.0, 0.0, 115.0, 115.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut placement_rng = SmallRng::seed_from_u64(seed.wrapping_add(1));
        let pts = diknn_mobility::placement::uniform(field, 40, &mut placement_rng);
        let nodes: Vec<SharedMobility> = pts
            .into_iter()
            .map(|p| {
                Arc::new(RandomWaypoint::new(
                    p,
                    &RwpConfig::new(field, 10.0, 20.0),
                    &mut rng,
                )) as SharedMobility
            })
            .collect();
        let cfg = SimConfig {
            time_limit: SimDuration::from_secs_f64(10.0),
            faults: FaultPlan {
                link_loss: LinkLossModel::Uniform(0.05),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, nodes, Chatty, seed);
        sim.run();
        let s = *sim.ctx().stats();
        (
            s.tx_frames,
            s.rx_deliveries,
            s.collisions,
            sim.ctx().total_energy_j(),
        )
    }
    let a = run_once(42);
    let b = run_once(42);
    let c = run_once(43);
    assert_eq!(a, b, "same seed must give identical runs");
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn stop_halts_the_run() {
    struct Stopper;
    impl Protocol for Stopper {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(NodeId(0), SimDuration::from_secs_f64(1.0), 0);
            ctx.set_timer(NodeId(0), SimDuration::from_secs_f64(50.0), 1);
        }
        fn on_timer(&mut self, _: NodeId, key: u64, ctx: &mut Ctx<()>) {
            assert_eq!(key, 0, "run should have stopped before the second timer");
            ctx.stop();
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let nodes = static_nodes(&[(0.0, 0.0)]);
    let mut sim = Simulator::new(quiet_config(), nodes, Stopper, 1);
    let end = sim.run();
    assert!((end.as_secs_f64() - 1.0).abs() < 1e-9);
}

/// Warm-up fills every table with exactly the ground-truth in-range set at
/// t = 0: ascending ids, t = 0 position and speed, `heard_at` 0. The probe
/// node 0 has a partner at exactly the radio range (included) and one at
/// the range plus 1e-9 (excluded), and a moving node pins the recorded
/// speed. Both neighbour indexes must produce the same tables.
#[test]
fn warm_neighbor_tables_gives_immediate_neighbors() {
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let range = RADIO_RANGE;
    let mut nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (range, 0.0), (0.0, range + 1e-9)]);
    nodes.push(Arc::new(WaypointTrace::new(vec![
        (0.0, Point::new(5.0, 5.0)),
        (10.0, Point::new(75.0, 5.0)),
    ])));
    for index in [NeighborIndex::Grid, NeighborIndex::BruteForce] {
        let cfg = SimConfig {
            neighbor_index: index,
            ..quiet_config()
        };
        let mut sim = Simulator::new(cfg, nodes.clone(), Idle, 1);
        sim.warm_neighbor_tables();
        for (i, me) in nodes.iter().enumerate() {
            let truth: Vec<Neighbor> = nodes
                .iter()
                .enumerate()
                .filter(|&(j, m)| {
                    j != i && me.position_at(0.0).dist_sq(m.position_at(0.0)) <= range * range
                })
                .map(|(j, m)| Neighbor {
                    id: NodeId(j as u32),
                    position: m.position_at(0.0),
                    speed: m.speed_at(0.0),
                    heard_at: SimTime::ZERO,
                })
                .collect();
            let table = sim.ctx_mut().neighbors(NodeId(i as u32));
            assert_eq!(table, truth, "{index:?}: table of n{i}");
        }
        let probe = sim.ctx_mut().neighbors(NodeId(0));
        let ids: Vec<NodeId> = probe.iter().map(|e| e.id).collect();
        assert_eq!(ids, [NodeId(1), NodeId(2), NodeId(4)], "{index:?}");
        assert_eq!(probe[2].speed, 7.0, "{index:?}");
    }
}

/// A table entry is the sender's beacon as heard: its plan evaluated at the
/// entry's `heard_at`, not at read time. Moving nodes beacon for a few
/// seconds, and the tables are read from a timer between beacon instants,
/// so some entries must be stale (heard earlier, sender since moved).
#[test]
fn neighbor_entries_are_the_senders_plan_when_heard() {
    struct Inspect {
        plans: Vec<SharedMobility>,
        checked: usize,
        stale: usize,
    }
    impl Protocol for Inspect {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(NodeId(0), SimDuration::from_nanos(3_237_100_003), 0);
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
        fn on_timer(&mut self, _: NodeId, _: u64, ctx: &mut Ctx<()>) {
            let now = ctx.now();
            for n in 0..ctx.node_count() {
                for e in ctx.neighbors(NodeId(n as u32)) {
                    let plan = &self.plans[e.id.index()];
                    let t = e.heard_at.as_secs_f64();
                    assert_eq!(
                        (e.position, e.speed),
                        (plan.position_at(t), plan.speed_at(t)),
                        "n{n}'s entry for {} must be its plan at {t} s",
                        e.id
                    );
                    self.checked += 1;
                    if e.heard_at < now && e.position != plan.position_at(now.as_secs_f64()) {
                        self.stale += 1;
                    }
                }
            }
            ctx.stop();
        }
    }
    let field = Rect::new(0.0, 0.0, 60.0, 60.0);
    let mut rng = SmallRng::seed_from_u64(11);
    let mut placement_rng = SmallRng::seed_from_u64(12);
    let starts = diknn_mobility::placement::uniform(field, 15, &mut placement_rng);
    let rwp = RwpConfig::new(field, 10.0, 20.0);
    let plans: Vec<SharedMobility> = starts
        .into_iter()
        .map(|p| Arc::new(RandomWaypoint::new(p, &rwp, &mut rng)) as SharedMobility)
        .collect();
    let cfg = SimConfig {
        field,
        ..SimConfig::default()
    };
    let inspect = Inspect {
        plans: plans.clone(),
        checked: 0,
        stale: 0,
    };
    let mut sim = Simulator::new(cfg, plans, inspect, 5);
    sim.warm_neighbor_tables();
    sim.run();
    let p = sim.protocol();
    assert!(p.checked > 0, "the tables were read");
    assert!(
        p.stale > 0,
        "no stale entry among {} read: the read must come between beacons",
        p.checked
    );
}

/// A caller-supplied id that names no node panics at the call that
/// supplied it, naming the node and the network size: for timers and for
/// both ends of a frame.
#[test]
fn out_of_range_node_ids_panic_with_a_named_message() {
    struct Misuse(u8);
    impl Protocol for Misuse {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            match self.0 {
                0 => drop(ctx.set_timer(NodeId(99), SimDuration::from_millis(1), 0)),
                1 => ctx.broadcast(NodeId(99), 10, ()),
                _ => ctx.unicast(NodeId(0), NodeId(99), 10, ()),
            }
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    for case in 0..3 {
        let nodes = static_nodes(&[(0.0, 0.0); 5]);
        let run = std::panic::AssertUnwindSafe(|| {
            Simulator::new(quiet_config(), nodes, Misuse(case), 1).run();
        });
        let err = std::panic::catch_unwind(run).expect_err("an out-of-range id must panic");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert_eq!(
            msg, "node n99 is out of range: the network has 5 nodes",
            "case {case}"
        );
    }
}
