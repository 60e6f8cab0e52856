//! Behavioural tests of the fault-injection subsystem: crashes, recovery,
//! bursty loss, jamming zones, and energy-budget deaths.

use std::sync::Arc;

use diknn_geom::Point;
use diknn_mobility::StaticMobility;
use diknn_sim::{
    faults, CrashSpec, Ctx, FaultPlan, FaultRegion, GilbertElliott, JamZone, LinkLossModel, NodeId,
    Protocol, SharedMobility, SimConfig, SimDuration, Simulator, TraceConfig, TraceKind,
};

fn static_nodes(points: &[(f64, f64)]) -> Vec<SharedMobility> {
    points
        .iter()
        .map(|&(x, y)| Arc::new(StaticMobility::new(Point::new(x, y))) as SharedMobility)
        .collect()
}

fn quiet_config() -> SimConfig {
    SimConfig {
        beacon_interval: SimDuration::ZERO,
        ..SimConfig::default()
    }
}

/// Node 0 broadcasts a numbered frame every 100 ms; counts per-node
/// receptions.
struct Ticker {
    sender: NodeId,
    got: Vec<u32>,
}

impl Ticker {
    fn new(sender: NodeId, n: usize) -> Self {
        Ticker {
            sender,
            got: vec![0; n],
        }
    }
}

impl Protocol for Ticker {
    type Msg = u32;
    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        for i in 0..100 {
            ctx.set_timer(self.sender, SimDuration::from_millis(100 * i), i);
        }
    }
    fn on_timer(&mut self, at: NodeId, key: u64, ctx: &mut Ctx<u32>) {
        ctx.broadcast(at, 10, key as u32);
    }
    fn on_message(&mut self, at: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {
        self.got[at.index()] += 1;
    }
}

#[test]
fn crashed_sender_goes_silent_and_timers_are_suppressed() {
    let mut cfg = quiet_config();
    cfg.time_limit = SimDuration::from_secs_f64(12.0);
    cfg.trace = TraceConfig::enabled();
    let crash_at = SimDuration::from_secs_f64(5.0);
    cfg.faults.crashes = vec![CrashSpec {
        node: 0,
        at: crash_at,
        recover_after: None,
    }];
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Ticker::new(NodeId(0), 2), 3);
    sim.run();
    let got = sim.protocol().got[1];
    // ~50 of the 100 ticks happen before the crash; none after.
    assert!((40..=55).contains(&got), "receiver saw {got} frames");
    let stats = *sim.ctx().stats();
    assert_eq!(stats.nodes_crashed, 1);
    assert!(stats.timers_suppressed >= 45, "{stats:?}");
    assert!(!sim.ctx().is_alive(NodeId(0)));
    assert_eq!(sim.ctx().alive_count(), 1);
    // The event trace proves radio silence after the crash instant.
    let trace = sim.ctx().trace();
    assert!(trace.dropped_events() == 0, "trace ring overflowed");
    let mut tx_starts = 0;
    for e in trace.events() {
        if !matches!(e.kind, TraceKind::TxStart { .. }) {
            continue;
        }
        tx_starts += 1;
        if e.node == NodeId(0) {
            assert!(
                e.time.since(diknn_sim::SimTime::ZERO) <= crash_at,
                "dead node transmitted at {}",
                e.time
            );
        }
    }
    assert!(tx_starts > 0, "trace recorded no transmissions");
}

#[test]
fn crashed_receiver_hears_nothing_while_down() {
    let mut cfg = quiet_config();
    cfg.time_limit = SimDuration::from_secs_f64(12.0);
    // Receiver down between 2 s and 6 s.
    cfg.faults.crashes = vec![CrashSpec {
        node: 1,
        at: SimDuration::from_secs_f64(2.0),
        recover_after: Some(SimDuration::from_secs_f64(4.0)),
    }];
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Ticker::new(NodeId(0), 2), 3);
    sim.run();
    let got = sim.protocol().got[1];
    // 100 ticks over 10 s; roughly 40 fall inside the 4 s outage.
    assert!((50..=65).contains(&got), "receiver saw {got} frames");
    let stats = *sim.ctx().stats();
    assert_eq!(stats.nodes_crashed, 1);
    assert_eq!(stats.nodes_recovered, 1);
    assert!(sim.ctx().is_alive(NodeId(1)));
}

#[test]
fn recovered_node_resumes_beaconing() {
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let mut cfg = SimConfig {
        time_limit: SimDuration::from_secs_f64(10.0),
        ..SimConfig::default()
    };
    cfg.faults.crashes = vec![CrashSpec {
        node: 1,
        at: SimDuration::from_secs_f64(2.0),
        recover_after: Some(SimDuration::from_secs_f64(3.0)),
    }];
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Idle, 7);
    sim.run();
    // Node 0's table must know node 1 again at the end of the run: the
    // rebooted node re-advertised itself.
    let nb = sim.ctx_mut().neighbors(NodeId(0));
    assert_eq!(nb.len(), 1, "rebooted neighbour never re-learned");
    assert_eq!(nb[0].id, NodeId(1));
}

#[test]
fn gilbert_elliott_losses_track_the_chain_mean() {
    let ge = GilbertElliott {
        p_gb: 0.1,
        p_bg: 0.3,
        good_loss: 0.0,
        bad_loss: 1.0,
    };
    let mut cfg = quiet_config();
    cfg.time_limit = SimDuration::from_secs_f64(12.0);
    cfg.faults.link_loss = LinkLossModel::GilbertElliott(ge);
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Ticker::new(NodeId(0), 2), 9);
    sim.run();
    let got = sim.protocol().got[1] as f64;
    let stats = *sim.ctx().stats();
    assert!(stats.burst_losses > 0, "{stats:?}");
    assert_eq!(stats.random_losses, 0, "uniform loss must be replaced");
    // Stationary loss is 25%; allow wide slack on 100 samples.
    let rate = 1.0 - got / 100.0;
    assert!(
        (0.08..=0.45).contains(&rate),
        "observed loss {rate} far from stationary 0.25"
    );
}

#[test]
fn jam_zone_blocks_inside_its_window_only() {
    // Receiver inside the zone; full-loss jamming from 3 s to 7 s.
    let mut cfg = quiet_config();
    cfg.time_limit = SimDuration::from_secs_f64(12.0);
    cfg.faults.jam_zones = vec![JamZone {
        region: FaultRegion::Circle {
            center: Point::new(10.0, 0.0),
            radius: 3.0,
        },
        from: SimDuration::from_secs_f64(3.0),
        until: SimDuration::from_secs_f64(7.0),
        loss: 1.0,
    }];
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]);
    let mut sim = Simulator::new(cfg, nodes, Ticker::new(NodeId(0), 3), 5);
    sim.run();
    let jammed = sim.protocol().got[1];
    let clear = sim.protocol().got[2];
    let stats = *sim.ctx().stats();
    // ~40 of 100 ticks fall in the window; the node outside the region
    // hears everything.
    assert!((55..=65).contains(&jammed), "jammed node got {jammed}");
    assert_eq!(clear, 100, "node outside the zone was affected");
    assert!(stats.frames_jammed >= 35, "{stats:?}");
}

#[test]
fn energy_budget_kills_the_chattiest_node_permanently() {
    // Tiny budget: the sender pays tx energy fastest and must die first;
    // a scheduled "recovery" for it must not resurrect it.
    let mut cfg = quiet_config();
    cfg.time_limit = SimDuration::from_secs_f64(12.0);
    cfg.faults.energy_budget_j = Some(2e-4);
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Ticker::new(NodeId(0), 2), 5);
    sim.run();
    let stats = *sim.ctx().stats();
    assert!(stats.energy_deaths >= 1, "{stats:?}");
    assert!(!sim.ctx().is_alive(NodeId(0)));
    assert_eq!(stats.nodes_crashed, 0, "energy deaths are counted apart");
    let got = sim.protocol().got[1];
    assert!(got < 100, "sender should have died mid-run, got {got}");
    // The budget stopped the meter close to the threshold.
    assert!(sim.ctx().energy(NodeId(0)).total_j() >= 2e-4);
}

#[test]
fn random_crashes_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut cfg = quiet_config();
        cfg.time_limit = SimDuration::from_secs_f64(12.0);
        cfg.faults = FaultPlan::random_crashes(0.5, 1.0, 8.0);
        let nodes = static_nodes(&[
            (0.0, 0.0),
            (10.0, 0.0),
            (0.0, 10.0),
            (10.0, 10.0),
            (5.0, 5.0),
            (15.0, 5.0),
        ]);
        let mut sim = Simulator::new(cfg, nodes, Ticker::new(NodeId(0), 6), seed);
        sim.run();
        let alive: Vec<bool> = (0..6).map(|i| sim.ctx().is_alive(NodeId(i))).collect();
        (*sim.ctx().stats(), sim.protocol().got.clone(), alive)
    };
    let a = run(21);
    let b = run(21);
    assert_eq!(
        a, b,
        "same seed must crash the same nodes at the same times"
    );
    assert_eq!(a.0.nodes_crashed, 3, "{:?}", a.0);
    let c = run(22);
    assert_ne!(a.2, c.2, "different seeds should pick different victims");
}

#[test]
fn inert_plan_changes_nothing() {
    // A plan whose mechanisms are all present but never fire (a jam zone
    // covering no node, an energy budget no node reaches, a crash after the
    // run ends) must leave the run bit-identical to the default plan's: the
    // fault hooks draw no RNG and change no decision on the fault-free
    // path. Two clusters out of each other's range, bridged by two nodes
    // that hear both, beacon every 20 ms: the channel is contended and
    // the bridges see hidden-terminal collisions, so a single extra draw
    // moves backoffs and collisions.
    let limit = SimDuration::from_secs_f64(12.0);
    let run = |faults: FaultPlan| {
        let nodes = static_nodes(&[
            (0.0, 0.0),
            (5.0, 0.0),
            (0.0, 5.0),
            (30.0, 0.0),
            (35.0, 0.0),
            (30.0, 5.0),
            (15.0, 0.0),
            (17.0, 3.0),
        ]);
        let cfg = SimConfig {
            beacon_interval: SimDuration::from_millis(20),
            time_limit: limit,
            faults,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, nodes, Ticker::new(NodeId(0), 8), 13);
        sim.run();
        (*sim.ctx().stats(), sim.ctx().total_energy_j())
    };
    let dormant = FaultPlan {
        crashes: vec![CrashSpec {
            node: 1,
            at: limit + SimDuration::from_secs_f64(1.0),
            recover_after: None,
        }],
        jam_zones: vec![JamZone {
            region: FaultRegion::Circle {
                center: Point::new(500.0, 500.0),
                radius: 5.0,
            },
            from: SimDuration::ZERO,
            until: limit,
            loss: 1.0,
        }],
        energy_budget_j: Some(1e6),
        ..FaultPlan::default()
    };
    assert!(!dormant.is_inert());
    let (stats, energy) = run(FaultPlan::default());
    assert!(
        stats.collisions > 0 && stats.ev_mac_attempt > stats.tx_frames,
        "{stats:?}"
    );
    assert_eq!((stats, energy), run(dormant));
}

#[test]
fn fault_plan_validation_is_enforced_at_construction() {
    let bad = faults::FaultPlan {
        energy_budget_j: Some(-1.0),
        ..FaultPlan::default()
    };
    let cfg = SimConfig {
        faults: bad,
        ..quiet_config()
    };
    let err = cfg.validate().unwrap_err();
    assert!(err.to_string().contains("energy budget"), "{err}");
}
