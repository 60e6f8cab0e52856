//! Hot-path data-structure equivalence and soundness (PR 9).
//!
//! The slab event queue and frame pool are only allowed to change *cost*,
//! never behaviour:
//!
//! * [`EventQueue`] must pop in exactly the order the old
//!   `BinaryHeap<Reverse<(SimTime, u64)>>` popped, for any interleaving of
//!   pushes and pops — proptested against the real `BinaryHeap` as the
//!   model.
//! * [`FramePool`] handles must stay sound under arbitrary churn: a
//!   removed handle never resolves again (even after its slot is reused),
//!   live handles always resolve to their own frame, and the LIFO free
//!   list makes slot assignment a pure function of the op sequence.
//! * Engine snapshots must be byte-stable across a restore round-trip, with
//!   their layout pinned to `SNAP_VERSION` and every flight-recorder event
//!   kind decoding back to itself, and the grid's receiver pass and
//!   collision filter must be semantically invisible: a grid run is
//!   bit-identical to the brute-force oracle's.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use diknn_geom::{Point, Rect};
use diknn_mobility::{RandomWaypoint, RwpConfig, StaticMobility};
use diknn_sim::config::RADIO_RANGE;
use diknn_sim::{
    Ctx, EventQueue, FramePool, NeighborIndex, NodeId, ProtoEvent, Protocol, QueryStatus,
    SharedMobility, SimConfig, SimDuration, SimTime, Simulator, TraceConfig, TraceEvent, TraceKind,
    SNAP_VERSION,
};
use proptest::prelude::*;
use proptest::ProptestConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---- event queue vs BinaryHeap model -----------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interleaved pushes and pops: the 4-ary queue and the std BinaryHeap
    /// agree on every pop and every peek, including duplicate times broken
    /// by the sequence number (the engine's FIFO tie-break). Ops are
    /// scripted as `(tag, time, payload)` tuples: tag < 3 pushes (times
    /// drawn from a tight range so duplicates are common), else pops.
    #[test]
    fn event_queue_matches_binary_heap(
        ops in prop::collection::vec((0u8..5, 0u64..50, any::<u32>()), 1..200),
    ) {
        let mut fast: EventQueue<u32> = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (tag, time, payload) in ops {
            if tag < 3 {
                let t = SimTime::from_nanos(time);
                fast.push(t, seq, payload);
                model.push(Reverse((t, seq, payload)));
                seq += 1;
            } else {
                let want = model.pop().map(|Reverse(e)| e);
                prop_assert_eq!(fast.pop(), want);
            }
            prop_assert_eq!(fast.len(), model.len());
            let want_key = model.peek().map(|&Reverse((t, s, _))| (t, s));
            prop_assert_eq!(fast.peek_key(), want_key);
        }
        // Drain both: the full residual order must agree too.
        while let Some(Reverse(want)) = model.pop() {
            prop_assert_eq!(fast.pop(), Some(want));
        }
        prop_assert!(fast.is_empty());
    }

    /// Frame-pool churn: random insert/remove sequences against a
    /// `BTreeMap` model. Every handle ever issued is tracked; removed
    /// handles must stay dead forever, live ones must resolve to exactly
    /// their own frame, and slot assignment must be reproducible.
    #[test]
    fn frame_pool_is_sound_under_churn(script in prop::collection::vec(any::<u32>(), 1..300)) {
        let mut pool: FramePool<u64> = FramePool::new();
        let mut twin: FramePool<u64> = FramePool::new();
        // Live frames by handle, plus the graveyard of retired handles.
        let mut live: BTreeMap<diknn_sim::Handle, u64> = BTreeMap::new();
        let mut dead: Vec<diknn_sim::Handle> = Vec::new();
        let mut next_val = 0u64;
        for step in script {
            let remove = step % 3 == 0 && !live.is_empty();
            if remove {
                let idx = (step as usize / 3) % live.len();
                let (&h, &v) = live.iter().nth(idx).expect("non-empty");
                assert_eq!(pool.remove(h), Some(v));
                assert_eq!(twin.remove(h), Some(v));
                assert_eq!(pool.remove(h), None, "double free must be rejected");
                live.remove(&h);
                dead.push(h);
            } else {
                let h = pool.insert(next_val);
                // Same op sequence => same handle sequence (determinism).
                assert_eq!(twin.insert(next_val), h);
                live.insert(h, next_val);
                next_val += 1;
            }
            for (&h, &v) in &live {
                assert_eq!(pool.get(h), Some(&v));
            }
            for &h in &dead {
                assert_eq!(pool.get(h), None, "retired handle came back to life");
            }
            assert_eq!(pool.len(), live.len());
        }
    }
}

// ---- engine-level snapshot byte stability + receiver-path transparency --

/// Broadcast-chatty protocol: every node rebroadcasts on a timer, so the
/// run exercises the receiver query, collision marking and the frame pool
/// constantly.
struct Chatter {
    heard: u64,
}

impl Protocol for Chatter {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        for i in 0..ctx.node_count() as u32 {
            ctx.set_timer(NodeId(i), SimDuration::from_millis(100 + i as u64), 0);
        }
    }

    fn on_timer(&mut self, at: NodeId, _key: u64, ctx: &mut Ctx<u32>) {
        ctx.broadcast(at, 32, at.0);
        ctx.set_timer(at, SimDuration::from_millis(700), 0);
    }

    fn on_message(&mut self, _at: NodeId, _from: NodeId, _msg: &u32, _ctx: &mut Ctx<u32>) {
        self.heard += 1;
    }
}

impl diknn_snap::SnapState for Chatter {
    fn snap_state(&self, w: &mut diknn_snap::SnapWriter) {
        self.heard.snap(w);
    }
    fn restore_state(
        &mut self,
        r: &mut diknn_snap::SnapReader<'_>,
    ) -> Result<(), diknn_snap::SnapError> {
        self.heard = u64::unsnap(r)?;
        Ok(())
    }
}

use diknn_sim::config::packet_airtime;
use diknn_snap::{Snap, SnapReader, SnapWriter};

/// One value of every protocol trace event variant, in snapshot-tag order.
fn every_proto_event() -> Vec<ProtoEvent> {
    use ProtoEvent::*;
    let (qid, attempt, sector, epoch, k, depth) = (3, 1, 2, 1, 5, 2);
    let (radius, new_radius, to, responder) = (18.5, 21.0, NodeId(1), NodeId(2));
    vec![
        QueryIssued { qid, attempt, k },
        BoundaryEstimated {
            qid,
            attempt,
            radius,
        },
        TokenHandoff {
            qid,
            attempt,
            sector,
            epoch,
            to,
            frontier: 4.75,
        },
        BoundaryExtended {
            qid,
            attempt,
            sector,
            old_radius: radius,
            new_radius,
        },
        CandidateHeard {
            qid,
            attempt,
            sector,
            responder,
            dist: 6.25,
            radius,
        },
        SectorFinished {
            qid,
            attempt,
            sector,
            epoch,
        },
        TokenReissued {
            qid,
            attempt,
            sector,
            epoch,
        },
        SinkMerge {
            qid,
            attempt,
            sector,
        },
        QueryAdmitted { qid, depth },
        QueryRejected {
            qid: 4,
            depth,
            terminal: true,
        },
        QueryMerged { qid: 5, host: qid },
        CacheServed {
            qid: 6,
            src: qid,
            age_s: 0.5,
            ttl_s: 2.0,
        },
        QueryDone {
            qid,
            status: QueryStatus::Completed,
            answer: vec![responder, to],
        },
    ]
}

/// The flight-recorder codec: one value of every engine and protocol event
/// kind (and a `QueryDone` per status) decodes back to itself, and the
/// protocol events keep their snapshot tags 0–12.
#[test]
fn every_trace_event_kind_round_trips_through_the_snapshot_codec() {
    fn encode<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }
    let tags: Vec<u8> = every_proto_event().iter().map(|e| encode(e)[0]).collect();
    assert_eq!(tags, (0..=12).collect::<Vec<u8>>());
    let mut kinds = vec![
        TraceKind::TxStart {
            dest: Some(NodeId(9)),
            beacon: false,
        },
        TraceKind::TxStart {
            dest: None,
            beacon: true,
        },
        TraceKind::Crash,
        TraceKind::Recover,
        TraceKind::Leave,
        TraceKind::Rejoin,
        TraceKind::EnergyDeath,
        TraceKind::Energy { spent_j: 0.125 },
    ];
    kinds.extend(every_proto_event().into_iter().map(TraceKind::Proto));
    kinds.extend(QueryStatus::ALL.map(|status| {
        TraceKind::Proto(ProtoEvent::QueryDone {
            qid: 4,
            status,
            answer: Vec::new(),
        })
    }));
    for kind in kinds {
        let ev = TraceEvent {
            time: SimTime::from_nanos(42),
            node: NodeId(3),
            kind,
        };
        let bytes = encode(&ev);
        let mut r = SnapReader::new(&bytes);
        assert_eq!(TraceEvent::unsnap(&mut r).as_ref(), Ok(&ev));
        r.finish().expect("fully consumed");
    }
}

/// The snapshot byte layout is pinned to its version: any change to what a
/// snapshot holds or how it is encoded must bump `SNAP_VERSION` and re-pin
/// the hash. The run is fixed and tiny: four static nodes, beacons and the
/// recorder on, every node broadcasting on a timer. The image is taken at
/// the last transmission start of a 2 s run, so it holds a frame on the
/// air, and one event of every protocol variant is recorded through
/// `Ctx::record_proto` first.
#[test]
fn snapshot_layout_is_pinned_to_its_version() {
    let nodes: Vec<SharedMobility> = [(10.0, 10.0), (25.0, 10.0), (10.0, 25.0), (60.0, 60.0)]
        .into_iter()
        .map(|(x, y)| Arc::new(StaticMobility::new(Point::new(x, y))) as SharedMobility)
        .collect();
    let cfg = SimConfig {
        time_limit: SimDuration::from_secs_f64(2.0),
        trace: TraceConfig::enabled(),
        ..SimConfig::default()
    };
    let mut full = Simulator::new(cfg.clone(), nodes.clone(), Chatter { heard: 0 }, 7);
    full.run();
    let last_start = full
        .ctx()
        .trace()
        .events()
        .filter(|e| matches!(e.kind, TraceKind::TxStart { .. }))
        .map(|e| e.time)
        .last()
        .expect("the run transmitted");
    // Events at `last_start` run, its frame's end does not: the frame is
    // still on the air when the image is taken.
    let mut sim = Simulator::new(cfg, nodes, Chatter { heard: 0 }, 7);
    sim.run_until(last_start);
    let newest = sim.ctx().trace().events().last().expect("recorded");
    assert!(
        matches!(newest.kind, TraceKind::TxStart { .. }) && newest.time == last_start,
        "{newest:?}"
    );
    sim.drive(|_, ctx| {
        for ev in every_proto_event() {
            ctx.record_proto(NodeId(0), ev);
        }
    });
    let bytes = sim.snapshot();
    assert_eq!(
        (SNAP_VERSION, diknn_snap::fingerprint(&bytes)),
        (11, 0xf8b9_bf08_c0d8_19d6),
        "snapshot layout changed: bump SNAP_VERSION and re-pin"
    );
}

/// Recompute an edited image's trailing checksum, so the edit reaches the
/// decoder's own checks instead of failing the checksum.
fn reseal(image: &mut [u8]) {
    let body = image.len() - 8;
    let sum = diknn_snap::fingerprint(&image[..body]);
    image[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Three static nodes that broadcast on timers for 1.3 s, and the image of
/// that run at its end, with the config and plans a restore needs.
fn chatter_image() -> (Vec<u8>, SimConfig, Vec<SharedMobility>) {
    let nodes: Vec<SharedMobility> = [(10.0, 10.0), (25.0, 10.0), (10.0, 25.0)]
        .into_iter()
        .map(|(x, y)| Arc::new(StaticMobility::new(Point::new(x, y))) as SharedMobility)
        .collect();
    let cfg = SimConfig {
        time_limit: SimDuration::from_secs_f64(1.3),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg.clone(), nodes.clone(), Chatter { heard: 0 }, 7);
    sim.warm_neighbor_tables();
    sim.run();
    let bytes = sim.snapshot();
    // Layout: magic and version (8 bytes), config fingerprint, then the
    // clock at byte 16.
    assert_eq!(
        word(&bytes, 16),
        sim.ctx().now().as_nanos(),
        "the snapshot clock"
    );
    (bytes, cfg, nodes)
}

fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// A neighbour-table entry is an index into the mobility plans plus the
/// time to evaluate them at, so a restore must refuse, with a typed error
/// rather than a panic, an entry that names no node or that was heard after
/// the snapshot's own clock. The edited images carry a recomputed checksum.
#[test]
fn restore_refuses_corrupt_neighbor_entries() {
    let (bytes, cfg, nodes) = chatter_image();
    // After the clock and the mobility fingerprint (8 bytes each) comes
    // the table list: its length, the first table's length, and that
    // table's first `(u32 id, u64 time)`.
    assert_eq!(word(&bytes, 32), 3, "one table per node");
    assert!(word(&bytes, 40) > 0, "node 0 heard its neighbours");
    let (id_at, time_at) = (48, 52);
    let restore = |bytes: &[u8]| {
        Simulator::restore(bytes, cfg.clone(), nodes.clone(), Chatter { heard: 0 }).map(|_| ())
    };
    assert_eq!(restore(&bytes), Ok(()));

    let mut bad_id = bytes.clone();
    bad_id[id_at..id_at + 4].copy_from_slice(&3u32.to_le_bytes());
    assert_eq!(
        restore(&bad_id),
        Err(diknn_snap::SnapError::Corrupt("checksum mismatch")),
        "an edit without a new checksum fails the checksum"
    );
    reseal(&mut bad_id);
    assert!(
        matches!(restore(&bad_id), Err(diknn_snap::SnapError::Corrupt(_))),
        "an entry naming node 3 of 3 must be refused"
    );

    let late = word(&bytes, 16) + 1;
    let mut bad_time = bytes.clone();
    bad_time[time_at..time_at + 8].copy_from_slice(&late.to_le_bytes());
    reseal(&mut bad_time);
    assert!(
        matches!(restore(&bad_time), Err(diknn_snap::SnapError::Corrupt(_))),
        "an entry heard after the snapshot time must be refused"
    );
}

/// A queued event is dispatched at its time to its node, so a restore must
/// refuse one that names no node or that lies before the snapshot's clock,
/// which would panic later or run the clock backwards.
#[test]
fn restore_refuses_corrupt_queued_events() {
    let (bytes, cfg, nodes) = chatter_image();
    let restore = |bytes: &[u8]| {
        Simulator::restore(bytes, cfg.clone(), nodes.clone(), Chatter { heard: 0 }).map(|_| ())
    };
    // Node 1 broadcasts at 0.101 s and every 0.7 s after, so its timer for
    // 1.501 s is queued, encoded as `(u64 time, u64 seq, u8 tag, u32 node,
    // ..)` with tag 2 for a timer.
    let at = bytes
        .windows(8)
        .position(|w| w == 1_501_000_000u64.to_le_bytes())
        .expect("node 1's next timer is queued");
    let node_at = at + 17;
    assert_eq!(bytes[at + 16], 2, "a timer event");
    assert_eq!(bytes[node_at..node_at + 4], 1u32.to_le_bytes());

    let mut bad_node = bytes.clone();
    bad_node[node_at..node_at + 4].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut bad_node);
    assert_eq!(
        restore(&bad_node),
        Err(diknn_snap::SnapError::Corrupt(
            "queued event names no node or pooled frame"
        )),
        "a timer for node 3 of 3 must be refused"
    );

    let early = word(&bytes, 16) - 1;
    let mut bad_time = bytes.clone();
    bad_time[at..at + 8].copy_from_slice(&early.to_le_bytes());
    reseal(&mut bad_time);
    assert_eq!(
        restore(&bad_time),
        Err(diknn_snap::SnapError::Corrupt(
            "queued event precedes the snapshot time"
        )),
        "an event before the snapshot time must be refused"
    );
}

const FIELD: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 115.0,
    max_y: 115.0,
};

fn mobile_nodes(n: usize, seed: u64) -> Vec<SharedMobility> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cfg = RwpConfig::new(FIELD, 3.0, 30.0);
    (0..n)
        .map(|_| {
            let start = Point::new(rng.gen_range(0.0..115.0), rng.gen_range(0.0..115.0));
            Arc::new(RandomWaypoint::new(start, &cfg, &mut rng)) as SharedMobility
        })
        .collect()
}

fn chatter_cfg() -> SimConfig {
    SimConfig {
        neighbor_index: NeighborIndex::Grid,
        time_limit: SimDuration::from_secs_f64(10.0),
        trace: TraceConfig::enabled(),
        ..SimConfig::default()
    }
}

/// Snapshot bytes must be a pure function of reached state: snapshotting,
/// restoring into a fresh simulator, and snapshotting again yields the
/// identical byte stream (heap layout and pool internals are canonicalized
/// or serialized verbatim).
#[test]
fn engine_snapshot_survives_a_restore_byte_for_byte() {
    let nodes = mobile_nodes(40, 0xFEED);
    let mut sim = Simulator::new(chatter_cfg(), nodes.clone(), Chatter { heard: 0 }, 11);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs_f64(4.0));
    let bytes = sim.snapshot();
    let restored =
        Simulator::restore(&bytes, chatter_cfg(), nodes, Chatter { heard: 0 }).expect("restore");
    assert_eq!(
        restored.snapshot(),
        bytes,
        "snapshot bytes changed across a restore round-trip"
    );
}

/// The grid's receiver pass and its collision filter only change cost: a
/// grid run must be bit-identical to the brute-force oracle, which scans
/// every node and walks every frame on the air — same trace bytes,
/// deliveries, stats and energy. Crossing a snapshot boundary mid-run
/// (which rebuilds the grid) must not perturb the result either. The field
/// is more than four radio ranges wide, and the run has collisions and
/// concurrent frames whose senders are more than two ranges apart, so the
/// filter both skips frames and marks shared receivers.
#[test]
fn grid_receiver_path_matches_brute_force_across_a_snapshot() {
    let nodes = mobile_nodes(50, 0xBEEF);
    let run = |neighbor_index: NeighborIndex, split: bool| {
        let cfg = SimConfig {
            neighbor_index,
            ..chatter_cfg()
        };
        let mut sim = Simulator::new(cfg.clone(), nodes.clone(), Chatter { heard: 0 }, 23);
        if split {
            sim.run_until(SimTime::ZERO + SimDuration::from_secs_f64(5.0));
            let bytes = sim.snapshot();
            sim = Simulator::restore(&bytes, cfg, nodes.clone(), Chatter { heard: 0 })
                .expect("restore");
        }
        sim.run();
        sim.into_parts()
    };
    let outcome = |(proto, ctx): &(Chatter, Ctx<u32>)| {
        (
            ctx.trace().render(),
            proto.heard,
            *ctx.stats(),
            ctx.total_energy_j(),
        )
    };
    let grid = run(NeighborIndex::Grid, false);
    let want = outcome(&grid);
    assert!(!want.0.is_empty(), "run recorded no trace events");
    assert!(want.2.collisions > 0, "{:?}", want.2);
    assert_eq!(
        want,
        outcome(&run(NeighborIndex::BruteForce, false)),
        "grid run diverged"
    );
    assert_eq!(
        want,
        outcome(&run(NeighborIndex::Grid, true)),
        "snapshot boundary perturbed the run"
    );

    // Some frame starts while another, from more than 2r away, is on the
    // air (the shortest frame's airtime bounds "on the air" from below).
    let range = RADIO_RANGE;
    assert!(FIELD.width() >= 4.0 * range);
    let starts: Vec<(SimTime, Point)> = grid
        .1
        .trace()
        .events()
        .filter(|e| matches!(e.kind, TraceKind::TxStart { .. }))
        .map(|e| {
            let plan = &nodes[e.node.index()];
            (e.time, plan.position_at(e.time.as_secs_f64()))
        })
        .collect();
    let airtime = packet_airtime(20);
    let far_apart = starts.windows(2).any(|w| {
        let ((t0, p0), (t1, p1)) = (w[0], w[1]);
        t1.since(t0) < airtime && p0.dist(p1) > 2.0 * range
    });
    assert!(far_apart, "no concurrent frames more than 2r apart");
}
