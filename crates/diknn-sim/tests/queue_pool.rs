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
//! * Engine snapshots must be byte-stable across a restore round-trip, and
//!   the incremental audible-set cache must be semantically invisible: a
//!   cached grid run is bit-identical to the brute-force oracle's.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use diknn_geom::{Point, Rect};
use diknn_mobility::{RandomWaypoint, RwpConfig};
use diknn_sim::{
    Ctx, EventQueue, FramePool, NeighborIndex, NodeId, Protocol, SharedMobility, SimConfig,
    SimDuration, SimTime, Simulator, TraceConfig,
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

// ---- engine-level snapshot byte stability + cache transparency ---------

/// Broadcast-chatty protocol: every node rebroadcasts on a timer, so the
/// run exercises the audible-set path (and the frame pool) constantly.
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

use diknn_snap::Snap;

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

/// The audible-set cache is pure memoization: the cached grid run must be
/// bit-identical to the brute-force oracle, which has no cache — same
/// trace bytes, same deliveries, same energy. Crossing a snapshot boundary
/// mid-run (which cold-starts the cache) must not perturb the result
/// either.
#[test]
fn audible_set_cache_is_semantically_invisible() {
    let run = |neighbor_index: NeighborIndex, split: bool| {
        let cfg = SimConfig {
            neighbor_index,
            ..chatter_cfg()
        };
        let nodes = mobile_nodes(50, 0xBEEF);
        let mut sim = Simulator::new(cfg.clone(), nodes.clone(), Chatter { heard: 0 }, 23);
        if split {
            sim.run_until(SimTime::ZERO + SimDuration::from_secs_f64(5.0));
            let bytes = sim.snapshot();
            sim = Simulator::restore(&bytes, cfg, nodes, Chatter { heard: 0 }).expect("restore");
        }
        sim.run();
        let hits = sim.ctx().perf().aud_cache_hits;
        let (proto, ctx) = sim.into_parts();
        (
            (ctx.trace().render(), proto.heard, ctx.total_energy_j()),
            hits,
        )
    };
    let (cached, hits) = run(NeighborIndex::Grid, false);
    let (brute, _) = run(NeighborIndex::BruteForce, false);
    let (split, _) = run(NeighborIndex::Grid, true);
    assert!(!cached.0.is_empty(), "run recorded no trace events");
    assert_eq!(cached, brute, "cached grid run diverged from brute force");
    assert_eq!(cached, split, "snapshot boundary perturbed the cached run");
    assert!(hits > 0, "dense broadcast run never hit the audible cache");
}
