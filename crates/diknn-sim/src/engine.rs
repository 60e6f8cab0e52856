//! The discrete-event engine: event queue, MAC, delivery, timers, beacons.
//!
//! Design notes:
//!
//! * **Determinism.** The clock is integer nanoseconds, ties are broken by a
//!   monotone sequence number, receiver iteration is in `NodeId` order, and
//!   all randomness flows from one seeded PCG-family RNG. Same seed ⇒ same
//!   trace, byte for byte.
//! * **Ownership.** All mutable run state lives in [`Ctx`]; the protocol
//!   under test is a separate field of [`Simulator`], so protocol callbacks
//!   receive `&mut Ctx` without borrow gymnastics.
//! * **Radio model.** Unit-disc propagation evaluated at transmission start;
//!   carrier-sense with binary-exponential backoff; a reception overlapping
//!   any other audible transmission is destroyed (classic ns-2 style
//!   collision rule, which also captures hidden terminals); optional uniform
//!   packet loss on top. Unicast frames get link-layer retries.

use std::collections::BTreeSet;
use std::sync::Arc;

use diknn_geom::Point;
use diknn_mobility::Mobility;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use diknn_snap::{Snap, SnapError, SnapReader, SnapState, SnapWriter};

use crate::config::{packet_airtime, MacMode, NeighborIndex, SimConfig, HEADER_BYTES, RADIO_RANGE};
use crate::energy::{EnergyMeter, TrafficClass, RX_POWER_W, TX_POWER_W};
use crate::faults::LinkLossModel;
use crate::grid::SpatialGrid;
use crate::ids::{NodeId, TimerId};
use crate::lifecycle::NodePhase;
use crate::neighbors::{Neighbor, NeighborTable, NEIGHBOR_TIMEOUT};
use crate::queue::{EventQueue, FramePool, Handle};
use crate::soa::{FlowLedger, NodeSoA};
use crate::stats::{PerfCounters, SimStats};
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventTrace, ProtoEvent, TraceKind};

/// Snapshot format version of the simulator's mutable state (see
/// [`Simulator::snapshot`]). The versioning rule: **any** change that
/// alters the snapshot byte stream — a reordered field, a new enum tag, an
/// added piece of state — must bump this constant. Old snapshots are then
/// rejected loudly by [`Simulator::restore`] instead of being quietly
/// misread; there is deliberately no cross-version migration path.
///
/// Version 2: hot-path memory overhaul (DESIGN §14) — frames moved from a
/// `BTreeMap` to a slot/generation [`FramePool`] (handles replace dense tx
/// ids on the wire), per-node state packed into [`NodeSoA`] with the new
/// carrier-sense columns, the flow-energy ledger densified, and per-event-
/// kind counters added to [`SimStats`].
///
/// Version 3: the flight recorder has one tier — [`EventTrace`] lost its
/// `verbose` flag and [`TraceKind`] its five per-reception/timer variants
/// (DESIGN §8, §14).
///
/// Version 4: [`ProtoEvent::QueryDone`] carries its status as a
/// [`crate::QueryStatus`] tag byte instead of a length-prefixed label, and
/// [`NodeSoA`] lost its `alive` column (liveness is `phase == Up`).
///
/// Version 5: the DIKNN protocol image lost three diagnostic histories
/// nothing read (frames sent per message kind, the Q-node hop list and the
/// routing-hop list); the itinerary is rebuilt from the flight recorder's
/// token handoffs instead.
///
/// Version 6: a neighbour-table entry is `(sender, heard_at)`; the
/// advertised position and speed are rebuilt from the sender's plan.
///
/// Version 7: the DIKNN serving layer keeps only its recent completion
/// times; its admission depth is the size of its admitted set, so the
/// separate in-flight counter and the constant rate window are gone.
///
/// Version 8: a DIKNN query's sink state is dropped when the query is
/// finalised, so the state lost its `done` flag.
///
/// Version 9: the image ends in an FNV-1a checksum of all bytes before it,
/// and the configuration fingerprint covers a `SimConfig` whose MAC budgets
/// are constants and whose uniform loss rate lives in the fault plan.
///
/// Version 10: a frame on the air carries its sender's position at
/// transmission start, which bounds the frames it can collide with.
///
/// Version 11: the radio range is a constant, so the DIKNN image lost its
/// copy of it and the configuration fingerprint covers a `SimConfig`
/// without it; the DIKNN serving layer lost its admitted set, which was the
/// key set of the live sink states.
pub const SNAP_VERSION: u32 = 11;

/// Base MAC backoff window; the n-th retry waits uniform(0, window·2ⁿ).
pub(crate) const BACKOFF_WINDOW: SimDuration = SimDuration::from_micros(640);

/// Carrier-sense backoffs a frame may take while the channel is busy; the
/// next busy attempt drops it.
pub(crate) const MAX_BACKOFFS: u32 = 6;

/// Link-layer (ARQ) retransmissions of a unicast frame its addressee did
/// not receive; models the 802.11 retry behaviour.
pub const UNICAST_RETRIES: u32 = 3;

const _: () = assert!(
    MAX_BACKOFFS > 0,
    "no frame could ever send under contention"
);

/// Beacon payload size in bytes (id + position + speed).
pub(crate) const BEACON_BYTES: usize = 20;

/// A mobility plan shared between the simulator and the ground-truth oracle.
pub type SharedMobility = Arc<dyn Mobility>;

/// Where a frame is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// Link-local broadcast: every node in radio range processes it.
    Broadcast,
    /// Addressed to one node; others overhear (and pay energy) but do not
    /// process it.
    Unicast(NodeId),
}

/// The behaviour under test. One instance drives *all* nodes: per-node
/// protocol state is owned by the implementation, keyed by [`NodeId`].
pub trait Protocol {
    /// Application-level message carried by protocol frames.
    type Msg: Clone;

    /// Called once at time zero, before any event.
    fn on_start(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

    /// A frame addressed to (or broadcast at) `at` arrived from `from`.
    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &Self::Msg, ctx: &mut Ctx<Self::Msg>);

    /// A timer set via [`Ctx::set_timer`] fired at node `at`.
    fn on_timer(&mut self, _at: NodeId, _key: u64, _ctx: &mut Ctx<Self::Msg>) {}

    /// A unicast from `at` to `to` failed after all retries (moved out of
    /// range, collisions, or random loss).
    fn on_send_failed(
        &mut self,
        _at: NodeId,
        _to: NodeId,
        _msg: &Self::Msg,
        _ctx: &mut Ctx<Self::Msg>,
    ) {
    }
}

/// Frame content: engine beacons or protocol messages.
#[derive(Debug, Clone)]
enum Frame<M> {
    Beacon,
    Proto(M),
}

/// A frame waiting for (or undergoing) MAC transmission.
struct PendingTx<M> {
    from: NodeId,
    dest: Destination,
    frame: Frame<M>,
    payload_bytes: usize,
    /// Channel-busy backoff attempts for the current transmission try.
    backoffs: u32,
    /// Link-layer retransmissions already performed (unicast only).
    retries: u32,
    /// Flow label for energy attribution (query id for KNN protocols);
    /// `None` for beacons and untagged traffic. Pure accounting — never
    /// consulted by the MAC or delivery paths.
    flow: Option<u32>,
    /// Set while the frame is on the air (it has a matching `ActiveTx`);
    /// guards against double-starting a transmission.
    on_air: bool,
}

/// A frame currently on the air.
struct ActiveTx {
    id: Handle,
    from: NodeId,
    /// The sender's position at transmission start.
    origin: Point,
    /// Nodes that were within range at transmission start, ascending by
    /// id, with a flag set when their copy has been destroyed by a
    /// collision.
    receivers: Vec<(NodeId, bool)>,
    airtime: SimDuration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    MacAttempt(Handle),
    TxEnd(Handle),
    Timer {
        node: NodeId,
        id: TimerId,
        key: u64,
    },
    Beacon(NodeId),
    /// Fault plan: fail-stop crash of a node.
    Crash(NodeId),
    /// Fault plan: a crashed node reboots.
    Recover(NodeId),
    /// Churn plan: the node leaves the network.
    Leave(NodeId),
    /// Churn plan: a churned-out node rejoins (amnesiac under state loss).
    Rejoin(NodeId),
}

// ----- snapshot encoding of the engine-private state types --------------
//
// These impls are part of the snapshot wire format: changing any of them
// (field order, tags) requires bumping `SNAP_VERSION`.

diknn_snap::snap_enum!(Destination {
    0 => Broadcast,
    1 => Unicast(to),
});

impl<M: Snap> Snap for Frame<M> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            Frame::Beacon => w.put_u8(0),
            Frame::Proto(m) => {
                w.put_u8(1);
                m.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(Frame::Beacon),
            1 => Ok(Frame::Proto(M::unsnap(r)?)),
            tag => Err(SnapError::BadTag { ty: "Frame", tag }),
        }
    }
}

impl<M: Snap> Snap for PendingTx<M> {
    fn snap(&self, w: &mut SnapWriter) {
        self.from.snap(w);
        self.dest.snap(w);
        self.frame.snap(w);
        self.payload_bytes.snap(w);
        self.backoffs.snap(w);
        self.retries.snap(w);
        self.flow.snap(w);
        self.on_air.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(PendingTx {
            from: NodeId::unsnap(r)?,
            dest: Destination::unsnap(r)?,
            frame: Frame::unsnap(r)?,
            payload_bytes: usize::unsnap(r)?,
            backoffs: u32::unsnap(r)?,
            retries: u32::unsnap(r)?,
            flow: Option::unsnap(r)?,
            on_air: bool::unsnap(r)?,
        })
    }
}

diknn_snap::snap_struct!(ActiveTx {
    id,
    from,
    origin,
    receivers,
    airtime
});

diknn_snap::snap_enum!(EventKind {
    0 => MacAttempt(id),
    1 => TxEnd(id),
    2 => Timer { node, id, key },
    3 => Beacon(node),
    4 => Crash(node),
    5 => Recover(node),
    6 => Leave(node),
    7 => Rejoin(node),
});

/// Reusable hot-path scratch buffers. Never serialized: contents are dead
/// between events; only the allocations are recycled.
#[derive(Default)]
struct Scratch {
    /// Free receiver lists for `ActiveTx` (returned at end-of-frame).
    recv: Vec<Vec<(NodeId, bool)>>,
    /// Free delivery lists (returned once callbacks have run).
    succ: Vec<Vec<NodeId>>,
}

/// All mutable run state except the protocol: world, queue, RNG, meters.
///
/// Protocol callbacks receive `&mut Ctx` and use its public API to inspect
/// the world and emit frames/timers.
pub struct Ctx<M> {
    cfg: SimConfig,
    mobility: Vec<SharedMobility>,
    tables: Vec<NeighborTable>,
    energy: Vec<EnergyMeter>,
    now: SimTime,
    rng: SmallRng,
    stats: SimStats,
    /// Inline 4-ary min-heap over `(time, seq)`; see [`crate::queue`].
    queue: EventQueue<EventKind>,
    seq: u64,
    next_timer: u64,
    /// Frames waiting for (or undergoing) MAC transmission, addressed by
    /// generation-checked [`Handle`]s carried inside the queued events.
    frames: FramePool<PendingTx<M>>,
    active: Vec<ActiveTx>,
    cancelled_timers: BTreeSet<u64>,
    stopped: bool,
    /// Whether [`Simulator::start`] has run (beacon phases seeded,
    /// `on_start` delivered). Snapshotted so a restored run never re-runs
    /// its startup sequence.
    started: bool,
    /// Per-node state columns (liveness, lifecycle, Gilbert–Elliott
    /// channel state, carrier-sense counters), indexed by dense node id.
    nodes: NodeSoA,
    /// Spatial index over node positions for the radio hot path; `None`
    /// under [`NeighborIndex::BruteForce`]. Grid answers are candidate
    /// supersets, always exact-checked against true positions, so both
    /// settings produce bit-identical runs (see [`crate::grid`]).
    grid: Option<SpatialGrid>,
    /// The flight recorder (see [`crate::trace`]); disabled unless
    /// `SimConfig::trace.enabled` is set.
    trace: EventTrace,
    /// Per-flow protocol energy ledger (joules), indexed by the flow label
    /// passed to [`Ctx::unicast_flow`]/[`Ctx::broadcast_flow`]. Each frame's
    /// tx charge plus every receiver's rx charge lands on its flow, so the
    /// ledger sums to `total_protocol_energy_j` when all traffic is tagged.
    flow_energy: FlowLedger,
    /// Recycled hot-path buffers (derived, not snapshotted).
    scratch: Scratch,
    /// Implementation performance counters (not snapshotted, not part of
    /// any behavioural fingerprint — see [`PerfCounters`]).
    perf: PerfCounters,
}

impl<M: Clone> Ctx<M> {
    // ----- inspection ---------------------------------------------------

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of nodes in the network.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.mobility.len()
    }

    /// Exact current position of `node` (nodes are location-aware, §3.1).
    #[inline]
    pub fn position(&self, node: NodeId) -> Point {
        self.mobility[node.index()].position_at(self.now.as_secs_f64())
    }

    /// Exact current speed of `node` in m/s.
    #[inline]
    pub fn speed(&self, node: NodeId) -> f64 {
        self.mobility[node.index()].speed_at(self.now.as_secs_f64())
    }

    /// Snapshot of `node`'s neighbour table (stale entries pruned). The
    /// table holds what the node heard in beacons (plus the t = 0 warm-up
    /// round, see [`Simulator::warm_neighbor_tables`]), never ground truth:
    /// each entry is the sender's position and speed as advertised at
    /// `heard_at`, evaluated from its plan at that time.
    ///
    /// Takes `&mut self` because pruning is a behavioural side effect: it
    /// decides where a later-re-heard neighbour lands in the table's
    /// insertion order.
    pub fn neighbors(&mut self, node: NodeId) -> Vec<Neighbor> {
        let table = &mut self.tables[node.index()];
        if self.now > SimTime::ZERO + NEIGHBOR_TIMEOUT {
            table.expire(SimTime::from_nanos(
                self.now.as_nanos() - NEIGHBOR_TIMEOUT.as_nanos(),
            ));
        }
        table
            .entries()
            .iter()
            .map(|&(id, heard_at)| {
                let plan = &self.mobility[id.index()];
                let t = heard_at.as_secs_f64();
                Neighbor {
                    id,
                    position: plan.position_at(t),
                    speed: plan.speed_at(t),
                    heard_at,
                }
            })
            .collect()
    }

    /// Engine counters so far.
    #[inline]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Mutable counters: protocols bump the protocol-level fault counters
    /// (`tokens_reissued`, `query_retries`) through this.
    #[inline]
    pub fn stats_mut(&mut self) -> &mut SimStats {
        &mut self.stats
    }

    /// Whether `node` is currently up (fault plan liveness).
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.phase[node.index()].is_up()
    }

    /// Lifecycle phase of `node`: up, temporarily down (crash/churn), or
    /// permanently dead (energy exhaustion).
    #[inline]
    pub fn phase(&self, node: NodeId) -> NodePhase {
        self.nodes.phase[node.index()]
    }

    /// Number of currently-live nodes.
    pub fn alive_count(&self) -> usize {
        self.nodes.phase.iter().filter(|p| p.is_up()).count()
    }

    /// The recorded event trace; empty unless tracing was enabled via
    /// `SimConfig::trace`.
    #[inline]
    pub fn trace(&self) -> &EventTrace {
        &self.trace
    }

    /// Energy meter of one node.
    #[inline]
    pub fn energy(&self, node: NodeId) -> &EnergyMeter {
        &self.energy[node.index()]
    }

    /// Sum of protocol (non-beacon) radio energy over all nodes, in joules.
    pub fn total_protocol_energy_j(&self) -> f64 {
        self.energy.iter().map(EnergyMeter::protocol_j).sum()
    }

    /// Sum of all radio energy (incl. beacons) over all nodes, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.iter().map(EnergyMeter::total_j).sum()
    }

    /// Per-flow protocol energy ledger: joules attributed to each flow
    /// label (query id) via [`Ctx::unicast_flow`]/[`Ctx::broadcast_flow`].
    /// Untagged traffic (plain `unicast`/`broadcast`, beacons) is charged
    /// to the node meters only and reads as zero here.
    #[inline]
    pub fn flow_energy_j(&self) -> &FlowLedger {
        &self.flow_energy
    }

    /// Implementation-side performance counters (receiver-query work, grid
    /// refreshes). Deliberately outside [`Ctx::stats`]: these describe
    /// *how* the run was computed, differ across index variants, and reset
    /// on restore — see [`PerfCounters`].
    #[inline]
    pub fn perf(&self) -> &PerfCounters {
        &self.perf
    }

    /// Seeded RNG for protocol-level randomness (timer jitter etc.).
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    // ----- actions ------------------------------------------------------

    /// Queue a broadcast frame from `from` carrying `msg`;
    /// `payload_bytes` drives airtime and energy.
    pub fn broadcast(&mut self, from: NodeId, payload_bytes: usize, msg: M) {
        self.broadcast_flow(from, payload_bytes, msg, None);
    }

    /// Queue a unicast frame from `from` to `to`.
    pub fn unicast(&mut self, from: NodeId, to: NodeId, payload_bytes: usize, msg: M) {
        self.unicast_flow(from, to, payload_bytes, msg, None);
    }

    /// [`Ctx::broadcast`] with a flow label for per-query energy
    /// attribution (see [`Ctx::flow_energy_j`]). The label never affects
    /// MAC behaviour or delivery.
    pub fn broadcast_flow(
        &mut self,
        from: NodeId,
        payload_bytes: usize,
        msg: M,
        flow: Option<u32>,
    ) {
        self.enqueue_frame(
            from,
            Destination::Broadcast,
            Frame::Proto(msg),
            payload_bytes,
            flow,
        );
    }

    /// [`Ctx::unicast`] with a flow label for per-query energy attribution.
    pub fn unicast_flow(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: usize,
        msg: M,
        flow: Option<u32>,
    ) {
        debug_assert!(from != to, "unicast to self");
        self.enqueue_frame(
            from,
            Destination::Unicast(to),
            Frame::Proto(msg),
            payload_bytes,
            flow,
        );
    }

    /// Schedule `on_timer(node, key)` after `delay`.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, key: u64) -> TimerId {
        self.check_node(node);
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        let at = self.now + delay;
        self.schedule(at, EventKind::Timer { node, id, key });
        id
    }

    /// Cancel a previously set timer (no-op if it already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled_timers.insert(id.0);
    }

    /// Request that the run stop after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    // ----- flight recorder ----------------------------------------------

    /// Record a protocol-level trace event at `node` (no-op while the
    /// flight recorder is disabled). Every protocol emits its trace points
    /// here.
    pub fn record_proto(&mut self, node: NodeId, ev: ProtoEvent) {
        self.trace_event(node, TraceKind::Proto(ev));
    }

    #[inline]
    fn trace_event(&mut self, node: NodeId, kind: TraceKind) {
        if self.trace.is_enabled() {
            self.trace.record(self.now, node, kind);
            self.stats.trace_events += 1;
        }
    }

    /// Record the node's running energy total after a charge. Only done
    /// under an energy budget, where the invariant checker needs the
    /// series; unbudgeted runs would drown the ring in meter samples.
    #[inline]
    fn trace_energy(&mut self, node: NodeId) {
        if self.trace.is_enabled() && self.cfg.faults.energy_budget_j.is_some() {
            let spent_j = self.energy[node.index()].total_j();
            self.trace_event(node, TraceKind::Energy { spent_j });
        }
    }

    // ----- internals ----------------------------------------------------

    /// Reject an id that names no node of this network, at the call that
    /// supplied it rather than deep inside a later event.
    #[track_caller]
    fn check_node(&self, node: NodeId) {
        let n = self.node_count();
        assert!(
            node.index() < n,
            "node {node} is out of range: the network has {n} nodes"
        );
    }

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
    }

    fn enqueue_frame(
        &mut self,
        from: NodeId,
        dest: Destination,
        frame: Frame<M>,
        payload_bytes: usize,
        flow: Option<u32>,
    ) {
        self.check_node(from);
        if let Destination::Unicast(to) = dest {
            self.check_node(to);
        }
        let h = self.frames.insert(PendingTx {
            from,
            dest,
            frame,
            payload_bytes,
            backoffs: 0,
            retries: 0,
            flow,
            on_air: false,
        });
        // Initial desynchronisation jitter.
        let jitter = self.random_backoff(0);
        let at = self.now + jitter;
        self.schedule(at, EventKind::MacAttempt(h));
    }

    fn random_backoff(&mut self, exponent: u32) -> SimDuration {
        let window = BACKOFF_WINDOW.as_nanos() << exponent.min(6);
        SimDuration::from_nanos(self.rng.gen_range(0..=window.max(1)))
    }

    // lint: hot-path (carrier sense + audibility run once per MAC attempt)
    /// True when `node` senses the channel busy: it is transmitting or is
    /// within range of an ongoing transmission. O(1): the SoA counters are
    /// maintained by `start_transmission`/`finish_transmission` and count
    /// exactly the memberships the old scan over `active` tested.
    #[inline]
    fn channel_busy(&self, node: NodeId) -> bool {
        let i = node.index();
        self.nodes.tx_count[i] > 0 || self.nodes.rx_cover[i] > 0
    }

    /// Append to `out` (which must be empty) the live nodes within radio
    /// range of `from` right now, ascending by id, and return `from`'s
    /// position. This is the engine's one in-range query: frame delivery
    /// and table warm-up both use it.
    ///
    /// With the grid index it is one pass over the cover window's slot
    /// runs, one per row. Each slot carries its node's anchor, which is
    /// within `drift` of the node's true position, so an anchor distance
    /// outside `range ± drift` decides membership outright and only the
    /// ambiguity band pays an exact mobility-plan evaluation. `ANCHOR_EPS`
    /// absorbs the few-ulp rounding slack between the anchor-distance and
    /// exact-distance computations, keeping both shortcuts conservative:
    /// any slot the triage classifies would get the same answer from the
    /// exact predicate. The survivors are then sorted by id, so the
    /// receiver set and its order — and every RNG draw downstream of it —
    /// are those of the brute-force scan.
    fn fill_receivers(&mut self, from: NodeId, out: &mut Vec<(NodeId, bool)>) -> Point {
        debug_assert!(out.is_empty());
        let origin = self.position(from);
        let range2 = RADIO_RANGE * RADIO_RANGE;
        let t = self.now.as_secs_f64();
        let fi = from.index();
        let Ctx {
            mobility,
            nodes,
            grid,
            perf,
            now,
            ..
        } = self;
        perf.aud_cache_misses += 1; // no cache: every query misses
        let Some(grid) = grid.as_ref() else {
            perf.grid_candidates += mobility.len() as u64;
            for (i, plan) in mobility.iter().enumerate() {
                if i != fi && nodes.phase[i].is_up() {
                    perf.exact_checks += 1;
                    if origin.dist_sq(plan.position_at(t)) <= range2 {
                        out.push((NodeId(i as u32), false));
                    }
                }
            }
            return origin;
        };
        const ANCHOR_EPS: f64 = 1e-6;
        let drift = grid.drift_bound(*now);
        let far = RADIO_RANGE + drift + ANCHOR_EPS;
        let far_sq = far * far;
        let near = RADIO_RANGE - drift - ANCHOR_EPS;
        let near_sq = if near > 0.0 { near * near } else { -1.0 };
        for run in grid.row_runs(grid.cover_cells(origin, RADIO_RANGE, *now)) {
            perf.grid_candidates += run.len() as u64;
            for slot in run {
                let d0 = origin.dist_sq(slot.pos);
                if d0 > far_sq {
                    continue; // definitely out of range
                }
                let ix = slot.id as usize;
                if ix == fi || !nodes.phase[ix].is_up() {
                    continue;
                }
                if d0 > near_sq {
                    // Ambiguity band: the exact check decides.
                    perf.exact_checks += 1;
                    if origin.dist_sq(mobility[ix].position_at(t)) > range2 {
                        continue;
                    }
                }
                out.push((NodeId(slot.id), false));
            }
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        origin
    }

    /// Re-bucket the spatial grid once accumulated node drift could
    /// exceed the refresh slack. Called by the run loop on every event; a
    /// cheap no-op while fresh, and always for static scenarios (`vmax = 0`
    /// never drifts).
    fn refresh_grid_if_stale(&mut self) {
        let now = self.now;
        let Ctx {
            mobility,
            grid,
            perf,
            ..
        } = self;
        if let Some(grid) = grid.as_mut() {
            if grid.needs_refresh(now) {
                let t = now.as_secs_f64();
                grid.refresh(|i| mobility[i].position_at(t), now);
                perf.grid_refreshes += 1;
            }
        }
    }

    /// Begin transmitting pending frame `h`: mark collisions, bump the
    /// carrier-sense counters, and schedule the end-of-frame event.
    fn start_transmission(&mut self, h: Handle) {
        let (from, airtime, dest, beacon) = {
            let p = self.frames.get_mut(h).expect("pending tx");
            p.on_air = true;
            (
                p.from,
                packet_airtime(p.payload_bytes),
                p.dest,
                matches!(p.frame, Frame::Beacon),
            )
        };
        let tx_dest = match dest {
            Destination::Broadcast => None,
            Destination::Unicast(to) => Some(to),
        };
        self.trace_event(
            from,
            TraceKind::TxStart {
                dest: tx_dest,
                beacon,
            },
        );
        let mut receivers = self.scratch.recv.pop().unwrap_or_default();
        let origin = self.fill_receivers(from, &mut receivers);
        if self.cfg.mac == MacMode::Contention {
            // Collision rule: a receiver hearing two overlapping
            // transmissions loses both copies; a transmitting node cannot
            // receive. The SoA counters stand in for the old scans over
            // `active` (they count exactly the same memberships).
            for (r, corrupted) in receivers.iter_mut() {
                if self.nodes.tx_count[r.index()] > 0 {
                    *corrupted = true;
                }
            }
            // Walk the active list only when some receiver of mine is
            // covered by another transmission (my own counters are not
            // bumped yet, so `rx_cover` means "covered by someone else").
            if receivers
                .iter()
                .any(|&(r, _)| self.nodes.rx_cover[r.index()] > 0)
            {
                self.mark_collisions(origin, &mut receivers);
            }
        }
        self.nodes.tx_count[from.index()] += 1;
        for &(r, _) in &receivers {
            self.nodes.rx_cover[r.index()] += 1;
        }
        self.active.push(ActiveTx {
            id: h,
            from,
            origin,
            receivers,
            airtime,
        });
        self.schedule(self.now + airtime, EventKind::TxEnd(h));
    }

    /// Mark every receiver that a new frame from `origin` shares with a
    /// frame already on the air, in both frames, counting one collision per
    /// shared receiver. Both receiver lists ascend by id, so one linear
    /// merge finds the shared ones.
    ///
    /// With the grid index, frames whose sender started too far away are
    /// skipped. A shared receiver was within range of the other sender at
    /// that frame's start and is within range of `origin` now, at most the
    /// other frame's airtime later, moving at no more than `vmax` (the
    /// grid's speed bound) in between: so the two senders' start positions
    /// are at most `2 · range + vmax · airtime` apart; `REACH_EPS` absorbs
    /// rounding. The brute-force index keeps the full walk, the oracle the
    /// filter is tested against.
    fn mark_collisions(&mut self, origin: Point, receivers: &mut [(NodeId, bool)]) {
        const REACH_EPS: f64 = 1e-6;
        let vmax = self.grid.as_ref().map(SpatialGrid::max_speed);
        for other in self.active.iter_mut() {
            if let Some(vmax) = vmax {
                let reach = 2.0 * RADIO_RANGE + vmax * other.airtime.as_secs_f64() + REACH_EPS;
                if origin.dist_sq(other.origin) > reach * reach {
                    continue;
                }
            }
            let (mut i, mut j) = (0, 0);
            while i < receivers.len() && j < other.receivers.len() {
                let (mine, theirs) = (receivers[i].0, other.receivers[j].0);
                if mine < theirs {
                    i += 1;
                } else if theirs < mine {
                    j += 1;
                } else {
                    receivers[i].1 = true;
                    other.receivers[j].1 = true;
                    self.stats.collisions += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    // lint: end-hot-path
}

/// Outcome handed back to the run loop when an event needs a protocol
/// callback; keeps `Ctx` internals and the protocol object decoupled.
enum Callback<M> {
    None,
    Timer {
        node: NodeId,
        key: u64,
    },
    Deliveries {
        from: NodeId,
        msg: M,
        to: Vec<NodeId>,
    },
    SendFailed {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
}

/// The simulator: a [`Ctx`] plus the protocol under test.
pub struct Simulator<P: Protocol> {
    ctx: Ctx<P::Msg>,
    protocol: P,
}

impl<P: Protocol> Simulator<P> {
    /// Build a simulator over `mobility` plans with the given protocol.
    /// `seed` fixes every random choice of the run.
    pub fn new(cfg: SimConfig, mobility: Vec<SharedMobility>, protocol: P, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        assert!(!mobility.is_empty(), "simulation needs at least one node");
        let n = mobility.len();
        let trace = EventTrace::new(&cfg.trace);
        let mut ctx = Ctx {
            cfg,
            mobility,
            tables: vec![NeighborTable::default(); n],
            energy: vec![EnergyMeter::default(); n],
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            stats: SimStats::default(),
            queue: EventQueue::new(),
            seq: 0,
            next_timer: 0,
            frames: FramePool::new(),
            active: Vec::new(),
            cancelled_timers: BTreeSet::new(),
            stopped: false,
            started: false,
            nodes: NodeSoA::new(n),
            grid: None,
            trace,
            flow_energy: FlowLedger::new(),
            scratch: Scratch::default(),
            perf: PerfCounters::default(),
        };
        ctx.rebuild_grid();
        Self::schedule_faults(&mut ctx, seed);
        Simulator { ctx, protocol }
    }

    /// Turn the fault plan into concrete Crash/Recover events. Random
    /// crashes draw node choices and times from a generator derived from
    /// the run seed but *distinct* from the event RNG, so enabling them
    /// does not perturb MAC backoff draws of the fault-free prefix.
    fn schedule_faults(ctx: &mut Ctx<P::Msg>, seed: u64) {
        let plan = ctx.cfg.faults.clone();
        let n = ctx.mobility.len();
        let schedule_one = |ctx: &mut Ctx<P::Msg>,
                            node: NodeId,
                            at: SimDuration,
                            recover_after: Option<SimDuration>| {
            let at = SimTime::ZERO + at;
            ctx.schedule(at, EventKind::Crash(node));
            if let Some(r) = recover_after {
                ctx.schedule(at + r, EventKind::Recover(node));
            }
        };
        for c in &plan.crashes {
            assert!(
                (c.node as usize) < n,
                "fault plan crashes node {} but the network has {n} nodes",
                c.node
            );
            schedule_one(ctx, NodeId(c.node), c.at, c.recover_after);
        }
        if let Some(rc) = plan.random_crashes {
            let mut frng = SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00_5EED_FA17);
            let m = ((n as f64) * rc.fraction).round() as usize;
            let m = m.min(n);
            // Partial Fisher–Yates: the first `m` entries are a uniform
            // sample of distinct nodes.
            let mut ids: Vec<u32> = (0..n as u32).collect();
            for i in 0..m {
                let j = frng.gen_range(i..n);
                ids.swap(i, j);
            }
            let (lo, hi) = (rc.from.as_nanos(), rc.until.as_nanos());
            for &node in &ids[..m] {
                let at = SimDuration::from_nanos(frng.gen_range(lo..=hi.max(lo)));
                schedule_one(ctx, NodeId(node), at, rc.recover_after);
            }
        }
        if let Some(ch) = plan.churn {
            // Churn gets its own generator (distinct from both the event
            // RNG and the random-crash generator), fully consumed here:
            // enabling churn never perturbs any other random draw, and the
            // whole schedule is pre-expanded so snapshots carry it inside
            // the ordinary event queue.
            let mut crng = SmallRng::seed_from_u64(seed ^ 0xCAFE_F00D_5EED_0C42);
            let m = (((n as f64) * ch.fraction).round() as usize).min(n);
            let mut ids: Vec<u32> = (0..n as u32).collect();
            for i in 0..m {
                let j = crng.gen_range(i..n);
                ids.swap(i, j);
            }
            let exp_s = |rng: &mut SmallRng, mean: f64| -> f64 {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -mean * u.ln()
            };
            let until_s = ch.until.as_secs_f64();
            for &node in &ids[..m] {
                let mut t = ch.from.as_secs_f64() + exp_s(&mut crng, ch.mean_up_s);
                while t <= until_s {
                    ctx.schedule(SimTime::from_secs_f64(t), EventKind::Leave(NodeId(node)));
                    // Departures are clipped to the churn window; the
                    // matching rejoin is not, so every node that leaves
                    // comes back and the network heals after the window.
                    let back = t + exp_s(&mut crng, ch.mean_down_s);
                    ctx.schedule(
                        SimTime::from_secs_f64(back),
                        EventKind::Rejoin(NodeId(node)),
                    );
                    t = back + exp_s(&mut crng, ch.mean_up_s);
                }
            }
        }
    }

    /// Immutable view of the run state.
    pub fn ctx(&self) -> &Ctx<P::Msg> {
        &self.ctx
    }

    /// Mutable view (for pre-run setup such as warming neighbour tables).
    pub fn ctx_mut(&mut self) -> &mut Ctx<P::Msg> {
        &mut self.ctx
    }

    /// The protocol instance (carrying its collected results).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Split borrow: mutable protocol alongside the (immutable) context.
    /// Lets post-run accounting (`KnnProtocol::finish`) and trace replay
    /// run without consuming the simulator.
    pub fn split_mut(&mut self) -> (&mut P, &Ctx<P::Msg>) {
        (&mut self.protocol, &self.ctx)
    }

    /// Drive the protocol from outside the event loop: mutable protocol
    /// alongside the mutable context, for between-epoch interventions such
    /// as streaming new requests into a resident run. The closure runs at
    /// the simulator's current time; anything it schedules (timers, sends)
    /// executes on the next `run_until`.
    pub fn drive<R>(&mut self, f: impl FnOnce(&mut P, &mut Ctx<P::Msg>) -> R) -> R {
        f(&mut self.protocol, &mut self.ctx)
    }

    /// Consume the simulator, returning the protocol and final context.
    pub fn into_parts(self) -> (P, Ctx<P::Msg>) {
        (self.protocol, self.ctx)
    }

    /// Seed every neighbour table from ground truth as if one clean beacon
    /// round had already happened at t = 0. Protocols can then route
    /// immediately instead of being blind for the first beacon interval.
    /// Call before the run: each hit is recorded as heard now. Membership
    /// comes from the delivery path's own receiver query,
    /// `Ctx::fill_receivers`.
    pub fn warm_neighbor_tables(&mut self) {
        let ctx = &mut self.ctx;
        let mut hits = Vec::new();
        for i in 0..ctx.node_count() {
            hits.clear();
            ctx.fill_receivers(NodeId(i as u32), &mut hits);
            for &(j, _) in &hits {
                ctx.tables[i].record(j, ctx.now);
            }
        }
    }

    // lint: hot-path (event loop, dispatch, and frame delivery: every
    // simulated event flows through here)
    /// One-time startup: seed periodic beacons with random phases and
    /// deliver the protocol's `on_start`. Idempotent — the first of
    /// [`Simulator::run`]/[`Simulator::run_until`] triggers it, and a
    /// restored simulator (whose snapshot recorded a completed start)
    /// never re-runs it.
    pub fn start(&mut self) {
        if self.ctx.started {
            return;
        }
        self.ctx.started = true;
        if self.ctx.cfg.beacon_interval > SimDuration::ZERO {
            for i in 0..self.ctx.node_count() {
                let phase = SimDuration::from_nanos(
                    self.ctx
                        .rng
                        .gen_range(0..=self.ctx.cfg.beacon_interval.as_nanos()),
                );
                self.ctx
                    .schedule(SimTime::ZERO + phase, EventKind::Beacon(NodeId(i as u32)));
            }
        }
        self.protocol.on_start(&mut self.ctx);
    }

    /// Run until the event queue drains, simulated time would pass
    /// `until`, or the protocol calls [`Ctx::stop`]. Returns the stop
    /// time.
    ///
    /// Events with time beyond `until` stay queued, so the run is
    /// *resumable*: calling `run_until` repeatedly with increasing bounds
    /// produces exactly the run a single larger bound would have — the
    /// property the resident service mode and snapshot/restore build on.
    /// Note the bound is the caller's, not `SimConfig::time_limit`
    /// (which only [`Simulator::run`] applies).
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        self.start();
        loop {
            if self.ctx.stopped {
                break;
            }
            let Some((head_time, _)) = self.ctx.queue.peek_key() else {
                break;
            };
            if head_time > until {
                break;
            }
            let Some((time, _seq, kind)) = self.ctx.queue.pop() else {
                break;
            };
            self.ctx.now = time;
            self.ctx.refresh_grid_if_stale();
            self.ctx.stats.events += 1;
            let cb = self.dispatch(kind);
            self.handle_callback(cb);
        }
        self.ctx.now
    }

    /// Deliver one dispatch outcome to the protocol.
    fn handle_callback(&mut self, cb: Callback<P::Msg>) {
        match cb {
            Callback::None => {}
            Callback::Timer { node, key } => {
                self.protocol.on_timer(node, key, &mut self.ctx);
            }
            Callback::Deliveries { from, msg, to } => {
                for &node in &to {
                    self.protocol.on_message(node, from, &msg, &mut self.ctx);
                    if self.ctx.stopped {
                        break;
                    }
                }
                // Delivery list consumed: recycle the allocation.
                let mut buf = to;
                buf.clear();
                self.ctx.scratch.succ.push(buf);
            }
            Callback::SendFailed { from, to, msg } => {
                self.protocol.on_send_failed(from, to, &msg, &mut self.ctx);
            }
        }
    }

    /// Run until the event queue drains, the configured time limit is
    /// reached, or the protocol calls [`Ctx::stop`]. Returns the stop time.
    pub fn run(&mut self) -> SimTime {
        let limit = SimTime::ZERO + self.ctx.cfg.time_limit;
        self.run_until(limit)
    }

    /// Handle one event inside `Ctx`, returning any required protocol
    /// callback.
    fn dispatch(&mut self, kind: EventKind) -> Callback<P::Msg> {
        let ctx = &mut self.ctx;
        // Per-event-kind breakdown for the profiling harness. The counts
        // are variant-invariant (the event sequence is bit-identical across
        // index variants), so they are safe inside the fingerprinted stats.
        match kind {
            EventKind::MacAttempt(_) => ctx.stats.ev_mac_attempt += 1,
            EventKind::TxEnd(_) => ctx.stats.ev_tx_end += 1,
            EventKind::Timer { .. } => ctx.stats.ev_timer += 1,
            EventKind::Beacon(_) => ctx.stats.ev_beacon += 1,
            EventKind::Crash(_)
            | EventKind::Recover(_)
            | EventKind::Leave(_)
            | EventKind::Rejoin(_) => ctx.stats.ev_lifecycle += 1,
        }
        match kind {
            EventKind::Crash(node) => {
                if ctx.is_alive(node) {
                    ctx.nodes.phase[node.index()] = NodePhase::Down;
                    ctx.stats.nodes_crashed += 1;
                    ctx.trace_event(node, TraceKind::Crash);
                }
                Callback::None
            }
            EventKind::Recover(node) => {
                // Only fail-stop crashes reboot; energy deaths are final
                // (there is no battery left to boot with).
                let exhausted = ctx
                    .cfg
                    .faults
                    .energy_budget_j
                    .is_some_and(|b| ctx.energy[node.index()].total_j() >= b);
                if !ctx.is_alive(node) && !exhausted {
                    ctx.nodes.phase[node.index()] = NodePhase::Up;
                    ctx.stats.nodes_recovered += 1;
                    ctx.trace_event(node, TraceKind::Recover);
                }
                Callback::None
            }
            EventKind::Leave(node) => {
                if ctx.is_alive(node) {
                    ctx.nodes.phase[node.index()] = NodePhase::Down;
                    ctx.stats.nodes_left += 1;
                    ctx.trace_event(node, TraceKind::Leave);
                }
                Callback::None
            }
            EventKind::Rejoin(node) => {
                // Energy deaths are final here too: a churned-out node
                // whose battery crossed the budget stays down for good.
                let exhausted = ctx
                    .cfg
                    .faults
                    .energy_budget_j
                    .is_some_and(|b| ctx.energy[node.index()].total_j() >= b);
                if ctx.phase(node) == NodePhase::Down && !exhausted {
                    // Amnesiac rejoin: the node's own neighbour table is
                    // gone; it re-learns from beacons like a factory-fresh
                    // node. Other nodes' tables age its old entry out on
                    // their own.
                    ctx.tables[node.index()].clear();
                    ctx.nodes.phase[node.index()] = NodePhase::Up;
                    ctx.stats.nodes_rejoined += 1;
                    ctx.trace_event(node, TraceKind::Rejoin);
                }
                Callback::None
            }
            EventKind::Beacon(node) => {
                // A dead node stays silent but keeps its beacon slot so it
                // resumes advertising right after a recovery.
                if ctx.is_alive(node) {
                    ctx.enqueue_frame(
                        node,
                        Destination::Broadcast,
                        Frame::Beacon,
                        BEACON_BYTES,
                        None,
                    );
                    ctx.stats.beacons_sent += 1;
                }
                let next = ctx.now + ctx.cfg.beacon_interval;
                ctx.schedule(next, EventKind::Beacon(node));
                Callback::None
            }
            EventKind::Timer { node, id, key } => {
                if ctx.cancelled_timers.remove(&id.0) {
                    Callback::None
                } else if !ctx.is_alive(node) {
                    // A dead node's CPU is off: its timers never fire. (If
                    // it recovers the timers stay lost — protocols must
                    // tolerate that, which is what the token watchdog and
                    // sink retry in diknn-core exist for.)
                    ctx.stats.timers_suppressed += 1;
                    Callback::None
                } else {
                    Callback::Timer { node, key }
                }
            }
            EventKind::MacAttempt(h) => {
                let Some((from, on_air)) = ctx.frames.get(h).map(|p| (p.from, p.on_air)) else {
                    return Callback::None; // frame already resolved; handle is stale
                };
                if !ctx.is_alive(from) {
                    // Sender died while the frame sat in the MAC queue: the
                    // frame vanishes. No SendFailed — a dead protocol
                    // instance cannot react, that is the point.
                    ctx.frames.remove(h);
                    ctx.stats.frames_dropped_dead += 1;
                    return Callback::None;
                }
                if on_air {
                    return Callback::None; // already on the air
                }
                if ctx.channel_busy(from) {
                    let p = ctx.frames.get_mut(h).expect("pending tx");
                    p.backoffs += 1;
                    if p.backoffs > MAX_BACKOFFS {
                        ctx.stats.mac_drops += 1;
                        let p = ctx.frames.remove(h).expect("pending tx");
                        if let (Destination::Unicast(to), Frame::Proto(msg)) = (p.dest, p.frame) {
                            return Callback::SendFailed {
                                from: p.from,
                                to,
                                msg,
                            };
                        }
                        return Callback::None;
                    }
                    let backoffs = p.backoffs;
                    let delay = ctx.random_backoff(backoffs);
                    let at = ctx.now + delay;
                    ctx.schedule(at, EventKind::MacAttempt(h));
                    Callback::None
                } else {
                    ctx.start_transmission(h);
                    Callback::None
                }
            }
            EventKind::TxEnd(h) => self.finish_transmission(h),
        }
    }

    fn finish_transmission(&mut self, h: Handle) -> Callback<P::Msg> {
        let ctx = &mut self.ctx;
        let pos = ctx
            .active
            .iter()
            .position(|a| a.id == h)
            .expect("active tx");
        let ActiveTx {
            receivers, airtime, ..
        } = ctx.active.swap_remove(pos);
        let PendingTx {
            from,
            dest,
            frame,
            payload_bytes,
            retries,
            flow,
            ..
        } = ctx.frames.remove(h).expect("pending tx");
        // The air went quiet either way: release the carrier-sense
        // counters bumped at transmission start (dead-sender path too).
        ctx.nodes.tx_count[from.index()] -= 1;
        for &(r, _) in &receivers {
            ctx.nodes.rx_cover[r.index()] -= 1;
        }
        if !ctx.is_alive(from) {
            // Sender crashed mid-air: the frame is truncated garbage. No
            // energy is charged (the crash froze the radio) and nothing is
            // delivered or retried.
            ctx.stats.frames_dropped_dead += 1;
            let mut buf = receivers;
            buf.clear();
            ctx.scratch.recv.push(buf);
            return Callback::None;
        }
        let class = match frame {
            Frame::Beacon => TrafficClass::Beacon,
            Frame::Proto(_) => TrafficClass::Protocol,
        };

        // Energy: the sender pays tx airtime; audible nodes pay rx airtime.
        // Receivers that are not the addressee of a unicast frame abort
        // after decoding the MAC header (standard 802.15.4 address
        // filtering), so they pay header airtime only. Broadcasts and
        // corrupted copies are received in full — the radio cannot know.
        let mut flow_j = ctx.energy[from.index()].charge_tx(TX_POWER_W, airtime, class);
        ctx.trace_energy(from);
        let header_airtime = packet_airtime(0).min(airtime);
        for &(r, corrupted) in &receivers {
            if !ctx.is_alive(r) {
                continue; // died mid-reception: radio already off
            }
            let rx_time = match dest {
                Destination::Unicast(to) if r != to && !corrupted => header_airtime,
                _ => airtime,
            };
            flow_j += ctx.energy[r.index()].charge_rx(RX_POWER_W, rx_time, class);
            ctx.trace_energy(r);
        }
        if let Some(flow) = flow {
            ctx.flow_energy.charge(flow, flow_j);
        }
        ctx.stats.tx_frames += 1;
        ctx.stats.tx_bytes += (HEADER_BYTES + payload_bytes) as u64;
        if class == TrafficClass::Protocol {
            ctx.stats.tx_protocol_frames += 1;
        }

        // Energy-budget deaths: a node whose battery crossed the budget on
        // this frame (sender or any receiver) dies permanently, before any
        // delivery is processed.
        if let Some(budget) = ctx.cfg.faults.energy_budget_j {
            if ctx.is_alive(from) && ctx.energy[from.index()].total_j() >= budget {
                ctx.nodes.phase[from.index()] = NodePhase::Dead;
                ctx.stats.energy_deaths += 1;
                ctx.trace_event(from, TraceKind::EnergyDeath);
            }
            for &(r, _) in &receivers {
                if ctx.is_alive(r) && ctx.energy[r.index()].total_j() >= budget {
                    ctx.nodes.phase[r.index()] = NodePhase::Dead;
                    ctx.stats.energy_deaths += 1;
                    ctx.trace_event(r, TraceKind::EnergyDeath);
                }
            }
        }

        // Work out who actually got a clean copy. Per-receiver drop order:
        // dead radio → collision corruption → jamming zone → link-loss
        // model (uniform or Gilbert–Elliott). Receivers are visited in
        // `receivers` order (ascending id), so every RNG draw is
        // deterministic.
        let t_now = ctx.now.since(SimTime::ZERO);
        let mut successes = ctx.scratch.succ.pop().unwrap_or_default();
        debug_assert!(successes.is_empty());
        for &(r, corrupted) in &receivers {
            if !ctx.is_alive(r) {
                continue;
            }
            if corrupted {
                continue; // already counted in stats.collisions
            }
            if !ctx.cfg.faults.jam_zones.is_empty() {
                // Max loss over the time-active zones containing the
                // receiver, computed inline per receiver (allocation-free).
                // The old grid-prefiltered map produced exactly this value
                // for exactly these receivers — the grid candidate set was
                // a superset sharing the same containment predicate — so
                // the RNG draw sequence is unchanged.
                let pos = ctx.position(r);
                let jam = ctx
                    .cfg
                    .faults
                    .jam_zones
                    .iter()
                    .filter(|z| z.from <= t_now && t_now <= z.until && z.region.contains(pos))
                    .map(|z| z.loss)
                    .fold(0.0_f64, f64::max);
                if jam > 0.0 && ctx.rng.gen::<f64>() < jam {
                    ctx.stats.frames_jammed += 1;
                    continue;
                }
            }
            match ctx.cfg.faults.link_loss {
                LinkLossModel::Uniform(loss) => {
                    if loss > 0.0 && ctx.rng.gen::<f64>() < loss {
                        ctx.stats.random_losses += 1;
                        continue;
                    }
                }
                LinkLossModel::GilbertElliott(ge) => {
                    // Step this receiver's two-state chain, then draw the
                    // loss for the resulting state.
                    let bad = &mut ctx.nodes.ge_bad[r.index()];
                    let flip = ctx.rng.gen::<f64>();
                    *bad = if *bad {
                        flip >= ge.p_bg
                    } else {
                        flip < ge.p_gb
                    };
                    let p = if *bad { ge.bad_loss } else { ge.good_loss };
                    if p > 0.0 && ctx.rng.gen::<f64>() < p {
                        ctx.stats.burst_losses += 1;
                        continue;
                    }
                }
            }
            successes.push(r);
        }
        debug_assert!(successes.windows(2).all(|w| w[0] < w[1]));
        // Receiver list fully consumed: recycle the allocation.
        let mut recv_buf = receivers;
        recv_buf.clear();
        ctx.scratch.recv.push(recv_buf);

        match frame {
            Frame::Beacon => {
                // A beacon advertises the sender's plan at *transmission
                // end* (≈ start; airtime is sub-millisecond), so receivers
                // record only who was heard and when.
                ctx.stats.rx_deliveries += successes.len() as u64;
                for &r in &successes {
                    ctx.tables[r.index()].record(from, ctx.now);
                }
                successes.clear();
                ctx.scratch.succ.push(successes);
                Callback::None
            }
            Frame::Proto(msg) => match dest {
                Destination::Broadcast => {
                    ctx.stats.rx_deliveries += successes.len() as u64;
                    if successes.is_empty() {
                        ctx.scratch.succ.push(successes);
                        Callback::None
                    } else {
                        Callback::Deliveries {
                            from,
                            msg,
                            to: successes,
                        }
                    }
                }
                Destination::Unicast(to) => {
                    if successes.contains(&to) {
                        ctx.stats.rx_deliveries += 1;
                        // Reuse the successes buffer instead of a fresh
                        // one-element allocation on every clean unicast.
                        successes.clear();
                        successes.push(to);
                        Callback::Deliveries {
                            from,
                            msg,
                            to: successes,
                        }
                    } else if retries < UNICAST_RETRIES {
                        // ARQ: put the frame back (a fresh pool slot) and
                        // try again shortly.
                        ctx.stats.arq_retries += 1;
                        let retries = retries + 1;
                        let new_h = ctx.frames.insert(PendingTx {
                            from,
                            dest,
                            frame: Frame::Proto(msg),
                            payload_bytes,
                            backoffs: 0,
                            retries,
                            flow,
                            on_air: false,
                        });
                        let delay = ctx.random_backoff(retries);
                        let at = ctx.now + delay;
                        ctx.schedule(at, EventKind::MacAttempt(new_h));
                        successes.clear();
                        ctx.scratch.succ.push(successes);
                        Callback::None
                    } else {
                        ctx.stats.unicast_failures += 1;
                        successes.clear();
                        ctx.scratch.succ.push(successes);
                        Callback::SendFailed { from, to, msg }
                    }
                }
            },
        }
    }
    // lint: end-hot-path
}

// ----- snapshot / restore -----------------------------------------------

impl<M: Clone> Ctx<M> {
    /// FNV-1a fingerprint of the run configuration, via its `Debug`
    /// rendering (every `SimConfig` field derives `Debug`, so any config
    /// difference shows up here). The config itself is *not* serialized:
    /// restore re-supplies it and this check catches a mismatch.
    fn config_fingerprint(&self) -> u64 {
        diknn_snap::fingerprint(format!("{:?}", self.cfg).as_bytes())
    }

    /// Fingerprint of the (unserializable) mobility plans: exact position
    /// bits of every node sampled at t = 0, now, and now + 1 s, plus each
    /// plan's max speed. Restore re-supplies the plans and rejects ones
    /// that disagree at these probes.
    fn mobility_fingerprint(&self) -> u64 {
        let now_s = self.now.as_secs_f64();
        let mut bytes = Vec::with_capacity(self.mobility.len() * 56);
        for m in self.mobility.iter() {
            for t in [0.0, now_s, now_s + 1.0] {
                let p = m.position_at(t);
                bytes.extend_from_slice(&p.x.to_bits().to_le_bytes());
                bytes.extend_from_slice(&p.y.to_bits().to_le_bytes());
            }
            bytes.extend_from_slice(&m.max_speed().to_bits().to_le_bytes());
        }
        diknn_snap::fingerprint(&bytes)
    }

    /// Build the spatial grid from scratch at the current time, for
    /// [`Simulator::new`] and [`Simulator::restore`]. Grid contents are
    /// *not* serialized: grid answers are exact-checked candidate
    /// supersets, so a freshly built grid yields bit-identical behaviour
    /// regardless of the original's refresh history.
    fn rebuild_grid(&mut self) {
        if self.cfg.neighbor_index == NeighborIndex::Grid {
            let vmax = self
                .mobility
                .iter()
                .map(|m| m.max_speed())
                .fold(0.0_f64, f64::max);
            let t = self.now.as_secs_f64();
            let positions: Vec<Point> = self.mobility.iter().map(|m| m.position_at(t)).collect();
            self.grid = Some(SpatialGrid::build(
                self.cfg.field,
                RADIO_RANGE,
                &positions,
                vmax,
                0.1 * RADIO_RANGE,
                self.now,
            ));
        } else {
            self.grid = None;
        }
    }

    /// Encode every piece of mutable engine state except `now` (written by
    /// [`Simulator::snapshot`] ahead of the mobility fingerprint), `cfg`
    /// and `mobility` (fingerprint-checked), and the grid (rebuilt).
    fn snap_engine_state(&self, w: &mut SnapWriter)
    where
        M: Snap,
    {
        self.tables.snap(w);
        self.energy.snap(w);
        self.rng.state().snap(w);
        self.stats.snap(w);
        // The heap's internal layout is not canonical; serialize events in
        // (time, seq) order so equal states produce equal bytes.
        let mut events: Vec<(SimTime, u64, &EventKind)> = self.queue.iter().collect();
        events.sort_unstable_by_key(|&(t, s, _)| (t, s));
        w.put_u64(events.len() as u64);
        for (t, s, k) in events {
            t.snap(w);
            s.snap(w);
            k.snap(w);
        }
        self.seq.snap(w);
        self.next_timer.snap(w);
        self.frames.snap(w);
        self.active.snap(w);
        self.cancelled_timers.snap(w);
        self.stopped.snap(w);
        self.started.snap(w);
        self.nodes.snap(w);
        self.trace.snap(w);
        self.flow_energy.snap(w);
    }

    /// Overwrite the mutable engine state from a snapshot stream (the
    /// exact inverse of [`Ctx::snap_engine_state`]).
    fn restore_engine_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>
    where
        M: Snap,
    {
        self.tables = Vec::unsnap(r)?;
        self.energy = Vec::unsnap(r)?;
        self.rng = SmallRng::from_state(<[u64; 4]>::unsnap(r)?);
        self.stats = SimStats::unsnap(r)?;
        let n = r.take_len()?;
        let mut queue = EventQueue::with_capacity(n);
        for _ in 0..n {
            let time = SimTime::unsnap(r)?;
            let seq = u64::unsnap(r)?;
            let kind = EventKind::unsnap(r)?;
            queue.push(time, seq, kind);
        }
        self.queue = queue;
        self.seq = u64::unsnap(r)?;
        self.next_timer = u64::unsnap(r)?;
        self.frames = FramePool::unsnap(r)?;
        self.active = Vec::unsnap(r)?;
        self.cancelled_timers = BTreeSet::unsnap(r)?;
        self.stopped = bool::unsnap(r)?;
        self.started = bool::unsnap(r)?;
        self.nodes = NodeSoA::unsnap(r)?;
        self.trace = EventTrace::unsnap(r)?;
        self.flow_energy = FlowLedger::unsnap(r)?;
        let n = self.mobility.len();
        if self.tables.len() != n
            || self.energy.len() != n
            || self.nodes.phase.len() != n
            || self.nodes.ge_bad.len() != n
            || self.nodes.tx_count.len() != n
            || self.nodes.rx_cover.len() != n
        {
            return Err(SnapError::Corrupt(
                "snapshot node count disagrees with the supplied mobility plans",
            ));
        }
        // Reads index the plans by a table entry's id, at its time.
        for &(id, heard_at) in self.tables.iter().flat_map(NeighborTable::entries) {
            if id.index() >= n {
                return Err(SnapError::Corrupt("neighbour table entry names no node"));
            }
            if heard_at > self.now {
                return Err(SnapError::Corrupt(
                    "neighbour table entry heard after the snapshot time",
                ));
            }
        }
        // Dispatch indexes the node columns by an event's node, resolves its
        // frame handle in the pool, and never moves the clock backwards.
        for (time, _, kind) in self.queue.iter() {
            if time < self.now {
                return Err(SnapError::Corrupt(
                    "queued event precedes the snapshot time",
                ));
            }
            let resolves = match *kind {
                EventKind::MacAttempt(h) | EventKind::TxEnd(h) => self.frames.get(h).is_some(),
                EventKind::Timer { node, .. }
                | EventKind::Beacon(node)
                | EventKind::Crash(node)
                | EventKind::Recover(node)
                | EventKind::Leave(node)
                | EventKind::Rejoin(node) => node.index() < n,
            };
            if !resolves {
                return Err(SnapError::Corrupt(
                    "queued event names no node or pooled frame",
                ));
            }
        }
        let pooled = self.frames.iter().flat_map(|(_, p)| {
            let to = match p.dest {
                Destination::Unicast(to) => Some(to),
                Destination::Broadcast => None,
            };
            std::iter::once(p.from).chain(to)
        });
        let on_air = self
            .active
            .iter()
            .flat_map(|a| std::iter::once(a.from).chain(a.receivers.iter().map(|&(id, _)| id)));
        if pooled.chain(on_air).any(|id| id.index() >= n) {
            return Err(SnapError::Corrupt("frame names no node"));
        }
        // Derived state: perf counters restart.
        self.perf = PerfCounters::default();
        Ok(())
    }
}

impl<P: Protocol> Simulator<P>
where
    P: SnapState,
    P::Msg: Snap,
{
    /// Serialize the full mutable run state — engine and protocol — into a
    /// self-contained byte stream.
    ///
    /// Static inputs deliberately stay out of the stream and must be
    /// re-supplied to [`Simulator::restore`]: the `SimConfig`, the mobility
    /// plans (both fingerprint-checked) and the protocol's own static
    /// configuration. What *is* captured: clocks, RNG streams, the event
    /// queue (faults, churn, beacons, in-flight frames, timers), neighbour
    /// tables, energy meters, stats, liveness/lifecycle, the flight
    /// recorder, and the protocol's mutable state. The restore-equivalence
    /// law — `run(2T)` is bit-identical to `run(T)` + snapshot + restore +
    /// `run(2T)` — is enforced by tests in `diknn-workloads`.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        diknn_snap::write_header(&mut w, SNAP_VERSION);
        w.put_u64(self.ctx.config_fingerprint());
        self.ctx.now.snap(&mut w);
        w.put_u64(self.ctx.mobility_fingerprint());
        self.ctx.snap_engine_state(&mut w);
        self.protocol.snap_state(&mut w);
        diknn_snap::seal(w)
    }

    /// Rebuild a simulator from a [`Simulator::snapshot`] stream.
    ///
    /// `cfg` and `mobility` must be the ones the snapshotted run was built
    /// with (fingerprint-enforced); `protocol` must be a freshly
    /// constructed instance with the same static configuration — its
    /// mutable state is overwritten from the stream. Panics (like
    /// [`Simulator::new`]) if `cfg` is invalid or `mobility` is empty;
    /// all stream problems are reported as errors. The header and checksum
    /// are checked before anything is decoded.
    pub fn restore(
        bytes: &[u8],
        cfg: SimConfig,
        mobility: Vec<SharedMobility>,
        protocol: P,
    ) -> Result<Self, SnapError> {
        let mut r = diknn_snap::open(bytes, SNAP_VERSION)?;
        let mut sim = Simulator::new(cfg, mobility, protocol, 0);
        if r.take_u64()? != sim.ctx.config_fingerprint() {
            return Err(SnapError::FingerprintMismatch("SimConfig"));
        }
        sim.ctx.now = SimTime::unsnap(&mut r)?;
        if r.take_u64()? != sim.ctx.mobility_fingerprint() {
            return Err(SnapError::FingerprintMismatch("mobility plans"));
        }
        sim.ctx.restore_engine_state(&mut r)?;
        sim.protocol.restore_state(&mut r)?;
        r.finish()?;
        sim.ctx.rebuild_grid();
        Ok(sim)
    }
}

// Compile-time audit that a whole simulator run can be moved to a worker
// thread: every field of `Ctx` (mobility `Arc<dyn Mobility>` — the trait
// requires `Send + Sync` — RNG, queue, trace ring) is `Send`, so
// `Simulator<P>: Send` whenever the protocol and its messages are. The
// `ParallelSweep` executor in `diknn-workloads` relies on this.
#[allow(dead_code)]
fn assert_simulator_is_send<P>()
where
    P: Protocol + Send,
    P::Msg: Send,
{
    fn is_send<T: Send>() {}
    is_send::<Simulator<P>>();
    is_send::<Ctx<P::Msg>>();
}
