//! Peer-tree — the decentralized R-tree baseline (Demirbas &
//! Ferhatosmanoglu [7]), set up exactly as the paper's evaluation (§5.1):
//!
//! * the field is partitioned into a `g×g` grid (5×5 by default) of MBRs;
//! * a **stationary clusterhead** is pre-located in each cell and its
//!   address is known to every node; the centre cell's head doubles as the
//!   hierarchy root;
//! * every sensor node periodically notifies its closest clusterhead of its
//!   existence/position, plus an immediate notification whenever it crosses
//!   into a new cell (this is the index maintenance that grows with
//!   mobility);
//! * a clusterhead that has not heard from a member for a while deletes it;
//! * a KNN query routes sink → own head → root → the head whose MBR covers
//!   `q`; that head picks candidates from its member table (using an R-tree
//!   over the cell MBRs to pick which neighbouring heads to consult when
//!   its own cell cannot satisfy `k`), collects responses from the
//!   candidate nodes by unicast, and routes the aggregate back to the sink.
//!
//! Mobility hurts in the two ways the paper describes: stale member
//! positions make candidate collection fail (queries to departed nodes are
//! dropped), and cell crossings inflate maintenance traffic.
//!
//! Clusterheads are *extra infrastructure nodes*: the caller appends
//! `grid²` stationary nodes after the `data_nodes` sensor nodes (see
//! [`PeerTree::clusterhead_positions`]). They never answer queries
//! themselves.

use std::collections::BTreeMap;

use diknn_geom::{Point, Rect};
use diknn_routing::{next_hop, reliable, GpsrHeader};
use diknn_rtree::RTree;
use diknn_sim::{pack_timer_key, unpack_timer_key, Ctx, NodeId, Protocol, SimDuration, SimTime};

use diknn_core::messages::QuerySpec;
use diknn_core::{
    schedule_issues, Candidate, CandidateSet, KnnProtocol, QueryOutcome, QueryRequest,
    BASE_MSG_BYTES, COLLECTION_UNIT, K_ISSUE, RESPONSE_BYTES,
};

use crate::Answer;

const K_NOTIFY: u8 = 2;
const K_COLLECT_DONE: u8 = 4;
const K_ASK: u8 = 6;
const K_ASK_STEP: u8 = 7;
const K_SUBREPLY: u8 = 8;
const K_CROSSING: u8 = 9;

/// Periodic membership notification interval in seconds.
const NOTIFY_INTERVAL: f64 = 2.0;

/// How often a node checks whether it crossed into a new cell (a crossing
/// triggers an immediate notification to the new head).
const CROSSING_CHECK_INTERVAL: f64 = 0.5;

/// Member entries older than this many seconds are deleted by their
/// clusterhead.
const MEMBER_TIMEOUT: f64 = 5.0;

/// Window in seconds for gathering sub-replies from neighbouring heads
/// before the k nearest candidates are determined and informed.
const SUBQUERY_WINDOW: f64 = 0.8;

/// Fixed slack in seconds a query head adds on top of the k-scaled reply
/// window before returning the aggregate (routing time for the collect
/// round-trips).
const COLLECT_SLACK: f64 = 0.6;

/// Peer-tree configuration. Only the grid is configurable: it is part of
/// the scenario, since the caller appends `grid²` clusterheads.
#[derive(Debug, Clone)]
pub struct PeerTreeConfig {
    /// Grid dimension `g` (the paper partitions into 5×5).
    pub grid: usize,
}

impl Default for PeerTreeConfig {
    fn default() -> Self {
        PeerTreeConfig { grid: 5 }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum PtMsg {
    /// Membership notification node → clusterhead.
    Notify { node: NodeId, position: Point },
    /// Query riding the hierarchy (gpsr-routed between heads).
    Query {
        spec: QuerySpec,
        gpsr: GpsrHeader,
        /// Hierarchy stage: 0 = to own head, 1 = to root, 2 = to target head.
        stage: u8,
    },
    /// Query head → neighbouring head: send your members near `q`.
    SubQuery {
        qid: u32,
        q: Point,
        k: u32,
        reply_to: NodeId,
        reply_pos: Point,
        gpsr: GpsrHeader,
    },
    /// Neighbouring head → query head: members near `q`.
    SubReply {
        qid: u32,
        members: Vec<(NodeId, Point)>,
        gpsr: GpsrHeader,
        to: NodeId,
    },
    /// Query head → candidate node: report your data (geo-routed to the
    /// node's last known position).
    Collect {
        qid: u32,
        head: NodeId,
        head_pos: Point,
        target: NodeId,
        gpsr: GpsrHeader,
    },
    /// Candidate node → query head (geo-routed back).
    CollectReply {
        qid: u32,
        node: NodeId,
        position: Point,
        to: NodeId,
        gpsr: GpsrHeader,
    },
    /// Aggregate result head → sink.
    Result(Answer),
}

impl PtMsg {
    /// Query id for per-query energy attribution; `Notify` is maintenance
    /// traffic owned by no query.
    fn qid(&self) -> Option<u32> {
        match self {
            PtMsg::Notify { .. } => None,
            PtMsg::Query { spec, .. } | PtMsg::Result(Answer { spec, .. }) => Some(spec.qid),
            PtMsg::SubQuery { qid, .. }
            | PtMsg::SubReply { qid, .. }
            | PtMsg::Collect { qid, .. }
            | PtMsg::CollectReply { qid, .. } => Some(*qid),
        }
    }

    fn wire_bytes(&self) -> usize {
        match self {
            PtMsg::Notify { .. } => BASE_MSG_BYTES,
            PtMsg::Query { .. } => BASE_MSG_BYTES + 8,
            PtMsg::SubQuery { .. } => BASE_MSG_BYTES + 8,
            PtMsg::SubReply { members, .. } => BASE_MSG_BYTES + 10 * members.len(),
            PtMsg::Collect { .. } => BASE_MSG_BYTES,
            PtMsg::CollectReply { .. } => BASE_MSG_BYTES + RESPONSE_BYTES,
            PtMsg::Result(a) => BASE_MSG_BYTES + a.candidates.wire_bytes(),
        }
    }

    /// The GPSR header of a routed frame; `Notify` goes one hop to its
    /// clusterhead and has none.
    fn gpsr_mut(&mut self) -> Option<&mut GpsrHeader> {
        match self {
            PtMsg::Notify { .. } => None,
            PtMsg::Query { gpsr, .. }
            | PtMsg::SubQuery { gpsr, .. }
            | PtMsg::SubReply { gpsr, .. }
            | PtMsg::Collect { gpsr, .. }
            | PtMsg::CollectReply { gpsr, .. } => Some(gpsr),
            PtMsg::Result(a) => Some(&mut a.gpsr),
        }
    }
}

/// A clusterhead's view of one member.
#[derive(Debug, Clone, Copy)]
struct Member {
    position: Point,
    heard_at: SimTime,
}

/// An in-progress candidate collection at a query head.
struct Collection {
    spec: QuerySpec,
    head: NodeId,
    candidates: CandidateSet,
    pending_subqueries: u32,
    collected: u32,
    /// Believed member positions gathered from the own cell and subreplies;
    /// the k best are informed once the gathering window closes.
    pool: Vec<(NodeId, Point)>,
    /// Candidates awaiting their staggered Collect message.
    to_ask: Vec<(NodeId, Point)>,
    /// Candidates actually informed.
    asked: u32,
}

/// The Peer-tree protocol instance.
pub struct PeerTree {
    cfg: PeerTreeConfig,
    requests: Vec<QueryRequest>,
    outcomes: Vec<QueryOutcome>,
    /// Number of data (sensor) nodes; ids ≥ this are clusterheads.
    data_nodes: usize,
    /// Static clusterhead positions (index = cell index, row-major).
    head_positions: Vec<Point>,
    /// Cell rectangles, row-major; an R-tree over them picks target cells.
    cell_index: RTree<usize>,
    /// Per-head member tables: head cell idx → members.
    members: Vec<BTreeMap<u32, Member>>,
    /// Each data node's last known cell (for crossing-triggered notifies).
    last_cell: Vec<Option<usize>>,
    collections: BTreeMap<u32, Collection>,
    /// Subreplies scheduled at neighbouring heads, staggered to avoid
    /// colliding at the query head.
    pending_subreplies: BTreeMap<(u32, u32), PtMsg>,
    route_excludes: BTreeMap<(u32, u8), Vec<NodeId>>,
    field: Rect,
}

impl PeerTree {
    /// Clusterhead positions for a `grid×grid` partition of `field`
    /// (row-major cell centres). Append stationary nodes at these positions
    /// *after* the data nodes when building the simulator.
    pub fn clusterhead_positions(field: Rect, grid: usize) -> Vec<Point> {
        diknn_mobility_grid(field, grid)
    }

    pub fn new(
        cfg: PeerTreeConfig,
        field: Rect,
        data_nodes: usize,
        requests: Vec<QueryRequest>,
    ) -> Self {
        let g = cfg.grid;
        let head_positions = Self::clusterhead_positions(field, g);
        let dx = field.width() / g as f64;
        let dy = field.height() / g as f64;
        let mut cells = Vec::with_capacity(g * g);
        for j in 0..g {
            for i in 0..g {
                let rect = Rect::new(
                    field.min_x + i as f64 * dx,
                    field.min_y + j as f64 * dy,
                    field.min_x + (i + 1) as f64 * dx,
                    field.min_y + (j + 1) as f64 * dy,
                );
                cells.push((rect, j * g + i));
            }
        }
        PeerTree {
            members: vec![BTreeMap::new(); g * g],
            cell_index: RTree::bulk_load(cells),
            last_cell: vec![None; data_nodes],
            cfg,
            requests,
            outcomes: Vec::new(),
            data_nodes,
            head_positions,
            collections: BTreeMap::new(),
            pending_subreplies: BTreeMap::new(),
            route_excludes: BTreeMap::new(),
            field,
        }
    }

    /// Reply window for a query of `k` candidates: one collection unit per
    /// candidate, clamped.
    fn reply_window(k: u32) -> f64 {
        (COLLECTION_UNIT * k as f64).clamp(0.05, 2.0)
    }

    fn cell_of(&self, p: Point) -> usize {
        let g = self.cfg.grid;
        let fx = ((p.x - self.field.min_x) / self.field.width().max(1e-9) * g as f64) as usize;
        let fy = ((p.y - self.field.min_y) / self.field.height().max(1e-9) * g as f64) as usize;
        fy.min(g - 1) * g + fx.min(g - 1)
    }

    fn head_id(&self, cell: usize) -> NodeId {
        NodeId((self.data_nodes + cell) as u32)
    }

    fn is_head(&self, n: NodeId) -> bool {
        n.index() >= self.data_nodes
    }

    fn root_cell(&self) -> usize {
        let g = self.cfg.grid;
        (g / 2) * g + g / 2
    }

    fn send(&self, ctx: &mut Ctx<PtMsg>, from: NodeId, to: NodeId, msg: PtMsg) {
        let bytes = msg.wire_bytes();
        let flow = msg.qid();
        ctx.unicast_flow(from, to, bytes, msg, flow);
    }

    /// The node a routed frame is bound for, and the key its failed next
    /// hops are excluded under.
    fn route_of(&self, msg: &PtMsg) -> (NodeId, (u32, u8)) {
        match msg {
            // Never routed: a notification goes one hop to its cell's head.
            PtMsg::Notify { node, position } => {
                (self.head_id(self.cell_of(*position)), (node.0, 0))
            }
            PtMsg::Query { spec, gpsr, stage } => {
                let cell = match stage {
                    0 => self.cell_of(gpsr.dest), // dest is the issuing head's position
                    1 => self.root_cell(),
                    _ => self.cell_of(spec.q),
                };
                (self.head_id(cell), (spec.qid, 10 + stage))
            }
            PtMsg::SubQuery { qid, gpsr, .. } => {
                (self.head_id(self.cell_of(gpsr.dest)), (*qid, 20))
            }
            PtMsg::SubReply { qid, to, .. } => (*to, (*qid, 21)),
            PtMsg::Result(a) => (a.spec.sink, (a.spec.qid, 30)),
            PtMsg::Collect { qid, target, .. } => (*target, (*qid, 40)),
            PtMsg::CollectReply { qid, to, .. } => (*to, (*qid, 41)),
        }
    }

    /// Send routed frame `msg` one GPSR hop on from `at` toward its
    /// destination, around next hops that already failed it. Hands the
    /// frame back when the route ends here.
    fn send_routed(
        &mut self,
        ctx: &mut Ctx<PtMsg>,
        at: NodeId,
        mut msg: PtMsg,
        from: Option<NodeId>,
    ) -> Option<PtMsg> {
        let (dest, key) = self.route_of(&msg);
        let exclude = self.route_excludes.get(&key).map_or(&[][..], Vec::as_slice);
        match msg.gpsr_mut().and_then(|gpsr| {
            let neighbors = reliable(ctx, at);
            next_hop(ctx, at, &neighbors, Some(dest), gpsr, from, exclude)
        }) {
            Some(next) => {
                self.send(ctx, at, next, msg);
                None
            }
            None => Some(msg),
        }
    }

    // ---------- maintenance -------------------------------------------

    fn notify_tick(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId) {
        let pos = ctx.position(at);
        let cell = self.cell_of(pos);
        self.last_cell[at.index()] = Some(cell);
        let head = self.head_id(cell);
        if head != at {
            self.send(
                ctx,
                at,
                head,
                PtMsg::Notify {
                    node: at,
                    position: pos,
                },
            );
        }
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(NOTIFY_INTERVAL),
            pack_timer_key(K_NOTIFY, 0, 0),
        );
        // Crossing detection piggybacks on a fast sub-timer: rather than a
        // separate mechanism, notifications also fire early when the node's
        // beacon-rate movement crosses a cell border — approximated by
        // checking at notify time (cheap) plus the immediate notify below
        // when a query-time check notices a crossing.
    }

    /// Immediate notification on cell crossing (called opportunistically
    /// when the node handles any message).
    fn maybe_crossing_notify(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId) {
        if self.is_head(at) || at.index() >= self.last_cell.len() {
            return;
        }
        let pos = ctx.position(at);
        let cell = self.cell_of(pos);
        if self.last_cell[at.index()] != Some(cell) {
            self.last_cell[at.index()] = Some(cell);
            let head = self.head_id(cell);
            self.send(
                ctx,
                at,
                head,
                PtMsg::Notify {
                    node: at,
                    position: pos,
                },
            );
        }
    }

    fn head_record_member(&mut self, at: NodeId, node: NodeId, position: Point, now: SimTime) {
        let cell = at.index() - self.data_nodes;
        let table = &mut self.members[cell];
        table.insert(
            node.0,
            Member {
                position,
                heard_at: now,
            },
        );
        // Expire stale members ("deletes the node and updates the MBR").
        table.retain(|_, m| (now - m.heard_at).as_secs_f64() <= MEMBER_TIMEOUT);
    }

    // ---------- query path ---------------------------------------------

    fn issue(&mut self, ctx: &mut Ctx<PtMsg>, idx: usize) {
        let qid = self.outcomes.len() as u32;
        let outcome = QueryOutcome::pending(qid, &self.requests[idx], ctx.now(), 1);
        let spec = QuerySpec::issue(ctx, &outcome, 0);
        self.outcomes.push(outcome);
        // Stage 0: to my clusterhead.
        let my_head = self.head_id(self.cell_of(ctx.position(spec.sink)));
        let gpsr = GpsrHeader::new(self.head_positions[my_head.index() - self.data_nodes]);
        if spec.sink == my_head {
            self.query_at_head(ctx, my_head, spec, 0);
        } else {
            self.forward_query(ctx, spec.sink, spec, 0, gpsr, None);
        }
    }

    fn forward_query(
        &mut self,
        ctx: &mut Ctx<PtMsg>,
        at: NodeId,
        spec: QuerySpec,
        stage: u8,
        gpsr: GpsrHeader,
        from: Option<NodeId>,
    ) {
        let msg = PtMsg::Query { spec, gpsr, stage };
        if self.send_routed(ctx, at, msg, from).is_some() && self.is_head(at) && stage < 2 {
            // We are a head already; short-circuit the hierarchy locally.
            // Stage 2 has no further level to escalate to: `query_at_head`
            // would route right back here (mutual recursion until stack
            // overflow when the neighbour table is starved), so a routeless
            // final-stage query is dropped and ages out at the sink.
            self.query_at_head(ctx, at, spec, stage);
        }
    }

    /// A query reached a clusterhead at hierarchy `stage`.
    fn query_at_head(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId, spec: QuerySpec, stage: u8) {
        let q_cell = self.cell_of(spec.q);
        let target_head = self.head_id(q_cell);
        if at == target_head {
            return self.execute_knn_at_head(ctx, at, spec);
        }
        let (next_stage, dest) = match stage {
            // Own head forwards to the root (unless it already covers q).
            0 => (1u8, self.head_id(self.root_cell())),
            // Root forwards down to the covering head.
            _ => (2u8, target_head),
        };
        if at == dest {
            // e.g. own head *is* the root.
            return self.query_at_head(ctx, at, spec, next_stage);
        }
        let gpsr = GpsrHeader::new(self.head_positions[dest.index() - self.data_nodes]);
        self.forward_query(ctx, at, spec, next_stage, gpsr, None);
    }

    /// The head covering `q` runs the KNN: local members plus subqueries to
    /// neighbouring heads whose MBR may hold closer members.
    fn execute_knn_at_head(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId, spec: QuerySpec) {
        let own_cell = at.index() - self.data_nodes;
        let k = spec.k as usize;
        let mut coll = Collection {
            spec,
            head: at,
            candidates: CandidateSet::new(k),
            pending_subqueries: 0,
            collected: 0,
            pool: Vec::new(),
            to_ask: Vec::new(),
            asked: 0,
        };
        // Local candidate snapshot seeds the pool.
        let local: Vec<(NodeId, Point)> = self.members[own_cell]
            .iter()
            .map(|(&id, m)| (NodeId(id), m.position))
            .collect();
        coll.pool.extend(local.iter().copied());
        // Search radius: distance to the k-th local member, or the cell
        // diagonal when the cell alone cannot satisfy k.
        let mut dists: Vec<f64> = local.iter().map(|(_, p)| p.dist(spec.q)).collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        let g = self.cfg.grid as f64;
        let cell_diag =
            ((self.field.width() / g).powi(2) + (self.field.height() / g).powi(2)).sqrt();
        let radius = if dists.len() >= k {
            dists[k - 1].max(1.0)
        } else {
            cell_diag * 1.5
        };
        // Neighbouring cells whose MBR intersects the search circle.
        let nearby = self.cell_index.within_distance(spec.q, radius);
        let subcells: Vec<usize> = nearby
            .into_iter()
            .map(|(_, c)| c)
            .filter(|&c| c != own_cell)
            .collect();
        for cell in subcells {
            coll.pending_subqueries += 1;
            let msg = PtMsg::SubQuery {
                qid: spec.qid,
                q: spec.q,
                k: spec.k,
                reply_to: at,
                reply_pos: ctx.position(at),
                gpsr: GpsrHeader::new(self.head_positions[cell]),
            };
            self.send_routed(ctx, at, msg, None);
        }
        let no_subqueries = coll.pending_subqueries == 0;
        self.collections.insert(spec.qid, coll);
        // Once the subreplies are in (or immediately if none were needed),
        // determine the k nearest believed candidates and inform them.
        let gather = if no_subqueries { 0.0 } else { SUBQUERY_WINDOW };
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(gather),
            pack_timer_key(K_ASK, spec.qid, 0),
        );
    }

    /// The gathering window closed: inform exactly the k best believed
    /// candidates and start the reply window.
    fn ask_candidates(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId, qid: u32) {
        let Some(coll) = self.collections.get_mut(&qid) else {
            return;
        };
        let spec = coll.spec;
        // Dedup the pool by node id (a node may appear in two heads'
        // tables around a border), keeping the freshest entry order.
        let mut pool = std::mem::take(&mut coll.pool);
        let mut seen = std::collections::BTreeSet::new();
        pool.retain(|(id, _)| seen.insert(*id));
        // Keep only the k best by believed distance and inform them one per
        // collect slot (bursting k unicasts at once collides their replies).
        pool.sort_by(|a, b| {
            a.1.dist(spec.q)
                .total_cmp(&b.1.dist(spec.q))
                .then(a.0.cmp(&b.0))
        });
        pool.truncate(spec.k as usize);
        pool.retain(|(id, _)| *id != at);
        if let Some(coll) = self.collections.get_mut(&qid) {
            coll.to_ask = pool;
        }
        self.ask_step(ctx, at, qid);
        let wait = COLLECT_SLACK + Self::reply_window(spec.k);
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(wait),
            pack_timer_key(K_COLLECT_DONE, spec.qid, 0),
        );
    }

    /// Send the next queued Collect and reschedule.
    fn ask_step(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId, qid: u32) {
        let Some(coll) = self.collections.get_mut(&qid) else {
            return;
        };
        let Some((node, believed_pos)) = coll.to_ask.pop() else {
            return;
        };
        coll.asked += 1;
        let head_pos = ctx.position(at);
        let msg = PtMsg::Collect {
            qid,
            head: at,
            head_pos,
            target: node,
            gpsr: GpsrHeader::new(believed_pos),
        };
        self.forward_collect(ctx, at, msg, None);
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(COLLECTION_UNIT),
            pack_timer_key(K_ASK_STEP, qid, 0),
        );
    }

    /// Collection window over: return the aggregate to the sink.
    fn finish_collection(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId, qid: u32) {
        let Some(coll) = self.collections.remove(&qid) else {
            return;
        };
        let answer = Answer::new(coll.spec, coll.candidates, coll.collected, 0.0);
        self.route_result(ctx, at, answer, None);
    }

    /// Route the aggregate one hop on toward the sink, or complete the
    /// query there. A dead end loses it; the sink timeout then closes the
    /// query empty.
    fn route_result(
        &mut self,
        ctx: &mut Ctx<PtMsg>,
        at: NodeId,
        answer: Answer,
        from: Option<NodeId>,
    ) {
        if at == answer.spec.sink {
            answer.complete(&mut self.outcomes, ctx.now());
        } else {
            self.send_routed(ctx, at, PtMsg::Result(answer), from);
        }
    }

    /// Route a Collect toward its target's believed position.
    fn forward_collect(
        &mut self,
        ctx: &mut Ctx<PtMsg>,
        at: NodeId,
        msg: PtMsg,
        from: Option<NodeId>,
    ) {
        let (target, _) = self.route_of(&msg);
        if let Some(msg) = self.send_routed(ctx, at, msg, from) {
            // Arrived at the believed position but the member is not in the
            // local table (it moved since its last notification). Last
            // resort: transmit to it directly — MAC retries reach it if it
            // is still within radio range; otherwise the candidate is lost,
            // which is exactly the staleness cost of the index.
            self.send(ctx, at, target, msg);
        }
    }
}

/// Row-major centres of a `g×g` partition of `field`: the cells of
/// `diknn_mobility::placement::grid(field, g, g)`. That crate is only a
/// dev-dependency here; making it a normal one changes the dependency list
/// recorded in `e2ebench/Cargo.lock`, which is refreshed together with the
/// benchmark package.
fn diknn_mobility_grid(field: Rect, g: usize) -> Vec<Point> {
    let dx = field.width() / g as f64;
    let dy = field.height() / g as f64;
    let mut pts = Vec::with_capacity(g * g);
    for j in 0..g {
        for i in 0..g {
            pts.push(Point::new(
                field.min_x + (i as f64 + 0.5) * dx,
                field.min_y + (j as f64 + 0.5) * dy,
            ));
        }
    }
    pts
}

impl Protocol for PeerTree {
    type Msg = PtMsg;

    fn on_start(&mut self, ctx: &mut Ctx<PtMsg>) {
        assert_eq!(
            ctx.node_count(),
            self.data_nodes + self.cfg.grid * self.cfg.grid,
            "node count must be data_nodes + grid² clusterheads"
        );
        // Stagger the periodic notifications, and start the fast
        // cell-crossing detector that makes maintenance traffic grow with
        // mobility ("more sensor nodes move across MBRs, which results in
        // excessive information updates", §5.4).
        use rand::Rng;
        for i in 0..self.data_nodes {
            let phase: f64 = ctx.rng().gen_range(0.0..NOTIFY_INTERVAL);
            ctx.set_timer(
                NodeId(i as u32),
                SimDuration::from_secs_f64(phase),
                pack_timer_key(K_NOTIFY, 0, 0),
            );
            let cphase: f64 = ctx.rng().gen_range(0.0..CROSSING_CHECK_INTERVAL);
            ctx.set_timer(
                NodeId(i as u32),
                SimDuration::from_secs_f64(cphase),
                pack_timer_key(K_CROSSING, 0, 0),
            );
        }
        schedule_issues(ctx, 0, &self.requests);
    }

    fn on_timer(&mut self, at: NodeId, timer_key: u64, ctx: &mut Ctx<PtMsg>) {
        let (kind, qid, aux) = unpack_timer_key(timer_key);
        match kind {
            K_ISSUE => self.issue(ctx, aux as usize),
            K_NOTIFY => self.notify_tick(ctx, at),
            K_CROSSING => {
                self.maybe_crossing_notify(ctx, at);
                ctx.set_timer(
                    at,
                    SimDuration::from_secs_f64(CROSSING_CHECK_INTERVAL),
                    pack_timer_key(K_CROSSING, 0, 0),
                );
            }
            K_COLLECT_DONE => self.finish_collection(ctx, at, qid),
            K_ASK => self.ask_candidates(ctx, at, qid),
            K_ASK_STEP => self.ask_step(ctx, at, qid),
            K_SUBREPLY => {
                if let Some(reply) = self.pending_subreplies.remove(&(qid, at.0)) {
                    self.send_routed(ctx, at, reply, None);
                }
            }
            _ => unreachable!("unknown timer kind"),
        }
    }

    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &PtMsg, ctx: &mut Ctx<PtMsg>) {
        self.maybe_crossing_notify(ctx, at);
        match msg {
            PtMsg::Notify { node, position } => {
                if self.is_head(at) {
                    self.head_record_member(at, *node, *position, ctx.now());
                }
            }
            PtMsg::Query { spec, gpsr, stage } => {
                if self.is_head(at) {
                    // The stage's head, or a head on the path: climb the
                    // hierarchy from here.
                    self.query_at_head(ctx, at, *spec, *stage);
                } else {
                    self.forward_query(ctx, at, *spec, *stage, *gpsr, Some(from));
                }
            }
            PtMsg::SubQuery {
                qid,
                q,
                k,
                reply_to,
                reply_pos,
                ..
            } => {
                if self.is_head(at) {
                    // Answer with my members nearest q, after a random
                    // share of the gathering window so the many subreplies
                    // do not collide at the query head.
                    let cell = at.index() - self.data_nodes;
                    let mut members: Vec<(NodeId, Point)> = self.members[cell]
                        .iter()
                        .map(|(&id, m)| (NodeId(id), m.position))
                        .collect();
                    members
                        .sort_by(|a, b| a.1.dist(*q).total_cmp(&b.1.dist(*q)).then(a.0.cmp(&b.0)));
                    members.truncate(*k as usize);
                    let reply = PtMsg::SubReply {
                        qid: *qid,
                        members,
                        gpsr: GpsrHeader::new(*reply_pos),
                        to: *reply_to,
                    };
                    self.pending_subreplies.insert((*qid, at.0), reply);
                    let jitter: f64 = {
                        use rand::Rng;
                        ctx.rng().gen_range(0.0..SUBQUERY_WINDOW * 0.6)
                    };
                    ctx.set_timer(
                        at,
                        SimDuration::from_secs_f64(jitter),
                        pack_timer_key(K_SUBREPLY, *qid, 0),
                    );
                } else {
                    // Relay toward the target head.
                    self.send_routed(ctx, at, msg.clone(), Some(from));
                }
            }
            PtMsg::SubReply {
                qid, members, to, ..
            } => {
                if at == *to {
                    // Query head: fold the believed positions into the pool.
                    if let Some(coll) = self.collections.get_mut(qid) {
                        coll.pool.extend(members.iter().copied());
                        coll.pending_subqueries = coll.pending_subqueries.saturating_sub(1);
                    }
                } else {
                    self.send_routed(ctx, at, msg.clone(), Some(from));
                }
            }
            PtMsg::Collect {
                qid,
                head,
                head_pos,
                target,
                ..
            } => {
                if at == *target {
                    // Collects are staggered by the query head, so the
                    // target replies immediately.
                    let reply = PtMsg::CollectReply {
                        qid: *qid,
                        node: at,
                        position: ctx.position(at),
                        to: *head,
                        gpsr: GpsrHeader::new(*head_pos),
                    };
                    self.send_routed(ctx, at, reply, None);
                } else {
                    self.forward_collect(ctx, at, msg.clone(), Some(from));
                }
            }
            PtMsg::CollectReply {
                qid,
                node,
                position,
                to,
                ..
            } => {
                if at == *to {
                    if let Some(coll) = self.collections.get_mut(qid) {
                        if coll.head == at {
                            coll.candidates.insert(Candidate {
                                id: *node,
                                position: *position,
                                dist: position.dist(coll.spec.q),
                            });
                            coll.collected += 1;
                        }
                    }
                } else {
                    self.send_routed(ctx, at, msg.clone(), Some(from));
                }
            }
            PtMsg::Result(a) => self.route_result(ctx, at, a.clone(), Some(from)),
        }
    }

    fn on_send_failed(&mut self, at: NodeId, to: NodeId, msg: &PtMsg, ctx: &mut Ctx<PtMsg>) {
        // Queries and results route around the failed hop, up to 8 times
        // per flow; any other lost frame is the index's staleness cost.
        if !matches!(msg, PtMsg::Query { .. } | PtMsg::Result(_)) {
            return;
        }
        let (_, key) = self.route_of(msg);
        let e = self.route_excludes.entry(key).or_default();
        e.push(to);
        if e.len() > 8 {
            return;
        }
        if let PtMsg::Query { spec, gpsr, stage } = msg {
            self.forward_query(ctx, at, *spec, *stage, *gpsr, None);
        } else {
            self.send_routed(ctx, at, msg.clone(), None);
        }
    }
}

impl KnnProtocol for PeerTree {
    fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    fn outcomes_mut(&mut self) -> &mut [QueryOutcome] {
        &mut self.outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_indexing_is_row_major() {
        let field = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pt = PeerTree::new(PeerTreeConfig::default(), field, 10, vec![]);
        assert_eq!(pt.cell_of(Point::new(5.0, 5.0)), 0);
        assert_eq!(pt.cell_of(Point::new(95.0, 5.0)), 4);
        assert_eq!(pt.cell_of(Point::new(5.0, 95.0)), 20);
        assert_eq!(pt.cell_of(Point::new(50.0, 50.0)), 12);
        assert_eq!(pt.root_cell(), 12);
        // Boundary clamping.
        assert_eq!(pt.cell_of(Point::new(100.0, 100.0)), 24);
    }

    #[test]
    fn clusterhead_positions_are_cell_centres() {
        let field = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pos = PeerTree::clusterhead_positions(field, 5);
        assert_eq!(pos.len(), 25);
        assert_eq!(pos[0], Point::new(10.0, 10.0));
        assert_eq!(pos[24], Point::new(90.0, 90.0));
        // A subquery is addressed by its head's position alone: each head
        // must sit in its own cell.
        for field in [field, Rect::new(3.0, 7.0, 118.0, 122.0)] {
            for grid in [3, 5, 7] {
                let cfg = PeerTreeConfig { grid };
                let pt = PeerTree::new(cfg, field, 10, vec![]);
                for (cell, &p) in pt.head_positions.iter().enumerate() {
                    assert_eq!(pt.cell_of(p), cell, "grid {grid}, field {field:?}");
                }
                assert_eq!(
                    pt.head_positions,
                    diknn_mobility::placement::grid(field, grid, grid)
                );
            }
        }
    }

    #[test]
    fn head_ids_follow_data_nodes() {
        let field = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pt = PeerTree::new(PeerTreeConfig::default(), field, 200, vec![]);
        assert_eq!(pt.head_id(0), NodeId(200));
        assert_eq!(pt.head_id(24), NodeId(224));
        assert!(pt.is_head(NodeId(200)));
        assert!(!pt.is_head(NodeId(199)));
    }
}
