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

use std::collections::{BTreeMap, BTreeSet};

use diknn_geom::{Point, Rect};
use diknn_routing::{plan_next_hop, reliable, GpsrHeader, RouteStep};
use diknn_rtree::RTree;
use diknn_sim::{pack_timer_key, unpack_timer_key, Ctx, NodeId, Protocol, SimDuration, SimTime};

use diknn_core::{Candidate, CandidateSet, KnnProtocol, QueryOutcome, QueryRequest, QueryStatus};

const K_ISSUE: u8 = 1;
const K_NOTIFY: u8 = 2;
const K_SINK_TIMEOUT: u8 = 3;
const K_COLLECT_DONE: u8 = 4;
const K_COLLECT_REPLY: u8 = 5;
const K_ASK: u8 = 6;
const K_ASK_STEP: u8 = 7;
const K_SUBREPLY: u8 = 8;
const K_CROSSING: u8 = 9;

/// Peer-tree configuration.
#[derive(Debug, Clone)]
pub struct PeerTreeConfig {
    /// Grid dimension `g` (the paper partitions into 5×5).
    pub grid: usize,
    /// Periodic membership notification interval in seconds.
    pub notify_interval: f64,
    /// How often a node checks whether it crossed into a new cell (a
    /// crossing triggers an immediate notification to the new head).
    pub crossing_check_interval: f64,
    /// Member entries older than this are deleted by their clusterhead.
    pub member_timeout: f64,
    /// Window for gathering sub-replies from neighbouring heads before the
    /// k nearest candidates are determined and informed.
    pub subquery_window: f64,
    /// Fixed slack a query head adds on top of the k-scaled reply window
    /// before returning the aggregate (routing time for the collect
    /// round-trips).
    pub collect_slack: f64,
    /// Per-candidate reply jitter slot in seconds (the reply window is
    /// `k × per_collect_slot`).
    pub per_collect_slot: f64,
    pub response_bytes: usize,
    pub base_msg_bytes: usize,
    /// Sink gives up after this many seconds.
    pub sink_timeout: f64,
}

impl Default for PeerTreeConfig {
    fn default() -> Self {
        PeerTreeConfig {
            grid: 5,
            notify_interval: 2.0,
            crossing_check_interval: 0.5,
            member_timeout: 5.0,
            subquery_window: 0.8,
            collect_slack: 0.6,
            per_collect_slot: 0.018,
            response_bytes: 10,
            base_msg_bytes: 24,
            sink_timeout: 20.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtSpec {
    pub qid: u32,
    pub sink: NodeId,
    pub sink_pos: Point,
    pub q: Point,
    pub k: u32,
    pub issued_at: SimTime,
}

#[derive(Debug, Clone, PartialEq)]
pub enum PtMsg {
    /// Membership notification node → clusterhead.
    Notify { node: NodeId, position: Point },
    /// Query riding the hierarchy (gpsr-routed between heads).
    Query {
        spec: PtSpec,
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
        /// Reply-jitter window in seconds: the candidate delays its reply
        /// uniformly within it so bursts of replies do not collide.
        window: f64,
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
    Result {
        spec: PtSpec,
        gpsr: GpsrHeader,
        candidates: CandidateSet,
        explored: u32,
    },
}

impl PtMsg {
    /// Query id for per-query energy attribution; `Notify` is maintenance
    /// traffic owned by no query.
    fn qid(&self) -> Option<u32> {
        match self {
            PtMsg::Notify { .. } => None,
            PtMsg::Query { spec, .. } | PtMsg::Result { spec, .. } => Some(spec.qid),
            PtMsg::SubQuery { qid, .. }
            | PtMsg::SubReply { qid, .. }
            | PtMsg::Collect { qid, .. }
            | PtMsg::CollectReply { qid, .. } => Some(*qid),
        }
    }

    fn wire_bytes(&self, cfg: &PeerTreeConfig) -> usize {
        match self {
            PtMsg::Notify { .. } => cfg.base_msg_bytes,
            PtMsg::Query { .. } => cfg.base_msg_bytes + 8,
            PtMsg::SubQuery { .. } => cfg.base_msg_bytes + 8,
            PtMsg::SubReply { members, .. } => cfg.base_msg_bytes + 10 * members.len(),
            PtMsg::Collect { .. } => cfg.base_msg_bytes,
            PtMsg::CollectReply { .. } => cfg.base_msg_bytes + cfg.response_bytes,
            PtMsg::Result { candidates, .. } => {
                cfg.base_msg_bytes + candidates.wire_bytes(cfg.response_bytes)
            }
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
    spec: PtSpec,
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
    pending_replies: BTreeMap<(u32, u32), (NodeId, Point)>,
    /// Subreplies scheduled at neighbouring heads, staggered to avoid
    /// colliding at the query head.
    pending_subreplies: BTreeMap<(u32, u32), PtMsg>,
    sink_done: BTreeSet<u32>,
    route_excludes: BTreeMap<(u32, u8), Vec<NodeId>>,
    radio_range: f64,
    field: Rect,
    /// Diagnostics: per-query (pool size, asked, subreplies pending at ask
    /// time).
    pub ask_stats: Vec<(u32, usize, u32, u32)>,
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
            pending_replies: BTreeMap::new(),
            pending_subreplies: BTreeMap::new(),
            sink_done: BTreeSet::new(),
            ask_stats: Vec::new(),
            route_excludes: BTreeMap::new(),
            radio_range: 0.0,
            field,
        }
    }

    /// Reply-jitter window for a query of `k` candidates.
    fn reply_window(&self, k: u32) -> f64 {
        (self.cfg.per_collect_slot * k as f64).clamp(0.05, 2.0)
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
        let bytes = msg.wire_bytes(&self.cfg);
        let flow = msg.qid();
        ctx.unicast_flow(from, to, bytes, msg, flow);
    }

    /// Geo-route `msg` toward `dest_pos`, delivering when `dest` is
    /// adjacent or we run out of route. `route_key` identifies the flow for
    /// failure exclusions.
    #[allow(clippy::too_many_arguments)]
    fn geo_forward(
        &mut self,
        ctx: &mut Ctx<PtMsg>,
        at: NodeId,
        dest: NodeId,
        gpsr: &GpsrHeader,
        route_key: (u32, u8),
        from: Option<NodeId>,
        rebuild: impl FnOnce(GpsrHeader) -> PtMsg,
    ) -> bool {
        let neighbors = reliable(ctx, at);
        if neighbors.iter().any(|n| n.id == dest) {
            let msg = rebuild(*gpsr);
            self.send(ctx, at, dest, msg);
            return true;
        }
        let exclude = self
            .route_excludes
            .get(&route_key)
            .cloned()
            .unwrap_or_default();
        let prev_pos = from.map(|f| (f, ctx.position(f)));
        match plan_next_hop(
            at,
            ctx.position(at),
            gpsr,
            &neighbors,
            prev_pos,
            &exclude,
            self.radio_range,
        ) {
            RouteStep::Forward { next, header } => {
                let msg = rebuild(header);
                self.send(ctx, at, next, msg);
                true
            }
            RouteStep::Arrived | RouteStep::NoRoute => false,
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
            SimDuration::from_secs_f64(self.cfg.notify_interval),
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
        let timeout = self.cfg.member_timeout;
        table.retain(|_, m| (now - m.heard_at).as_secs_f64() <= timeout);
    }

    // ---------- query path ---------------------------------------------

    fn issue(&mut self, ctx: &mut Ctx<PtMsg>, idx: usize) {
        let req = self.requests[idx];
        let qid = self.outcomes.len() as u32;
        let spec = PtSpec {
            qid,
            sink: req.sink,
            sink_pos: ctx.position(req.sink),
            q: req.q,
            k: req.k.max(1) as u32,
            issued_at: ctx.now(),
        };
        self.outcomes.push(QueryOutcome {
            qid,
            sink: req.sink,
            q: req.q,
            k: req.k,
            issued_at: ctx.now(),
            completed_at: None,
            answer: Vec::new(),
            boundary_radius: 0.0,
            final_radius: 0.0,
            routing_hops: 0,
            parts_expected: 1,
            parts_returned: 0,
            explored_nodes: 0,
            status: QueryStatus::Pending,
        });
        ctx.set_timer(
            req.sink,
            SimDuration::from_secs_f64(self.cfg.sink_timeout),
            pack_timer_key(K_SINK_TIMEOUT, qid, 0),
        );
        // Stage 0: to my clusterhead.
        let my_head = self.head_id(self.cell_of(ctx.position(req.sink)));
        let gpsr = GpsrHeader::new(self.head_positions[my_head.index() - self.data_nodes]);
        let msg = PtMsg::Query {
            spec,
            gpsr,
            stage: 0,
        };
        if req.sink == my_head {
            self.query_at_head(ctx, my_head, spec, 0);
        } else {
            self.forward_query(ctx, req.sink, msg, None);
        }
    }

    fn forward_query(
        &mut self,
        ctx: &mut Ctx<PtMsg>,
        at: NodeId,
        msg: PtMsg,
        from: Option<NodeId>,
    ) {
        let PtMsg::Query { spec, gpsr, stage } = msg else {
            unreachable!()
        };
        let dest_cell = match stage {
            0 => self.cell_of(gpsr.dest), // dest is the issuing head's position
            1 => self.root_cell(),
            _ => self.cell_of(spec.q),
        };
        let dest = self.head_id(dest_cell);
        let delivered = self.geo_forward(
            ctx,
            at,
            dest,
            &gpsr,
            (spec.qid, 10 + stage),
            from,
            move |h| PtMsg::Query {
                spec,
                gpsr: h,
                stage,
            },
        );
        if !delivered && self.is_head(at) && stage < 2 {
            // We are a head already; short-circuit the hierarchy locally.
            // Stage 2 has no further level to escalate to: `query_at_head`
            // would route right back here (mutual recursion until stack
            // overflow when the neighbour table is starved), so a routeless
            // final-stage query is dropped and ages out at the sink.
            self.query_at_head(ctx, at, spec, stage);
        }
    }

    /// A query reached a clusterhead at hierarchy `stage`.
    fn query_at_head(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId, spec: PtSpec, stage: u8) {
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
        let msg = PtMsg::Query {
            spec,
            gpsr,
            stage: next_stage,
        };
        self.forward_query(ctx, at, msg, None);
    }

    /// The head covering `q` runs the KNN: local members plus subqueries to
    /// neighbouring heads whose MBR may hold closer members.
    fn execute_knn_at_head(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId, spec: PtSpec) {
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
            let head = self.head_id(cell);
            let gpsr = GpsrHeader::new(self.head_positions[cell]);
            coll.pending_subqueries += 1;
            let msg = PtMsg::SubQuery {
                qid: spec.qid,
                q: spec.q,
                k: spec.k,
                reply_to: at,
                reply_pos: ctx.position(at),
                gpsr,
            };
            let dest = head;
            self.forward_subquery(ctx, at, dest, msg, None);
        }
        let no_subqueries = coll.pending_subqueries == 0;
        self.collections.insert(spec.qid, coll);
        // Once the subreplies are in (or immediately if none were needed),
        // determine the k nearest believed candidates and inform them.
        let gather = if no_subqueries {
            0.0
        } else {
            self.cfg.subquery_window
        };
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
        let pending = coll.pending_subqueries;
        let mut seen = std::collections::BTreeSet::new();
        pool.retain(|(id, _)| seen.insert(*id));
        self.ask_stats
            .push((qid, pool.len(), spec.k.min(pool.len() as u32), pending));
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
        let wait = self.cfg.collect_slack + self.reply_window(spec.k);
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
            window: 0.0,
        };
        self.forward_collect(ctx, at, msg, None);
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(self.cfg.per_collect_slot),
            pack_timer_key(K_ASK_STEP, qid, 0),
        );
    }

    fn forward_subquery(
        &mut self,
        ctx: &mut Ctx<PtMsg>,
        at: NodeId,
        dest: NodeId,
        msg: PtMsg,
        from: Option<NodeId>,
    ) {
        let (qid, gpsr) = match &msg {
            PtMsg::SubQuery { qid, gpsr, .. } => (*qid, *gpsr),
            _ => unreachable!(),
        };
        let m2 = msg.clone();
        self.geo_forward(ctx, at, dest, &gpsr, (qid, 20), from, move |h| match m2 {
            PtMsg::SubQuery {
                qid,
                q,
                k,
                reply_to,
                reply_pos,
                ..
            } => PtMsg::SubQuery {
                qid,
                q,
                k,
                reply_to,
                reply_pos,
                gpsr: h,
            },
            _ => unreachable!(),
        });
    }

    /// Collection window over: return the aggregate to the sink.
    fn finish_collection(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId, qid: u32) {
        let Some(coll) = self.collections.remove(&qid) else {
            return;
        };
        let spec = coll.spec;
        let msg = PtMsg::Result {
            spec,
            gpsr: GpsrHeader::new(spec.sink_pos),
            candidates: coll.candidates,
            explored: coll.collected,
        };
        self.route_result(ctx, at, msg, None);
    }

    fn route_result(&mut self, ctx: &mut Ctx<PtMsg>, at: NodeId, msg: PtMsg, from: Option<NodeId>) {
        let PtMsg::Result { spec, gpsr, .. } = &msg else {
            unreachable!()
        };
        let spec = *spec;
        if at == spec.sink {
            return self.sink_receive(ctx, msg);
        }
        let gpsr = *gpsr;
        let m2 = msg.clone();
        let delivered = self.geo_forward(
            ctx,
            at,
            spec.sink,
            &gpsr,
            (spec.qid, 30),
            from,
            move |h| match m2 {
                PtMsg::Result {
                    spec,
                    candidates,
                    explored,
                    ..
                } => PtMsg::Result {
                    spec,
                    gpsr: h,
                    candidates,
                    explored,
                },
                _ => unreachable!(),
            },
        );
        let _ = delivered;
    }

    fn sink_receive(&mut self, ctx: &mut Ctx<PtMsg>, msg: PtMsg) {
        let PtMsg::Result {
            spec,
            candidates,
            explored,
            ..
        } = msg
        else {
            unreachable!()
        };
        if !self.sink_done.insert(spec.qid) {
            return;
        }
        let o = &mut self.outcomes[spec.qid as usize];
        o.completed_at = Some(ctx.now());
        o.answer = candidates.ids();
        o.answer.truncate(o.k);
        o.parts_returned = 1;
        o.explored_nodes = explored;
    }
}

/// Row-major grid of cell centres (kept free of the mobility crate to avoid
/// a dependency cycle; mirrors `diknn_mobility::placement::grid`).
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
        self.radio_range = ctx.config().radio_range;
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
            let phase: f64 = ctx.rng().gen_range(0.0..self.cfg.notify_interval);
            ctx.set_timer(
                NodeId(i as u32),
                SimDuration::from_secs_f64(phase),
                pack_timer_key(K_NOTIFY, 0, 0),
            );
            let cphase: f64 = ctx.rng().gen_range(0.0..self.cfg.crossing_check_interval);
            ctx.set_timer(
                NodeId(i as u32),
                SimDuration::from_secs_f64(cphase),
                pack_timer_key(K_CROSSING, 0, 0),
            );
        }
        for (i, req) in self.requests.clone().into_iter().enumerate() {
            ctx.set_timer(
                req.sink,
                SimDuration::from_secs_f64(req.at),
                pack_timer_key(K_ISSUE, 0, i as u32),
            );
        }
    }

    fn on_timer(&mut self, at: NodeId, timer_key: u64, ctx: &mut Ctx<PtMsg>) {
        let (kind, qid, aux) = unpack_timer_key(timer_key);
        match kind {
            K_ISSUE => self.issue(ctx, aux as usize),
            K_NOTIFY => self.notify_tick(ctx, at),
            K_CROSSING => {
                self.maybe_crossing_notify(ctx, at);
                let interval = self.cfg.crossing_check_interval;
                ctx.set_timer(
                    at,
                    SimDuration::from_secs_f64(interval),
                    pack_timer_key(K_CROSSING, 0, 0),
                );
            }
            K_COLLECT_DONE => self.finish_collection(ctx, at, qid),
            K_ASK => self.ask_candidates(ctx, at, qid),
            K_ASK_STEP => self.ask_step(ctx, at, qid),
            K_SUBREPLY => {
                if let Some(reply) = self.pending_subreplies.remove(&(qid, at.0)) {
                    self.forward_subreply(ctx, at, reply, None);
                }
            }
            K_COLLECT_REPLY => {
                if let Some((head, head_pos)) = self.pending_replies.remove(&(qid, at.0)) {
                    let reply = PtMsg::CollectReply {
                        qid,
                        node: at,
                        position: ctx.position(at),
                        to: head,
                        gpsr: GpsrHeader::new(head_pos),
                    };
                    self.forward_collect_reply(ctx, at, reply, None);
                }
            }
            K_SINK_TIMEOUT => { /* outcome stays incomplete */ }
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
            PtMsg::Query { spec, stage, .. } => {
                let q_dest = match stage {
                    0 => self.head_id(self.cell_of(ctx.position(at))),
                    1 => self.head_id(self.root_cell()),
                    _ => self.head_id(self.cell_of(spec.q)),
                };
                if self.is_head(at) && at == q_dest {
                    self.query_at_head(ctx, at, *spec, *stage);
                } else if self.is_head(at) {
                    // A head on the path: climb the hierarchy from here.
                    self.query_at_head(ctx, at, *spec, *stage);
                } else {
                    self.forward_query(ctx, at, msg.clone(), Some(from));
                }
            }
            PtMsg::SubQuery {
                qid,
                q,
                k,
                reply_to,
                reply_pos,
                gpsr,
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
                        ctx.rng().gen_range(0.0..self.cfg.subquery_window * 0.6)
                    };
                    ctx.set_timer(
                        at,
                        SimDuration::from_secs_f64(jitter),
                        pack_timer_key(K_SUBREPLY, *qid, 0),
                    );
                } else {
                    // Relay toward the target head.
                    let dest_cell = self.cell_of(gpsr.dest);
                    let dest = self.head_id(dest_cell);
                    self.forward_subquery(ctx, at, dest, msg.clone(), Some(from));
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
                    self.forward_subreply(ctx, at, msg.clone(), Some(from));
                }
            }
            PtMsg::Collect {
                qid,
                head,
                head_pos,
                target,
                window,
                ..
            } => {
                if at == *target {
                    if *window <= 0.0 {
                        // Staggered collects: reply immediately.
                        let reply = PtMsg::CollectReply {
                            qid: *qid,
                            node: at,
                            position: ctx.position(at),
                            to: *head,
                            gpsr: GpsrHeader::new(*head_pos),
                        };
                        self.forward_collect_reply(ctx, at, reply, None);
                    } else {
                        // Burst collects: answer after a random share of
                        // the reply window.
                        self.pending_replies
                            .insert((*qid, at.0), (*head, *head_pos));
                        let jitter: f64 = {
                            use rand::Rng;
                            ctx.rng().gen_range(0.0..*window)
                        };
                        ctx.set_timer(
                            at,
                            SimDuration::from_secs_f64(jitter),
                            pack_timer_key(K_COLLECT_REPLY, *qid, 0),
                        );
                    }
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
                    self.forward_collect_reply(ctx, at, msg.clone(), Some(from));
                }
            }
            PtMsg::Result { .. } => self.route_result(ctx, at, msg.clone(), Some(from)),
        }
    }

    fn on_send_failed(&mut self, at: NodeId, to: NodeId, msg: &PtMsg, ctx: &mut Ctx<PtMsg>) {
        match msg {
            PtMsg::Query { spec, stage, .. } => {
                let e = self
                    .route_excludes
                    .entry((spec.qid, 10 + stage))
                    .or_default();
                e.push(to);
                if e.len() <= 8 {
                    self.forward_query(ctx, at, msg.clone(), None);
                }
            }
            PtMsg::Result { spec, .. } => {
                let e = self.route_excludes.entry((spec.qid, 30)).or_default();
                e.push(to);
                if e.len() <= 8 {
                    self.route_result(ctx, at, msg.clone(), None);
                }
            }
            // Lost notifications/collects are the staleness cost.
            _ => {}
        }
    }
}

impl PeerTree {
    fn forward_collect(
        &mut self,
        ctx: &mut Ctx<PtMsg>,
        at: NodeId,
        msg: PtMsg,
        from: Option<NodeId>,
    ) {
        let PtMsg::Collect {
            qid, target, gpsr, ..
        } = &msg
        else {
            unreachable!()
        };
        let (qid, target, gpsr) = (*qid, *target, *gpsr);
        let m2 = msg.clone();
        let delivered =
            self.geo_forward(ctx, at, target, &gpsr, (qid, 40), from, move |h| match m2 {
                PtMsg::Collect {
                    qid,
                    head,
                    head_pos,
                    target,
                    window,
                    ..
                } => PtMsg::Collect {
                    qid,
                    head,
                    head_pos,
                    target,
                    gpsr: h,
                    window,
                },
                _ => unreachable!(),
            });
        if !delivered {
            // Arrived at the believed position but the member is not in the
            // local table (it moved since its last notification). Last
            // resort: transmit to it directly — MAC retries reach it if it
            // is still within radio range; otherwise the candidate is lost,
            // which is exactly the staleness cost of the index.
            self.send(ctx, at, target, msg);
        }
    }

    fn forward_collect_reply(
        &mut self,
        ctx: &mut Ctx<PtMsg>,
        at: NodeId,
        msg: PtMsg,
        from: Option<NodeId>,
    ) {
        let PtMsg::CollectReply { qid, to, gpsr, .. } = &msg else {
            unreachable!()
        };
        let (qid, to, gpsr) = (*qid, *to, *gpsr);
        let m2 = msg.clone();
        self.geo_forward(ctx, at, to, &gpsr, (qid, 41), from, move |h| match m2 {
            PtMsg::CollectReply {
                qid,
                node,
                position,
                to,
                ..
            } => PtMsg::CollectReply {
                qid,
                node,
                position,
                to,
                gpsr: h,
            },
            _ => unreachable!(),
        });
    }

    fn forward_subreply(
        &mut self,
        ctx: &mut Ctx<PtMsg>,
        at: NodeId,
        msg: PtMsg,
        from: Option<NodeId>,
    ) {
        let PtMsg::SubReply { qid, gpsr, to, .. } = &msg else {
            unreachable!()
        };
        let (qid, gpsr, to) = (*qid, *gpsr, *to);
        let m2 = msg.clone();
        self.geo_forward(ctx, at, to, &gpsr, (qid, 21), from, move |h| match m2 {
            PtMsg::SubReply {
                qid, members, to, ..
            } => PtMsg::SubReply {
                qid,
                members,
                gpsr: h,
                to,
            },
            _ => unreachable!(),
        });
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
