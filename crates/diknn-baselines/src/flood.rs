//! The naive infrastructure-free baseline the paper dismisses in §3.3:
//! flood the query inside the boundary; every in-boundary node routes its
//! response *independently* back to the sink, end-to-end. "Extremely
//! resource-consuming ... because of the excessive number of independent
//! routing paths"; included for the ablation benches that quantify exactly
//! that.

use std::collections::{BTreeMap, BTreeSet};

use diknn_geom::Point;
use diknn_routing::{next_hop, reliable, GpsrHeader};
use diknn_sim::config::RADIO_RANGE;
use diknn_sim::{pack_timer_key, unpack_timer_key, Ctx, NodeId, Protocol, SimDuration, SimTime};

use diknn_core::knnb::knnb;
use diknn_core::messages::{QueryMsg, QuerySpec};
use diknn_core::{
    schedule_issues, Candidate, CandidateSet, KnnProtocol, QueryOutcome, QueryRequest,
    BASE_MSG_BYTES, COLLECTION_UNIT, K_ISSUE, RESPONSE_BYTES,
};

const K_CLOSE: u8 = 2;
const K_RESPOND: u8 = 3;

/// The sink closes the query this many seconds after issuing.
const CLOSE_AFTER: f64 = 10.0;

/// Flooding baseline configuration: nothing to set. The type stays so
/// every protocol is named by its config alike.
#[derive(Debug, Clone, Default)]
pub struct FloodConfig {}

/// One in-boundary node's own answer, routed end-to-end to the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodResponse {
    pub spec: QuerySpec,
    pub gpsr: GpsrHeader,
    pub node: NodeId,
    pub position: Point,
}

#[derive(Debug, Clone, PartialEq)]
pub enum FloodMsg {
    /// Routing phase toward the home node: DIKNN's query message, gathering
    /// the KNNB hop records.
    Query(QueryMsg),
    /// In-boundary flood.
    Flood { spec: QuerySpec, radius: f64 },
    /// Per-node response routed end-to-end to the sink.
    Response(FloodResponse),
}

impl FloodMsg {
    /// Query id for per-query energy attribution (every flood frame is
    /// query-scoped).
    fn qid(&self) -> Option<u32> {
        match self {
            FloodMsg::Query(QueryMsg { spec, .. })
            | FloodMsg::Flood { spec, .. }
            | FloodMsg::Response(FloodResponse { spec, .. }) => Some(spec.qid),
        }
    }

    fn wire_bytes(&self) -> usize {
        match self {
            FloodMsg::Query(m) => BASE_MSG_BYTES + 10 * m.list.len(),
            FloodMsg::Flood { .. } => BASE_MSG_BYTES + 4,
            FloodMsg::Response(_) => BASE_MSG_BYTES + RESPONSE_BYTES,
        }
    }
}

/// The naive flooding protocol.
pub struct Flood {
    requests: Vec<QueryRequest>,
    outcomes: Vec<QueryOutcome>,
    merged: BTreeMap<u32, (CandidateSet, u32, SimTime)>,
    seen_flood: BTreeSet<(u32, u32)>,
    pending: BTreeMap<(u32, u32), QuerySpec>,
}

impl Flood {
    pub fn new(_: FloodConfig, requests: Vec<QueryRequest>) -> Self {
        Flood {
            requests,
            outcomes: Vec::new(),
            merged: BTreeMap::new(),
            seen_flood: BTreeSet::new(),
            pending: BTreeMap::new(),
        }
    }

    fn send(&self, ctx: &mut Ctx<FloodMsg>, from: NodeId, to: NodeId, msg: FloodMsg) {
        let bytes = msg.wire_bytes();
        let flow = msg.qid();
        ctx.unicast_flow(from, to, bytes, msg, flow);
    }

    fn issue(&mut self, ctx: &mut Ctx<FloodMsg>, idx: usize) {
        let qid = self.outcomes.len() as u32;
        let outcome = QueryOutcome::pending(qid, &self.requests[idx], ctx.now(), 0);
        let spec = QuerySpec::issue(ctx, &outcome, 0);
        self.outcomes.push(outcome);
        self.merged
            .insert(qid, (CandidateSet::new(spec.k as usize), 0, ctx.now()));
        ctx.set_timer(
            spec.sink,
            SimDuration::from_secs_f64(CLOSE_AFTER),
            pack_timer_key(K_CLOSE, qid, 0),
        );
        let msg = QueryMsg {
            spec,
            gpsr: GpsrHeader::new(spec.q),
            list: Vec::new(),
        };
        self.query_arrival(ctx, spec.sink, msg, None);
    }

    fn query_arrival(
        &mut self,
        ctx: &mut Ctx<FloodMsg>,
        at: NodeId,
        mut msg: QueryMsg,
        from: Option<NodeId>,
    ) {
        let neighbors = reliable(ctx, at);
        msg.record_hop(ctx.position(at), &neighbors, RADIO_RANGE);
        if let Some(next) = next_hop(ctx, at, &neighbors, None, &mut msg.gpsr, from, &[]) {
            return self.send(ctx, at, next, FloodMsg::Query(msg));
        }
        let spec = msg.spec;
        let radius = knnb(&msg.list, spec.q, RADIO_RANGE, spec.k as usize)
            .radius
            .max(RADIO_RANGE * 0.5);
        if let Some(o) = self.outcomes.get_mut(spec.qid as usize) {
            o.boundary_radius = radius;
            o.final_radius = radius;
            o.routing_hops = msg.list.len().saturating_sub(1) as u32;
        }
        self.flood_arrival(ctx, at, spec, radius);
    }

    fn flood_arrival(&mut self, ctx: &mut Ctx<FloodMsg>, at: NodeId, spec: QuerySpec, radius: f64) {
        if !self.seen_flood.insert((spec.qid, at.0)) {
            return;
        }
        let pos = ctx.position(at);
        if pos.dist(spec.q) > radius {
            return;
        }
        // Rebroadcast, then route our own response independently to the
        // sink after a random share of a jitter budget of one collection
        // unit per expected responder, so the flood of independent
        // responses does not leave as one burst.
        let flood = FloodMsg::Flood { spec, radius };
        let bytes = flood.wire_bytes();
        ctx.broadcast_flow(at, bytes, flood, Some(spec.qid));
        self.pending.insert((spec.qid, at.0), spec);
        let jitter: f64 = {
            use rand::Rng;
            ctx.rng()
                .gen_range(0.0..COLLECTION_UNIT * spec.k as f64 + 1e-6)
        };
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(jitter),
            pack_timer_key(K_RESPOND, spec.qid, 0),
        );
    }

    fn respond(&mut self, ctx: &mut Ctx<FloodMsg>, at: NodeId, qid: u32) {
        let Some(spec) = self.pending.remove(&(qid, at.0)) else {
            return;
        };
        let resp = FloodResponse {
            spec,
            gpsr: GpsrHeader::new(spec.sink_pos),
            node: at,
            position: ctx.position(at),
        };
        self.route_response(ctx, at, resp, None);
    }

    /// Route a response one hop on toward the sink, or merge it there. A
    /// dead end loses it.
    fn route_response(
        &mut self,
        ctx: &mut Ctx<FloodMsg>,
        at: NodeId,
        mut r: FloodResponse,
        from: Option<NodeId>,
    ) {
        let sink = r.spec.sink;
        if at != sink {
            let neighbors = reliable(ctx, at);
            if let Some(next) = next_hop(ctx, at, &neighbors, Some(sink), &mut r.gpsr, from, &[]) {
                self.send(ctx, at, next, FloodMsg::Response(r));
            }
            return;
        }
        if let Some((set, count, last)) = self.merged.get_mut(&r.spec.qid) {
            set.insert(Candidate {
                id: r.node,
                position: r.position,
                dist: r.position.dist(r.spec.q),
            });
            *count += 1;
            *last = ctx.now();
        }
    }

    fn close(&mut self, qid: u32) {
        let Some((set, count, last)) = self.merged.remove(&qid) else {
            return;
        };
        let o = &mut self.outcomes[qid as usize];
        o.explored_nodes = count;
        o.parts_returned = count;
        o.parts_expected = count;
        o.answer = set.ids();
        o.answer.truncate(o.k);
        if count > 0 {
            o.completed_at = Some(last);
        }
    }
}

impl Protocol for Flood {
    type Msg = FloodMsg;

    fn on_start(&mut self, ctx: &mut Ctx<FloodMsg>) {
        schedule_issues(ctx, 0, &self.requests);
    }

    fn on_timer(&mut self, at: NodeId, timer_key: u64, ctx: &mut Ctx<FloodMsg>) {
        let (kind, qid, aux) = unpack_timer_key(timer_key);
        match kind {
            K_ISSUE => self.issue(ctx, aux as usize),
            K_CLOSE => self.close(qid),
            K_RESPOND => self.respond(ctx, at, qid),
            _ => unreachable!("unknown timer kind"),
        }
    }

    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &FloodMsg, ctx: &mut Ctx<FloodMsg>) {
        match msg {
            FloodMsg::Query(m) => self.query_arrival(ctx, at, m.clone(), Some(from)),
            FloodMsg::Flood { spec, radius } => self.flood_arrival(ctx, at, *spec, *radius),
            FloodMsg::Response(r) => self.route_response(ctx, at, r.clone(), Some(from)),
        }
    }
}

impl KnnProtocol for Flood {
    fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    fn outcomes_mut(&mut self) -> &mut [QueryOutcome] {
        &mut self.outcomes
    }
}
