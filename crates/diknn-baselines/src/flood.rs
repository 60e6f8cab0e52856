//! The naive infrastructure-free baseline the paper dismisses in §3.3:
//! flood the query inside the boundary; every in-boundary node routes its
//! response *independently* back to the sink, end-to-end. "Extremely
//! resource-consuming ... because of the excessive number of independent
//! routing paths"; included for the ablation benches that quantify exactly
//! that.

use std::collections::{BTreeMap, BTreeSet};

use diknn_geom::Point;
use diknn_routing::{plan_next_hop, reliable, GpsrHeader, RouteStep};
use diknn_sim::{pack_timer_key, unpack_timer_key, Ctx, NodeId, Protocol, SimDuration, SimTime};

use diknn_core::knnb::{knnb, HopRecord};
use diknn_core::{Candidate, CandidateSet, KnnProtocol, QueryOutcome, QueryRequest, QueryStatus};

const K_ISSUE: u8 = 1;
const K_CLOSE: u8 = 2;
const K_RESPOND: u8 = 3;

/// Flooding baseline configuration.
#[derive(Debug, Clone)]
pub struct FloodConfig {
    /// The sink closes the query this many seconds after issuing.
    pub close_after: f64,
    /// Per-expected-responder jitter budget in seconds: each responder
    /// delays uniformly in `[0, k × per_response_slot)` so the flood of
    /// independent responses does not leave as one burst.
    pub per_response_slot: f64,
    pub response_bytes: usize,
    pub base_msg_bytes: usize,
}

impl Default for FloodConfig {
    fn default() -> Self {
        FloodConfig {
            close_after: 10.0,
            per_response_slot: 0.018,
            response_bytes: 10,
            base_msg_bytes: 24,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodSpec {
    pub qid: u32,
    pub sink: NodeId,
    pub sink_pos: Point,
    pub q: Point,
    pub k: u32,
    pub issued_at: SimTime,
}

#[derive(Debug, Clone, PartialEq)]
pub enum FloodMsg {
    /// Routing phase toward the home node (KNNB list gathering).
    Query {
        spec: FloodSpec,
        gpsr: GpsrHeader,
        list: Vec<HopRecord>,
    },
    /// In-boundary flood.
    Flood { spec: FloodSpec, radius: f64 },
    /// Per-node response routed end-to-end to the sink.
    Response {
        spec: FloodSpec,
        gpsr: GpsrHeader,
        node: NodeId,
        position: Point,
    },
}

impl FloodMsg {
    /// Query id for per-query energy attribution (every flood frame is
    /// query-scoped).
    fn qid(&self) -> Option<u32> {
        match self {
            FloodMsg::Query { spec, .. }
            | FloodMsg::Flood { spec, .. }
            | FloodMsg::Response { spec, .. } => Some(spec.qid),
        }
    }

    fn wire_bytes(&self, cfg: &FloodConfig) -> usize {
        match self {
            FloodMsg::Query { list, .. } => cfg.base_msg_bytes + 10 * list.len(),
            FloodMsg::Flood { .. } => cfg.base_msg_bytes + 4,
            FloodMsg::Response { .. } => cfg.base_msg_bytes + cfg.response_bytes,
        }
    }
}

/// The naive flooding protocol.
pub struct Flood {
    cfg: FloodConfig,
    requests: Vec<QueryRequest>,
    outcomes: Vec<QueryOutcome>,
    merged: BTreeMap<u32, (CandidateSet, u32, SimTime)>,
    seen_flood: BTreeSet<(u32, u32)>,
    pending: BTreeMap<(u32, u32), FloodSpec>,
    radio_range: f64,
}

impl Flood {
    pub fn new(cfg: FloodConfig, requests: Vec<QueryRequest>) -> Self {
        Flood {
            cfg,
            requests,
            outcomes: Vec::new(),
            merged: BTreeMap::new(),
            seen_flood: BTreeSet::new(),
            pending: BTreeMap::new(),
            radio_range: 0.0,
        }
    }

    fn send(&self, ctx: &mut Ctx<FloodMsg>, from: NodeId, to: NodeId, msg: FloodMsg) {
        let bytes = msg.wire_bytes(&self.cfg);
        let flow = msg.qid();
        ctx.unicast_flow(from, to, bytes, msg, flow);
    }

    fn issue(&mut self, ctx: &mut Ctx<FloodMsg>, idx: usize) {
        let req = self.requests[idx];
        let qid = self.outcomes.len() as u32;
        let spec = FloodSpec {
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
            parts_expected: 0,
            parts_returned: 0,
            explored_nodes: 0,
            status: QueryStatus::Pending,
        });
        self.merged
            .insert(qid, (CandidateSet::new(req.k.max(1)), 0, ctx.now()));
        ctx.set_timer(
            req.sink,
            SimDuration::from_secs_f64(self.cfg.close_after),
            pack_timer_key(K_CLOSE, qid, 0),
        );
        let msg = FloodMsg::Query {
            spec,
            gpsr: GpsrHeader::new(req.q),
            list: Vec::new(),
        };
        self.query_arrival(ctx, req.sink, msg, None);
    }

    fn query_arrival(
        &mut self,
        ctx: &mut Ctx<FloodMsg>,
        at: NodeId,
        msg: FloodMsg,
        from: Option<NodeId>,
    ) {
        let FloodMsg::Query {
            spec,
            gpsr,
            mut list,
        } = msg
        else {
            unreachable!()
        };
        let neighbors = reliable(ctx, at);
        let prev = list.last().map(|h| h.loc);
        let enc = match prev {
            None => neighbors.len() as u32,
            Some(p) => neighbors
                .iter()
                .filter(|n| n.position.dist(p) > self.radio_range)
                .count() as u32,
        };
        list.push(HopRecord {
            loc: ctx.position(at),
            enc,
        });
        let prev_pos = from.map(|f| (f, ctx.position(f)));
        match plan_next_hop(
            at,
            ctx.position(at),
            &gpsr,
            &neighbors,
            prev_pos,
            &[],
            1.5 * self.radio_range, // home node = closest to q; skip face walks
        ) {
            RouteStep::Forward { next, header } => {
                self.send(
                    ctx,
                    at,
                    next,
                    FloodMsg::Query {
                        spec,
                        gpsr: header,
                        list,
                    },
                );
            }
            RouteStep::Arrived | RouteStep::NoRoute => {
                let radius = knnb(&list, spec.q, self.radio_range, spec.k as usize)
                    .radius
                    .max(self.radio_range * 0.5);
                if let Some(o) = self.outcomes.get_mut(spec.qid as usize) {
                    o.boundary_radius = radius;
                    o.final_radius = radius;
                    o.routing_hops = list.len().saturating_sub(1) as u32;
                }
                self.flood_arrival(ctx, at, spec, radius);
            }
        }
    }

    fn flood_arrival(&mut self, ctx: &mut Ctx<FloodMsg>, at: NodeId, spec: FloodSpec, radius: f64) {
        if !self.seen_flood.insert((spec.qid, at.0)) {
            return;
        }
        let pos = ctx.position(at);
        if pos.dist(spec.q) > radius {
            return;
        }
        // Rebroadcast, then route our own response independently to the
        // sink after a random share of the jitter budget.
        let flood = FloodMsg::Flood { spec, radius };
        let bytes = flood.wire_bytes(&self.cfg);
        ctx.broadcast_flow(at, bytes, flood, Some(spec.qid));
        self.pending.insert((spec.qid, at.0), spec);
        let jitter: f64 = {
            use rand::Rng;
            ctx.rng()
                .gen_range(0.0..self.cfg.per_response_slot * spec.k as f64 + 1e-6)
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
        let resp = FloodMsg::Response {
            spec,
            gpsr: GpsrHeader::new(spec.sink_pos),
            node: at,
            position: ctx.position(at),
        };
        self.route_response(ctx, at, resp, None);
    }

    fn route_response(
        &mut self,
        ctx: &mut Ctx<FloodMsg>,
        at: NodeId,
        msg: FloodMsg,
        from: Option<NodeId>,
    ) {
        let FloodMsg::Response { spec, gpsr, .. } = &msg else {
            unreachable!()
        };
        let spec = *spec;
        if at == spec.sink {
            return self.absorb_response(ctx, msg);
        }
        let neighbors = reliable(ctx, at);
        if neighbors.iter().any(|n| n.id == spec.sink) {
            return self.send(ctx, at, spec.sink, msg);
        }
        let gpsr = *gpsr;
        let prev_pos = from.map(|f| (f, ctx.position(f)));
        match plan_next_hop(
            at,
            ctx.position(at),
            &gpsr,
            &neighbors,
            prev_pos,
            &[],
            self.radio_range,
        ) {
            RouteStep::Forward { next, header } => {
                let FloodMsg::Response {
                    spec,
                    node,
                    position,
                    ..
                } = msg
                else {
                    unreachable!()
                };
                self.send(
                    ctx,
                    at,
                    next,
                    FloodMsg::Response {
                        spec,
                        gpsr: header,
                        node,
                        position,
                    },
                );
            }
            RouteStep::Arrived | RouteStep::NoRoute => {}
        }
    }

    fn absorb_response(&mut self, ctx: &mut Ctx<FloodMsg>, msg: FloodMsg) {
        let FloodMsg::Response {
            spec,
            node,
            position,
            ..
        } = msg
        else {
            unreachable!()
        };
        if let Some((set, count, last)) = self.merged.get_mut(&spec.qid) {
            set.insert(Candidate {
                id: node,
                position,
                dist: position.dist(spec.q),
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
        self.radio_range = ctx.config().radio_range;
        for (i, req) in self.requests.clone().into_iter().enumerate() {
            ctx.set_timer(
                req.sink,
                SimDuration::from_secs_f64(req.at),
                pack_timer_key(K_ISSUE, 0, i as u32),
            );
        }
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
            FloodMsg::Query { .. } => self.query_arrival(ctx, at, msg.clone(), Some(from)),
            FloodMsg::Flood { spec, radius } => self.flood_arrival(ctx, at, *spec, *radius),
            FloodMsg::Response { .. } => self.route_response(ctx, at, msg.clone(), Some(from)),
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
