//! The centralized baseline of the paper's taxonomy (Figure 1): a base
//! station keeps an R-tree index over the positions of *all* sensor nodes,
//! refreshed by periodic position reports, and answers KNN queries from the
//! index.
//!
//! This is the approach the introduction rules out for large mobile
//! networks: "pulling data from a large number of data sources is generally
//! infeasible due to high energy consumption, high communication cost, or
//! long latency". Every node pays a multi-hop report every
//! `report_interval` seconds whether anyone queries or not, and the answers
//! are as stale as the last report.
//!
//! The base station is one extra stationary infrastructure node (appended
//! after the data nodes, like the Peer-tree clusterheads).

use std::collections::BTreeMap;

use diknn_geom::{Point, Rect};
use diknn_routing::{plan_next_hop, reliable, GpsrHeader, RouteStep};
use diknn_rtree::RTree;
use diknn_sim::{pack_timer_key, unpack_timer_key, Ctx, NodeId, Protocol, SimDuration, SimTime};

use diknn_core::{KnnProtocol, QueryOutcome, QueryRequest, QueryStatus};

const K_ISSUE: u8 = 1;
const K_REPORT: u8 = 2;

/// Centralized-index configuration.
#[derive(Debug, Clone)]
pub struct CentralizedConfig {
    /// Position report interval in seconds.
    pub report_interval: f64,
    /// Index entries older than this are dropped.
    pub entry_timeout: f64,
    pub base_msg_bytes: usize,
    pub response_bytes: usize,
}

impl Default for CentralizedConfig {
    fn default() -> Self {
        CentralizedConfig {
            report_interval: 2.0,
            entry_timeout: 6.0,
            base_msg_bytes: 24,
            response_bytes: 10,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CSpec {
    pub qid: u32,
    pub sink: NodeId,
    pub sink_pos: Point,
    pub q: Point,
    pub k: u32,
    pub issued_at: SimTime,
}

#[derive(Debug, Clone, PartialEq)]
pub enum CentralMsg {
    /// Periodic position report node → base station.
    Report {
        node: NodeId,
        position: Point,
        gpsr: GpsrHeader,
    },
    /// Query sink → base station.
    Query { spec: CSpec, gpsr: GpsrHeader },
    /// Answer base station → sink.
    Answer {
        spec: CSpec,
        gpsr: GpsrHeader,
        answer: Vec<NodeId>,
    },
}

impl CentralMsg {
    /// Query id for per-query energy attribution; position `Report`s are
    /// index-maintenance traffic owned by no query.
    fn qid(&self) -> Option<u32> {
        match self {
            CentralMsg::Report { .. } => None,
            CentralMsg::Query { spec, .. } | CentralMsg::Answer { spec, .. } => Some(spec.qid),
        }
    }

    fn wire_bytes(&self, cfg: &CentralizedConfig) -> usize {
        match self {
            CentralMsg::Report { .. } => cfg.base_msg_bytes,
            CentralMsg::Query { .. } => cfg.base_msg_bytes + 8,
            CentralMsg::Answer { answer, .. } => {
                cfg.base_msg_bytes + cfg.response_bytes * answer.len()
            }
        }
    }
}

/// The centralized-index protocol.
pub struct Centralized {
    cfg: CentralizedConfig,
    requests: Vec<QueryRequest>,
    outcomes: Vec<QueryOutcome>,
    data_nodes: usize,
    base_pos: Point,
    /// The base station's index: node → (position, heard time).
    index: BTreeMap<u32, (Point, SimTime)>,
    route_excludes: BTreeMap<(u32, u8), Vec<NodeId>>,
    radio_range: f64,
}

impl Centralized {
    /// The base station sits at the field centre; append one stationary
    /// node there when building the simulator.
    pub fn base_position(field: Rect) -> Point {
        field.center()
    }

    pub fn new(
        cfg: CentralizedConfig,
        field: Rect,
        data_nodes: usize,
        requests: Vec<QueryRequest>,
    ) -> Self {
        Centralized {
            base_pos: Self::base_position(field),
            cfg,
            requests,
            outcomes: Vec::new(),
            data_nodes,
            index: BTreeMap::new(),
            route_excludes: BTreeMap::new(),
            radio_range: 0.0,
        }
    }

    fn base_id(&self) -> NodeId {
        NodeId(self.data_nodes as u32)
    }

    fn send(&self, ctx: &mut Ctx<CentralMsg>, from: NodeId, to: NodeId, msg: CentralMsg) {
        let bytes = msg.wire_bytes(&self.cfg);
        let flow = msg.qid();
        ctx.unicast_flow(from, to, bytes, msg, flow);
    }

    /// Geo-route `msg` toward the header's destination, delivering to
    /// `dest` when adjacent. Returns false if the route died.
    fn geo_forward(
        &mut self,
        ctx: &mut Ctx<CentralMsg>,
        at: NodeId,
        dest: NodeId,
        route_key: (u32, u8),
        msg: CentralMsg,
        from: Option<NodeId>,
    ) -> bool {
        let gpsr = match &msg {
            CentralMsg::Report { gpsr, .. }
            | CentralMsg::Query { gpsr, .. }
            | CentralMsg::Answer { gpsr, .. } => *gpsr,
        };
        let neighbors = reliable(ctx, at);
        if neighbors.iter().any(|n| n.id == dest) {
            self.send(ctx, at, dest, msg);
            return true;
        }
        let exclude = self
            .route_excludes
            .get(&route_key)
            .cloned()
            .unwrap_or_default();
        let prev = from.map(|f| (f, ctx.position(f)));
        match plan_next_hop(
            at,
            ctx.position(at),
            &gpsr,
            &neighbors,
            prev,
            &exclude,
            self.radio_range,
        ) {
            RouteStep::Forward { next, header } => {
                let fwd = match msg {
                    CentralMsg::Report { node, position, .. } => CentralMsg::Report {
                        node,
                        position,
                        gpsr: header,
                    },
                    CentralMsg::Query { spec, .. } => CentralMsg::Query { spec, gpsr: header },
                    CentralMsg::Answer { spec, answer, .. } => CentralMsg::Answer {
                        spec,
                        answer,
                        gpsr: header,
                    },
                };
                self.send(ctx, at, next, fwd);
                true
            }
            RouteStep::Arrived | RouteStep::NoRoute => false,
        }
    }

    fn report_tick(&mut self, ctx: &mut Ctx<CentralMsg>, at: NodeId) {
        let pos = ctx.position(at);
        let msg = CentralMsg::Report {
            node: at,
            position: pos,
            gpsr: GpsrHeader::new(self.base_pos),
        };
        let base = self.base_id();
        self.geo_forward(ctx, at, base, (at.0, 0), msg, None);
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(self.cfg.report_interval),
            pack_timer_key(K_REPORT, 0, 0),
        );
    }

    fn issue(&mut self, ctx: &mut Ctx<CentralMsg>, idx: usize) {
        let req = self.requests[idx];
        let qid = self.outcomes.len() as u32;
        let spec = CSpec {
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
        let msg = CentralMsg::Query {
            spec,
            gpsr: GpsrHeader::new(self.base_pos),
        };
        let base = self.base_id();
        if req.sink == base {
            self.answer_query(ctx, spec);
        } else {
            self.geo_forward(ctx, req.sink, base, (qid, 1), msg, None);
        }
    }

    /// The base station answers from its index.
    fn answer_query(&mut self, ctx: &mut Ctx<CentralMsg>, spec: CSpec) {
        let now = ctx.now();
        let timeout = self.cfg.entry_timeout;
        self.index
            .retain(|_, (_, t)| (now - *t).as_secs_f64() <= timeout);
        let tree =
            RTree::bulk_load_points(self.index.iter().map(|(&id, &(pos, _))| (pos, NodeId(id))));
        let answer: Vec<NodeId> = tree
            .knn(spec.q, spec.k as usize)
            .into_iter()
            .map(|e| e.item)
            .collect();
        if let Some(o) = self.outcomes.get_mut(spec.qid as usize) {
            o.explored_nodes = self.index.len() as u32;
        }
        let msg = CentralMsg::Answer {
            spec,
            gpsr: GpsrHeader::new(spec.sink_pos),
            answer,
        };
        let base = self.base_id();
        if spec.sink == base {
            self.absorb(ctx, msg);
        } else {
            self.geo_forward(ctx, base, spec.sink, (spec.qid, 2), msg, None);
        }
    }

    fn absorb(&mut self, ctx: &mut Ctx<CentralMsg>, msg: CentralMsg) {
        let CentralMsg::Answer { spec, answer, .. } = msg else {
            unreachable!()
        };
        let o = &mut self.outcomes[spec.qid as usize];
        if o.completed_at.is_none() {
            o.completed_at = Some(ctx.now());
            o.answer = answer;
            o.answer.truncate(o.k);
            o.parts_returned = 1;
        }
    }
}

impl Protocol for Centralized {
    type Msg = CentralMsg;

    fn on_start(&mut self, ctx: &mut Ctx<CentralMsg>) {
        self.radio_range = ctx.config().radio_range;
        assert_eq!(
            ctx.node_count(),
            self.data_nodes + 1,
            "node count must be data_nodes + 1 base station"
        );
        use rand::Rng;
        for i in 0..self.data_nodes {
            let phase: f64 = ctx.rng().gen_range(0.0..self.cfg.report_interval);
            ctx.set_timer(
                NodeId(i as u32),
                SimDuration::from_secs_f64(phase),
                pack_timer_key(K_REPORT, 0, 0),
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

    fn on_timer(&mut self, at: NodeId, timer_key: u64, ctx: &mut Ctx<CentralMsg>) {
        let (kind, _, aux) = unpack_timer_key(timer_key);
        match kind {
            K_ISSUE => self.issue(ctx, aux as usize),
            K_REPORT => self.report_tick(ctx, at),
            _ => unreachable!("unknown timer kind"),
        }
    }

    fn on_message(
        &mut self,
        at: NodeId,
        from: NodeId,
        msg: &CentralMsg,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        let base = self.base_id();
        match msg {
            CentralMsg::Report { node, position, .. } => {
                if at == base {
                    self.index.insert(node.0, (*position, ctx.now()));
                } else {
                    let node = *node;
                    self.geo_forward(ctx, at, base, (node.0, 0), msg.clone(), Some(from));
                }
            }
            CentralMsg::Query { spec, .. } => {
                if at == base {
                    self.answer_query(ctx, *spec);
                } else {
                    let qid = spec.qid;
                    self.geo_forward(ctx, at, base, (qid, 1), msg.clone(), Some(from));
                }
            }
            CentralMsg::Answer { spec, .. } => {
                if at == spec.sink {
                    self.absorb(ctx, msg.clone());
                } else {
                    let qid = spec.qid;
                    let sink = spec.sink;
                    self.geo_forward(ctx, at, sink, (qid, 2), msg.clone(), Some(from));
                }
            }
        }
    }

    fn on_send_failed(
        &mut self,
        at: NodeId,
        to: NodeId,
        msg: &CentralMsg,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        let (route_key, dest) = match msg {
            CentralMsg::Report { node, .. } => ((node.0, 0u8), self.base_id()),
            CentralMsg::Query { spec, .. } => ((spec.qid, 1u8), self.base_id()),
            CentralMsg::Answer { spec, .. } => ((spec.qid, 2u8), spec.sink),
        };
        let e = self.route_excludes.entry(route_key).or_default();
        e.push(to);
        if e.len() <= 8 {
            self.geo_forward(ctx, at, dest, route_key, msg.clone(), None);
        } else {
            self.route_excludes.remove(&route_key);
        }
    }
}

impl KnnProtocol for Centralized {
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
    fn base_sits_at_field_center() {
        let f = Rect::new(0.0, 0.0, 100.0, 100.0);
        assert_eq!(Centralized::base_position(f), Point::new(50.0, 50.0));
    }

    #[test]
    fn base_id_follows_data_nodes() {
        let c = Centralized::new(
            CentralizedConfig::default(),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            200,
            vec![],
        );
        assert_eq!(c.base_id(), NodeId(200));
    }
}
