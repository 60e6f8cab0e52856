//! The centralized baseline of the paper's taxonomy (Figure 1): a base
//! station keeps an R-tree index over the positions of *all* sensor nodes,
//! refreshed by periodic position reports, and answers KNN queries from the
//! index.
//!
//! This is the approach the introduction rules out for large mobile
//! networks: "pulling data from a large number of data sources is generally
//! infeasible due to high energy consumption, high communication cost, or
//! long latency". Every node pays a multi-hop report every
//! `REPORT_INTERVAL` seconds whether anyone queries or not, and the answers
//! are as stale as the last report.
//!
//! The base station is one extra stationary infrastructure node (appended
//! after the data nodes, like the Peer-tree clusterheads).

use std::collections::BTreeMap;

use diknn_geom::{Point, Rect};
use diknn_routing::{next_hop, reliable, GpsrHeader};
use diknn_rtree::RTree;
use diknn_sim::{pack_timer_key, unpack_timer_key, Ctx, NodeId, Protocol, SimDuration, SimTime};

use diknn_core::messages::QuerySpec;
use diknn_core::{
    schedule_issues, KnnProtocol, QueryOutcome, QueryRequest, BASE_MSG_BYTES, K_ISSUE,
    RESPONSE_BYTES,
};

const K_REPORT: u8 = 2;

/// Position report interval in seconds.
const REPORT_INTERVAL: f64 = 2.0;

/// Index entries older than this many seconds are dropped.
const ENTRY_TIMEOUT: f64 = 6.0;

/// Centralized-index configuration: nothing to set. The type stays so
/// every protocol is named by its config alike.
#[derive(Debug, Clone, Default)]
pub struct CentralizedConfig {}

#[derive(Debug, Clone, PartialEq)]
pub enum CentralMsg {
    /// Periodic position report node → base station.
    Report {
        node: NodeId,
        position: Point,
        gpsr: GpsrHeader,
    },
    /// Query sink → base station.
    Query { spec: QuerySpec, gpsr: GpsrHeader },
    /// Answer base station → sink.
    Answer {
        spec: QuerySpec,
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

    /// The GPSR header every frame travels under.
    fn gpsr_mut(&mut self) -> &mut GpsrHeader {
        match self {
            CentralMsg::Report { gpsr, .. }
            | CentralMsg::Query { gpsr, .. }
            | CentralMsg::Answer { gpsr, .. } => gpsr,
        }
    }

    fn wire_bytes(&self) -> usize {
        match self {
            CentralMsg::Report { .. } => BASE_MSG_BYTES,
            CentralMsg::Query { .. } => BASE_MSG_BYTES + 8,
            CentralMsg::Answer { answer, .. } => BASE_MSG_BYTES + RESPONSE_BYTES * answer.len(),
        }
    }
}

/// The centralized-index protocol.
pub struct Centralized {
    requests: Vec<QueryRequest>,
    outcomes: Vec<QueryOutcome>,
    data_nodes: usize,
    base_pos: Point,
    /// The base station's index: node → (position, heard time).
    index: BTreeMap<u32, (Point, SimTime)>,
    route_excludes: BTreeMap<(u32, u8), Vec<NodeId>>,
}

impl Centralized {
    /// The base station sits at the field centre; append one stationary
    /// node there when building the simulator.
    pub fn base_position(field: Rect) -> Point {
        field.center()
    }

    pub fn new(
        _: CentralizedConfig,
        field: Rect,
        data_nodes: usize,
        requests: Vec<QueryRequest>,
    ) -> Self {
        Centralized {
            base_pos: Self::base_position(field),
            requests,
            outcomes: Vec::new(),
            data_nodes,
            index: BTreeMap::new(),
            route_excludes: BTreeMap::new(),
        }
    }

    fn base_id(&self) -> NodeId {
        NodeId(self.data_nodes as u32)
    }

    fn send(&self, ctx: &mut Ctx<CentralMsg>, from: NodeId, to: NodeId, msg: CentralMsg) {
        let bytes = msg.wire_bytes();
        let flow = msg.qid();
        ctx.unicast_flow(from, to, bytes, msg, flow);
    }

    /// The node a frame is bound for, and the key its failed next hops are
    /// excluded under.
    fn route_of(&self, msg: &CentralMsg) -> (NodeId, (u32, u8)) {
        match msg {
            CentralMsg::Report { node, .. } => (self.base_id(), (node.0, 0)),
            CentralMsg::Query { spec, .. } => (self.base_id(), (spec.qid, 1)),
            CentralMsg::Answer { spec, .. } => (spec.sink, (spec.qid, 2)),
        }
    }

    /// Frame `msg` is at node `at`: handle it if this is its destination,
    /// else route it one GPSR hop on. A dead end loses it.
    fn deliver(
        &mut self,
        ctx: &mut Ctx<CentralMsg>,
        at: NodeId,
        mut msg: CentralMsg,
        from: Option<NodeId>,
    ) {
        let (dest, key) = self.route_of(&msg);
        if at != dest {
            let neighbors = reliable(ctx, at);
            let exclude = self.route_excludes.get(&key).map_or(&[][..], Vec::as_slice);
            let gpsr = msg.gpsr_mut();
            if let Some(next) = next_hop(ctx, at, &neighbors, Some(dest), gpsr, from, exclude) {
                self.send(ctx, at, next, msg);
            }
            return;
        }
        match msg {
            CentralMsg::Report { node, position, .. } => {
                self.index.insert(node.0, (position, ctx.now()));
            }
            CentralMsg::Query { spec, .. } => self.answer_query(ctx, spec),
            CentralMsg::Answer { spec, answer, .. } => {
                self.outcomes[spec.qid as usize].complete(ctx.now(), answer);
            }
        }
    }

    fn report_tick(&mut self, ctx: &mut Ctx<CentralMsg>, at: NodeId) {
        let pos = ctx.position(at);
        let msg = CentralMsg::Report {
            node: at,
            position: pos,
            gpsr: GpsrHeader::new(self.base_pos),
        };
        self.deliver(ctx, at, msg, None);
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(REPORT_INTERVAL),
            pack_timer_key(K_REPORT, 0, 0),
        );
    }

    fn issue(&mut self, ctx: &mut Ctx<CentralMsg>, idx: usize) {
        let qid = self.outcomes.len() as u32;
        let outcome = QueryOutcome::pending(qid, &self.requests[idx], ctx.now(), 1);
        let spec = QuerySpec::issue(ctx, &outcome, 0);
        self.outcomes.push(outcome);
        let msg = CentralMsg::Query {
            spec,
            gpsr: GpsrHeader::new(self.base_pos),
        };
        self.deliver(ctx, spec.sink, msg, None);
    }

    /// The base station answers from its index.
    fn answer_query(&mut self, ctx: &mut Ctx<CentralMsg>, spec: QuerySpec) {
        let now = ctx.now();
        self.index
            .retain(|_, (_, t)| (now - *t).as_secs_f64() <= ENTRY_TIMEOUT);
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
        self.deliver(ctx, base, msg, None);
    }
}

impl Protocol for Centralized {
    type Msg = CentralMsg;

    fn on_start(&mut self, ctx: &mut Ctx<CentralMsg>) {
        assert_eq!(
            ctx.node_count(),
            self.data_nodes + 1,
            "node count must be data_nodes + 1 base station"
        );
        use rand::Rng;
        for i in 0..self.data_nodes {
            let phase: f64 = ctx.rng().gen_range(0.0..REPORT_INTERVAL);
            ctx.set_timer(
                NodeId(i as u32),
                SimDuration::from_secs_f64(phase),
                pack_timer_key(K_REPORT, 0, 0),
            );
        }
        schedule_issues(ctx, 0, &self.requests);
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
        self.deliver(ctx, at, msg.clone(), Some(from));
    }

    fn on_send_failed(
        &mut self,
        at: NodeId,
        to: NodeId,
        msg: &CentralMsg,
        ctx: &mut Ctx<CentralMsg>,
    ) {
        let (_, route_key) = self.route_of(msg);
        let e = self.route_excludes.entry(route_key).or_default();
        e.push(to);
        if e.len() <= 8 {
            self.deliver(ctx, at, msg.clone(), None);
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
