//! KPT — the spanning-tree KNN baseline (Winter & Lee [29]; Winter, Xu &
//! Lee [30]), as simulated in the paper's evaluation.
//!
//! Execution: the query geo-routes to the home node; the home node
//! estimates a search boundary; multiple trees rooted at the home node are
//! built by flooding inside the boundary; data is aggregated leaf-to-root
//! with per-depth timers; the home node sorts and returns the KNN result to
//! the sink.
//!
//! Two boundary modes are provided:
//! * [`KptBoundary::Conservative`] — the original `R = k × MHD` rule, whose
//!   area grows quadratically in `k` and floods the network (§5.1 notes
//!   `R = 300 m` for `k = 20`).
//! * [`KptBoundary::Knnb`] — the paper's fair variant "KPT+KNNB": the same
//!   KNNB estimator DIKNN uses (this is what Figures 8–9 plot).
//!
//! Mobility pain is modelled faithfully: tree links are discovered at flood
//! time; a child whose parent has moved out of range at report time
//! re-attaches to any neighbour closer to the home node and re-sends its
//! partial aggregate — the "forwarded again and again" overhead the paper
//! describes.

use std::collections::BTreeMap;

use diknn_routing::{next_hop, reliable, GpsrHeader};
use diknn_sim::config::RADIO_RANGE;
use diknn_sim::{pack_timer_key, unpack_timer_key, Ctx, Neighbor, NodeId, Protocol, SimDuration};

use diknn_core::knnb::{knnb, kpt_conservative_radius, HopRecord};
use diknn_core::messages::{QueryMsg, QuerySpec};
use diknn_core::{
    schedule_issues, Candidate, CandidateSet, KnnProtocol, QueryOutcome, QueryRequest,
    BASE_MSG_BYTES, K_ISSUE,
};

use crate::Answer;

const K_REPORT: u8 = 2;
const K_FINALIZE: u8 = 4;

/// Per-depth aggregation slot in seconds: a node at depth `d` in a tree of
/// estimated height `H` reports at a random moment within its level slot,
/// `[(H − d − 1) × AGG_SLOT, (H − d) × AGG_SLOT)`.
///
/// This fixed per-level schedule is what the paper's KPT uses — the
/// reporters of one level contend within their slot, which is exactly the
/// "serious degree of collision and large retransmissions of data in the
/// tree" the paper observes at large k.
const AGG_SLOT: f64 = 0.4;

/// Boundary estimation mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KptBoundary {
    /// Original conservative rule `R = k × MHD`.
    Conservative { mean_hop_distance: f64 },
    /// The paper's evaluation variant: KNNB-estimated boundary.
    Knnb,
}

/// KPT configuration.
#[derive(Debug, Clone)]
pub struct KptConfig {
    pub boundary: KptBoundary,
}

impl Default for KptConfig {
    fn default() -> Self {
        KptConfig {
            boundary: KptBoundary::Knnb,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum KptMsg {
    /// Routing phase: DIKNN's own query message, gathering the KNNB hop
    /// records the `Knnb` boundary mode estimates from.
    Query(QueryMsg),
    /// Tree-construction flood inside the boundary.
    TreeBuild {
        spec: QuerySpec,
        radius: f64,
        parent: NodeId,
        depth: u32,
        height: u32,
    },
    /// Leaf-to-root aggregation.
    Report {
        qid: u32,
        candidates: CandidateSet,
        explored: u32,
    },
    /// Final result routed home → sink.
    Result(Answer),
}

impl KptMsg {
    /// Query id for per-query energy attribution (every KPT frame is
    /// query-scoped).
    fn qid(&self) -> Option<u32> {
        match self {
            KptMsg::Query(QueryMsg { spec, .. })
            | KptMsg::TreeBuild { spec, .. }
            | KptMsg::Result(Answer { spec, .. }) => Some(spec.qid),
            KptMsg::Report { qid, .. } => Some(*qid),
        }
    }

    fn wire_bytes(&self) -> usize {
        match self {
            KptMsg::Query(m) => BASE_MSG_BYTES + 10 * m.list.len(),
            KptMsg::TreeBuild { .. } => BASE_MSG_BYTES + 8,
            KptMsg::Report { candidates, .. } | KptMsg::Result(Answer { candidates, .. }) => {
                BASE_MSG_BYTES + candidates.wire_bytes()
            }
        }
    }
}

/// Per-node, per-query tree membership.
struct TreeNode {
    spec: QuerySpec,
    parent: NodeId,
    /// Aggregate of own data + children reports received so far.
    agg: CandidateSet,
    explored: u32,
    /// Portion of `explored` already reported upward; re-reports send only
    /// the delta so counts are never double-merged.
    explored_sent: u32,
    reported: bool,
    /// Neighbours that failed to take our report (excluded from further
    /// attempts).
    report_excludes: Vec<NodeId>,
    /// Delivery attempts made for this node's report.
    retry_rounds: u32,
}

struct HomeState {
    spec: QuerySpec,
    node: NodeId,
    radius: f64,
    merged: CandidateSet,
    explored: u32,
    done: bool,
}

/// The KPT protocol instance.
pub struct Kpt {
    cfg: KptConfig,
    requests: Vec<QueryRequest>,
    outcomes: Vec<QueryOutcome>,
    /// (qid, node) → tree membership.
    trees: BTreeMap<(u32, u32), TreeNode>,
    homes: BTreeMap<u32, HomeState>,
    query_excludes: BTreeMap<u32, Vec<NodeId>>,
    result_excludes: BTreeMap<u32, Vec<NodeId>>,
}

impl Kpt {
    pub fn new(cfg: KptConfig, requests: Vec<QueryRequest>) -> Self {
        Kpt {
            cfg,
            requests,
            outcomes: Vec::new(),
            trees: BTreeMap::new(),
            homes: BTreeMap::new(),
            query_excludes: BTreeMap::new(),
            result_excludes: BTreeMap::new(),
        }
    }

    fn send(&self, ctx: &mut Ctx<KptMsg>, from: NodeId, to: NodeId, msg: KptMsg) {
        let bytes = msg.wire_bytes();
        let flow = msg.qid();
        ctx.unicast_flow(from, to, bytes, msg, flow);
    }

    fn broadcast(&self, ctx: &mut Ctx<KptMsg>, from: NodeId, msg: KptMsg) {
        let bytes = msg.wire_bytes();
        let flow = msg.qid();
        ctx.broadcast_flow(from, bytes, msg, flow);
    }

    fn issue(&mut self, ctx: &mut Ctx<KptMsg>, idx: usize) {
        let qid = self.outcomes.len() as u32;
        let outcome = QueryOutcome::pending(qid, &self.requests[idx], ctx.now(), 1);
        let spec = QuerySpec::issue(ctx, &outcome, 0);
        self.outcomes.push(outcome);
        let msg = QueryMsg {
            spec,
            gpsr: GpsrHeader::new(spec.q),
            list: Vec::new(),
        };
        self.query_arrival(ctx, spec.sink, msg, None);
    }

    fn query_arrival(
        &mut self,
        ctx: &mut Ctx<KptMsg>,
        at: NodeId,
        mut msg: QueryMsg,
        from: Option<NodeId>,
    ) {
        self.query_excludes.remove(&msg.spec.qid);
        let neighbors = reliable(ctx, at);
        msg.record_hop(ctx.position(at), &neighbors, RADIO_RANGE);
        self.forward_query(ctx, at, &neighbors, msg, from);
    }

    fn forward_query(
        &mut self,
        ctx: &mut Ctx<KptMsg>,
        at: NodeId,
        neighbors: &[Neighbor],
        mut msg: QueryMsg,
        from: Option<NodeId>,
    ) {
        let exclude = self
            .query_excludes
            .get(&msg.spec.qid)
            .map_or(&[][..], Vec::as_slice);
        match next_hop(ctx, at, neighbors, None, &mut msg.gpsr, from, exclude) {
            Some(next) => self.send(ctx, at, next, KptMsg::Query(msg)),
            None => self.become_home(ctx, at, msg.spec, &msg.list),
        }
    }

    fn become_home(
        &mut self,
        ctx: &mut Ctx<KptMsg>,
        home: NodeId,
        spec: QuerySpec,
        l: &[HopRecord],
    ) {
        let field = ctx.config().field;
        let diag = (field.width().powi(2) + field.height().powi(2)).sqrt();
        let radius = match self.cfg.boundary {
            KptBoundary::Knnb => knnb(l, spec.q, RADIO_RANGE, spec.k as usize).radius,
            KptBoundary::Conservative { mean_hop_distance } => {
                kpt_conservative_radius(spec.k as usize, mean_hop_distance)
            }
        }
        .clamp(RADIO_RANGE * 0.5, diag);
        if let Some(o) = self.outcomes.get_mut(spec.qid as usize) {
            o.boundary_radius = radius;
            o.final_radius = radius;
            o.routing_hops = l.len().saturating_sub(1) as u32;
        }
        let height = (radius / (0.7 * RADIO_RANGE)).ceil() as u32 + 1;
        let mut agg = CandidateSet::new(spec.k as usize);
        let my_pos = ctx.position(home);
        agg.insert(Candidate {
            id: home,
            position: my_pos,
            dist: my_pos.dist(spec.q),
        });
        self.homes.insert(
            spec.qid,
            HomeState {
                spec,
                node: home,
                radius,
                merged: CandidateSet::new(spec.k as usize),
                explored: 1,
                done: false,
            },
        );
        self.trees.insert(
            (spec.qid, home.0),
            TreeNode {
                spec,
                parent: home,
                agg,
                explored: 1,
                explored_sent: 0,
                reported: false,
                report_excludes: Vec::new(),
                retry_rounds: 0,
            },
        );
        // Flood the tree-build message.
        self.broadcast(
            ctx,
            home,
            KptMsg::TreeBuild {
                spec,
                radius,
                parent: home,
                depth: 0,
                height,
            },
        );
        // The home node finalises after the full aggregation schedule.
        let wait = AGG_SLOT * (height as f64 + 1.0) + 0.15;
        ctx.set_timer(
            home,
            SimDuration::from_secs_f64(wait),
            pack_timer_key(K_FINALIZE, spec.qid, 0),
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn tree_build(
        &mut self,
        ctx: &mut Ctx<KptMsg>,
        at: NodeId,
        spec: QuerySpec,
        radius: f64,
        parent: NodeId,
        depth: u32,
        height: u32,
    ) {
        let my_pos = ctx.position(at);
        if my_pos.dist(spec.q) > radius {
            return; // outside the boundary
        }
        if self.trees.contains_key(&(spec.qid, at.0)) {
            return; // already in a tree for this query
        }
        let mut agg = CandidateSet::new(spec.k as usize);
        agg.insert(Candidate {
            id: at,
            position: my_pos,
            dist: my_pos.dist(spec.q),
        });
        self.trees.insert(
            (spec.qid, at.0),
            TreeNode {
                spec,
                parent,
                agg,
                explored: 1,
                explored_sent: 0,
                reported: false,
                report_excludes: Vec::new(),
                retry_rounds: 0,
            },
        );
        // Continue the flood.
        self.broadcast(
            ctx,
            at,
            KptMsg::TreeBuild {
                spec,
                radius,
                parent: at,
                depth: depth + 1,
                height,
            },
        );
        // Schedule this node's upward report: deeper nodes report earlier,
        // jittered within the level slot.
        let slots = (height.saturating_sub(depth + 1)) as f64;
        let jitter: f64 = {
            use rand::Rng;
            ctx.rng().gen_range(0.0..AGG_SLOT)
        };
        let wait = AGG_SLOT * slots + jitter;
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(wait),
            pack_timer_key(K_REPORT, spec.qid, 0),
        );
    }

    /// A node's aggregation timer fired: report the partial aggregate to
    /// the parent (re-attaching if the parent has moved away).
    fn report_up(&mut self, ctx: &mut Ctx<KptMsg>, at: NodeId, qid: u32) {
        let Some(node) = self.trees.get_mut(&(qid, at.0)) else {
            return;
        };
        if node.reported {
            return;
        }
        node.reported = true;
        let spec = node.spec;
        // Data is read at report time: refresh our own entry so the
        // reported position is current, not the tree-construction snapshot.
        let my_pos = ctx.position(at);
        node.agg.insert(Candidate {
            id: at,
            position: my_pos,
            dist: my_pos.dist(node.spec.q),
        });
        let candidates = node.agg.clone();
        let explored = node.explored - node.explored_sent;
        node.explored_sent = node.explored;
        let parent = node.parent;
        // The home node reports to itself via the finalize timer instead.
        if self.homes.get(&qid).map(|h| h.node) == Some(at) {
            return;
        }
        let msg = KptMsg::Report {
            qid,
            candidates,
            explored,
        };
        // Tree maintenance: if the recorded parent is no longer a
        // neighbour (or failed before), re-attach to the neighbour closest
        // to q (mobility overhead: the partial data travels again — and
        // again, the paper's "forwarded again and again").
        let excludes = self
            .trees
            .get(&(qid, at.0))
            .map(|n| n.report_excludes.clone())
            .unwrap_or_default();
        let neighbors = reliable(ctx, at);
        let target = if neighbors.iter().any(|n| n.id == parent) && !excludes.contains(&parent) {
            Some(parent)
        } else {
            neighbors
                .iter()
                .filter(|n| !excludes.contains(&n.id))
                .filter(|n| n.position.dist(spec.q) < ctx.position(at).dist(spec.q))
                .min_by(|a, b| {
                    a.position
                        .dist(spec.q)
                        .total_cmp(&b.position.dist(spec.q))
                        .then(a.id.cmp(&b.id))
                })
                .map(|n| n.id)
        };
        if let Some(t) = target {
            self.send(ctx, at, t, msg);
        }
        // else: stranded subtree, data lost (accuracy cost under mobility).
    }

    /// A report arrived at `at`: merge into the local aggregate (or into
    /// the home merge set), forwarding late if already reported.
    fn absorb_report(
        &mut self,
        ctx: &mut Ctx<KptMsg>,
        at: NodeId,
        qid: u32,
        candidates: &CandidateSet,
        explored: u32,
    ) {
        if let Some(home) = self.homes.get_mut(&qid) {
            if home.node == at {
                if !home.done {
                    home.merged.merge(candidates);
                    home.explored += explored;
                } else {
                    // Straggler report after finalisation: lost (the
                    // paper's accuracy cost of long tree latency).
                }
                return;
            }
        }
        let Some(node) = self.trees.get_mut(&(qid, at.0)) else {
            return; // not in this tree: drop
        };
        node.agg.merge(candidates);
        node.explored += explored;
        if node.reported {
            // Late child report after we already reported: forward the
            // delta upward immediately (the paper's re-forwarding
            // overhead).
            node.reported = false;
            self.report_up(ctx, at, qid);
        }
    }

    /// Home's aggregation window ended: merge own subtree and route the
    /// result to the sink.
    fn finalize_home(&mut self, ctx: &mut Ctx<KptMsg>, at: NodeId, qid: u32) {
        let Some(home) = self.homes.get_mut(&qid) else {
            return;
        };
        if home.done {
            return;
        }
        home.done = true;
        let (spec, radius, explored) = (home.spec, home.radius, home.explored);
        let mut merged = home.merged.clone();
        if let Some(own) = self.trees.get(&(qid, at.0)) {
            merged.merge(&own.agg);
        }
        let answer = Answer::new(spec, merged, explored, radius);
        self.route_result(ctx, at, answer, None);
    }

    /// Route the final answer one hop on toward the sink. A dead end loses
    /// it; the sink timeout then closes the query empty.
    fn route_result(
        &mut self,
        ctx: &mut Ctx<KptMsg>,
        at: NodeId,
        mut answer: Answer,
        from: Option<NodeId>,
    ) {
        let sink = answer.spec.sink;
        if at == sink {
            return answer.complete(&mut self.outcomes, ctx.now());
        }
        let neighbors = reliable(ctx, at);
        let exclude = self
            .result_excludes
            .get(&answer.spec.qid)
            .map_or(&[][..], Vec::as_slice);
        let gpsr = &mut answer.gpsr;
        if let Some(next) = next_hop(ctx, at, &neighbors, Some(sink), gpsr, from, exclude) {
            self.send(ctx, at, next, KptMsg::Result(answer));
        }
    }
}

impl Protocol for Kpt {
    type Msg = KptMsg;

    fn on_start(&mut self, ctx: &mut Ctx<KptMsg>) {
        schedule_issues(ctx, 0, &self.requests);
    }

    fn on_timer(&mut self, at: NodeId, timer_key: u64, ctx: &mut Ctx<KptMsg>) {
        let (kind, qid, aux) = unpack_timer_key(timer_key);
        match kind {
            K_ISSUE => self.issue(ctx, aux as usize),
            K_REPORT => self.report_up(ctx, at, qid),
            K_FINALIZE => self.finalize_home(ctx, at, qid),
            _ => unreachable!("unknown timer kind"),
        }
    }

    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &KptMsg, ctx: &mut Ctx<KptMsg>) {
        match msg {
            KptMsg::Query(m) => self.query_arrival(ctx, at, m.clone(), Some(from)),
            KptMsg::TreeBuild {
                spec,
                radius,
                parent,
                depth,
                height,
            } => self.tree_build(ctx, at, *spec, *radius, *parent, *depth, *height),
            KptMsg::Report {
                qid,
                candidates,
                explored,
            } => self.absorb_report(ctx, at, *qid, candidates, *explored),
            KptMsg::Result(a) => self.route_result(ctx, at, a.clone(), Some(from)),
        }
    }

    fn on_send_failed(&mut self, at: NodeId, to: NodeId, msg: &KptMsg, ctx: &mut Ctx<KptMsg>) {
        match msg {
            KptMsg::Query(m) => {
                let e = self.query_excludes.entry(m.spec.qid).or_default();
                e.push(to);
                if e.len() <= 8 {
                    let neighbors = reliable(ctx, at);
                    self.forward_query(ctx, at, &neighbors, m.clone(), None);
                }
            }
            KptMsg::Report {
                qid,
                candidates,
                explored,
            } => {
                // Parent unreachable: re-attach once via the fallback rule.
                if let Some(node) = self.trees.get_mut(&(*qid, at.0)) {
                    // Persistent report delivery — the paper's "large
                    // retransmissions of data in the tree": merge the data
                    // back and retry after a random share of a level slot
                    // (excluding the failed neighbour after repeated
                    // failures), up to 5 rounds.
                    node.retry_rounds += 1;
                    if node.retry_rounds > 2 {
                        node.report_excludes.push(to);
                    }
                    if node.retry_rounds <= 5 {
                        node.reported = false;
                        node.agg.merge(candidates);
                        node.explored_sent = node.explored_sent.saturating_sub(*explored);
                        let jitter: f64 = {
                            use rand::Rng;
                            ctx.rng().gen_range(0.0..AGG_SLOT)
                        };
                        ctx.set_timer(
                            at,
                            SimDuration::from_secs_f64(jitter),
                            pack_timer_key(K_REPORT, *qid, 0),
                        );
                    }
                }
            }
            KptMsg::Result(a) => {
                let e = self.result_excludes.entry(a.spec.qid).or_default();
                e.push(to);
                if e.len() <= 8 {
                    self.route_result(ctx, at, a.clone(), None);
                }
            }
            KptMsg::TreeBuild { .. } => {}
        }
    }
}

impl KnnProtocol for Kpt {
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
    fn conservative_boundary_is_huge() {
        match (KptConfig {
            boundary: KptBoundary::Conservative {
                mean_hop_distance: 15.0,
            },
        })
        .boundary
        {
            KptBoundary::Conservative { mean_hop_distance } => {
                assert_eq!(kpt_conservative_radius(20, mean_hop_distance), 300.0);
            }
            _ => unreachable!(),
        }
    }
}
