//! Query outcomes: what a KNN protocol reports per query, consumed by the
//! workload harness to compute latency, energy and accuracy. Shared by the
//! baselines crate so every protocol is measured identically.

use diknn_geom::Point;
use diknn_sim::{pack_timer_key, Ctx, NodeId, SimDuration, SimTime};

/// A KNN query to be issued during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRequest {
    /// Issue time in seconds.
    pub at: f64,
    /// Issuing (sink) node.
    pub sink: NodeId,
    /// Query point.
    pub q: Point,
    /// Number of nearest neighbours requested.
    pub k: usize,
}

diknn_snap::snap_struct!(QueryRequest { at, sink, q, k });

/// Timer kind of a request's issue timer. Every KNN protocol's `on_timer`
/// matches it and numbers its own timer kinds from 2.
pub const K_ISSUE: u8 = 1;

/// Arm the issue timer of each of `reqs` at its sink, keyed
/// `(K_ISSUE, 0, i)` where `i` is the request's index in the protocol's
/// request list (`reqs` starts at index `first`). A request fires at its
/// `at`, or at once when that time has already passed (requests streamed
/// into a running protocol).
pub fn schedule_issues<M: Clone>(ctx: &mut Ctx<M>, first: usize, reqs: &[QueryRequest]) {
    let now_s = ctx.now().as_secs_f64();
    for (i, req) in reqs.iter().enumerate() {
        ctx.set_timer(
            req.sink,
            SimDuration::from_secs_f64((req.at - now_s).max(0.0)),
            pack_timer_key(K_ISSUE, 0, (first + i) as u32),
        );
    }
}

/// How a query terminated, declared beside the trace vocabulary in
/// `diknn-sim` so [`diknn_sim::ProtoEvent::QueryDone`] carries the same
/// value the outcome does.
pub use diknn_sim::QueryStatus;

/// Per-query result record.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    pub qid: u32,
    pub sink: NodeId,
    pub q: Point,
    pub k: usize,
    pub issued_at: SimTime,
    /// When the sink finalised the answer (None: nothing ever came back).
    pub completed_at: Option<SimTime>,
    /// Node ids returned as the KNN answer (≤ k).
    pub answer: Vec<NodeId>,
    /// Search boundary radius initially estimated (KNNB for DIKNN/KPT,
    /// irrelevant 0.0 for Peer-tree).
    pub boundary_radius: f64,
    /// Largest boundary radius actually used after dynamic adjustment.
    pub final_radius: f64,
    /// Hops of the sink→home routing phase.
    pub routing_hops: u32,
    /// Partial results expected (sectors for DIKNN, subtrees for KPT, 1 for
    /// Peer-tree).
    pub parts_expected: u32,
    /// Partial results actually merged before completion/timeout.
    pub parts_returned: u32,
    /// Total distinct nodes that reported data for this query.
    pub explored_nodes: u32,
    /// Structured termination reason (see [`QueryStatus`]).
    pub status: QueryStatus,
}

diknn_snap::snap_struct!(QueryOutcome {
    qid,
    sink,
    q,
    k,
    issued_at,
    completed_at,
    answer,
    boundary_radius,
    final_radius,
    routing_hops,
    parts_expected,
    parts_returned,
    explored_nodes,
    status
});

impl QueryOutcome {
    /// The outcome of query `qid` for `req`, issued at `issued_at`, still
    /// `Pending` and expecting `parts_expected` partial results.
    pub fn pending(qid: u32, req: &QueryRequest, issued_at: SimTime, parts_expected: u32) -> Self {
        QueryOutcome {
            qid,
            sink: req.sink,
            q: req.q,
            k: req.k,
            issued_at,
            completed_at: None,
            answer: Vec::new(),
            boundary_radius: 0.0,
            final_radius: 0.0,
            routing_hops: 0,
            parts_expected,
            parts_returned: 0,
            explored_nodes: 0,
            status: QueryStatus::Pending,
        }
    }

    /// First-answer-wins completion at the sink: `answer`, cut to `k`,
    /// becomes the query's single returned part as of `now`, unless an
    /// earlier answer already completed the query. Returns whether this
    /// answer was taken.
    pub fn complete(&mut self, now: SimTime, mut answer: Vec<NodeId>) -> bool {
        if self.completed_at.is_some() {
            return false;
        }
        answer.truncate(self.k);
        self.completed_at = Some(now);
        self.answer = answer;
        self.parts_returned = 1;
        true
    }

    /// Classify a still-`Pending` outcome after the run ended (`sink_alive`:
    /// the sink is up at the end). Outcomes already stamped with a status
    /// are left alone.
    pub fn settle(&mut self, sink_alive: bool) {
        if self.status != QueryStatus::Pending {
            return;
        }
        self.status = if self.completed_at.is_some() {
            if self.parts_returned >= self.parts_expected {
                QueryStatus::Completed
            } else {
                QueryStatus::PartialTimeout
            }
        } else if !sink_alive {
            QueryStatus::SinkUnreachable
        } else if self.parts_returned > 0 {
            QueryStatus::PartialTimeout
        } else {
            QueryStatus::TokenLost
        };
    }

    /// Latency in seconds, if the query completed.
    pub fn latency(&self) -> Option<f64> {
        self.completed_at
            .map(|t| (t - self.issued_at).as_secs_f64())
    }
}

/// Implemented by every KNN protocol in this reproduction so the workload
/// harness can drive them uniformly.
pub trait KnnProtocol: diknn_sim::Protocol {
    /// Outcomes of all queries issued so far (finished or not).
    fn outcomes(&self) -> &[QueryOutcome];

    /// Mutable access to the outcomes, for post-run classification.
    fn outcomes_mut(&mut self) -> &mut [QueryOutcome];

    /// Classify any still-`Pending` outcome after the run ended. Protocols
    /// that finalise eagerly (a timer fired at a live sink) have already
    /// stamped a status; this covers queries whose sink died or whose
    /// timeout never fired before the time limit.
    fn finish(&mut self, ctx: &Ctx<Self::Msg>) {
        for o in self.outcomes_mut() {
            o.settle(ctx.is_alive(o.sink));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_requires_completion() {
        let req = QueryRequest {
            at: 2.0,
            sink: NodeId(0),
            q: Point::ORIGIN,
            k: 5,
        };
        let mut o = QueryOutcome::pending(1, &req, SimTime::from_secs_f64(2.0), 8);
        assert_eq!(o.latency(), None);
        o.completed_at = Some(SimTime::from_secs_f64(2.5));
        assert!((o.latency().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn first_answer_wins_at_the_sink() {
        let req = QueryRequest {
            at: 1.0,
            sink: NodeId(0),
            q: Point::ORIGIN,
            k: 2,
        };
        let mut o = QueryOutcome::pending(0, &req, SimTime::from_secs_f64(1.0), 1);
        let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        assert!(o.complete(SimTime::from_secs_f64(1.5), ids(&[4, 5, 6])));
        assert!(!o.complete(SimTime::from_secs_f64(1.7), ids(&[7])));
        assert_eq!(o.answer, ids(&[4, 5]), "cut to k, later answers ignored");
        assert_eq!(o.completed_at, Some(SimTime::from_secs_f64(1.5)));
        assert_eq!(o.parts_returned, 1);
        o.settle(true);
        assert_eq!(o.status, QueryStatus::Completed);
    }
}
