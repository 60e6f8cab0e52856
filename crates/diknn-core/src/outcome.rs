//! Query outcomes: what a KNN protocol reports per query, consumed by the
//! workload harness to compute latency, energy and accuracy. Shared by the
//! baselines crate so every protocol is measured identically.

use diknn_geom::Point;
use diknn_sim::{NodeId, SimTime};

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
    fn finish(&mut self, ctx: &diknn_sim::Ctx<Self::Msg>) {
        for o in self.outcomes_mut() {
            if o.status != QueryStatus::Pending {
                continue;
            }
            o.status = if o.completed_at.is_some() {
                if o.parts_returned >= o.parts_expected {
                    QueryStatus::Completed
                } else {
                    QueryStatus::PartialTimeout
                }
            } else if !ctx.is_alive(o.sink) {
                QueryStatus::SinkUnreachable
            } else if o.parts_returned > 0 {
                QueryStatus::PartialTimeout
            } else {
                QueryStatus::TokenLost
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_requires_completion() {
        let mut o = QueryOutcome {
            qid: 1,
            sink: NodeId(0),
            q: Point::ORIGIN,
            k: 5,
            issued_at: SimTime::from_secs_f64(2.0),
            completed_at: None,
            answer: vec![],
            boundary_radius: 10.0,
            final_radius: 10.0,
            routing_hops: 3,
            parts_expected: 8,
            parts_returned: 0,
            explored_nodes: 0,
            status: QueryStatus::Pending,
        };
        assert_eq!(o.latency(), None);
        o.completed_at = Some(SimTime::from_secs_f64(2.5));
        assert!((o.latency().unwrap() - 0.5).abs() < 1e-9);
    }
}
