//! Exact ground truth: who *really* were the k nearest neighbours at the
//! query's valid time T.
//!
//! The paper measures **pre-accuracy** (T = issue time; "snapshot results
//! are better") and **post-accuracy** (T = result arrival; "newer results
//! are better"), §3.1. Mobility plans are analytic, so both are exact.

use std::collections::BTreeMap;

use diknn_core::CandidateSet;
use diknn_geom::Point;
use diknn_sim::{EventTrace, NodeId, ProtoEvent, SharedMobility, TraceKind};

/// A run's itinerary as [`GroundTruth::itinerary_hops`] rebuilds it: per
/// `(qid, sector)`, the token's hops `(from, to, frontier)` in record order.
pub type ItineraryHops = BTreeMap<(u32, u8), Vec<(Point, Point, f64)>>;

/// Ground-truth oracle over the shared mobility plans of a run.
pub struct GroundTruth {
    plans: Vec<SharedMobility>,
    /// Only the first `data_nodes` plans are query-answerable sensor nodes
    /// (the rest are infrastructure such as Peer-tree clusterheads).
    data_nodes: usize,
}

impl GroundTruth {
    pub fn new(plans: Vec<SharedMobility>, data_nodes: usize) -> Self {
        assert!(data_nodes <= plans.len());
        GroundTruth { plans, data_nodes }
    }

    /// Exact positions of all data nodes at time `t`.
    pub fn positions_at(&self, t: f64) -> Vec<Point> {
        self.plans[..self.data_nodes]
            .iter()
            .map(|m| m.position_at(t))
            .collect()
    }

    /// The exact k nearest data nodes to `q` at time `t`, ascending by
    /// distance with ties broken by id (the ranking DIKNN's sink uses).
    pub fn knn_at(&self, q: Point, k: usize, t: f64) -> Vec<NodeId> {
        if k == 0 {
            return Vec::new();
        }
        let nodes = self.positions_at(t).into_iter().enumerate();
        CandidateSet::nearest(q, k, nodes.map(|(i, p)| (NodeId(i as u32), p))).ids()
    }

    /// Fraction of `answer` entries that are within the exact k nearest at
    /// time `t` — the paper's "percentage ratio the correct KNNs are
    /// returned". An empty answer scores 0.
    pub fn accuracy(&self, answer: &[NodeId], q: Point, k: usize, t: f64) -> f64 {
        if k == 0 {
            return 1.0;
        }
        let truth = self.knn_at(q, k, t);
        let hits = answer.iter().filter(|n| truth.contains(n)).count();
        hits as f64 / k as f64
    }

    /// The itinerary hops a DIKNN run's sector tokens took, rebuilt from
    /// the flight recorder's `TokenHandoff` records: per `(qid, sector)`,
    /// one `(from, to, frontier)` per handoff in record order. `from` is
    /// the handing Q-node's position and `to` the receiver's, both read
    /// from the plans at the record's time; `frontier` is the itinerary
    /// arc length the token had covered.
    ///
    /// Panics if the recorder is off or evicted events: the map would
    /// silently miss hops.
    pub fn itinerary_hops(&self, trace: &EventTrace) -> ItineraryHops {
        assert!(
            trace.is_enabled(),
            "the itinerary is rebuilt from the flight recorder: enable it"
        );
        assert_eq!(
            trace.dropped_events(),
            0,
            "the flight recorder evicted events: the itinerary would miss hops"
        );
        let mut hops = ItineraryHops::new();
        for e in trace.events() {
            if let TraceKind::Proto(ProtoEvent::TokenHandoff {
                qid,
                sector,
                to,
                frontier,
                ..
            }) = e.kind
            {
                let t = e.time.as_secs_f64();
                let from = self.plans[e.node.index()].position_at(t);
                let to = self.plans[to.index()].position_at(t);
                hops.entry((qid, sector))
                    .or_default()
                    .push((from, to, frontier));
            }
        }
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diknn_mobility::{StaticMobility, WaypointTrace};
    use std::sync::Arc;

    fn static_oracle(pts: &[(f64, f64)]) -> GroundTruth {
        let plans: Vec<SharedMobility> = pts
            .iter()
            .map(|&(x, y)| Arc::new(StaticMobility::new(Point::new(x, y))) as SharedMobility)
            .collect();
        let n = plans.len();
        GroundTruth::new(plans, n)
    }

    #[test]
    fn knn_matches_hand_computation() {
        let o = static_oracle(&[(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (2.0, 0.0)]);
        let knn = o.knn_at(Point::new(0.9, 0.0), 2, 0.0);
        assert_eq!(knn, vec![NodeId(1), NodeId(0)]);
    }

    #[test]
    fn equidistant_nodes_rank_by_id() {
        // Nodes 0 and 1 lie 10 m either side of the query point. The eight
        // far fillers make the set big enough that an STR-packed R-tree
        // puts the pair in one leaf in x order, node 1 first, and ranks
        // node 1 first on the tie; the oracle must rank by id.
        let mut pts = vec![(60.0, 50.0), (40.0, 50.0)];
        pts.extend((0..8).map(|i| (100.0 + f64::from(i), 0.0)));
        let o = static_oracle(&pts);
        let q = Point::new(50.0, 50.0);
        assert_eq!(o.knn_at(q, 1, 0.0), vec![NodeId(0)]);
        assert_eq!(o.knn_at(q, 2, 0.0), vec![NodeId(0), NodeId(1)]);
        assert!(o.knn_at(q, 0, 0.0).is_empty());
    }

    #[test]
    fn accuracy_counts_hits_over_k() {
        let o = static_oracle(&[(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (2.0, 0.0)]);
        let q = Point::new(0.0, 0.0);
        assert_eq!(o.accuracy(&[NodeId(0), NodeId(1)], q, 2, 0.0), 1.0);
        assert_eq!(o.accuracy(&[NodeId(0), NodeId(2)], q, 2, 0.0), 0.5);
        assert_eq!(o.accuracy(&[], q, 2, 0.0), 0.0);
    }

    #[test]
    fn infrastructure_nodes_excluded() {
        let plans: Vec<SharedMobility> = vec![
            Arc::new(StaticMobility::new(Point::new(0.0, 0.0))),
            Arc::new(StaticMobility::new(Point::new(1.0, 0.0))), // infra
        ];
        let o = GroundTruth::new(plans, 1);
        let knn = o.knn_at(Point::new(1.0, 0.0), 2, 0.0);
        assert_eq!(knn, vec![NodeId(0)]);
    }

    #[test]
    fn truth_changes_over_time_with_mobility() {
        // Node 1 starts far and drives past the query point.
        let mover =
            WaypointTrace::at_constant_speed(&[Point::new(100.0, 0.0), Point::new(0.0, 0.0)], 10.0);
        let plans: Vec<SharedMobility> = vec![
            Arc::new(StaticMobility::new(Point::new(5.0, 0.0))),
            Arc::new(mover),
        ];
        let o = GroundTruth::new(plans, 2);
        let q = Point::new(0.0, 0.0);
        assert_eq!(o.knn_at(q, 1, 0.0), vec![NodeId(0)]);
        assert_eq!(o.knn_at(q, 1, 10.0), vec![NodeId(1)]); // mover at origin
    }

    #[test]
    fn itinerary_hops_follow_the_handoff_records() {
        use diknn_sim::{SimTime, TraceConfig};
        // Node 2 drives from (100, 0) to the origin at 10 m/s.
        let mover =
            WaypointTrace::at_constant_speed(&[Point::new(100.0, 0.0), Point::new(0.0, 0.0)], 10.0);
        let plans: Vec<SharedMobility> = vec![
            Arc::new(StaticMobility::new(Point::new(0.0, 10.0))),
            Arc::new(StaticMobility::new(Point::new(0.0, 20.0))),
            Arc::new(mover),
        ];
        let o = GroundTruth::new(plans, 3);
        let mut trace = EventTrace::new(&TraceConfig::enabled());
        let handoff = |sector, to, frontier| {
            TraceKind::Proto(ProtoEvent::TokenHandoff {
                qid: 4,
                attempt: 0,
                sector,
                epoch: 0,
                to: NodeId(to),
                frontier,
            })
        };
        let at = SimTime::from_secs_f64;
        trace.record(at(1.0), NodeId(0), handoff(3, 2, 5.0));
        trace.record(at(2.0), NodeId(1), TraceKind::Crash);
        trace.record(at(3.0), NodeId(1), handoff(1, 0, 7.0));
        trace.record(at(5.0), NodeId(2), handoff(3, 1, 9.0));
        let hops = o.itinerary_hops(&trace);
        assert_eq!(
            hops.keys().copied().collect::<Vec<_>>(),
            vec![(4, 1), (4, 3)]
        );
        assert_eq!(
            hops[&(4, 1)],
            vec![(Point::new(0.0, 20.0), Point::new(0.0, 10.0), 7.0)]
        );
        // Sector 3 in record order; the mover is read where it was at
        // each record's time (90 m out at 1 s, 50 m out at 5 s).
        assert_eq!(
            hops[&(4, 3)],
            vec![
                (Point::new(0.0, 10.0), Point::new(90.0, 0.0), 5.0),
                (Point::new(50.0, 0.0), Point::new(0.0, 20.0), 9.0),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "evicted events")]
    fn itinerary_hops_refuse_a_trace_with_evictions() {
        use diknn_sim::{SimTime, TraceConfig};
        let o = static_oracle(&[(0.0, 0.0)]);
        let mut trace = EventTrace::new(&TraceConfig {
            enabled: true,
            capacity: 1,
        });
        trace.record(SimTime::ZERO, NodeId(0), TraceKind::Crash);
        trace.record(SimTime::ZERO, NodeId(0), TraceKind::Recover);
        o.itinerary_hops(&trace);
    }
}
