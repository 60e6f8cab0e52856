//! Continuous KNN monitoring on top of snapshot DIKNN.
//!
//! The paper focuses on *snapshot* queries and notes that the continuous
//! in-network techniques [5, 6, 11, 23] "are good for constant monitoring
//! of queries of long-standing interest but do not suit well for on-demand
//! queries" (§2). The complementary direction — standing KNN interest
//! served by an infrastructure-free protocol — falls out naturally:
//! re-issue the snapshot query every `period` seconds and report the
//! *delta* of the answer set.
//!
//! [`ContinuousKnn`] is the monitors' round plan: it expands each monitor
//! into its snapshot rounds, in issue order, for a plain [`crate::Diknn`]
//! run (`Diknn::new(cfg, plan.requests().to_vec())`), and afterwards
//! derives per-round membership changes (joined/left) from that run's
//! outcomes. This stays true to the paper's architecture (no
//! infrastructure persists between rounds) while quantifying what a
//! standing query costs under mobility.

use diknn_geom::Point;
use diknn_sim::{NodeId, SimTime};

use crate::outcome::{QueryOutcome, QueryRequest};

/// A standing KNN interest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorRequest {
    /// First evaluation time, in seconds.
    pub start_at: f64,
    /// Re-evaluation period, in seconds.
    pub period: f64,
    /// Number of rounds to run.
    pub rounds: usize,
    pub sink: NodeId,
    pub q: Point,
    pub k: usize,
}

/// Membership change between consecutive rounds of one monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDelta {
    /// Monitor (request) index.
    pub monitor: usize,
    /// Round number within the monitor (0-based).
    pub round: usize,
    /// When the round's answer arrived at the sink.
    pub completed_at: Option<SimTime>,
    /// Nodes newly in the answer set.
    pub joined: Vec<NodeId>,
    /// Nodes that dropped out of the answer set.
    pub left: Vec<NodeId>,
    /// Full answer of the round.
    pub answer: Vec<NodeId>,
}

/// The round plan of a set of monitors (periodic snapshot DIKNN).
pub struct ContinuousKnn {
    monitors: Vec<MonitorRequest>,
    /// Every round's query, in issue (time) order.
    requests: Vec<QueryRequest>,
    /// `(monitor, round)` of each request.
    schedule: Vec<(usize, usize)>,
}

impl ContinuousKnn {
    pub fn new(monitors: Vec<MonitorRequest>) -> Self {
        let mut paired: Vec<(QueryRequest, (usize, usize))> = Vec::new();
        for (mi, m) in monitors.iter().enumerate() {
            assert!(m.period > 0.0, "monitor period must be positive");
            assert!(m.rounds > 0, "monitor needs at least one round");
            for round in 0..m.rounds {
                let req = QueryRequest {
                    at: m.start_at + round as f64 * m.period,
                    sink: m.sink,
                    q: m.q,
                    k: m.k,
                };
                paired.push((req, (mi, round)));
            }
        }
        // DIKNN assigns qids in *issue* (time) order, so sort the rounds by
        // time: request `i` then becomes query `i`. The stable sort keeps
        // same-time rounds in declaration order, matching the engine's
        // timer tie-breaking.
        paired.sort_by(|a, b| a.0.at.total_cmp(&b.0.at));
        let (requests, schedule) = paired.into_iter().unzip();
        ContinuousKnn {
            monitors,
            requests,
            schedule,
        }
    }

    /// Every round's query, in issue order: the request list of the
    /// [`crate::Diknn`] run that serves the monitors.
    pub fn requests(&self) -> &[QueryRequest] {
        &self.requests
    }

    /// Per-round membership deltas from that run's `outcomes`, ordered by
    /// monitor and round. Rounds not yet issued are left out; a round
    /// without an answer is diffed against nothing in the next one.
    pub fn deltas(&self, outcomes: &[QueryOutcome]) -> Vec<RoundDelta> {
        let mut prev: Vec<Option<&[NodeId]>> = vec![None; self.monitors.len()];
        let mut deltas = Vec::new();
        for (o, &(mi, round)) in outcomes.iter().zip(&self.schedule) {
            let answer: &[NodeId] = &o.answer;
            let (joined, left) = match prev[mi] {
                None => (answer.to_vec(), Vec::new()),
                Some(p) => (
                    answer.iter().filter(|n| !p.contains(n)).copied().collect(),
                    p.iter().filter(|n| !answer.contains(n)).copied().collect(),
                ),
            };
            deltas.push(RoundDelta {
                monitor: mi,
                round,
                completed_at: o.completed_at,
                joined,
                left,
                answer: answer.to_vec(),
            });
            if o.completed_at.is_some() {
                prev[mi] = Some(answer);
            }
        }
        deltas.sort_by_key(|d| (d.monitor, d.round));
        deltas
    }

    /// Mean churn (|joined| + |left|) / k per completed round transition
    /// in `deltas`, a measure of how fast the true KNN set rotates under
    /// mobility.
    pub fn mean_churn(&self, deltas: &[RoundDelta]) -> f64 {
        let churn: Vec<f64> = deltas
            .iter()
            .filter(|d| d.round > 0 && d.completed_at.is_some())
            .map(|d| {
                let k = self.monitors[d.monitor].k.max(1);
                (d.joined.len() + d.left.len()) as f64 / k as f64
            })
            .collect();
        if churn.is_empty() {
            0.0
        } else {
            churn.iter().sum::<f64>() / churn.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_expands_rounds() {
        let m = MonitorRequest {
            start_at: 1.0,
            period: 5.0,
            rounds: 3,
            sink: NodeId(0),
            q: Point::new(50.0, 50.0),
            k: 5,
        };
        let c = ContinuousKnn::new(vec![m]);
        assert_eq!(c.schedule.len(), 3);
        assert_eq!(c.schedule[2], (0, 2));
        let at: Vec<f64> = c.requests().iter().map(|r| r.at).collect();
        assert_eq!(at, [1.0, 6.0, 11.0]);
    }

    #[test]
    fn interleaved_monitors_map_to_time_ordered_qids() {
        // Monitor 0 fires at 1, 11; monitor 1 at 2, 4, 6: issue (time)
        // order is m0r0, m1r0, m1r1, m1r2, m0r1.
        let monitors = vec![
            MonitorRequest {
                start_at: 1.0,
                period: 10.0,
                rounds: 2,
                sink: NodeId(0),
                q: Point::ORIGIN,
                k: 3,
            },
            MonitorRequest {
                start_at: 2.0,
                period: 2.0,
                rounds: 3,
                sink: NodeId(1),
                q: Point::new(10.0, 0.0),
                k: 3,
            },
        ];
        let c = ContinuousKnn::new(monitors);
        assert_eq!(c.schedule, vec![(0, 0), (1, 0), (1, 1), (1, 2), (0, 1)]);
        let at: Vec<f64> = c.requests().iter().map(|r| r.at).collect();
        assert_eq!(at, [1.0, 2.0, 4.0, 6.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn rejects_zero_period() {
        let m = MonitorRequest {
            start_at: 1.0,
            period: 0.0,
            rounds: 2,
            sink: NodeId(0),
            q: Point::ORIGIN,
            k: 5,
        };
        ContinuousKnn::new(vec![m]);
    }
}
