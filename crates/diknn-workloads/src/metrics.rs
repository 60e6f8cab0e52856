//! Per-run and aggregated metrics matching the paper's evaluation
//! quantities (§5.1): query latency, energy consumption, pre-/post-
//! accuracy — plus completion rate and traffic diagnostics.

use diknn_core::{QueryOutcome, QueryStatus};
use diknn_sim::{FlowLedger, SimStats};

use crate::oracle::GroundTruth;

/// Per-query attribution of one run: the row-level truth behind the
/// run-level means (which silently aggregate under concurrent load).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    pub qid: u32,
    pub status: QueryStatus,
    /// Latency in seconds; NaN if the query never completed.
    pub latency_s: f64,
    /// Protocol energy attributed to this query's frames via the engine's
    /// flow ledger, in joules; 0 for untagged protocols.
    pub energy_j: f64,
    /// Ground-truth accuracy at issue time (0 if unanswered).
    pub pre_accuracy: f64,
    /// Ground-truth accuracy at result time (0 if unanswered).
    pub post_accuracy: f64,
}

/// Metrics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Queries issued.
    pub queries: usize,
    /// Queries that produced an answer at the sink.
    pub completed: usize,
    /// Mean latency over completed queries, in seconds.
    pub latency_s: f64,
    /// Total protocol (non-beacon) radio energy, in joules.
    pub energy_j: f64,
    /// Mean pre-accuracy (ground truth at issue time) over all queries;
    /// unanswered queries score 0.
    pub pre_accuracy: f64,
    /// Mean post-accuracy (ground truth at result time) over all queries.
    pub post_accuracy: f64,
    /// Mean estimated boundary radius (0 for index-based protocols).
    pub boundary_radius_m: f64,
    /// Mean nodes explored per query.
    pub explored: f64,
    /// Protocol frames transmitted.
    pub tx_frames: u64,
    /// Receptions destroyed by collisions.
    pub collisions: u64,
    /// Queries per termination status, indexed by `status as usize` (the
    /// order of [`QueryStatus::ALL`]). `Pending` should be 0 after
    /// [`diknn_core::KnnProtocol::finish`]; a nonzero count flags a bug.
    /// `Rejected`, `Merged` and `CacheHit` are serving-layer outcomes and
    /// stay 0 with serving disabled.
    pub status_counts: [usize; QueryStatus::ALL.len()],
    /// Itinerary tokens re-issued by the token-loss watchdog.
    pub tokens_reissued: u64,
    /// Whole-query retries launched by sinks after silent timeouts.
    pub query_retries: u64,
    /// Nodes lost during the run (crashes plus energy deaths, minus
    /// recoveries).
    pub nodes_failed: u64,
    /// Median latency over completed queries, in seconds (NaN if none).
    pub latency_p50_s: f64,
    /// 95th-percentile latency over completed queries (NaN if none).
    pub latency_p95_s: f64,
    /// Peak number of queries simultaneously in flight: issued but not yet
    /// completed (never-completed queries count from issue to end of run).
    pub max_in_flight: usize,
    /// Per-query attribution rows, ascending by qid.
    pub per_query: Vec<QueryRecord>,
}

/// Interpolated percentile of pre-sorted ascending values (p in [0, 1]).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Peak overlap of per-query in-flight intervals `[issued_at, completed_at)`
/// (never-completed queries stay in flight to the end of the run). Event
/// sweep with departures processed before same-instant arrivals.
fn max_in_flight(outcomes: &[QueryOutcome]) -> usize {
    let mut events: Vec<(u64, i32)> = Vec::with_capacity(outcomes.len() * 2);
    for o in outcomes {
        events.push((o.issued_at.as_nanos(), 1));
        if let Some(done) = o.completed_at {
            events.push((done.as_nanos(), -1));
        }
    }
    // (-1) sorts before (+1) at equal times: a query completing exactly as
    // another is issued does not count as overlap.
    events.sort_unstable();
    let mut cur = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        cur += delta as i64;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

impl RunMetrics {
    /// Compute run metrics from protocol outcomes + engine stats + the
    /// per-flow energy ledger + oracle. `flow_energy_j` attributes joules
    /// to query ids (empty for protocols that do not tag their traffic).
    pub fn compute(
        outcomes: &[QueryOutcome],
        stats: &SimStats,
        energy_j: f64,
        flow_energy_j: &FlowLedger,
        oracle: &GroundTruth,
    ) -> Self {
        let queries = outcomes.len();
        let mut completed = 0usize;
        let mut latency_sum = 0.0;
        let mut pre_sum = 0.0;
        let mut post_sum = 0.0;
        let mut radius_sum = 0.0;
        let mut explored_sum = 0.0;
        let mut status_counts = [0usize; QueryStatus::ALL.len()];
        let mut latencies: Vec<f64> = Vec::with_capacity(queries);
        let mut per_query: Vec<QueryRecord> = Vec::with_capacity(queries);
        for o in outcomes {
            radius_sum += o.boundary_radius;
            explored_sum += o.explored_nodes as f64;
            status_counts[o.status as usize] += 1;
            let mut lat = f64::NAN;
            let mut pre = 0.0;
            let mut post = 0.0;
            if let Some(done) = o.completed_at {
                completed += 1;
                lat = (done - o.issued_at).as_secs_f64();
                pre = oracle.accuracy(&o.answer, o.q, o.k, o.issued_at.as_secs_f64());
                post = oracle.accuracy(&o.answer, o.q, o.k, done.as_secs_f64());
                latency_sum += lat;
                pre_sum += pre;
                post_sum += post;
                latencies.push(lat);
            }
            per_query.push(QueryRecord {
                qid: o.qid,
                status: o.status,
                latency_s: lat,
                energy_j: flow_energy_j.get(o.qid),
                pre_accuracy: pre,
                post_accuracy: post,
            });
        }
        latencies.sort_unstable_by(f64::total_cmp);
        let qn = queries.max(1) as f64;
        RunMetrics {
            queries,
            completed,
            latency_s: if completed > 0 {
                latency_sum / completed as f64
            } else {
                f64::NAN
            },
            energy_j,
            pre_accuracy: pre_sum / qn,
            post_accuracy: post_sum / qn,
            boundary_radius_m: radius_sum / qn,
            explored: explored_sum / qn,
            tx_frames: stats.tx_protocol_frames,
            collisions: stats.collisions,
            status_counts,
            tokens_reissued: stats.tokens_reissued,
            query_retries: stats.query_retries,
            nodes_failed: (stats.nodes_crashed + stats.energy_deaths)
                .saturating_sub(stats.nodes_recovered),
            latency_p50_s: percentile(&latencies, 0.5),
            latency_p95_s: percentile(&latencies, 0.95),
            max_in_flight: max_in_flight(outcomes),
            per_query,
        }
    }

    /// Fraction of queries that ended without an answer (see
    /// [`QueryStatus::is_answered`]). Merged and cache-hit queries are
    /// answered (via a host itinerary or a fresh cached result), so they
    /// do not count as degraded.
    pub fn degraded_rate(&self) -> f64 {
        let degraded = count_statuses(&self.status_counts, |s| !s.is_answered());
        degraded as f64 / self.queries.max(1) as f64
    }
}

/// The queries in `counts` (indexed by `QueryStatus as usize`) whose status
/// satisfies `pick`.
pub(crate) fn count_statuses(
    counts: &[usize; QueryStatus::ALL.len()],
    pick: impl Fn(QueryStatus) -> bool,
) -> usize {
    QueryStatus::ALL
        .into_iter()
        .filter(|&s| pick(s))
        .map(|s| counts[s as usize])
        .sum()
}

/// Mean and sample standard deviation of a metric over runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub mean: f64,
    pub std: f64,
}

fn stat(values: impl Iterator<Item = f64>) -> Stat {
    let vals: Vec<f64> = values.filter(|v| v.is_finite()).collect();
    if vals.is_empty() {
        return Stat {
            mean: f64::NAN,
            std: f64::NAN,
        };
    }
    let n = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / n;
    let var = if vals.len() > 1 {
        vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    Stat {
        mean,
        std: var.sqrt(),
    }
}

/// Aggregated metrics over several seeded runs (the paper averages 20).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    pub runs: usize,
    pub latency_s: Stat,
    pub energy_j: Stat,
    pub pre_accuracy: Stat,
    pub post_accuracy: Stat,
    pub completion_rate: Stat,
    pub boundary_radius_m: Stat,
    pub explored: Stat,
    /// Fraction of queries per run that ended without an answer (see
    /// [`QueryStatus::is_answered`]).
    pub degraded_rate: Stat,
    /// Watchdog token re-issues per run.
    pub tokens_reissued: Stat,
    /// Sink-side whole-query retries per run.
    pub query_retries: Stat,
    /// Nodes lost per run (crashes + energy deaths − recoveries).
    pub nodes_failed: Stat,
    /// Median query latency per run.
    pub latency_p50_s: Stat,
    /// 95th-percentile query latency per run.
    pub latency_p95_s: Stat,
    /// Peak concurrent in-flight queries per run.
    pub max_in_flight: Stat,
    /// Mean flow-attributed energy per query per run, in joules.
    pub per_query_energy_j: Stat,
}

impl Aggregate {
    pub fn from_runs(runs: &[RunMetrics]) -> Self {
        Aggregate {
            runs: runs.len(),
            latency_s: stat(runs.iter().map(|r| r.latency_s)),
            energy_j: stat(runs.iter().map(|r| r.energy_j)),
            pre_accuracy: stat(runs.iter().map(|r| r.pre_accuracy)),
            post_accuracy: stat(runs.iter().map(|r| r.post_accuracy)),
            completion_rate: stat(
                runs.iter()
                    .map(|r| r.completed as f64 / r.queries.max(1) as f64),
            ),
            boundary_radius_m: stat(runs.iter().map(|r| r.boundary_radius_m)),
            explored: stat(runs.iter().map(|r| r.explored)),
            degraded_rate: stat(runs.iter().map(|r| r.degraded_rate())),
            tokens_reissued: stat(runs.iter().map(|r| r.tokens_reissued as f64)),
            query_retries: stat(runs.iter().map(|r| r.query_retries as f64)),
            nodes_failed: stat(runs.iter().map(|r| r.nodes_failed as f64)),
            latency_p50_s: stat(runs.iter().map(|r| r.latency_p50_s)),
            latency_p95_s: stat(runs.iter().map(|r| r.latency_p95_s)),
            max_in_flight: stat(runs.iter().map(|r| r.max_in_flight as f64)),
            per_query_energy_j: stat(runs.iter().map(|r| {
                r.per_query.iter().map(|q| q.energy_j).sum::<f64>() / r.queries.max(1) as f64
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm(latency: f64, energy: f64) -> RunMetrics {
        RunMetrics {
            queries: 10,
            completed: 9,
            latency_s: latency,
            energy_j: energy,
            pre_accuracy: 0.9,
            post_accuracy: 0.95,
            boundary_radius_m: 25.0,
            explored: 42.0,
            tx_frames: 100,
            collisions: 5,
            status_counts: [9, 1, 0, 0, 0, 0, 0, 0],
            tokens_reissued: 0,
            query_retries: 0,
            nodes_failed: 0,
            latency_p50_s: latency,
            latency_p95_s: latency,
            max_in_flight: 1,
            per_query: Vec::new(),
        }
    }

    #[test]
    fn degraded_rate_counts_non_completed() {
        let mut m = rm(1.0, 0.4);
        m.status_counts = [6, 2, 1, 1, 0, 0, 0, 0];
        assert!((m.degraded_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn degraded_rate_counts_rejected_but_not_merged_or_cached() {
        let mut m = rm(1.0, 0.4);
        // 5 completed, 2 rejected, 2 merged, 1 cache-hit: only the
        // rejections are degraded — merged/cached queries were answered.
        m.status_counts = [5, 0, 0, 0, 0, 2, 2, 1];
        assert!((m.degraded_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn aggregate_means_and_std() {
        let agg = Aggregate::from_runs(&[rm(1.0, 0.4), rm(2.0, 0.6)]);
        assert_eq!(agg.runs, 2);
        assert!((agg.latency_s.mean - 1.5).abs() < 1e-12);
        assert!((agg.energy_j.mean - 0.5).abs() < 1e-12);
        // Sample std of {1, 2} = 0.7071…
        assert!((agg.latency_s.std - 0.707).abs() < 1e-3);
        assert!((agg.completion_rate.mean - 0.9).abs() < 1e-12);
        assert!((agg.degraded_rate.mean - 0.1).abs() < 1e-12);
        assert_eq!(agg.tokens_reissued.mean, 0.0);
    }

    #[test]
    fn nan_latencies_are_skipped() {
        let mut bad = rm(f64::NAN, 0.4);
        bad.completed = 0;
        let agg = Aggregate::from_runs(&[bad, rm(2.0, 0.6)]);
        assert!((agg.latency_s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_run_std_is_zero() {
        let agg = Aggregate::from_runs(&[rm(1.0, 0.4)]);
        assert_eq!(agg.latency_s.std, 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&vals, 0.5) - 2.5).abs() < 1e-12);
        assert!((percentile(&vals, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&vals, 1.0) - 4.0).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
        assert!((percentile(&[7.0], 0.95) - 7.0).abs() < 1e-12);
    }

    fn outcome(qid: u32, issued: f64, done: Option<f64>) -> diknn_core::QueryOutcome {
        diknn_core::QueryOutcome {
            qid,
            sink: diknn_sim::NodeId(0),
            q: diknn_geom::Point::ORIGIN,
            k: 5,
            issued_at: diknn_sim::SimTime::from_secs_f64(issued),
            completed_at: done.map(diknn_sim::SimTime::from_secs_f64),
            answer: vec![],
            boundary_radius: 10.0,
            final_radius: 10.0,
            routing_hops: 1,
            parts_expected: 1,
            parts_returned: 1,
            explored_nodes: 3,
            status: QueryStatus::Completed,
        }
    }

    #[test]
    fn max_in_flight_counts_overlap() {
        // q0 [1, 4), q1 [2, 3), q2 [3.5, 5): peak overlap is 2 (q0+q1).
        let outs = vec![
            outcome(0, 1.0, Some(4.0)),
            outcome(1, 2.0, Some(3.0)),
            outcome(2, 3.5, Some(5.0)),
        ];
        assert_eq!(max_in_flight(&outs), 2);
        // Back-to-back at the same instant does not overlap.
        let outs = vec![outcome(0, 1.0, Some(2.0)), outcome(1, 2.0, Some(3.0))];
        assert_eq!(max_in_flight(&outs), 1);
        // A never-completed query stays in flight.
        let outs = vec![outcome(0, 1.0, None), outcome(1, 2.0, Some(3.0))];
        assert_eq!(max_in_flight(&outs), 2);
        assert_eq!(max_in_flight(&[]), 0);
    }

    #[test]
    fn per_query_energy_aggregates_mean() {
        let mut a = rm(1.0, 0.4);
        a.queries = 2;
        a.per_query = vec![
            QueryRecord {
                qid: 0,
                status: QueryStatus::Completed,
                latency_s: 1.0,
                energy_j: 0.3,
                pre_accuracy: 1.0,
                post_accuracy: 1.0,
            },
            QueryRecord {
                qid: 1,
                status: QueryStatus::Completed,
                latency_s: 1.0,
                energy_j: 0.1,
                pre_accuracy: 1.0,
                post_accuracy: 1.0,
            },
        ];
        let agg = Aggregate::from_runs(&[a]);
        assert!((agg.per_query_energy_j.mean - 0.2).abs() < 1e-12);
    }
}
