//! Serving-layer experiment helpers: DIKNN under sustained load with
//! sink-side admission control, spatial query merging and short-TTL result
//! caching (DESIGN.md §12).
//!
//! The MAC-contention collapse is the motivating failure: at 10 q/s over
//! 500 nodes the unprotected engine drops to ~0.06 post-accuracy because
//! every query launches a full itinerary into an already saturated channel.
//! The serving layer sheds and coalesces that load *at the sink*, before
//! any radio traffic exists. This module packages the experiment plumbing
//! shared by the `admission` bench binary and the overload tests:
//! [`admission_experiment`] builds a [`QueryLoad`]-driven DIKNN experiment
//! with a given [`ServingConfig`], and [`ServingSummary`] folds run metrics
//! into the serving ledger (admitted / rejected / merged / cache-hit).

use diknn_core::{DiknnConfig, QueryStatus, ServingConfig};

use crate::metrics::{count_statuses, RunMetrics};
use crate::runner::{Experiment, ProtocolKind};
use crate::scenario::ScenarioConfig;
use crate::workload::QueryLoad;

/// Build a DIKNN experiment driving `load` arrivals over a `nodes`-node
/// scenario with the given serving layer. Invariant checking (including the
/// admission-soundness law) stays on — every serving run is also a
/// correctness check.
pub fn admission_experiment(
    nodes: usize,
    duration: f64,
    max_speed: f64,
    load: &QueryLoad,
    serving: ServingConfig,
) -> Experiment {
    Experiment::new(
        ProtocolKind::Diknn(DiknnConfig {
            serving,
            ..DiknnConfig::default()
        }),
        ScenarioConfig {
            nodes,
            duration,
            max_speed,
            ..ScenarioConfig::default()
        },
        load.workload(),
    )
}

/// How a batch of runs' queries were served, folded from
/// [`RunMetrics::status_counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServingSummary {
    /// Total queries issued.
    pub queries: usize,
    /// Queries per terminal status, summed over the runs and indexed by
    /// `QueryStatus as usize`. Every other count here is read from it; the
    /// named columns below stay for callers that read them by name.
    pub status_counts: [usize; QueryStatus::ALL.len()],
    /// Queries that ran their own itinerary to completion.
    pub completed: usize,
    /// Degraded executions, run but not answered: partial-timeout +
    /// token-lost + sink-unreachable.
    pub degraded: usize,
    /// Terminally rejected by admission control (never executed).
    pub rejected: usize,
    /// Answered by riding another query's itinerary.
    pub merged: usize,
    /// Answered from the sink result cache.
    pub cache_hits: usize,
}

/// A degraded status: the query was executed but got no answer. Narrower
/// than [`RunMetrics::degraded_rate`], which also counts rejected and
/// pending queries.
fn is_degraded(status: QueryStatus) -> bool {
    !status.is_answered() && !matches!(status, QueryStatus::Pending | QueryStatus::Rejected)
}

impl ServingSummary {
    pub fn from_runs(runs: &[RunMetrics]) -> Self {
        Self::from_counts(
            runs.iter().map(|m| m.queries).sum(),
            QueryStatus::ALL.map(|s| runs.iter().map(|m| m.status_counts[s as usize]).sum()),
        )
    }

    fn from_counts(queries: usize, status_counts: [usize; QueryStatus::ALL.len()]) -> Self {
        let n = |status: QueryStatus| status_counts[status as usize];
        ServingSummary {
            queries,
            status_counts,
            completed: n(QueryStatus::Completed),
            degraded: count_statuses(&status_counts, is_degraded),
            rejected: n(QueryStatus::Rejected),
            merged: n(QueryStatus::Merged),
            cache_hits: n(QueryStatus::CacheHit),
        }
    }

    /// Queries that got a KNN answer (see [`QueryStatus::is_answered`]).
    pub fn answered(&self) -> usize {
        count_statuses(&self.status_counts, QueryStatus::is_answered)
    }

    /// Fraction of all queries that got an answer.
    pub fn answered_rate(&self) -> f64 {
        self.answered() as f64 / self.queries.max(1) as f64
    }

    /// Every query reached a terminal classification.
    pub fn all_terminal(&self) -> bool {
        self.status_counts[QueryStatus::Pending as usize] == 0
            && self.queries == self.status_counts.iter().sum::<usize>()
    }

    /// The serving ledger in report order as `(key, count)` rows: each
    /// status under its label with `-` → `_`, except that the degraded
    /// statuses share one `degraded` row, placed where the first of them
    /// stands.
    pub fn ledger(&self) -> Vec<(String, usize)> {
        let mut rows: Vec<(String, usize)> = Vec::new();
        for s in QueryStatus::ALL {
            let key = if is_degraded(s) {
                "degraded".to_string()
            } else {
                s.label().replace('-', "_")
            };
            match rows.iter_mut().find(|(k, _)| *k == key) {
                Some(row) => row.1 += self.status_counts[s as usize],
                None => rows.push((key, self.status_counts[s as usize])),
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_folds_status_counts() {
        let mut a = crate::metrics::RunMetrics::compute(
            &[],
            &diknn_sim::SimStats::default(),
            0.0,
            &diknn_sim::FlowLedger::default(),
            &crate::GroundTruth::new(Vec::new(), 0),
        );
        a.queries = 10;
        a.status_counts = [4, 1, 0, 0, 0, 2, 2, 1];
        let s = ServingSummary::from_runs(&[a.clone(), a]);
        assert_eq!(s.queries, 20);
        assert_eq!(s.status_counts, [8, 2, 0, 0, 0, 4, 4, 2]);
        assert_eq!(s.completed, 8);
        assert_eq!(s.degraded, 2);
        assert_eq!(s.rejected, 4);
        assert_eq!(s.merged, 4);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.answered(), 14);
        assert!((s.answered_rate() - 0.7).abs() < 1e-12);
        assert!(s.all_terminal());
    }

    #[test]
    fn ledger_folds_the_degraded_statuses_into_one_row() {
        let s = ServingSummary::from_counts(36, [1, 2, 3, 4, 5, 6, 7, 8]);
        let ledger = s.ledger();
        let rows: Vec<(&str, usize)> = ledger.iter().map(|(k, n)| (k.as_str(), *n)).collect();
        assert_eq!(
            rows,
            [
                ("completed", 1),
                ("degraded", 9),
                ("pending", 5),
                ("rejected", 6),
                ("merged", 7),
                ("cache_hit", 8),
            ]
        );
        assert_eq!(s.degraded, 9);
    }

    #[test]
    fn unclassified_queries_fail_all_terminal() {
        let s = ServingSummary::from_counts(5, [4, 0, 0, 0, 1, 0, 0, 0]);
        assert!(!s.all_terminal());
        // A count that doesn't add up is also non-terminal (lost query).
        let s = ServingSummary::from_counts(5, [4, 0, 0, 0, 0, 0, 0, 0]);
        assert!(!s.all_terminal());
    }

    /// End-to-end: an overloaded small scenario with the full serving layer
    /// classifies every query, exercises at least one degradation path, and
    /// passes the admission-soundness law (checked inside `run_once`).
    #[test]
    fn overloaded_run_serves_and_classifies_every_query() {
        let load = QueryLoad {
            rate_qps: 20.0,
            k: 8,
            first_at: 2.0,
            last_at: 10.0,
        };
        let serving = ServingConfig {
            max_in_flight: 2,
            merge_radius_m: 60.0,
            cache_radius_m: 40.0,
            cache_ttl_s: 4.0,
            ..ServingConfig::enabled()
        };
        let exp = admission_experiment(120, 25.0, 0.0, &load, serving);
        let m = exp.run_once(5);
        let s = ServingSummary::from_runs(&[m]);
        assert!(s.queries >= 20, "{s:?}");
        assert!(s.all_terminal(), "{s:?}");
        assert!(
            s.rejected + s.merged + s.cache_hits > 0,
            "an overloaded run must exercise the serving layer: {s:?}"
        );
        assert!(s.answered() > 0, "{s:?}");
    }
}
