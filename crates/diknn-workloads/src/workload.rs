//! Query workload generation: the paper issues snapshot KNN queries with
//! exponentially distributed inter-arrival times (mean 4 s) from random
//! sinks at random query points.

use crate::scenario::ScenarioConfig;
use diknn_core::QueryRequest;
use diknn_sim::{ConfigError, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Query points keep this margin (metres) from the field edge, in every
/// workload: batch, sustained load and the resident service.
const QUERY_EDGE_MARGIN_M: f64 = 15.0;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Requested neighbour count `k`.
    pub k: usize,
    /// Mean of the exponential inter-arrival time, in seconds (4 s).
    pub mean_interval: f64,
    /// First query time in seconds (leaves room for beacon warm-up /
    /// Peer-tree index build).
    pub first_at: f64,
    /// No queries after this time (queries need time to complete inside
    /// the run).
    pub last_at: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            k: 40,
            mean_interval: 4.0,
            first_at: 2.0,
            last_at: 80.0,
        }
    }
}

/// Generate the request sequence for one run.
///
/// Sinks are uniform over the data nodes; query points uniform inside the
/// 15 m field margin; inter-arrival times `Exp(1/mean)`.
pub fn generate(scenario: &ScenarioConfig, cfg: &WorkloadConfig, seed: u64) -> Vec<QueryRequest> {
    assert!(cfg.k >= 1, "k must be positive");
    assert!(cfg.mean_interval > 0.0);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x517C_C1B7).wrapping_add(3));
    let mut out = Vec::new();
    let mut t = cfg.first_at;
    while t <= cfg.last_at.min(scenario.duration) {
        out.push(QueryRequest {
            at: t,
            sink: NodeId(rng.gen_range(0..scenario.nodes) as u32),
            q: scenario.random_query_point(&mut rng, QUERY_EDGE_MARGIN_M),
            k: cfg.k,
        });
        // Inverse-CDF exponential sample.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -cfg.mean_interval * u.ln();
    }
    out
}

/// A sustained concurrent query load: the deterministic Poisson-like
/// arrival process of the multi-query engine.
///
/// Same sampler as [`generate`] (so a `QueryLoad` run is bit-reproducible
/// per seed) but parameterised by arrival *rate* λ in queries/sec instead
/// of a mean interval ([`QueryLoad::workload`]). Rates well above
/// `1 / typical_query_latency` put many queries in flight at once, which
/// is the regime the per-query metrics, watchdogs and the cross-query
/// custody invariant exist for.
#[derive(Debug, Clone, Copy)]
pub struct QueryLoad {
    /// Mean arrival rate λ, in queries per second.
    pub rate_qps: f64,
    /// Requested neighbour count `k`.
    pub k: usize,
    /// First arrival time in seconds.
    pub first_at: f64,
    /// No arrivals after this time.
    pub last_at: f64,
}

impl Default for QueryLoad {
    fn default() -> Self {
        QueryLoad {
            rate_qps: 2.0,
            k: 10,
            first_at: 2.0,
            last_at: 80.0,
        }
    }
}

impl QueryLoad {
    /// Reject nonsensical load knobs with a typed error (shared
    /// [`ConfigError`] vocabulary): the arrival rate must be positive —
    /// zero, negative and NaN rates all describe a workload that cannot
    /// arrive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rate_qps <= 0.0 || self.rate_qps.is_nan() {
            return Err(ConfigError::NonPositiveQueryRate(self.rate_qps));
        }
        assert!(self.rate_qps.is_finite(), "arrival rate must be finite");
        assert!(self.k >= 1, "k must be positive");
        Ok(())
    }

    /// The equivalent [`WorkloadConfig`] (mean interval = 1/λ).
    pub fn workload(&self) -> WorkloadConfig {
        if let Err(e) = self.validate() {
            panic!("query load: {e}");
        }
        WorkloadConfig {
            k: self.k,
            mean_interval: 1.0 / self.rate_qps,
            first_at: self.first_at,
            last_at: self.last_at,
        }
    }
}

/// A piecewise-constant arrival-rate schedule for the resident service
/// mode: `(from_s, qps)` steps, each in force from its start time until the
/// next step (the last step holds forever). Lets soak scenarios model rate
/// ramps and overload steps without touching the arrival sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// `(from_s, qps)` steps, strictly increasing in `from_s`.
    steps: Vec<(f64, f64)>,
}

impl RateSchedule {
    /// A schedule holding one rate forever.
    pub fn constant(qps: f64) -> Self {
        Self::new(vec![(0.0, qps)])
    }

    /// A schedule from explicit `(from_s, qps)` steps. Steps must be
    /// strictly increasing in time, start at 0, and carry finite
    /// non-negative rates (0 = arrivals paused).
    pub fn new(steps: Vec<(f64, f64)>) -> Self {
        assert!(!steps.is_empty(), "rate schedule needs at least one step");
        assert_eq!(steps[0].0, 0.0, "rate schedule must start at t=0");
        for w in steps.windows(2) {
            assert!(w[0].0 < w[1].0, "rate steps must be strictly increasing");
        }
        for &(from, qps) in &steps {
            assert!(from.is_finite() && qps.is_finite(), "non-finite rate step");
            assert!(qps >= 0.0, "negative arrival rate");
        }
        RateSchedule { steps }
    }

    /// The rate in force at time `t` (seconds).
    pub fn rate_at(&self, t: f64) -> f64 {
        self.steps
            .iter()
            .rev()
            .find(|&&(from, _)| t >= from)
            .map(|&(_, qps)| qps)
            .unwrap_or(self.steps[0].1)
    }

    /// The steps, for diagnostics.
    pub fn steps(&self) -> &[(f64, f64)] {
        &self.steps
    }
}

/// Arrivals for one service-mode epoch `[start, end)`.
///
/// Derived statelessly from `(seed, epoch)`: the exponential clock restarts
/// at each epoch boundary with a fresh per-epoch RNG, so a run restored
/// from a snapshot taken at any epoch boundary regenerates the identical
/// arrival stream for every later epoch — the property the service mode's
/// restore-equivalence law rests on. The rate is sampled from `schedule`
/// at each arrival instant, so a step mid-epoch takes effect mid-epoch.
pub fn epoch_arrivals(
    scenario: &ScenarioConfig,
    schedule: &RateSchedule,
    k: usize,
    seed: u64,
    epoch: u64,
    start: f64,
    end: f64,
) -> Vec<QueryRequest> {
    assert!(k >= 1, "k must be positive");
    assert!(start < end, "empty epoch window");
    let mix = seed
        .wrapping_mul(0x517C_C1B7)
        .wrapping_add(3)
        .wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rng = SmallRng::seed_from_u64(mix);
    let mut out = Vec::new();
    let mut t = start;
    loop {
        let qps = schedule.rate_at(t);
        if qps <= 0.0 {
            // Paused: skip to the next step inside the window, if any.
            match schedule
                .steps
                .iter()
                .find(|&&(from, rate)| from > t && rate > 0.0)
            {
                Some(&(from, _)) if from < end => t = from,
                _ => break,
            }
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / qps;
        if t >= end {
            break;
        }
        out.push(QueryRequest {
            at: t,
            sink: NodeId(rng.gen_range(0..scenario.nodes) as u32),
            q: scenario.random_query_point(&mut rng, QUERY_EDGE_MARGIN_M),
            k,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requests_in_window() {
        let sc = ScenarioConfig::default();
        let wl = WorkloadConfig::default();
        let reqs = generate(&sc, &wl, 7);
        assert!(!reqs.is_empty());
        for r in &reqs {
            assert!(r.at >= wl.first_at && r.at <= wl.last_at);
            assert!(r.sink.index() < sc.nodes);
            assert_eq!(r.k, 40);
        }
        // Times strictly increasing.
        for w in reqs.windows(2) {
            assert!(w[0].at < w[1].at);
        }
    }

    #[test]
    fn mean_interval_roughly_respected() {
        let sc = ScenarioConfig {
            duration: 100_000.0,
            ..ScenarioConfig::default()
        };
        let wl = WorkloadConfig {
            last_at: 99_000.0,
            ..WorkloadConfig::default()
        };
        let reqs = generate(&sc, &wl, 11);
        let n = reqs.len() as f64;
        let span = reqs.last().unwrap().at - reqs[0].at;
        let mean = span / (n - 1.0);
        assert!(
            (mean - 4.0).abs() < 0.4,
            "empirical mean interval {mean} not ≈ 4"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let sc = ScenarioConfig::default();
        let wl = WorkloadConfig::default();
        assert_eq!(generate(&sc, &wl, 5), generate(&sc, &wl, 5));
        assert_ne!(generate(&sc, &wl, 5), generate(&sc, &wl, 6));
    }

    #[test]
    fn query_load_rejects_non_positive_rates() {
        for rate in [0.0, -2.5, f64::NAN] {
            let load = QueryLoad {
                rate_qps: rate,
                ..QueryLoad::default()
            };
            assert!(
                matches!(load.validate(), Err(ConfigError::NonPositiveQueryRate(_))),
                "rate {rate} must be rejected"
            );
        }
        assert_eq!(QueryLoad::default().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "query load")]
    fn query_load_workload_surfaces_typed_error() {
        QueryLoad {
            rate_qps: -1.0,
            ..QueryLoad::default()
        }
        .workload();
    }

    #[test]
    fn rate_schedule_steps_take_effect() {
        let rs = RateSchedule::new(vec![(0.0, 2.0), (10.0, 8.0), (20.0, 0.0)]);
        assert_eq!(rs.rate_at(0.0), 2.0);
        assert_eq!(rs.rate_at(9.99), 2.0);
        assert_eq!(rs.rate_at(10.0), 8.0);
        assert_eq!(rs.rate_at(25.0), 0.0);
        assert_eq!(RateSchedule::constant(3.0).rate_at(1e6), 3.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rate_schedule_rejects_unordered_steps() {
        RateSchedule::new(vec![(0.0, 1.0), (5.0, 2.0), (5.0, 3.0)]);
    }

    #[test]
    fn epoch_arrivals_are_stateless_per_epoch() {
        let sc = ScenarioConfig::default();
        let rs = RateSchedule::constant(4.0);
        let a = epoch_arrivals(&sc, &rs, 10, 7, 3, 15.0, 20.0);
        let b = epoch_arrivals(&sc, &rs, 10, 7, 3, 15.0, 20.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for r in &a {
            assert!(r.at >= 15.0 && r.at < 20.0);
            assert!(r.sink.index() < sc.nodes);
        }
        // A different epoch index draws a different stream even over the
        // same window (the per-epoch derivation, not the window, keys it).
        let c = epoch_arrivals(&sc, &rs, 10, 7, 4, 15.0, 20.0);
        assert_ne!(a, c);
    }

    #[test]
    fn epoch_arrivals_respect_rate_pause() {
        let sc = ScenarioConfig::default();
        let rs = RateSchedule::new(vec![(0.0, 0.0), (4.0, 50.0)]);
        let a = epoch_arrivals(&sc, &rs, 5, 1, 0, 0.0, 6.0);
        assert!(!a.is_empty());
        for r in &a {
            assert!(r.at >= 4.0, "arrival {} during the paused stretch", r.at);
        }
        // Fully paused window: no arrivals at all.
        let quiet = RateSchedule::new(vec![(0.0, 0.0)]);
        assert!(epoch_arrivals(&sc, &quiet, 5, 1, 0, 0.0, 6.0).is_empty());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Arrivals of a sustained load, generated through its
            /// equivalent workload, are strictly monotone in time for any
            /// rate and seed.
            #[test]
            fn query_load_arrivals_are_strictly_monotone(
                rate in 0.05..30.0f64,
                seed in 0u64..10_000,
            ) {
                let sc = ScenarioConfig::default();
                let load = QueryLoad {
                    rate_qps: rate,
                    ..QueryLoad::default()
                };
                let arrivals = generate(&sc, &load.workload(), seed);
                for w in arrivals.windows(2) {
                    prop_assert!(
                        w[0].at < w[1].at,
                        "arrivals must be strictly monotone: {} then {}",
                        w[0].at,
                        w[1].at
                    );
                }
            }
        }
    }
}
