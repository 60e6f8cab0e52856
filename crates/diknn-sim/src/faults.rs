//! Fault injection: a seeded, deterministic plan of things going wrong.
//!
//! The paper's whole argument (§3–§5) is that a single itinerary token
//! survives a hostile environment. The uniform `loss_rate` of
//! [`crate::SimConfig`] cannot express the failures real deployments see:
//! node crashes and battery deaths, *bursty* correlated link loss (802.11
//! fading is not i.i.d.), and spatially correlated interference. A
//! [`FaultPlan`] describes those failure processes declaratively; the
//! engine executes them.
//!
//! Determinism: everything random about a plan (which nodes crash under
//! [`RandomCrashes`], when; Gilbert–Elliott state transitions; jam-zone
//! coin flips) is drawn either from a generator derived from the run seed
//! or from the run's single event-ordered RNG. Same seed + same plan ⇒
//! bit-identical runs — this is covered by the determinism regression
//! tests in `diknn-workloads`.

use crate::config::ConfigError;
use crate::time::SimDuration;
use diknn_geom::{Point, Rect};

/// A scheduled fail-stop crash of one specific node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashSpec {
    /// Index of the node to crash (must be `< node_count`).
    pub node: u32,
    /// Crash time.
    pub at: SimDuration,
    /// If set, the node reboots this long after the crash and resumes
    /// beaconing/receiving. Its in-memory protocol state is modelled as
    /// flash-backed (not wiped); neighbour tables of *other* nodes will
    /// have aged it out and re-learn it from its next beacon.
    pub recover_after: Option<SimDuration>,
}

/// Random fail-stop crashes: a fraction of the population crashes at
/// uniform times inside a window. Node choice and times are drawn from a
/// generator derived from the run seed, so the same `(seed, plan)` always
/// kills the same nodes at the same times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomCrashes {
    /// Fraction of all nodes to crash, in `[0, 1]`.
    pub fraction: f64,
    /// Crash times are uniform in `[from, until]`.
    pub from: SimDuration,
    pub until: SimDuration,
    /// Optional reboot delay (as in [`CrashSpec::recover_after`]).
    pub recover_after: Option<SimDuration>,
}

/// Parameters of the two-state Gilbert–Elliott bursty loss model.
///
/// Each receiver carries a Good/Bad Markov chain stepped once per received
/// frame copy (the classic packet-level formulation): from Good the chain
/// moves to Bad with probability `p_gb`, from Bad back to Good with
/// `p_bg`; a reception is then lost with `good_loss` or `bad_loss`
/// depending on the state. Mean burst length is `1/p_bg` frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(Good → Bad) per received frame.
    pub p_gb: f64,
    /// P(Bad → Good) per received frame.
    pub p_bg: f64,
    /// Loss probability while in the Good state (residual fading).
    pub good_loss: f64,
    /// Loss probability while in the Bad state (deep fade / interference).
    pub bad_loss: f64,
}

impl GilbertElliott {
    /// A plausible default: rare entry into bursts (2%), mean burst of
    /// five frames, near-clean good state, 80% loss inside a burst.
    pub fn typical() -> Self {
        GilbertElliott {
            p_gb: 0.02,
            p_bg: 0.2,
            good_loss: 0.01,
            bad_loss: 0.8,
        }
    }

    /// Scale burst severity: `severity` in `[0, 1]` interpolates from
    /// no loss at all to an aggressive bursty channel (10% burst entry,
    /// mean burst of ten frames, 95% in-burst loss).
    pub fn with_severity(severity: f64) -> Self {
        let s = severity.clamp(0.0, 1.0);
        GilbertElliott {
            p_gb: 0.1 * s,
            p_bg: (1.0 - 0.9 * s).max(0.1),
            good_loss: 0.02 * s,
            bad_loss: 0.95 * s,
        }
    }

    /// Stationary probability of being in the Bad state.
    pub fn stationary_bad(&self) -> f64 {
        if self.p_gb + self.p_bg <= 0.0 {
            return 0.0;
        }
        self.p_gb / (self.p_gb + self.p_bg)
    }

    /// Long-run average loss rate implied by the chain.
    pub fn mean_loss(&self) -> f64 {
        let b = self.stationary_bad();
        b * self.bad_loss + (1.0 - b) * self.good_loss
    }

    fn validate(&self) -> Result<(), ConfigError> {
        for (name, p) in [
            ("p_gb", self.p_gb),
            ("p_bg", self.p_bg),
            ("good_loss", self.good_loss),
            ("bad_loss", self.bad_loss),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::Fault(format!(
                    "Gilbert–Elliott {name} must be in [0, 1], got {p}"
                )));
            }
        }
        Ok(())
    }
}

/// Link-loss process applied to otherwise-successful receptions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LinkLossModel {
    /// The pre-existing uniform i.i.d. loss: every reception is dropped
    /// with `SimConfig::loss_rate`, independently.
    #[default]
    Uniform,
    /// Bursty two-state loss; **replaces** the uniform `loss_rate` (the
    /// chain's `good_loss`/`bad_loss` are the whole loss process).
    GilbertElliott(GilbertElliott),
}

/// Spatial region of a jamming zone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultRegion {
    Rect(Rect),
    Circle { center: Point, radius: f64 },
}

impl FaultRegion {
    pub fn contains(&self, p: Point) -> bool {
        match *self {
            FaultRegion::Rect(r) => r.contains(p),
            FaultRegion::Circle { center, radius } => center.dist_sq(p) <= radius * radius,
        }
    }
}

/// A jamming zone: receivers inside `region` during `[from, until]` lose
/// receptions with probability `loss` (on top of collisions, before the
/// link-loss model). Models a localised interferer or a jammed channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JamZone {
    pub region: FaultRegion,
    pub from: SimDuration,
    pub until: SimDuration,
    /// Reception loss probability inside the zone, in `[0, 1]`.
    pub loss: f64,
}

/// Continuous node churn: a fraction of the population cycles between
/// being up and being away on exponentially distributed dwell times.
///
/// Churn generalises the fail-stop crash model of [`RandomCrashes`] into a
/// renewal process suited to *resident* (open-ended) runs: a churning node
/// leaves, stays away for a while, rejoins, and repeats until the window
/// closes. Departures are clipped to `[from, until]`; a rejoin scheduled
/// past `until` still happens, so the network always heals after the churn
/// window. Node choice and all dwell times are drawn from a generator
/// derived from the run seed — same `(seed, plan)` ⇒ same churn schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    /// Fraction of all nodes that participate in churn, in `[0, 1]`.
    pub fraction: f64,
    /// Mean up-time between departures, seconds (exponential).
    pub mean_up_s: f64,
    /// Mean away-time before rejoining, seconds (exponential).
    pub mean_down_s: f64,
    /// Departures occur only inside `[from, until]`.
    pub from: SimDuration,
    pub until: SimDuration,
    /// When true, a rejoining node comes back amnesiac: its neighbour
    /// table is wiped and must be re-learned from beacons (the "rejoin
    /// with state loss" model). When false, rejoin behaves like the
    /// flash-backed reboot of [`CrashSpec::recover_after`].
    pub state_loss: bool,
}

impl ChurnPlan {
    fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.fraction) {
            return Err(ConfigError::Fault(format!(
                "churn fraction must be in [0, 1], got {}",
                self.fraction
            )));
        }
        for (name, v) in [
            ("mean_up_s", self.mean_up_s),
            ("mean_down_s", self.mean_down_s),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(ConfigError::Fault(format!(
                    "churn {name} must be positive and finite, got {v}"
                )));
            }
        }
        if self.until < self.from {
            return Err(ConfigError::Fault(
                "churn window ends before it starts".into(),
            ));
        }
        Ok(())
    }
}

/// The full fault-injection plan of a run. The default plan is inert:
/// no crashes, uniform link loss, no jamming, unlimited energy, no churn.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled fail-stop crashes of specific nodes.
    pub crashes: Vec<CrashSpec>,
    /// Seed-derived random crashes of a population fraction.
    pub random_crashes: Option<RandomCrashes>,
    /// Link-loss process (uniform `loss_rate` vs Gilbert–Elliott).
    pub link_loss: LinkLossModel,
    /// Spatio-temporal jamming zones.
    pub jam_zones: Vec<JamZone>,
    /// If set, a node dies permanently once its total radio energy
    /// (beacons included) crosses this many joules.
    pub energy_budget_j: Option<f64>,
    /// Continuous leave/rejoin churn for resident runs.
    pub churn: Option<ChurnPlan>,
}

impl FaultPlan {
    /// True when the plan injects nothing (the engine fast-paths this).
    pub fn is_inert(&self) -> bool {
        self.crashes.is_empty()
            && self.random_crashes.is_none()
            && self.link_loss == LinkLossModel::Uniform
            && self.jam_zones.is_empty()
            && self.energy_budget_j.is_none()
            && self.churn.is_none()
    }

    /// A plan that only crashes a random `fraction` of nodes inside
    /// `[from, until]` seconds (no recovery).
    pub fn random_crashes(fraction: f64, from: f64, until: f64) -> Self {
        FaultPlan {
            random_crashes: Some(RandomCrashes {
                fraction,
                from: SimDuration::from_secs_f64(from),
                until: SimDuration::from_secs_f64(until),
                recover_after: None,
            }),
            ..FaultPlan::default()
        }
    }

    /// A plan with only leave/rejoin churn: `fraction` of nodes cycle on
    /// the given mean up/down dwell times (seconds) inside `[from, until]`
    /// seconds, rejoining amnesiac (state loss on).
    pub fn churning(
        fraction: f64,
        mean_up_s: f64,
        mean_down_s: f64,
        from: f64,
        until: f64,
    ) -> Self {
        FaultPlan {
            churn: Some(ChurnPlan {
                fraction,
                mean_up_s,
                mean_down_s,
                from: SimDuration::from_secs_f64(from),
                until: SimDuration::from_secs_f64(until),
                state_loss: true,
            }),
            ..FaultPlan::default()
        }
    }

    /// A plan with only Gilbert–Elliott bursty loss of the given severity.
    pub fn bursty(severity: f64) -> Self {
        FaultPlan {
            link_loss: LinkLossModel::GilbertElliott(GilbertElliott::with_severity(severity)),
            ..FaultPlan::default()
        }
    }

    /// Validate plan parameters (fractions and probabilities in range,
    /// windows ordered, budget positive).
    pub fn validate(&self) -> Result<(), ConfigError> {
        for c in &self.crashes {
            if let Some(r) = c.recover_after {
                if r == SimDuration::ZERO {
                    return Err(ConfigError::Fault(format!(
                        "node {} has a zero recovery delay",
                        c.node
                    )));
                }
            }
        }
        if let Some(rc) = &self.random_crashes {
            if !(0.0..=1.0).contains(&rc.fraction) {
                return Err(ConfigError::Fault(format!(
                    "random crash fraction must be in [0, 1], got {}",
                    rc.fraction
                )));
            }
            if rc.until < rc.from {
                return Err(ConfigError::Fault(
                    "random crash window ends before it starts".into(),
                ));
            }
        }
        if let LinkLossModel::GilbertElliott(ge) = &self.link_loss {
            ge.validate()?;
        }
        for (i, z) in self.jam_zones.iter().enumerate() {
            if !(0.0..=1.0).contains(&z.loss) {
                return Err(ConfigError::Fault(format!(
                    "jam zone {i} loss must be in [0, 1], got {}",
                    z.loss
                )));
            }
            if z.until < z.from {
                return Err(ConfigError::Fault(format!(
                    "jam zone {i} window ends before it starts"
                )));
            }
            if let FaultRegion::Circle { radius, .. } = z.region {
                if radius <= 0.0 {
                    return Err(ConfigError::Fault(format!(
                        "jam zone {i} has a non-positive radius"
                    )));
                }
            }
        }
        if let Some(b) = self.energy_budget_j {
            if b <= 0.0 || b.is_nan() {
                return Err(ConfigError::Fault(format!(
                    "energy budget must be positive, got {b}"
                )));
            }
        }
        if let Some(ch) = &self.churn {
            ch.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_inert());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builders_are_not_inert() {
        assert!(!FaultPlan::random_crashes(0.2, 0.0, 10.0).is_inert());
        assert!(!FaultPlan::bursty(0.5).is_inert());
        assert!(!FaultPlan::churning(0.2, 20.0, 5.0, 0.0, 100.0).is_inert());
        assert!(FaultPlan::random_crashes(0.2, 0.0, 10.0).validate().is_ok());
        assert!(FaultPlan::bursty(0.5).validate().is_ok());
        assert!(FaultPlan::churning(0.2, 20.0, 5.0, 0.0, 100.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn churn_validation_rejects_bad_parameters() {
        assert!(FaultPlan::churning(1.5, 20.0, 5.0, 0.0, 100.0)
            .validate()
            .is_err());
        assert!(FaultPlan::churning(0.2, 0.0, 5.0, 0.0, 100.0)
            .validate()
            .is_err());
        assert!(FaultPlan::churning(0.2, 20.0, -1.0, 0.0, 100.0)
            .validate()
            .is_err());
        assert!(FaultPlan::churning(0.2, 20.0, 5.0, 50.0, 10.0)
            .validate()
            .is_err());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let p = FaultPlan::random_crashes(1.5, 0.0, 10.0);
        assert!(p.validate().is_err());
        let p = FaultPlan {
            jam_zones: vec![JamZone {
                region: FaultRegion::Circle {
                    center: Point::ORIGIN,
                    radius: -1.0,
                },
                from: SimDuration::ZERO,
                until: SimDuration::from_secs_f64(5.0),
                loss: 0.9,
            }],
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPlan {
            energy_budget_j: Some(0.0),
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err());
        let mut ge = GilbertElliott::typical();
        ge.bad_loss = 1.2;
        let p = FaultPlan {
            link_loss: LinkLossModel::GilbertElliott(ge),
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn gilbert_elliott_stationary_math() {
        let ge = GilbertElliott {
            p_gb: 0.1,
            p_bg: 0.3,
            good_loss: 0.0,
            bad_loss: 1.0,
        };
        assert!((ge.stationary_bad() - 0.25).abs() < 1e-12);
        assert!((ge.mean_loss() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn severity_scales_mean_loss_monotonically() {
        let lo = GilbertElliott::with_severity(0.2).mean_loss();
        let hi = GilbertElliott::with_severity(0.9).mean_loss();
        assert!(hi > lo, "severity must increase mean loss: {lo} vs {hi}");
        assert!(GilbertElliott::with_severity(0.0).mean_loss() < 1e-9);
    }

    #[test]
    fn regions_contain_points() {
        let r = FaultRegion::Rect(Rect::new(0.0, 0.0, 10.0, 10.0));
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(!r.contains(Point::new(15.0, 5.0)));
        let c = FaultRegion::Circle {
            center: Point::new(0.0, 0.0),
            radius: 2.0,
        };
        assert!(c.contains(Point::new(1.0, 1.0)));
        assert!(!c.contains(Point::new(2.0, 2.0)));
    }
}
