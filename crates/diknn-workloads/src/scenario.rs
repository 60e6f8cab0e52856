//! Scenario construction: networks matching the paper's settings table.

use std::sync::Arc;

use diknn_geom::{Point, Rect};
use diknn_mobility::{placement, Group, RandomWaypoint, RwpConfig, StaticMobility};
use diknn_sim::{SharedMobility, SimConfig, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Initial node placement, and with it how the nodes move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementKind {
    /// Uniform random (the paper's main experiments, §5.1); nodes move by
    /// random waypoint at up to `max_speed`.
    Uniform,
    /// Clustered "caribou-herd" placement standing in for the real-world
    /// distribution of Figure 7 (see DESIGN.md substitutions), with
    /// [`placement::clustered`]'s constants; nodes move as under `Uniform`.
    Clustered,
    /// Cohesive mobile herds (Reference-Point Group Mobility) plus an
    /// independent background; `max_speed` is not used.
    Herds(HerdSetup),
}

/// Herd (group mobility) setup: nodes move as cohesive groups following
/// wandering leaders — the Figure 7 caribou behaviour. Each herd moves
/// with [`Group`]'s constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HerdSetup {
    /// Number of herds; nodes are split evenly among them (after the
    /// background share).
    pub herds: usize,
    /// Fraction of nodes roaming independently (RWP) as background.
    pub background_fraction: f64,
}

/// Network scenario parameters; defaults reproduce the settings table.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of *data* (sensor) nodes — 200 in the paper.
    pub nodes: usize,
    /// Field rectangle — 115×115 m² gives node degree ≈ 20.
    pub field: Rect,
    /// Maximum RWP speed `µmax` in m/s (0 ⇒ static network).
    pub max_speed: f64,
    /// Initial placement, and with it the motion model.
    pub placement: PlacementKind,
    /// Simulated duration in seconds (100 s per run in the paper).
    pub duration: f64,
    /// Extra stationary infrastructure positions appended after the data
    /// nodes (Peer-tree clusterheads); empty for the other protocols.
    pub infrastructure: Vec<Point>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            nodes: 200,
            field: Rect::new(0.0, 0.0, 115.0, 115.0),
            max_speed: 10.0,
            placement: PlacementKind::Uniform,
            duration: 100.0,
            infrastructure: Vec::new(),
        }
    }
}

impl ScenarioConfig {
    /// A variant whose field is sized for the given average node degree
    /// (the paper varies 200×200 → 115×115 m² for degrees 5 → 20).
    ///
    /// degree ≈ n·π·r² / A  ⇒  side = sqrt(n·π·r² / degree), where `r` is
    /// the radio range, [`diknn_sim::config::RADIO_RANGE`].
    pub fn with_node_degree(mut self, degree: f64, radio_range: f64) -> Self {
        assert!(degree > 0.0);
        let side =
            (self.nodes as f64 * std::f64::consts::PI * radio_range * radio_range / degree).sqrt();
        self.field = Rect::new(0.0, 0.0, side, side);
        self
    }

    /// Build the mobility plans for one run. The returned `Arc`s can be
    /// cloned to share the *same* plans with the ground-truth oracle.
    pub fn build(&self, seed: u64) -> Vec<SharedMobility> {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let starts = match self.placement {
            PlacementKind::Uniform => placement::uniform(self.field, self.nodes, &mut rng),
            PlacementKind::Clustered => placement::clustered(self.field, self.nodes, &mut rng),
            PlacementKind::Herds(setup) => return self.build_herds(setup, &mut rng),
        };
        // Plans must outlive post-completion accuracy checks.
        let horizon = self.duration + 30.0;
        let mut plans: Vec<SharedMobility> = starts
            .into_iter()
            .map(|p| {
                if self.max_speed > 0.0 {
                    Arc::new(RandomWaypoint::new(
                        p,
                        &RwpConfig::new(self.field, self.max_speed, horizon),
                        &mut rng,
                    )) as SharedMobility
                } else {
                    Arc::new(StaticMobility::new(p)) as SharedMobility
                }
            })
            .collect();
        for &p in &self.infrastructure {
            plans.push(Arc::new(StaticMobility::new(p)) as SharedMobility);
        }
        plans
    }

    /// Build herd-structured mobility (Reference-Point Group Mobility).
    fn build_herds(&self, setup: HerdSetup, rng: &mut SmallRng) -> Vec<SharedMobility> {
        assert!(setup.herds > 0, "need at least one herd");
        assert!((0.0..=1.0).contains(&setup.background_fraction));
        let horizon = self.duration + 30.0;
        let centers = placement::uniform(self.field, setup.herds, rng);
        let groups: Vec<Group> = centers
            .into_iter()
            .map(|c| Group::new(c, self.field, horizon, rng))
            .collect();
        let n_background = (self.nodes as f64 * setup.background_fraction).round() as usize;
        let n_members = self.nodes.saturating_sub(n_background);
        let mut plans: Vec<SharedMobility> = Vec::with_capacity(self.nodes);
        for i in 0..n_members {
            plans.push(Arc::new(groups[i % groups.len()].member(rng)) as SharedMobility);
        }
        let bg_speed = Group::LEADER_SPEED.max(1.0);
        for p in placement::uniform(self.field, n_background, rng) {
            plans.push(Arc::new(RandomWaypoint::new(
                p,
                &RwpConfig::new(self.field, bg_speed, horizon),
                rng,
            )) as SharedMobility);
        }
        for &p in &self.infrastructure {
            plans.push(Arc::new(StaticMobility::new(p)) as SharedMobility);
        }
        plans
    }

    /// The simulator configuration for this scenario.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            field: self.field,
            time_limit: SimDuration::from_secs_f64(self.duration),
            ..SimConfig::default()
        }
    }

    /// A uniform random point well inside the field (margin of one radio
    /// range), for query point generation.
    pub fn random_query_point(&self, rng: &mut impl Rng, margin: f64) -> Point {
        let m = margin.min(self.field.width() / 4.0);
        Point::new(
            rng.gen_range(self.field.min_x + m..=self.field.max_x - m),
            rng.gen_range(self.field.min_y + m..=self.field.max_y - m),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let s = ScenarioConfig::default();
        assert_eq!(s.nodes, 200);
        assert_eq!(s.field, Rect::new(0.0, 0.0, 115.0, 115.0));
        assert_eq!(s.max_speed, 10.0);
        assert_eq!(s.duration, 100.0);
    }

    #[test]
    fn build_is_deterministic_and_sized() {
        let s = ScenarioConfig::default();
        let a = s.build(42);
        let b = s.build(42);
        assert_eq!(a.len(), 200);
        for t in [0.0, 17.3, 99.0] {
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.position_at(t), y.position_at(t));
            }
        }
    }

    #[test]
    fn static_scenario_has_static_nodes() {
        let s = ScenarioConfig {
            max_speed: 0.0,
            ..ScenarioConfig::default()
        };
        let plans = s.build(1);
        assert_eq!(plans[0].position_at(0.0), plans[0].position_at(50.0));
    }

    #[test]
    fn infrastructure_appended_after_data_nodes() {
        let s = ScenarioConfig {
            nodes: 10,
            infrastructure: vec![Point::new(1.0, 2.0)],
            ..ScenarioConfig::default()
        };
        let plans = s.build(1);
        assert_eq!(plans.len(), 11);
        assert_eq!(plans[10].position_at(55.0), Point::new(1.0, 2.0));
    }

    #[test]
    fn node_degree_sizing() {
        let r = diknn_sim::config::RADIO_RANGE;
        let s = ScenarioConfig::default().with_node_degree(20.0, r);
        // 200·π·400/20 = 12566 m² -> side ≈ 112 m (the paper rounds to 115).
        assert!((s.field.width() - 112.1).abs() < 1.0, "{}", s.field.width());
        let sparse = ScenarioConfig::default().with_node_degree(5.0, r);
        assert!(sparse.field.width() > 1.9 * s.field.width());
    }

    #[test]
    fn herd_scenario_builds_cohesive_groups() {
        let s = ScenarioConfig {
            nodes: 60,
            placement: PlacementKind::Herds(HerdSetup {
                herds: 3,
                background_fraction: 0.1,
            }),
            duration: 50.0,
            ..ScenarioConfig::default()
        };
        let plans = s.build(5);
        assert_eq!(plans.len(), 60);
        // Determinism.
        let again = s.build(5);
        for t in [0.0, 21.0] {
            for (a, b) in plans.iter().zip(&again) {
                assert_eq!(a.position_at(t), b.position_at(t));
            }
        }
        // Members of the same herd stay close to each other over time.
        let d0 = plans[0].position_at(40.0).dist(plans[3].position_at(40.0));
        assert!(d0 < 2.5 * Group::SPREAD + 10.0, "herd dispersed: {d0}");
    }

    #[test]
    fn query_points_respect_margin() {
        let s = ScenarioConfig::default();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let p = s.random_query_point(&mut rng, 10.0);
            assert!(p.x >= 10.0 && p.x <= 105.0);
            assert!(p.y >= 10.0 && p.y <= 105.0);
        }
    }
}
