//! Reference-Point Group Mobility (RPGM).
//!
//! The paper's Figure 7 field is a population of caribou herds: animals
//! move *together*, each wandering around a drifting herd reference point.
//! RPGM models exactly that: a group leader performs random waypoint and
//! every member follows its own reference point (a fixed offset from the
//! leader) with bounded local deviation.
//!
//! Combined with [`crate::placement::clustered`] this gives mobile herds
//! whose spatial irregularity *persists over time* — a stricter stress for
//! density-based boundary estimation than independent RWP, where clusters
//! diffuse away.

use crate::rwp::{RandomWaypoint, RwpConfig};
use crate::Mobility;
use diknn_geom::{Point, Rect, Vec2};
use rand::Rng;
use std::sync::Arc;

/// A herd: one shared leader trajectory plus per-member offsets.
pub struct Group {
    leader: Arc<RandomWaypoint>,
    field: Rect,
}

impl Group {
    /// Leader (herd) speed `µmax` in m/s: grazing speed.
    pub const LEADER_SPEED: f64 = 2.0;
    /// Radius of the herd: member reference offsets are within this, in
    /// metres.
    pub const SPREAD: f64 = 16.0;
    /// Amplitude of each member's local wander around its reference point,
    /// in metres.
    const WANDER: f64 = 3.0;
    /// Period of the local wander in seconds.
    const WANDER_PERIOD: f64 = 20.0;

    /// Create a herd whose leader starts at `center` and roams `field`,
    /// with plans generated up to `horizon` seconds.
    pub fn new(center: Point, field: Rect, horizon: f64, rng: &mut impl Rng) -> Self {
        let spread = Self::SPREAD;
        let leader_cfg = RwpConfig {
            // The leader roams a shrunken field so the whole herd stays
            // inside the real one.
            field: Rect::new(
                field.min_x + spread,
                field.min_y + spread,
                (field.max_x - spread).max(field.min_x + spread + 1.0),
                (field.max_y - spread).max(field.min_y + spread + 1.0),
            ),
            ..RwpConfig::new(field, Self::LEADER_SPEED, horizon)
        };
        Group {
            leader: Arc::new(RandomWaypoint::new(center, &leader_cfg, rng)),
            field,
        }
    }

    /// Spawn one member with a random reference offset and wander phase.
    pub fn member(&self, rng: &mut impl Rng) -> GroupMember {
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        let rho = Self::SPREAD * rng.gen_range(0.0f64..1.0).sqrt();
        GroupMember {
            leader: Arc::clone(&self.leader),
            offset: Vec2::from_angle(theta) * rho,
            phase: rng.gen_range(0.0..std::f64::consts::TAU),
            phase2: rng.gen_range(0.0..std::f64::consts::TAU),
            field: self.field,
        }
    }

    /// The leader's position (the herd reference point) at time `t`.
    pub fn leader_position_at(&self, t: f64) -> Point {
        self.leader.position_at(t)
    }
}

/// One herd member: leader position + fixed offset + smooth local wander.
pub struct GroupMember {
    leader: Arc<RandomWaypoint>,
    offset: Vec2,
    phase: f64,
    phase2: f64,
    field: Rect,
}

impl GroupMember {
    fn wander_at(&self, t: f64) -> Vec2 {
        // Smooth quasi-random wander: two incommensurate sinusoids.
        let w = std::f64::consts::TAU / Group::WANDER_PERIOD;
        Vec2::new(
            Group::WANDER * (w * t + self.phase).sin(),
            Group::WANDER * (w * t * 0.731 + self.phase2).cos(),
        )
    }
}

impl Mobility for GroupMember {
    fn position_at(&self, t: f64) -> Point {
        self.field
            .clamp(self.leader.position_at(t) + self.offset + self.wander_at(t))
    }

    fn speed_at(&self, t: f64) -> f64 {
        // Finite-difference magnitude over a short interval; exact enough
        // for the assurance-gain statistics.
        let dt = 0.1;
        self.position_at(t).dist(self.position_at(t + dt)) / dt
    }

    fn max_speed(&self) -> f64 {
        self.leader.max_speed() + Group::WANDER * std::f64::consts::TAU / Group::WANDER_PERIOD * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const FIELD: Rect = Rect {
        min_x: 0.0,
        min_y: 0.0,
        max_x: 200.0,
        max_y: 200.0,
    };

    fn herd(seed: u64) -> (Group, Vec<GroupMember>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let group = Group::new(Point::new(100.0, 100.0), FIELD, 200.0, &mut rng);
        let members = (0..12).map(|_| group.member(&mut rng)).collect();
        (group, members)
    }

    #[test]
    fn members_stay_near_the_leader() {
        let (group, members) = herd(1);
        for i in 0..40 {
            let t = i as f64 * 3.7;
            let leader = group.leader_position_at(t);
            for m in &members {
                let d = m.position_at(t).dist(leader);
                assert!(
                    d <= Group::SPREAD + Group::WANDER * 2.0 + 1e-6,
                    "member strayed {d} m from the herd at t={t}"
                );
            }
        }
    }

    #[test]
    fn members_stay_inside_the_field() {
        let (_, members) = herd(2);
        for i in 0..100 {
            let t = i as f64 * 1.3;
            for m in &members {
                assert!(FIELD.contains(m.position_at(t)));
            }
        }
    }

    #[test]
    fn herd_moves_as_a_whole() {
        let (group, members) = herd(3);
        // Over a long window the leader moves far; members' displacement
        // must track it (cohesion), while members differ from each other.
        let t0 = 0.0;
        let t1 = 120.0;
        let leader_shift = group
            .leader_position_at(t0)
            .dist(group.leader_position_at(t1));
        assert!(leader_shift > 10.0, "leader barely moved: {leader_shift}");
        for m in &members {
            let shift = m.position_at(t0).dist(m.position_at(t1));
            assert!(
                (shift - leader_shift).abs() < Group::SPREAD * 2.0 + 12.0,
                "member shift {shift} inconsistent with herd {leader_shift}"
            );
        }
        // Two members are not identical trajectories.
        let a = members[0].position_at(50.0);
        let b = members[1].position_at(50.0);
        assert!(a.dist(b) > 0.1);
    }

    #[test]
    fn wander_is_smooth_and_bounded() {
        let (_, members) = herd(4);
        let m = &members[0];
        let max = m.max_speed();
        let mut t = 0.0;
        while t < 60.0 {
            let d = m.position_at(t).dist(m.position_at(t + 0.05));
            assert!(
                d <= max * 0.05 + 1e-6,
                "speed {:.2} > bound {max:.2}",
                d / 0.05
            );
            t += 0.05;
        }
    }

    #[test]
    fn speed_at_is_consistent_with_motion() {
        let (_, members) = herd(5);
        let m = &members[0];
        let v = m.speed_at(10.0);
        assert!(v >= 0.0 && v <= m.max_speed() + 1e-6);
    }
}
