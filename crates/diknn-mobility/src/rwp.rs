use crate::Mobility;
use diknn_geom::{Point, Rect};
use rand::Rng;

/// Configuration of the random waypoint model (paper §5.1). As in the
/// paper's setup, a node sets off for its next waypoint the moment it
/// reaches one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RwpConfig {
    /// Field the node roams in; destinations are uniform over this rectangle.
    pub field: Rect,
    /// Maximum speed `µmax` in m/s. Leg speeds are uniform between a small
    /// floor and `µmax`: the paper says "0 to µmax", but a literal
    /// zero-speed leg never terminates (the classic RWP speed-decay
    /// pathology), so the floor is `0.1·µmax` clamped to
    /// `[0.001, 0.5]` m/s.
    pub max_speed: f64,
    /// Plan horizon in seconds: legs are generated until at least this time.
    /// Beyond the horizon the node freezes at its last position.
    pub horizon: f64,
}

impl RwpConfig {
    /// Roam the given field at up to `max_speed`, planned for `horizon`
    /// seconds.
    pub fn new(field: Rect, max_speed: f64, horizon: f64) -> Self {
        RwpConfig {
            field,
            max_speed,
            horizon,
        }
    }
}

/// One straight-line leg of a random-waypoint trajectory.
#[derive(Debug, Clone, Copy)]
struct Leg {
    /// Departure time from `from`.
    start: f64,
    /// Arrival time at `to`; `end >= start`.
    end: f64,
    from: Point,
    to: Point,
    speed: f64,
}

/// The random waypoint model: pick a uniform destination, walk at a uniform
/// random speed, repeat. The entire trajectory is generated eagerly
/// at construction from the provided RNG, so lookups are pure and the plan
/// can be shared with the ground-truth oracle.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    legs: Vec<Leg>,
    max_speed: f64,
}

impl RandomWaypoint {
    /// Build a trajectory starting at `start`, using `rng` for destinations
    /// and speeds.
    pub fn new(start: Point, cfg: &RwpConfig, rng: &mut impl Rng) -> Self {
        assert!(cfg.max_speed > 0.0, "RWP needs a positive max speed");
        let speed_floor = (0.1 * cfg.max_speed).clamp(1e-3, 0.5);
        assert!(
            speed_floor <= cfg.max_speed,
            "RWP max speed must be at least the leg-speed floor (0.001 m/s)"
        );
        assert!(!cfg.field.is_empty(), "RWP field must be non-empty");
        let mut legs = Vec::new();
        let mut t = 0.0;
        let mut pos = cfg.field.clamp(start);
        let mut max_seen = 0.0f64;
        while t < cfg.horizon {
            let dest = Point::new(
                rng.gen_range(cfg.field.min_x..=cfg.field.max_x),
                rng.gen_range(cfg.field.min_y..=cfg.field.max_y),
            );
            let speed = rng.gen_range(speed_floor..=cfg.max_speed);
            let dist = pos.dist(dest);
            let travel = dist / speed;
            legs.push(Leg {
                start: t,
                end: t + travel,
                from: pos,
                to: dest,
                speed,
            });
            max_seen = max_seen.max(speed);
            t += travel;
            pos = dest;
        }
        RandomWaypoint {
            legs,
            max_speed: max_seen,
        }
    }

    fn leg_at(&self, t: f64) -> Option<&Leg> {
        // Legs are sorted by start time; binary search the last leg with
        // start <= t.
        let idx = self.legs.partition_point(|l| l.start <= t);
        if idx == 0 {
            None
        } else {
            Some(&self.legs[idx - 1])
        }
    }
}

impl Mobility for RandomWaypoint {
    fn position_at(&self, t: f64) -> Point {
        match self.leg_at(t) {
            None => self.legs.first().map(|l| l.from).unwrap_or(Point::ORIGIN),
            Some(leg) => {
                if t >= leg.end {
                    // Past the horizon (or on a zero-length leg).
                    leg.to
                } else {
                    let frac = if leg.end > leg.start {
                        (t - leg.start) / (leg.end - leg.start)
                    } else {
                        1.0
                    };
                    leg.from.lerp(leg.to, frac)
                }
            }
        }
    }

    fn speed_at(&self, t: f64) -> f64 {
        match self.leg_at(t) {
            Some(leg) if t < leg.end => leg.speed,
            _ => 0.0,
        }
    }

    fn max_speed(&self) -> f64 {
        self.max_speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mobility;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn field() -> Rect {
        Rect::new(0.0, 0.0, 115.0, 115.0)
    }

    fn plan(seed: u64, max_speed: f64) -> RandomWaypoint {
        let mut rng = SmallRng::seed_from_u64(seed);
        RandomWaypoint::new(
            Point::new(50.0, 50.0),
            &RwpConfig::new(field(), max_speed, 200.0),
            &mut rng,
        )
    }

    #[test]
    fn starts_at_start_position() {
        let m = plan(42, 10.0);
        assert_eq!(m.position_at(0.0), Point::new(50.0, 50.0));
    }

    #[test]
    fn stays_inside_field() {
        let m = plan(7, 30.0);
        let f = field();
        let mut t = 0.0;
        while t < 220.0 {
            assert!(f.contains(m.position_at(t)), "escaped field at t={t}");
            t += 0.25;
        }
    }

    #[test]
    fn respects_speed_bound() {
        let m = plan(3, 10.0);
        assert!(m.max_speed() <= 10.0);
        let dt = 0.01;
        let mut t = 0.0;
        while t < 150.0 {
            let d = m.position_at(t).dist(m.position_at(t + dt));
            assert!(
                d <= 10.0 * dt + 1e-9,
                "moved {d} m in {dt}s at t={t} (>{} m/s)",
                d / dt
            );
            t += 1.37;
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = plan(99, 15.0);
        let b = plan(99, 15.0);
        for i in 0..100 {
            let t = i as f64 * 1.7;
            assert_eq!(a.position_at(t), b.position_at(t));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = plan(1, 15.0);
        let b = plan(2, 15.0);
        let moved = (1..50).any(|i| {
            let t = i as f64;
            a.position_at(t) != b.position_at(t)
        });
        assert!(moved);
    }

    #[test]
    fn freezes_past_horizon() {
        let m = plan(5, 10.0);
        let end = m.position_at(1e6);
        assert_eq!(m.position_at(2e6), end);
        assert_eq!(m.speed_at(1e6), 0.0);
    }

    #[test]
    fn motion_is_continuous() {
        let m = plan(11, 20.0);
        let mut t = 0.0;
        let mut prev = m.position_at(0.0);
        while t < 150.0 {
            t += 0.05;
            let cur = m.position_at(t);
            assert!(prev.dist(cur) <= 20.0 * 0.05 + 1e-9);
            prev = cur;
        }
    }
}
