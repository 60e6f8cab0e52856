use crate::{angle, Point, TAU};

/// Angular tolerance for sector-border membership, in radians.
///
/// Sector borders are computed as `normalize(origin + i·span)`, so two
/// adjacent sectors (and in particular the last sector and the partition
/// origin, across the 0/2π seam) disagree about the shared border by a few
/// ULPs. Without a tolerance that rounding opens a sliver of directions
/// `contains` rejects for *every* sector of a partition — a node sitting
/// exactly on the seam would be claimed by no sub-itinerary. 1e-12 rad is
/// ~9 orders of magnitude above the ULP noise yet under a nanometre of arc
/// at any radius the protocol uses.
const SEAM_EPS: f64 = 1e-12;

/// A cone-shaped area: the region between two rays from `apex`, clipped to
/// radius `radius`. DIKNN partitions its circular KNN boundary into `S` of
/// these, one sub-itinerary per sector (paper §3.3, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sector {
    /// Cone apex — for DIKNN always the query point `q`.
    pub apex: Point,
    /// Angle of the counter-clockwise start border, in `[0, 2π)`.
    pub start_angle: f64,
    /// Angular width in radians, in `(0, 2π]`.
    pub span: f64,
    /// Radial extent (the KNN boundary radius `R`).
    pub radius: f64,
}

impl Sector {
    pub fn new(apex: Point, start_angle: f64, span: f64, radius: f64) -> Self {
        debug_assert!(span > 0.0 && span <= TAU, "sector span out of range");
        debug_assert!(radius >= 0.0, "negative sector radius");
        Sector {
            apex,
            start_angle: angle::normalize(start_angle),
            span,
            radius,
        }
    }

    /// Partition the circle of `radius` around `apex` into `sectors` equal
    /// sectors, the first starting at angle `origin`.
    pub fn partition(apex: Point, radius: f64, sectors: usize, origin: f64) -> Vec<Sector> {
        assert!(sectors > 0, "cannot partition into zero sectors");
        let span = TAU / sectors as f64;
        (0..sectors)
            .map(|i| Sector::new(apex, origin + i as f64 * span, span, radius))
            .collect()
    }

    /// Angle of the counter-clockwise end border.
    #[inline]
    pub fn end_angle(&self) -> f64 {
        angle::normalize(self.start_angle + self.span)
    }

    /// Angle of the bisector ray.
    #[inline]
    pub fn bisector(&self) -> f64 {
        angle::normalize(self.start_angle + self.span * 0.5)
    }

    /// Whether `p` lies inside the sector (inclusive of borders and of the
    /// apex itself). Borders are inclusive with a `SEAM_EPS` (1e-12 rad) angular
    /// tolerance on both edges, so the sectors of a [`Sector::partition`]
    /// cover every direction despite per-sector border rounding — adjacent
    /// sectors may both claim an exact border point, but no point is
    /// orphaned.
    pub fn contains(&self, p: Point) -> bool {
        let d = self.apex.dist(p);
        if d > self.radius {
            return false;
        }
        if d <= crate::EPS {
            return true;
        }
        let off = angle::ccw_sweep(self.start_angle, self.apex.angle_to(p));
        // `off` near 2π means the direction is within a rounding error
        // *clockwise* of the start border (the wrap seam).
        off <= self.span + SEAM_EPS || off >= TAU - SEAM_EPS
    }

    /// Area of the circular sector.
    #[inline]
    pub fn area(&self) -> f64 {
        0.5 * self.span * self.radius * self.radius
    }

    /// Distance from `p` to the nearest of the two border rays, measured
    /// perpendicular to the ray. Only meaningful for points whose direction
    /// is inside the cone; used to define the adj-segment corridor
    /// ("distance less than w/2 to either side of a sector's border").
    pub fn dist_to_border(&self, p: Point) -> f64 {
        let d = self.apex.dist(p);
        if d <= crate::EPS {
            return 0.0;
        }
        let theta = self.apex.angle_to(p);
        let to_start = angle::diff(theta, self.start_angle);
        let to_end = angle::diff(theta, self.end_angle());
        let nearest = to_start.min(to_end);
        // Perpendicular distance to a ray at angular offset φ is d·sin(φ)
        // when φ ≤ π/2, and d (the apex is the closest ray point) beyond.
        if nearest >= std::f64::consts::FRAC_PI_2 {
            d
        } else {
            d * nearest.sin()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn quadrant() -> Sector {
        // First quadrant, radius 10, apex at origin.
        Sector::new(Point::ORIGIN, 0.0, FRAC_PI_2, 10.0)
    }

    #[test]
    fn partition_covers_circle_disjointly() {
        let parts = Sector::partition(Point::new(1.0, 2.0), 5.0, 8, 0.3);
        assert_eq!(parts.len(), 8);
        let total_span: f64 = parts.iter().map(|s| s.span).sum();
        assert!((total_span - TAU).abs() < 1e-9);
        // Any interior point lies in exactly one sector.
        let p = Point::new(2.5, 3.5);
        let n = parts.iter().filter(|s| s.contains(p)).count();
        assert_eq!(n, 1);
    }

    #[test]
    fn contains_respects_radius_and_angle() {
        let s = quadrant();
        assert!(s.contains(Point::new(1.0, 1.0)));
        assert!(s.contains(Point::new(10.0, 0.0)));
        assert!(!s.contains(Point::new(10.1, 0.0)));
        assert!(!s.contains(Point::new(-1.0, 1.0)));
        assert!(s.contains(Point::ORIGIN));
    }

    #[test]
    fn bisector_and_end() {
        let s = quadrant();
        assert!((s.bisector() - FRAC_PI_2 / 2.0).abs() < 1e-12);
        assert!((s.end_angle() - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn area_of_half_circle() {
        let s = Sector::new(Point::ORIGIN, 0.0, PI, 2.0);
        assert!((s.area() - 2.0 * PI).abs() < 1e-9);
    }

    #[test]
    fn dist_to_border_perpendicular() {
        let s = quadrant();
        // Point (3, 1): distance to the x-axis border is 1.
        assert!((s.dist_to_border(Point::new(3.0, 1.0)) - 1.0).abs() < 1e-9);
        // Point on the bisector at distance d: both borders at d·sin(45°).
        let d = 4.0;
        let p = Point::ORIGIN.polar_offset(s.bisector(), d);
        assert!((s.dist_to_border(p) - d * (FRAC_PI_2 / 2.0).sin()).abs() < 1e-9);
    }

    #[test]
    fn wrapping_sector_contains() {
        // Sector straddling angle 0.
        let s = Sector::new(Point::ORIGIN, TAU - 0.5, 1.0, 10.0);
        assert!(s.contains(Point::new(5.0, 0.0)));
        assert!(s.contains(Point::ORIGIN.polar_offset(TAU - 0.3, 3.0)));
        assert!(!s.contains(Point::new(0.0, 5.0)));
    }

    /// Next representable angle below `a` (assumes `a > 0`).
    fn ulp_down(a: f64) -> f64 {
        if a == 0.0 {
            // Just below 0 wraps to just below 2π.
            f64::from_bits(TAU.to_bits() - 1)
        } else {
            f64::from_bits(a.to_bits() - 1)
        }
    }

    /// Next representable angle above `a`.
    fn ulp_up(a: f64) -> f64 {
        f64::from_bits(a.to_bits() + 1)
    }

    #[test]
    fn border_points_are_inside_their_sector() {
        // A point exactly on the start border and exactly on the end border
        // belongs to the sector (borders are inclusive) — including for a
        // sector that spans the 0/2π seam.
        for s in [
            quadrant(),
            Sector::new(Point::new(12.0, -3.0), TAU - 0.5, 1.0, 10.0), // spans the seam
            Sector::new(Point::ORIGIN, TAU - 1e-12, 0.7, 10.0),        // start hugs the seam
        ] {
            for a in [s.start_angle, s.end_angle()] {
                let p = s.apex.polar_offset(a, s.radius * 0.5);
                assert!(
                    s.contains(p),
                    "border point at angle {a} escaped sector {s:?}"
                );
            }
        }
    }

    #[test]
    fn partition_has_no_dead_gap_at_any_seam() {
        // Every direction must land in at least one sector of a partition —
        // including directions a ULP either side of every border. Rounding
        // in the per-sector `normalize(origin + i·span)` used to open
        // ULP-wide gaps (typically at the partition-origin wrap seam) where
        // `contains` was false for every sector. At most the two sectors
        // sharing a border may claim a point, out to the rim (`π/2` puts a
        // border straight up from the apex).
        let apex = Point::new(37.2, -11.5);
        for sectors in [1usize, 3, 4, 5, 7, 8, 12] {
            for origin in [0.0, 0.3, 1.234_567, FRAC_PI_2, PI, 5.5, TAU - 1e-9, -0.25] {
                let parts = Sector::partition(apex, 50.0, sectors, origin);
                for s in &parts {
                    for a in [s.start_angle, s.end_angle()] {
                        for dir in [ulp_down(a), a, ulp_up(a)] {
                            for r in [30.0, 50.0 - 1e-9] {
                                let p = apex.polar_offset(dir, r);
                                let n = parts.iter().filter(|s| s.contains(p)).count();
                                assert!(
                                    (1..=2).contains(&n),
                                    "S={sectors} origin={origin}: direction {dir} \
                                     (border {a}) at radius {r} lies in {n} sectors"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
