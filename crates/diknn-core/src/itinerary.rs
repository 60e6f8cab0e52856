//! Concurrent itinerary geometry (paper §3.3, Figure 4).
//!
//! The KNN boundary — a circle of radius `R` around the query point `q` —
//! is partitioned into `S` equal sectors. Each sector is traversed by a
//! **sub-itinerary** made of three segment kinds:
//!
//! * the *init-segment*: a straight run along the sector bisector of length
//!   `l_init = min(w / (2·sin(π/S)), R)` — up to that distance the whole
//!   sector width is within `w/2` of the bisector, so a straight line
//!   covers it;
//! * *peri-segments*: arcs of concentric circles around `q`, spaced `w`
//!   apart (radii `l_init + (j−½)·w`), each ending `w/2` short of the
//!   sector borders;
//! * *adj-segments*: the `w`-long radial connectors along alternating
//!   borders that join consecutive arcs into a zigzag.
//!
//! Inverting the arc direction in every other sector (the `reversed` flag)
//! makes the adj-segments of neighbouring sub-itineraries meet face to
//! face, forming the *rendezvous* areas used for dynamic boundary
//! adjustment (§4.3, Figure 6).
//!
//! Itineraries are **conceptual**: nothing is installed in the network.
//! Every Q-node recomputes the polyline deterministically from the compact
//! [`ItinerarySpec`] carried in the query message. The geometry is monotone
//! in `R`: enlarging the radius only *appends* waypoints (the mobility-
//! assurance expansion of §4.3 relies on this).
//!
//! A Q-node picks its successor with a [`Walk`]: the probe loop DIKNN's
//! sector tokens and the window query's sweep share.

use diknn_geom::{angle, Point, Polyline, TAU};
use diknn_sim::{Neighbor, NodeId};

/// Compact description of a query's itinerary structure; travels inside
/// query messages (a few bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItinerarySpec {
    /// Query point (centre of the KNN boundary).
    pub q: Point,
    /// Boundary radius `R`.
    pub radius: f64,
    /// Number of sectors `S` (≥ 1).
    pub sectors: usize,
    /// Itinerary width `w`; full coverage requires `w ≤ √3·r/2`.
    pub width: f64,
    /// Angle of sector 0's starting border.
    pub origin: f64,
}

diknn_snap::snap_struct!(ItinerarySpec {
    q,
    radius,
    sectors,
    width,
    origin
});

impl ItinerarySpec {
    pub fn new(q: Point, radius: f64, sectors: usize, width: f64) -> Self {
        assert!(sectors >= 1, "need at least one sector");
        assert!(width > 0.0, "itinerary width must be positive");
        assert!(radius >= 0.0, "negative radius");
        ItinerarySpec {
            q,
            radius,
            sectors,
            width,
            origin: 0.0,
        }
    }

    /// The init-segment length `l_init` (paper formula).
    pub fn init_len(&self) -> f64 {
        if self.sectors == 1 {
            // Degenerate single-sector case: a ring itinerary starting at
            // the first arc.
            return (self.width / 2.0).min(self.radius);
        }
        let s = (std::f64::consts::PI / self.sectors as f64).sin();
        (self.width / (2.0 * s)).min(self.radius)
    }

    /// Radii of the peri-segment arcs for boundary radius `radius`.
    pub fn arc_radii(&self) -> Vec<f64> {
        let linit = self.init_len();
        let mut radii = Vec::new();
        let mut j = 1usize;
        loop {
            let rho = linit + (j as f64 - 0.5) * self.width;
            // Include arcs until the previous one already covers R.
            if rho >= self.radius + self.width / 2.0 {
                break;
            }
            radii.push(rho);
            j += 1;
            if j > 10_000 {
                unreachable!("arc generation runaway");
            }
        }
        radii
    }

    /// The paper's recommended width for radio range `r`: `w = √3·r/2`,
    /// the largest width that still guarantees full coverage.
    pub fn recommended_width(radio_range: f64) -> f64 {
        3.0_f64.sqrt() * radio_range / 2.0
    }
}

/// The sub-itinerary polyline for `sector` (0-based). `reversed` inverts
/// the peri-segment direction — set it on odd sectors so adjacent
/// sub-itineraries form rendezvous areas.
pub fn sub_itinerary(spec: &ItinerarySpec, sector: usize, reversed: bool) -> Polyline {
    assert!(sector < spec.sectors, "sector index out of range");
    let span = TAU / spec.sectors as f64;
    let start = angle::normalize(spec.origin + sector as f64 * span);
    let bisector = angle::normalize(start + span / 2.0);
    let linit = spec.init_len();

    let mut pts: Vec<Point> = vec![spec.q];
    if linit > 0.0 {
        pts.push(spec.q.polar_offset(bisector, linit));
    }

    if spec.sectors == 1 {
        // Degenerate single-sector itinerary: concentric full rings joined
        // at the bisector (the Figure 3(b) style single traversal).
        for rho in spec.arc_radii() {
            push_arc(&mut pts, spec.q, rho, bisector, TAU, !reversed, spec.width);
        }
        return Polyline::new(pts);
    }

    // Zigzag over the arcs. `side = 0` is the starting border, `side = 1`
    // the ending border; `reversed` swaps which side each arc begins on.
    for (j, rho) in spec.arc_radii().into_iter().enumerate() {
        let phi = arc_inset(spec, rho, span);
        let a0 = angle::normalize(start + phi);
        let a1 = angle::normalize(start + span - phi);
        let sweep = angle::ccw_sweep(a0, a1);
        // Arc j starts on side (j + reversed) mod 2 and ends on the other.
        let begin_on_start_border = (j % 2 == 0) != reversed;
        let (from, ccw) = if begin_on_start_border {
            (a0, true)
        } else {
            (a1, false)
        };
        push_arc(&mut pts, spec.q, rho, from, sweep, ccw, spec.width);
    }
    Polyline::new(pts)
}

/// Angular inset keeping the arc endpoints `w/2` away from the borders
/// (clamped so tiny arcs never invert).
fn arc_inset(spec: &ItinerarySpec, rho: f64, span: f64) -> f64 {
    if spec.sectors == 1 {
        return 0.0; // full rings, no borders
    }
    let ratio = (spec.width / 2.0 / rho).min(1.0);
    ratio.asin().min(span * 0.45)
}

/// Append an arc of radius `rho` around `c` starting at angle `from`,
/// sweeping `sweep` radians counter-clockwise if `ccw` (clockwise
/// otherwise), discretised so the chord sagitta stays below 2% of the
/// itinerary width.
fn push_arc(
    pts: &mut Vec<Point>,
    c: Point,
    rho: f64,
    from: f64,
    sweep: f64,
    ccw: bool,
    width: f64,
) {
    // Angular step bounded by the sagitta tolerance.
    let tol = 0.02 * width;
    let max_step = if tol >= rho {
        sweep.max(0.1)
    } else {
        2.0 * (1.0 - tol / rho).acos()
    };
    let steps = (sweep / max_step).ceil().max(1.0) as usize;
    for i in 0..=steps {
        let frac = i as f64 / steps as f64;
        let theta = if ccw {
            from + sweep * frac
        } else {
            from - sweep * frac
        };
        pts.push(c.polar_offset(theta, rho));
    }
}

/// Total conceptual itinerary length over all sectors — the paper's
/// `l_init + l_peri + l_adj` accounting, used by the width ablation.
pub fn total_length(spec: &ItinerarySpec) -> f64 {
    (0..spec.sectors)
        .map(|s| sub_itinerary(spec, s, s % 2 == 1).length())
        .sum()
}

/// Check whether every sampled point of the disc (radius `R` around `q`) is
/// within `slack` of some sub-itinerary. Returns the worst observed
/// distance. Used by coverage tests and the width ablation.
pub fn coverage_worst_distance(spec: &ItinerarySpec, samples: usize) -> f64 {
    let polylines: Vec<Polyline> = (0..spec.sectors)
        .map(|s| sub_itinerary(spec, s, s % 2 == 1))
        .collect();
    let mut worst = 0.0f64;
    // Deterministic low-discrepancy-ish sampling over the disc.
    for i in 0..samples {
        let frac = (i as f64 + 0.5) / samples as f64;
        let rho = spec.radius * frac.sqrt();
        let theta = TAU * ((i as f64 * 0.618_033_988_749_895) % 1.0);
        let p = spec.q.polar_offset(theta, rho);
        let d = polylines
            .iter()
            .map(|pl| pl.dist_to_point(p))
            .fold(f64::INFINITY, f64::min);
        worst = worst.max(d);
    }
    worst
}

/// Probe targets sit `PROBE_STEP · r` apart along the itinerary.
const PROBE_STEP: f64 = 0.6;

/// A successor must be at least this many metres closer to the probe
/// target than the current Q-node.
const MIN_PROGRESS_M: f64 = 0.5;

/// Unreachable targets running more than `VOID_GAP · r` past the frontier
/// make a void.
const VOID_GAP: f64 = 3.0;

/// Probe targets one walk tries before it is stuck.
const MAX_PROBES: u32 = 200;

/// What a Q-node does with the token, as [`Walk::step`] answers it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalkStep {
    /// Hand the token to this neighbour; the frontier has advanced.
    Handoff(NodeId),
    /// The itinerary end lies inside my radio disc; the frontier is there.
    End,
    /// No neighbour gets closer to any target for more than `VOID_GAP`
    /// radio ranges past the frontier: a void, reported at the arc length
    /// of the last unreachable target (the itinerary length when the void
    /// runs to the end).
    Void(f64),
    /// The probe cap ran out.
    Stuck,
}

/// One Q-node's walk along an itinerary (§3.3): probe targets every
/// `0.6·r` ahead of the frontier and hand the token to the neighbour
/// closest to the first target it gets at least 0.5 m closer to than this
/// node, ties broken by id. The walk is pure: it reads the polyline, this
/// node's position and its neighbours, and moves only its own frontier.
/// What a void or the end means is the caller's policy.
pub struct Walk<'a> {
    poly: &'a Polyline,
    me: Point,
    range: f64,
    width: f64,
    frontier: f64,
    /// Arc length of the next probe target.
    target: f64,
    probes: u32,
}

impl<'a> Walk<'a> {
    /// A walk along `poly` from a Q-node at `me`, resuming at arc length
    /// `frontier`, for radio range `range` and itinerary width `width`.
    pub fn new(poly: &'a Polyline, me: Point, frontier: f64, range: f64, width: f64) -> Self {
        Walk {
            poly,
            me,
            range,
            width,
            frontier,
            target: frontier + range * PROBE_STEP,
            probes: 0,
        }
    }

    /// The arc length up to which the itinerary counts as covered.
    pub fn frontier(&self) -> f64 {
        self.frontier
    }

    /// Probe ahead until a neighbour not in `exclude` can take the token,
    /// the end or a void is reached, or the probe cap runs out. The cap
    /// counts every probe of the walk, across [`Walk::skip_to`].
    pub fn step(&mut self, neighbors: &[Neighbor], exclude: &[NodeId]) -> WalkStep {
        let len = self.poly.length();
        let step = self.range * PROBE_STEP;
        loop {
            self.probes += 1;
            if self.probes > MAX_PROBES {
                return WalkStep::Stuck;
            }
            let end_reached = self.target >= len;
            let ta = self.target.min(len);
            let target = self.poly.point_at(ta);
            let my_d = self.me.dist(target);
            let next = neighbors
                .iter()
                .filter(|n| !exclude.contains(&n.id))
                .filter(|n| n.position.dist(target) < my_d - MIN_PROGRESS_M)
                .min_by(|a, b| {
                    a.position
                        .dist(target)
                        .total_cmp(&b.position.dist(target))
                        .then(a.id.cmp(&b.id))
                });
            if let Some(n) = next {
                // Record the targets skipped while probing ahead, so the
                // successor does not restart at one already proven
                // unreachable here (which would ping-pong the token).
                self.frontier = self.frontier.max(ta - step);
                // Advance further: to the successor's projection when it
                // sits on the itinerary, else to the target when my own
                // probe covers it.
                let proj = self.poly.project_from(n.position, self.frontier);
                if proj.dist <= self.width {
                    self.frontier = self.frontier.max(proj.arclen);
                } else if my_d <= self.range {
                    self.frontier = self.frontier.max(ta);
                }
                return WalkStep::Handoff(n.id);
            }
            if my_d <= self.range {
                // Nobody better, but my probe covers the target: skip ahead.
                self.frontier = ta;
                if end_reached {
                    return WalkStep::End;
                }
                self.target = self.frontier + step;
                continue;
            }
            self.target += step;
            if self.target - self.frontier > VOID_GAP * self.range || end_reached {
                return WalkStep::Void(ta);
            }
        }
    }

    /// Resume probing past arc length `arclen` (a void the caller skips).
    pub fn skip_to(&mut self, arclen: f64) {
        self.frontier = self.frontier.max(arclen);
        self.target = self.frontier + self.range * PROBE_STEP;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(radius: f64, sectors: usize) -> ItinerarySpec {
        let w = ItinerarySpec::recommended_width(20.0); // √3·20/2 ≈ 17.32
        ItinerarySpec::new(Point::new(57.0, 57.0), radius, sectors, w)
    }

    #[test]
    fn init_len_matches_paper_formula() {
        let s = spec(50.0, 8);
        let expected = s.width / (2.0 * (std::f64::consts::PI / 8.0).sin());
        assert!((s.init_len() - expected).abs() < 1e-12);
        // Capped at R when R is small.
        let small = spec(5.0, 8);
        assert_eq!(small.init_len(), 5.0);
    }

    #[test]
    fn recommended_width_is_sqrt3_r_over_2() {
        assert!((ItinerarySpec::recommended_width(20.0) - 17.320_508_075_688_77).abs() < 1e-9);
    }

    #[test]
    fn arc_radii_are_spaced_w_and_cover_r() {
        let s = spec(60.0, 8);
        let radii = s.arc_radii();
        assert!(!radii.is_empty());
        for w in radii.windows(2) {
            assert!((w[1] - w[0] - s.width).abs() < 1e-9);
        }
        // Outermost arc covers the rim.
        assert!(radii.last().unwrap() + s.width / 2.0 >= s.radius);
        // First arc starts just past the init segment.
        assert!((radii[0] - (s.init_len() + 0.5 * s.width)).abs() < 1e-9);
    }

    #[test]
    fn growing_radius_only_appends_waypoints() {
        let small = spec(40.0, 8);
        let large = ItinerarySpec {
            radius: 70.0,
            ..small
        };
        for sector in 0..8 {
            for reversed in [false, true] {
                let a = sub_itinerary(&small, sector, reversed);
                let b = sub_itinerary(&large, sector, reversed);
                assert!(b.length() > a.length());
                // Prefix property: the shorter polyline's waypoints open
                // the longer one.
                for (pa, pb) in a.waypoints().iter().zip(b.waypoints()) {
                    assert!(pa.dist(*pb) < 1e-9, "waypoint prefix mismatch");
                }
            }
        }
    }

    #[test]
    fn sub_itinerary_stays_inside_its_sector_with_margin() {
        let s = spec(55.0, 8);
        for sector in 0..8 {
            let sect = diknn_geom::Sector::partition(s.q, s.radius + s.width, 8, s.origin)[sector];
            let poly = sub_itinerary(&s, sector, sector % 2 == 1);
            for p in poly.waypoints() {
                // Waypoints may stick out radially by w/2 (outermost arc)
                // but never angularly into another sector.
                if s.q.dist(*p) > 1e-9 {
                    assert!(
                        sect.contains(*p),
                        "sector {sector}: waypoint {p:?} escaped its sector"
                    );
                }
            }
        }
    }

    #[test]
    fn full_coverage_at_recommended_width() {
        // Interior points lie within w/2 of a sub-itinerary; the worst case
        // sits on a sector border midway between two arcs where no
        // adj-segment runs, at distance w/√2. With the recommended
        // w = √3·r/2 that is ≈ 0.61·r — every node still hears a probe,
        // which is the coverage the paper's argument needs.
        let r = 20.0;
        for sectors in [1usize, 4, 8, 16] {
            let s = spec(55.0, sectors);
            let worst = coverage_worst_distance(&s, 2000);
            let bound = s.width / 2.0_f64.sqrt() + 0.05 * s.width;
            assert!(
                worst <= bound,
                "S={sectors}: worst distance {worst} exceeds w/√2 bound {bound}"
            );
            assert!(
                worst <= 0.75 * r,
                "S={sectors}: worst distance {worst} too close to the radio range"
            );
        }
    }

    #[test]
    fn coverage_fails_for_oversized_width() {
        // Double the recommended width leaves gaps: some points of the disc
        // are farther than w/2+slack... actually farther than the radio
        // range r itself, which is the real failure criterion: a node there
        // never hears a probe.
        let mut s = spec(55.0, 8);
        s.width = 3.0 * 20.0; // 3r: spacing 60 m with probes reaching 20 m
        let worst = coverage_worst_distance(&s, 2000);
        assert!(
            worst > 20.0,
            "expected coverage holes beyond the radio range, worst = {worst}"
        );
    }

    #[test]
    fn single_sector_is_ring_itinerary() {
        let s = spec(40.0, 1);
        let poly = sub_itinerary(&s, 0, false);
        assert!(poly.length() > 2.0 * std::f64::consts::PI * 20.0);
        let worst = coverage_worst_distance(&s, 1500);
        assert!(worst <= s.width / 2.0 + 0.05 * s.width, "worst {worst}");
    }

    #[test]
    fn reversed_flag_flips_first_arc_direction() {
        let s = spec(50.0, 8);
        let fwd = sub_itinerary(&s, 0, false);
        let rev = sub_itinerary(&s, 0, true);
        assert!((fwd.length() - rev.length()).abs() < 1e-6);
        // After the init segment the two part ways.
        let after_init = s.init_len() + s.width;
        let pf = fwd.point_at(after_init);
        let pr = rev.point_at(after_init);
        assert!(pf.dist(pr) > s.width / 4.0, "reversal had no effect");
    }

    #[test]
    fn total_length_scales_superlinearly_with_radius() {
        let short = total_length(&spec(30.0, 8));
        let long = total_length(&spec(60.0, 8));
        // Area doubles 4×; itinerary length should grow clearly
        // superlinearly (~quadratically).
        assert!(long > 2.5 * short, "short={short} long={long}");
    }

    #[test]
    fn narrower_width_means_longer_itinerary() {
        let base = spec(50.0, 8);
        let narrow = ItinerarySpec {
            width: base.width / 2.0,
            ..base
        };
        assert!(total_length(&narrow) > 1.5 * total_length(&base));
    }

    #[test]
    fn tiny_radius_is_init_only() {
        let s = spec(3.0, 8);
        let poly = sub_itinerary(&s, 2, false);
        // Just q -> bisector point.
        assert!(poly.length() <= 3.0 + 1e-9);
        assert!(!s.arc_radii().is_empty() || poly.length() > 0.0);
    }

    fn nb(id: u32, x: f64, y: f64) -> Neighbor {
        Neighbor {
            id: NodeId(id),
            position: Point::new(x, y),
            speed: 0.0,
            heard_at: diknn_sim::SimTime::ZERO,
        }
    }

    /// A straight itinerary along the x axis, `len` metres long.
    fn line(len: f64) -> Polyline {
        Polyline::new([Point::ORIGIN, Point::new(len, 0.0)])
    }

    #[test]
    fn walk_hands_off_to_the_closest_neighbour_ties_by_id() {
        // r = 20: the first target sits 12 m along, 12 m from me.
        let poly = line(100.0);
        let mut walk = Walk::new(&poly, Point::ORIGIN, 0.0, 20.0, 17.0);
        let neighbors = [
            nb(5, 12.0, 3.0),  // 3 m from the target
            nb(3, 12.0, -3.0), // tied with 5, lower id
            nb(1, 2.0, 0.0),   // progress, but farther from the target
            nb(9, 12.0, 0.0),  // on the target, but excluded
        ];
        assert_eq!(
            walk.step(&neighbors, &[NodeId(9)]),
            WalkStep::Handoff(NodeId(3))
        );
        // A neighbour only 0.4 m closer to every target makes no progress.
        let mut walk = Walk::new(&poly, Point::ORIGIN, 0.0, 20.0, 17.0);
        assert!(matches!(
            walk.step(&[nb(7, 0.4, 0.0)], &[]),
            WalkStep::Void(_)
        ));
    }

    #[test]
    fn walk_frontier_follows_the_successor_or_the_target() {
        let poly = line(100.0);
        // A successor within w of the itinerary: its projection.
        let mut walk = Walk::new(&poly, Point::ORIGIN, 0.0, 20.0, 17.0);
        let on = [nb(1, 15.0, 4.0)];
        assert_eq!(walk.step(&on, &[]), WalkStep::Handoff(NodeId(1)));
        assert!((walk.frontier() - 15.0).abs() < 1e-9);
        // A successor 18 m off the itinerary while the target (12, 0) is
        // inside my disc: the target.
        let me = Point::new(0.0, -15.0);
        let off = [nb(2, 12.0, 18.0)];
        let mut walk = Walk::new(&poly, me, 0.0, 20.0, 17.0);
        assert_eq!(walk.step(&off, &[]), WalkStep::Handoff(NodeId(2)));
        assert!((walk.frontier() - 12.0).abs() < 1e-9);
        // The same successor with the target out of my reach: the frontier
        // stays put.
        let mut walk = Walk::new(&poly, Point::new(0.0, -25.0), 0.0, 20.0, 17.0);
        assert_eq!(walk.step(&off, &[]), WalkStep::Handoff(NodeId(2)));
        assert_eq!(walk.frontier(), 0.0);
    }

    #[test]
    fn walk_ends_when_the_end_is_inside_my_disc() {
        let poly = line(30.0);
        let mut walk = Walk::new(&poly, Point::new(20.0, 0.0), 10.0, 20.0, 17.0);
        assert_eq!(walk.step(&[], &[]), WalkStep::End);
        assert_eq!(walk.frontier(), poly.length());
    }

    #[test]
    fn walk_reports_a_void_past_three_ranges_at_the_last_unreachable_target() {
        // r = 10, probes every 6 m. The target at 6 m is in my disc; those
        // at 12..36 m are not, and the next one (42 m) lies more than 3 r
        // past the frontier.
        let poly = line(500.0);
        let mut walk = Walk::new(&poly, Point::ORIGIN, 0.0, 10.0, 8.0);
        assert_eq!(walk.step(&[], &[]), WalkStep::Void(36.0));
        assert_eq!(walk.frontier(), 6.0);
        walk.skip_to(36.0);
        assert_eq!(walk.frontier(), 36.0);
    }

    #[test]
    fn walk_probe_cap_is_shared_across_skipped_voids() {
        // Nothing in reach anywhere: each void takes 5 probes, so the
        // 200-probe cap allows exactly 40 skips before the walk is stuck.
        let poly = line(10_000.0);
        let mut walk = Walk::new(&poly, Point::new(0.0, 1000.0), 0.0, 10.0, 8.0);
        let mut voids = 0;
        let last = loop {
            match walk.step(&[], &[]) {
                WalkStep::Void(at) => {
                    voids += 1;
                    walk.skip_to(at);
                }
                other => break other,
            }
        };
        assert_eq!((voids, last), (40, WalkStep::Stuck));
    }
}
