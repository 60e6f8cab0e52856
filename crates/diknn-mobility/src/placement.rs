//! Initial node placements.
//!
//! The paper's main experiments place 200 nodes uniformly at random in a
//! 115×115 m² field (§5.1). The Figure 7 visualisation instead uses a
//! real-world caribou distribution with strong spatial irregularity; we
//! substitute a Gaussian-mixture ("herds") placement that reproduces the
//! irregularity phenomena DIKNN's rendezvous mechanism targets — see the
//! substitution notes in DESIGN.md.

use diknn_geom::{Point, Rect};
use rand::Rng;

/// Uniform-random placement of `n` nodes in `field`.
pub fn uniform(field: Rect, n: usize, rng: &mut impl Rng) -> Vec<Point> {
    assert!(!field.is_empty(), "placement field must be non-empty");
    (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(field.min_x..=field.max_x),
                rng.gen_range(field.min_y..=field.max_y),
            )
        })
        .collect()
}

/// Regular grid placement, `cols × rows` nodes centred in equal cells.
/// The "nodes form a grid" assumption the paper criticises in §4.2 —
/// useful as a best-case density baseline in tests and ablations.
pub fn grid(field: Rect, cols: usize, rows: usize) -> Vec<Point> {
    assert!(cols > 0 && rows > 0, "grid needs positive dimensions");
    let dx = field.width() / cols as f64;
    let dy = field.height() / rows as f64;
    let mut pts = Vec::with_capacity(cols * rows);
    for j in 0..rows {
        for i in 0..cols {
            pts.push(Point::new(
                field.min_x + (i as f64 + 0.5) * dx,
                field.min_y + (j as f64 + 0.5) * dy,
            ));
        }
    }
    pts
}

/// Number of Gaussian clusters ("herds") of the clustered placement.
const CLUSTERS: usize = 4;

/// Standard deviation of each cluster, in metres.
const CLUSTER_SIGMA: f64 = 8.0;

/// Fraction of nodes the clustered placement scatters uniformly as
/// background; the rest are split evenly among the clusters.
const CLUSTER_BACKGROUND: f64 = 0.15;

const _: () = assert!(CLUSTERS > 0, "need at least one cluster");
const _: () = assert!(
    CLUSTER_BACKGROUND >= 0.0 && CLUSTER_BACKGROUND <= 1.0,
    "background fraction must be in [0, 1]"
);

/// Clustered ("caribou-herd") placement: four cluster centres uniform in
/// the field, members Gaussian (σ = 8 m) around their centre (clamped to
/// the field), plus a uniform background of 15 % of the nodes. This
/// produces the spatial irregularity of \[8\] that degrades density-based
/// boundary estimation and creates itinerary voids.
pub fn clustered(field: Rect, n: usize, rng: &mut impl Rng) -> Vec<Point> {
    let centers: Vec<Point> = uniform(field, CLUSTERS, rng);
    let n_background = (n as f64 * CLUSTER_BACKGROUND).round() as usize;
    let n_clustered = n.saturating_sub(n_background);
    let mut pts = Vec::with_capacity(n);
    for i in 0..n_clustered {
        let c = centers[i % centers.len()];
        pts.push(field.clamp(Point::new(
            c.x + gaussian(rng) * CLUSTER_SIGMA,
            c.y + gaussian(rng) * CLUSTER_SIGMA,
        )));
    }
    pts.extend(uniform(field, n_background, rng));
    pts
}

/// Standard normal sample via Box–Muller (keeps us off extra dependencies).
fn gaussian(rng: &mut impl Rng) -> f64 {
    // Guard against log(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A simple measure of spatial irregularity: the coefficient of variation of
/// per-cell counts over a `g×g` grid. Uniform placements score near
/// `1/sqrt(mean)`·…, clustered placements score much higher; tests use the
/// *relative* ordering only.
pub fn irregularity(field: Rect, points: &[Point], g: usize) -> f64 {
    assert!(g > 0);
    let mut counts = vec![0usize; g * g];
    for p in points {
        let cx = (((p.x - field.min_x) / field.width().max(1e-12)) * g as f64) as usize;
        let cy = (((p.y - field.min_y) / field.height().max(1e-12)) * g as f64) as usize;
        let cx = cx.min(g - 1);
        let cy = cy.min(g - 1);
        counts[cy * g + cx] += 1;
    }
    let mean = points.len() as f64 / (g * g) as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / (g * g) as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn field() -> Rect {
        Rect::new(0.0, 0.0, 115.0, 115.0)
    }

    #[test]
    fn uniform_stays_in_field_and_counts() {
        let mut rng = SmallRng::seed_from_u64(1);
        let pts = uniform(field(), 200, &mut rng);
        assert_eq!(pts.len(), 200);
        assert!(pts.iter().all(|&p| field().contains(p)));
    }

    #[test]
    fn grid_is_regular() {
        let pts = grid(field(), 5, 4);
        assert_eq!(pts.len(), 20);
        assert!(pts.iter().all(|&p| field().contains(p)));
        // First cell centre.
        assert_eq!(pts[0], Point::new(11.5, 14.375));
    }

    #[test]
    fn clustered_stays_in_field() {
        let mut rng = SmallRng::seed_from_u64(2);
        let pts = clustered(field(), 300, &mut rng);
        assert_eq!(pts.len(), 300);
        assert!(pts.iter().all(|&p| field().contains(p)));
    }

    #[test]
    fn clustered_is_more_irregular_than_uniform() {
        let mut rng = SmallRng::seed_from_u64(3);
        let u = uniform(field(), 400, &mut rng);
        let c = clustered(field(), 400, &mut rng);
        let iu = irregularity(field(), &u, 6);
        let ic = irregularity(field(), &c, 6);
        assert!(
            ic > 1.5 * iu,
            "clustered irregularity {ic} not clearly above uniform {iu}"
        );
    }

    #[test]
    fn irregularity_of_perfect_grid_is_low() {
        let pts = grid(field(), 10, 10);
        let score = irregularity(field(), &pts, 5);
        assert!(score < 1e-9, "grid should fill cells evenly, got {score}");
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let a = uniform(field(), 50, &mut SmallRng::seed_from_u64(9));
        let b = uniform(field(), 50, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "gaussian mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "gaussian variance {var}");
    }
}
