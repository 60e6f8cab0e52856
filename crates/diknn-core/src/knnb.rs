//! The KNNB boundary-estimation algorithm (paper §4.2, Algorithm 1).
//!
//! During the routing phase every hop `i` appends to a list `L` its location
//! `loc_i` and the number of *newly encountered* neighbours `enc_i`. At the
//! home node, KNNB walks `L` backwards, growing a density sample
//! (`neighbors / approx_area`) hop by hop, and returns the first hop
//! distance `d = |loc_i − q|` whose implied node count
//! `est_k = π d² · density` reaches `k`. The coverage area between two
//! successive hops is approximated by the rectangle `r · |loc_i −
//! loc_{i−1}|` (Figure 5), seeded with the half-disc `π r²/2` around the
//! home node. The algorithm is O(hops).

use diknn_geom::Point;
use diknn_sim::Neighbor;

/// One routing-phase hop record: the entry appended to list `L`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopRecord {
    /// Location of the node that performed this hop.
    pub loc: Point,
    /// Number of neighbours newly encountered at this hop (neighbours
    /// farther than `r` from the previous hop's node).
    pub enc: u32,
}

diknn_snap::snap_struct!(HopRecord { loc, enc });

impl HopRecord {
    /// The record a node at `loc` appends to `L`, given its `neighbors`,
    /// the last record so far (`prev`, `None` at the first hop) and the
    /// radio range `r`: a neighbour is newly encountered when it lies
    /// farther than `r` from the previous hop's node, and every neighbour
    /// is new at the first hop (§4.1).
    pub fn new(loc: Point, neighbors: &[Neighbor], prev: Option<&HopRecord>, r: f64) -> Self {
        let enc = match prev {
            None => neighbors.len(),
            Some(p) => neighbors
                .iter()
                .filter(|n| n.position.dist(p.loc) > r)
                .count(),
        };
        HopRecord {
            loc,
            enc: enc as u32,
        }
    }
}

/// Result of boundary estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boundary {
    /// Estimated KNN boundary radius `R`.
    pub radius: f64,
    /// The density estimate (nodes/m²) used for the returned radius.
    pub density: f64,
}

/// Run KNNB. `l` is the hop list in routing order (first hop first), `q`
/// the query point, `r` the radio range and `k` the requested neighbour
/// count.
///
/// Deviations from the paper's pseudocode, both fail-safes:
/// * If the accumulated information never reaches `est_k ≥ k` (short routes
///   or sparse networks), the radius is extrapolated from the full-list
///   density, `R = sqrt(k / (π·D))` — the same equation solved for `R`.
/// * An empty list falls back to assuming a single node per `π r²/2`.
pub fn knnb(l: &[HopRecord], q: Point, r: f64, k: usize) -> Boundary {
    assert!(k > 0, "k must be positive");
    assert!(r > 0.0, "radio range must be positive");
    let k = k as f64;

    if l.is_empty() {
        // No information at all: assume the home node's own half-disc holds
        // one node and extrapolate.
        let density = 1.0 / (std::f64::consts::PI * r * r / 2.0);
        return Boundary {
            radius: (k / (std::f64::consts::PI * density)).sqrt(),
            density,
        };
    }

    let mut neighbors = f64::from(l[l.len() - 1].enc);
    let mut approx_area = std::f64::consts::PI * r * r / 2.0;
    let mut i = l.len() as isize - 1;
    let mut last_density = (neighbors.max(1.0)) / approx_area;

    while i >= 0 {
        let idx = i as usize;
        let d = l[idx].loc.dist(q);
        let density = neighbors.max(1.0) / approx_area;
        last_density = density;
        let est_k = std::f64::consts::PI * d * d * density;
        if est_k >= k && d > 0.0 {
            return Boundary { radius: d, density };
        }
        if idx > 0 {
            neighbors += f64::from(l[idx - 1].enc);
            approx_area += r * l[idx].loc.dist(l[idx - 1].loc);
        }
        i -= 1;
    }

    // Fallback: solve est_k = k for R using the best density estimate,
    // floored at the farthest hop distance so the estimate is monotone in
    // k (a smaller k may have matched a far hop inside the loop).
    let max_d = l.iter().map(|h| h.loc.dist(q)).fold(0.0f64, f64::max);
    Boundary {
        radius: (k / (std::f64::consts::PI * last_density))
            .sqrt()
            .max(max_d),
        density: last_density,
    }
}

/// The conservative boundary of the original KPT [29, 30]: `R = k × MHD`
/// where `MHD` is the expected per-hop advance (the paper's example uses
/// `R = 20·15 = 300` for `k = 20, MHD = 15`). Grows linearly in `k`, i.e.
/// the enclosed *area* grows quadratically — the flooding behaviour the
/// paper criticises. Used by the `boundary_compare` experiment.
pub fn kpt_conservative_radius(k: usize, mean_hop_distance: f64) -> f64 {
    k as f64 * mean_hop_distance
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a synthetic hop list walking straight toward q over a field of
    /// uniform density `d` nodes/m², with `r = 20`.
    fn synthetic_list(q: Point, hops: usize, density: f64) -> Vec<HopRecord> {
        let r = 20.0;
        let step = 15.0; // typical greedy advance
        (0..hops)
            .map(|i| {
                let remaining = (hops - i) as f64;
                HopRecord {
                    loc: Point::new(q.x - remaining * step, q.y),
                    // Each hop sweeps roughly a rectangle r × step of new area.
                    enc: (density * r * step).round() as u32,
                }
            })
            .collect()
    }

    #[test]
    fn uniform_density_estimate_is_accurate() {
        // 200 nodes on 115×115 -> density ≈ 0.0151 nodes/m².
        let density = 200.0 / (115.0 * 115.0);
        let q = Point::new(100.0, 57.0);
        let l = synthetic_list(q, 6, density);
        for k in [5usize, 10, 20, 40] {
            let est = knnb(&l, q, 20.0, k);
            let optimal = (k as f64 / (std::f64::consts::PI * density)).sqrt();
            // The returned radius is quantised to hop locations, so allow
            // one hop step (15 m) of slack.
            assert!(
                (est.radius - optimal).abs() <= 16.0,
                "k={k}: estimated {} vs optimal {optimal}",
                est.radius
            );
            // Must enclose at least ~k expected nodes.
            let implied = std::f64::consts::PI * est.radius * est.radius * density;
            assert!(implied >= k as f64 * 0.5, "k={k}: implied {implied}");
        }
    }

    #[test]
    fn radius_monotone_in_k() {
        let density = 0.015;
        let q = Point::new(90.0, 50.0);
        let l = synthetic_list(q, 6, density);
        let radii: Vec<f64> = [1usize, 5, 10, 20, 50, 100]
            .iter()
            .map(|&k| knnb(&l, q, 20.0, k).radius)
            .collect();
        for w in radii.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "radius not monotone: {radii:?}");
        }
    }

    #[test]
    fn empty_list_fallback() {
        let b = knnb(&[], Point::ORIGIN, 20.0, 10);
        assert!(b.radius > 0.0);
        assert!(b.radius.is_finite());
    }

    #[test]
    fn small_k_uses_near_hops_only() {
        // For k=1 the last hop (closest to q) should already satisfy
        // est_k >= 1, giving a radius near the last-hop distance.
        let density = 0.015;
        let q = Point::new(90.0, 50.0);
        let l = synthetic_list(q, 6, density);
        let b = knnb(&l, q, 20.0, 1);
        let last_dist = l.last().unwrap().loc.dist(q);
        assert!(b.radius <= last_dist + 1e-9);
    }

    #[test]
    fn fallback_extrapolates_when_route_too_short() {
        // One hop, tiny enc: est_k never reaches k inside the list.
        let q = Point::ORIGIN;
        let l = vec![HopRecord {
            loc: Point::new(5.0, 0.0),
            enc: 2,
        }];
        let b = knnb(&l, q, 20.0, 50);
        assert!(b.radius > 5.0, "must extrapolate beyond the hop distance");
        assert!(b.radius.is_finite());
    }

    #[test]
    fn denser_networks_give_smaller_boundaries() {
        let q = Point::new(90.0, 50.0);
        let sparse = knnb(&synthetic_list(q, 6, 0.005), q, 20.0, 20);
        let dense = knnb(&synthetic_list(q, 6, 0.05), q, 20.0, 20);
        assert!(
            dense.radius < sparse.radius,
            "dense {} !< sparse {}",
            dense.radius,
            sparse.radius
        );
    }

    #[test]
    fn zero_density_route_stays_finite() {
        // Every hop reports zero new encounters (e.g. a stale neighbour
        // table): density must floor at one node per seeded half-disc, not
        // divide toward zero and blow the radius to infinity.
        let q = Point::new(50.0, 50.0);
        let l: Vec<HopRecord> = (0..4)
            .map(|i| HopRecord {
                loc: Point::new(i as f64 * 15.0, 50.0),
                enc: 0,
            })
            .collect();
        let b = knnb(&l, q, 20.0, 10);
        assert!(b.radius.is_finite() && b.radius > 0.0, "{b:?}");
        assert!(b.density.is_finite() && b.density > 0.0, "{b:?}");
    }

    #[test]
    fn duplicate_hop_positions_add_no_area() {
        // A short list with duplicate positions (a node re-appended after a
        // routing retry) contributes zero rectangle area; the seeded
        // half-disc keeps the density denominator positive.
        let loc = Point::new(30.0, 30.0);
        let l = vec![HopRecord { loc, enc: 3 }, HopRecord { loc, enc: 0 }];
        let b = knnb(&l, Point::new(60.0, 30.0), 20.0, 8);
        assert!(b.radius.is_finite() && b.radius > 0.0, "{b:?}");
        assert!(b.density.is_finite() && b.density > 0.0, "{b:?}");
    }

    #[test]
    fn hops_exactly_at_query_point_never_return_zero_radius() {
        // d = 0 hops satisfy any est_k but a zero radius would collapse the
        // itinerary; the `d > 0` guard must push past them.
        let q = Point::new(10.0, 10.0);
        let l = vec![HopRecord { loc: q, enc: 50 }, HopRecord { loc: q, enc: 50 }];
        let b = knnb(&l, q, 20.0, 1);
        assert!(b.radius.is_finite() && b.radius > 0.0, "{b:?}");
    }

    #[test]
    fn k_beyond_network_size_extrapolates_conservatively() {
        // k far above anything the route saw: the fallback must cover the
        // whole observed route (radius ≥ farthest hop) and imply ≥ k nodes
        // at the returned density, while staying finite.
        let q = Point::new(90.0, 50.0);
        let l = synthetic_list(q, 4, 0.015);
        let max_d = l.iter().map(|h| h.loc.dist(q)).fold(0.0f64, f64::max);
        for k in [500usize, 10_000] {
            let b = knnb(&l, q, 20.0, k);
            assert!(b.radius.is_finite(), "k={k}: {b:?}");
            assert!(b.radius >= max_d, "k={k}: {b:?}");
            let implied = std::f64::consts::PI * b.radius * b.radius * b.density;
            assert!(implied >= k as f64 - 1e-6, "k={k}: implied {implied}");
        }
    }

    #[test]
    fn kpt_radius_grows_linearly() {
        assert_eq!(kpt_conservative_radius(20, 15.0), 300.0);
        assert_eq!(kpt_conservative_radius(40, 15.0), 600.0);
    }

    #[test]
    fn knnb_much_smaller_than_kpt_conservative() {
        // §4.2: KNNB radii are generally ~1/sqrt(kπ) of KPT's.
        let density = 200.0 / (115.0 * 115.0);
        let q = Point::new(100.0, 57.0);
        let l = synthetic_list(q, 6, density);
        for k in [20usize, 60, 100] {
            let ours = knnb(&l, q, 20.0, k).radius;
            let theirs = kpt_conservative_radius(k, 15.0);
            assert!(ours < theirs / 4.0, "k={k}: KNNB {ours} not ≪ KPT {theirs}");
        }
    }
}
