//! Property-based tests on DIKNN's pure algorithmic kernel: the KNNB
//! estimator, the itinerary geometry, the candidate sets, and the token
//! decision rules.

use diknn_core::itinerary::{sub_itinerary, ItinerarySpec};
use diknn_core::knnb::{knnb, HopRecord};
use diknn_core::token::{SectorToken, TokenDecision, MAX_RADIUS_GROWTH};
use diknn_core::{Candidate, CandidateSet, DiknnConfig};
use diknn_geom::Point;
use diknn_sim::{NodeId, SimTime};
use proptest::prelude::*;

fn hop_list() -> impl Strategy<Value = Vec<HopRecord>> {
    prop::collection::vec(((-200.0..200.0f64, -200.0..200.0f64), 0u32..40), 0..20).prop_map(|v| {
        v.into_iter()
            .map(|((x, y), enc)| HopRecord {
                loc: Point::new(x, y),
                enc,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// KNNB always returns a finite positive radius, for any hop list.
    #[test]
    fn knnb_total_and_finite(l in hop_list(), k in 1usize..200) {
        let b = knnb(&l, Point::new(10.0, -5.0), 20.0, k);
        prop_assert!(b.radius.is_finite());
        prop_assert!(b.radius > 0.0);
        prop_assert!(b.density.is_finite() && b.density > 0.0);
    }

    /// For routes that approach q monotonically (the situation GPSR's
    /// greedy mode produces), the estimated radius is monotone
    /// non-decreasing in k. (Arbitrary curving hop lists can violate this —
    /// Algorithm 1 walks hop distances, which need not be sorted.)
    #[test]
    fn knnb_monotone_in_k_on_approach_routes(
        dists in prop::collection::vec(1.0..200.0f64, 1..15),
        encs in prop::collection::vec(0u32..40, 15),
    ) {
        let q = Point::new(0.0, 0.0);
        let mut sorted = dists.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap()); // farthest first
        let l: Vec<HopRecord> = sorted
            .iter()
            .zip(&encs)
            .map(|(&d, &enc)| HopRecord { loc: Point::new(d, 0.0), enc })
            .collect();
        let mut last = 0.0f64;
        for k in [1usize, 2, 5, 10, 20, 50, 100] {
            let r = knnb(&l, q, 20.0, k).radius;
            prop_assert!(r + 1e-9 >= last, "k={k}: {r} < {last}");
            last = r;
        }
    }

    /// Sub-itineraries: every waypoint is finite and within R + w of q; the
    /// polyline starts at q; length is monotone in the radius.
    #[test]
    fn itinerary_waypoints_bounded(
        radius in 1.0..120.0f64,
        sectors in 1usize..17,
        width_factor in 0.3..1.5f64,
        sector_pick in 0usize..16,
    ) {
        let w = width_factor * 20.0;
        let q = Point::new(57.0, 57.0);
        let spec = ItinerarySpec::new(q, radius, sectors, w);
        let sector = sector_pick % sectors;
        let poly = sub_itinerary(&spec, sector, sector % 2 == 1);
        prop_assert_eq!(poly.start(), q);
        for p in poly.waypoints() {
            prop_assert!(p.is_finite());
            prop_assert!(q.dist(*p) <= radius + w, "waypoint beyond R + w");
        }
        let bigger = ItinerarySpec { radius: radius + w, ..spec };
        let poly2 = sub_itinerary(&bigger, sector, sector % 2 == 1);
        prop_assert!(poly2.length() + 1e-9 >= poly.length());
    }

    /// Candidate sets never exceed k, stay sorted, and merging is
    /// order-insensitive for the resulting id set.
    #[test]
    fn candidate_set_invariants(
        k in 1usize..20,
        items in prop::collection::vec((0u32..60, 0.0..100.0f64), 0..60),
    ) {
        let mut a = CandidateSet::new(k);
        let mut b = CandidateSet::new(k);
        for &(id, d) in &items {
            a.insert(Candidate { id: NodeId(id), position: Point::new(d, 0.0), dist: d });
        }
        for &(id, d) in items.iter().rev() {
            b.insert(Candidate { id: NodeId(id), position: Point::new(d, 0.0), dist: d });
        }
        prop_assert!(a.len() <= k);
        for w in a.items().windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
        }
        // Dedup by id.
        let mut ids = a.ids();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), a.len());
        // Forward and reverse insertion orders agree once per-id
        // duplicates are involved only with identical distances... compare
        // distances (ids can differ on exact ties of the k-th place).
        // Note: with duplicate ids the *latest* insert wins, so compare
        // only when all ids are unique.
        let unique = {
            let mut v: Vec<u32> = items.iter().map(|&(id, _)| id).collect();
            v.sort_unstable();
            v.dedup();
            v.len() == items.len()
        };
        if unique {
            let da: Vec<f64> = a.items().iter().map(|c| c.dist).collect();
            let db: Vec<f64> = b.items().iter().map(|c| c.dist).collect();
            prop_assert_eq!(da, db);
        }
    }

    /// Token decisions are total and terminal states are stable: a token at
    /// the end with no extension budget finishes.
    #[test]
    fn token_decide_total(
        k in 1u32..100,
        explored in 0u32..200,
        counts in prop::collection::vec((0u8..8, 0u32..100), 0..8),
        at_end in any::<bool>(),
        assured in any::<bool>(),
        max_speed in 0.0..30.0f64,
        elapsed in 0.0..5.0f64,
    ) {
        let cfg = DiknnConfig::default();
        let spec = diknn_core::messages::QuerySpec {
            qid: 1,
            sink: NodeId(0),
            sink_pos: Point::ORIGIN,
            q: Point::new(50.0, 50.0),
            k,
            issued_at: SimTime::ZERO,
            attempt: 0,
        };
        let mut t = SectorToken::new(
            spec,
            1,
            ItinerarySpec::new(Point::new(50.0, 50.0), 30.0, 8, 17.32),
            SimTime::ZERO,
        );
        t.explored = explored;
        t.assured = assured;
        t.max_speed = max_speed;
        t.merge_counts(&counts);
        let now = SimTime::from_secs_f64(elapsed);
        let d = t.decide(&cfg, now, at_end);
        // Extensions never exceed the cap and never shrink.
        if let TokenDecision::Extend(r, _) = d {
            prop_assert!(r > t.itin.radius);
            prop_assert!(r <= t.initial_radius * MAX_RADIUS_GROWTH + 1e-9);
        }
        // A capped, assured token at the end must not extend.
        t.itin.radius = t.initial_radius * MAX_RADIUS_GROWTH;
        t.assured = true;
        if let TokenDecision::Extend(..) = t.decide(&cfg, now, true) { prop_assert!(false, "extended past the cap") }
    }
}
