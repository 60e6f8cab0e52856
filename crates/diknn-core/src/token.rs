//! The per-sector dissemination token: all state a sub-itinerary traversal
//! carries from Q-node to Q-node, plus the pure decision logic for early
//! stopping, boundary extension and mobility assurance.

use crate::candidates::CandidateSet;
use crate::config::DiknnConfig;
use crate::itinerary::ItinerarySpec;
use crate::messages::QuerySpec;
use diknn_sim::SimTime;

/// Early-stop margin: a sector may truncate its traversal once the
/// estimated number of explored nodes reaches `EARLY_STOP_MARGIN × k`.
const EARLY_STOP_MARGIN: f64 = 1.25;

/// Extension target: sectors keep growing the boundary until the estimated
/// explored total reaches `EXTEND_TARGET × k` (KNNB aims at *exactly* k
/// expected nodes, so without headroom roughly half the true KNNs near the
/// rim would be missed). Must not exceed [`EARLY_STOP_MARGIN`].
const EXTEND_TARGET: f64 = 1.15;

/// Boundary-extension cap: `R` may grow to at most `MAX_RADIUS_GROWTH × R₀`
/// through rendezvous under-count extension plus mobility assurance.
pub const MAX_RADIUS_GROWTH: f64 = 2.0;

const _: () = assert!(MAX_RADIUS_GROWTH >= 1.0, "the growth cap cannot shrink R");
const _: () = assert!(
    EXTEND_TARGET >= 1.0 && EXTEND_TARGET <= EARLY_STOP_MARGIN,
    "extend target must be in [1, EARLY_STOP_MARGIN]"
);

/// State travelling along one sub-itinerary.
#[derive(Debug, Clone, PartialEq)]
pub struct SectorToken {
    pub spec: QuerySpec,
    pub sector: u8,
    /// Itinerary geometry; `itin.radius` is the sector's *current* boundary
    /// radius, which rendezvous/assurance may enlarge (geometry is monotone
    /// in the radius, so enlarging only appends itinerary).
    pub itin: ItinerarySpec,
    /// Radius originally estimated by KNNB (growth is capped relative to
    /// this).
    pub initial_radius: f64,
    /// Traversal progress: arc length along the sub-itinerary polyline.
    pub frontier: f64,
    /// Best candidates collected in this sector so far (capped at k).
    pub candidates: CandidateSet,
    /// Number of distinct nodes that replied in this sector.
    pub explored: u32,
    /// Fastest node speed observed in collected replies (m/s); input to
    /// the mobility assurance rule (§4.3).
    pub max_speed: f64,
    /// Dissemination start time `ts`.
    pub started_at: SimTime,
    /// Known per-sector explored counts from rendezvous exchanges
    /// (own sector's count lives in `explored`, not here).
    pub sector_counts: Vec<(u8, u32)>,
    /// Mobility assurance has been applied (it is applied once, by the
    /// "last Q-node", when the traversal first reaches the itinerary end).
    pub assured: bool,
    /// Explored count when the last under-count extension was granted;
    /// an extension that finds nothing new stops further extension.
    pub explored_at_extend: Option<u32>,
    /// Arc length of the last rendezvous broadcast (throttling).
    pub last_rendezvous: f64,
    /// Q-node hops taken so far.
    pub hops: u32,
    /// Active void detour: the itinerary target being geo-routed toward
    /// with full GPSR (perimeter forwarding mode, §5.2) — `(target
    /// arc-length, routing header)`.
    pub detour: Option<(f64, diknn_routing::GpsrHeader)>,
    /// Monotonic duplicate-suppression epoch: the token-loss watchdog bumps
    /// this on every re-issue, and Q-nodes drop tokens whose epoch is below
    /// the highest they have recorded for `(qid, attempt, sector)`.
    pub epoch: u32,
    /// Watchdog re-issues this token has survived (bounds the recovery
    /// budget per sector).
    pub reissues: u32,
}

diknn_snap::snap_struct!(SectorToken {
    spec,
    sector,
    itin,
    initial_radius,
    frontier,
    candidates,
    explored,
    max_speed,
    started_at,
    sector_counts,
    assured,
    explored_at_extend,
    last_rendezvous,
    hops,
    detour,
    epoch,
    reissues
});

/// Why a boundary extension was granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtendReason {
    /// Mobility assurance `R' = R + g·(te − ts)·µ` (§4.3).
    Assurance,
    /// Rendezvous says fewer than k nodes explored network-wide.
    UnderCount,
}

/// What the current Q-node should do with the token after data collection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenDecision {
    /// Keep traversing the itinerary.
    Continue,
    /// Enough nodes are (estimated) explored network-wide: stop now and
    /// report (rendezvous early termination, §4.3).
    FinishEarly,
    /// The itinerary end was reached and the boundary should grow to the
    /// given new radius.
    Extend(f64, ExtendReason),
    /// The itinerary end was reached and the sector is done: report.
    Finish,
}

impl SectorToken {
    pub fn new(spec: QuerySpec, sector: u8, itin: ItinerarySpec, now: SimTime) -> Self {
        SectorToken {
            spec,
            sector,
            initial_radius: itin.radius,
            itin,
            frontier: 0.0,
            candidates: CandidateSet::new(spec.k as usize),
            explored: 0,
            max_speed: 0.0,
            started_at: now,
            sector_counts: Vec::new(),
            assured: false,
            explored_at_extend: None,
            last_rendezvous: 0.0,
            hops: 0,
            detour: None,
            epoch: 0,
            reissues: 0,
        }
    }

    /// Whether this sector traverses its peri-segments in the inverted
    /// direction (every interseptal sector, so adjacent sub-itineraries
    /// meet at the borders).
    pub fn reversed(&self) -> bool {
        self.sector % 2 == 1
    }

    /// Merge a rendezvous count report (keeping the max seen per sector).
    pub fn merge_counts(&mut self, counts: &[(u8, u32)]) {
        for &(s, c) in counts {
            if s == self.sector {
                continue;
            }
            match self.sector_counts.iter_mut().find(|(s2, _)| *s2 == s) {
                Some((_, c2)) => *c2 = (*c2).max(c),
                None => self.sector_counts.push((s, c)),
            }
        }
    }

    /// The counts this token would advertise at a rendezvous: its own
    /// sector plus everything it has learned.
    pub fn advertised_counts(&self) -> Vec<(u8, u32)> {
        let mut counts = self.sector_counts.clone();
        counts.push((self.sector, self.explored));
        counts.sort_unstable();
        counts
    }

    /// Estimate of the total nodes explored across *all* sectors: known
    /// counts plus bilinear-style interpolation (the mean of known sectors)
    /// for sectors not yet heard from (§4.3, Figure 6b).
    ///
    /// Rendezvous counts are snapshots that go stale while every sector
    /// keeps exploring; since sectors progress roughly symmetrically, a
    /// known count below our own current count is floored at our own — the
    /// "bilinear interpolation to complement not-yet-exchanged information"
    /// of the paper, adapted to monotone counters.
    pub fn estimated_total_explored(&self, sectors: usize) -> f64 {
        let own = self.explored as f64;
        let known: Vec<f64> = self
            .sector_counts
            .iter()
            .take(sectors.saturating_sub(1))
            .map(|&(_, c)| (c as f64).max(own))
            .collect();
        let known_n = 1 + known.len();
        let sum = own + known.iter().sum::<f64>();
        let mean = sum / known_n as f64;
        sum + mean * (sectors.saturating_sub(known_n)) as f64
    }

    /// Decide what to do at the current traversal position.
    ///
    /// * `at_end` — the frontier has reached the end of the sub-itinerary.
    /// * `now` — current time (for the assurance shift `(te − ts)·µ`).
    pub fn decide(&self, cfg: &DiknnConfig, now: SimTime, at_end: bool) -> TokenDecision {
        let k = self.spec.k as f64;
        // Rendezvous early termination: globally enough nodes explored.
        // Requires at least one exchange so a lone sector's extrapolation
        // cannot silence the others.
        if cfg.rendezvous
            && !self.sector_counts.is_empty()
            && self.estimated_total_explored(cfg.sectors) >= EARLY_STOP_MARGIN * k
        {
            return TokenDecision::FinishEarly;
        }
        if !at_end {
            return TokenDecision::Continue;
        }
        let cap = self.initial_radius * MAX_RADIUS_GROWTH;
        // A previous extension that discovered nothing new means this
        // sector has run out of nodes (field edge, void): stop.
        let futile = self.explored_at_extend.is_some_and(|e| self.explored <= e);
        // Mobility assurance (§4.3): R' = R + g·(te − ts)·µ, applied once
        // by the last Q-node.
        if !self.assured && cfg.assurance_gain > 0.0 && self.max_speed > 0.0 {
            let shift = cfg.assurance_gain * (now - self.started_at).as_secs_f64() * self.max_speed;
            let new_r = (self.itin.radius + shift).min(cap);
            if new_r > self.itin.radius + 1e-6 {
                return TokenDecision::Extend(new_r, ExtendReason::Assurance);
            }
        }
        // Under-count extension: the network-wide estimate has not reached
        // the extension target — grow by one itinerary width and continue
        // (unless the previous extension was futile).
        if cfg.rendezvous
            && !futile
            && self.estimated_total_explored(cfg.sectors) < EXTEND_TARGET * k
            && self.itin.radius + 1e-9 < cap
        {
            let new_r = (self.itin.radius + self.itin.width).min(cap);
            return TokenDecision::Extend(new_r, ExtendReason::UnderCount);
        }
        TokenDecision::Finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::Candidate;
    use diknn_geom::Point;
    use diknn_sim::NodeId;

    fn spec(k: u32) -> QuerySpec {
        QuerySpec {
            qid: 7,
            sink: NodeId(0),
            sink_pos: Point::ORIGIN,
            q: Point::new(50.0, 50.0),
            k,
            issued_at: SimTime::ZERO,
            attempt: 0,
        }
    }

    fn token(k: u32) -> SectorToken {
        SectorToken::new(
            spec(k),
            1,
            ItinerarySpec::new(Point::new(50.0, 50.0), 30.0, 8, 17.32),
            SimTime::ZERO,
        )
    }

    fn fill_candidates(t: &mut SectorToken, n: u32) {
        for i in 0..n {
            t.candidates.insert(Candidate {
                id: NodeId(100 + i),
                position: Point::ORIGIN,
                dist: i as f64,
            });
        }
    }

    #[test]
    fn reversed_on_odd_sectors() {
        let mut t = token(5);
        assert!(t.reversed());
        t.sector = 2;
        assert!(!t.reversed());
    }

    #[test]
    fn merge_counts_keeps_max_and_skips_own() {
        let mut t = token(5);
        t.merge_counts(&[(2, 10), (3, 4), (1, 99)]);
        t.merge_counts(&[(2, 7), (3, 8)]);
        let mut got = t.sector_counts.clone();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 10), (3, 8)]);
    }

    #[test]
    fn estimate_interpolates_unknown_sectors() {
        let mut t = token(5);
        t.explored = 6;
        t.merge_counts(&[(2, 10), (3, 8)]);
        // Known: 6 + 10 + 8 = 24 over 3 sectors, mean 8; 5 unknown sectors
        // contribute 5×8 = 40. Total 64.
        assert!((t.estimated_total_explored(8) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn early_stop_requires_rendezvous_exchange() {
        let cfg = DiknnConfig::default();
        let mut t = token(8);
        t.explored = 100;
        // No rendezvous info yet: a lone sector never stops the others.
        assert_eq!(
            t.decide(&cfg, SimTime::ZERO, false),
            TokenDecision::Continue
        );
        t.merge_counts(&[(2, 100)]);
        assert_eq!(
            t.decide(&cfg, SimTime::ZERO, false),
            TokenDecision::FinishEarly
        );
    }

    #[test]
    fn no_early_stop_below_margin() {
        let cfg = DiknnConfig::default();
        let mut t = token(100);
        t.explored = 10;
        t.merge_counts(&[(2, 9), (3, 11)]);
        // est ≈ 10+10+11 + 5×10.3 ≈ 82 < 1.25 × 100.
        assert_eq!(
            t.decide(&cfg, SimTime::ZERO, false),
            TokenDecision::Continue
        );
    }

    #[test]
    fn early_stop_disabled_without_rendezvous() {
        let cfg = DiknnConfig {
            rendezvous: false,
            ..DiknnConfig::default()
        };
        let mut t = token(8);
        t.explored = 100;
        t.merge_counts(&[(2, 100)]);
        fill_candidates(&mut t, 8);
        assert_eq!(
            t.decide(&cfg, SimTime::ZERO, false),
            TokenDecision::Continue
        );
    }

    #[test]
    fn assurance_extends_at_end() {
        let cfg = DiknnConfig::default();
        let mut t = token(8);
        t.max_speed = 10.0;
        let te = SimTime::from_secs_f64(2.0);
        // Shift = 0.1 × 2 s × 10 m/s = 2 m.
        match t.decide(&cfg, te, true) {
            TokenDecision::Extend(r, ExtendReason::Assurance) => {
                assert!((r - 32.0).abs() < 1e-9)
            }
            other => panic!("expected Extend, got {other:?}"),
        }
        t.assured = true;
        t.explored = 100; // plenty explored: rendezvous stops it early
        t.merge_counts(&[(0, 100)]);
        assert_eq!(t.decide(&cfg, te, true), TokenDecision::FinishEarly);
    }

    #[test]
    fn assurance_respects_growth_cap() {
        let cfg = DiknnConfig::default();
        let mut t = token(8);
        t.max_speed = 30.0;
        let te = SimTime::from_secs_f64(100.0);
        match t.decide(&cfg, te, true) {
            // Cap = 2 × 30 m = 60 m regardless of the 300 m shift.
            TokenDecision::Extend(r, ExtendReason::Assurance) => {
                assert!((r - 60.0).abs() < 1e-9)
            }
            other => panic!("expected Extend, got {other:?}"),
        }
    }

    #[test]
    fn undercount_extension_when_too_few_explored() {
        let cfg = DiknnConfig::default();
        let mut t = token(50);
        t.assured = true;
        t.explored = 2;
        t.merge_counts(&[(0, 1), (2, 2)]);
        match t.decide(&cfg, SimTime::ZERO, true) {
            TokenDecision::Extend(r, ExtendReason::UnderCount) => {
                assert!((r - (30.0 + t.itin.width)).abs() < 1e-9);
            }
            other => panic!("expected Extend, got {other:?}"),
        }
    }

    #[test]
    fn finish_when_done_without_rendezvous() {
        let cfg = DiknnConfig {
            assurance_gain: 0.0,
            rendezvous: false,
            ..DiknnConfig::default()
        };
        let mut t = token(4);
        t.explored = 10;
        assert_eq!(t.decide(&cfg, SimTime::ZERO, true), TokenDecision::Finish);
    }

    #[test]
    fn futile_extension_finishes() {
        let cfg = DiknnConfig {
            assurance_gain: 0.0,
            ..DiknnConfig::default()
        };
        let mut t = token(50);
        t.explored = 2;
        t.merge_counts(&[(0, 1)]);
        // First end-of-itinerary: under-count extension granted.
        match t.decide(&cfg, SimTime::ZERO, true) {
            TokenDecision::Extend(_, ExtendReason::UnderCount) => {}
            other => panic!("expected under-count extend, got {other:?}"),
        }
        // Simulate the extension finding nothing new.
        t.explored_at_extend = Some(t.explored);
        t.itin.radius += t.itin.width;
        assert_eq!(t.decide(&cfg, SimTime::ZERO, true), TokenDecision::Finish);
    }

    #[test]
    fn advertised_counts_include_own_sector() {
        let mut t = token(5);
        t.explored = 3;
        t.merge_counts(&[(4, 9)]);
        assert_eq!(t.advertised_counts(), vec![(1, 3), (4, 9)]);
    }
}
