//! GPSR — Greedy Perimeter Stateless Routing (Karp & Kung, MOBICOM 2000).
//!
//! All three protocols in this reproduction route query messages
//! geographically: DIKNN's routing phase sends the query from the sink
//! toward the query point `q` (§4.1), KPT routes to the home node, Peer-tree
//! unicasts between clusterheads, and every protocol routes results back to
//! the sink. The paper states "any geographic face routing protocol is
//! compatible with DIKNN" and uses GPSR in the evaluation.
//!
//! This implementation is a *pure routing planner*: [`plan_next_hop`] maps
//! (my position, my neighbour table, packet header) to a routing decision,
//! with all mutable state carried in the [`GpsrHeader`] that travels inside
//! protocol messages. That keeps GPSR stateless at the nodes (its defining
//! property) and makes the planner unit-testable without a simulator.
//!
//! Covered:
//! * greedy forwarding to the neighbour closest to the destination;
//! * perimeter mode on a Gabriel-graph planarization of the local
//!   neighbourhood, right-hand rule, with recovery back to greedy as soon
//!   as a node closer than the perimeter entry point is reached;
//! * loop/TTL termination: a perimeter walk that re-traverses its first
//!   edge (destination unreachable) terminates at the current node, which
//!   is the standard "home node" behaviour for location-addressed packets.
//!
//! Simplification vs. the full paper protocol: we do not implement the
//! face-change bookkeeping (`Lf` intersection points); the first-edge loop
//! rule plus greedy recovery is the GFG-style variant, which is sufficient
//! on the connected networks the evaluation uses and fails safe (terminates
//! at a nearby node) otherwise.
// Shared strict-lint header (checked by `cargo xtask lint`): the
// simulation stack must stay safe Rust, and determinism rules are enforced
// by clippy `disallowed-types`/`disallowed-methods` plus `cargo xtask lint`.
#![forbid(unsafe_code)]
#![deny(unused_must_use)]

mod planar;

pub use planar::gabriel_neighbors;

use diknn_sim::{Ctx, SimTime};

/// `at`'s neighbour table filtered down to entries whose link is predicted
/// to still exist: the advertised position plus the worst-case drift since
/// the beacon (`(now − heard_at) · (their speed + my speed)`) must stay
/// inside the radio range.
///
/// Under mobility, table entries are up to a beacon interval stale; blindly
/// unicasting to a departed neighbour burns a full ARQ cycle. All protocols
/// in this reproduction pre-filter their unicast targets with this
/// predictor, falling back to the raw table when it empties (better a risky
/// link than none).
pub fn reliable<M: Clone>(ctx: &mut Ctx<M>, at: NodeId) -> Vec<Neighbor> {
    let raw = ctx.neighbors(at);
    reliable_neighbors(
        ctx.position(at),
        ctx.speed(at),
        ctx.now(),
        &raw,
        ctx.config().radio_range,
    )
}

/// The predictor behind [`reliable`], on explicit inputs.
fn reliable_neighbors(
    my_pos: Point,
    my_speed: f64,
    now: SimTime,
    neighbors: &[Neighbor],
    radio_range: f64,
) -> Vec<Neighbor> {
    let filtered: Vec<Neighbor> = neighbors
        .iter()
        .filter(|n| {
            let staleness = (now - n.heard_at).as_secs_f64();
            let drift = staleness * (n.speed + my_speed);
            n.position.dist(my_pos) + drift <= radio_range
        })
        .copied()
        .collect();
    if filtered.is_empty() {
        neighbors.to_vec()
    } else {
        filtered
    }
}

use diknn_geom::Point;
use diknn_sim::{Neighbor, NodeId};

/// Routing mode carried in the packet header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpsrMode {
    /// Greedy geographic forwarding.
    Greedy,
    /// Perimeter (face) traversal entered at a local minimum.
    Perimeter {
        /// Distance from the perimeter entry node to the destination;
        /// greedy resumes at any node strictly closer than this.
        entry_dist: f64,
        /// First edge taken on the perimeter (from, to); re-traversing it
        /// means the walk looped and the destination is unreachable.
        first_edge: (NodeId, NodeId),
    },
}

/// The GPSR state that travels with a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsrHeader {
    /// Geographic destination.
    pub dest: Point,
    pub mode: GpsrMode,
    /// Hops taken so far.
    pub hops: u32,
    /// Remaining hop budget; the packet terminates where it is when this
    /// reaches zero (fail-safe against pathological topologies).
    pub ttl: u32,
    /// Smallest *true* distance to the destination observed at any node the
    /// packet has visited. With beacon-stale tables, greedy can cycle
    /// between nodes that each believe another is closer; a node that does
    /// not improve on this bound is treated as a local minimum, which cuts
    /// such cycles after one lap.
    pub best_dist: f64,
}

diknn_snap::snap_enum!(GpsrMode {
    0 => Greedy,
    1 => Perimeter { entry_dist, first_edge },
});
diknn_snap::snap_struct!(GpsrHeader {
    dest,
    mode,
    hops,
    ttl,
    best_dist
});

impl GpsrHeader {
    /// A fresh greedy header toward `dest` with the default TTL.
    pub fn new(dest: Point) -> Self {
        GpsrHeader {
            dest,
            mode: GpsrMode::Greedy,
            hops: 0,
            ttl: 128,
            best_dist: f64::INFINITY,
        }
    }

    pub fn with_ttl(dest: Point, ttl: u32) -> Self {
        GpsrHeader {
            ttl,
            ..Self::new(dest)
        }
    }
}

/// Decision produced by [`plan_next_hop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteStep {
    /// Forward to this neighbour with the updated header.
    Forward { next: NodeId, header: GpsrHeader },
    /// This node terminates the route: it is the local minimum for the
    /// destination (the "home node" for a location-addressed packet), or
    /// the TTL expired, or a perimeter loop proved the destination
    /// unreachable.
    Arrived,
    /// No usable neighbour at all (isolated node).
    NoRoute,
}

/// Decide the next hop at node `me` for a packet with `header`.
///
/// * `prev` — id and position of the node the packet arrived from (None at
///   the originator). The position feeds the right-hand rule; the id is
///   excluded from greedy choices — with beacon-stale tables two nodes can
///   each believe the other is closer and ping-pong the packet, so greedy
///   never hands a packet straight back.
/// * `exclude` — neighbours to skip (e.g. ones that just failed at the link
///   layer); pass `&[]` normally.
/// * `home_radius` — location-addressed termination rule: a greedy local
///   minimum within this distance of the destination *is* the home node and
///   the route ends there instead of probing the face perimeter. Protocols
///   pass the radio range `r`; pass `0.0` to always probe voids.
pub fn plan_next_hop(
    me: NodeId,
    my_pos: Point,
    header: &GpsrHeader,
    neighbors: &[Neighbor],
    prev: Option<(NodeId, Point)>,
    exclude: &[NodeId],
    home_radius: f64,
) -> RouteStep {
    if header.ttl == 0 {
        return Arrived_or_noroute(neighbors, exclude);
    }
    let usable: Vec<&Neighbor> = neighbors
        .iter()
        .filter(|n| n.id != me && !exclude.contains(&n.id))
        .collect();
    if usable.is_empty() {
        return RouteStep::NoRoute;
    }
    let my_dist = my_pos.dist(header.dest);
    let prev_pos = prev.map(|(_, p)| p);

    match header.mode {
        GpsrMode::Greedy => {
            // Stagnation rule: this node is no closer than the best point
            // the packet has already reached — stale tables are cycling it.
            // Treat as a local minimum.
            let stagnant = my_dist >= header.best_dist - 1e-9;
            // Closest neighbour to the destination, if strictly closer than
            // this node. Never straight back to the previous hop.
            let candidate = usable
                .iter()
                .filter(|n| prev.map(|(id, _)| id) != Some(n.id))
                .min_by(|a, b| {
                    a.position
                        .dist(header.dest)
                        .total_cmp(&b.position.dist(header.dest))
                        .then(a.id.cmp(&b.id))
                })
                .filter(|n| n.position.dist(header.dest) < my_dist);
            if let Some(best) = candidate.filter(|_| !stagnant) {
                return RouteStep::Forward {
                    next: best.id,
                    header: GpsrHeader {
                        hops: header.hops + 1,
                        ttl: header.ttl - 1,
                        best_dist: header.best_dist.min(my_dist),
                        ..*header
                    },
                };
            }
            // Local minimum. If the destination is already inside this
            // node's radio disc no other node can be meaningfully closer:
            // this is the home node.
            if my_dist <= home_radius {
                return RouteStep::Arrived;
            }
            // Otherwise enter perimeter mode on the planar subgraph.
            let planar = gabriel_neighbors(my_pos, &usable);
            if planar.is_empty() {
                return RouteStep::Arrived;
            }
            // First perimeter edge: right-hand rule relative to the
            // direction toward the destination.
            let Some(next) = right_hand_next(my_pos, header.dest, &planar, None) else {
                return RouteStep::Arrived;
            };
            RouteStep::Forward {
                next: next.id,
                header: GpsrHeader {
                    mode: GpsrMode::Perimeter {
                        entry_dist: my_dist,
                        first_edge: (me, next.id),
                    },
                    hops: header.hops + 1,
                    ttl: header.ttl - 1,
                    ..*header
                },
            }
        }
        GpsrMode::Perimeter {
            entry_dist,
            first_edge,
        } => {
            // Progress rule: closer than the entry point → back to greedy.
            if my_dist < entry_dist {
                let greedy_header = GpsrHeader {
                    mode: GpsrMode::Greedy,
                    ..*header
                };
                return plan_next_hop(
                    me,
                    my_pos,
                    &greedy_header,
                    neighbors,
                    prev,
                    exclude,
                    home_radius,
                );
            }
            let planar = gabriel_neighbors(my_pos, &usable);
            if planar.is_empty() {
                return RouteStep::Arrived;
            }
            let Some(next) = right_hand_next(my_pos, header.dest, &planar, prev_pos) else {
                return RouteStep::Arrived;
            };
            // Loop detection: we are about to re-traverse the first edge.
            if (me, next.id) == first_edge {
                return RouteStep::Arrived;
            }
            RouteStep::Forward {
                next: next.id,
                header: GpsrHeader {
                    hops: header.hops + 1,
                    ttl: header.ttl - 1,
                    ..*header
                },
            }
        }
    }
}

#[allow(non_snake_case)]
fn Arrived_or_noroute(neighbors: &[Neighbor], exclude: &[NodeId]) -> RouteStep {
    if neighbors.iter().any(|n| !exclude.contains(&n.id)) {
        RouteStep::Arrived
    } else {
        RouteStep::NoRoute
    }
}

/// Right-hand rule: the next edge is the first one counter-clockwise about
/// this node from the reference direction (the reversed incoming edge, or
/// the direction toward the destination when entering perimeter mode).
fn right_hand_next<'a>(
    my_pos: Point,
    dest: Point,
    planar: &[&'a Neighbor],
    prev_pos: Option<Point>,
) -> Option<&'a Neighbor> {
    let ref_angle = match prev_pos {
        Some(p) if p != my_pos => my_pos.angle_to(p),
        _ => my_pos.angle_to(dest),
    };
    planar
        .iter()
        .filter(|n| n.position != my_pos)
        .min_by(|a, b| {
            let sa = sweep_key(my_pos, ref_angle, a.position);
            let sb = sweep_key(my_pos, ref_angle, b.position);
            sa.total_cmp(&sb).then(a.id.cmp(&b.id))
        })
        .copied()
}

/// Counter-clockwise sweep from the reference direction, with the exact
/// reference direction itself (the node we came from) placed *last*
/// so it is only chosen when it is the sole planar option.
fn sweep_key(my_pos: Point, ref_angle: f64, to: Point) -> f64 {
    let sweep = diknn_geom::angle::ccw_sweep(ref_angle, my_pos.angle_to(to));
    if sweep <= 1e-12 {
        diknn_geom::TAU
    } else {
        sweep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diknn_sim::SimTime;

    fn nb(id: u32, x: f64, y: f64) -> Neighbor {
        Neighbor {
            id: NodeId(id),
            position: Point::new(x, y),
            speed: 0.0,
            heard_at: SimTime::ZERO,
        }
    }

    #[test]
    fn greedy_picks_closest_to_dest() {
        let header = GpsrHeader::new(Point::new(100.0, 0.0));
        let nbs = vec![nb(1, 10.0, 0.0), nb(2, 15.0, 0.0), nb(3, 5.0, 10.0)];
        let step = plan_next_hop(NodeId(0), Point::ORIGIN, &header, &nbs, None, &[], 0.0);
        match step {
            RouteStep::Forward { next, header } => {
                assert_eq!(next, NodeId(2));
                assert_eq!(header.hops, 1);
                assert_eq!(header.mode, GpsrMode::Greedy);
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn local_minimum_with_no_planar_neighbors_terminates() {
        let header = GpsrHeader::new(Point::new(0.0, 0.0));
        // This node is at the destination already; all neighbours farther.
        let nbs = vec![nb(1, 10.0, 0.0)];
        let step = plan_next_hop(
            NodeId(0),
            Point::new(1.0, 0.0),
            &header,
            &nbs,
            None,
            &[],
            0.0,
        );
        // Neighbour 1 is farther from dest; perimeter starts.
        match step {
            RouteStep::Forward { header, .. } => {
                assert!(matches!(header.mode, GpsrMode::Perimeter { .. }));
            }
            RouteStep::Arrived => {}
            RouteStep::NoRoute => panic!("has a neighbour"),
        }
    }

    #[test]
    fn no_neighbors_is_noroute() {
        let header = GpsrHeader::new(Point::new(100.0, 0.0));
        let step = plan_next_hop(NodeId(0), Point::ORIGIN, &header, &[], None, &[], 0.0);
        assert_eq!(step, RouteStep::NoRoute);
    }

    #[test]
    fn exclusion_skips_failed_neighbor() {
        let header = GpsrHeader::new(Point::new(100.0, 0.0));
        let nbs = vec![nb(1, 15.0, 0.0), nb(2, 10.0, 0.0)];
        let step = plan_next_hop(
            NodeId(0),
            Point::ORIGIN,
            &header,
            &nbs,
            None,
            &[NodeId(1)],
            0.0,
        );
        match step {
            RouteStep::Forward { next, .. } => assert_eq!(next, NodeId(2)),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn ttl_zero_arrives_in_place() {
        let mut header = GpsrHeader::new(Point::new(100.0, 0.0));
        header.ttl = 0;
        let nbs = vec![nb(1, 10.0, 0.0)];
        let step = plan_next_hop(NodeId(0), Point::ORIGIN, &header, &nbs, None, &[], 0.0);
        assert_eq!(step, RouteStep::Arrived);
    }

    #[test]
    fn perimeter_recovers_to_greedy_when_closer() {
        let header = GpsrHeader {
            dest: Point::new(100.0, 0.0),
            mode: GpsrMode::Perimeter {
                entry_dist: 90.0,
                first_edge: (NodeId(9), NodeId(8)),
            },
            hops: 3,
            ttl: 60,
            best_dist: f64::INFINITY,
        };
        // This node is at distance 80 (< entry 90): greedy resumes.
        let nbs = vec![nb(1, 30.0, 0.0)];
        let step = plan_next_hop(
            NodeId(0),
            Point::new(20.0, 0.0),
            &header,
            &nbs,
            Some((NodeId(99), Point::new(15.0, 5.0))),
            &[],
            0.0,
        );
        match step {
            RouteStep::Forward { next, header } => {
                assert_eq!(next, NodeId(1));
                assert_eq!(header.mode, GpsrMode::Greedy);
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn perimeter_loop_terminates() {
        let header = GpsrHeader {
            dest: Point::new(100.0, 100.0),
            mode: GpsrMode::Perimeter {
                entry_dist: 10.0,
                first_edge: (NodeId(0), NodeId(1)),
            },
            hops: 5,
            ttl: 60,
            best_dist: f64::INFINITY,
        };
        // Only planar neighbour is 1 and we'd re-traverse the first edge.
        let nbs = vec![nb(1, 10.0, 0.0)];
        let step = plan_next_hop(
            NodeId(0),
            Point::new(0.0, 0.0),
            &header,
            &nbs,
            Some((NodeId(1), Point::new(10.0, 0.0))),
            &[],
            0.0,
        );
        assert_eq!(step, RouteStep::Arrived);
    }
}

#[cfg(test)]
mod reliability_tests {
    use super::*;
    use diknn_sim::SimTime;

    fn nb(id: u32, x: f64, speed: f64, heard_s: f64) -> Neighbor {
        Neighbor {
            id: NodeId(id),
            position: Point::new(x, 0.0),
            speed,
            heard_at: SimTime::from_secs_f64(heard_s),
        }
    }

    #[test]
    fn fresh_close_neighbors_survive() {
        let now = SimTime::from_secs_f64(10.0);
        let nbs = vec![nb(1, 5.0, 10.0, 9.9), nb(2, 19.0, 10.0, 9.0)];
        let kept = reliable_neighbors(Point::ORIGIN, 0.0, now, &nbs, 20.0);
        // Neighbor 1: 5 + 0.1×10 = 6 ≤ 20 ✓. Neighbor 2: 19 + 1×10 = 29 ✗.
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].id, NodeId(1));
    }

    #[test]
    fn falls_back_to_raw_table_when_all_risky() {
        let now = SimTime::from_secs_f64(10.0);
        let nbs = vec![nb(1, 19.0, 30.0, 8.0)];
        let kept = reliable_neighbors(Point::ORIGIN, 10.0, now, &nbs, 20.0);
        assert_eq!(kept.len(), 1, "must not leave the caller stranded");
    }

    #[test]
    fn own_speed_counts_toward_drift() {
        let now = SimTime::from_secs_f64(1.0);
        let nbs = vec![nb(1, 15.0, 0.0, 0.0), nb(2, 3.0, 0.0, 0.0)];
        // One second stale; my speed 10 m/s: 15 + 10 > 20 drops id 1.
        let kept = reliable_neighbors(Point::ORIGIN, 10.0, now, &nbs, 20.0);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].id, NodeId(2));
    }
}
