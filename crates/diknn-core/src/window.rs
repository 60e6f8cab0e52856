//! Itinerary-based window (range) queries — the \[31\] foundation DIKNN
//! builds on ("an infrastructure-free method was proposed in \[31\] but it
//! applies to window query only", §2).
//!
//! A window query asks for *all* sensor nodes inside an axis-aligned
//! rectangle. The itinerary is a horizontal comb sweep over the window:
//! parallel scanlines spaced `w` apart, connected at alternating ends —
//! the same coverage argument (`w = √3·r/2`) as DIKNN's sub-itineraries.
//!
//! This module provides the itinerary geometry plus the [`WindowQuery`]
//! protocol: route to the window's entry corner, sweep it with a single
//! Q-node token collecting responses, and route the result back to the
//! sink. It shares the simulator, the GPSR forwarding step
//! ([`diknn_routing::next_hop`]) and the itinerary [`Walk`] with DIKNN;
//! where DIKNN detours around a void, the sweep skips it.

use std::collections::{BTreeMap, BTreeSet};

use diknn_geom::{Point, Polyline, Rect};
use diknn_routing::{next_hop, reliable, GpsrHeader};
use diknn_sim::config::RADIO_RANGE;
use diknn_sim::{pack_timer_key, unpack_timer_key, Ctx, NodeId, Protocol, SimDuration, SimTime};
use rand::Rng;

use crate::candidates::Candidate;
use crate::config::{BASE_MSG_BYTES, COLLECTION_UNIT, CONTENTION_SLOTS, RESPONSE_BYTES};
use crate::itinerary::{ItinerarySpec, Walk, WalkStep};
use crate::outcome::K_ISSUE;

/// Timer kinds after the shared `K_ISSUE`.
const K_COLLECT: u8 = 2;
const K_REPLY: u8 = 3;

/// How long a Q-node's probe collects replies: one contention window.
const COLLECTION_WINDOW: f64 = COLLECTION_UNIT * CONTENTION_SLOTS;

/// Build the comb-sweep itinerary over `window` with scanline spacing `w`.
/// The sweep starts at the bottom-left corner and serpentines upward.
pub fn window_itinerary(window: Rect, w: f64) -> Polyline {
    assert!(w > 0.0, "scanline spacing must be positive");
    assert!(!window.is_empty(), "empty window");
    let mut pts = Vec::new();
    // Scanlines at y = min + w/2, min + 3w/2, … covering the full height.
    let mut y = window.min_y + w / 2.0;
    let mut leftward = false;
    // Degenerate short windows still get one central scanline.
    if window.height() <= w {
        y = (window.min_y + window.max_y) / 2.0;
    }
    loop {
        let (x0, x1) = if leftward {
            (window.max_x, window.min_x)
        } else {
            (window.min_x, window.max_x)
        };
        pts.push(Point::new(x0, y));
        pts.push(Point::new(x1, y));
        leftward = !leftward;
        // Stop only once this scanline already covers the top edge;
        // otherwise place the next line, clamped so it never overshoots
        // (the final pair of lines may be closer than w, never farther).
        if y + w / 2.0 >= window.max_y - 1e-9 {
            break;
        }
        y = (y + w).min(window.max_y - w / 2.0);
    }
    Polyline::new(pts)
}

/// A window query request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRequest {
    /// Issue time in seconds.
    pub at: f64,
    pub sink: NodeId,
    pub window: Rect,
}

/// Outcome of a window query.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    pub qid: u32,
    pub sink: NodeId,
    pub window: Rect,
    pub issued_at: SimTime,
    pub completed_at: Option<SimTime>,
    /// Nodes reported inside the window (with their reported positions).
    pub members: Vec<Candidate>,
    /// Q-node hops taken by the sweep.
    pub sweep_hops: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WSpec {
    qid: u32,
    sink: NodeId,
    sink_pos: Point,
    window: Rect,
}

/// Window-query wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowMsg {
    /// Routing phase toward the sweep entry point.
    Query { spec: WSpec, gpsr: GpsrHeader },
    /// Sweep token hopping Q-node to Q-node.
    Token {
        spec: WSpec,
        frontier: f64,
        members: Vec<Candidate>,
        hops: u32,
    },
    /// Q-node probe soliciting in-window responses.
    Probe {
        qid: u32,
        qnode: NodeId,
        window: Rect,
        win_secs: f64,
    },
    /// D-node response.
    Reply {
        qid: u32,
        node: NodeId,
        position: Point,
    },
    /// Final member list routed back to the sink.
    Result {
        spec: WSpec,
        gpsr: GpsrHeader,
        members: Vec<Candidate>,
        hops: u32,
    },
}

impl WindowMsg {
    /// Query id for per-query energy attribution (every window frame is
    /// query-scoped).
    fn qid(&self) -> u32 {
        match self {
            WindowMsg::Query { spec, .. }
            | WindowMsg::Token { spec, .. }
            | WindowMsg::Result { spec, .. } => spec.qid,
            WindowMsg::Probe { qid, .. } | WindowMsg::Reply { qid, .. } => *qid,
        }
    }

    /// Approximate on-air payload size in bytes: the shared base, the
    /// window (8) or probe fields (16), and a response per member.
    fn wire_bytes(&self) -> usize {
        match self {
            WindowMsg::Query { .. } => BASE_MSG_BYTES + 8,
            WindowMsg::Token { members, .. } | WindowMsg::Result { members, .. } => {
                BASE_MSG_BYTES + 8 + RESPONSE_BYTES * members.len()
            }
            WindowMsg::Probe { .. } => BASE_MSG_BYTES + 16,
            WindowMsg::Reply { .. } => BASE_MSG_BYTES + RESPONSE_BYTES,
        }
    }
}

struct Collecting {
    node: NodeId,
    spec: WSpec,
    frontier: f64,
    members: Vec<Candidate>,
    hops: u32,
}

/// The itinerary window-query protocol.
pub struct WindowQuery {
    requests: Vec<WindowRequest>,
    outcomes: Vec<WindowOutcome>,
    /// Scanline spacing: the recommended width for the radio range.
    width: f64,
    collecting: BTreeMap<u32, Collecting>,
    responded: BTreeSet<(u32, u32)>,
    pending_replies: BTreeMap<(u32, u32), NodeId>,
    /// Neighbours that failed to take the sweep token, per query (cleared
    /// on successful handoff).
    token_excludes: BTreeMap<u32, Vec<NodeId>>,
    /// Next hops that failed the query or its result, per query (cleared
    /// when a hop succeeds).
    route_excludes: BTreeMap<u32, Vec<NodeId>>,
}

impl WindowQuery {
    pub fn new(requests: Vec<WindowRequest>) -> Self {
        WindowQuery {
            requests,
            outcomes: Vec::new(),
            width: ItinerarySpec::recommended_width(RADIO_RANGE),
            collecting: BTreeMap::new(),
            responded: BTreeSet::new(),
            pending_replies: BTreeMap::new(),
            token_excludes: BTreeMap::new(),
            route_excludes: BTreeMap::new(),
        }
    }

    pub fn outcomes(&self) -> &[WindowOutcome] {
        &self.outcomes
    }

    fn send(&self, ctx: &mut Ctx<WindowMsg>, from: NodeId, to: NodeId, msg: WindowMsg) {
        let bytes = msg.wire_bytes();
        let flow = Some(msg.qid());
        ctx.unicast_flow(from, to, bytes, msg, flow);
    }

    fn itinerary(&self, spec: &WSpec) -> Polyline {
        window_itinerary(spec.window, self.width)
    }

    fn issue(&mut self, ctx: &mut Ctx<WindowMsg>, idx: usize) {
        let req = self.requests[idx];
        let qid = self.outcomes.len() as u32;
        let spec = WSpec {
            qid,
            sink: req.sink,
            sink_pos: ctx.position(req.sink),
            window: req.window,
        };
        self.outcomes.push(WindowOutcome {
            qid,
            sink: req.sink,
            window: req.window,
            issued_at: ctx.now(),
            completed_at: None,
            members: Vec::new(),
            sweep_hops: 0,
        });
        let entry = self.itinerary(&spec).start();
        self.route_query(ctx, req.sink, spec, GpsrHeader::new(entry), None);
    }

    /// Route the query one hop on toward the sweep's entry point; the node
    /// where the route ends is the entry Q-node.
    fn route_query(
        &mut self,
        ctx: &mut Ctx<WindowMsg>,
        at: NodeId,
        spec: WSpec,
        mut gpsr: GpsrHeader,
        from: Option<NodeId>,
    ) {
        let neighbors = reliable(ctx, at);
        let exclude = self
            .route_excludes
            .get(&spec.qid)
            .map_or(&[][..], Vec::as_slice);
        match next_hop(ctx, at, &neighbors, None, &mut gpsr, from, exclude) {
            Some(next) => self.send(ctx, at, next, WindowMsg::Query { spec, gpsr }),
            None => self.start_collection(ctx, at, spec, 0.0, Vec::new(), 0),
        }
    }

    fn start_collection(
        &mut self,
        ctx: &mut Ctx<WindowMsg>,
        at: NodeId,
        spec: WSpec,
        frontier: f64,
        members: Vec<Candidate>,
        hops: u32,
    ) {
        let probe = WindowMsg::Probe {
            qid: spec.qid,
            qnode: at,
            window: spec.window,
            win_secs: COLLECTION_WINDOW,
        };
        let bytes = probe.wire_bytes();
        ctx.broadcast_flow(at, bytes, probe, Some(spec.qid));
        self.collecting.insert(
            spec.qid,
            Collecting {
                node: at,
                spec,
                frontier,
                members,
                hops,
            },
        );
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(COLLECTION_WINDOW + 0.02),
            pack_timer_key(K_COLLECT, spec.qid, 0),
        );
    }

    /// Collection done: hand the sweep on along the itinerary, or return
    /// the result from here at the end, on a stuck walk, or past 300
    /// sweep hops. A void is skipped, not detoured around.
    fn advance(&mut self, ctx: &mut Ctx<WindowMsg>, coll: Collecting) {
        let Collecting {
            node: at,
            spec,
            frontier,
            members,
            hops,
        } = coll;
        let poly = self.itinerary(&spec);
        let handoff = if hops > 300 {
            None
        } else {
            let neighbors = reliable(ctx, at);
            let exclude = self
                .token_excludes
                .get(&spec.qid)
                .map_or(&[][..], Vec::as_slice);
            let me = ctx.position(at);
            let mut walk = Walk::new(&poly, me, frontier, RADIO_RANGE, self.width);
            loop {
                match walk.step(&neighbors, exclude) {
                    WalkStep::Handoff(next) => break Some((next, walk.frontier())),
                    WalkStep::Void(arclen) if arclen < poly.length() => walk.skip_to(arclen),
                    WalkStep::End | WalkStep::Void(_) | WalkStep::Stuck => break None,
                }
            }
        };
        match handoff {
            Some((next, frontier)) => {
                let token = WindowMsg::Token {
                    spec,
                    frontier,
                    members,
                    hops: hops + 1,
                };
                self.send(ctx, at, next, token);
            }
            None => self.finish(ctx, at, spec, members, hops),
        }
    }

    fn finish(
        &mut self,
        ctx: &mut Ctx<WindowMsg>,
        at: NodeId,
        spec: WSpec,
        members: Vec<Candidate>,
        hops: u32,
    ) {
        let msg = WindowMsg::Result {
            spec,
            gpsr: GpsrHeader::new(spec.sink_pos),
            members,
            hops,
        };
        self.route_result(ctx, at, msg, None);
    }

    /// Route the result one hop on toward the sink, or absorb it there. A
    /// dead end sends it to the sink directly: the MAC retries deliver it
    /// if the sink is still within radio reach.
    fn route_result(
        &mut self,
        ctx: &mut Ctx<WindowMsg>,
        at: NodeId,
        mut msg: WindowMsg,
        from: Option<NodeId>,
    ) {
        let WindowMsg::Result { spec, gpsr, .. } = &mut msg else {
            unreachable!()
        };
        let (qid, sink) = (spec.qid, spec.sink);
        if at == sink {
            return self.absorb(ctx, msg);
        }
        let neighbors = reliable(ctx, at);
        let exclude = self.route_excludes.get(&qid).map_or(&[][..], Vec::as_slice);
        let next = next_hop(ctx, at, &neighbors, Some(sink), gpsr, from, exclude).unwrap_or(sink);
        self.send(ctx, at, next, msg);
    }

    fn absorb(&mut self, ctx: &mut Ctx<WindowMsg>, msg: WindowMsg) {
        let WindowMsg::Result {
            spec,
            members,
            hops,
            ..
        } = msg
        else {
            unreachable!()
        };
        let o = &mut self.outcomes[spec.qid as usize];
        if o.completed_at.is_none() {
            o.completed_at = Some(ctx.now());
            o.members = members;
            o.sweep_hops = hops;
        }
    }
}

impl Protocol for WindowQuery {
    type Msg = WindowMsg;

    fn on_start(&mut self, ctx: &mut Ctx<WindowMsg>) {
        for (i, req) in self.requests.iter().enumerate() {
            ctx.set_timer(
                req.sink,
                SimDuration::from_secs_f64(req.at),
                pack_timer_key(K_ISSUE, 0, i as u32),
            );
        }
    }

    fn on_timer(&mut self, at: NodeId, timer_key: u64, ctx: &mut Ctx<WindowMsg>) {
        let (kind, qid, aux) = unpack_timer_key(timer_key);
        match kind {
            K_ISSUE => self.issue(ctx, aux as usize),
            K_COLLECT => {
                if let Some(coll) = self.collecting.remove(&qid) {
                    self.advance(ctx, coll);
                }
            }
            K_REPLY => {
                if let Some(to) = self.pending_replies.remove(&(qid, at.0)) {
                    let reply = WindowMsg::Reply {
                        qid,
                        node: at,
                        position: ctx.position(at),
                    };
                    self.send(ctx, at, to, reply);
                }
            }
            _ => unreachable!("unknown timer kind"),
        }
    }

    fn on_send_failed(
        &mut self,
        at: NodeId,
        to: NodeId,
        msg: &WindowMsg,
        ctx: &mut Ctx<WindowMsg>,
    ) {
        match msg {
            WindowMsg::Token {
                spec,
                frontier,
                members,
                hops,
            } => {
                let e = self.token_excludes.entry(spec.qid).or_default();
                e.push(to);
                if e.len() <= 12 {
                    // Up to 12 failed successors: pick another from here.
                    let coll = Collecting {
                        node: at,
                        spec: *spec,
                        frontier: *frontier,
                        members: members.clone(),
                        hops: *hops,
                    };
                    self.advance(ctx, coll);
                } else {
                    self.token_excludes.remove(&spec.qid);
                    self.finish(ctx, at, *spec, members.clone(), *hops);
                }
            }
            WindowMsg::Query { spec, .. } | WindowMsg::Result { spec, .. } => {
                // Route around the failed hop, up to 8 times per query.
                let e = self.route_excludes.entry(spec.qid).or_default();
                e.push(to);
                if e.len() > 8 {
                    self.route_excludes.remove(&spec.qid);
                } else if let WindowMsg::Query { spec, gpsr } = msg {
                    self.route_query(ctx, at, *spec, *gpsr, None);
                } else {
                    self.route_result(ctx, at, msg.clone(), None);
                }
            }
            WindowMsg::Probe { .. } | WindowMsg::Reply { .. } => {}
        }
    }

    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &WindowMsg, ctx: &mut Ctx<WindowMsg>) {
        match msg {
            WindowMsg::Query { spec, gpsr } => {
                self.route_excludes.remove(&spec.qid);
                self.route_query(ctx, at, *spec, *gpsr, Some(from));
            }
            WindowMsg::Token {
                spec,
                frontier,
                members,
                hops,
            } => {
                self.token_excludes.remove(&spec.qid);
                self.start_collection(ctx, at, *spec, *frontier, members.clone(), *hops);
            }
            WindowMsg::Probe {
                qid,
                qnode,
                window,
                win_secs,
            } => {
                if !window.contains(ctx.position(at)) {
                    return;
                }
                if !self.responded.insert((*qid, at.0)) {
                    return;
                }
                let delay: f64 = ctx.rng().gen_range(0.0..win_secs.max(0.001));
                self.pending_replies.insert((*qid, at.0), *qnode);
                ctx.set_timer(
                    at,
                    SimDuration::from_secs_f64(delay),
                    pack_timer_key(K_REPLY, *qid, 0),
                );
            }
            WindowMsg::Reply {
                qid,
                node,
                position,
            } => {
                if let Some(coll) = self.collecting.get_mut(qid) {
                    if coll.node == at && !coll.members.iter().any(|c| c.id == *node) {
                        coll.members.push(Candidate {
                            id: *node,
                            position: *position,
                            dist: 0.0,
                        });
                    }
                }
            }
            WindowMsg::Result { spec, .. } => {
                self.route_excludes.remove(&spec.qid);
                self.route_result(ctx, at, msg.clone(), Some(from));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comb_itinerary_covers_the_window() {
        let win = Rect::new(10.0, 10.0, 90.0, 60.0);
        let w = 17.32;
        let poly = window_itinerary(win, w);
        // Deterministic sampling: every point of the window within w/√2.
        for i in 0..500 {
            let fx = (i % 25) as f64 / 24.0;
            let fy = (i / 25) as f64 / 19.0;
            let p = Point::new(win.min_x + fx * win.width(), win.min_y + fy * win.height());
            let d = poly.dist_to_point(p);
            assert!(d <= w / 2.0 + 1e-9, "gap {d} at {p:?}");
        }
    }

    #[test]
    fn comb_length_scales_with_area_over_width() {
        let win = Rect::new(0.0, 0.0, 100.0, 100.0);
        let l1 = window_itinerary(win, 20.0).length();
        let l2 = window_itinerary(win, 10.0).length();
        assert!(
            l2 > 1.7 * l1,
            "halving w should ~double the sweep: {l1} {l2}"
        );
    }

    #[test]
    fn awkward_height_leaves_no_top_gap() {
        // height = 2.4w used to leave a 0.9w strip above the last line.
        let w = 17.32;
        let win = Rect::new(0.0, 0.0, 80.0, 2.4 * w);
        let poly = window_itinerary(win, w);
        for i in 0..200 {
            let p = Point::new(
                win.min_x + (i % 20) as f64 / 19.0 * win.width(),
                win.min_y + (i / 20) as f64 / 9.0 * win.height(),
            );
            assert!(poly.dist_to_point(p) <= w / 2.0 + 1e-9, "gap at {p:?}");
        }
    }

    #[test]
    fn wire_sizes_and_collection_window_are_pinned() {
        let o = Point::new(0.0, 0.0);
        let spec = WSpec {
            qid: 0,
            sink: NodeId(0),
            sink_pos: o,
            window: Rect::new(0.0, 0.0, 10.0, 10.0),
        };
        let member = Candidate {
            id: NodeId(1),
            position: o,
            dist: 0.0,
        };
        let sizes = [
            WindowMsg::Query {
                spec,
                gpsr: GpsrHeader::new(o),
            },
            WindowMsg::Token {
                spec,
                frontier: 0.0,
                members: vec![member; 3],
                hops: 0,
            },
            WindowMsg::Probe {
                qid: 0,
                qnode: NodeId(0),
                window: spec.window,
                win_secs: COLLECTION_WINDOW,
            },
            WindowMsg::Reply {
                qid: 0,
                node: NodeId(1),
                position: o,
            },
            WindowMsg::Result {
                spec,
                gpsr: GpsrHeader::new(o),
                members: vec![member; 2],
                hops: 0,
            },
        ]
        .map(|m| m.wire_bytes());
        assert_eq!(sizes, [32, 32 + 10 * 3, 40, 34, 32 + 10 * 2]);
        assert_eq!(COLLECTION_WINDOW.to_bits(), 0.144_f64.to_bits());
    }

    #[test]
    fn degenerate_thin_window_gets_one_scanline() {
        let win = Rect::new(0.0, 0.0, 50.0, 5.0);
        let poly = window_itinerary(win, 17.0);
        assert_eq!(poly.waypoints().len(), 2);
        assert!((poly.length() - 50.0).abs() < 1e-9);
    }
}
