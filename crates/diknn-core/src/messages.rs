//! DIKNN wire messages.
//!
//! Payload *sizes* drive airtime and energy in the simulator; the structs
//! here carry whatever Rust data the protocol logic needs, and
//! [`DiknnMsg::wire_bytes`] reports what the field would cost on air
//! (positions as 2×4 B, ids/counters 2–4 B, per-candidate responses 10 B).

use crate::candidates::CandidateSet;
use crate::config::{BASE_MSG_BYTES, RESPONSE_BYTES};
use crate::knnb::HopRecord;
use crate::outcome::QueryOutcome;
use crate::token::SectorToken;
use diknn_geom::Point;
use diknn_routing::GpsrHeader;
use diknn_sim::{Ctx, Neighbor, NodeId, SimTime};

/// Immutable query description established at issue time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    pub qid: u32,
    /// Node that issued the query and expects the result.
    pub sink: NodeId,
    /// Sink position at issue time (results are routed back here).
    pub sink_pos: Point,
    /// Query point.
    pub q: Point,
    /// Requested number of nearest neighbours.
    pub k: u32,
    pub issued_at: SimTime,
    /// Sink-side retry attempt this dissemination belongs to (0 = first
    /// issue). Stale results from an earlier attempt still contribute
    /// candidates at the sink but do not count towards completion.
    pub attempt: u8,
}

/// Routing-phase message: the query travelling sink → home node, gathering
/// the KNNB information list `L` hop by hop (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMsg {
    pub spec: QuerySpec,
    pub gpsr: GpsrHeader,
    pub list: Vec<HopRecord>,
}

/// Probe broadcast by a Q-node to solicit D-node responses (§3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeMsg {
    pub qid: u32,
    pub sector: u8,
    /// Retry attempt of the dissemination this probe belongs to; D-nodes
    /// re-reply on a fresh attempt even if they answered an earlier one.
    pub attempt: u8,
    pub qnode: NodeId,
    pub qnode_pos: Point,
    pub q: Point,
    /// Current boundary radius: only nodes inside reply.
    pub radius: f64,
    /// Reference line for the contention timers.
    pub ref_angle: f64,
    /// Contention window length in seconds (0 ⇒ poll-only probe: D-nodes
    /// stay silent and wait to be polled).
    pub window: f64,
    /// Piggybacked per-sector explored counts. Probe discs of adjacent
    /// sub-itineraries overlap near the borders, so the counts hop between
    /// sectors through shared D-nodes — the rendezvous exchange of §4.3
    /// riding on existing traffic.
    pub counts: Vec<(u8, u32)>,
}

/// A D-node's response to a probe or poll.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyMsg {
    pub qid: u32,
    /// Sector of the collection this reply answers (BOOTSTRAP for the home
    /// node's initial collection).
    pub sector: u8,
    pub responder: NodeId,
    pub position: Point,
    pub speed: f64,
    /// Rendezvous statistics this node has overheard: `(sector, explored)`.
    pub cached_counts: Vec<(u8, u32)>,
}

/// Explicit poll (token-ring / combined collection schemes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollMsg {
    pub qid: u32,
    pub sector: u8,
    /// Retry attempt (see [`ProbeMsg::attempt`]).
    pub attempt: u8,
    pub qnode: NodeId,
    pub q: Point,
    pub radius: f64,
}

/// Rendezvous broadcast at sector borders: per-sector explored counts
/// (§4.3, Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct RendezvousMsg {
    pub qid: u32,
    pub counts: Vec<(u8, u32)>,
}

/// A sector's final partial result travelling back to the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultMsg {
    pub spec: QuerySpec,
    pub sector: u8,
    pub gpsr: GpsrHeader,
    pub candidates: CandidateSet,
    pub explored: u32,
    /// Final boundary radius this sector used (after adjustments).
    pub final_radius: f64,
    /// Hops taken by the token along the itinerary.
    pub itinerary_hops: u32,
}

/// All DIKNN frames.
#[derive(Debug, Clone, PartialEq)]
pub enum DiknnMsg {
    Query(QueryMsg),
    Token(Box<SectorToken>),
    Probe(ProbeMsg),
    Reply(ReplyMsg),
    Poll(PollMsg),
    Rendezvous(RendezvousMsg),
    Result(ResultMsg),
}

impl QuerySpec {
    /// The descriptor of attempt `attempt` at query `o`, issued now from its
    /// sink's current position (a `k` of 0 asks for one neighbour). The
    /// baselines never retry a query; their specs are attempt 0.
    pub fn issue<M: Clone>(ctx: &Ctx<M>, o: &QueryOutcome, attempt: u8) -> Self {
        QuerySpec {
            qid: o.qid,
            sink: o.sink,
            sink_pos: ctx.position(o.sink),
            q: o.q,
            k: o.k.max(1) as u32,
            issued_at: ctx.now(),
            attempt,
        }
    }
}

impl QueryMsg {
    /// Append the hop record of a node at `pos` to the list `L` (§4.1),
    /// counting its reliable `neighbors` against the previous hop with
    /// radio range `r`.
    pub fn record_hop(&mut self, pos: Point, neighbors: &[Neighbor], r: f64) {
        let hop = HopRecord::new(pos, neighbors, self.list.last(), r);
        self.list.push(hop);
    }
}

diknn_snap::snap_struct!(QuerySpec {
    qid,
    sink,
    sink_pos,
    q,
    k,
    issued_at,
    attempt
});
diknn_snap::snap_struct!(QueryMsg { spec, gpsr, list });
diknn_snap::snap_struct!(ProbeMsg {
    qid,
    sector,
    attempt,
    qnode,
    qnode_pos,
    q,
    radius,
    ref_angle,
    window,
    counts
});
diknn_snap::snap_struct!(ReplyMsg {
    qid,
    sector,
    responder,
    position,
    speed,
    cached_counts
});
diknn_snap::snap_struct!(PollMsg {
    qid,
    sector,
    attempt,
    qnode,
    q,
    radius
});
diknn_snap::snap_struct!(RendezvousMsg { qid, counts });
diknn_snap::snap_struct!(ResultMsg {
    spec,
    sector,
    gpsr,
    candidates,
    explored,
    final_radius,
    itinerary_hops
});
diknn_snap::snap_enum!(DiknnMsg {
    0 => Query(m),
    1 => Token(t),
    2 => Probe(m),
    3 => Reply(m),
    4 => Poll(m),
    5 => Rendezvous(m),
    6 => Result(m),
});

impl DiknnMsg {
    /// The query this frame belongs to. Every DIKNN frame is query-scoped,
    /// so this is total; the engine uses it as the flow label for
    /// per-query energy attribution.
    pub fn qid(&self) -> u32 {
        match self {
            DiknnMsg::Query(m) => m.spec.qid,
            DiknnMsg::Token(t) => t.spec.qid,
            DiknnMsg::Probe(m) => m.qid,
            DiknnMsg::Reply(m) => m.qid,
            DiknnMsg::Poll(m) => m.qid,
            DiknnMsg::Rendezvous(m) => m.qid,
            DiknnMsg::Result(m) => m.spec.qid,
        }
    }

    /// Approximate on-air payload size in bytes.
    pub fn wire_bytes(&self) -> usize {
        let base = BASE_MSG_BYTES;
        match self {
            // loc (8) + enc (2) per hop record.
            DiknnMsg::Query(m) => base + 10 * m.list.len(),
            DiknnMsg::Token(t) => base + t.candidates.wire_bytes() + 5 * t.sector_counts.len(),
            DiknnMsg::Probe(m) => base + 16 + 5 * m.counts.len(),
            DiknnMsg::Reply(m) => base + RESPONSE_BYTES + 5 * m.cached_counts.len(),
            DiknnMsg::Poll(_) => base,
            DiknnMsg::Rendezvous(m) => base + 5 * m.counts.len(),
            DiknnMsg::Result(m) => base + m.candidates.wire_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itinerary::ItinerarySpec;

    fn spec() -> QuerySpec {
        QuerySpec {
            qid: 1,
            sink: NodeId(0),
            sink_pos: Point::ORIGIN,
            q: Point::new(50.0, 50.0),
            k: 10,
            issued_at: SimTime::ZERO,
            attempt: 0,
        }
    }

    #[test]
    fn query_size_grows_with_hop_list() {
        let mut m = QueryMsg {
            spec: spec(),
            gpsr: GpsrHeader::new(Point::new(50.0, 50.0)),
            list: Vec::new(),
        };
        let empty = DiknnMsg::Query(m.clone()).wire_bytes();
        m.list.push(HopRecord {
            loc: Point::ORIGIN,
            enc: 5,
        });
        let one = DiknnMsg::Query(m).wire_bytes();
        assert_eq!(one - empty, 10);
    }

    #[test]
    fn result_size_grows_with_candidates() {
        let mut cands = CandidateSet::new(10);
        let mk = |c: &CandidateSet| {
            DiknnMsg::Result(ResultMsg {
                spec: spec(),
                sector: 0,
                gpsr: GpsrHeader::new(Point::ORIGIN),
                candidates: c.clone(),
                explored: 0,
                final_radius: 30.0,
                itinerary_hops: 0,
            })
            .wire_bytes()
        };
        let empty = mk(&cands);
        cands.insert(crate::candidates::Candidate {
            id: NodeId(3),
            position: Point::ORIGIN,
            dist: 1.0,
        });
        assert_eq!(mk(&cands) - empty, RESPONSE_BYTES);
    }

    #[test]
    fn token_size_includes_state() {
        let t = SectorToken::new(
            spec(),
            0,
            ItinerarySpec::new(Point::new(50.0, 50.0), 30.0, 8, 17.0),
            SimTime::ZERO,
        );
        let sz = DiknnMsg::Token(Box::new(t)).wire_bytes();
        assert!(sz >= BASE_MSG_BYTES);
    }
}
