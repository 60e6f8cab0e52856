//! The DIKNN protocol: three execution phases over the simulator.
//!
//! 1. **Routing phase** (§4.1): the query is geo-routed (GPSR) from the
//!    sink toward the query point `q`, appending `(loc_i, enc_i)` hop
//!    records to the list `L`.
//! 2. **KNN boundary estimation** (§4.2): the home node runs the linear
//!    [`crate::knnb::knnb`] algorithm over `L` to fix the boundary radius.
//! 3. **Query dissemination** (§3.3): the home node performs one bootstrap
//!    data collection, then launches one [`SectorToken`] per sector. Each
//!    token hops Q-node to Q-node along its conceptual sub-itinerary,
//!    collecting D-node responses (contention / token-ring / combined
//!    schemes), exchanging rendezvous statistics at sector borders, and
//!    finally routing its partial result back to the sink, which merges the
//!    `S` partials into the final KNN answer.
//!
//! One [`Diknn`] instance drives *all* nodes; per-node protocol state is
//! kept in maps keyed by `(query, node)`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use diknn_geom::{angle, Point, Polyline};
use diknn_routing::{next_hop, plan_next_hop, reliable, GpsrHeader, RouteStep};
use diknn_sim::config::RADIO_RANGE;
use diknn_sim::{
    pack_timer_key, unpack_timer_key, Ctx, Neighbor, NodeId, ProtoEvent, Protocol, SimDuration,
    SimTime, TimerId,
};
use diknn_snap::Snap;
use rand::Rng;

use crate::candidates::{Candidate, CandidateSet};
use crate::config::{CollectionScheme, DiknnConfig, COLLECTION_UNIT, CONTENTION_SLOTS};
use crate::itinerary::{sub_itinerary, ItinerarySpec, Walk, WalkStep};
use crate::knnb::knnb;
use crate::messages::*;
use crate::outcome::{
    schedule_issues, KnnProtocol, QueryOutcome, QueryRequest, QueryStatus, K_ISSUE,
};
use crate::token::{ExtendReason, SectorToken, TokenDecision};

/// Timer kinds (high byte of the timer key) after the shared `K_ISSUE`.
const K_COLLECT: u8 = 2;
const K_REPLY: u8 = 3;
const K_SINK_TIMEOUT: u8 = 4;
const K_WATCHDOG: u8 = 5;
const K_ADMIT: u8 = 6;

/// Bootstrap collection pseudo-sector (the home node collects for all
/// sectors at once before splitting).
const BOOTSTRAP: u8 = u8::MAX;

/// Safety cap on Q-node hops per sector token.
const MAX_TOKEN_HOPS: u32 = 400;

/// Seconds without durable sector progress (next handoff, sector finish,
/// or sink merge) before the watchdog re-issues the token. Must comfortably
/// exceed one collection round (contention window + polls) so a
/// busy-but-alive successor is not doubled.
const WATCHDOG_TIMEOUT: f64 = 0.75;

/// Re-issue budget per sector token; when exhausted the watchdog holder
/// salvages the token's partial result and reports it to the sink.
const MAX_TOKEN_REISSUES: u32 = 2;

const _: () = assert!(
    WATCHDOG_TIMEOUT > COLLECTION_UNIT * (CONTENTION_SLOTS + 1.0)
        && WATCHDOG_TIMEOUT < f64::INFINITY,
    "watchdog timeout must be finite and outlast a contention round"
);

/// Upper bound on retained result-cache entries (oldest evicted first).
const SERVING_CACHE_CAP: usize = 64;

/// Base retry-after for a deferred query, in seconds. The actual quote
/// comes from [`retry_after`] and is bounded to
/// `[RETRY_AFTER_S, MAX_RETRY_AFTER_S]`.
const RETRY_AFTER_S: f64 = 0.5;

/// Hard cap on a single retry-after quote, in seconds.
const MAX_RETRY_AFTER_S: f64 = 4.0;

/// Bounded retry-after quote, in seconds, for a query deferred at `now`
/// while `depth` admitted queries are in flight and `completions` holds
/// the times admitted queries finished. If the sink is observably
/// draining (completions inside the last [`LOAD_WINDOW_S`]), quote the
/// time for one in-flight slot to free at that rate; otherwise fall back
/// to a depth-proportional penalty. Only simulation time feeds the quote,
/// so replays agree bit for bit.
fn retry_after(completions: &VecDeque<SimTime>, depth: usize, now: SimTime) -> f64 {
    let cutoff = now.as_secs_f64() - LOAD_WINDOW_S;
    let recent = completions
        .iter()
        .filter(|t| t.as_secs_f64() >= cutoff)
        .count();
    let rate = recent as f64 / LOAD_WINDOW_S;
    let quote = if rate > 0.0 {
        depth as f64 / rate
    } else {
        RETRY_AFTER_S * (1 + depth) as f64
    };
    quote.clamp(RETRY_AFTER_S, MAX_RETRY_AFTER_S)
}

/// How many deferrals a query may suffer before it is terminally rejected
/// (status `rejected`, never executed).
const MAX_ADMISSION_DEFERS: u32 = 6;

/// Sliding window (seconds) over which completions set the drain rate
/// [`retry_after`] quotes from.
const LOAD_WINDOW_S: f64 = 5.0;

/// Mobility-staleness bound: the assumed worst-case node speed used to
/// account cached answers against drift.
const DRIFT_RATE_MPS: f64 = 5.0;

/// Maximum tolerated drift in metres: a cache entry is stale once
/// `age × DRIFT_RATE_MPS` exceeds this, even inside the TTL.
const CACHE_DRIFT_M: f64 = 10.0;

/// Admission ceiling: maximum queries in flight (admitted, not yet
/// terminal) across all sinks. Arrivals beyond it are deferred, then
/// rejected.
const MAX_IN_FLIGHT: u32 = 8;

/// Spatial merge radius in metres: a new arrival whose query point lies
/// within this distance of an in-flight query's point (and whose `k` does
/// not exceed the host's) rides the host's itinerary instead of launching
/// its own.
const MERGE_RADIUS_M: f64 = 10.0;

/// Result-cache radius in metres: a new arrival within this distance of a
/// fresh completed query's point (with `k` not exceeding the cached `k`) is
/// answered from the cache.
const CACHE_RADIUS_M: f64 = 10.0;

/// Cache TTL in seconds. Entries older than this are never served; the
/// mobility-drift bound can retire them sooner.
const CACHE_TTL_S: f64 = 2.0;

const _: () = assert!(
    RETRY_AFTER_S > 0.0 && MAX_RETRY_AFTER_S >= RETRY_AFTER_S,
    "retry-after bounds must satisfy 0 < base <= max"
);
const _: () = assert!(MAX_IN_FLIGHT >= 1, "no query could ever be admitted");
const _: () = assert!(
    MERGE_RADIUS_M > 0.0 && CACHE_RADIUS_M > 0.0,
    "merge and cache radii must be positive"
);
const _: () = assert!(CACHE_TTL_S > 0.0, "a cache entry must outlive its write");
const _: () = assert!(LOAD_WINDOW_S > 0.0, "load window must be positive");
const _: () = assert!(
    DRIFT_RATE_MPS > 0.0 && CACHE_DRIFT_M >= 0.0,
    "drift accounting needs a positive rate and a non-negative bound"
);

/// An active data collection at a Q-node.
struct Collecting {
    node: NodeId,
    token: SectorToken,
    /// Nodes heard during this collection (for poll follow-up).
    heard: Vec<NodeId>,
    /// The poll round has been performed.
    polled: bool,
    /// Bootstrap collections keep replies here to split per sector later.
    bootstrap_replies: Vec<Candidate>,
    bootstrap_speeds: Vec<f64>,
}

diknn_snap::snap_struct!(Collecting {
    node,
    token,
    heard,
    polled,
    bootstrap_replies,
    bootstrap_speeds
});

/// A reply a D-node has scheduled but not yet sent.
struct PendingReply {
    to: NodeId,
    sector: u8,
}

diknn_snap::snap_struct!(PendingReply { to, sector });

/// The token-loss watchdog a Q-node arms after handing a token off: it
/// keeps a copy of the token and, unless the sector makes durable progress
/// (the successor hands the token on, finishes the sector, or the result
/// reaches the sink) within [`WATCHDOG_TIMEOUT`], re-issues it (bumping the
/// duplicate-suppression epoch).
struct Watchdog {
    /// The node keeping watch (the previous token holder).
    holder: NodeId,
    /// The silent successor the token was handed to.
    sent_to: NodeId,
    /// Token state as of the handoff.
    token: SectorToken,
    /// The sector traversal is over and this watch covers the result's
    /// journey back to the sink instead of a token handoff: on silence the
    /// holder re-sends the sector result rather than re-issuing the token.
    finished: bool,
    timer: TimerId,
}

diknn_snap::snap_struct!(Watchdog {
    holder,
    sent_to,
    token,
    finished,
    timer
});

/// A completed query's result retained for short-TTL cache serving.
struct CacheEntry {
    src_qid: u32,
    q: Point,
    k: usize,
    completed_at: SimTime,
    /// The sink's merged candidate pool at completion, with the positions
    /// reported back then — a later hit re-ranks these against its own `q`.
    candidates: Vec<Candidate>,
}

diknn_snap::snap_struct!(CacheEntry {
    src_qid,
    q,
    k,
    completed_at,
    candidates
});

/// Sink-side serving-layer state (admission / merge / cache), touched only
/// when [`crate::ServingConfig::enabled`] — with serving off the protocol is
/// bit-identical to the pre-serving build.
struct ServingState {
    /// Finish times of admitted queries, oldest first; those older than
    /// [`LOAD_WINDOW_S`] are dropped at each completion.
    completions: VecDeque<SimTime>,
    /// Host qid → member qids answered from the host's return leg.
    members: BTreeMap<u32, Vec<u32>>,
    /// Member qid → the host it rides.
    host_of: BTreeMap<u32, u32>,
    /// Admission deferrals suffered so far per still-waiting qid.
    defers: BTreeMap<u32, u32>,
    /// Completed results usable for cache hits, oldest first.
    cache: Vec<CacheEntry>,
}

diknn_snap::snap_struct!(ServingState {
    completions,
    members,
    host_of,
    defers,
    cache
});

struct SinkState {
    expected: u32,
    merged: CandidateSet,
    returned: u32,
    explored: u32,
    max_final_radius: f64,
    last_merge_at: SimTime,
    /// Current retry attempt (0 = the original issue).
    attempt: u8,
    /// `(attempt, sector)` partials already counted toward completion;
    /// watchdog re-issues can deliver a sector result twice.
    counted: BTreeSet<(u8, u8)>,
}

diknn_snap::snap_struct!(SinkState {
    expected,
    merged,
    returned,
    explored,
    max_final_radius,
    last_merge_at,
    attempt,
    counted
});

/// The DIKNN protocol instance (drives all nodes of a run).
pub struct Diknn {
    cfg: DiknnConfig,
    requests: Vec<QueryRequest>,
    outcomes: Vec<QueryOutcome>,
    sinks: BTreeMap<u32, SinkState>,
    collecting: BTreeMap<(u32, u8), Collecting>,
    pending_replies: BTreeMap<(u32, u32), PendingReply>,
    /// `(qid, node)` → `(attempt, sector)` the node responded to.
    responded: BTreeMap<(u32, u32), (u8, u8)>,
    rdv_cache: BTreeMap<(u32, u32), Vec<(u8, u32)>>,
    token_excludes: BTreeMap<(u32, u8), Vec<NodeId>>,
    query_excludes: BTreeMap<u32, Vec<NodeId>>,
    result_excludes: BTreeMap<(u32, u8), Vec<NodeId>>,
    /// Armed token-loss watchdogs, keyed by `(qid, sector)`.
    watchdogs: BTreeMap<(u32, u8), Watchdog>,
    /// Highest token epoch seen per `(qid, attempt, sector)`; lower-epoch
    /// tokens are stale duplicates from a watchdog re-issue and are dropped.
    token_epochs: BTreeMap<(u32, u8, u8), u32>,
    /// Serving layer (admission / merge / cache); inert while
    /// `cfg.serving.enabled` is false. With it on, the admitted queries
    /// still in flight are the keys of `sinks`.
    serving: ServingState,
}

impl Diknn {
    pub fn new(cfg: DiknnConfig, requests: Vec<QueryRequest>) -> Self {
        cfg.validate();
        let serving = ServingState {
            completions: VecDeque::new(),
            members: BTreeMap::new(),
            host_of: BTreeMap::new(),
            defers: BTreeMap::new(),
            cache: Vec::new(),
        };
        Diknn {
            cfg,
            serving,
            requests,
            outcomes: Vec::new(),
            sinks: BTreeMap::new(),
            collecting: BTreeMap::new(),
            pending_replies: BTreeMap::new(),
            responded: BTreeMap::new(),
            rdv_cache: BTreeMap::new(),
            token_excludes: BTreeMap::new(),
            query_excludes: BTreeMap::new(),
            result_excludes: BTreeMap::new(),
            watchdogs: BTreeMap::new(),
            token_epochs: BTreeMap::new(),
        }
    }

    pub fn config(&self) -> &DiknnConfig {
        &self.cfg
    }

    /// Stream additional requests into a running protocol (the resident
    /// service mode's epoch feed). Each request gets its issue timer at the
    /// sink exactly as `on_start` would have armed it; requests whose issue
    /// time has already passed fire immediately. The simulator must have
    /// been started (`Simulator::start` / `run_until`) first.
    pub fn inject_requests(&mut self, ctx: &mut Ctx<DiknnMsg>, reqs: &[QueryRequest]) {
        schedule_issues(ctx, self.requests.len(), reqs);
        self.requests.extend_from_slice(reqs);
    }

    fn width(&self) -> f64 {
        self.cfg.width_factor * RADIO_RANGE
    }

    /// Deterministic per-query sector origin (decorrelates queries). A
    /// retry rotates the origin by half a golden angle so the fresh
    /// itinerary crosses different nodes than the one that went silent.
    fn origin_for(qid: u32, attempt: u8) -> f64 {
        // golden angle, and half of it per retry attempt
        angle::normalize(
            qid as f64 * 2.399_963_229_728_653 + attempt as f64 * 1.199_981_614_864_326,
        )
    }

    fn send(&self, ctx: &mut Ctx<DiknnMsg>, from: NodeId, to: NodeId, msg: DiknnMsg) {
        let bytes = msg.wire_bytes();
        let flow = Some(msg.qid());
        ctx.unicast_flow(from, to, bytes, msg, flow);
    }

    fn broadcast(&self, ctx: &mut Ctx<DiknnMsg>, from: NodeId, msg: DiknnMsg) {
        let bytes = msg.wire_bytes();
        let flow = Some(msg.qid());
        ctx.broadcast_flow(from, bytes, msg, flow);
    }

    /// Hand a sector token to the next Q-node, arming the token-loss
    /// watchdog: the sender keeps a copy and re-issues it unless the sector
    /// progresses past the successor — the successor's own handoff replaces
    /// this entry (cancelling the timer), and `finish_sector` / `sink_merge`
    /// disarm terminal hops. Probes alone do *not* disarm: a carrier that
    /// probes and then dies mid-collection must still be recovered.
    fn send_token(
        &mut self,
        ctx: &mut Ctx<DiknnMsg>,
        from: NodeId,
        to: NodeId,
        token: SectorToken,
    ) {
        if self.cfg.token_watchdog {
            let timer = ctx.set_timer(
                from,
                SimDuration::from_secs_f64(WATCHDOG_TIMEOUT),
                pack_timer_key(K_WATCHDOG, token.spec.qid, token.sector as u32),
            );
            let old = self.watchdogs.insert(
                (token.spec.qid, token.sector),
                Watchdog {
                    holder: from,
                    sent_to: to,
                    token: token.clone(),
                    finished: false,
                    timer,
                },
            );
            if let Some(old) = old {
                ctx.cancel_timer(old.timer);
            }
        }
        ctx.record_proto(
            from,
            ProtoEvent::TokenHandoff {
                qid: token.spec.qid,
                attempt: token.spec.attempt,
                sector: token.sector,
                epoch: token.epoch,
                to,
                frontier: token.frontier,
            },
        );
        self.send(ctx, from, to, DiknnMsg::Token(Box::new(token)));
    }

    // ---------- phase 1: routing --------------------------------------

    fn issue_query(&mut self, ctx: &mut Ctx<DiknnMsg>, req_idx: usize) {
        let qid = self.outcomes.len() as u32;
        let outcome = QueryOutcome::pending(
            qid,
            &self.requests[req_idx],
            ctx.now(),
            self.cfg.sectors as u32,
        );
        self.outcomes.push(outcome);
        if self.cfg.serving.enabled {
            self.serve_query(ctx, qid);
        } else {
            self.launch_query(ctx, qid);
        }
    }

    /// Start executing query `qid` (routing → dissemination). With the
    /// serving layer on this runs only after admission; otherwise it is the
    /// unconditional continuation of `issue_query`.
    fn launch_query(&mut self, ctx: &mut Ctx<DiknnMsg>, qid: u32) {
        let spec = QuerySpec::issue(ctx, &self.outcomes[qid as usize], 0);
        let (sink, q) = (spec.sink, spec.q);
        self.sinks.insert(
            qid,
            SinkState {
                expected: self.cfg.sectors as u32,
                merged: CandidateSet::new(spec.k as usize),
                returned: 0,
                explored: 0,
                max_final_radius: 0.0,
                last_merge_at: ctx.now(),
                attempt: 0,
                counted: BTreeSet::new(),
            },
        );
        ctx.set_timer(
            sink,
            SimDuration::from_secs_f64(self.cfg.sink_timeout),
            pack_timer_key(K_SINK_TIMEOUT, qid, 0),
        );
        ctx.record_proto(
            sink,
            ProtoEvent::QueryIssued {
                qid,
                attempt: 0,
                k: spec.k,
            },
        );
        let msg = QueryMsg {
            spec,
            gpsr: GpsrHeader::new(q),
            list: Vec::new(),
        };
        self.handle_query_arrival(ctx, sink, msg, None);
    }

    // ---------- serving layer (admission / merge / cache) --------------

    /// Re-rank a candidate pool against a (possibly different) query point
    /// and keep the best `k` — the exact per-query attribution step for
    /// merged itineraries and cache hits.
    fn rank_for(pool: &[Candidate], q: Point, k: usize) -> Vec<NodeId> {
        CandidateSet::nearest(q, k.max(1), pool.iter().map(|c| (c.id, c.position))).ids()
    }

    /// The serving decision for an arrived (or deferral-retried) query, in
    /// priority order: cache hit → spatial merge → admission.
    fn serve_query(&mut self, ctx: &mut Ctx<DiknnMsg>, qid: u32) {
        let (sink, q, k) = {
            let o = &self.outcomes[qid as usize];
            (o.sink, o.q, o.k)
        };
        let now = ctx.now();

        // 1. Result cache: answer from a fresh completed query at (nearly)
        // the same point, inside both the TTL and the mobility-drift bound.
        let max_age = CACHE_TTL_S.min(CACHE_DRIFT_M / DRIFT_RATE_MPS);
        self.serving
            .cache
            .retain(|e| (now - e.completed_at).as_secs_f64() <= max_age);
        let hit = self
            .serving
            .cache
            .iter()
            .filter(|e| e.k >= k && e.q.dist(q) <= CACHE_RADIUS_M)
            .min_by(|a, b| {
                a.q.dist(q)
                    .total_cmp(&b.q.dist(q))
                    .then(b.completed_at.cmp(&a.completed_at))
                    .then(a.src_qid.cmp(&b.src_qid))
            });
        if let Some(entry) = hit {
            let age = (now - entry.completed_at).as_secs_f64();
            let answer = Self::rank_for(&entry.candidates, q, k);
            let src = entry.src_qid;
            let o = &mut self.outcomes[qid as usize];
            o.answer = answer.clone();
            o.completed_at = Some(now);
            o.status = QueryStatus::CacheHit;
            ctx.record_proto(
                sink,
                ProtoEvent::CacheServed {
                    qid,
                    src,
                    age_s: age,
                    ttl_s: CACHE_TTL_S,
                },
            );
            ctx.record_proto(
                sink,
                ProtoEvent::QueryDone {
                    qid,
                    status: QueryStatus::CacheHit,
                    answer,
                },
            );
            self.serving.defers.remove(&qid);
            return;
        }

        // 2. Spatial merge: ride an in-flight query whose itinerary covers
        // this one. The member is answered from the host's return leg with
        // per-query re-ranking; it never emits a frame of its own.
        let host = self
            .sinks
            .keys()
            .copied()
            .filter(|&h| {
                let ho = &self.outcomes[h as usize];
                ho.k >= k && ho.q.dist(q) <= MERGE_RADIUS_M
            })
            .min_by(|&a, &b| {
                let da = self.outcomes[a as usize].q.dist(q);
                let db = self.outcomes[b as usize].q.dist(q);
                da.total_cmp(&db).then(a.cmp(&b))
            });
        if let Some(host) = host {
            // Keep enough merged candidates at the host's sink for the
            // member's re-rank: the host's own top-k around *its* point
            // might drop the member's nearest nodes.
            if let Some(state) = self.sinks.get_mut(&host) {
                let wide = state.merged.k() + k;
                state.merged.widen(wide);
            }
            self.serving.members.entry(host).or_default().push(qid);
            self.serving.host_of.insert(qid, host);
            self.serving.defers.remove(&qid);
            ctx.record_proto(sink, ProtoEvent::QueryMerged { qid, host });
            return;
        }

        // 3. Admission: bounded-deferral concurrency ceiling on the
        // admitted queries still in flight.
        let depth = self.sinks.len() as u32;
        if depth >= MAX_IN_FLIGHT {
            let defers = self.serving.defers.get(&qid).copied().unwrap_or(0);
            if defers >= MAX_ADMISSION_DEFERS {
                // Out of patience: terminal rejection, never executed.
                self.serving.defers.remove(&qid);
                let o = &mut self.outcomes[qid as usize];
                o.status = QueryStatus::Rejected;
                ctx.record_proto(
                    sink,
                    ProtoEvent::QueryRejected {
                        qid,
                        depth,
                        terminal: true,
                    },
                );
                ctx.record_proto(
                    sink,
                    ProtoEvent::QueryDone {
                        qid,
                        status: QueryStatus::Rejected,
                        answer: Vec::new(),
                    },
                );
            } else {
                self.serving.defers.insert(qid, defers + 1);
                ctx.record_proto(
                    sink,
                    ProtoEvent::QueryRejected {
                        qid,
                        depth,
                        terminal: false,
                    },
                );
                let wait = retry_after(&self.serving.completions, depth as usize, now);
                ctx.set_timer(
                    sink,
                    SimDuration::from_secs_f64(wait),
                    pack_timer_key(K_ADMIT, qid, 0),
                );
            }
            return;
        }
        self.serving.defers.remove(&qid);
        ctx.record_proto(
            sink,
            ProtoEvent::QueryAdmitted {
                qid,
                depth: depth + 1,
            },
        );
        self.launch_query(ctx, qid);
    }

    /// A deferred query's retry-after backoff expired: run the serving
    /// decision again (by now a cache entry or a mergeable host may exist,
    /// or load may have drained).
    fn admission_retry(&mut self, ctx: &mut Ctx<DiknnMsg>, qid: u32) {
        let still_waiting = self.outcomes[qid as usize].status == QueryStatus::Pending
            && !self.sinks.contains_key(&qid)
            && !self.serving.host_of.contains_key(&qid);
        if still_waiting {
            self.serve_query(ctx, qid);
        }
    }

    /// Settle serving-layer bookkeeping when admitted query `qid`
    /// finalises: record its completion time, split the merged candidate
    /// pool to every member with exact per-query re-ranking, and (for
    /// complete answers) publish a cache entry.
    fn settle_serving(&mut self, ctx: &mut Ctx<DiknnMsg>, qid: u32) {
        if !self.cfg.serving.enabled {
            return;
        }
        let now = ctx.now();
        let cutoff = now.as_secs_f64() - LOAD_WINDOW_S;
        self.serving
            .completions
            .retain(|t| t.as_secs_f64() >= cutoff);
        self.serving.completions.push_back(now);
        let (pool, completed_at, host_completed) = {
            let state = &self.sinks[&qid];
            let o = &self.outcomes[qid as usize];
            (
                state.merged.items().to_vec(),
                o.completed_at,
                o.status == QueryStatus::Completed,
            )
        };
        for member in self.serving.members.remove(&qid).unwrap_or_default() {
            self.serving.host_of.remove(&member);
            let (m_sink, m_q, m_k) = {
                let o = &self.outcomes[member as usize];
                (o.sink, o.q, o.k)
            };
            let answer = Self::rank_for(&pool, m_q, m_k);
            let o = &mut self.outcomes[member as usize];
            o.answer = answer.clone();
            o.completed_at = completed_at;
            o.status = QueryStatus::Merged;
            ctx.record_proto(
                m_sink,
                ProtoEvent::QueryDone {
                    qid: member,
                    status: QueryStatus::Merged,
                    answer,
                },
            );
        }
        if host_completed {
            if let Some(completed_at) = completed_at {
                let o = &self.outcomes[qid as usize];
                self.serving.cache.push(CacheEntry {
                    src_qid: qid,
                    q: o.q,
                    k: o.k,
                    completed_at,
                    candidates: pool,
                });
                if self.serving.cache.len() > SERVING_CACHE_CAP {
                    let excess = self.serving.cache.len() - SERVING_CACHE_CAP;
                    self.serving.cache.drain(..excess);
                }
            }
        }
    }

    /// A node (sink or intermediate) has the query: append its hop record
    /// and either forward it or, as home node, start dissemination.
    fn handle_query_arrival(
        &mut self,
        ctx: &mut Ctx<DiknnMsg>,
        at: NodeId,
        mut msg: QueryMsg,
        from: Option<NodeId>,
    ) {
        self.query_excludes.remove(&msg.spec.qid);
        let neighbors = reliable(ctx, at);
        msg.record_hop(ctx.position(at), &neighbors, RADIO_RANGE);
        self.forward_query(ctx, at, &neighbors, msg, from);
    }

    fn forward_query(
        &mut self,
        ctx: &mut Ctx<DiknnMsg>,
        at: NodeId,
        neighbors: &[Neighbor],
        mut msg: QueryMsg,
        from: Option<NodeId>,
    ) {
        let exclude = self
            .query_excludes
            .get(&msg.spec.qid)
            .map_or(&[][..], Vec::as_slice);
        match next_hop(ctx, at, neighbors, None, &mut msg.gpsr, from, exclude) {
            Some(next) => self.send(ctx, at, next, DiknnMsg::Query(msg)),
            // This node is the home node (or the best we can do).
            None => self.begin_dissemination(ctx, at, msg),
        }
    }

    // ---------- phase 2 + 3: boundary estimation & dissemination -------

    fn begin_dissemination(&mut self, ctx: &mut Ctx<DiknnMsg>, home: NodeId, msg: QueryMsg) {
        let spec = msg.spec;
        let boundary = knnb(&msg.list, spec.q, RADIO_RANGE, spec.k as usize);
        let field = ctx.config().field;
        let max_r = (field.width().powi(2) + field.height().powi(2)).sqrt();
        let radius = boundary.radius.clamp(RADIO_RANGE * 0.5, max_r);
        ctx.record_proto(
            home,
            ProtoEvent::BoundaryEstimated {
                qid: spec.qid,
                attempt: spec.attempt,
                radius,
            },
        );
        if let Some(o) = self.outcomes.get_mut(spec.qid as usize) {
            o.boundary_radius = radius;
            o.final_radius = radius;
            o.routing_hops = msg.list.len().saturating_sub(1) as u32;
        }
        let itin = ItinerarySpec {
            origin: Self::origin_for(spec.qid, spec.attempt),
            ..ItinerarySpec::new(spec.q, radius, self.cfg.sectors, self.width())
        };
        // Bootstrap collection: one probe covering the home neighbourhood,
        // split per sector afterwards.
        let token = SectorToken::new(spec, BOOTSTRAP, itin, ctx.now());
        self.start_collection(ctx, home, token);
    }

    /// Begin data collection at Q-node `at` holding `token`.
    fn start_collection(&mut self, ctx: &mut Ctx<DiknnMsg>, at: NodeId, token: SectorToken) {
        let window = match self.cfg.collection {
            CollectionScheme::TokenRing => 0.0,
            _ => COLLECTION_UNIT * CONTENTION_SLOTS,
        };
        let probe = ProbeMsg {
            qid: token.spec.qid,
            sector: token.sector,
            attempt: token.spec.attempt,
            qnode: at,
            qnode_pos: ctx.position(at),
            q: token.spec.q,
            radius: token.itin.radius,
            ref_angle: Self::origin_for(token.spec.qid, token.spec.attempt),
            window,
            counts: if token.sector == BOOTSTRAP {
                Vec::new()
            } else {
                token.advertised_counts()
            },
        };
        self.broadcast(ctx, at, DiknnMsg::Probe(probe));
        let qid = token.spec.qid;
        let sector = token.sector;
        self.collecting.insert(
            (qid, sector),
            Collecting {
                node: at,
                token,
                heard: Vec::new(),
                polled: false,
                bootstrap_replies: Vec::new(),
                bootstrap_speeds: Vec::new(),
            },
        );
        // Collection window plus slack for the last reply's airtime.
        let wait = window + COLLECTION_UNIT;
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(wait),
            pack_timer_key(K_COLLECT, qid, sector as u32),
        );
    }

    /// The collection window (or poll round) of `(qid, sector)` ended at
    /// node `at` (where the timer fired).
    fn collection_done(&mut self, ctx: &mut Ctx<DiknnMsg>, at: NodeId, qid: u32, sector: u8) {
        // A watchdog re-issue or a sink retry can start a fresh collection
        // for the same key at another node while a stale timer from the
        // superseded one is still queued — only the current Q-node's timer
        // may pop the entry.
        match self.collecting.get(&(qid, sector)) {
            Some(c) if c.node == at => {}
            _ => return,
        }
        let Some(mut coll) = self.collecting.remove(&(qid, sector)) else {
            return;
        };
        // Combined / token-ring: poll neighbours inside the boundary that
        // have not replied yet, then wait one more round.
        if !coll.polled && self.cfg.collection != CollectionScheme::Contention {
            let neighbors = reliable(ctx, at);
            let q = coll.token.spec.q;
            let radius = coll.token.itin.radius;
            let attempt = coll.token.spec.attempt;
            // Poll in-boundary neighbours we have not heard that either
            // never responded this attempt, or responded to *this* sector
            // (meaning their reply was lost to a collision and only a
            // directed poll can recover the data). Nodes that answered
            // another sector of the same attempt are left alone.
            let targets: Vec<NodeId> = neighbors
                .iter()
                .filter(|n| n.position.dist(q) <= radius)
                .filter(|n| !coll.heard.contains(&n.id))
                .filter(|n| {
                    self.responded
                        .get(&(qid, n.id.0))
                        .is_none_or(|&(a, s)| a != attempt || s == sector)
                })
                .map(|n| n.id)
                .collect();
            if !targets.is_empty() {
                for &t in &targets {
                    let poll = PollMsg {
                        qid,
                        sector,
                        attempt,
                        qnode: at,
                        q,
                        radius,
                    };
                    self.send(ctx, at, t, DiknnMsg::Poll(poll));
                }
                coll.polled = true;
                let wait = COLLECTION_UNIT * (targets.len() as f64 + 1.0);
                self.collecting.insert((qid, sector), coll);
                ctx.set_timer(
                    at,
                    SimDuration::from_secs_f64(wait),
                    pack_timer_key(K_COLLECT, qid, sector as u32),
                );
                return;
            }
        }
        if sector == BOOTSTRAP {
            self.split_bootstrap(ctx, at, coll);
        } else {
            self.advance_token(ctx, at, coll.token);
        }
    }

    /// Split the home node's bootstrap collection into the `S` sector
    /// tokens and launch each sub-itinerary.
    fn split_bootstrap(&mut self, ctx: &mut Ctx<DiknnMsg>, home: NodeId, coll: Collecting) {
        let base = coll.token;
        let spec = base.spec;
        let s = self.cfg.sectors;
        let mut tokens: Vec<SectorToken> = (0..s)
            .map(|i| {
                let mut t = SectorToken::new(spec, i as u8, base.itin, base.started_at);
                t.merge_counts(&base.sector_counts);
                t
            })
            .collect();
        for (cand, speed) in coll
            .bootstrap_replies
            .iter()
            .zip(coll.bootstrap_speeds.iter())
        {
            let theta = spec.q.angle_to(cand.position);
            let idx = angle::sector_index(theta, base.itin.origin, s);
            let t = &mut tokens[idx];
            t.candidates.insert(*cand);
            t.explored += 1;
            t.max_speed = t.max_speed.max(*speed);
        }
        for token in tokens {
            self.advance_token(ctx, home, token);
        }
    }

    /// A watchdog re-issue bumps the sector's current epoch; any
    /// lower-epoch copy still in flight (a carrier that was mid-collection
    /// when its sender's watchdog fired) is stale. Receipt-side epoch
    /// suppression already drops stale *incoming* tokens; this is the
    /// send-side twin. A stale carrier that kept going would clobber the
    /// live chain's watchdog with its own handoff, and when that hijacked
    /// watchdog fired it would re-issue a duplicate of the live epoch —
    /// forking token custody across two same-epoch chains.
    fn token_is_stale(&self, token: &SectorToken) -> bool {
        let ek = (token.spec.qid, token.spec.attempt, token.sector);
        token.epoch < self.token_epochs.get(&ek).copied().unwrap_or(0)
    }

    /// Core traversal step: decide, then pick and forward to the next
    /// Q-node (or finish the sector).
    fn advance_token(&mut self, ctx: &mut Ctx<DiknnMsg>, at: NodeId, mut token: SectorToken) {
        if self.token_is_stale(&token) {
            return; // superseded by a re-issue while we were collecting
        }
        let qid = token.spec.qid;
        let sector = token.sector;
        if token.hops >= MAX_TOKEN_HOPS {
            return self.finish_sector(ctx, at, token);
        }
        let mut poly = self.polyline_for(&token);
        // Decision loop: handle end-of-itinerary extensions.
        loop {
            let at_end = token.frontier >= poly.length() - 1e-6;
            match token.decide(&self.cfg, ctx.now(), at_end) {
                TokenDecision::Continue => break,
                TokenDecision::FinishEarly | TokenDecision::Finish => {
                    return self.finish_sector(ctx, at, token);
                }
                TokenDecision::Extend(r, reason) => {
                    match reason {
                        ExtendReason::Assurance => token.assured = true,
                        ExtendReason::UnderCount => token.explored_at_extend = Some(token.explored),
                    }
                    ctx.record_proto(
                        at,
                        ProtoEvent::BoundaryExtended {
                            qid,
                            attempt: token.spec.attempt,
                            sector,
                            old_radius: token.itin.radius,
                            new_radius: r,
                        },
                    );
                    token.itin.radius = r;
                    poly = self.polyline_for(&token);
                }
            }
        }

        // Rendezvous broadcast when passing near a sector border (§4.3).
        self.maybe_rendezvous(ctx, at, &mut token);

        let my_pos = ctx.position(at);
        let neighbors = reliable(ctx, at);
        let exclude = self
            .token_excludes
            .get(&(qid, sector))
            .cloned()
            .unwrap_or_default();

        // An active void detour (perimeter forwarding mode) continues until
        // the target comes within radio reach.
        if let Some((detour_arclen, header)) = token.detour {
            let target = poly.point_at(detour_arclen);
            if my_pos.dist(target) <= RADIO_RANGE {
                // Crossed the void: resume the itinerary from the target.
                token.frontier = token.frontier.max(detour_arclen);
                token.detour = None;
            } else {
                match plan_next_hop(at, my_pos, &header, &neighbors, None, &exclude, 0.0) {
                    RouteStep::Forward { next, header } => {
                        token.detour = Some((detour_arclen, header));
                        token.hops += 1;
                        self.send_token(ctx, at, next, token);
                        return;
                    }
                    RouteStep::Arrived | RouteStep::NoRoute => {
                        // Even perimeter forwarding cannot reach the target
                        // region (isolated segment, the Figure 7 accuracy
                        // loss). Skip past it or finish.
                        token.detour = None;
                        if detour_arclen >= poly.length() - 1e-6 {
                            return self.finish_sector(ctx, at, token);
                        }
                        token.frontier = token.frontier.max(detour_arclen);
                        return self.advance_token(ctx, at, token);
                    }
                }
            }
        }

        let w = token.itin.width;
        let mut walk = Walk::new(&poly, my_pos, token.frontier, RADIO_RANGE, w);
        loop {
            let step = walk.step(&neighbors, &exclude);
            token.frontier = walk.frontier();
            match step {
                WalkStep::Handoff(next) => {
                    token.hops += 1;
                    return self.send_token(ctx, at, next, token);
                }
                // Reached the end standing here: re-run the decision.
                WalkStep::End => return self.advance_token(ctx, at, token),
                // Switch to perimeter forwarding mode: geo-route the token
                // around the vacancy toward the far target (§5.2). Targets
                // outside the field hold no nodes: skip them instead.
                WalkStep::Void(arclen) => {
                    let target = poly.point_at(arclen);
                    if ctx.config().field.contains(target) {
                        token.detour = Some((arclen, GpsrHeader::with_ttl(target, 24)));
                        return self.advance_token(ctx, at, token);
                    }
                    if arclen >= poly.length() {
                        return self.finish_sector(ctx, at, token);
                    }
                    walk.skip_to(arclen);
                }
                WalkStep::Stuck => return self.finish_sector(ctx, at, token),
            }
        }
    }

    fn polyline_for(&self, token: &SectorToken) -> Polyline {
        if token.sector == BOOTSTRAP {
            return Polyline::new([token.spec.q]);
        }
        sub_itinerary(&token.itin, token.sector as usize, token.reversed())
    }

    fn maybe_rendezvous(&mut self, ctx: &mut Ctx<DiknnMsg>, at: NodeId, token: &mut SectorToken) {
        if !self.cfg.rendezvous || token.sector == BOOTSTRAP {
            return;
        }
        if token.frontier - token.last_rendezvous < token.itin.width {
            return;
        }
        let sectors = diknn_geom::Sector::partition(
            token.spec.q,
            token.itin.radius,
            self.cfg.sectors,
            token.itin.origin,
        );
        let sect = &sectors[token.sector as usize];
        let pos = ctx.position(at);
        if sect.dist_to_border(pos) <= token.itin.width {
            let msg = RendezvousMsg {
                qid: token.spec.qid,
                counts: token.advertised_counts(),
            };
            self.broadcast(ctx, at, DiknnMsg::Rendezvous(msg));
            token.last_rendezvous = token.frontier;
        }
    }

    fn finish_sector(&mut self, ctx: &mut Ctx<DiknnMsg>, at: NodeId, token: SectorToken) {
        if self.token_is_stale(&token) {
            // A re-issued chain owns this sector now; finishing from the
            // stale copy would cancel the live chain's watchdog and report
            // a superseded traversal as the sector's result.
            return;
        }
        ctx.record_proto(
            at,
            ProtoEvent::SectorFinished {
                qid: token.spec.qid,
                attempt: token.spec.attempt,
                sector: token.sector,
                epoch: token.epoch,
            },
        );
        // The traversal is over; any watchdog still watching a handoff of
        // this sector is moot.
        if let Some(w) = self.watchdogs.remove(&(token.spec.qid, token.sector)) {
            ctx.cancel_timer(w.timer);
        }
        let result = ResultMsg {
            spec: token.spec,
            sector: token.sector,
            gpsr: GpsrHeader::new(token.spec.sink_pos),
            candidates: token.candidates.clone(),
            explored: token.explored,
            final_radius: token.itin.radius,
            itinerary_hops: token.hops,
        };
        // The result's journey home is as mortal as the token was: keep
        // watching until the sink merges this sector, re-sending on
        // silence (a relay crashing mid-route otherwise loses the sector).
        // `sink_merge` disarms; armed before routing so a synchronous
        // merge (sink is `at` or a direct neighbour) cleans up naturally.
        if self.cfg.token_watchdog {
            let pending = self
                .sinks
                .get(&token.spec.qid)
                .is_some_and(|s| !s.counted.contains(&(token.spec.attempt, token.sector)));
            if pending {
                let timer = ctx.set_timer(
                    at,
                    SimDuration::from_secs_f64(WATCHDOG_TIMEOUT),
                    pack_timer_key(K_WATCHDOG, token.spec.qid, token.sector as u32),
                );
                self.watchdogs.insert(
                    (token.spec.qid, token.sector),
                    Watchdog {
                        holder: at,
                        sent_to: at,
                        token,
                        finished: true,
                        timer,
                    },
                );
            }
        }
        self.route_result(ctx, at, result, None);
    }

    // ---------- result return ----------------------------------------

    fn route_result(
        &mut self,
        ctx: &mut Ctx<DiknnMsg>,
        at: NodeId,
        mut msg: ResultMsg,
        from: Option<NodeId>,
    ) {
        let sink = msg.spec.sink;
        if at == sink {
            return self.sink_merge(ctx, at, msg);
        }
        let neighbors = reliable(ctx, at);
        let exclude = self
            .result_excludes
            .get(&(msg.spec.qid, msg.sector))
            .map_or(&[][..], Vec::as_slice);
        // A dead end was routed to the sink's last known position but the
        // sink is not in the local table (it moved, or its beacon was
        // missed). Last resort: transmit to it directly — the MAC retries
        // deliver it if it is still within radio reach.
        let next = next_hop(
            ctx,
            at,
            &neighbors,
            Some(sink),
            &mut msg.gpsr,
            from,
            exclude,
        )
        .unwrap_or(sink);
        self.send(ctx, at, next, DiknnMsg::Result(msg));
    }

    fn sink_merge(&mut self, ctx: &mut Ctx<DiknnMsg>, at: NodeId, msg: ResultMsg) {
        debug_assert_eq!(at, msg.spec.sink);
        let qid = msg.spec.qid;
        // The sector reported all the way back: its watchdog is moot.
        if let Some(w) = self.watchdogs.remove(&(qid, msg.sector)) {
            ctx.cancel_timer(w.timer);
        }
        let Some(state) = self.sinks.get_mut(&qid) else {
            return;
        };
        // Candidates are merged from any attempt and any duplicate (the
        // set union is idempotent and stale data is still real data), but
        // only the first result per (current attempt, sector) counts
        // toward completion.
        state.merged.merge(&msg.candidates);
        state.max_final_radius = state.max_final_radius.max(msg.final_radius);
        if msg.spec.attempt == state.attempt && state.counted.insert((msg.spec.attempt, msg.sector))
        {
            state.returned += 1;
            state.explored += msg.explored;
            state.last_merge_at = ctx.now();
        }
        let done = state.returned >= state.expected;
        ctx.record_proto(
            at,
            ProtoEvent::SinkMerge {
                qid,
                attempt: msg.spec.attempt,
                sector: msg.sector,
            },
        );
        if done {
            self.finalize(ctx, qid, false);
        }
    }

    /// Complete a query: all parts arrived, or the sink timeout fired. The
    /// query's sink state goes with it; frames that still arrive for a
    /// finished query find none and are dropped.
    fn finalize(&mut self, ctx: &mut Ctx<DiknnMsg>, qid: u32, timed_out: bool) {
        let Some(state) = self.sinks.get(&qid) else {
            return;
        };
        let outcome = &mut self.outcomes[qid as usize];
        outcome.parts_returned = state.returned;
        outcome.explored_nodes = state.explored;
        outcome.final_radius = state.max_final_radius.max(outcome.boundary_radius);
        outcome.answer = state.merged.ids();
        outcome.answer.truncate(outcome.k);
        if state.returned > 0 {
            // Completion moment: when the last merged partial arrived (the
            // timeout itself is bookkeeping, not protocol traffic).
            outcome.completed_at = Some(if timed_out {
                state.last_merge_at
            } else {
                ctx.now()
            });
        }
        outcome.status = if state.returned >= state.expected {
            QueryStatus::Completed
        } else if state.returned > 0 {
            QueryStatus::PartialTimeout
        } else {
            QueryStatus::TokenLost
        };
        ctx.record_proto(
            outcome.sink,
            ProtoEvent::QueryDone {
                qid,
                status: outcome.status,
                answer: outcome.answer.clone(),
            },
        );
        // Drop any recovery state still alive for this query; pending
        // watchdog timers become harmless no-ops without their entries.
        self.watchdogs.retain(|&(q, _), _| q != qid);
        self.settle_serving(ctx, qid);
        self.sinks.remove(&qid);
    }

    // ---------- fault recovery ----------------------------------------

    /// `sink_timeout` expired for `(qid, attempt)`. Total silence with
    /// retry budget left launches a fresh dissemination; anything else
    /// finalises with whatever partials arrived.
    fn sink_timeout(&mut self, ctx: &mut Ctx<DiknnMsg>, at: NodeId, qid: u32, attempt: u8) {
        let retry = match self.sinks.get(&qid) {
            Some(s) if s.attempt == attempt => {
                s.returned == 0 && (attempt as u32) < self.cfg.max_query_retries
            }
            _ => return,
        };
        if retry {
            self.retry_query(ctx, at, qid);
        } else {
            self.finalize(ctx, qid, true);
        }
    }

    /// Re-issue a silent query from the sink's *current* position with a
    /// rotated itinerary origin (bounded by `max_query_retries`).
    fn retry_query(&mut self, ctx: &mut Ctx<DiknnMsg>, at: NodeId, qid: u32) {
        let attempt = {
            let Some(state) = self.sinks.get_mut(&qid) else {
                return;
            };
            state.attempt += 1;
            state.attempt
        };
        ctx.stats_mut().query_retries += 1;
        // Recovery state of the failed attempt must neither constrain nor
        // resurrect the new dissemination.
        let stale: Vec<TimerId> = self
            .watchdogs
            .iter()
            .filter(|(&(q, _), _)| q == qid)
            .map(|(_, w)| w.timer)
            .collect();
        for t in stale {
            ctx.cancel_timer(t);
        }
        self.watchdogs.retain(|&(q, _), _| q != qid);
        self.token_excludes.retain(|&(q, _), _| q != qid);
        self.result_excludes.retain(|&(q, _), _| q != qid);
        self.query_excludes.remove(&qid);
        let spec = QuerySpec::issue(ctx, &self.outcomes[qid as usize], attempt);
        ctx.set_timer(
            at,
            SimDuration::from_secs_f64(self.cfg.sink_timeout),
            pack_timer_key(K_SINK_TIMEOUT, qid, attempt as u32),
        );
        ctx.record_proto(
            at,
            ProtoEvent::QueryIssued {
                qid,
                attempt,
                k: spec.k,
            },
        );
        let msg = QueryMsg {
            spec,
            gpsr: GpsrHeader::new(spec.q),
            list: Vec::new(),
        };
        self.handle_query_arrival(ctx, at, msg, None);
    }

    /// The watchdog at `at` saw no durable progress from the successor it
    /// handed `(qid, sector)` to: re-issue the saved token, or — with the
    /// re-issue budget exhausted — salvage its partial state.
    fn watchdog_fire(&mut self, ctx: &mut Ctx<DiknnMsg>, at: NodeId, qid: u32, sector: u8) {
        let Some(w) = self.watchdogs.remove(&(qid, sector)) else {
            return; // disarmed in time
        };
        if w.holder != at {
            // A later handoff re-armed the watch elsewhere; this timer is
            // stale.
            self.watchdogs.insert((qid, sector), w);
            return;
        }
        if !self.sinks.contains_key(&qid) {
            return;
        }
        if self.token_is_stale(&w.token) {
            // The sector re-issued past this holder while its watch was
            // armed (a stale handoff had hijacked the slot): there is
            // nothing left to recover from this copy, and re-issuing it
            // would duplicate the live epoch.
            return;
        }
        let mut token = w.token;
        if w.finished {
            // The sector finished but its result never reached the sink —
            // the carrier likely died en route. Re-send it while the
            // re-issue budget lasts (finish_sector re-arms this watch).
            if token.reissues >= MAX_TOKEN_REISSUES {
                return; // budget gone: the sector stays partial
            }
            token.reissues += 1;
            ctx.stats_mut().tokens_reissued += 1;
            return self.finish_sector(ctx, at, token);
        }
        if token.reissues >= MAX_TOKEN_REISSUES {
            // Budget exhausted: report what the sector had at the handoff
            // rather than losing it outright.
            return self.finish_sector(ctx, at, token);
        }
        token.reissues += 1;
        token.epoch += 1;
        self.token_epochs
            .insert((qid, token.spec.attempt, sector), token.epoch);
        ctx.stats_mut().tokens_reissued += 1;
        ctx.record_proto(
            at,
            ProtoEvent::TokenReissued {
                qid,
                attempt: token.spec.attempt,
                sector,
                epoch: token.epoch,
            },
        );
        // The silent successor is suspect — avoid re-selecting it.
        self.token_excludes
            .entry((qid, sector))
            .or_default()
            .push(w.sent_to);
        self.advance_token(ctx, at, token);
    }
}

impl Protocol for Diknn {
    type Msg = DiknnMsg;

    fn on_start(&mut self, ctx: &mut Ctx<DiknnMsg>) {
        schedule_issues(ctx, 0, &self.requests);
    }

    fn on_timer(&mut self, at: NodeId, timer_key: u64, ctx: &mut Ctx<DiknnMsg>) {
        let (kind, qid, aux) = unpack_timer_key(timer_key);
        match kind {
            K_ISSUE => self.issue_query(ctx, aux as usize),
            K_COLLECT => self.collection_done(ctx, at, qid, aux as u8),
            K_REPLY => {
                if let Some(pending) = self.pending_replies.remove(&(qid, at.0)) {
                    let cached = self
                        .rdv_cache
                        .get(&(qid, at.0))
                        .cloned()
                        .unwrap_or_default();
                    let reply = ReplyMsg {
                        qid,
                        sector: pending.sector,
                        responder: at,
                        position: ctx.position(at),
                        speed: ctx.speed(at),
                        cached_counts: cached,
                    };
                    self.send(ctx, at, pending.to, DiknnMsg::Reply(reply));
                }
            }
            K_SINK_TIMEOUT => self.sink_timeout(ctx, at, qid, aux as u8),
            K_WATCHDOG => self.watchdog_fire(ctx, at, qid, aux as u8),
            K_ADMIT => self.admission_retry(ctx, qid),
            _ => unreachable!("unknown timer kind"),
        }
    }

    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &DiknnMsg, ctx: &mut Ctx<DiknnMsg>) {
        match msg {
            DiknnMsg::Query(m) => {
                self.handle_query_arrival(ctx, at, m.clone(), Some(from));
            }
            DiknnMsg::Token(t) => {
                // Duplicate suppression: a watchdog re-issue bumped the
                // epoch, so a lower-epoch copy still roaming is stale.
                let ek = (t.spec.qid, t.spec.attempt, t.sector);
                let cur = self.token_epochs.get(&ek).copied().unwrap_or(0);
                if t.epoch < cur {
                    return;
                }
                self.token_epochs.insert(ek, t.epoch);
                self.token_excludes.remove(&(t.spec.qid, t.sector));
                self.start_collection(ctx, at, (**t).clone());
            }
            DiknnMsg::Probe(p) => {
                // Cache the piggybacked sector counts regardless of whether
                // we reply: this is how rendezvous information crosses
                // sector borders.
                if !p.counts.is_empty() {
                    let entry = self.rdv_cache.entry((p.qid, at.0)).or_default();
                    for &(sct, c) in &p.counts {
                        match entry.iter_mut().find(|(s2, _)| *s2 == sct) {
                            Some((_, c2)) => *c2 = (*c2).max(c),
                            None => entry.push((sct, c)),
                        }
                    }
                }
                if p.window <= 0.0 {
                    return; // poll-only probe: stay silent
                }
                let my_pos = ctx.position(at);
                if my_pos.dist(p.q) > p.radius {
                    return;
                }
                if matches!(self.responded.get(&(p.qid, at.0)), Some(&(a, _)) if a == p.attempt) {
                    return; // one response per attempt per node
                }
                self.responded.insert((p.qid, at.0), (p.attempt, p.sector));
                // Contention timer ordered by the angle α from the probe's
                // reference line (§3.3).
                let alpha = angle::ccw_sweep(p.ref_angle, p.qnode_pos.angle_to(my_pos));
                let jitter: f64 = ctx.rng().gen_range(0.0..COLLECTION_UNIT * 0.25);
                let delay = p.window * (alpha / diknn_geom::TAU) + jitter;
                self.pending_replies.insert(
                    (p.qid, at.0),
                    PendingReply {
                        to: p.qnode,
                        sector: p.sector,
                    },
                );
                ctx.set_timer(
                    at,
                    SimDuration::from_secs_f64(delay),
                    pack_timer_key(K_REPLY, p.qid, 0),
                );
            }
            DiknnMsg::Poll(p) => {
                let my_pos = ctx.position(at);
                if my_pos.dist(p.q) > p.radius {
                    return;
                }
                // A directed poll from the sector we responded to means
                // that reply was lost — answer again. Polls from other
                // sectors of the same attempt are not answered twice; a
                // fresh attempt starts from a clean slate.
                match self.responded.get(&(p.qid, at.0)) {
                    Some(&(a, s)) if a == p.attempt && s != p.sector => return,
                    _ => {}
                }
                self.responded.insert((p.qid, at.0), (p.attempt, p.sector));
                // Cancel any still-pending contention reply to avoid
                // answering twice.
                self.pending_replies.remove(&(p.qid, at.0));
                let cached = self
                    .rdv_cache
                    .get(&(p.qid, at.0))
                    .cloned()
                    .unwrap_or_default();
                let reply = ReplyMsg {
                    qid: p.qid,
                    sector: p.sector,
                    responder: at,
                    position: my_pos,
                    speed: ctx.speed(at),
                    cached_counts: cached,
                };
                self.send(ctx, at, p.qnode, DiknnMsg::Reply(reply));
            }
            DiknnMsg::Reply(r) => {
                let ckey = (r.qid, r.sector);
                let Some(coll) = self.collecting.get_mut(&ckey) else {
                    return; // late reply, Q-node moved on
                };
                if coll.node != at {
                    return; // reply raced a token handoff
                }
                let cand = Candidate {
                    id: r.responder,
                    position: r.position,
                    dist: r.position.dist(coll.token.spec.q),
                };
                ctx.record_proto(
                    at,
                    ProtoEvent::CandidateHeard {
                        qid: r.qid,
                        attempt: coll.token.spec.attempt,
                        sector: r.sector,
                        responder: r.responder,
                        dist: cand.dist,
                        radius: coll.token.itin.radius,
                    },
                );
                if !coll.heard.contains(&r.responder) {
                    coll.heard.push(r.responder);
                    if ckey.1 == BOOTSTRAP {
                        coll.bootstrap_replies.push(cand);
                        coll.bootstrap_speeds.push(r.speed);
                    } else {
                        coll.token.explored += 1;
                    }
                }
                if ckey.1 != BOOTSTRAP {
                    coll.token.candidates.insert(cand);
                    coll.token.max_speed = coll.token.max_speed.max(r.speed);
                    coll.token.merge_counts(&r.cached_counts);
                } else {
                    coll.token.merge_counts(&r.cached_counts);
                }
            }
            DiknnMsg::Rendezvous(m) => {
                let entry = self.rdv_cache.entry((m.qid, at.0)).or_default();
                for &(s, c) in &m.counts {
                    match entry.iter_mut().find(|(s2, _)| *s2 == s) {
                        Some((_, c2)) => *c2 = (*c2).max(c),
                        None => entry.push((s, c)),
                    }
                }
            }
            DiknnMsg::Result(m) => {
                self.result_excludes.remove(&(m.spec.qid, m.sector));
                if at == m.spec.sink {
                    self.sink_merge(ctx, at, m.clone());
                } else {
                    self.route_result(ctx, at, m.clone(), Some(from));
                }
            }
        }
    }

    fn on_send_failed(&mut self, at: NodeId, to: NodeId, msg: &DiknnMsg, ctx: &mut Ctx<DiknnMsg>) {
        match msg {
            DiknnMsg::Query(m) => {
                self.query_excludes.entry(m.spec.qid).or_default().push(to);
                let neighbors = reliable(ctx, at);
                self.forward_query(ctx, at, &neighbors, m.clone(), None);
            }
            DiknnMsg::Token(t) => {
                let k = (t.spec.qid, t.sector);
                let excl = self.token_excludes.entry(k).or_default();
                excl.push(to);
                if excl.len() > 16 {
                    // Too many dead neighbours: give up on this sector here.
                    self.token_excludes.remove(&k);
                    return self.finish_sector(ctx, at, (**t).clone());
                }
                self.advance_token(ctx, at, (**t).clone());
            }
            DiknnMsg::Result(m) => {
                let k = (m.spec.qid, m.sector);
                let excl = self.result_excludes.entry(k).or_default();
                excl.push(to);
                if excl.len() > 16 {
                    self.result_excludes.remove(&k);
                    return; // partial result lost
                }
                self.route_result(ctx, at, m.clone(), None);
            }
            // Lost replies/polls are data loss the protocol tolerates.
            DiknnMsg::Reply(_) | DiknnMsg::Poll(_) => {}
            DiknnMsg::Probe(_) | DiknnMsg::Rendezvous(_) => {}
        }
    }
}

impl KnnProtocol for Diknn {
    fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    fn outcomes_mut(&mut self) -> &mut [QueryOutcome] {
        &mut self.outcomes
    }

    fn finish(&mut self, ctx: &Ctx<DiknnMsg>) {
        if self.cfg.serving.enabled {
            // Merge members whose host never finalised before the run
            // ended: split whatever the host's sink has merged so far.
            let orphans: Vec<(u32, u32)> =
                self.serving.host_of.iter().map(|(&m, &h)| (m, h)).collect();
            for (member, host) in orphans {
                if self.outcomes[member as usize].status != QueryStatus::Pending {
                    continue;
                }
                let (m_q, m_k) = {
                    let o = &self.outcomes[member as usize];
                    (o.q, o.k)
                };
                let answer = self
                    .sinks
                    .get(&host)
                    .map(|s| Self::rank_for(s.merged.items(), m_q, m_k))
                    .unwrap_or_default();
                let o = &mut self.outcomes[member as usize];
                o.answer = answer;
                o.status = QueryStatus::Merged;
            }
            self.serving.host_of.clear();
            self.serving.members.clear();
            // Arrivals still parked behind an admission backoff when time
            // ran out were never executed: that is a rejection, not a loss
            // (a dead sink still reads as sink-unreachable below).
            let waiting: Vec<u32> = self.serving.defers.keys().copied().collect();
            for qid in waiting {
                let o = &mut self.outcomes[qid as usize];
                if o.status == QueryStatus::Pending && ctx.is_alive(o.sink) {
                    o.status = QueryStatus::Rejected;
                }
            }
            self.serving.defers.clear();
        }
        // Default classification for everything still pending (the
        // trait's fallback, which an override cannot delegate to).
        for o in &mut self.outcomes {
            o.settle(ctx.is_alive(o.sink));
        }
    }
}

/// Snapshot/restore of every mutable protocol field, in declaration order.
/// `cfg` is deliberately excluded: the restoring caller re-supplies the
/// configuration and the engine-level fingerprint guards against mixups.
/// Any change to this field list requires a [`diknn_sim::SNAP_VERSION`]
/// bump.
impl diknn_snap::SnapState for Diknn {
    fn snap_state(&self, w: &mut diknn_snap::SnapWriter) {
        self.requests.snap(w);
        self.outcomes.snap(w);
        self.sinks.snap(w);
        self.collecting.snap(w);
        self.pending_replies.snap(w);
        self.responded.snap(w);
        self.rdv_cache.snap(w);
        self.token_excludes.snap(w);
        self.query_excludes.snap(w);
        self.result_excludes.snap(w);
        self.watchdogs.snap(w);
        self.token_epochs.snap(w);
        self.serving.snap(w);
    }

    fn restore_state(
        &mut self,
        r: &mut diknn_snap::SnapReader<'_>,
    ) -> Result<(), diknn_snap::SnapError> {
        self.requests = Snap::unsnap(r)?;
        self.outcomes = Snap::unsnap(r)?;
        self.sinks = Snap::unsnap(r)?;
        self.collecting = Snap::unsnap(r)?;
        self.pending_replies = Snap::unsnap(r)?;
        self.responded = Snap::unsnap(r)?;
        self.rdv_cache = Snap::unsnap(r)?;
        self.token_excludes = Snap::unsnap(r)?;
        self.query_excludes = Snap::unsnap(r)?;
        self.result_excludes = Snap::unsnap(r)?;
        self.watchdogs = Snap::unsnap(r)?;
        self.token_epochs = Snap::unsnap(r)?;
        self.serving = Snap::unsnap(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_is_deterministic_and_spread() {
        let a = Diknn::origin_for(1, 0);
        let b = Diknn::origin_for(1, 0);
        let c = Diknn::origin_for(2, 0);
        assert_eq!(a, b);
        assert!(diknn_geom::angle::diff(a, c) > 0.1);
    }

    #[test]
    fn retry_attempts_rotate_the_origin() {
        let a = Diknn::origin_for(3, 0);
        let b = Diknn::origin_for(3, 1);
        assert!(
            diknn_geom::angle::diff(a, b) > 0.5,
            "retry must take a different itinerary"
        );
    }

    #[test]
    fn retry_after_quotes_are_bounded_and_follow_the_drain_rate() {
        let at = SimTime::from_secs_f64;
        let none = VecDeque::new();
        // Stalled sink: 0.5 s × (1 + depth), capped at 4 s.
        assert_eq!(retry_after(&none, 2, at(1.0)), 1.5);
        assert_eq!(retry_after(&none, 22, at(1.0)), MAX_RETRY_AFTER_S);
        // Draining sink: five completions in the 5 s window are 1 per
        // second, so two in flight free a slot in depth ÷ rate = 2 s.
        let recent: VecDeque<SimTime> = [2.0, 2.5, 3.0, 4.0, 6.0].map(at).into();
        assert_eq!(retry_after(&recent, 2, at(6.0)), 2.0);
        // A completion older than the window does not count.
        let mut with_old = recent.clone();
        with_old.push_front(at(0.5));
        assert_eq!(
            retry_after(&with_old, 2, at(6.0)),
            retry_after(&recent, 2, at(6.0))
        );
        // A completion exactly one window old still counts: two in the
        // window are 0.4 per second, so one in flight frees in 2.5 s.
        let edge: VecDeque<SimTime> = [1.0, 6.0].map(at).into();
        assert_eq!(retry_after(&edge, 1, at(6.0)), 2.5);
        // Never below the base quote, even with nothing in flight.
        assert_eq!(retry_after(&recent, 0, at(6.0)), RETRY_AFTER_S);
    }

    // ---------- serving-layer edge cases ------------------------------
    //
    // These drive `serve_query` directly through `Simulator::drive`,
    // fabricating protocol state to pin the exact boundary behaviour that
    // end-to-end runs cannot time precisely (integer-ns ages, hosts that
    // never finalise).

    use crate::config::ServingConfig;
    use diknn_mobility::StaticMobility;
    use diknn_sim::{SharedMobility, SimConfig, Simulator};
    use std::sync::Arc;

    fn pending_outcome(qid: u32, sink: NodeId, q: Point, k: usize, at: SimTime) -> QueryOutcome {
        QueryOutcome {
            qid,
            sink,
            q,
            k,
            issued_at: at,
            completed_at: None,
            answer: Vec::new(),
            boundary_radius: 0.0,
            final_radius: 0.0,
            routing_hops: 0,
            parts_expected: 0,
            parts_returned: 0,
            explored_nodes: 0,
            status: QueryStatus::Pending,
        }
    }

    /// A 3-node static simulator with the serving layer on, advanced to
    /// t = 10 s, so `ctx.now()` is a realistic mid-run instant when the
    /// closures below fabricate state.
    fn tiny_serving_sim() -> Simulator<Diknn> {
        let cfg = DiknnConfig {
            serving: ServingConfig::enabled(),
            ..DiknnConfig::default()
        };
        let plans: Vec<SharedMobility> = (0..3)
            .map(|i| {
                Arc::new(StaticMobility::new(Point::new(
                    20.0 + 30.0 * i as f64,
                    50.0,
                ))) as SharedMobility
            })
            .collect();
        let sim_cfg = SimConfig {
            field: diknn_geom::Rect::new(0.0, 0.0, 100.0, 100.0),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(sim_cfg, plans, Diknn::new(cfg, Vec::new()), 9);
        sim.run_until(SimTime::from_secs_f64(10.0));
        sim
    }

    #[test]
    fn cache_hit_at_exact_ttl_expiry() {
        // The drift bound (10 m at 5 m/s) is 2 s too, so the age bound is
        // exactly the 2 s TTL.
        let mut sim = tiny_serving_sim();
        sim.drive(|p, ctx| {
            let now = ctx.now();
            // Entry whose age is exactly the TTL, to the nanosecond.
            let born = SimTime::from_nanos(now.as_nanos() - 2_000_000_000);
            p.serving.cache.push(CacheEntry {
                src_qid: 7,
                q: Point::new(50.0, 50.0),
                k: 8,
                completed_at: born,
                candidates: vec![
                    Candidate {
                        id: NodeId(1),
                        position: Point::new(50.0, 50.0),
                        dist: 0.0,
                    },
                    Candidate {
                        id: NodeId(2),
                        position: Point::new(80.0, 50.0),
                        dist: 30.0,
                    },
                ],
            });
            p.outcomes.push(pending_outcome(
                0,
                NodeId(0),
                Point::new(52.0, 50.0),
                2,
                now,
            ));
            p.serve_query(ctx, 0);
            assert_eq!(
                p.outcomes[0].status,
                QueryStatus::CacheHit,
                "an entry exactly at TTL age must still serve (inclusive bound)"
            );
            assert_eq!(p.outcomes[0].answer, vec![NodeId(1), NodeId(2)]);
            assert_eq!(p.outcomes[0].completed_at, Some(now));
        });
    }

    #[test]
    fn cache_entry_one_nanosecond_past_ttl_is_stale() {
        let mut sim = tiny_serving_sim();
        sim.drive(|p, ctx| {
            let now = ctx.now();
            let born = SimTime::from_nanos(now.as_nanos() - 2_000_000_001);
            p.serving.cache.push(CacheEntry {
                src_qid: 7,
                q: Point::new(50.0, 50.0),
                k: 8,
                completed_at: born,
                candidates: vec![Candidate {
                    id: NodeId(1),
                    position: Point::new(50.0, 50.0),
                    dist: 0.0,
                }],
            });
            p.outcomes.push(pending_outcome(
                0,
                NodeId(0),
                Point::new(52.0, 50.0),
                2,
                now,
            ));
            p.serve_query(ctx, 0);
            assert_ne!(
                p.outcomes[0].status,
                QueryStatus::CacheHit,
                "an entry 1 ns past the TTL must not serve"
            );
            assert!(
                p.serving.cache.is_empty(),
                "the stale entry must have been evicted by the retain pass"
            );
            // The miss falls through to admission and launches for real.
            assert!(p.sinks.contains_key(&0));
        });
    }

    #[test]
    fn merge_member_attributed_when_host_never_finalises() {
        let mut sim = tiny_serving_sim();
        let host_q = Point::new(50.0, 50.0);
        sim.drive(|p, ctx| {
            let now = ctx.now();
            // An in-flight host with a partially filled merged pool.
            p.outcomes
                .push(pending_outcome(0, NodeId(0), host_q, 4, now));
            let mut merged = CandidateSet::new(4);
            for (id, x) in [(1u32, 40.0), (2, 60.0), (3, 90.0)] {
                merged.insert(Candidate {
                    id: NodeId(id),
                    position: Point::new(x, 50.0),
                    dist: host_q.dist(Point::new(x, 50.0)),
                });
            }
            p.sinks.insert(
                0,
                SinkState {
                    expected: 4,
                    merged,
                    returned: 1,
                    explored: 3,
                    max_final_radius: 30.0,
                    last_merge_at: now,
                    attempt: 0,
                    counted: BTreeSet::new(),
                },
            );
            // An arrival 8 m away, inside the merge radius, merges onto it
            // instead of launching.
            p.outcomes.push(pending_outcome(
                1,
                NodeId(1),
                Point::new(58.0, 50.0),
                2,
                now,
            ));
            p.serve_query(ctx, 1);
            assert_eq!(
                p.serving.host_of.get(&1),
                Some(&0),
                "member must attach to the in-flight host"
            );
            assert_eq!(p.outcomes[1].status, QueryStatus::Pending);
        });
        // The run ends with the host still in flight: `finish` must settle
        // the orphaned member from whatever the host's sink merged so far,
        // re-ranked for the member's own query point.
        let (mut protocol, ctx) = sim.into_parts();
        protocol.finish(&ctx);
        let member = &protocol.outcomes()[1];
        assert_eq!(member.status, QueryStatus::Merged);
        assert_eq!(
            member.answer,
            vec![NodeId(2), NodeId(1)],
            "answer must be ranked around the member's point, not the host's"
        );
        let host = &protocol.outcomes()[0];
        assert_eq!(
            host.status,
            QueryStatus::TokenLost,
            "the host itself keeps its own (failed) classification"
        );
    }
}
