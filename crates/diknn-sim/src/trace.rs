//! The flight recorder: a typed, ring-buffered event trace.
//!
//! End-state metrics (accuracy, energy, status counts) cannot distinguish a
//! correct execution from a wrong-but-lucky one. The flight recorder makes
//! *protocol behaviour over time* machine-checkable, in the same spirit as
//! the ns-2 packet traces the paper's methodology relies on: every
//! protocol-relevant event is recorded as a [`TraceEvent`] stamped with
//! [`SimTime`] + [`NodeId`], and the stream can be
//!
//! * replayed by an invariant checker (`diknn-workloads::invariants`), and
//! * serialised to a deterministic line format for golden-trace files
//!   ([`EventTrace::render`]).
//!
//! Two event families share the one stream:
//!
//! * **Engine events** ([`TraceKind`] radio/fault variants) recorded by the
//!   event engine itself: transmission starts, crashes, recoveries, churn,
//!   and energy readings under a budget. Per-reception outcomes
//!   (deliveries, collisions, losses, drops) and timer firings carry no
//!   query id and are not recorded; [`crate::SimStats`] counts each one.
//! * **Protocol events** ([`ProtoEvent`], wrapped in [`TraceKind::Proto`])
//!   emitted by protocol implementations through the `TraceSink` trait in
//!   `diknn-core`: query issue, itinerary handoffs, boundary changes,
//!   sector completion, token re-issue epochs, sink merges, final answers.
//!
//! Recording is opt-in via [`crate::SimConfig::trace`] and costs nothing
//! when disabled. The buffer is a bounded ring: once `capacity` events are
//! held, the oldest event is evicted and counted in
//! [`EventTrace::dropped_events`] — checkers treat a non-zero drop count as
//! "trace incomplete" rather than silently passing.

use std::collections::VecDeque;
use std::fmt;

use crate::ids::NodeId;
use crate::time::SimTime;

/// Flight-recorder configuration (a field of [`crate::SimConfig`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off by default: long runs would otherwise pay memory
    /// for a trace nobody reads.
    pub enabled: bool,
    /// Ring-buffer capacity in events; the oldest events are evicted (and
    /// counted) beyond this. Must be nonzero when `enabled`.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 1 << 20,
        }
    }
}

impl TraceConfig {
    /// An enabled recorder with the default capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// Protocol-level trace points, emitted by protocol implementations via the
/// `TraceSink` trait in `diknn-core`. The vocabulary lives here so the sim
/// engine, the protocols and the invariant checker share one event stream
/// without a dependency cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoEvent {
    /// A KNN query was issued (attempt 0) or retried (attempt > 0) at the
    /// sink.
    QueryIssued { qid: u32, attempt: u8, k: u32 },
    /// The home node fixed the KNNB boundary for this attempt (radius after
    /// clamping).
    BoundaryEstimated { qid: u32, attempt: u8, radius: f64 },
    /// A sector token was handed from the event's node to `to`.
    TokenHandoff {
        qid: u32,
        attempt: u8,
        sector: u8,
        epoch: u32,
        to: NodeId,
        /// Itinerary arc-length progress at the moment of the handoff.
        frontier: f64,
    },
    /// A sector token extended its boundary radius (KNNB expand).
    BoundaryExtended {
        qid: u32,
        attempt: u8,
        sector: u8,
        old_radius: f64,
        new_radius: f64,
    },
    /// A Q-node accepted a candidate reply during collection. `dist` is the
    /// candidate's distance to the query point, `radius` the boundary in
    /// force at collection time.
    CandidateHeard {
        qid: u32,
        attempt: u8,
        sector: u8,
        responder: NodeId,
        dist: f64,
        radius: f64,
    },
    /// A sector traversal completed and its partial result left for the
    /// sink.
    SectorFinished {
        qid: u32,
        attempt: u8,
        sector: u8,
        epoch: u32,
    },
    /// The token-loss watchdog re-issued a sector token under a new epoch.
    TokenReissued {
        qid: u32,
        attempt: u8,
        sector: u8,
        epoch: u32,
    },
    /// The sink merged one sector's partial result.
    SinkMerge { qid: u32, attempt: u8, sector: u8 },
    /// The serving layer admitted a query into the engine; `depth` is the
    /// number of queries in flight *after* admission.
    QueryAdmitted { qid: u32, depth: u32 },
    /// The serving layer refused to start a query at its arrival (or
    /// deferred-retry) time because `depth` queries were already in flight.
    /// `terminal` distinguishes a final rejection (the query ends with
    /// status `rejected`, no execution ever happens) from a deferral that
    /// will retry after a backoff.
    QueryRejected {
        qid: u32,
        depth: u32,
        terminal: bool,
    },
    /// The serving layer attached this query to the in-flight query `host`
    /// whose itinerary spatially covers it; the member never executes its
    /// own itinerary and is answered from the host's return leg.
    QueryMerged { qid: u32, host: u32 },
    /// The serving layer answered this query from the cached result of the
    /// earlier query `src`. `age_s` is the cache entry age at serve time and
    /// `ttl_s` the TTL in force — recorded so the trace itself proves the
    /// hit was in-date.
    CacheServed {
        qid: u32,
        src: u32,
        age_s: f64,
        ttl_s: f64,
    },
    /// The query reached a terminal status; `answer` is the final KNN id
    /// list reported to the application.
    QueryDone {
        qid: u32,
        status: &'static str,
        answer: Vec<NodeId>,
    },
}

/// What happened (the payload of a [`TraceEvent`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// The node put a frame on the air. `dest` is `None` for broadcasts;
    /// `beacon` marks engine beacon traffic.
    TxStart { dest: Option<NodeId>, beacon: bool },
    /// Fail-stop crash.
    Crash,
    /// A crashed node rebooted.
    Recover,
    /// A churn departure: the node left the network voluntarily (see
    /// [`crate::faults::ChurnPlan`]).
    Leave,
    /// A churned-out node rejoined the network (with its neighbour table
    /// wiped when the churn plan models state loss).
    Rejoin,
    /// The node exhausted its energy budget and died permanently.
    EnergyDeath,
    /// Cumulative radio energy spent by the node, in joules, sampled after
    /// a charge. Recorded only under an energy budget.
    Energy { spent_j: f64 },
    /// A protocol-level event (see [`ProtoEvent`]).
    Proto(ProtoEvent),
}

/// One recorded event: when, where, what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub time: SimTime,
    pub node: NodeId,
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    /// The deterministic line format used for golden files: integer
    /// nanoseconds, then the node, then a keyword with `key=value` fields.
    /// Floats are rendered with three decimals — exact enough to pin
    /// behaviour, coarse enough to survive formatting.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ", self.time.as_nanos(), self.node)?;
        match &self.kind {
            TraceKind::TxStart { dest, beacon } => {
                match dest {
                    Some(to) => write!(f, "tx dest={to}")?,
                    None => write!(f, "tx dest=bcast")?,
                }
                if *beacon {
                    write!(f, " beacon")?;
                }
                Ok(())
            }
            TraceKind::Crash => write!(f, "crash"),
            TraceKind::Recover => write!(f, "recover"),
            TraceKind::Leave => write!(f, "leave"),
            TraceKind::Rejoin => write!(f, "rejoin"),
            TraceKind::EnergyDeath => write!(f, "energy-death"),
            TraceKind::Energy { spent_j } => write!(f, "energy spent_j={spent_j:.9}"),
            TraceKind::Proto(p) => match p {
                ProtoEvent::QueryIssued { qid, attempt, k } => {
                    write!(f, "proto query-issued qid={qid} attempt={attempt} k={k}")
                }
                ProtoEvent::BoundaryEstimated {
                    qid,
                    attempt,
                    radius,
                } => write!(
                    f,
                    "proto boundary qid={qid} attempt={attempt} radius={radius:.3}"
                ),
                ProtoEvent::TokenHandoff {
                    qid,
                    attempt,
                    sector,
                    epoch,
                    to,
                    frontier,
                } => write!(
                    f,
                    "proto handoff qid={qid} attempt={attempt} sector={sector} \
                     epoch={epoch} to={to} frontier={frontier:.3}"
                ),
                ProtoEvent::BoundaryExtended {
                    qid,
                    attempt,
                    sector,
                    old_radius,
                    new_radius,
                } => write!(
                    f,
                    "proto extend qid={qid} attempt={attempt} sector={sector} \
                     old={old_radius:.3} new={new_radius:.3}"
                ),
                ProtoEvent::CandidateHeard {
                    qid,
                    attempt,
                    sector,
                    responder,
                    dist,
                    radius,
                } => write!(
                    f,
                    "proto heard qid={qid} attempt={attempt} sector={sector} \
                     responder={responder} dist={dist:.3} radius={radius:.3}"
                ),
                ProtoEvent::SectorFinished {
                    qid,
                    attempt,
                    sector,
                    epoch,
                } => write!(
                    f,
                    "proto sector-finished qid={qid} attempt={attempt} \
                     sector={sector} epoch={epoch}"
                ),
                ProtoEvent::TokenReissued {
                    qid,
                    attempt,
                    sector,
                    epoch,
                } => write!(
                    f,
                    "proto reissue qid={qid} attempt={attempt} sector={sector} \
                     epoch={epoch}"
                ),
                ProtoEvent::SinkMerge {
                    qid,
                    attempt,
                    sector,
                } => write!(
                    f,
                    "proto sink-merge qid={qid} attempt={attempt} sector={sector}"
                ),
                ProtoEvent::QueryAdmitted { qid, depth } => {
                    write!(f, "proto admitted qid={qid} depth={depth}")
                }
                ProtoEvent::QueryRejected {
                    qid,
                    depth,
                    terminal,
                } => {
                    write!(f, "proto rejected qid={qid} depth={depth}")?;
                    if *terminal {
                        write!(f, " terminal")?;
                    }
                    Ok(())
                }
                ProtoEvent::QueryMerged { qid, host } => {
                    write!(f, "proto merged qid={qid} host={host}")
                }
                ProtoEvent::CacheServed {
                    qid,
                    src,
                    age_s,
                    ttl_s,
                } => write!(
                    f,
                    "proto cache-served qid={qid} src={src} age={age_s:.3} ttl={ttl_s:.3}"
                ),
                ProtoEvent::QueryDone {
                    qid,
                    status,
                    answer,
                } => {
                    write!(f, "proto query-done qid={qid} status={status} answer=[")?;
                    for (i, id) in answer.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{id}")?;
                    }
                    write!(f, "]")
                }
            },
        }
    }
}

/// Map a serialized `QueryDone` status string back to the `&'static str`
/// the trace vocabulary uses. The set mirrors `QueryStatus::label()` in
/// `diknn-core`; an unknown status means the snapshot came from a different
/// (incompatible) build and is rejected.
fn intern_status(s: &str) -> Result<&'static str, diknn_snap::SnapError> {
    const KNOWN: [&str; 8] = [
        "pending",
        "completed",
        "partial-timeout",
        "token-lost",
        "sink-unreachable",
        "rejected",
        "merged",
        "cache-hit",
    ];
    KNOWN
        .into_iter()
        .find(|k| *k == s)
        .ok_or(diknn_snap::SnapError::Corrupt("unknown query status label"))
}

impl diknn_snap::Snap for ProtoEvent {
    fn snap(&self, w: &mut diknn_snap::SnapWriter) {
        match self {
            ProtoEvent::QueryIssued { qid, attempt, k } => {
                w.put_u8(0);
                qid.snap(w);
                attempt.snap(w);
                k.snap(w);
            }
            ProtoEvent::BoundaryEstimated {
                qid,
                attempt,
                radius,
            } => {
                w.put_u8(1);
                qid.snap(w);
                attempt.snap(w);
                radius.snap(w);
            }
            ProtoEvent::TokenHandoff {
                qid,
                attempt,
                sector,
                epoch,
                to,
                frontier,
            } => {
                w.put_u8(2);
                qid.snap(w);
                attempt.snap(w);
                sector.snap(w);
                epoch.snap(w);
                to.snap(w);
                frontier.snap(w);
            }
            ProtoEvent::BoundaryExtended {
                qid,
                attempt,
                sector,
                old_radius,
                new_radius,
            } => {
                w.put_u8(3);
                qid.snap(w);
                attempt.snap(w);
                sector.snap(w);
                old_radius.snap(w);
                new_radius.snap(w);
            }
            ProtoEvent::CandidateHeard {
                qid,
                attempt,
                sector,
                responder,
                dist,
                radius,
            } => {
                w.put_u8(4);
                qid.snap(w);
                attempt.snap(w);
                sector.snap(w);
                responder.snap(w);
                dist.snap(w);
                radius.snap(w);
            }
            ProtoEvent::SectorFinished {
                qid,
                attempt,
                sector,
                epoch,
            } => {
                w.put_u8(5);
                qid.snap(w);
                attempt.snap(w);
                sector.snap(w);
                epoch.snap(w);
            }
            ProtoEvent::TokenReissued {
                qid,
                attempt,
                sector,
                epoch,
            } => {
                w.put_u8(6);
                qid.snap(w);
                attempt.snap(w);
                sector.snap(w);
                epoch.snap(w);
            }
            ProtoEvent::SinkMerge {
                qid,
                attempt,
                sector,
            } => {
                w.put_u8(7);
                qid.snap(w);
                attempt.snap(w);
                sector.snap(w);
            }
            ProtoEvent::QueryAdmitted { qid, depth } => {
                w.put_u8(8);
                qid.snap(w);
                depth.snap(w);
            }
            ProtoEvent::QueryRejected {
                qid,
                depth,
                terminal,
            } => {
                w.put_u8(9);
                qid.snap(w);
                depth.snap(w);
                terminal.snap(w);
            }
            ProtoEvent::QueryMerged { qid, host } => {
                w.put_u8(10);
                qid.snap(w);
                host.snap(w);
            }
            ProtoEvent::CacheServed {
                qid,
                src,
                age_s,
                ttl_s,
            } => {
                w.put_u8(11);
                qid.snap(w);
                src.snap(w);
                age_s.snap(w);
                ttl_s.snap(w);
            }
            ProtoEvent::QueryDone {
                qid,
                status,
                answer,
            } => {
                w.put_u8(12);
                qid.snap(w);
                w.put_bytes(status.as_bytes());
                answer.snap(w);
            }
        }
    }

    fn unsnap(r: &mut diknn_snap::SnapReader<'_>) -> Result<Self, diknn_snap::SnapError> {
        Ok(match r.take_u8()? {
            0 => ProtoEvent::QueryIssued {
                qid: u32::unsnap(r)?,
                attempt: u8::unsnap(r)?,
                k: u32::unsnap(r)?,
            },
            1 => ProtoEvent::BoundaryEstimated {
                qid: u32::unsnap(r)?,
                attempt: u8::unsnap(r)?,
                radius: f64::unsnap(r)?,
            },
            2 => ProtoEvent::TokenHandoff {
                qid: u32::unsnap(r)?,
                attempt: u8::unsnap(r)?,
                sector: u8::unsnap(r)?,
                epoch: u32::unsnap(r)?,
                to: NodeId::unsnap(r)?,
                frontier: f64::unsnap(r)?,
            },
            3 => ProtoEvent::BoundaryExtended {
                qid: u32::unsnap(r)?,
                attempt: u8::unsnap(r)?,
                sector: u8::unsnap(r)?,
                old_radius: f64::unsnap(r)?,
                new_radius: f64::unsnap(r)?,
            },
            4 => ProtoEvent::CandidateHeard {
                qid: u32::unsnap(r)?,
                attempt: u8::unsnap(r)?,
                sector: u8::unsnap(r)?,
                responder: NodeId::unsnap(r)?,
                dist: f64::unsnap(r)?,
                radius: f64::unsnap(r)?,
            },
            5 => ProtoEvent::SectorFinished {
                qid: u32::unsnap(r)?,
                attempt: u8::unsnap(r)?,
                sector: u8::unsnap(r)?,
                epoch: u32::unsnap(r)?,
            },
            6 => ProtoEvent::TokenReissued {
                qid: u32::unsnap(r)?,
                attempt: u8::unsnap(r)?,
                sector: u8::unsnap(r)?,
                epoch: u32::unsnap(r)?,
            },
            7 => ProtoEvent::SinkMerge {
                qid: u32::unsnap(r)?,
                attempt: u8::unsnap(r)?,
                sector: u8::unsnap(r)?,
            },
            8 => ProtoEvent::QueryAdmitted {
                qid: u32::unsnap(r)?,
                depth: u32::unsnap(r)?,
            },
            9 => ProtoEvent::QueryRejected {
                qid: u32::unsnap(r)?,
                depth: u32::unsnap(r)?,
                terminal: bool::unsnap(r)?,
            },
            10 => ProtoEvent::QueryMerged {
                qid: u32::unsnap(r)?,
                host: u32::unsnap(r)?,
            },
            11 => ProtoEvent::CacheServed {
                qid: u32::unsnap(r)?,
                src: u32::unsnap(r)?,
                age_s: f64::unsnap(r)?,
                ttl_s: f64::unsnap(r)?,
            },
            12 => {
                let qid = u32::unsnap(r)?;
                let status = {
                    let bytes = r.take_bytes()?;
                    let s = std::str::from_utf8(bytes)
                        .map_err(|_| diknn_snap::SnapError::Corrupt("invalid utf-8 status"))?;
                    intern_status(s)?
                };
                ProtoEvent::QueryDone {
                    qid,
                    status,
                    answer: Vec::unsnap(r)?,
                }
            }
            tag => {
                return Err(diknn_snap::SnapError::BadTag {
                    ty: "ProtoEvent",
                    tag,
                })
            }
        })
    }
}

// Tags 1–5 belonged to the per-reception and timer kinds dropped in
// snapshot version 3; they are not reused.
diknn_snap::snap_enum!(TraceKind {
    0 => TxStart { dest, beacon },
    6 => Crash,
    7 => Recover,
    8 => EnergyDeath,
    9 => Energy { spent_j },
    10 => Proto(p),
    11 => Leave,
    12 => Rejoin,
});

diknn_snap::snap_struct!(TraceEvent { time, node, kind });

/// The ring-buffered flight recorder owned by [`crate::Ctx`].
#[derive(Debug, Clone)]
pub struct EventTrace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    enabled: bool,
    /// Events evicted after the ring filled.
    dropped: u64,
}

impl EventTrace {
    /// Build from the run configuration.
    pub fn new(cfg: &TraceConfig) -> Self {
        EventTrace {
            events: VecDeque::new(),
            capacity: cfg.capacity.max(1),
            enabled: cfg.enabled,
            dropped: 0,
        }
    }

    /// A disabled recorder (records nothing).
    pub fn disabled() -> Self {
        EventTrace::new(&TraceConfig::default())
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring after it filled; a checker seeing a
    /// nonzero count must not certify the run (the evidence is incomplete).
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Iterate over the held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Record one event (no-op while disabled). Public so tests and
    /// external tools can assemble synthetic traces for the invariant
    /// checker; during a run the engine is the only writer.
    #[inline]
    pub fn record(&mut self, time: SimTime, node: NodeId, kind: TraceKind) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { time, node, kind });
    }

    /// Render the whole trace in the deterministic line format, one event
    /// per line (oldest first), with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Render only the protocol-level and fault events — the compact,
    /// behaviour-defining subset used by golden-trace files.
    pub fn render_protocol(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            if matches!(
                e.kind,
                TraceKind::Proto(_)
                    | TraceKind::Crash
                    | TraceKind::Recover
                    | TraceKind::Leave
                    | TraceKind::Rejoin
                    | TraceKind::EnergyDeath
            ) {
                out.push_str(&e.to_string());
                out.push('\n');
            }
        }
        out
    }
}

diknn_snap::snap_struct!(EventTrace {
    events,
    capacity,
    enabled,
    dropped
});

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(nanos: u64, node: u32, kind: TraceKind) -> (SimTime, NodeId, TraceKind) {
        (SimTime::from_nanos(nanos), NodeId(node), kind)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = EventTrace::disabled();
        let (at, n, k) = ev(5, 1, TraceKind::Crash);
        t.record(at, n, k);
        assert!(t.is_empty());
        assert_eq!(t.dropped_events(), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut t = EventTrace::new(&TraceConfig {
            enabled: true,
            capacity: 2,
        });
        for i in 0..5u64 {
            let (at, n, k) = ev(i, i as u32, TraceKind::Crash);
            t.record(at, n, k);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped_events(), 3);
        let first = t.events().next().unwrap();
        assert_eq!(first.time.as_nanos(), 3);
    }

    #[test]
    fn line_format_is_stable() {
        let e = TraceEvent {
            time: SimTime::from_nanos(1_500_000_000),
            node: NodeId(7),
            kind: TraceKind::TxStart {
                dest: Some(NodeId(9)),
                beacon: false,
            },
        };
        assert_eq!(e.to_string(), "1500000000 n7 tx dest=n9");
        let e = TraceEvent {
            time: SimTime::ZERO,
            node: NodeId(0),
            kind: TraceKind::Proto(ProtoEvent::QueryDone {
                qid: 3,
                status: "completed",
                answer: vec![NodeId(1), NodeId(2)],
            }),
        };
        assert_eq!(
            e.to_string(),
            "0 n0 proto query-done qid=3 status=completed answer=[n1,n2]"
        );
    }

    #[test]
    fn serving_line_format_is_stable() {
        let at = SimTime::from_nanos(2_000_000_000);
        let n = NodeId(3);
        let line = |p: ProtoEvent| {
            TraceEvent {
                time: at,
                node: n,
                kind: TraceKind::Proto(p),
            }
            .to_string()
        };
        assert_eq!(
            line(ProtoEvent::QueryAdmitted { qid: 4, depth: 7 }),
            "2000000000 n3 proto admitted qid=4 depth=7"
        );
        assert_eq!(
            line(ProtoEvent::QueryRejected {
                qid: 5,
                depth: 8,
                terminal: false,
            }),
            "2000000000 n3 proto rejected qid=5 depth=8"
        );
        assert_eq!(
            line(ProtoEvent::QueryRejected {
                qid: 5,
                depth: 8,
                terminal: true,
            }),
            "2000000000 n3 proto rejected qid=5 depth=8 terminal"
        );
        assert_eq!(
            line(ProtoEvent::QueryMerged { qid: 6, host: 2 }),
            "2000000000 n3 proto merged qid=6 host=2"
        );
        assert_eq!(
            line(ProtoEvent::CacheServed {
                qid: 7,
                src: 1,
                age_s: 0.25,
                ttl_s: 2.0,
            }),
            "2000000000 n3 proto cache-served qid=7 src=1 age=0.250 ttl=2.000"
        );
    }

    #[test]
    fn render_protocol_filters_engine_noise() {
        let mut t = EventTrace::new(&TraceConfig::enabled());
        let (at, n, k) = ev(
            1,
            0,
            TraceKind::TxStart {
                dest: None,
                beacon: true,
            },
        );
        t.record(at, n, k);
        let (at, n, k) = ev(2, 1, TraceKind::Crash);
        t.record(at, n, k);
        let (at, n, k) = ev(
            3,
            2,
            TraceKind::Proto(ProtoEvent::QueryIssued {
                qid: 0,
                attempt: 0,
                k: 5,
            }),
        );
        t.record(at, n, k);
        let full = t.render();
        let proto = t.render_protocol();
        assert_eq!(full.lines().count(), 3);
        assert_eq!(proto.lines().count(), 2);
        assert!(proto.contains("crash"));
        assert!(proto.contains("query-issued"));
        assert!(!proto.contains("tx "));
    }
}
