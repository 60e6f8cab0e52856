//! Trace-driven protocol invariant checker.
//!
//! End-state metrics cannot tell a correct execution from a lucky one; the
//! checker replays a flight-recorder trace (`diknn_sim::EventTrace`) against
//! the run's final [`QueryOutcome`]s and verifies the protocol *laws* every
//! legal DIKNN execution must obey:
//!
//! 1. **token-epoch** — token custody forms a chain per
//!    `(query, attempt, sector, epoch)`: each handoff is emitted by the
//!    previous recipient (or the previous sender, on a send-failed retry),
//!    re-issue epochs strictly increase, and an epoch `> 0` only enters
//!    circulation through a `TokenReissued` event at the watchdog holder.
//!    Together: at most one live token per (query, epoch).
//! 2. **dead-silence** — a crashed (or energy-dead, un-recovered) node never
//!    appears as a transmission source while down.
//! 3. **boundary-containment** — every node in a final answer was heard as
//!    a `CandidateHeard` for that query, at a distance inside the KNNB
//!    boundary in force at collection time (plus a small mobility slack —
//!    a responder checks containment when the probe arrives but reports its
//!    position up to a contention window later).
//! 4. **itinerary-order** — within one `(query, attempt, sector, epoch)`
//!    traversal, handoff frontiers (arc-length progress) never move
//!    backwards: sectors are walked in itinerary order.
//! 5. **energy-monotone** — each node's cumulative spent energy never
//!    decreases (recorded under energy budgets).
//! 6. **terminal-status** — every query ends in exactly one terminal
//!    [`QueryStatus`] (never `Pending` after the run is accounted), at most
//!    one `QueryDone` is emitted per query, and an emitted `QueryDone`
//!    agrees with the final outcome.
//! 7. **cross-query-custody** — token custody never transfers between
//!    distinct query ids: every epoch-0 chain of a `(query, attempt)` is
//!    anchored at that query's own home node (the node that emitted its
//!    `BoundaryEstimated`), and epoch `> 0` chains at their `TokenReissued`
//!    holder (law 1). Since chain state is keyed by query id, the only way
//!    custody could leak across concurrent queries is a chain starting at a
//!    node that never legitimately acquired *this* query's token — which
//!    this anchor check rules out.
//!
//! 8. **admission-soundness** — the serving layer's degradation path is as
//!    lawful as the happy path: no query is both (terminally) rejected and
//!    executed (`QueryAdmitted`/`QueryIssued`); a rejected query's answer is
//!    empty; a merged query has exactly one `QueryMerged` event, never
//!    executes its own itinerary, and its answer contains only nodes the
//!    *host* query heard; a cache hit has exactly one `CacheServed` event
//!    whose recorded age never exceeds the recorded TTL, and its answer
//!    contains only nodes its source query heard. Vacuous for runs without
//!    serving events.
//!
//! 9. **churn-silence** — a node that left the network (churn `Leave`, the
//!    service mode's lifecycle event) never appears as a transmission
//!    source until its `Rejoin`: the dead-silence law for voluntary
//!    departures. A `Rejoin`/`Recover` clears both down states, mirroring
//!    the engine's single liveness flag.
//!
//! A trace whose ring buffer overflowed (`dropped_events() > 0`) is itself
//! reported (**trace-complete**): incomplete evidence must not certify a
//! run.
//!
//! Protocols that emit no protocol-level events (the baselines) are checked
//! only against the engine-level laws (2, 5) and outcome termination (6) —
//! the query-structure laws are vacuous without `QueryIssued` events.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use diknn_core::{QueryOutcome, QueryStatus};
use diknn_sim::{EventTrace, NodeId, ProtoEvent, SimTime, TraceKind};

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which law was broken (stable kebab-case name, see module docs).
    pub invariant: &'static str,
    /// Trace time of the offending event (`SimTime::ZERO` for post-run
    /// outcome checks).
    pub at: SimTime,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.invariant, self.at, self.detail)
    }
}

/// Tunables for [`check_with`].
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Slack (metres) allowed on boundary containment: a responder is
    /// vetted against the boundary when the probe arrives but reports its
    /// position up to a full contention window later, so a mobile node can
    /// legitimately drift `max_speed × window` (both endpoints move) past
    /// the radius before its reply is recorded.
    pub boundary_slack_m: f64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            // ~2 × 20 m/s × 0.15 s, the worst drift the paper's settings
            // (max speed 20 m/s, 0.144 s contention window) can produce.
            boundary_slack_m: 6.0,
        }
    }
}

/// Custody-chain state for one `(qid, attempt, sector, epoch)` traversal.
struct Chain {
    last_from: NodeId,
    last_to: NodeId,
    frontier: f64,
}

/// Replay `trace` against the final `outcomes` with default options.
pub fn check(trace: &EventTrace, outcomes: &[QueryOutcome]) -> Vec<Violation> {
    check_with(trace, outcomes, CheckOptions::default())
}

/// Replay `trace` against the final `outcomes`; returns every violation
/// found (empty = the run was lawful).
pub fn check_with(
    trace: &EventTrace,
    outcomes: &[QueryOutcome],
    opts: CheckOptions,
) -> Vec<Violation> {
    let mut v: Vec<Violation> = Vec::new();
    if trace.dropped_events() > 0 {
        v.push(Violation {
            invariant: "trace-complete",
            at: SimTime::ZERO,
            detail: format!(
                "ring buffer evicted {} events; the trace cannot certify this run",
                trace.dropped_events()
            ),
        });
    }

    // Replay state.
    let mut dead: BTreeSet<NodeId> = BTreeSet::new();
    // Nodes currently churned out (Leave without a matching Rejoin).
    let mut churned: BTreeSet<NodeId> = BTreeSet::new();
    let mut energy: BTreeMap<NodeId, f64> = BTreeMap::new();
    let mut issued: BTreeSet<u32> = BTreeSet::new();
    // qid → responder → best (dist − radius) margin over all hearings.
    let mut heard: BTreeMap<u32, BTreeMap<NodeId, f64>> = BTreeMap::new();
    // (qid, attempt) → home node (emitter of BoundaryEstimated); anchors
    // epoch-0 custody for the cross-query law.
    let mut homes: BTreeMap<(u32, u8), NodeId> = BTreeMap::new();
    // (qid, attempt, sector) → last re-issued epoch.
    let mut reissued: BTreeMap<(u32, u8, u8), u32> = BTreeMap::new();
    // (qid, attempt, sector, epoch) → node that re-issued it.
    let mut reissuer: BTreeMap<(u32, u8, u8, u32), NodeId> = BTreeMap::new();
    let mut chains: BTreeMap<(u32, u8, u8, u32), Chain> = BTreeMap::new();
    // qid → emitted QueryDone records.
    let mut dones: BTreeMap<u32, Vec<(&'static str, Vec<NodeId>)>> = BTreeMap::new();
    // Serving layer (admission-soundness). "Executed" below means the query
    // ran its own itinerary: it was admitted and/or issued.
    let mut admitted: BTreeSet<u32> = BTreeSet::new();
    let mut rejected_terminal: BTreeSet<u32> = BTreeSet::new();
    // member qid → host qids from QueryMerged events (must end up singleton).
    let mut merged_ev: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    // qid → (source qid, CacheServed count).
    let mut cached_ev: BTreeMap<u32, (u32, u32)> = BTreeMap::new();

    for e in trace.events() {
        match &e.kind {
            TraceKind::Crash | TraceKind::EnergyDeath => {
                dead.insert(e.node);
            }
            TraceKind::Leave => {
                churned.insert(e.node);
            }
            // Recover and Rejoin both flip the engine's single liveness
            // flag back on, whichever mechanism took the node down.
            TraceKind::Recover | TraceKind::Rejoin => {
                dead.remove(&e.node);
                churned.remove(&e.node);
            }
            TraceKind::TxStart { .. } => {
                if dead.contains(&e.node) {
                    v.push(Violation {
                        invariant: "dead-silence",
                        at: e.time,
                        detail: format!("{} transmitted while down", e.node),
                    });
                }
                if churned.contains(&e.node) {
                    v.push(Violation {
                        invariant: "churn-silence",
                        at: e.time,
                        detail: format!("{} transmitted while churned out", e.node),
                    });
                }
            }
            TraceKind::Energy { spent_j } => {
                let prev = energy.entry(e.node).or_insert(0.0);
                if *spent_j < *prev - 1e-12 {
                    v.push(Violation {
                        invariant: "energy-monotone",
                        at: e.time,
                        detail: format!(
                            "{} spent energy went backwards: {prev:.9} J → {spent_j:.9} J",
                            e.node
                        ),
                    });
                }
                *prev = spent_j.max(*prev);
            }
            TraceKind::Proto(p) => match p {
                ProtoEvent::QueryIssued { qid, .. } => {
                    if rejected_terminal.contains(qid) {
                        v.push(Violation {
                            invariant: "admission-soundness",
                            at: e.time,
                            detail: format!("q{qid} issued after terminal rejection"),
                        });
                    }
                    if merged_ev.contains_key(qid) || cached_ev.contains_key(qid) {
                        v.push(Violation {
                            invariant: "admission-soundness",
                            at: e.time,
                            detail: format!(
                                "q{qid} launched its own itinerary after being \
                                 served by merge/cache"
                            ),
                        });
                    }
                    issued.insert(*qid);
                }
                ProtoEvent::TokenReissued {
                    qid,
                    attempt,
                    sector,
                    epoch,
                } => {
                    let k = (*qid, *attempt, *sector);
                    if let Some(&last) = reissued.get(&k) {
                        if *epoch <= last {
                            v.push(Violation {
                                invariant: "token-epoch",
                                at: e.time,
                                detail: format!(
                                    "q{qid} attempt {attempt} sector {sector}: re-issue \
                                     epoch {epoch} does not exceed previous {last}"
                                ),
                            });
                        }
                    }
                    reissued.insert(k, *epoch);
                    reissuer.insert((*qid, *attempt, *sector, *epoch), e.node);
                }
                ProtoEvent::TokenHandoff {
                    qid,
                    attempt,
                    sector,
                    epoch,
                    to,
                    frontier,
                } => {
                    let k = (*qid, *attempt, *sector, *epoch);
                    match chains.get_mut(&k) {
                        None => {
                            if *epoch == 0 {
                                match homes.get(&(*qid, *attempt)) {
                                    None => v.push(Violation {
                                        invariant: "cross-query-custody",
                                        at: e.time,
                                        detail: format!(
                                            "q{qid} attempt {attempt} sector {sector}: epoch 0 \
                                             token handed off by {} with no BoundaryEstimated \
                                             anchor for this query",
                                            e.node
                                        ),
                                    }),
                                    Some(&h) if h != e.node => v.push(Violation {
                                        invariant: "cross-query-custody",
                                        at: e.time,
                                        detail: format!(
                                            "q{qid} attempt {attempt} sector {sector}: epoch 0 \
                                             custody starts at {} but this query's home is {h} \
                                             — token custody crossed query ids",
                                            e.node
                                        ),
                                    }),
                                    Some(_) => {}
                                }
                            }
                            if *epoch > 0 {
                                match reissuer.get(&k) {
                                    None => v.push(Violation {
                                        invariant: "token-epoch",
                                        at: e.time,
                                        detail: format!(
                                            "q{qid} attempt {attempt} sector {sector}: epoch \
                                             {epoch} circulates without a TokenReissued event"
                                        ),
                                    }),
                                    Some(&n) if n != e.node => v.push(Violation {
                                        invariant: "token-epoch",
                                        at: e.time,
                                        detail: format!(
                                            "q{qid} attempt {attempt} sector {sector}: epoch \
                                             {epoch} was re-issued at {n} but first handed \
                                             off by {}",
                                            e.node
                                        ),
                                    }),
                                    Some(_) => {}
                                }
                            }
                            chains.insert(
                                k,
                                Chain {
                                    last_from: e.node,
                                    last_to: *to,
                                    frontier: *frontier,
                                },
                            );
                        }
                        Some(c) => {
                            // The emitter must be the previous recipient, or
                            // the previous sender retrying after a send
                            // failure — anyone else means two live copies.
                            if e.node != c.last_to && e.node != c.last_from {
                                v.push(Violation {
                                    invariant: "token-epoch",
                                    at: e.time,
                                    detail: format!(
                                        "q{qid} attempt {attempt} sector {sector} epoch \
                                         {epoch}: handoff by {} but custody was with \
                                         {} (handed to {})",
                                        e.node, c.last_from, c.last_to
                                    ),
                                });
                            }
                            if *frontier < c.frontier - 1e-9 {
                                v.push(Violation {
                                    invariant: "itinerary-order",
                                    at: e.time,
                                    detail: format!(
                                        "q{qid} attempt {attempt} sector {sector} epoch \
                                         {epoch}: frontier moved backwards \
                                         {:.3} → {:.3}",
                                        c.frontier, frontier
                                    ),
                                });
                            }
                            c.last_from = e.node;
                            c.last_to = *to;
                            c.frontier = frontier.max(c.frontier);
                        }
                    }
                }
                ProtoEvent::CandidateHeard {
                    qid,
                    responder,
                    dist,
                    radius,
                    ..
                } => {
                    let margin = dist - radius;
                    let entry = heard
                        .entry(*qid)
                        .or_default()
                        .entry(*responder)
                        .or_insert(f64::INFINITY);
                    *entry = entry.min(margin);
                }
                ProtoEvent::QueryDone {
                    qid,
                    status,
                    answer,
                } => {
                    dones
                        .entry(*qid)
                        .or_default()
                        .push((status, answer.clone()));
                }
                ProtoEvent::BoundaryEstimated { qid, attempt, .. } => {
                    homes.entry((*qid, *attempt)).or_insert(e.node);
                }
                ProtoEvent::QueryAdmitted { qid, .. } => {
                    if rejected_terminal.contains(qid) {
                        v.push(Violation {
                            invariant: "admission-soundness",
                            at: e.time,
                            detail: format!("q{qid} admitted after terminal rejection"),
                        });
                    }
                    admitted.insert(*qid);
                }
                ProtoEvent::QueryRejected { qid, terminal, .. } => {
                    if *terminal {
                        if admitted.contains(qid) || issued.contains(qid) {
                            v.push(Violation {
                                invariant: "admission-soundness",
                                at: e.time,
                                detail: format!("q{qid} terminally rejected after executing"),
                            });
                        }
                        rejected_terminal.insert(*qid);
                    }
                }
                ProtoEvent::QueryMerged { qid, host } => {
                    if admitted.contains(qid) || issued.contains(qid) {
                        v.push(Violation {
                            invariant: "admission-soundness",
                            at: e.time,
                            detail: format!(
                                "q{qid} merged into q{host} after launching its \
                                 own itinerary"
                            ),
                        });
                    }
                    merged_ev.entry(*qid).or_default().push(*host);
                }
                ProtoEvent::CacheServed {
                    qid,
                    src,
                    age_s,
                    ttl_s,
                } => {
                    if age_s > ttl_s {
                        v.push(Violation {
                            invariant: "admission-soundness",
                            at: e.time,
                            detail: format!(
                                "q{qid} served a cached answer {age_s:.3} s old, \
                                 past its {ttl_s:.3} s TTL"
                            ),
                        });
                    }
                    if admitted.contains(qid) || issued.contains(qid) {
                        v.push(Violation {
                            invariant: "admission-soundness",
                            at: e.time,
                            detail: format!(
                                "q{qid} served from cache after launching its \
                                 own itinerary"
                            ),
                        });
                    }
                    let entry = cached_ev.entry(*qid).or_insert((*src, 0));
                    entry.1 += 1;
                }
                ProtoEvent::BoundaryExtended { .. }
                | ProtoEvent::SectorFinished { .. }
                | ProtoEvent::SinkMerge { .. } => {}
            },
        }
    }

    // Post-run outcome checks.
    for o in outcomes {
        if o.status == QueryStatus::Pending {
            v.push(Violation {
                invariant: "terminal-status",
                at: SimTime::ZERO,
                detail: format!("q{} never reached a terminal status", o.qid),
            });
        }
        // Law 8: a serving-layer status must agree with the serving events,
        // and a served answer must trace back to candidates the *executing*
        // query (merge host / cache source) heard. Runs before the `issued`
        // gate below — rejected/merged/cached queries never launch their own
        // itinerary, so they are exactly the outcomes that gate skips.
        match o.status {
            QueryStatus::Rejected => {
                if issued.contains(&o.qid) || admitted.contains(&o.qid) {
                    v.push(Violation {
                        invariant: "admission-soundness",
                        at: SimTime::ZERO,
                        detail: format!("q{} ended rejected but was executed", o.qid),
                    });
                }
                if !o.answer.is_empty() {
                    v.push(Violation {
                        invariant: "admission-soundness",
                        at: SimTime::ZERO,
                        detail: format!(
                            "q{} rejected with a non-empty answer ({} ids)",
                            o.qid,
                            o.answer.len()
                        ),
                    });
                }
            }
            QueryStatus::Merged => match merged_ev.get(&o.qid) {
                Some(hosts) if hosts.len() == 1 => {
                    let host = hosts[0];
                    let empty = BTreeMap::new();
                    let heard_h = heard.get(&host).unwrap_or(&empty);
                    for id in &o.answer {
                        if !heard_h.contains_key(id) {
                            v.push(Violation {
                                invariant: "admission-soundness",
                                at: SimTime::ZERO,
                                detail: format!(
                                    "q{}: merged answer contains {id}, never heard \
                                     by host q{host}",
                                    o.qid
                                ),
                            });
                        }
                    }
                }
                Some(hosts) => v.push(Violation {
                    invariant: "admission-soundness",
                    at: SimTime::ZERO,
                    detail: format!(
                        "q{} has {} QueryMerged events (want exactly one)",
                        o.qid,
                        hosts.len()
                    ),
                }),
                None => v.push(Violation {
                    invariant: "admission-soundness",
                    at: SimTime::ZERO,
                    detail: format!("q{} ended merged without a QueryMerged event", o.qid),
                }),
            },
            QueryStatus::CacheHit => match cached_ev.get(&o.qid) {
                Some(&(src, 1)) => {
                    let empty = BTreeMap::new();
                    let heard_s = heard.get(&src).unwrap_or(&empty);
                    for id in &o.answer {
                        if !heard_s.contains_key(id) {
                            v.push(Violation {
                                invariant: "admission-soundness",
                                at: SimTime::ZERO,
                                detail: format!(
                                    "q{}: cached answer contains {id}, never heard \
                                     by source q{src}",
                                    o.qid
                                ),
                            });
                        }
                    }
                }
                Some(&(_, n)) => v.push(Violation {
                    invariant: "admission-soundness",
                    at: SimTime::ZERO,
                    detail: format!("q{} has {n} CacheServed events (want exactly one)", o.qid),
                }),
                None => v.push(Violation {
                    invariant: "admission-soundness",
                    at: SimTime::ZERO,
                    detail: format!("q{} ended cache-hit without a CacheServed event", o.qid),
                }),
            },
            _ => {
                if rejected_terminal.contains(&o.qid) {
                    v.push(Violation {
                        invariant: "admission-soundness",
                        at: SimTime::ZERO,
                        detail: format!(
                            "q{} was terminally rejected but ended {}",
                            o.qid,
                            o.status.label()
                        ),
                    });
                }
                if merged_ev.contains_key(&o.qid) {
                    v.push(Violation {
                        invariant: "admission-soundness",
                        at: SimTime::ZERO,
                        detail: format!(
                            "q{} has a QueryMerged event but ended {}",
                            o.qid,
                            o.status.label()
                        ),
                    });
                }
                if cached_ev.contains_key(&o.qid) {
                    v.push(Violation {
                        invariant: "admission-soundness",
                        at: SimTime::ZERO,
                        detail: format!(
                            "q{} has a CacheServed event but ended {}",
                            o.qid,
                            o.status.label()
                        ),
                    });
                }
            }
        }
        if !issued.contains(&o.qid) {
            continue; // untraced protocol: structure laws are vacuous
        }
        match dones.get(&o.qid) {
            None => {
                // Legal: queries accounted post-run (dead sink, suppressed
                // timer) finalise without a live trace point.
            }
            Some(ds) => {
                if ds.len() > 1 {
                    v.push(Violation {
                        invariant: "terminal-status",
                        at: SimTime::ZERO,
                        detail: format!("q{} emitted {} QueryDone events", o.qid, ds.len()),
                    });
                }
                let (status, answer) = &ds[0];
                if *status != o.status.label() || *answer != o.answer {
                    v.push(Violation {
                        invariant: "terminal-status",
                        at: SimTime::ZERO,
                        detail: format!(
                            "q{}: QueryDone ({status}, {} ids) disagrees with outcome \
                             ({}, {} ids)",
                            o.qid,
                            answer.len(),
                            o.status.label(),
                            o.answer.len()
                        ),
                    });
                }
            }
        }
        let empty = BTreeMap::new();
        let heard_q = heard.get(&o.qid).unwrap_or(&empty);
        for id in &o.answer {
            match heard_q.get(id) {
                None => v.push(Violation {
                    invariant: "boundary-containment",
                    at: SimTime::ZERO,
                    detail: format!(
                        "q{}: answer contains {id}, never heard as a candidate",
                        o.qid
                    ),
                }),
                Some(&margin) if margin > opts.boundary_slack_m => v.push(Violation {
                    invariant: "boundary-containment",
                    at: SimTime::ZERO,
                    detail: format!(
                        "q{}: {id} heard {margin:.3} m outside the boundary \
                         (slack {:.1} m)",
                        o.qid, opts.boundary_slack_m
                    ),
                }),
                Some(_) => {}
            }
        }
    }
    v
}

/// [`check`], panicking with the full violation list on failure. Meant for
/// tests: wire it after any simulated run that had tracing enabled.
pub fn assert_clean(trace: &EventTrace, outcomes: &[QueryOutcome]) {
    let violations = check(trace, outcomes);
    assert!(
        violations.is_empty(),
        "protocol invariants violated ({}):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|x| format!("  {x}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use diknn_geom::Point;
    use diknn_sim::{TraceConfig, TraceEvent};

    fn trace_with(events: Vec<TraceEvent>) -> EventTrace {
        let mut t = EventTrace::new(&TraceConfig::enabled());
        for e in events {
            t.record(e.time, e.node, e.kind);
        }
        t
    }

    fn ev(nanos: u64, node: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(nanos),
            node: NodeId(node),
            kind,
        }
    }

    fn proto(nanos: u64, node: u32, p: ProtoEvent) -> TraceEvent {
        ev(nanos, node, TraceKind::Proto(p))
    }

    fn outcome(qid: u32, status: QueryStatus, answer: Vec<u32>) -> QueryOutcome {
        QueryOutcome {
            qid,
            sink: NodeId(0),
            q: Point::new(0.0, 0.0),
            k: answer.len(),
            issued_at: SimTime::ZERO,
            completed_at: Some(SimTime::from_nanos(1)),
            answer: answer.into_iter().map(NodeId).collect(),
            boundary_radius: 10.0,
            final_radius: 10.0,
            routing_hops: 1,
            parts_expected: 1,
            parts_returned: 1,
            explored_nodes: 1,
            status,
        }
    }

    fn handoff(qid: u32, epoch: u32, to: u32, frontier: f64) -> ProtoEvent {
        ProtoEvent::TokenHandoff {
            qid,
            attempt: 0,
            sector: 0,
            epoch,
            to: NodeId(to),
            frontier,
        }
    }

    /// The home-node anchor every epoch-0 chain needs (cross-query law).
    fn estimated(qid: u32) -> ProtoEvent {
        ProtoEvent::BoundaryEstimated {
            qid,
            attempt: 0,
            radius: 10.0,
        }
    }

    #[test]
    fn clean_trace_passes() {
        let t = trace_with(vec![
            proto(
                0,
                0,
                ProtoEvent::QueryIssued {
                    qid: 0,
                    attempt: 0,
                    k: 1,
                },
            ),
            proto(1, 1, estimated(0)),
            proto(1, 1, handoff(0, 0, 2, 5.0)),
            proto(
                2,
                2,
                ProtoEvent::CandidateHeard {
                    qid: 0,
                    attempt: 0,
                    sector: 0,
                    responder: NodeId(7),
                    dist: 4.0,
                    radius: 10.0,
                },
            ),
            proto(3, 2, handoff(0, 0, 3, 9.0)),
            proto(
                4,
                0,
                ProtoEvent::QueryDone {
                    qid: 0,
                    status: "completed",
                    answer: vec![NodeId(7)],
                },
            ),
        ]);
        let outs = [outcome(0, QueryStatus::Completed, vec![7])];
        assert_eq!(check(&t, &outs), Vec::new());
    }

    #[test]
    fn custody_fork_is_flagged() {
        // n1 hands to n2, then n5 (never in the chain) hands the same
        // epoch on: two live copies.
        let t = trace_with(vec![
            proto(0, 1, estimated(0)),
            proto(1, 1, handoff(0, 0, 2, 5.0)),
            proto(2, 5, handoff(0, 0, 6, 6.0)),
        ]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "token-epoch");
    }

    #[test]
    fn send_failed_retry_by_previous_sender_is_legal() {
        let t = trace_with(vec![
            proto(0, 1, estimated(0)),
            proto(1, 1, handoff(0, 0, 2, 5.0)),
            proto(2, 1, handoff(0, 0, 3, 5.0)), // n1 retries after n2 failed
            proto(3, 3, handoff(0, 0, 4, 7.0)),
        ]);
        assert_eq!(check(&t, &[]), Vec::new());
    }

    #[test]
    fn epoch0_without_home_anchor_is_flagged() {
        // An epoch-0 chain with no BoundaryEstimated for its query id: the
        // token materialised out of nowhere (or was stolen from another
        // query's pipeline).
        let t = trace_with(vec![proto(1, 1, handoff(0, 0, 2, 5.0))]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "cross-query-custody");
        assert!(v[0].detail.contains("no BoundaryEstimated"));
    }

    #[test]
    fn epoch0_custody_from_foreign_home_is_flagged() {
        // Query 0's home is n1, query 1's home is n4 — but query 1's
        // epoch-0 chain starts at n1: custody crossed query ids.
        let t = trace_with(vec![
            proto(0, 1, estimated(0)),
            proto(0, 4, estimated(1)),
            proto(1, 1, handoff(0, 0, 2, 5.0)),
            proto(2, 1, handoff(1, 0, 3, 5.0)),
        ]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "cross-query-custody");
        assert!(v[0].detail.contains("custody crossed query ids"));
    }

    #[test]
    fn interleaved_queries_with_own_homes_pass() {
        // Two queries in flight at once, each chain anchored at its own
        // home and interleaved in time: all laws hold per query id.
        let t = trace_with(vec![
            proto(0, 1, estimated(0)),
            proto(1, 4, estimated(1)),
            proto(2, 1, handoff(0, 0, 2, 5.0)),
            proto(3, 4, handoff(1, 0, 5, 4.0)),
            proto(4, 2, handoff(0, 0, 3, 6.0)),
            proto(5, 5, handoff(1, 0, 6, 4.5)),
        ]);
        assert_eq!(check(&t, &[]), Vec::new());
    }

    #[test]
    fn epoch_without_reissue_is_flagged() {
        let t = trace_with(vec![proto(1, 1, handoff(0, 3, 2, 5.0))]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "token-epoch");
        assert!(v[0].detail.contains("without a TokenReissued"));
    }

    #[test]
    fn non_increasing_reissue_epoch_is_flagged() {
        let re = |epoch| ProtoEvent::TokenReissued {
            qid: 0,
            attempt: 0,
            sector: 0,
            epoch,
        };
        let t = trace_with(vec![proto(1, 1, re(2)), proto(2, 1, re(2))]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "token-epoch");
    }

    #[test]
    fn dead_node_transmitting_is_flagged() {
        let t = trace_with(vec![
            ev(1, 3, TraceKind::Crash),
            ev(
                2,
                3,
                TraceKind::TxStart {
                    dest: None,
                    beacon: false,
                },
            ),
        ]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "dead-silence");
    }

    #[test]
    fn recovered_node_may_transmit() {
        let t = trace_with(vec![
            ev(1, 3, TraceKind::Crash),
            ev(2, 3, TraceKind::Recover),
            ev(
                3,
                3,
                TraceKind::TxStart {
                    dest: None,
                    beacon: true,
                },
            ),
        ]);
        assert_eq!(check(&t, &[]), Vec::new());
    }

    #[test]
    fn churned_node_transmitting_is_flagged() {
        let t = trace_with(vec![
            ev(1, 3, TraceKind::Leave),
            ev(
                2,
                3,
                TraceKind::TxStart {
                    dest: None,
                    beacon: false,
                },
            ),
        ]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "churn-silence");
    }

    #[test]
    fn rejoined_node_may_transmit() {
        let t = trace_with(vec![
            ev(1, 3, TraceKind::Leave),
            ev(2, 3, TraceKind::Rejoin),
            ev(
                3,
                3,
                TraceKind::TxStart {
                    dest: None,
                    beacon: true,
                },
            ),
        ]);
        assert_eq!(check(&t, &[]), Vec::new());
    }

    #[test]
    fn rejoin_clears_a_crash_too() {
        // The engine keeps one liveness flag: a crashed node brought back
        // by a Rejoin event is legitimately up again.
        let t = trace_with(vec![
            ev(1, 3, TraceKind::Crash),
            ev(2, 3, TraceKind::Rejoin),
            ev(
                3,
                3,
                TraceKind::TxStart {
                    dest: None,
                    beacon: true,
                },
            ),
        ]);
        assert_eq!(check(&t, &[]), Vec::new());
    }

    #[test]
    fn answer_never_heard_is_flagged() {
        let t = trace_with(vec![proto(
            0,
            0,
            ProtoEvent::QueryIssued {
                qid: 0,
                attempt: 0,
                k: 1,
            },
        )]);
        let outs = [outcome(0, QueryStatus::Completed, vec![9])];
        let v = check(&t, &outs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "boundary-containment");
        assert!(v[0].detail.contains("never heard"));
    }

    #[test]
    fn answer_heard_outside_boundary_is_flagged() {
        let t = trace_with(vec![
            proto(
                0,
                0,
                ProtoEvent::QueryIssued {
                    qid: 0,
                    attempt: 0,
                    k: 1,
                },
            ),
            proto(
                1,
                2,
                ProtoEvent::CandidateHeard {
                    qid: 0,
                    attempt: 0,
                    sector: 0,
                    responder: NodeId(9),
                    dist: 30.0,
                    radius: 10.0, // 20 m outside, beyond any slack
                },
            ),
        ]);
        let outs = [outcome(0, QueryStatus::Completed, vec![9])];
        let v = check(&t, &outs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "boundary-containment");
        assert!(v[0].detail.contains("outside the boundary"));
    }

    #[test]
    fn frontier_regression_is_flagged() {
        let t = trace_with(vec![
            proto(0, 1, estimated(0)),
            proto(1, 1, handoff(0, 0, 2, 8.0)),
            proto(2, 2, handoff(0, 0, 3, 3.0)),
        ]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "itinerary-order");
    }

    #[test]
    fn energy_regression_is_flagged() {
        let t = trace_with(vec![
            ev(1, 4, TraceKind::Energy { spent_j: 0.5 }),
            ev(2, 4, TraceKind::Energy { spent_j: 0.3 }),
        ]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "energy-monotone");
    }

    #[test]
    fn pending_outcome_is_flagged() {
        let t = trace_with(Vec::new());
        let mut o = outcome(0, QueryStatus::Pending, vec![]);
        o.completed_at = None;
        let v = check(&t, &[o]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "terminal-status");
    }

    #[test]
    fn duplicate_query_done_is_flagged() {
        let done = || ProtoEvent::QueryDone {
            qid: 0,
            status: "completed",
            answer: vec![],
        };
        let t = trace_with(vec![
            proto(
                0,
                0,
                ProtoEvent::QueryIssued {
                    qid: 0,
                    attempt: 0,
                    k: 1,
                },
            ),
            proto(1, 0, done()),
            proto(2, 0, done()),
        ]);
        let outs = [outcome(0, QueryStatus::Completed, vec![])];
        let v = check(&t, &outs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "terminal-status");
        assert!(v[0].detail.contains("QueryDone events"));
    }

    #[test]
    fn query_done_outcome_mismatch_is_flagged() {
        let t = trace_with(vec![
            proto(
                0,
                0,
                ProtoEvent::QueryIssued {
                    qid: 0,
                    attempt: 0,
                    k: 1,
                },
            ),
            proto(
                1,
                0,
                ProtoEvent::QueryDone {
                    qid: 0,
                    status: "token-lost",
                    answer: vec![],
                },
            ),
        ]);
        let outs = [outcome(0, QueryStatus::Completed, vec![])];
        let v = check(&t, &outs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "terminal-status");
        assert!(v[0].detail.contains("disagrees"));
    }

    #[test]
    fn overflowed_trace_is_flagged() {
        let mut t = EventTrace::new(&TraceConfig {
            enabled: true,
            capacity: 1,
        });
        t.record(SimTime::from_nanos(1), NodeId(0), TraceKind::Crash);
        t.record(SimTime::from_nanos(2), NodeId(1), TraceKind::Crash);
        let v = check(&t, &[]);
        assert!(v.iter().any(|x| x.invariant == "trace-complete"), "{v:?}");
    }

    #[test]
    fn untraced_protocol_outcomes_skip_structure_laws() {
        // No QueryIssued → a baseline's completed outcome with an answer
        // that was never "heard" must NOT be flagged.
        let t = trace_with(Vec::new());
        let outs = [outcome(0, QueryStatus::Completed, vec![4, 5])];
        assert_eq!(check(&t, &outs), Vec::new());
    }

    /// Law 8 positive twin: a full serving trace — an executed host, a
    /// merged rider, a cache hit off the host and a terminal rejection —
    /// is lawful.
    #[test]
    fn admission_soundness_clean_serving_trace_passes() {
        let t = trace_with(vec![
            proto(0, 0, ProtoEvent::QueryAdmitted { qid: 1, depth: 1 }),
            proto(
                0,
                0,
                ProtoEvent::QueryIssued {
                    qid: 1,
                    attempt: 0,
                    k: 1,
                },
            ),
            proto(
                1,
                2,
                ProtoEvent::CandidateHeard {
                    qid: 1,
                    attempt: 0,
                    sector: 0,
                    responder: NodeId(7),
                    dist: 4.0,
                    radius: 10.0,
                },
            ),
            proto(2, 0, ProtoEvent::QueryMerged { qid: 2, host: 1 }),
            proto(
                3,
                0,
                ProtoEvent::QueryDone {
                    qid: 1,
                    status: "completed",
                    answer: vec![NodeId(7)],
                },
            ),
            proto(
                4,
                0,
                ProtoEvent::CacheServed {
                    qid: 3,
                    src: 1,
                    age_s: 0.5,
                    ttl_s: 2.0,
                },
            ),
            proto(
                5,
                0,
                ProtoEvent::QueryRejected {
                    qid: 4,
                    depth: 9,
                    terminal: true,
                },
            ),
        ]);
        let outs = [
            outcome(1, QueryStatus::Completed, vec![7]),
            outcome(2, QueryStatus::Merged, vec![7]),
            outcome(3, QueryStatus::CacheHit, vec![7]),
            outcome(4, QueryStatus::Rejected, vec![]),
        ];
        assert_eq!(check(&t, &outs), Vec::new());
    }

    /// Law 8 violation twin: a terminally rejected query that executes
    /// anyway (admission *and* issue) is flagged at both events.
    #[test]
    fn rejected_then_executed_is_flagged() {
        let t = trace_with(vec![
            proto(
                0,
                0,
                ProtoEvent::QueryRejected {
                    qid: 0,
                    depth: 9,
                    terminal: true,
                },
            ),
            proto(1, 0, ProtoEvent::QueryAdmitted { qid: 0, depth: 1 }),
            proto(
                2,
                0,
                ProtoEvent::QueryIssued {
                    qid: 0,
                    attempt: 0,
                    k: 1,
                },
            ),
        ]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.invariant == "admission-soundness"));
        assert!(v[0].detail.contains("admitted after terminal rejection"));
        assert!(v[1].detail.contains("issued after terminal rejection"));
    }

    /// A non-terminal rejection (defer + retry-after) is NOT an execution
    /// bar: the query may be admitted later.
    #[test]
    fn deferred_then_admitted_is_legal() {
        let t = trace_with(vec![
            proto(
                0,
                0,
                ProtoEvent::QueryRejected {
                    qid: 0,
                    depth: 9,
                    terminal: false,
                },
            ),
            proto(1, 0, ProtoEvent::QueryAdmitted { qid: 0, depth: 1 }),
        ]);
        assert_eq!(check(&t, &[]), Vec::new());
    }

    /// Law 8 violation twin: merged answers must come from candidates the
    /// host heard; foreign ids are mis-attribution.
    #[test]
    fn merged_answer_not_heard_by_host_is_flagged() {
        let t = trace_with(vec![
            proto(
                0,
                0,
                ProtoEvent::QueryIssued {
                    qid: 1,
                    attempt: 0,
                    k: 1,
                },
            ),
            proto(
                1,
                2,
                ProtoEvent::CandidateHeard {
                    qid: 1,
                    attempt: 0,
                    sector: 0,
                    responder: NodeId(7),
                    dist: 4.0,
                    radius: 10.0,
                },
            ),
            proto(2, 0, ProtoEvent::QueryMerged { qid: 2, host: 1 }),
        ]);
        // Node 9 was never heard by host q1.
        let outs = [outcome(2, QueryStatus::Merged, vec![9])];
        let v = check(&t, &outs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "admission-soundness");
        assert!(v[0].detail.contains("never heard by host"));
    }

    /// Law 8 violation twin: serving statuses without their decision event
    /// (and a rejection that was secretly executed) are flagged.
    #[test]
    fn serving_status_without_event_is_flagged() {
        let t = trace_with(vec![proto(
            0,
            0,
            ProtoEvent::QueryIssued {
                qid: 2,
                attempt: 0,
                k: 1,
            },
        )]);
        let outs = [
            outcome(0, QueryStatus::Merged, vec![]),
            outcome(1, QueryStatus::CacheHit, vec![]),
            outcome(2, QueryStatus::Rejected, vec![]),
        ];
        let v = check(&t, &outs);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.invariant == "admission-soundness"));
        assert!(v[0].detail.contains("without a QueryMerged event"));
        assert!(v[1].detail.contains("without a CacheServed event"));
        assert!(v[2].detail.contains("rejected but was executed"));
    }

    /// Law 8 violation twin: a cache hit served past its recorded TTL.
    #[test]
    fn cache_served_past_ttl_is_flagged() {
        let t = trace_with(vec![proto(
            0,
            0,
            ProtoEvent::CacheServed {
                qid: 3,
                src: 1,
                age_s: 3.0,
                ttl_s: 2.0,
            },
        )]);
        let v = check(&t, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "admission-soundness");
        assert!(v[0].detail.contains("past its"));
    }

    /// Law 8 violation twin: two QueryMerged events for one query.
    #[test]
    fn duplicate_merge_is_flagged() {
        let t = trace_with(vec![
            proto(0, 0, ProtoEvent::QueryMerged { qid: 2, host: 1 }),
            proto(1, 0, ProtoEvent::QueryMerged { qid: 2, host: 5 }),
        ]);
        let outs = [outcome(2, QueryStatus::Merged, vec![])];
        let v = check(&t, &outs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "admission-soundness");
        assert!(v[0].detail.contains("2 QueryMerged events"));
    }

    #[test]
    fn assert_clean_panics_with_violation_list() {
        let t = trace_with(vec![
            ev(1, 3, TraceKind::Crash),
            ev(
                2,
                3,
                TraceKind::TxStart {
                    dest: None,
                    beacon: false,
                },
            ),
        ]);
        let err = std::panic::catch_unwind(|| assert_clean(&t, &[])).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("dead-silence"), "{msg}");
    }
}
