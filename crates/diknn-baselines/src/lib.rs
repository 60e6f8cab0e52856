//! Baseline KNN protocols from the DIKNN paper's evaluation (§5):
//!
//! * [`Kpt`] — the spanning-tree approach of [29, 30], with either its
//!   original conservative boundary or the paper's fair "KPT+KNNB" variant.
//! * [`PeerTree`] — the decentralized R-tree / clusterhead hierarchy of
//!   \[7\], configured as in §5.1 (5×5 grid of stationary clusterheads with
//!   periodic membership notifications).
//! * [`Flood`] — the naive infrastructure-free flood the paper rules out
//!   in §3.3 (every in-boundary node answers along its own route).
//! * [`Centralized`] — the centralized-index branch of the Figure 1
//!   taxonomy: a base station R-tree refreshed by periodic position
//!   reports from every node.
//!
//! All four implement [`diknn_core::KnnProtocol`], so the workload harness
//! measures them exactly like DIKNN. They also share DIKNN's query plumbing:
//! the [`diknn_core::messages::QuerySpec`] descriptor, the issue path in
//! `diknn_core`'s outcome module and the GPSR step
//! [`diknn_routing::next_hop`]; KPT and Flood route the query with DIKNN's
//! own [`diknn_core::messages::QueryMsg`] and KNNB hop records.
// Shared strict-lint header (checked by `cargo xtask lint`): the
// simulation stack must stay safe Rust, and determinism rules are enforced
// by clippy `disallowed-types`/`disallowed-methods` plus `cargo xtask lint`.
#![forbid(unsafe_code)]
#![deny(unused_must_use)]

mod centralized;
mod flood;
mod kpt;
mod peertree;

use diknn_core::messages::QuerySpec;
use diknn_core::{CandidateSet, QueryOutcome};
use diknn_routing::GpsrHeader;
use diknn_sim::SimTime;

pub use centralized::{CentralMsg, Centralized, CentralizedConfig};
pub use flood::{Flood, FloodConfig, FloodMsg};
pub use kpt::{Kpt, KptBoundary, KptConfig, KptMsg};
pub use peertree::{PeerTree, PeerTreeConfig, PtMsg};

/// The aggregate answer a KPT home node or a Peer-tree query head routes
/// back to the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub spec: QuerySpec,
    pub gpsr: GpsrHeader,
    pub candidates: CandidateSet,
    /// Nodes whose data the answer aggregates.
    pub explored: u32,
    /// Boundary radius the answer covers (0 for Peer-tree, which has none).
    pub radius: f64,
}

impl Answer {
    /// A fresh answer to `spec`, headed for the sink's issue-time position.
    fn new(spec: QuerySpec, candidates: CandidateSet, explored: u32, radius: f64) -> Self {
        Answer {
            spec,
            gpsr: GpsrHeader::new(spec.sink_pos),
            candidates,
            explored,
            radius,
        }
    }

    /// Complete the query at its sink; the first answer to arrive wins.
    fn complete(&self, outcomes: &mut [QueryOutcome], now: SimTime) {
        let o = &mut outcomes[self.spec.qid as usize];
        if o.complete(now, self.candidates.ids()) {
            o.explored_nodes = self.explored;
            o.final_radius = self.radius;
        }
    }
}
