//! DIKNN — Density-aware Itinerary KNN query processing for mobile sensor
//! networks (Wu, Chuang, Chen & Chen, ICDE 2007).
//!
//! This crate is the paper's primary contribution, implemented over the
//! [`diknn_sim`] event simulator and [`diknn_routing`] GPSR:
//!
//! * [`knnb()`] — the linear KNN-boundary estimation algorithm (§4.2,
//!   Algorithm 1) plus the conservative KPT boundary it is compared to.
//! * [`itinerary`] — the concurrent cone-shaped itinerary geometry
//!   (init/adj/peri segments, rendezvous-compatible direction inversion,
//!   §3.3 Figure 4).
//! * [`token`] — per-sector traversal state and the dynamic boundary
//!   adjustment rules (rendezvous early-stop / extension and mobility
//!   assurance, §4.3).
//! * [`Diknn`] — the full three-phase protocol
//!   (routing → boundary estimation → itinerary dissemination).
//!
//! # Quick start
//!
//! ```
//! use diknn_core::{Diknn, DiknnConfig, KnnProtocol, QueryRequest};
//! use diknn_geom::{Point, Rect};
//! use diknn_mobility::placement;
//! use diknn_sim::{SimConfig, SimDuration, Simulator, SharedMobility};
//! use diknn_mobility::StaticMobility;
//! use rand::{rngs::SmallRng, SeedableRng};
//! use std::sync::Arc;
//!
//! // 200 static nodes, one query for the 5 nearest to the field centre.
//! let field = Rect::new(0.0, 0.0, 115.0, 115.0);
//! let mut rng = SmallRng::seed_from_u64(7);
//! let nodes: Vec<SharedMobility> = placement::uniform(field, 200, &mut rng)
//!     .into_iter()
//!     .map(|p| Arc::new(StaticMobility::new(p)) as SharedMobility)
//!     .collect();
//! let request = QueryRequest {
//!     at: 0.5,
//!     sink: diknn_sim::NodeId(0),
//!     q: Point::new(57.0, 57.0),
//!     k: 5,
//! };
//! let cfg = SimConfig { time_limit: SimDuration::from_secs_f64(30.0), ..SimConfig::default() };
//! let mut sim = Simulator::new(cfg, nodes, Diknn::new(DiknnConfig::default(), vec![request]), 7);
//! sim.warm_neighbor_tables();
//! sim.run();
//! let outcome = &sim.protocol().outcomes()[0];
//! assert!(outcome.completed_at.is_some());
//! assert_eq!(outcome.answer.len(), 5);
//! ```
// Shared strict-lint header (checked by `cargo xtask lint`): the
// simulation stack must stay safe Rust, and determinism rules are enforced
// by clippy `disallowed-types`/`disallowed-methods` plus `cargo xtask lint`.
#![forbid(unsafe_code)]
#![deny(unused_must_use)]

pub mod candidates;
pub mod config;
mod continuous;
pub mod itinerary;
pub mod knnb;
pub mod messages;
mod outcome;
mod protocol;
pub mod token;
pub mod window;

pub use candidates::{Candidate, CandidateSet};
pub use config::{
    CollectionScheme, DiknnConfig, ServingConfig, BASE_MSG_BYTES, COLLECTION_UNIT, RESPONSE_BYTES,
};
pub use continuous::{ContinuousKnn, MonitorRequest, RoundDelta};
pub use itinerary::ItinerarySpec;
pub use knnb::{knnb, kpt_conservative_radius, Boundary, HopRecord};
pub use messages::DiknnMsg;
pub use outcome::{schedule_issues, KnnProtocol, QueryOutcome, QueryRequest, QueryStatus, K_ISSUE};
pub use protocol::Diknn;
pub use window::{WindowOutcome, WindowQuery, WindowRequest};
