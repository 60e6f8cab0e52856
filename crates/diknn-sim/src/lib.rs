//! A deterministic discrete-event wireless sensor network simulator.
//!
//! This crate is the substrate standing in for ns-2 in the DIKNN
//! reproduction (see DESIGN.md). It provides:
//!
//! * [`Simulator`] / [`Protocol`] / [`Ctx`] — the event engine and the
//!   protocol programming model. One protocol instance drives all nodes and
//!   receives `on_message` / `on_timer` / `on_send_failed` callbacks.
//! * A CSMA/CA-style MAC ([`config::MacMode`]) with carrier sense, binary
//!   exponential backoff, a collision model that destroys overlapping
//!   receptions (including hidden-terminal cases), link loss from the
//!   [`FaultPlan`], and link-layer retries for unicast frames.
//! * Periodic location beacons feeding per-node
//!   [`NeighborTable`](neighbors::NeighborTable)s — the "table enrolling IDs
//!   and locations of neighbor nodes" of §3.1. A table keeps who was heard
//!   and when; a read rebuilds each location from the sender's plan at that
//!   time, so tables are *stale under mobility*, which is the effect the
//!   paper's evaluation stresses.
//! * Per-node [`energy::EnergyMeter`]s: energy = power × airtime, split
//!   between beacon and protocol traffic.
//!
//! The whole run is deterministic: integer-nanosecond clock, sequence-number
//! tie-breaks, and a single seeded RNG.
//!
//! # Example
//!
//! A two-node ping-pong:
//!
//! ```
//! use diknn_sim::{Ctx, NodeId, Protocol, SimConfig, Simulator, SharedMobility};
//! use diknn_mobility::StaticMobility;
//! use diknn_geom::Point;
//! use std::sync::Arc;
//!
//! struct Ping { pongs: u32 }
//!
//! impl Protocol for Ping {
//!     type Msg = &'static str;
//!     fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
//!         ctx.unicast(NodeId(0), NodeId(1), 10, "ping");
//!     }
//!     fn on_message(&mut self, at: NodeId, from: NodeId, msg: &Self::Msg,
//!                   ctx: &mut Ctx<Self::Msg>) {
//!         if *msg == "ping" {
//!             ctx.unicast(at, from, 10, "pong");
//!         } else {
//!             self.pongs += 1;
//!         }
//!     }
//! }
//!
//! let nodes: Vec<SharedMobility> = vec![
//!     Arc::new(StaticMobility::new(Point::new(0.0, 0.0))),
//!     Arc::new(StaticMobility::new(Point::new(10.0, 0.0))),
//! ];
//! let mut sim = Simulator::new(SimConfig::default(), nodes, Ping { pongs: 0 }, 42);
//! sim.run();
//! assert_eq!(sim.protocol().pongs, 1);
//! ```
// Shared strict-lint header (checked by `cargo xtask lint`): the
// simulation stack must stay safe Rust, and determinism rules are enforced
// by clippy `disallowed-types`/`disallowed-methods` plus `cargo xtask lint`.
#![forbid(unsafe_code)]
#![deny(unused_must_use)]

pub mod config;
pub mod energy;
mod engine;
pub mod faults;
pub mod grid;
mod ids;
pub mod lifecycle;
pub mod neighbors;
pub mod queue;
pub mod soa;
mod stats;
pub mod time;
pub mod trace;

pub use config::{ConfigError, MacMode, NeighborIndex, SimConfig};
pub use engine::{
    Ctx, Destination, Protocol, SharedMobility, Simulator, SNAP_VERSION, UNICAST_RETRIES,
};
pub use faults::{
    ChurnPlan, CrashSpec, FaultPlan, FaultRegion, GilbertElliott, JamZone, LinkLossModel,
    RandomCrashes,
};
pub use grid::SpatialGrid;
pub use ids::{pack_timer_key, unpack_timer_key, NodeId, TimerId};
pub use lifecycle::NodePhase;
pub use neighbors::Neighbor;
pub use queue::{EventQueue, FramePool, Handle};
pub use soa::{FlowLedger, NodeSoA};
pub use stats::{PerfCounters, SimStats};
pub use time::{SimDuration, SimTime};
pub use trace::{EventTrace, ProtoEvent, QueryStatus, TraceConfig, TraceEvent, TraceKind};
