//! Workloads and measurement for the DIKNN reproduction.
//!
//! Provides the pieces the paper's evaluation (§5) is made of:
//!
//! * [`ScenarioConfig`] — network scenarios (the §5.1 settings table, node
//!   degree sizing, clustered Figure-7 placements, Peer-tree
//!   infrastructure).
//! * [`WorkloadConfig`] / [`workload::generate`] — snapshot KNN query
//!   streams with exponential inter-arrival (mean 4 s).
//! * [`GroundTruth`] — exact pre-/post-accuracy oracle over the analytic
//!   mobility plans.
//! * [`RunMetrics`] / [`Aggregate`] — latency, energy, accuracy, completion
//!   rate, averaged over seeded runs.
//! * [`Experiment`] / [`ProtocolKind`] — the driver that runs any of the
//!   four protocols (DIKNN, KPT+KNNB, Peer-tree, Flood) over a scenario.
//! * [`fault_sweep`] — packaged fault-plan sweeps (node churn, bursty
//!   links) for the robustness experiments.
//! * [`admission`] — serving-layer experiments: DIKNN under sustained
//!   [`QueryLoad`] arrivals with sink-side admission control, query merging
//!   and result caching, summarised by [`ServingSummary`].
//! * [`ServiceRun`] — the resident service mode: one long-lived simulator
//!   advanced in epochs under streaming arrivals ([`RateSchedule`]) and
//!   continuous churn, with full snapshot/restore and rolling metrics.
//! * [`ParallelSweep`] — the sanctioned scoped-thread executor; seed
//!   sweeps run across cores with bit-identical aggregates (see
//!   [`parallel`] for the determinism argument).
//!
//! # Example
//!
//! ```
//! use diknn_workloads::{Experiment, ProtocolKind, ScenarioConfig, WorkloadConfig};
//! use diknn_core::DiknnConfig;
//!
//! let exp = Experiment::new(
//!     ProtocolKind::Diknn(DiknnConfig::default()),
//!     ScenarioConfig { nodes: 100, duration: 20.0, max_speed: 0.0,
//!                      ..ScenarioConfig::default() },
//!     WorkloadConfig { k: 5, last_at: 8.0, ..WorkloadConfig::default() },
//! );
//! let agg = exp.run(1, 42);
//! assert!(agg.post_accuracy.mean > 0.5);
//! ```
// Shared strict-lint header (checked by `cargo xtask lint`): the
// simulation stack must stay safe Rust, and determinism rules are enforced
// by clippy `disallowed-types`/`disallowed-methods` plus `cargo xtask lint`.
#![forbid(unsafe_code)]
#![deny(unused_must_use)]

pub mod admission;
pub mod fault_sweep;
pub mod invariants;
mod metrics;
mod oracle;
pub mod parallel;
mod runner;
mod scenario;
pub mod service;
pub mod workload;

pub use admission::{admission_experiment, ServingSummary};
pub use fault_sweep::FaultCell;
pub use invariants::{assert_clean, check, Violation};
pub use metrics::{Aggregate, QueryRecord, RunMetrics, Stat};
pub use oracle::{GroundTruth, ItineraryHops};
pub use parallel::ParallelSweep;
pub use runner::{run_protocol_once_faulted, Experiment, ProtocolKind};
pub use scenario::{HerdSetup, PlacementKind, ScenarioConfig};
pub use service::{ServiceConfig, ServiceMetrics, ServiceRun, SERVICE_SNAP_VERSION};
pub use workload::{epoch_arrivals, QueryLoad, RateSchedule, WorkloadConfig};
