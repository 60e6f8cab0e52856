//! Node mobility for the DIKNN reproduction.
//!
//! The paper models sensor movement with the **random waypoint** (RWP) model:
//! each node repeatedly picks a uniform destination in the field and walks
//! there at a uniform-random speed in `(0, µmax]` (§5.1). Ground-truth KNN
//! accuracy is computed against *exact* node positions at the query's valid
//! time, so mobility here is **analytic**: a [`Mobility`] plan is a pure
//! function from time to position, precomputed deterministically from a seed.
//!
//! Besides RWP this crate provides:
//!
//! * [`StaticMobility`] — stationary nodes (the fixed-network assumption the
//!   paper's baselines were designed for).
//! * [`WaypointTrace`] — piecewise-linear playback of an externally supplied
//!   trajectory.
//! * [`Group`] / [`GroupMember`] — Reference-Point Group Mobility: herds
//!   whose members follow a wandering leader (the Figure 7 caribou
//!   behaviour).
//! * [`placement`] — initial node placements: uniform, grid, and the
//!   clustered Gaussian-mixture placement standing in for the Gros Morne
//!   caribou distribution of Figure 7 (see DESIGN.md substitutions).
// Shared strict-lint header (checked by `cargo xtask lint`): the
// simulation stack must stay safe Rust, and determinism rules are enforced
// by clippy `disallowed-types`/`disallowed-methods` plus `cargo xtask lint`.
#![forbid(unsafe_code)]
#![deny(unused_must_use)]

mod group;
pub mod placement;
mod rwp;
mod statics;
mod trace;

pub use group::{Group, GroupMember};
pub use rwp::{RandomWaypoint, RwpConfig};
pub use statics::StaticMobility;
pub use trace::WaypointTrace;

use diknn_geom::Point;

/// An analytic motion plan: exact position at any simulated time.
///
/// Implementations must be *total* over `t >= 0` and deterministic; the
/// simulator, the protocols and the ground-truth oracle all sample the same
/// plan, which is what makes pre-/post-accuracy measurements exact.
pub trait Mobility: Send + Sync {
    /// Exact position at time `t` seconds (clamped to the plan's horizon).
    fn position_at(&self, t: f64) -> Point;

    /// Instantaneous speed at time `t`, in m/s.
    fn speed_at(&self, t: f64) -> f64;

    /// An upper bound on the node's speed over the whole plan, in m/s.
    ///
    /// DIKNN's mobility-assurance mechanism (§4.3) tracks the fastest speed
    /// observed during dissemination; tests compare against this bound.
    fn max_speed(&self) -> f64;
}

/// A boxed mobility plan, as stored per node by the simulator.
pub type BoxedMobility = Box<dyn Mobility>;

impl Mobility for Box<dyn Mobility> {
    fn position_at(&self, t: f64) -> Point {
        self.as_ref().position_at(t)
    }
    fn speed_at(&self, t: f64) -> f64 {
        self.as_ref().speed_at(t)
    }
    fn max_speed(&self) -> f64 {
        self.as_ref().max_speed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_mobility_delegates() {
        let m: BoxedMobility = Box::new(StaticMobility::new(Point::new(1.0, 2.0)));
        assert_eq!(m.position_at(10.0), Point::new(1.0, 2.0));
        assert_eq!(m.speed_at(10.0), 0.0);
        assert_eq!(m.max_speed(), 0.0);
    }
}
