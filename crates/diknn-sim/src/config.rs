//! Simulator configuration.

use std::fmt;

use crate::faults::FaultPlan;
use crate::neighbors::NEIGHBOR_TIMEOUT;
use crate::time::SimDuration;
use crate::trace::TraceConfig;
use diknn_geom::Rect;

/// Channel rate in bits/s (250 kbps, §5.1).
pub const BITS_PER_SEC: u64 = 250_000;

/// Bytes of PHY+MAC framing added to every packet's payload size.
pub const HEADER_BYTES: usize = 16;

/// Radio range `r` in metres (unit-disc model, 20 m in §5.1).
pub const RADIO_RANGE: f64 = 20.0;

const _: () = assert!(BITS_PER_SEC > 0, "channel rate must be positive");
const _: () = assert!(RADIO_RANGE > 0.0, "radio range must be positive");

/// Airtime of a packet carrying `payload_bytes` plus the framing header.
#[inline]
pub fn packet_airtime(payload_bytes: usize) -> SimDuration {
    SimDuration::airtime(HEADER_BYTES + payload_bytes, BITS_PER_SEC)
}

/// How the engine answers "which nodes are within radio range?".
///
/// Both answers are bit-identical by construction (the grid is a
/// candidate superset, exact-checked with the same predicate and sorted
/// the same way — see `crate::grid`); only the cost differs. The brute
/// scan is kept as the test oracle the grid is proptested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborIndex {
    /// Bucketed spatial grid, cell size = radio range: O(degree) per
    /// query. The default.
    #[default]
    Grid,
    /// Full O(n) scan over all mobility plans per query. Test oracle.
    BruteForce,
}

/// MAC behaviour modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacMode {
    /// CSMA/CA-like contention: carrier sense, random backoff, collisions
    /// destroy overlapping receptions. This is the paper's default
    /// environment (802.11 MAC at 250 kbps, RTS/CTS disabled).
    Contention,
    /// An idealised Contention Free Period (LR-WPAN CFP, §3.3): carrier
    /// sense still serialises the medium but receptions are never corrupted.
    /// Used by ablations to isolate collision effects.
    ContentionFree,
}

/// A configuration invariant violation found by [`SimConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The simulation field rectangle is empty.
    EmptyField,
    /// The uniform link-loss probability
    /// ([`crate::faults::LinkLossModel::Uniform`]) is outside `[0, 1)`.
    LossRateOutOfRange(f64),
    /// `time_limit` is zero: the run would end before `on_start`.
    ZeroTimeLimit,
    /// Beaconing is enabled but the beacon interval is not shorter than
    /// [`NEIGHBOR_TIMEOUT`]: every neighbour entry would expire before it
    /// can be refreshed, leaving tables permanently empty.
    NeighborTimeoutTooShort {
        neighbor_timeout: SimDuration,
        beacon_interval: SimDuration,
    },
    /// A fault-plan parameter is out of range (message explains which).
    Fault(String),
    /// The flight recorder is enabled with a zero-capacity ring buffer:
    /// every event would be evicted the moment it is recorded.
    ZeroTraceCapacity,
    /// A query arrival rate is not positive: the arrival process would
    /// never produce a query (or would divide by zero computing gaps).
    NonPositiveQueryRate(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyField => write!(f, "empty simulation field"),
            ConfigError::LossRateOutOfRange(l) => {
                write!(f, "loss rate must be in [0, 1), got {l}")
            }
            ConfigError::ZeroTimeLimit => write!(f, "time_limit must be nonzero"),
            ConfigError::NeighborTimeoutTooShort {
                neighbor_timeout,
                beacon_interval,
            } => write!(
                f,
                "neighbor_timeout ({neighbor_timeout}) must exceed beacon_interval \
                 ({beacon_interval}) or tables can never retain an entry"
            ),
            ConfigError::Fault(msg) => write!(f, "fault plan: {msg}"),
            ConfigError::ZeroTraceCapacity => {
                write!(f, "trace capacity must be nonzero when tracing is enabled")
            }
            ConfigError::NonPositiveQueryRate(r) => {
                write!(f, "query arrival rate must be positive, got {r}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The physical/MAC/beacon parameters an experiment varies.
///
/// Defaults reproduce the settings table of §5.1: 115×115 m² field, RTS/CTS
/// off, 0.5 s beacons. The settings every run shares are constants beside
/// their readers: the 20 m [`RADIO_RANGE`], [`BITS_PER_SEC`] and
/// [`HEADER_BYTES`] here, [`NEIGHBOR_TIMEOUT`] in [`crate::neighbors`],
/// [`crate::energy::TX_POWER_W`] and [`crate::energy::RX_POWER_W`] in
/// [`crate::energy`], and the engine's `BACKOFF_WINDOW`, `MAX_BACKOFFS`,
/// `UNICAST_RETRIES` and `BEACON_BYTES`. Link loss lives in the fault plan
/// ([`crate::faults::LinkLossModel`]).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulation field boundary.
    pub field: Rect,
    /// MAC mode (contention vs. contention-free).
    pub mac: MacMode,
    /// Interval between neighbour beacons (0.5 s in the paper). A zero
    /// duration disables beaconing: tables then hold only what
    /// `Simulator::warm_neighbor_tables` seeded at t = 0. Beacons are the
    /// only way a node learns its neighbours during a run (§3.1, §5.1).
    pub beacon_interval: SimDuration,
    /// Spatial index behind the engine's one in-range query (frame
    /// receivers and table warm-up). [`NeighborIndex::Grid`] by default;
    /// [`NeighborIndex::BruteForce`] keeps the O(n) scan as an oracle.
    pub neighbor_index: NeighborIndex,
    /// Hard stop: no event later than this is processed.
    pub time_limit: SimDuration,
    /// Fault injection plan (link loss, crashes, jamming, energy budgets,
    /// churn); the default plan is inert. See [`crate::faults`].
    pub faults: FaultPlan,
    /// Flight recorder settings (see [`crate::trace`]): typed, ring-buffered
    /// event traces for golden files and the invariant checker. Disabled by
    /// default.
    pub trace: TraceConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            field: Rect::new(0.0, 0.0, 115.0, 115.0),
            mac: MacMode::Contention,
            beacon_interval: SimDuration::from_millis(500),
            neighbor_index: NeighborIndex::default(),
            time_limit: SimDuration::from_secs_f64(100.0),
            faults: FaultPlan::default(),
            trace: TraceConfig::default(),
        }
    }
}

impl SimConfig {
    /// Validate invariants; returns the first violation found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.field.is_empty() {
            return Err(ConfigError::EmptyField);
        }
        if self.time_limit == SimDuration::ZERO {
            return Err(ConfigError::ZeroTimeLimit);
        }
        if self.beacon_interval > SimDuration::ZERO && NEIGHBOR_TIMEOUT <= self.beacon_interval {
            return Err(ConfigError::NeighborTimeoutTooShort {
                neighbor_timeout: NEIGHBOR_TIMEOUT,
                beacon_interval: self.beacon_interval,
            });
        }
        if self.trace.enabled && self.trace.capacity == 0 {
            return Err(ConfigError::ZeroTraceCapacity);
        }
        self.faults.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = SimConfig::default();
        assert_eq!(c.field, Rect::new(0.0, 0.0, 115.0, 115.0));
        assert_eq!(c.beacon_interval, SimDuration::from_millis(500));
        assert_eq!(c.mac, MacMode::Contention);
        assert_eq!(c.neighbor_index, NeighborIndex::Grid);
        assert!(c.faults.is_inert());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn radio_constants_keep_the_former_defaults() {
        use crate::energy::{RX_POWER_W, TX_POWER_W};
        use crate::engine::{BACKOFF_WINDOW, BEACON_BYTES, MAX_BACKOFFS, UNICAST_RETRIES};
        assert_eq!(RADIO_RANGE, 20.0);
        assert_eq!(BITS_PER_SEC, 250_000);
        assert_eq!(HEADER_BYTES, 16);
        assert_eq!(BACKOFF_WINDOW, SimDuration::from_micros(640));
        assert_eq!(MAX_BACKOFFS, 6);
        assert_eq!(UNICAST_RETRIES, 3);
        assert_eq!(BEACON_BYTES, 20);
        // 2.2 × the 0.5 s beacon interval.
        assert_eq!(NEIGHBOR_TIMEOUT, SimDuration::from_millis(500).mul_f64(2.2));
        assert_eq!(NEIGHBOR_TIMEOUT.as_nanos(), 1_100_000_000);
        assert_eq!(TX_POWER_W.to_bits(), 0.0522_f64.to_bits());
        assert_eq!(RX_POWER_W.to_bits(), 0.0564_f64.to_bits());
    }

    #[test]
    fn airtime_includes_header() {
        // (16 + 109) bytes = 1000 bits at 250 kbps -> 4 ms.
        assert_eq!(packet_airtime(109), SimDuration::from_millis(4));
    }

    #[test]
    fn validate_rejects_bad_loss_rate() {
        let c = SimConfig {
            faults: FaultPlan {
                link_loss: crate::faults::LinkLossModel::Uniform(1.5),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::LossRateOutOfRange(1.5)));
    }

    #[test]
    fn validate_rejects_zero_time_limit() {
        let c = SimConfig {
            time_limit: SimDuration::ZERO,
            ..SimConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroTimeLimit));
    }

    #[test]
    fn validate_rejects_short_neighbor_timeout() {
        let c = SimConfig {
            beacon_interval: NEIGHBOR_TIMEOUT,
            ..SimConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::NeighborTimeoutTooShort {
                neighbor_timeout: NEIGHBOR_TIMEOUT,
                beacon_interval: NEIGHBOR_TIMEOUT,
            })
        );
        // A disabled beacon (zero interval) lifts the constraint.
        let c = SimConfig {
            beacon_interval: SimDuration::ZERO,
            ..SimConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_fault_plan() {
        let c = SimConfig {
            faults: crate::faults::FaultPlan::random_crashes(2.0, 0.0, 1.0),
            ..SimConfig::default()
        };
        assert!(matches!(c.validate(), Err(ConfigError::Fault(_))));
        let errmsg = c.validate().unwrap_err().to_string();
        assert!(errmsg.contains("fraction"), "{errmsg}");
    }

    #[test]
    fn validate_rejects_zero_trace_capacity() {
        let c = SimConfig {
            trace: TraceConfig {
                enabled: true,
                capacity: 0,
            },
            ..SimConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroTraceCapacity));
    }

    #[test]
    fn serving_error_variants_display() {
        // The arrival-rate check (workload validation in the downstream
        // crates) shares this error type.
        let s = ConfigError::NonPositiveQueryRate(0.0).to_string();
        assert!(s.contains("rate"), "{s} should mention rate");
    }

    #[test]
    fn config_error_displays() {
        let e = ConfigError::NeighborTimeoutTooShort {
            neighbor_timeout: SimDuration::from_millis(100),
            beacon_interval: SimDuration::from_millis(500),
        };
        let s = e.to_string();
        assert!(s.contains("neighbor_timeout"), "{s}");
    }
}
