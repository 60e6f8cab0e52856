//! Simulator configuration.

use std::fmt;

use crate::faults::FaultPlan;
use crate::time::SimDuration;
use crate::trace::TraceConfig;
use diknn_geom::Rect;

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
    /// The radio range is not positive.
    NonPositiveRadioRange(f64),
    /// The channel rate is zero.
    ZeroChannelRate,
    /// `loss_rate` outside `[0, 1)`.
    LossRateOutOfRange(f64),
    /// A power draw is negative.
    NegativePower { tx_power_w: f64, rx_power_w: f64 },
    /// `max_backoffs` is zero: no frame could ever be transmitted under
    /// contention.
    ZeroMaxBackoffs,
    /// `time_limit` is zero: the run would end before `on_start`.
    ZeroTimeLimit,
    /// Beaconing is enabled but `neighbor_timeout <= beacon_interval`:
    /// every neighbour entry would expire before it can be refreshed,
    /// leaving tables permanently empty.
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
    /// The serving layer's result cache is enabled with a zero or negative
    /// TTL: every entry would be stale the moment it is written.
    NonPositiveCacheTtl(f64),
    /// The serving layer's spatial merge radius is negative (zero disables
    /// merging; negative is meaningless).
    NegativeMergeRadius(f64),
    /// The admission controller's concurrency ceiling is zero: no query
    /// could ever be admitted.
    ZeroAdmissionCeiling,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyField => write!(f, "empty simulation field"),
            ConfigError::NonPositiveRadioRange(r) => {
                write!(f, "radio range must be positive, got {r}")
            }
            ConfigError::ZeroChannelRate => write!(f, "channel rate must be positive"),
            ConfigError::LossRateOutOfRange(l) => {
                write!(f, "loss rate must be in [0, 1), got {l}")
            }
            ConfigError::NegativePower {
                tx_power_w,
                rx_power_w,
            } => write!(
                f,
                "power draws must be non-negative, got tx={tx_power_w} rx={rx_power_w}"
            ),
            ConfigError::ZeroMaxBackoffs => {
                write!(f, "max_backoffs must be nonzero (no frame could ever send)")
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
            ConfigError::NonPositiveCacheTtl(ttl) => {
                write!(
                    f,
                    "cache TTL must be positive when caching is enabled, got {ttl}"
                )
            }
            ConfigError::NegativeMergeRadius(r) => {
                write!(f, "merge radius must be non-negative, got {r}")
            }
            ConfigError::ZeroAdmissionCeiling => {
                write!(
                    f,
                    "admission ceiling must be nonzero (no query could be admitted)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// All physical/MAC/beacon parameters of a run.
///
/// Defaults reproduce the settings table of §5.1: 115×115 m² field, 20 m
/// radio range, 250 kbps channel, RTS/CTS off, 0.5 s beacons.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulation field boundary.
    pub field: Rect,
    /// Radio range `r` in metres (unit-disc model).
    pub radio_range: f64,
    /// Channel rate in bits/s.
    pub bits_per_sec: u64,
    /// Bytes of PHY+MAC framing added to every packet's payload size.
    pub header_bytes: usize,
    /// MAC mode (contention vs. contention-free).
    pub mac: MacMode,
    /// Maximum number of MAC (re)transmission attempts when the channel is
    /// busy before the packet is dropped.
    pub max_backoffs: u32,
    /// Base backoff window; the n-th retry waits uniform(0, window·2ⁿ).
    pub backoff_window: SimDuration,
    /// Link-layer (ARQ) retransmissions for unicast frames whose addressee
    /// did not receive them; models the 802.11 retry behaviour.
    pub unicast_retries: u32,
    /// Uniform random per-reception packet loss probability in `[0, 1)`,
    /// applied on top of collisions (models fading/interference the unit
    /// disc cannot). Ignored when the fault plan selects a
    /// [`crate::faults::LinkLossModel::GilbertElliott`] channel.
    pub loss_rate: f64,
    /// Interval between neighbour beacons (0.5 s in the paper). A zero
    /// duration disables beaconing: tables then hold only what
    /// `Simulator::warm_neighbor_tables` seeded at t = 0. Beacons are the
    /// only way a node learns its neighbours during a run (§3.1, §5.1).
    pub beacon_interval: SimDuration,
    /// Beacon payload size in bytes (id + position + speed).
    pub beacon_bytes: usize,
    /// Neighbour entries older than this are ignored; defaults to 2.2×
    /// the beacon interval so one lost beacon does not evict a neighbour.
    pub neighbor_timeout: SimDuration,
    /// Spatial index behind the engine's one in-range query (frame
    /// receivers and table warm-up). [`NeighborIndex::Grid`] by default;
    /// [`NeighborIndex::BruteForce`] keeps the O(n) scan as an oracle.
    pub neighbor_index: NeighborIndex,
    /// Transmit power draw in watts (energy = power × airtime).
    pub tx_power_w: f64,
    /// Receive power draw in watts; every audible node pays reception
    /// energy (overhearing is how itinerary probes reach D-nodes).
    pub rx_power_w: f64,
    /// Hard stop: no event later than this is processed.
    pub time_limit: SimDuration,
    /// Fault injection plan (crashes, bursty loss, jamming, energy
    /// budgets); the default plan is inert. See [`crate::faults`].
    pub faults: FaultPlan,
    /// Flight recorder settings (see [`crate::trace`]): typed, ring-buffered
    /// event traces for golden files and the invariant checker. Disabled by
    /// default.
    pub trace: TraceConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        let beacon_interval = SimDuration::from_millis(500);
        SimConfig {
            field: Rect::new(0.0, 0.0, 115.0, 115.0),
            radio_range: 20.0,
            bits_per_sec: 250_000,
            header_bytes: 16,
            mac: MacMode::Contention,
            max_backoffs: 6,
            backoff_window: SimDuration::from_micros(640),
            unicast_retries: 3,
            loss_rate: 0.0,
            beacon_interval,
            beacon_bytes: 20,
            neighbor_timeout: beacon_interval.mul_f64(2.2),
            neighbor_index: NeighborIndex::default(),
            tx_power_w: 0.0522,
            rx_power_w: 0.0564,
            time_limit: SimDuration::from_secs_f64(100.0),
            faults: FaultPlan::default(),
            trace: TraceConfig::default(),
        }
    }
}

impl SimConfig {
    /// Airtime of a protocol packet carrying `payload_bytes`.
    #[inline]
    pub fn packet_airtime(&self, payload_bytes: usize) -> SimDuration {
        SimDuration::airtime(self.header_bytes + payload_bytes, self.bits_per_sec)
    }

    /// Validate invariants; returns the first violation found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.field.is_empty() {
            return Err(ConfigError::EmptyField);
        }
        if self.radio_range <= 0.0 || self.radio_range.is_nan() {
            return Err(ConfigError::NonPositiveRadioRange(self.radio_range));
        }
        if self.bits_per_sec == 0 {
            return Err(ConfigError::ZeroChannelRate);
        }
        if !(0.0..1.0).contains(&self.loss_rate) {
            return Err(ConfigError::LossRateOutOfRange(self.loss_rate));
        }
        if self.tx_power_w < 0.0 || self.rx_power_w < 0.0 {
            return Err(ConfigError::NegativePower {
                tx_power_w: self.tx_power_w,
                rx_power_w: self.rx_power_w,
            });
        }
        if self.max_backoffs == 0 {
            return Err(ConfigError::ZeroMaxBackoffs);
        }
        if self.time_limit == SimDuration::ZERO {
            return Err(ConfigError::ZeroTimeLimit);
        }
        if self.beacon_interval > SimDuration::ZERO && self.neighbor_timeout <= self.beacon_interval
        {
            return Err(ConfigError::NeighborTimeoutTooShort {
                neighbor_timeout: self.neighbor_timeout,
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
        assert_eq!(c.radio_range, 20.0);
        assert_eq!(c.bits_per_sec, 250_000);
        assert_eq!(c.beacon_interval, SimDuration::from_millis(500));
        assert_eq!(c.mac, MacMode::Contention);
        assert_eq!(c.neighbor_index, NeighborIndex::Grid);
        assert!(c.faults.is_inert());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn airtime_includes_header() {
        let c = SimConfig::default();
        // (16 + 109) bytes = 1000 bits at 250 kbps -> 4 ms.
        assert_eq!(c.packet_airtime(109), SimDuration::from_millis(4));
    }

    #[test]
    fn validate_rejects_bad_loss_rate() {
        let c = SimConfig {
            loss_rate: 1.5,
            ..SimConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::LossRateOutOfRange(1.5)));
    }

    #[test]
    fn validate_rejects_zero_max_backoffs() {
        let c = SimConfig {
            max_backoffs: 0,
            ..SimConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxBackoffs));
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
            neighbor_timeout: SimDuration::from_millis(400),
            ..SimConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NeighborTimeoutTooShort { .. })
        ));
        // A disabled beacon (zero interval) lifts the constraint.
        let c = SimConfig {
            beacon_interval: SimDuration::ZERO,
            neighbor_timeout: SimDuration::ZERO,
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
        // The serving-layer knobs (validated by `DiknnConfig`/workload
        // validation in the downstream crates) share this error type.
        for (e, needle) in [
            (ConfigError::NonPositiveQueryRate(0.0), "rate"),
            (ConfigError::NonPositiveCacheTtl(-1.0), "TTL"),
            (ConfigError::NegativeMergeRadius(-3.0), "merge radius"),
            (ConfigError::ZeroAdmissionCeiling, "admission ceiling"),
        ] {
            let s = e.to_string();
            assert!(s.contains(needle), "{s} should mention {needle}");
        }
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
