//! Per-node energy accounting.
//!
//! The paper reports "amount of energy (in Joule) consumed in a simulation
//! run". Energy here is power × airtime, accumulated separately for
//! transmission and reception and separately for beacon traffic versus
//! protocol traffic, so experiments can report query-processing energy
//! (what the protocols differ in) without the constant beacon floor that all
//! protocols share.

use crate::time::SimDuration;

/// Transmit power draw in watts (energy = power × airtime).
pub const TX_POWER_W: f64 = 0.0522;

/// Receive power draw in watts; every audible node pays reception energy
/// (overhearing is how itinerary probes reach D-nodes).
pub const RX_POWER_W: f64 = 0.0564;

const _: () = assert!(
    TX_POWER_W >= 0.0 && RX_POWER_W >= 0.0,
    "power draws must be non-negative"
);

/// Traffic category for energy attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Periodic neighbourhood beacons (identical across protocols).
    Beacon,
    /// Everything the protocol under test sends.
    Protocol,
}

/// Energy meter of one node, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyMeter {
    pub tx_protocol_j: f64,
    pub rx_protocol_j: f64,
    pub tx_beacon_j: f64,
    pub rx_beacon_j: f64,
}

diknn_snap::snap_struct!(EnergyMeter {
    tx_protocol_j,
    rx_protocol_j,
    tx_beacon_j,
    rx_beacon_j
});

impl EnergyMeter {
    /// Charge transmit energy; returns the joules charged so callers can
    /// attribute the same amount elsewhere (per-query ledgers) without
    /// re-deriving the power × airtime formula.
    pub fn charge_tx(&mut self, power_w: f64, airtime: SimDuration, class: TrafficClass) -> f64 {
        let j = power_w * airtime.as_secs_f64();
        match class {
            TrafficClass::Beacon => self.tx_beacon_j += j,
            TrafficClass::Protocol => self.tx_protocol_j += j,
        }
        j
    }

    /// Charge receive energy; returns the joules charged (see `charge_tx`).
    pub fn charge_rx(&mut self, power_w: f64, airtime: SimDuration, class: TrafficClass) -> f64 {
        let j = power_w * airtime.as_secs_f64();
        match class {
            TrafficClass::Beacon => self.rx_beacon_j += j,
            TrafficClass::Protocol => self.rx_protocol_j += j,
        }
        j
    }

    /// Query-processing energy: what the evaluation compares.
    #[inline]
    pub fn protocol_j(&self) -> f64 {
        self.tx_protocol_j + self.rx_protocol_j
    }

    /// All radio energy including beacons.
    #[inline]
    pub fn total_j(&self) -> f64 {
        self.protocol_j() + self.tx_beacon_j + self.rx_beacon_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_by_class() {
        let mut m = EnergyMeter::default();
        m.charge_tx(0.05, SimDuration::from_millis(100), TrafficClass::Protocol);
        m.charge_rx(0.06, SimDuration::from_millis(100), TrafficClass::Protocol);
        m.charge_tx(0.05, SimDuration::from_millis(10), TrafficClass::Beacon);
        assert!((m.tx_protocol_j - 0.005).abs() < 1e-12);
        assert!((m.rx_protocol_j - 0.006).abs() < 1e-12);
        assert!((m.tx_beacon_j - 0.0005).abs() < 1e-12);
        assert!((m.protocol_j() - 0.011).abs() < 1e-12);
        assert!((m.total_j() - 0.0115).abs() < 1e-12);
    }
}
