//! Struct-of-arrays per-node engine state and the dense flow-energy ledger.
//!
//! The engine's hot paths address nodes by dense `NodeId` index thousands
//! of times per simulated second. Keeping each per-node fact in its own
//! flat column ([`NodeSoA`]) means carrier sense, liveness checks, and
//! lifecycle updates are single indexed loads with no map traversal, and
//! the columns the MAC touches every event (`tx_count`, `rx_cover`,
//! `phase`) stay dense in cache.
//!
//! [`FlowLedger`] replaces the old `BTreeMap<u32, f64>` per-flow energy
//! table: flow labels are small dense query ids in practice, so a `Vec`
//! indexed by label is both faster and still deterministic (iteration is
//! ascending by label, exactly the order the map gave).

use diknn_snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::lifecycle::NodePhase;

/// Per-node engine state, one column per fact, indexed by dense node id.
///
/// The busy-tracking columns (`tx_count`, `rx_cover`) are *derived* from
/// the active-transmission list but maintained incrementally so carrier
/// sense is O(1) instead of a scan over every frame on the air:
///
/// * `tx_count[i]` — number of active transmissions with sender `i`
///   (0 or 1 in practice: a transmitting node senses the channel busy).
/// * `rx_cover[i]` — number of active transmissions that counted `i` among
///   their receivers at transmission start.
///
/// Both are incremented when a transmission starts and decremented when it
/// ends (including the dead-sender path), so `tx_count[i] > 0 ||
/// rx_cover[i] > 0` is exactly the old "some active tx has `i` as sender
/// or receiver" scan.
#[derive(Debug, Clone)]
pub struct NodeSoA {
    /// Lifecycle phase (fault plan). Only [`NodePhase::Up`] nodes tx, rx
    /// and run timers: this column is the engine's one liveness record.
    pub phase: Vec<NodePhase>,
    /// Per-receiver Gilbert–Elliott channel state (true = Bad).
    pub ge_bad: Vec<bool>,
    /// Active transmissions sent by this node (carrier-sense column).
    pub tx_count: Vec<u32>,
    /// Active transmissions covering this node as a receiver.
    pub rx_cover: Vec<u32>,
}

impl NodeSoA {
    pub fn new(n: usize) -> Self {
        NodeSoA {
            phase: vec![NodePhase::Up; n],
            ge_bad: vec![false; n],
            tx_count: vec![0; n],
            rx_cover: vec![0; n],
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.phase.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.phase.is_empty()
    }
}

// Column order is part of the snapshot wire format (SNAP_VERSION ≥ 2);
// changing it requires a version bump.
diknn_snap::snap_struct!(NodeSoA {
    phase,
    ge_bad,
    tx_count,
    rx_cover
});

/// Per-flow protocol energy in joules, indexed by flow label.
///
/// Flow labels are the query ids protocols pass to
/// [`crate::Ctx::unicast_flow`]/[`crate::Ctx::broadcast_flow`] — small and
/// dense — so the ledger is a flat `Vec<f64>` grown on demand. Absent
/// labels read as `0.0`, matching the old `BTreeMap` miss, and
/// [`FlowLedger::iter`] visits charged flows ascending by label, matching
/// the old map order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowLedger {
    joules: Vec<f64>,
}

impl FlowLedger {
    pub fn new() -> Self {
        FlowLedger::default()
    }

    /// Joules attributed to `flow` so far (0.0 if never charged).
    #[inline]
    pub fn get(&self, flow: u32) -> f64 {
        self.joules.get(flow as usize).copied().unwrap_or(0.0)
    }

    /// Add `j` joules to `flow`, growing the table if needed.
    #[inline]
    pub fn charge(&mut self, flow: u32, j: f64) {
        let i = flow as usize;
        if self.joules.len() <= i {
            self.joules.resize(i + 1, 0.0);
        }
        self.joules[i] += j;
    }

    /// Sum over all flows.
    pub fn total(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// `(flow, joules)` for every flow with a non-zero charge, ascending
    /// by flow label.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.joules
            .iter()
            .enumerate()
            .filter(|&(_, &j)| j != 0.0)
            .map(|(i, &j)| (i as u32, j))
    }

    /// Number of flows ever charged (table extent, not non-zero count).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.joules.len()
    }
}

impl Snap for FlowLedger {
    fn snap(&self, w: &mut SnapWriter) {
        self.joules.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FlowLedger {
            joules: Vec::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_columns_start_uniform() {
        let s = NodeSoA::new(3);
        assert_eq!(s.len(), 3);
        assert!(s.phase.iter().all(|&p| p == NodePhase::Up));
        assert!(s.tx_count.iter().all(|&c| c == 0));
        assert!(s.rx_cover.iter().all(|&c| c == 0));
    }

    #[test]
    fn ledger_grows_sums_and_iterates_ascending() {
        let mut l = FlowLedger::new();
        assert_eq!(l.get(7), 0.0);
        l.charge(7, 1.5);
        l.charge(2, 0.25);
        l.charge(7, 0.5);
        assert_eq!(l.get(7), 2.0);
        assert_eq!(l.get(2), 0.25);
        assert_eq!(l.get(3), 0.0);
        assert_eq!(l.total(), 2.25);
        let flows: Vec<(u32, f64)> = l.iter().collect();
        assert_eq!(flows, vec![(2, 0.25), (7, 2.0)]);
    }

    #[test]
    fn ledger_snapshot_roundtrip() {
        let mut l = FlowLedger::new();
        l.charge(0, 0.125);
        l.charge(5, 3.5);
        let mut w = SnapWriter::new();
        l.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = FlowLedger::unsnap(&mut r).expect("unsnap");
        r.finish().expect("consumed");
        assert_eq!(back, l);
    }
}
