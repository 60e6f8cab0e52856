//! Beacon-maintained neighbour tables.
//!
//! "Every sensor node maintains a table enrolling IDs and locations of
//! neighbor nodes falling within its radio range" (§3.1). Entries are what
//! the node *heard*, not ground truth: under mobility a table entry can be
//! stale by up to the beacon interval, which is precisely the effect that
//! degrades the fixed-infrastructure baselines.

use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};
use diknn_geom::Point;

/// Neighbour entries heard this long ago or earlier are stale: 2.2× the
/// paper's 0.5 s beacon interval, so one lost beacon does not evict a
/// neighbour.
pub const NEIGHBOR_TIMEOUT: SimDuration = SimDuration::from_nanos(1_100_000_000);

/// What one node knows about one neighbour, from its last beacon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    pub id: NodeId,
    /// Position advertised in the last heard beacon.
    pub position: Point,
    /// Speed advertised in the last heard beacon (m/s); DIKNN's mobility
    /// assurance tracks the fastest speed seen (§4.3).
    pub speed: f64,
    /// When the beacon was heard.
    pub heard_at: SimTime,
}

/// A node's neighbour table: who was heard, and when.
///
/// A beacon's payload is exactly its sender's mobility plan evaluated at
/// send time, so the table stores only `(sender, heard_at)`;
/// `Ctx::neighbors` rebuilds each [`Neighbor`] from the sender's plan at
/// `heard_at`. Entries keep strict insertion order: a re-heard sender is
/// updated in place, and expiry preserves the order of the survivors.
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    entries: Vec<(NodeId, SimTime)>,
}

impl NeighborTable {
    /// Record a beacon from `id` heard at `heard_at`, replacing any
    /// previous entry for the sender in place. Ids are unique within a
    /// table, so the search may start from the newest entry: senders that
    /// moved away, which expiry drops only on the next read, were inserted
    /// earlier and sit toward the front.
    pub fn record(&mut self, id: NodeId, heard_at: SimTime) {
        match self.entries.iter_mut().rev().find(|e| e.0 == id) {
            Some(e) => e.1 = heard_at,
            None => self.entries.push((id, heard_at)),
        }
    }

    /// Drop entries heard at or before `cutoff`; called lazily on reads.
    pub fn expire(&mut self, cutoff: SimTime) {
        self.entries.retain(|e| e.1 > cutoff);
    }

    /// Current (non-expired) entries, in insertion order.
    pub fn entries(&self) -> &[(NodeId, SimTime)] {
        &self.entries
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

// Wire format: the `(id, heard_at)` list. `Simulator::restore` checks every
// id names a node and every time is no later than the snapshot's clock.
impl diknn_snap::Snap for NeighborTable {
    fn snap(&self, w: &mut diknn_snap::SnapWriter) {
        diknn_snap::Snap::snap(&self.entries, w);
    }
    fn unsnap(r: &mut diknn_snap::SnapReader<'_>) -> Result<Self, diknn_snap::SnapError> {
        Ok(NeighborTable {
            entries: diknn_snap::Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: f64) -> SimTime {
        SimTime::from_secs_f64(t)
    }

    #[test]
    fn record_replaces_in_place() {
        let mut t = NeighborTable::default();
        t.record(NodeId(1), at(0.0));
        t.record(NodeId(2), at(0.5));
        t.record(NodeId(1), at(1.0));
        assert_eq!(
            t.entries(),
            &[(NodeId(1), at(1.0)), (NodeId(2), at(0.5))],
            "a re-heard sender keeps its slot"
        );
    }

    #[test]
    fn expire_keeps_order() {
        let mut t = NeighborTable::default();
        t.record(NodeId(3), at(2.0));
        t.record(NodeId(1), at(0.0));
        t.record(NodeId(4), at(1.0));
        t.record(NodeId(2), at(3.0));
        t.expire(at(1.0));
        assert_eq!(t.entries(), &[(NodeId(3), at(2.0)), (NodeId(2), at(3.0))]);
        t.clear();
        assert!(t.entries().is_empty());
    }
}
