//! Identifier newtypes used across the simulator.

use std::fmt;

/// Index of a sensor node in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle returned by [`crate::Ctx::set_timer`]; can be used to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// Pack a protocol timer key for [`crate::Ctx::set_timer`]: an 8-bit timer
/// kind, a 32-bit query id and a 24-bit auxiliary field (sector, request
/// index, ...; higher bits are dropped).
#[inline]
pub fn pack_timer_key(kind: u8, qid: u32, aux: u32) -> u64 {
    ((kind as u64) << 56) | ((qid as u64) << 24) | (aux as u64 & 0xFF_FFFF)
}

/// Split a key built by [`pack_timer_key`] into `(kind, qid, aux)`.
#[inline]
pub fn unpack_timer_key(key: u64) -> (u8, u32, u32) {
    (
        (key >> 56) as u8,
        ((key >> 24) & 0xFFFF_FFFF) as u32,
        (key & 0xFF_FFFF) as u32,
    )
}

impl diknn_snap::Snap for NodeId {
    fn snap(&self, w: &mut diknn_snap::SnapWriter) {
        w.put_u32(self.0);
    }
    fn unsnap(r: &mut diknn_snap::SnapReader<'_>) -> Result<Self, diknn_snap::SnapError> {
        Ok(NodeId(r.take_u32()?))
    }
}

impl diknn_snap::Snap for TimerId {
    fn snap(&self, w: &mut diknn_snap::SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(r: &mut diknn_snap::SnapReader<'_>) -> Result<Self, diknn_snap::SnapError> {
        Ok(TimerId(r.take_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_keys_round_trip_and_truncate_aux() {
        let k = pack_timer_key(2, 0xDEAD_BEEF, 0x12_3456);
        assert_eq!(unpack_timer_key(k), (2, 0xDEAD_BEEF, 0x12_3456));
        let k = pack_timer_key(u8::MAX, u32::MAX, 0xFFFF_FFFF);
        assert_eq!(unpack_timer_key(k), (u8::MAX, u32::MAX, 0xFF_FFFF));
    }

    #[test]
    fn node_id_display_and_index() {
        let n = NodeId(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "n7");
    }
}
