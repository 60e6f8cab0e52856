//! Node lifecycle state machine for the resident service mode.
//!
//! Long-running service deployments distinguish *why* a node is not
//! answering: a node that **left** (churn, reboot, duty-cycling) will come
//! back and re-learn its neighbourhood, while a node that is **dead**
//! (battery exhausted) never will. The phase is the engine's one liveness
//! record ([`crate::NodeSoA::phase`]): the radio hot path, timer dispatch,
//! [`crate::Ctx::is_alive`] and [`crate::Ctx::alive_count`] all read it, and
//! a node is live exactly when it is [`NodePhase::Up`].

/// Where a node is in its up/down/dead lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodePhase {
    /// Participating normally: transmits, receives, runs timers.
    #[default]
    Up,
    /// Temporarily out of the network (crash awaiting recovery, or a churn
    /// departure). Radio and CPU are off; a later `Recover`/`Rejoin` event
    /// returns the node to [`NodePhase::Up`].
    Down,
    /// Permanently dead (energy budget exhausted). Terminal: rejoin and
    /// recovery events are refused.
    Dead,
}

impl NodePhase {
    /// Whether the node currently participates in the network.
    #[inline]
    pub fn is_up(self) -> bool {
        self == NodePhase::Up
    }

    /// Short label for traces and metrics lines.
    pub fn label(self) -> &'static str {
        match self {
            NodePhase::Up => "up",
            NodePhase::Down => "down",
            NodePhase::Dead => "dead",
        }
    }
}

diknn_snap::snap_enum!(NodePhase {
    0 => Up,
    1 => Down,
    2 => Dead,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_phase_is_up() {
        assert_eq!(NodePhase::default(), NodePhase::Up);
        assert!(NodePhase::Up.is_up());
        assert!(!NodePhase::Down.is_up());
        assert!(!NodePhase::Dead.is_up());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(NodePhase::Up.label(), "up");
        assert_eq!(NodePhase::Down.label(), "down");
        assert_eq!(NodePhase::Dead.label(), "dead");
    }

    #[test]
    fn snap_roundtrip() {
        use diknn_snap::{Snap, SnapReader, SnapWriter};
        for phase in [NodePhase::Up, NodePhase::Down, NodePhase::Dead] {
            let mut w = SnapWriter::new();
            phase.snap(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(NodePhase::unsnap(&mut r).unwrap(), phase);
        }
    }
}
