//! DIKNN protocol parameters (defaults = the paper's settings table, §5.1).
//!
//! The settings every protocol of the evaluation shares are constants here;
//! the config structs hold only what an experiment varies.

/// Data-collection time unit `m` in seconds (0.018 s in the paper): how
/// long a collector budgets per expected replier. DIKNN's Q-nodes,
/// Peer-tree's query heads and the flooding baseline's responders all pace
/// collection by it.
pub const COLLECTION_UNIT: f64 = 0.018;

/// Upper bound on repliers assumed when sizing a contention window (the
/// window is `COLLECTION_UNIT × CONTENTION_SLOTS`).
pub(crate) const CONTENTION_SLOTS: f64 = 8.0;

/// Per-node query response payload in bytes (10 bytes in the paper).
pub const RESPONSE_BYTES: usize = 10;

/// Fixed per-message overhead in bytes that every protocol assumes for
/// bookkeeping fields (ids, radii, counters) when sizing packets.
pub const BASE_MSG_BYTES: usize = 24;

const _: () = assert!(COLLECTION_UNIT > 0.0, "collection unit must be positive");

/// How a Q-node collects responses from the D-nodes that heard its probe
/// (§3.3 "data collection scheme" and footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionScheme {
    /// Contention-based: each D-node delays its reply by a timer
    /// proportional to its angle α from the probe's reference line
    /// (`timer = (α/2π)·i·m`), desynchronising replies.
    Contention,
    /// Token-ring: the Q-node polls each candidate D-node in turn —
    /// collision-free but one extra poll frame per D-node.
    TokenRing,
    /// The paper's combined scheme: a contention round first, then explicit
    /// polls for neighbours that stayed silent.
    Combined,
}

/// Sink-side serving layer: admission control, spatial query merging and
/// short-TTL result caching (DESIGN.md §12). Its admission ceiling, merge
/// and cache radii and cache TTL are constants beside their reader in the
/// DIKNN protocol. Disabled by default — with `enabled == false` the
/// protocol behaves bit-identically to a build without the serving layer
/// (golden traces are pinned on this).
#[derive(Debug, Clone, Default)]
pub struct ServingConfig {
    /// Master switch. Off: every query is admitted immediately, no merge,
    /// no cache, no serving trace events.
    pub enabled: bool,
}

impl ServingConfig {
    /// An enabled serving layer.
    pub fn enabled() -> Self {
        ServingConfig { enabled: true }
    }
}

/// Protocol configuration carried by [`crate::Diknn`].
#[derive(Debug, Clone)]
pub struct DiknnConfig {
    /// Number of sectors `S` (default 8).
    pub sectors: usize,
    /// Itinerary width as a fraction of the radio range; the default is the
    /// paper's `w = √3·r/2`.
    pub width_factor: f64,
    /// Mobility assurance gain `g ∈ [0, 1]` (§4.3; default 0.1).
    pub assurance_gain: f64,
    /// Enable rendezvous-based dynamic boundary adjustment (§4.3).
    pub rendezvous: bool,
    /// Data collection scheme.
    pub collection: CollectionScheme,
    /// Give up on a query at the sink after this many seconds without all
    /// sector results (straggler sectors are simply not merged).
    pub sink_timeout: f64,
    /// Token-loss watchdog: after handing the token off, a Q-node watches
    /// for the sector to progress past its successor and re-issues the
    /// token on silence (fail-stop crashes and deep fades otherwise kill
    /// the whole sector).
    pub token_watchdog: bool,
    /// Whole-query retries the sink may launch when `sink_timeout` expires
    /// with *zero* results merged (fresh dissemination, rotated itinerary
    /// origin). Partial results are kept and never retried.
    pub max_query_retries: u32,
    /// Sink-side serving layer (admission / merge / cache). Disabled by
    /// default; see [`ServingConfig`].
    pub serving: ServingConfig,
}

impl Default for DiknnConfig {
    fn default() -> Self {
        DiknnConfig {
            sectors: 8,
            width_factor: 3.0_f64.sqrt() / 2.0,
            assurance_gain: 0.1,
            rendezvous: true,
            collection: CollectionScheme::Combined,
            sink_timeout: 20.0,
            token_watchdog: true,
            max_query_retries: 1,
            serving: ServingConfig::default(),
        }
    }
}

impl DiknnConfig {
    pub fn validate(&self) {
        assert!(self.sectors >= 1, "need at least one sector");
        assert!(
            self.width_factor > 0.0 && self.width_factor <= 2.0,
            "width factor out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.assurance_gain),
            "assurance gain must be in [0, 1]"
        );
        assert!(self.sink_timeout > 0.0, "sink timeout must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DiknnConfig::default();
        assert_eq!(c.sectors, 8);
        assert!((c.width_factor - 0.866_025_403_784_438_6).abs() < 1e-12);
        assert!((COLLECTION_UNIT - 0.018).abs() < 1e-12);
        assert!((c.assurance_gain - 0.1).abs() < 1e-12);
        assert!(c.rendezvous);
        assert_eq!(RESPONSE_BYTES, 10);
        c.validate();
    }

    #[test]
    fn serving_defaults_are_off() {
        assert!(!ServingConfig::default().enabled);
        assert!(ServingConfig::enabled().enabled);
    }

    #[test]
    #[should_panic(expected = "assurance gain")]
    fn rejects_bad_gain() {
        DiknnConfig {
            assurance_gain: 1.5,
            ..DiknnConfig::default()
        }
        .validate();
    }
}
