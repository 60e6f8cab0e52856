//! Run-level counters maintained by the engine.

/// Counters accumulated over a simulation run.
///
/// These are engine-level facts (what the radio did); protocol-level metrics
/// such as query latency and accuracy are computed by the protocols and the
/// workload harness on top.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Completed transmissions (frames put on the air), including beacons.
    pub tx_frames: u64,
    /// Bytes put on the air (payload + headers), including beacons.
    pub tx_bytes: u64,
    /// Protocol (non-beacon) frames put on the air.
    pub tx_protocol_frames: u64,
    /// Successful frame receptions delivered to a protocol or table.
    pub rx_deliveries: u64,
    /// Receptions destroyed by overlapping transmissions.
    pub collisions: u64,
    /// Receptions dropped by the random loss process.
    pub random_losses: u64,
    /// Frames abandoned because the channel never went idle within the
    /// backoff budget.
    pub mac_drops: u64,
    /// Unicast transmissions that exhausted their ARQ retries.
    pub unicast_failures: u64,
    /// Link-layer retransmission attempts performed.
    pub arq_retries: u64,
    /// Beacon frames sent.
    pub beacons_sent: u64,
    /// Total events processed by the engine.
    pub events: u64,

    // ----- fault injection (see `crate::faults`) ------------------------
    /// Fail-stop crashes executed (scheduled + random; excludes energy
    /// deaths).
    pub nodes_crashed: u64,
    /// Crashed nodes that rebooted.
    pub nodes_recovered: u64,
    /// Nodes that died by exhausting their energy budget.
    pub energy_deaths: u64,
    /// Receptions dropped inside an active jamming zone.
    pub frames_jammed: u64,
    /// Receptions dropped by the Gilbert–Elliott bursty-loss chain.
    pub burst_losses: u64,
    /// Frames silently discarded because their sender was dead at
    /// transmission time.
    pub frames_dropped_dead: u64,
    /// Protocol timers that came due at a dead node and were suppressed.
    pub timers_suppressed: u64,
    /// Itinerary tokens re-issued by the token-loss watchdog
    /// (protocol-level; incremented via [`crate::Ctx::stats_mut`]).
    pub tokens_reissued: u64,
    /// Whole-query retries issued by a sink after a silent timeout
    /// (protocol-level).
    pub query_retries: u64,
    /// Events recorded by the flight recorder (see [`crate::trace`]);
    /// zero unless tracing is enabled.
    pub trace_events: u64,

    // ----- churn lifecycle (see `crate::faults::ChurnPlan`) -------------
    /// Churn departures executed (node left the network voluntarily).
    pub nodes_left: u64,
    /// Churned-out nodes that rejoined the network.
    pub nodes_rejoined: u64,

    // ----- per-event-kind breakdown (profiling; sums to `events`) -------
    /// MAC attempt events dispatched (initial, backoff, and ARQ attempts).
    pub ev_mac_attempt: u64,
    /// End-of-transmission (delivery fan-out) events dispatched.
    pub ev_tx_end: u64,
    /// Protocol timer events dispatched (fired, cancelled, or suppressed).
    pub ev_timer: u64,
    /// Beacon-slot events dispatched.
    pub ev_beacon: u64,
    /// Fault/churn lifecycle events dispatched (crash, recover, leave,
    /// rejoin).
    pub ev_lifecycle: u64,
}

diknn_snap::snap_struct!(SimStats {
    tx_frames,
    tx_bytes,
    tx_protocol_frames,
    rx_deliveries,
    collisions,
    random_losses,
    mac_drops,
    unicast_failures,
    arq_retries,
    beacons_sent,
    events,
    nodes_crashed,
    nodes_recovered,
    energy_deaths,
    frames_jammed,
    burst_losses,
    frames_dropped_dead,
    timers_suppressed,
    tokens_reissued,
    query_retries,
    trace_events,
    nodes_left,
    nodes_rejoined,
    ev_mac_attempt,
    ev_tx_end,
    ev_timer,
    ev_beacon,
    ev_lifecycle
});

/// Implementation-side performance counters, maintained alongside
/// [`SimStats`] but deliberately **not** part of it.
///
/// `SimStats` is a behavioural fingerprint: it is serialized into
/// snapshots and compared bit-for-bit across index variants (grid vs
/// brute force) and across snapshot/restore boundaries. The counters here
/// describe *how* the engine computed the run — cache hits, index
/// refreshes — which legitimately differ between variants (brute force
/// has no grid to refresh; a restored run starts with a cold cache). They
/// therefore live outside the snapshot stream and outside every
/// equivalence oracle, and reset to zero on restore.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerfCounters {
    /// Audible-set queries answered from the per-node candidate cache.
    pub aud_cache_hits: u64,
    /// Audible-set queries that had to re-query the grid (cache cold,
    /// grid refreshed, or query window moved).
    pub aud_cache_misses: u64,
    /// Incremental spatial-grid refreshes performed by the run loop.
    pub grid_refreshes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = SimStats::default();
        assert_eq!(s.tx_frames, 0);
        assert_eq!(s.collisions, 0);
        assert_eq!(s, SimStats::default());
    }
}
