//! Regression: a stale lower-epoch token carrier must never duplicate a
//! watchdog re-issue epoch (the custody-fork bug found by `query_load`).
//!
//! The race: node A hands a sector token to B and arms the watchdog;
//! B collects (probes alone do not disarm, by design); A's watchdog fires
//! and re-issues at epoch+1 to C; *milliseconds later* B's collection
//! window closes and B hands off its now-stale epoch-0 copy. Pre-fix that
//! stale handoff clobbered the live chain's watchdog, and when the
//! hijacked watch fired it re-issued a duplicate of the live epoch —
//! forking token custody across two same-epoch chains:
//!
//! ```text
//! [token-epoch] q39 attempt 0 sector 1: re-issue epoch 1 does not exceed previous 1
//! [token-epoch] q39 attempt 0 sector 1 epoch 1: handoff by n437 but custody was with n130
//! ```
//!
//! This pins the exact seeded 500-node load cell that exposed the race
//! (seed 16838 = `sweep_seed(1000, 2)`, rate 2 q/s, k = 40, static).
//! The fix is send-side epoch suppression: `advance_token`,
//! `finish_sector`, and `watchdog_fire` all abandon a token whose epoch
//! is below the sector's current epoch.

use diknn_core::{Diknn, DiknnConfig, KnnProtocol};
use diknn_sim::{Simulator, TraceConfig};
use diknn_workloads::{invariants, workload, Experiment, QueryLoad, ScenarioConfig};

#[test]
fn stale_carrier_cannot_duplicate_a_reissue_epoch() {
    // The violating run was a 40 s cell; the fork fires at t = 28.2 s, so
    // a 32 s horizon keeps the identical event stream (arrivals are pinned
    // by first_at/last_at, mobility is static) at 80 % of the cost.
    let load = QueryLoad {
        rate_qps: 2.0,
        k: 40,
        first_at: 2.0,
        last_at: 30.0,
    };
    let scenario = ScenarioConfig {
        nodes: 500,
        duration: 32.0,
        max_speed: 0.0,
        ..ScenarioConfig::default()
    };
    let seed = Experiment::sweep_seed(1000, 2);
    let plans = scenario.build(seed);
    let requests = workload::generate(&scenario, &load.workload(), seed);
    let mut sim_cfg = scenario.sim_config();
    sim_cfg.trace = TraceConfig::enabled();
    let mut sim = Simulator::new(
        sim_cfg,
        plans,
        Diknn::new(DiknnConfig::default(), requests),
        seed,
    );
    sim.warm_neighbor_tables();
    sim.run();
    let (mut proto, ctx) = sim.into_parts();
    proto.finish(&ctx);
    let rendered = ctx.trace().render_protocol();
    // Non-vacuity: the legitimate watchdog re-issue that seeds the race
    // must still happen — only the stale carrier's duplicate is gone.
    assert!(
        rendered.contains("proto reissue"),
        "pinned scenario no longer exercises a watchdog re-issue"
    );
    let violations = invariants::check(ctx.trace(), proto.outcomes());
    assert!(
        violations.is_empty(),
        "protocol laws violated under concurrent load:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
