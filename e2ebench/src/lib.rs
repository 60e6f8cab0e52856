//! End-to-end and per-layer benchmark of the DIKNN simulator.
//!
//! One command runs one named workload from a seed in one process and one
//! thread, prints every end-to-end metric with its unit, and exits
//! non-zero when a correctness check fails. With `--trace 1` a separate
//! traced run of the same seeds splits wall time across layers, using
//! spans recorded around calls into each layer's public functions and
//! wrappers around the public `Protocol` and `Mobility` traits. No
//! simulator code is instrumented.
// Host-side timing is this crate's purpose: `Instant::now` is allowed here
// (each call site carries the `lint: wall-clock-ok` tag).
#![allow(clippy::disallowed_methods)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod catalog;
pub mod host;
pub mod ledger;
pub mod report;
pub mod service;
pub mod spans;
pub mod stats;
pub mod workload;
pub mod wrap;

use std::collections::BTreeMap;
use std::time::Instant;

use diknn_sim::{PerfCounters, SimStats};
use diknn_workloads::{RunMetrics, ServingSummary, Violation};

/// Run `f`, returning its result and its host time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now(); // lint: wall-clock-ok (host-side benchmark timing)
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// A run passes when its trace replay found no law violation and every
/// query reached a terminal status after `finish`.
pub fn verdict(violations: &[Violation], metrics: &RunMetrics) -> Result<(), String> {
    if let Some(v) = violations.first() {
        return Err(format!("{} law violation(s), first: {v}", violations.len()));
    }
    let summary = ServingSummary::from_runs(std::slice::from_ref(metrics));
    if !summary.all_terminal() {
        return Err(format!("queries not terminal after finish: {summary:?}"));
    }
    Ok(())
}

/// Additive per-run work counts, keyed by per-layer metric name (plus a
/// few raw terms that ratios are built from).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts(pub BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_default() += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Counts) {
        for (&k, &v) in &other.0 {
            self.add(k, v);
        }
    }

    /// Engine counters of one run (`SimStats` plus `PerfCounters`).
    pub fn engine(&mut self, s: &SimStats, perf: &PerfCounters) {
        let u = |v: u64| v as f64;
        self.add("engine.events", u(s.events));
        self.add("engine.ev_mac_attempt", u(s.ev_mac_attempt));
        self.add("engine.ev_tx_end", u(s.ev_tx_end));
        self.add("engine.ev_timer", u(s.ev_timer));
        self.add("engine.ev_beacon", u(s.ev_beacon));
        self.add("engine.ev_lifecycle", u(s.ev_lifecycle));
        self.add("mac.tx_frames", u(s.tx_frames));
        self.add("mac.arq_retries", u(s.arq_retries));
        self.add("mac.drops", u(s.mac_drops));
        self.add("mac.unicast_failures", u(s.unicast_failures));
        self.add("radio.rx_deliveries", u(s.rx_deliveries));
        self.add("radio.collisions", u(s.collisions));
        self.add(
            "radio.losses",
            u(s.random_losses + s.burst_losses + s.frames_jammed),
        );
        self.add("trace.records", u(s.trace_events));
        self.perf(perf);
    }

    /// Implementation counters (they restart at zero on restore).
    pub fn perf(&mut self, p: &PerfCounters) {
        self.add("grid.refreshes", p.grid_refreshes as f64);
        self.add("audible.hits", p.aud_cache_hits as f64);
        self.add(
            "audible.lookups",
            (p.aud_cache_hits + p.aud_cache_misses) as f64,
        );
    }

    /// Query outcomes and simulated results of one protocol run.
    pub fn queries(&mut self, m: &RunMetrics) {
        let s = ServingSummary::from_runs(std::slice::from_ref(m));
        self.add("query.issued", s.queries as f64);
        self.add("query.completed", s.completed as f64);
        self.add("query.degraded", s.degraded as f64);
        self.add("query.rejected", s.rejected as f64);
        self.add("query.merged", s.merged as f64);
        self.add("query.cache_hit", s.cache_hits as f64);
        self.add("query.reissued_tokens", m.tokens_reissued as f64);
        self.add("query.retries", m.query_retries as f64);
        self.add("query.max_in_flight", m.max_in_flight as f64);
        self.add("query.protocol_runs", 1.0);
        self.add("query.answered", m.completed as f64);
        // RunMetrics::compute asks the oracle twice per answered query.
        self.add("oracle.accuracy_calls", 2.0 * m.completed as f64);
        self.add(
            "sim.post_sum",
            m.per_query.iter().map(|q| q.post_accuracy).sum(),
        );
        self.add("sim.energy_j", m.energy_j);
    }
}
