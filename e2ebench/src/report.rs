//! Turning an invocation into metric values and the printed result.

use std::collections::BTreeMap;

use crate::catalog::{self, Metric};
use crate::spans;
use crate::stats::{median, tail_percentile};
use crate::workload::{Invocation, RunRecord};
use crate::{host, Counts};

/// Value of every end-to-end metric; `None` where the workload does not
/// define it or too few samples lie beyond a percentile.
pub fn end_to_end(inv: &Invocation) -> BTreeMap<&'static str, Option<f64>> {
    let runs = &inv.untraced;
    let of = |f: fn(&RunRecord) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let mut pooled = Counts::default();
    let mut latencies = Vec::new();
    for r in &inv.first {
        pooled.merge(&r.counts);
        latencies.extend_from_slice(&r.latencies);
    }
    let issued = pooled.get("query.issued");
    let per_query = |v: f64| (issued > 0.0).then(|| v / issued);
    let epochs: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.epochs_s.iter().copied())
        .collect();
    let restores: Vec<f64> = runs.iter().filter_map(|r| r.restore_s).collect();
    let values = [
        ("setup_s", of(|r| r.setup_s)),
        ("wall_s", of(|r| r.wall_s)),
        (
            "events_per_s",
            of(|r| r.counts.get("engine.events") / r.loop_s),
        ),
        ("peak_rss_mb", host::peak_rss_mb()),
        ("sim_post_accuracy", per_query(pooled.get("sim.post_sum"))),
        (
            "sim_completion_rate",
            per_query(pooled.get("query.answered")),
        ),
        (
            "sim_energy_j_per_query",
            per_query(pooled.get("sim.energy_j")),
        ),
        ("fail_rate", Some(inv.ledger.fail_rate())),
        ("epoch_p50_s", tail_percentile(&epochs, 0.5)),
        ("epoch_p90_s", tail_percentile(&epochs, 0.9)),
        ("restore_s", median(&restores)),
        ("sim_latency_p50_s", tail_percentile(&latencies, 0.5)),
        ("sim_latency_p95_s", tail_percentile(&latencies, 0.95)),
    ];
    values.into_iter().collect()
}

/// Value of every per-layer metric, from the traced runs.
pub fn per_layer(inv: &Invocation) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let Some(rec) = &inv.recorder else {
        return out;
    };
    let split = rec.split();
    let mut counts = Counts::default();
    for (r, _) in &inv.traced {
        counts.merge(&r.counts);
    }
    let runs = inv.traced.len().max(1) as f64;
    let c = |k: &str| counts.get(k);
    let layer = |k: &str| split.layer_s.get(k).copied().unwrap_or(0.0);
    let name = |k: &str| split.name_s.get(k).copied().unwrap_or(0.0);
    let calls = |k: &str| split.mobility_calls.get(k).copied().unwrap_or(0) as f64;
    let callbacks = |k: &str| split.callbacks.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let callback_s: f64 = crate::wrap::CALLBACKS.iter().map(|k| name(k)).sum();
    let callback_n: f64 = crate::wrap::CALLBACKS.iter().map(|k| callbacks(k)).sum();
    let tx = c("mac.tx_frames");
    let resolved = c("radio.rx_deliveries") + c("radio.collisions") + c("radio.losses");
    let snap_mb = c("snap.bytes") / 1e6;
    let pairs: Vec<f64> = inv.traced.iter().map(|(t, u)| t.wall_s / u).collect();
    let ns_per_call: Vec<f64> = rec.ns_per_call().values().copied().collect();
    let mut set = |k: &'static str, v: f64| {
        out.insert(k, v);
    };
    // Plain per-run sums.
    for m in catalog::PER_LAYER {
        if counts.0.contains_key(m.name) {
            set(m.name, c(m.name) / runs);
        }
    }
    set("scenario.build_s", name("scenario.build") / runs);
    set("scenario.generate_s", name("workload.generate") / runs);
    set("sim.new_s", (name("sim.new") + name("service.new")) / runs);
    set("sim.warm_s", name("sim.warm") / runs);
    set("engine.self_s", layer(spans::ENGINE) / runs);
    set(
        "engine.ns_per_event",
        ratio(layer(spans::ENGINE) * 1e9, c("engine.events")),
    );
    set("mac.attempts_per_tx", ratio(c("engine.ev_mac_attempt"), tx));
    set("radio.receivers_per_tx", ratio(resolved, tx));
    set(
        "radio.delivery_ratio",
        ratio(c("radio.rx_deliveries"), resolved),
    );
    set(
        "audible.hit_ratio",
        ratio(c("audible.hits"), c("audible.lookups")),
    );
    set("mobility.calls_engine", calls(spans::ENGINE) / runs);
    set("mobility.calls_protocol", calls(spans::PROTOCOL) / runs);
    set("mobility.calls_oracle", calls(spans::ORACLE) / runs);
    set("mobility.exact_per_tx", ratio(calls(spans::ENGINE), tx));
    set("mobility.ns_per_call", median(&ns_per_call).unwrap_or(0.0));
    set("mobility.est_s", layer(spans::MOBILITY) / runs);
    set("protocol.self_s", layer(spans::PROTOCOL) / runs);
    set(
        "protocol.on_message.calls",
        callbacks("protocol.on_message") / runs,
    );
    set("protocol.on_message_s", name("protocol.on_message") / runs);
    set(
        "protocol.on_timer.calls",
        callbacks("protocol.on_timer") / runs,
    );
    set("protocol.on_timer_s", name("protocol.on_timer") / runs);
    set(
        "protocol.on_send_failed.calls",
        callbacks("protocol.on_send_failed") / runs,
    );
    set(
        "protocol.us_per_callback",
        ratio(callback_s * 1e6, callback_n),
    );
    set(
        "query.max_in_flight",
        ratio(c("query.max_in_flight"), c("query.protocol_runs")),
    );
    set(
        "serving.absorbed_ratio",
        ratio(c("query.merged") + c("query.cache_hit"), c("query.issued")),
    );
    set("invariants.replay_s", layer(spans::INVARIANTS) / runs);
    set("invariants.records", c("inv.records") / runs);
    set(
        "invariants.ns_per_record",
        ratio(layer(spans::INVARIANTS) * 1e9, c("inv.records")),
    );
    set("invariants.violations", 0.0);
    set("oracle.s", layer(spans::ORACLE) / runs);
    set(
        "oracle.us_per_call",
        ratio(layer(spans::ORACLE) * 1e6, c("oracle.accuracy_calls")),
    );
    set("service.export_s", name("service.export") / runs);
    set("snap.snapshot_s", name("service.snapshot") / runs);
    set("snap.restore_s", name("service.restore") / runs);
    set(
        "snap.write_mb_per_s",
        ratio(snap_mb, name("service.snapshot")),
    );
    set(
        "snap.read_mb_per_s",
        ratio(snap_mb, name("service.restore")),
    );
    set("trace.overhead_ratio", median(&pairs).unwrap_or(0.0));
    set(
        "trace.unattributed_share",
        ratio(layer(spans::UNATTRIBUTED), split.wall_s),
    );
    // Work counts a workload never produced read 0.
    for m in catalog::PER_LAYER {
        out.entry(m.name).or_insert(0.0);
    }
    out
}

fn fmt_value(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |v| format!("{v}"))
}

fn line(m: &Metric, v: Option<f64>) -> String {
    format!(
        "  {:<30} {:>24} {:<6} ({} is better; {})",
        m.name,
        fmt_value(v),
        m.unit,
        m.better.as_str(),
        m.layer
    )
}

/// The human-readable report; the result line follows it.
pub fn render(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    inv: &Invocation,
) -> (String, String) {
    let mut s = format!(
        "diknn-e2ebench workload={workload} seed={seed} seconds={seconds} trace={} {}\n",
        u8::from(trace),
        host::describe()
    );
    s.push_str(&format!(
        "runs: attempted={} failed={} untraced={} traced={}\n",
        inv.ledger.attempted,
        inv.ledger.failed,
        inv.untraced.len(),
        inv.traced.len()
    ));
    for r in &inv.first {
        s.push_str(&format!(
            "digest seed={} run={:016x} {}\n",
            r.seed,
            r.digest,
            r.parts.join(" ")
        ));
    }
    for reason in &inv.ledger.reasons {
        s.push_str(&format!("FAILED {reason}\n"));
    }
    let e2e = end_to_end(inv);
    s.push_str("end-to-end (tracing off):\n");
    for m in catalog::END_TO_END {
        s.push_str(&line(m, e2e.get(m.name).copied().flatten()));
        s.push('\n');
    }
    let layers = per_layer(inv);
    if trace {
        s.push_str("per-layer (traced run, per workload run unless a ratio or unit cost):\n");
        for m in catalog::PER_LAYER {
            s.push_str(&line(m, layers.get(m.name).copied()));
            s.push('\n');
        }
        let covered = 1.0
            - layers
                .get("trace.unattributed_share")
                .copied()
                .unwrap_or(1.0);
        s.push_str(&format!(
            "layer self times cover {:.2}% of traced wall time{}\n",
            covered * 100.0,
            if covered < 0.95 { " (below 95%)" } else { "" }
        ));
    }
    let failed = inv.ledger.failed;
    let metrics: Vec<String> = if trace {
        catalog::PER_LAYER
            .iter()
            .map(|m| json_metric(m, layers.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .filter(|m| m.bound.is_some())
            .map(|m| json_metric(m, e2e.get(m.name).copied().flatten().unwrap_or(0.0)))
            .collect()
    };
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && inv.ledger.attempted > 0,
        inv.ledger.attempted.max(1),
        metrics.join(", ")
    );
    (s, result)
}

fn json_metric(m: &Metric, v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    format!(
        "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
        m.name, m.unit
    )
}
