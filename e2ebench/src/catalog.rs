//! The metric catalogue: every metric the benchmark prints, with its unit,
//! direction, layer and the end-to-end metric and workload it should move.
//! `--list` prints it and `--manifest` renders `BENCHMARK.json` from it.

use crate::spans;
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Module whose boundary is timed, or `end-to-end`.
    pub layer: &'static str,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
    pub what: &'static str,
    /// Regression bound (share of the parent's median) for the end-to-end
    /// metrics that every workload reports; `None` for the rest.
    pub bound: Option<f64>,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        moves,
        what,
        bound: None,
    }
}

const fn gated(metric: Metric, bound: f64) -> Metric {
    Metric {
        bound: Some(bound),
        ..metric
    }
}

use Better::{Higher, Lower};

const E2E: &str = "end-to-end";
const TRACE: &str = "trace";

/// End-to-end metrics, measured with tracing off. Those with a bound are
/// defined and steady on every workload and form the benchmark's gate; the
/// others are printed where their workload defines them. Host times carry
/// the widest bound: on the shared 2-core test host the same code has read
/// up to 70 % apart within an hour.
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    gated(
        m("setup_s", "s", Lower, E2E, "every workload",
          "host time from seed to first event (median over runs)"),
        0.25,
    ),
    gated(
        m("wall_s", "s", Lower, E2E, "every workload",
          "host time of one whole run (median over runs)"),
        0.25,
    ),
    gated(
        m("events_per_s", "1/s", Higher, E2E, "every workload",
          "simulated events / host seconds of the event loop (median over runs)"),
        0.25,
    ),

    gated(
        m("sim_post_accuracy", "ratio", Higher, E2E, "every workload",
          "mean post-accuracy over all queries of the invocation's seeds"),
        0.2,
    ),
    gated(
        m("sim_completion_rate", "ratio", Higher, E2E, "every workload",
          "answered / issued queries"),
        0.2,
    ),

    m("peak_rss_mb", "MB", Lower, E2E, "every workload (ungated: allocator history makes it bimodal)",
      "VmHWM at the end of the invocation, one workload per process"),
    m("sim_energy_j_per_query", "J", Lower, E2E, "every workload (ungated: scale_10k issues ~3 queries a run)",
      "protocol radio energy / issued queries"),
    m("fail_rate", "ratio", Lower, E2E, "every workload",
      "failed / attempted runs (the result line's failed and attempted)"),
    m("epoch_p50_s", "s", Lower, E2E, "service_churn",
      "median host time of one run_epochs(1) call"),
    m("epoch_p90_s", "s", Lower, E2E, "service_churn",
      "p90 host time of one run_epochs(1) call (needs 10 epochs beyond it)"),
    m("restore_s", "s", Lower, E2E, "service_churn",
      "host time of ServiceRun::restore on the mid-run image (median)"),
    m("sim_latency_p50_s", "s", Lower, E2E, "paper_fig, serving_10qps, service_churn",
      "median simulated query latency, pooled (needs 10 queries beyond it)"),
    m("sim_latency_p95_s", "s", Lower, E2E, "paper_fig, serving_10qps, service_churn",
      "p95 simulated query latency, pooled (needs 10 queries beyond it)"),
];

const SCEN: &str = "setup_s on scale_10k";
const ENG: &str = "events_per_s, wall_s on scale_10k, then paper_fig";
const SIM: &str = "sim_* on every workload (must not change in a speed-only change)";
const AUD: &str = "wall_s; separates serving_10qps from paper_fig, scale_10k, service_churn";
const MOB: &str = "wall_s on paper_fig and scale_10k; no change on serving_10qps";
const PROT: &str = "wall_s on serving_10qps, then paper_fig; no change on scale_10k";
const INV: &str = "wall_s on service_churn, serving_10qps, paper_fig; none on scale_10k";
const ORC: &str = "wall_s on serving_10qps";
const SVC: &str = "epoch_p50_s, epoch_p90_s on service_churn";
const SNP: &str = "restore_s, peak_rss_mb on service_churn; nothing elsewhere";

/// Per-layer metrics, from the traced run. Values are per workload run
/// (a `paper_fig` run is one seed's cell of all three protocols) unless
/// the unit is a ratio or a per-item cost. Layers a workload does not
/// expose read 0: `service_churn` runs its protocol and plans inside
/// `ServiceRun`, so no wrapper can time them there.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    m("scenario.build_s", "s", Lower, spans::SCENARIO, SCEN, "ScenarioConfig::build"),
    m("scenario.generate_s", "s", Lower, spans::SCENARIO, SCEN, "workload::generate"),
    m("scenario.plans", "count", Lower, spans::SCENARIO, SCEN, "mobility plans built"),
    m("scenario.requests", "count", Lower, spans::SCENARIO, SCEN,
      "requests generated (injected, on service_churn)"),
    m("sim.new_s", "s", Lower, spans::SETUP, SCEN,
      "Simulator::new (ServiceRun::new on service_churn)"),
    m("sim.warm_s", "s", Lower, spans::SETUP, SCEN, "Simulator::warm_neighbor_tables"),
    m("engine.self_s", "s", Lower, spans::ENGINE, ENG,
      "event loop minus protocol callbacks and mobility estimate"),
    m("engine.ns_per_event", "ns", Lower, spans::ENGINE, ENG, "engine.self_s / engine.events"),
    m("engine.events", "count", Lower, spans::ENGINE, SIM, "SimStats::events"),
    m("engine.ev_mac_attempt", "count", Lower, spans::ENGINE, SIM, "MAC attempt events"),
    m("engine.ev_tx_end", "count", Lower, spans::ENGINE, SIM, "end-of-transmission events"),
    m("engine.ev_timer", "count", Lower, spans::ENGINE, SIM, "timer events"),
    m("engine.ev_beacon", "count", Lower, spans::ENGINE, SIM, "beacon events"),
    m("engine.ev_lifecycle", "count", Lower, spans::ENGINE, SIM, "crash/recover/leave/rejoin"),
    m("mac.tx_frames", "count", Lower, spans::ENGINE, SIM, "frames put on the air"),
    m("mac.attempts_per_tx", "ratio", Lower, spans::ENGINE, SIM, "MAC attempts / frames"),
    m("mac.arq_retries", "count", Lower, spans::ENGINE, SIM, "link-layer retransmissions"),
    m("mac.drops", "count", Lower, spans::ENGINE, SIM, "frames abandoned on a busy channel"),
    m("mac.unicast_failures", "count", Lower, spans::ENGINE, SIM, "unicasts out of retries"),
    m("radio.rx_deliveries", "count", Higher, spans::ENGINE, SIM, "clean receptions delivered"),
    m("radio.collisions", "count", Lower, spans::ENGINE, SIM, "receptions destroyed by overlap"),
    m("radio.receivers_per_tx", "ratio", Lower, spans::ENGINE, SIM,
      "(deliveries + collisions + losses) / frames; unicast overhearers uncounted"),
    m("radio.delivery_ratio", "ratio", Higher, spans::ENGINE, SIM,
      "deliveries / (deliveries + collisions + losses)"),
    m("grid.refreshes", "count", Lower, spans::ENGINE, ENG, "spatial-grid refreshes"),
    m("audible.lookups", "count", Lower, spans::ENGINE, AUD, "audible-set cache lookups"),
    m("audible.hit_ratio", "ratio", Higher, spans::ENGINE, AUD, "audible-set cache hits / lookups"),
    m("trace.records", "count", Lower, spans::ENGINE, INV, "flight-recorder records"),
    m("mobility.calls_engine", "count", Lower, spans::MOBILITY, MOB,
      "position_at calls by the event loop"),
    m("mobility.calls_protocol", "count", Lower, spans::MOBILITY, MOB,
      "position_at calls inside protocol callbacks"),
    m("mobility.calls_oracle", "count", Lower, spans::MOBILITY, ORC,
      "position_at calls by the ground-truth oracle"),
    m("mobility.exact_per_tx", "ratio", Lower, spans::MOBILITY, MOB,
      "event-loop position_at calls / frames"),
    m("mobility.ns_per_call", "ns", Lower, spans::MOBILITY, MOB,
      "batched position_at loop over the run's own plans"),
    m("mobility.est_s", "s", Lower, spans::MOBILITY, MOB,
      "all counted calls x mobility.ns_per_call"),
    m("protocol.self_s", "s", Lower, spans::PROTOCOL, PROT,
      "callbacks and finish, minus their mobility estimate"),
    m("protocol.on_message.calls", "count", Lower, spans::PROTOCOL, PROT, "on_message callbacks"),
    m("protocol.on_message_s", "s", Lower, spans::PROTOCOL, PROT, "on_message self time"),
    m("protocol.on_timer.calls", "count", Lower, spans::PROTOCOL, PROT, "on_timer callbacks"),
    m("protocol.on_timer_s", "s", Lower, spans::PROTOCOL, PROT, "on_timer self time"),
    m("protocol.on_send_failed.calls", "count", Lower, spans::PROTOCOL, PROT,
      "on_send_failed callbacks"),
    m("protocol.us_per_callback", "us", Lower, spans::PROTOCOL, PROT,
      "callback self time / callbacks"),
    m("query.issued", "count", Higher, spans::PROTOCOL, SIM, "queries issued"),
    m("query.completed", "count", Higher, spans::PROTOCOL, SIM, "queries completed"),
    m("query.degraded", "count", Lower, spans::PROTOCOL, SIM,
      "partial-timeout + token-lost + sink-unreachable"),
    m("query.rejected", "count", Lower, spans::PROTOCOL, SIM, "rejected by admission"),
    m("query.merged", "count", Higher, spans::PROTOCOL, SIM, "answered by a host itinerary"),
    m("query.cache_hit", "count", Higher, spans::PROTOCOL, SIM, "answered from the sink cache"),
    m("query.reissued_tokens", "count", Lower, spans::PROTOCOL, SIM, "watchdog token re-issues"),
    m("query.retries", "count", Lower, spans::PROTOCOL, SIM, "whole-query sink retries"),
    m("query.max_in_flight", "count", Lower, spans::PROTOCOL, SIM,
      "peak queries in flight (mean over protocol runs)"),
    m("serving.absorbed_ratio", "ratio", Higher, spans::PROTOCOL, SIM,
      "(merged + cache hits) / issued"),
    m("invariants.replay_s", "s", Lower, spans::INVARIANTS, INV, "invariants::check"),
    m("invariants.records", "count", Lower, spans::INVARIANTS, INV, "trace records replayed"),
    m("invariants.ns_per_record", "ns", Lower, spans::INVARIANTS, INV,
      "replay time / records (0 without a recorder)"),
    m("invariants.violations", "count", Lower, spans::INVARIANTS, SIM,
      "law violations in passing runs (a violation fails the run)"),
    m("oracle.s", "s", Lower, spans::ORACLE, ORC, "RunMetrics::compute (exact KNN per answered query)"),
    m("oracle.accuracy_calls", "count", Lower, spans::ORACLE, ORC,
      "GroundTruth::accuracy calls (2 per answered query)"),
    m("oracle.us_per_call", "us", Lower, spans::ORACLE, ORC, "oracle.s / accuracy calls"),
    m("service.epochs", "count", Higher, spans::SERVICE, SVC, "epochs run"),
    m("service.injected", "count", Higher, spans::SERVICE, SVC, "requests streamed in"),
    m("service.never_issued", "count", Lower, spans::SERVICE, SVC, "injected at an offline sink"),
    m("service.export_s", "s", Lower, spans::SERVICE, SVC, "ServiceRun::metrics_export"),
    m("snap.snapshot_s", "s", Lower, spans::SNAP, SNP, "ServiceRun::snapshot"),
    m("snap.restore_s", "s", Lower, spans::SNAP, SNP, "ServiceRun::restore"),
    m("snap.bytes", "bytes", Lower, spans::SNAP, SNP, "snapshot image size"),
    m("snap.write_mb_per_s", "MB/s", Higher, spans::SNAP, SNP, "image MB / snapshot time"),
    m("snap.read_mb_per_s", "MB/s", Higher, spans::SNAP, SNP, "image MB / restore time"),
    m("trace.overhead_ratio", "ratio", Lower, TRACE, "none (cost of tracing)",
      "traced / untraced wall time, same seeds (median of pairs)"),
    m("trace.unattributed_share", "ratio", Lower, TRACE, "none (coverage of the split)",
      "root-span self time / traced wall time"),
];

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Every metric with its unit, direction, layer and what it should move.
pub fn listing() -> String {
    let mut s = String::from("workloads:\n");
    for w in Workload::ALL {
        s.push_str(&format!("  {:<14} {}\n", w.name(), w.why()));
    }
    for (title, list) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        s.push_str(&format!(
            "{title} metrics (name unit better layer | moves | what):\n"
        ));
        for x in list {
            s.push_str(&format!(
                "  {:<30} {:<6} {:<6} {:<21} | {} | {}\n",
                x.name,
                x.unit,
                x.better.as_str(),
                x.layer,
                x.moves,
                x.what
            ));
        }
    }
    s
}

/// `BENCHMARK.json`, rendered from the catalogue.
pub fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .filter_map(|x| {
            x.bound.map(|b| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
                    x.name,
                    x.unit,
                    x.better.as_str()
                )
            })
        })
        .collect();
    let layer: Vec<String> = PER_LAYER
        .iter()
        .map(|x| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                x.name,
                x.unit,
                x.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"e2ebench\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        COMMAND,
        crate::workload::RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layer.join(",\n")
    )
}

/// How the benchmark is invoked from the root of a checkout.
pub const COMMAND: &str = "[\"cargo\", \"run\", \"--offline\", \"--release\", \"--quiet\", \
\"--manifest-path\", \"e2ebench/Cargo.toml\", \"--\"]";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        for good in ["setup_s", "engine.ns_per_event", "a-b.c_d", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "semi;colon",
            "uni\u{e9}",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for x in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(x.name), "{}", x.name);
            assert!(seen.insert(x.name), "duplicate {}", x.name);
            assert!(!x.unit.is_empty() && x.unit.len() <= 16, "{}", x.unit);
        }
        assert!(PER_LAYER.len() <= 128);
        let bounds: Vec<f64> = END_TO_END.iter().filter_map(|x| x.bound).collect();
        assert!(!bounds.is_empty() && bounds.len() <= 16);
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        let setup = END_TO_END.iter().find(|x| x.name == "setup_s");
        assert_eq!(
            setup.and_then(|x| x.bound),
            bounds.iter().copied().reduce(f64::max)
        );
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap_or_default();
        assert_eq!(committed, manifest(), "regenerate with --manifest");
    }
}
