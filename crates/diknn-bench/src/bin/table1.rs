//! Table 1 (§5.1): the simulation settings table. Prints the defaults and
//! protocol constants this reproduction uses next to the paper's values, and
//! asserts they match.

use diknn_core::{DiknnConfig, COLLECTION_UNIT, RESPONSE_BYTES};
use diknn_sim::config::{BITS_PER_SEC, RADIO_RANGE};
use diknn_sim::SimConfig;
use diknn_workloads::{ScenarioConfig, WorkloadConfig};

fn main() {
    let sim = SimConfig::default();
    let sc = ScenarioConfig::default();
    let wl = WorkloadConfig::default();
    let dk = DiknnConfig::default();

    println!("Table 1 — simulation settings (paper §5.1)\n");
    println!("{:<28} {:>14} {:>14}", "parameter", "paper", "this repo");
    let rows: Vec<(&str, String, String)> = vec![
        ("node number", "200".into(), sc.nodes.to_string()),
        (
            "network size",
            "115x115 m^2".into(),
            format!("{:.0}x{:.0} m^2", sc.field.width(), sc.field.height()),
        ),
        ("node degree", "20".into(), {
            let density = sc.nodes as f64 / sc.field.area();
            format!(
                "{:.1}",
                density * std::f64::consts::PI * RADIO_RANGE * RADIO_RANGE
            )
        }),
        ("radio range r", "20 m".into(), format!("{RADIO_RANGE} m")),
        (
            "response size",
            "10 bytes".into(),
            format!("{RESPONSE_BYTES} bytes"),
        ),
        (
            "channel rate",
            "250 kbps".into(),
            format!("{} kbps", BITS_PER_SEC / 1000),
        ),
        ("sector number S", "8".into(), dk.sectors.to_string()),
        (
            "mobility u_max",
            "10 m/s".into(),
            format!("{} m/s", sc.max_speed),
        ),
        (
            "beacon interval",
            "0.5 s".into(),
            format!("{} s", sim.beacon_interval.as_secs_f64()),
        ),
        ("RTS/CTS", "off".into(), "off (not modelled)".into()),
        (
            "collection unit m",
            "0.018 s".into(),
            format!("{COLLECTION_UNIT} s"),
        ),
        (
            "query interval",
            "exp, mean 4 s".into(),
            format!("exp, mean {} s", wl.mean_interval),
        ),
        ("rendezvous", "enabled".into(), format!("{}", dk.rendezvous)),
        (
            "assurance gain g",
            "0.1".into(),
            dk.assurance_gain.to_string(),
        ),
        (
            "run length",
            "100 s x 20 runs".into(),
            format!("{} s x DIKNN_RUNS runs", sc.duration),
        ),
    ];
    for (name, paper, ours) in &rows {
        println!("{name:<28} {paper:>14} {ours:>14}");
    }

    // Hard assertions: the defaults and constants ARE the paper settings.
    assert_eq!(sc.nodes, 200);
    assert_eq!(RADIO_RANGE, 20.0);
    assert_eq!(BITS_PER_SEC, 250_000);
    assert_eq!(dk.sectors, 8);
    assert_eq!(RESPONSE_BYTES, 10);
    assert!((sc.max_speed - 10.0).abs() < 1e-12);
    assert!((sim.beacon_interval.as_secs_f64() - 0.5).abs() < 1e-12);
    assert!((COLLECTION_UNIT - 0.018).abs() < 1e-12);
    assert!((wl.mean_interval - 4.0).abs() < 1e-12);
    assert!((dk.assurance_gain - 0.1).abs() < 1e-12);
    assert!(dk.rendezvous);
    println!("\nAll defaults match the paper's settings table.");
}
