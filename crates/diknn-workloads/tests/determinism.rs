//! Same-seed determinism regression tests.
//!
//! The whole experiment pipeline (placement, mobility, workload generation,
//! MAC backoff, protocol logic) must be a pure function of the seed: two
//! runs with the same seed must produce bit-identical outcomes. This is the
//! property the determinism lint (`cargo xtask lint`, clippy
//! `disallowed-types`) exists to protect; this test catches what static
//! analysis cannot, e.g. an exempted hash container that starts being
//! iterated, or address-dependent ordering sneaking into a sort key.
//!
//! f64 comparisons use `to_bits` so that `-0.0 != 0.0` and NaN payloads
//! would be caught too: "close enough" is not determinism.

use diknn_baselines::PeerTreeConfig;
use diknn_core::{DiknnConfig, QueryOutcome, QueryStatus};
use diknn_workloads::{
    fault_sweep, run_protocol_once_faulted, Experiment, ProtocolKind, ScenarioConfig,
    WorkloadConfig,
};

/// A mobile scenario: movement exercises the RNG-driven waypoint picks,
/// neighbor-table churn, and MAC retransmissions.
fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        nodes: 150,
        duration: 25.0,
        max_speed: 8.0,
        ..ScenarioConfig::default()
    }
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        k: 12,
        first_at: 2.0,
        last_at: 12.0,
        mean_interval: 3.0,
    }
}

/// Render every field of an outcome with exact bit patterns for floats.
fn fingerprint(outcomes: &[QueryOutcome], energy_j: f64) -> String {
    let mut s = format!("energy={:016x}\n", energy_j.to_bits());
    for o in outcomes {
        s.push_str(&format!(
            "qid={} sink={:?} q=({:016x},{:016x}) k={} issued={:016x} \
             completed={:?} answer={:?} boundary={:016x} final={:016x} \
             hops={} parts={}/{} explored={} status={}\n",
            o.qid,
            o.sink,
            o.q.x.to_bits(),
            o.q.y.to_bits(),
            o.k,
            o.issued_at.as_secs_f64().to_bits(),
            o.completed_at.map(|t| t.as_secs_f64().to_bits()),
            o.answer,
            o.boundary_radius.to_bits(),
            o.final_radius.to_bits(),
            o.routing_hops,
            o.parts_expected,
            o.parts_returned,
            o.explored_nodes,
            o.status.label(),
        ));
    }
    s
}

fn double_run(kind: ProtocolKind, seed: u64) {
    let name = kind.name();
    let scenario = scenario();
    let requests = diknn_workloads::workload::generate(&scenario, &workload(), seed);
    assert!(
        !requests.is_empty(),
        "{name}: workload generated no queries"
    );
    let (o1, e1) = run_protocol_once_faulted(kind.clone(), &scenario, requests.clone(), seed, None);
    let (o2, e2) = run_protocol_once_faulted(kind, &scenario, requests, seed, None);
    assert!(
        o1.iter().any(|o| o.completed_at.is_some()),
        "{name}: no query completed, run is vacuous"
    );
    let (f1, f2) = (fingerprint(&o1, e1), fingerprint(&o2, e2));
    assert!(
        f1 == f2,
        "{name}: same-seed runs diverged\nrun 1:\n{f1}\nrun 2:\n{f2}"
    );
}

#[test]
fn diknn_same_seed_runs_are_bit_identical() {
    double_run(ProtocolKind::Diknn(DiknnConfig::default()), 11);
}

/// Fail-stop means *silent*: once a node crashes (and does not recover),
/// no frame it sourced may be delivered anywhere — beyond the tiny window
/// for frames already on the air at crash time.
mod crashed_silence {
    use super::*;
    use diknn_core::{Diknn, DiknnMsg};
    use diknn_sim::{CrashSpec, Ctx, NodeId, Protocol, SimDuration, SimTime, Simulator};
    use proptest::prelude::*;

    struct Recorder {
        inner: Diknn,
        deliveries: Vec<(SimTime, NodeId)>,
    }

    impl Protocol for Recorder {
        type Msg = DiknnMsg;
        fn on_start(&mut self, ctx: &mut Ctx<DiknnMsg>) {
            self.inner.on_start(ctx)
        }
        fn on_message(
            &mut self,
            at: NodeId,
            from: NodeId,
            msg: &DiknnMsg,
            ctx: &mut Ctx<DiknnMsg>,
        ) {
            self.deliveries.push((ctx.now(), from));
            self.inner.on_message(at, from, msg, ctx)
        }
        fn on_timer(&mut self, at: NodeId, key: u64, ctx: &mut Ctx<DiknnMsg>) {
            self.inner.on_timer(at, key, ctx)
        }
        fn on_send_failed(
            &mut self,
            at: NodeId,
            to: NodeId,
            msg: &DiknnMsg,
            ctx: &mut Ctx<DiknnMsg>,
        ) {
            self.inner.on_send_failed(at, to, msg, ctx)
        }
    }

    proptest! {
        // Each case is a full (small) simulation; keep the count low.
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn crashed_node_is_never_a_tx_source(
            node in 0u32..80,
            crash_at in 2.0..10.0f64,
            seed in 0u64..1_000,
        ) {
            let scenario = ScenarioConfig {
                nodes: 80,
                duration: 14.0,
                max_speed: 4.0,
                ..ScenarioConfig::default()
            };
            let wl = WorkloadConfig {
                k: 8,
                first_at: 1.0,
                last_at: 8.0,
                mean_interval: 2.0,
            };
            let requests = diknn_workloads::workload::generate(&scenario, &wl, seed);
            let plans = scenario.build(seed);
            let mut cfg = scenario.sim_config();
            cfg.faults.crashes = vec![CrashSpec {
                node,
                at: SimDuration::from_secs_f64(crash_at),
                recover_after: None,
            }];
            let recorder = Recorder {
                inner: Diknn::new(DiknnConfig::default(), requests),
                deliveries: Vec::new(),
            };
            let mut sim = Simulator::new(cfg, plans, recorder, seed);
            sim.warm_neighbor_tables();
            sim.run();
            let (recorder, _ctx) = sim.into_parts();
            // Frames transmitted just before the crash may still land.
            let cutoff = crash_at + 0.05;
            for &(t, from) in &recorder.deliveries {
                prop_assert!(
                    from.0 != node || t.as_secs_f64() <= cutoff,
                    "delivery sourced by crashed node {node} at {:.3}s (crash at {crash_at:.3}s)",
                    t.as_secs_f64(),
                );
            }
        }
    }
}

#[test]
fn peertree_same_seed_runs_are_bit_identical() {
    double_run(ProtocolKind::PeerTree(PeerTreeConfig::default()), 11);
}

#[test]
fn faulted_diknn_same_seed_runs_are_bit_identical() {
    // Crashes + Gilbert–Elliott bursty loss draw from the dedicated fault
    // RNG stream; the recovery machinery (watchdog re-issues, sink retries)
    // must stay a pure function of the seed like everything else.
    let scenario = scenario();
    let plan = fault_sweep::churn_and_bursts(scenario.duration);
    let requests = diknn_workloads::workload::generate(&scenario, &workload(), 11);
    let run = || {
        run_protocol_once_faulted(
            ProtocolKind::Diknn(DiknnConfig::default()),
            &scenario,
            requests.clone(),
            11,
            Some(plan.clone()),
        )
    };
    let (o1, e1) = run();
    let (o2, e2) = run();
    assert!(!o1.is_empty(), "faulted run produced no outcomes");
    assert!(
        o1.iter().all(|o| o.status != QueryStatus::Pending),
        "finish() must classify every query: {o1:?}"
    );
    let (f1, f2) = (fingerprint(&o1, e1), fingerprint(&o2, e2));
    assert!(
        f1 == f2,
        "faulted same-seed runs diverged\nrun 1:\n{f1}\nrun 2:\n{f2}"
    );
    // The aggregated driver path too (covers SimStats fault counters).
    let mut exp = Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        scenario,
        workload(),
    );
    exp.fault_plan = Some(plan);
    assert_eq!(exp.run_once(11), exp.run_once(11));
}

/// Every KNN protocol's seeded run, pinned: the FNV-1a of its
/// [`fingerprint`] text on the mobile [`scenario`], once clean and once
/// under `fault_sweep::churn_and_bursts`. The constants were taken from a
/// build whose protocols each kept their own query plumbing; code that
/// only moves that plumbing into shared helpers must match all ten. A
/// deliberate change of protocol behaviour re-pins them.
#[test]
fn every_protocol_run_matches_its_pinned_fingerprint() {
    use diknn_baselines::{CentralizedConfig, FloodConfig, KptConfig};
    let scenario = scenario();
    let plan = fault_sweep::churn_and_bursts(scenario.duration);
    let requests = diknn_workloads::workload::generate(&scenario, &workload(), 11);
    // (protocol, clean fingerprint, faulted fingerprint)
    let pinned = [
        (
            ProtocolKind::Diknn(DiknnConfig::default()),
            0xbcb0_6c65_232b_4d6f_u64,
            0x94ec_7a5b_09cc_6663_u64,
        ),
        (
            ProtocolKind::Kpt(KptConfig::default()),
            0x6d3a_a4b3_4ed2_2b63,
            0x1832_714f_a92a_ef88,
        ),
        (
            ProtocolKind::PeerTree(PeerTreeConfig::default()),
            0x30b3_e305_0c2a_8d65,
            0x9398_1cd0_be71_e52a,
        ),
        (
            ProtocolKind::Flood(FloodConfig::default()),
            0x053f_1c8f_2a00_fab1,
            0xa87a_a2bd_aebc_afe7,
        ),
        (
            ProtocolKind::Centralized(CentralizedConfig::default()),
            0xb35e_dab8_4daf_f26e,
            0xf60b_f347_00db_6897,
        ),
    ];
    let mut got = Vec::new();
    for (kind, clean, faulted) in pinned {
        let name = kind.name();
        for (faults, want) in [(None, clean), (Some(plan.clone()), faulted)] {
            let is_clean = faults.is_none();
            let (o, e) =
                run_protocol_once_faulted(kind.clone(), &scenario, requests.clone(), 11, faults);
            assert!(
                !is_clean || o.iter().any(|o| o.completed_at.is_some()),
                "{name}: no query completed on the clean run, the pin is vacuous"
            );
            let hash = diknn_snap::fingerprint(fingerprint(&o, e).as_bytes());
            got.push((name, is_clean, hash, want));
        }
    }
    let wrong: Vec<String> = got
        .iter()
        .filter(|(_, _, hash, want)| hash != want)
        .map(|(name, clean, hash, want)| {
            let run = if *clean { "clean" } else { "faulted" };
            format!("{name} {run}: {hash:#018x}, pinned {want:#018x}")
        })
        .collect();
    assert!(wrong.is_empty(), "runs drifted:\n{}", wrong.join("\n"));
}

#[test]
fn full_experiment_metrics_are_deterministic_across_seeds() {
    // The aggregated driver path too, on a couple of seeds: RunMetrics
    // derives PartialEq over raw f64s, so equality is exact.
    let exp = Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        scenario(),
        workload(),
    );
    for seed in [5u64, 6] {
        assert_eq!(exp.run_once(seed), exp.run_once(seed), "seed {seed}");
    }
}
