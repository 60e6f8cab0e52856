//! Property test for the service-mode restore-equivalence law.
//!
//! For a random scenario (size, mobility, churn, spatial index, seed) and a
//! random snapshot instant, the law
//!
//! ```text
//! run(N epochs)  ≡  run(m epochs) + snapshot + restore + run(N - m epochs)
//! ```
//!
//! must hold *bit-exactly*: the interrupted run's flight-recorder trace,
//! metrics and injected-request count equal the uninterrupted run's. The
//! snapshot instant `m` is drawn from the interior of the run, so the
//! suffix always replays real work (arrivals, itineraries, churn events)
//! through the restored state.

use diknn_workloads::{
    RateSchedule, ScenarioConfig, ServiceConfig, ServiceRun, SERVICE_SNAP_VERSION,
};

use diknn_core::ServingConfig;
use diknn_sim::{FaultPlan, NeighborIndex, ProtoEvent, TraceKind, SNAP_VERSION};
use proptest::prelude::*;

const TOTAL_EPOCHS: u64 = 6;

fn service_cfg(nodes: usize, max_speed: f64, churn: bool, brute: bool) -> ServiceConfig {
    let scenario = ScenarioConfig {
        nodes,
        max_speed,
        duration: 60.0,
        ..ScenarioConfig::default()
    };
    let mut cfg = ServiceConfig::new(scenario, RateSchedule::constant(0.6));
    cfg.epoch_s = 2.0;
    cfg.k = 6;
    if churn {
        // Continuous leave/rejoin with state loss across the whole run.
        cfg.faults = FaultPlan::churning(0.25, 8.0, 3.0, 1.0, 60.0);
    }
    if brute {
        cfg.neighbor_index = NeighborIndex::BruteForce;
    }
    cfg
}

proptest! {
    // Each case runs two full simulations; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn restore_suffix_is_bit_identical(
        seed in 0u64..10_000,
        nodes in 60usize..120,
        mobile in any::<bool>(),
        churn in any::<bool>(),
        brute in any::<bool>(),
        cut in 1u64..TOTAL_EPOCHS,
    ) {
        let cfg = service_cfg(nodes, if mobile { 5.0 } else { 0.0 }, churn, brute);

        let mut full = ServiceRun::new(cfg.clone(), seed);
        full.run_epochs(TOTAL_EPOCHS);

        let mut head = ServiceRun::new(cfg.clone(), seed);
        head.run_epochs(cut);
        let bytes = head.snapshot();
        drop(head);
        let mut tail = ServiceRun::restore(&bytes, cfg).expect("snapshot must restore");
        // Round-trip stability: re-snapshotting the restored run before it
        // moves reproduces the stream byte for byte.
        prop_assert_eq!(&tail.snapshot(), &bytes, "snapshot round-trip must be stable");
        tail.run_epochs(TOTAL_EPOCHS - cut);

        prop_assert_eq!(tail.epoch(), full.epoch());
        prop_assert_eq!(tail.injected(), full.injected());
        prop_assert_eq!(
            tail.trace_fingerprint(),
            full.trace_fingerprint(),
            "trace suffix diverged after restore (seed {}, cut {})",
            seed,
            cut
        );
        prop_assert_eq!(tail.metrics(), full.metrics());
        prop_assert_eq!(tail.outcomes(), full.outcomes());
    }
}

/// The service snapshot layout is pinned to both version constants: a
/// change to what the service driver or the DIKNN image holds, or to how
/// either is encoded, must bump `SERVICE_SNAP_VERSION` or `SNAP_VERSION`
/// and re-pin the hash. The run is fixed and tiny, with the serving layer
/// on and overloaded (6 q/s on 60 nodes), so the image holds admitted,
/// deferred, merged, cached and still-pending queries and recent
/// completion times.
#[test]
fn service_snapshot_layout_is_pinned_to_its_versions() {
    let mut cfg = service_cfg(60, 0.0, false, false);
    cfg.schedule = RateSchedule::constant(6.0);
    cfg.diknn.serving = ServingConfig::enabled();
    let mut run = ServiceRun::new(cfg, 7);
    run.run_epochs(3);
    let m = run.metrics();
    assert!(m.terminal > 0 && m.pending > 0, "{m:?}");
    let served = |pick: fn(&ProtoEvent) -> bool| {
        run.sim().ctx().trace().events().any(|e| match &e.kind {
            TraceKind::Proto(p) => pick(p),
            _ => false,
        })
    };
    assert!(served(|p| matches!(p, ProtoEvent::QueryRejected { .. })));
    assert!(served(|p| matches!(p, ProtoEvent::QueryMerged { .. })));
    assert!(served(|p| matches!(p, ProtoEvent::CacheServed { .. })));
    let bytes = run.snapshot();
    assert_eq!(
        (
            SNAP_VERSION,
            SERVICE_SNAP_VERSION,
            diknn_snap::fingerprint(&bytes)
        ),
        (11, 4, 0xab4f_e940_b43d_2bb9),
        "service snapshot layout changed: bump the version and re-pin"
    );
}

/// A damaged service image is refused, not restored: 200 seeded flips of
/// one to three distinct bits anywhere in a 60-node image at epoch 10 (a
/// mobile, churning run) each end in a `SnapError`. The trailing checksum
/// catches the flips the decoder's own structural checks would miss.
#[test]
fn bit_flipped_service_images_are_refused() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let cfg = service_cfg(60, 5.0, true, false);
    let mut run = ServiceRun::new(cfg.clone(), 3);
    run.run_epochs(10);
    let image = run.snapshot();
    drop(run);
    assert!(ServiceRun::restore(&image, cfg.clone()).is_ok());
    let bits = image.len() * 8;
    let mut rng = SmallRng::seed_from_u64(0x5EA1);
    for case in 0..200 {
        let mut flips: Vec<usize> = Vec::new();
        let n = rng.gen_range(1..=3);
        while flips.len() < n {
            let bit = rng.gen_range(0..bits);
            if !flips.contains(&bit) {
                flips.push(bit);
            }
        }
        let mut bad = image.clone();
        for &bit in &flips {
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(
            ServiceRun::restore(&bad, cfg.clone()).is_err(),
            "case {case}: the image with bits {flips:?} flipped restored"
        );
    }
}
