//! The paper's headline quantitative claims, asserted at reduced scale
//! (fewer seeds and shorter runs than the evaluation binaries, so the suite
//! stays fast — the `fig8`/`fig9` binaries are the full-scale versions).

use diknn_repro::core::itinerary::{coverage_worst_distance, total_length};
use diknn_repro::core::{
    knnb, kpt_conservative_radius, CollectionScheme, HopRecord, ItinerarySpec,
};
use diknn_repro::prelude::*;

/// §4.2: "radius lengths returned by KNNB are generally 1/√(kπ) of the
/// previous work KPT under the same level of accuracy."
///
/// KNNB radii are whole hop distances, so the ratio sits below the formula
/// by a k-dependent step: these inputs give ratio/formula 0.79, 0.84 and
/// 0.71 at k = 20, 40 and 100 (`results/boundary_compare.txt` spans 0.69
/// to 1.12 over k = 5–100).
#[test]
fn knnb_radius_ratio_tracks_paper_formula() {
    let r: f64 = 20.0;
    let density: f64 = 200.0 / (115.0 * 115.0);
    let q = Point::new(100.0, 57.0);
    let list: Vec<HopRecord> = (0..6)
        .map(|i| HopRecord {
            loc: Point::new(q.x - (6 - i) as f64 * 15.0, q.y),
            enc: (density * r * 15.0).round() as u32,
        })
        .collect();
    for k in [20usize, 40, 100] {
        let ratio = knnb(&list, q, r, k).radius / kpt_conservative_radius(k, 15.0);
        let paper = 1.0 / (k as f64 * std::f64::consts::PI).sqrt();
        assert!(
            (0.70..=0.85).contains(&(ratio / paper)),
            "k={k}: ratio {ratio:.4} vs paper {paper:.4}"
        );
    }
}

/// §3.3: w = √3r/2 covers the boundary; substantially wider widths leave
/// radio-range holes, substantially narrower ones inflate the itinerary.
#[test]
fn recommended_width_is_a_good_tradeoff() {
    let r = 20.0;
    let rec = ItinerarySpec::recommended_width(r);
    let covered = |w: f64| {
        let spec = ItinerarySpec::new(Point::ORIGIN, 55.0, 8, w);
        coverage_worst_distance(&spec, 1500) <= r
    };
    let length = |w: f64| total_length(&ItinerarySpec::new(Point::ORIGIN, 55.0, 8, w));
    assert!(covered(rec), "recommended width must cover");
    assert!(!covered(3.0 * r), "3r spacing must leave holes");
    assert!(
        length(rec / 2.0) > 1.5 * length(rec),
        "halving the width should significantly lengthen the itinerary"
    );
}

/// §5 headline: "outperforms the second runner with up to 50% saving in
/// energy consumption and up to 40% reduction in query response time,
/// while rendering the same level of query result accuracy."
///
/// Reduced-scale check of the latency half plus the accuracy floor.
#[test]
fn headline_latency_and_accuracy_vs_kpt() {
    let scenario = ScenarioConfig {
        duration: 50.0,
        ..ScenarioConfig::default()
    };
    let wl = WorkloadConfig {
        k: 40,
        last_at: 30.0,
        ..WorkloadConfig::default()
    };
    let diknn = Experiment::new(
        ProtocolKind::Diknn(DiknnConfig::default()),
        scenario.clone(),
        wl,
    )
    .run(2, 1234);
    let kpt = Experiment::new(ProtocolKind::Kpt(KptConfig::default()), scenario, wl).run(2, 1234);
    let reduction = 1.0 - diknn.latency_s.mean / kpt.latency_s.mean;
    assert!(
        reduction > 0.15,
        "latency reduction vs KPT only {:.0}% (DIKNN {:.2}s, KPT {:.2}s)",
        reduction * 100.0,
        diknn.latency_s.mean,
        kpt.latency_s.mean
    );
    assert!(
        diknn.pre_accuracy.mean >= kpt.pre_accuracy.mean - 0.02,
        "accuracy must be at least KPT's level: {:.3} vs {:.3}",
        diknn.pre_accuracy.mean,
        kpt.pre_accuracy.mean
    );
    assert!(
        diknn.pre_accuracy.mean > 0.8,
        "DIKNN pre-accuracy {:.3} too low at k=40/µ=10",
        diknn.pre_accuracy.mean
    );
}

/// §3.3 footnote 1: the data collection scheme "combines both the token
/// ring based and contention based scheme to achieve higher performance".
///
/// Reduced-scale check on the headline cell (k = 40, µmax = 10 m/s): the
/// combined scheme has the best pre-accuracy, and clearly beats the
/// token ring, whose one poll per candidate crowds the channel.
#[test]
fn combined_collection_gives_the_best_accuracy() {
    let scenario = ScenarioConfig {
        duration: 50.0,
        ..ScenarioConfig::default()
    };
    let wl = WorkloadConfig {
        k: 40,
        last_at: 30.0,
        ..WorkloadConfig::default()
    };
    let accuracy = |collection: CollectionScheme| {
        let cfg = DiknnConfig {
            collection,
            ..DiknnConfig::default()
        };
        Experiment::new(ProtocolKind::Diknn(cfg), scenario.clone(), wl)
            .run(2, 1234)
            .pre_accuracy
            .mean
    };
    let combined = accuracy(CollectionScheme::Combined);
    let contention = accuracy(CollectionScheme::Contention);
    let token_ring = accuracy(CollectionScheme::TokenRing);
    assert!(
        combined > contention && combined > token_ring,
        "combined {combined:.3} must beat contention {contention:.3} and token ring {token_ring:.3}"
    );
    assert!(
        combined - token_ring >= 0.05,
        "combined {combined:.3} beats token ring {token_ring:.3} by less than 0.05"
    );
}

/// §5.4: "DIKNN has stable performance under various mobility conditions"
/// while Peer-tree accuracy "degrades dramatically" (Fig. 9(c)/(d)), and
/// Peer-tree's energy "increases rapidly" with speed (Fig. 9(b)): crossing
/// a cluster's MBR triggers an index update.
#[test]
fn mobility_stability_contrast() {
    let wl = WorkloadConfig {
        k: 20,
        last_at: 25.0,
        ..WorkloadConfig::default()
    };
    let run = |proto: ProtocolKind, speed: f64| {
        Experiment::new(
            proto,
            ScenarioConfig {
                max_speed: speed,
                duration: 45.0,
                ..ScenarioConfig::default()
            },
            wl,
        )
        .run(2, 777)
    };
    let diknn_slow = run(ProtocolKind::Diknn(DiknnConfig::default()), 5.0);
    let diknn_fast = run(ProtocolKind::Diknn(DiknnConfig::default()), 30.0);
    let pt_slow = run(ProtocolKind::PeerTree(PeerTreeConfig::default()), 5.0);
    let pt_fast = run(ProtocolKind::PeerTree(PeerTreeConfig::default()), 30.0);

    let diknn_drop = diknn_slow.pre_accuracy.mean - diknn_fast.pre_accuracy.mean;
    let pt_drop = pt_slow.pre_accuracy.mean - pt_fast.pre_accuracy.mean;
    assert!(
        pt_drop > diknn_drop + 0.1,
        "Peer-tree should degrade much more: PT drop {:.3} vs DIKNN drop {:.3}",
        pt_drop,
        diknn_drop
    );
    assert!(
        diknn_fast.pre_accuracy.mean > 0.6,
        "DIKNN at 30 m/s fell to {:.3}",
        diknn_fast.pre_accuracy.mean
    );
    // Measured 30-over-5 m/s energy ratios: 1.39 at this seed, 1.45 and
    // 1.35 at base seeds 778 and 779.
    assert!(
        pt_fast.energy_j.mean > 1.2 * pt_slow.energy_j.mean,
        "Peer-tree energy should rise with speed: {:.2} J at 5 m/s, {:.2} J at 30 m/s",
        pt_slow.energy_j.mean,
        pt_fast.energy_j.mean
    );
}

/// §5.3, Fig. 8(c): KPT's accuracy degrades as k grows, because its longer
/// collection lets the mobile network drift away from the answer.
///
/// Reduced-scale check at µmax = 10 m/s, two runs per k.
#[test]
fn kpt_accuracy_falls_with_k() {
    let scenario = ScenarioConfig {
        duration: 50.0,
        ..ScenarioConfig::default()
    };
    let post_accuracy = |k: usize| {
        let wl = WorkloadConfig {
            k,
            last_at: 30.0,
            ..WorkloadConfig::default()
        };
        Experiment::new(
            ProtocolKind::Kpt(KptConfig::default()),
            scenario.clone(),
            wl,
        )
        .run(2, 1234)
        .post_accuracy
        .mean
    };
    let (k20, k100) = (post_accuracy(20), post_accuracy(100));
    // Measured drops: 0.27 at this seed, 0.19 and 0.23 at base seeds 1235
    // and 1236.
    assert!(
        k20 - k100 >= 0.1,
        "KPT post-accuracy should fall with k: {k20:.3} at k = 20, {k100:.3} at k = 100"
    );
}

/// §5.3, Fig. 8(a): DIKNN answers fastest at both ends of the k range, and
/// Peer-tree's latency grows the most with k.
///
/// Reduced-scale check at µmax = 10 m/s, three runs per cell. Measured at
/// base seeds 1234, 1235 and 1236: DIKNN leads the runner-up by 0.84, 0.70
/// and 0.59 s at k = 20 and by 0.63, 0.82 and 0.80 s at k = 100; Peer-tree
/// grows 1.84, 1.66 and 1.67 s from k = 20 to 100, at least 0.95 s more
/// than either other protocol. The paper also calls DIKNN's curve the
/// flattest, but KPT grew less than DIKNN at seed 1234 (0.58 against
/// 0.86 s) and more at 1235 (0.71 against 0.64 s) and 1236 (0.71 against
/// 0.65 s), so neither order is asserted.
#[test]
fn diknn_latency_lowest_across_k_and_peertree_grows_most() {
    let scenario = ScenarioConfig {
        duration: 50.0,
        ..ScenarioConfig::default()
    };
    let latency = |proto: &ProtocolKind, k: usize| {
        let wl = WorkloadConfig {
            k,
            last_at: 30.0,
            ..WorkloadConfig::default()
        };
        Experiment::new(proto.clone(), scenario.clone(), wl)
            .run(3, 1234)
            .latency_s
            .mean
    };
    let [diknn, kpt, peertree] = [
        ProtocolKind::Diknn(DiknnConfig::default()),
        ProtocolKind::Kpt(KptConfig::default()),
        ProtocolKind::PeerTree(PeerTreeConfig::default()),
    ]
    .map(|p| [latency(&p, 20), latency(&p, 100)]);
    for (i, k) in [20, 100].into_iter().enumerate() {
        let runner_up = kpt[i].min(peertree[i]);
        assert!(
            diknn[i] + 0.3 <= runner_up,
            "k = {k}: DIKNN {:.2} s must lead the runner-up {runner_up:.2} s by 0.3 s",
            diknn[i]
        );
    }
    let growth = |l: [f64; 2]| l[1] - l[0];
    assert!(
        growth(peertree) >= growth(diknn).max(growth(kpt)) + 0.5,
        "Peer-tree must grow the most: DIKNN +{:.2} s, KPT +{:.2} s, Peer-tree +{:.2} s",
        growth(diknn),
        growth(kpt),
        growth(peertree)
    );
}

/// §3.3: the cone-shaped itinerary adapts to "various degrees of
/// parallelism", and S = 8 is the accuracy sweet spot: four sectors
/// traverse longer itineraries and sixteen crowd the channel
/// (`results/ablation_sectors.txt`: post-accuracy 0.862, 0.882 and 0.847
/// at S = 4, 8 and 16).
///
/// Reduced-scale check at k = 40, µmax = 10 m/s, three runs per cell.
/// Measured at base seeds 1234, 1235 and 1236: S = 8 leads S = 4 by
/// 0.058, 0.063 and 0.003 and S = 16 by 0.023, 0.110 and 0.044 in
/// post-accuracy, and answers 0.22–0.49 s faster than either.
#[test]
fn eight_sectors_are_the_accuracy_sweet_spot() {
    let scenario = ScenarioConfig {
        duration: 50.0,
        ..ScenarioConfig::default()
    };
    let wl = WorkloadConfig {
        k: 40,
        last_at: 30.0,
        ..WorkloadConfig::default()
    };
    let [s4, s8, s16] = [4, 8, 16].map(|sectors| {
        let cfg = DiknnConfig {
            sectors,
            ..DiknnConfig::default()
        };
        Experiment::new(ProtocolKind::Diknn(cfg), scenario.clone(), wl).run(3, 1234)
    });
    let post = |a: &diknn_repro::workloads::Aggregate| a.post_accuracy.mean;
    assert!(
        post(&s8) > post(&s4) && post(&s8) > post(&s16),
        "S = 8 post-accuracy {:.3} must beat S = 4 ({:.3}) and S = 16 ({:.3})",
        post(&s8),
        post(&s4),
        post(&s16)
    );
    let fastest_other = s4.latency_s.mean.min(s16.latency_s.mean);
    assert!(
        s8.latency_s.mean + 0.15 <= fastest_other,
        "S = 8 latency {:.2} s must lead S = 4 and S = 16 ({fastest_other:.2} s) by 0.15 s",
        s8.latency_s.mean
    );
}

/// §4.3: rendezvous-based boundary adjustment raises accuracy, most where
/// KNNB's uniform-density assumption fails (`results/ablation_rendezvous.txt`:
/// pre-accuracy 0.878 → 0.911 on the uniform field and 0.843 → 0.889 on
/// the clustered one).
///
/// Reduced-scale check at k = 40, µmax = 10 m/s, three runs per cell.
/// Measured at base seeds 1234, 1235 and 1236: rendezvous raises
/// pre-accuracy by 0.047, 0.053 and 0.020 on the uniform field and by
/// 0.021, 0.063 and 0.024 on the clustered one. Post-accuracy is not
/// asserted: it fell with rendezvous at seed 1236 on the uniform field
/// (0.880 → 0.867) and at seed 1234 on the clustered one (0.879 → 0.850).
#[test]
fn rendezvous_raises_accuracy() {
    let wl = WorkloadConfig {
        k: 40,
        last_at: 30.0,
        ..WorkloadConfig::default()
    };
    for placement in [PlacementKind::Uniform, PlacementKind::Clustered] {
        let scenario = ScenarioConfig {
            duration: 50.0,
            placement,
            ..ScenarioConfig::default()
        };
        let [on, off] = [true, false].map(|rendezvous| {
            let cfg = DiknnConfig {
                rendezvous,
                ..DiknnConfig::default()
            };
            Experiment::new(ProtocolKind::Diknn(cfg), scenario.clone(), wl)
                .run(3, 1234)
                .pre_accuracy
                .mean
        });
        assert!(
            on >= off + 0.01,
            "{placement:?}: rendezvous pre-accuracy {on:.3} must beat {off:.3} by 0.01"
        );
    }
}
