//! `scale_bench` — node-count scaling of the radio hot path and the sweep
//! harness (BENCH JSON emission).
//!
//! Sweeps node count × neighbor index {grid, brute-force} × sweep threads
//! {1, all}. Every cell runs the same seeded DIKNN runs (constant node
//! degree 20, so the field grows with the node count) and reports a
//! per-phase wall-time breakdown:
//!
//! * `setup` — mobility-plan build + workload generation,
//! * `warm`  — `Simulator::new` (includes the grid build) plus the warm
//!   beacon round (`warm_neighbor_tables`), the paper-setup phase whose
//!   all-pairs cost the spatial grid removes,
//! * `run`   — the event loop proper,
//!
//! plus events/sec over the run phase and a behaviour fingerprint
//! (`SimStats` + total energy bits) per run. The grid is a pure index and
//! the sweep a pure executor: every cell of the same node count must
//! produce **bit-identical** fingerprints whatever the index or thread
//! count.
//!
//! For every node count the brute-force oracle runs at, an **oracle pass**
//! then re-runs one seed per index with the flight recorder on, for
//! `min(duration, 10)` simulated seconds. Each run's trace fingerprint,
//! `SimStats` and energy bits must equal the brute-force run's: the trace
//! covers every transmission, reception and protocol step, not only the
//! end-of-run counters. Any divergence in either check sets
//! `equivalence.all_variants_bit_identical` to false and exits 1 (CI's
//! bench-smoke job relies on this).
//!
//! Output: a human table on stdout and machine-readable
//! `results/BENCH_scale.json` (schema 4: unmeasured ratios are `null`, a
//! collapsed thread axis is flagged as `degenerate_parallel` instead of
//! reporting a vacuous 1.000 column).
//!
//! The brute-force oracle is an O(n²) scan per transmission and exists
//! only to witness equivalence; above [`BRUTE_MAX_NODES`] nodes it is
//! skipped (with a printed note) so the grid curve can extend to 10k
//! nodes without an hours-long oracle run — its ratios are then `null`.
//!
//! Knobs (this binary defaults smaller than the paper bins):
//!
//! * `DIKNN_RUNS`        — seeded runs per cell (default 3)
//! * `DIKNN_SEED`        — base seed (default 1000)
//! * `DIKNN_DURATION`    — simulated seconds per run (default 30)
//! * `DIKNN_THREADS`     — "all threads" axis (default: available cores)
//! * `DIKNN_SCALE_NODES` — comma-separated node counts
//!   (default `250,500,1000,2000,5000,10000`)

// Wall-clock timing is the entire point of this binary; it never feeds
// back into simulation state, so the determinism ban is lifted here (the
// xtask pass is exempted per call site with `// lint: wall-clock-ok`).
#![allow(clippy::disallowed_methods)]

use std::time::Instant; // lint: wall-clock-ok (host-side benchmark timing)

use diknn_bench::report::{gate, write_results, Json};
use diknn_bench::{base_seed, env_f64, env_list, env_usize, threads};
use diknn_core::{Diknn, DiknnConfig};
use diknn_sim::{NeighborIndex, SimStats, Simulator, TraceConfig};
use diknn_snap::Snap;
use diknn_workloads::{workload, Experiment, ParallelSweep, ScenarioConfig, WorkloadConfig};

/// Radio range (m); matches `SimConfig::default` and sizes the grid cells.
const RADIO_RANGE: f64 = 20.0;
/// Constant node degree: the field grows as `sqrt(n)` so local density —
/// and thus per-node work — stays fixed while global work scales.
const NODE_DEGREE: f64 = 20.0;
/// RWP speed cap (m/s); nonzero so the grid's incremental refresh and
/// drift padding are on the measured path.
const MAX_SPEED: f64 = 5.0;
/// Largest population the brute-force equivalence oracle still runs at.
/// The oracle is O(n²) per transmission; beyond this it would dominate
/// the whole bench without adding evidence (grid-vs-brute identity is
/// already witnessed at every count up to here).
const BRUTE_MAX_NODES: usize = 2000;
/// Schema version of `results/BENCH_scale.json`. Bumped to 3 for the
/// `null`-ratio rules and the degenerate-parallel flag, and to 4 when the
/// intra-run partition axis was removed.
const SCALE_SCHEMA_VERSION: usize = 4;

/// Behaviour fingerprint of one run. The trace part is the fingerprint of
/// an empty recorder unless the run was traced.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fingerprint {
    trace_fp: u64,
    stats: SimStats,
    energy_bits: u64,
}

/// Timings and behaviour fingerprint of one seeded run.
struct RunOut {
    setup_s: f64,
    warm_s: f64,
    run_s: f64,
    fingerprint: Fingerprint,
}

/// One benchmark cell: node count × index × thread count, `runs` seeds.
struct Cell {
    nodes: usize,
    index: NeighborIndex,
    threads: usize,
    /// Wall time of the whole sweep (what parallelism improves).
    wall_s: f64,
    /// Per-phase times summed over runs (CPU-side cost of each phase).
    setup_s: f64,
    warm_s: f64,
    run_s: f64,
    events: u64,
    fingerprints: Vec<Fingerprint>,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.run_s
    }

    fn json(&self) -> Json {
        Json::obj([
            ("nodes", self.nodes.into()),
            ("index", index_name(self.index).into()),
            ("threads", self.threads.into()),
            ("runs", self.fingerprints.len().into()),
            ("wall_s", Json::Fixed(self.wall_s, 6)),
            ("setup_s", Json::Fixed(self.setup_s, 6)),
            ("warm_s", Json::Fixed(self.warm_s, 6)),
            ("run_s", Json::Fixed(self.run_s, 6)),
            ("events", Json::UInt(self.events)),
            ("events_per_sec", Json::Fixed(self.events_per_sec(), 1)),
        ])
    }
}

/// Grid-vs-brute and parallel-vs-serial ratios for one node count.
/// `None` = the comparison could not be measured on this
/// machine/configuration (oracle gated off, single-core).
struct SpeedupRow {
    nodes: usize,
    warm_grid_vs_brute: Option<f64>,
    run_grid_vs_brute: Option<f64>,
    wall_grid_vs_brute: Option<f64>,
    sweep_parallel_vs_serial_grid: Option<f64>,
}

impl SpeedupRow {
    fn json(&self) -> Json {
        // An unmeasured ratio becomes NaN, which the writer spells `null`.
        let ratio = |v: Option<f64>| Json::Fixed(v.unwrap_or(f64::NAN), 3);
        Json::obj([
            ("nodes", self.nodes.into()),
            ("warm_grid_vs_brute", ratio(self.warm_grid_vs_brute)),
            ("run_grid_vs_brute", ratio(self.run_grid_vs_brute)),
            ("wall_grid_vs_brute", ratio(self.wall_grid_vs_brute)),
            (
                "sweep_parallel_vs_serial_grid",
                ratio(self.sweep_parallel_vs_serial_grid),
            ),
        ])
    }
}

/// `num / den` if both sides are real measurements, else `None`.
fn ratio(num: f64, den: f64) -> Option<f64> {
    (num > 0.0 && den > 0.0).then(|| num / den)
}

fn index_name(index: NeighborIndex) -> &'static str {
    match index {
        NeighborIndex::Grid => "grid",
        NeighborIndex::BruteForce => "brute",
    }
}

/// Scenario and workload of every cell at `nodes` nodes.
fn cell_inputs(nodes: usize, duration: f64) -> (ScenarioConfig, WorkloadConfig) {
    let scenario = ScenarioConfig {
        nodes,
        max_speed: MAX_SPEED,
        duration,
        ..ScenarioConfig::default()
    }
    .with_node_degree(NODE_DEGREE, RADIO_RANGE);
    let wl = WorkloadConfig {
        last_at: (duration - 5.0).max(duration * 0.5),
        ..WorkloadConfig::default()
    };
    (scenario, wl)
}

/// One seeded DIKNN run with per-phase timing. Identical inputs to the
/// sequential experiment driver for the same `(scenario, workload,
/// seed)`; only the neighbor index differs between cells — and it is not
/// allowed to change the fingerprint.
fn run_one(
    scenario: &ScenarioConfig,
    wl: &WorkloadConfig,
    index: NeighborIndex,
    seed: u64,
    traced: bool,
) -> RunOut {
    let t0 = Instant::now(); // lint: wall-clock-ok
    let plans = scenario.build(seed);
    let requests = workload::generate(scenario, wl, seed);
    let mut cfg = scenario.sim_config();
    cfg.neighbor_index = index;
    if traced {
        cfg.trace = TraceConfig::enabled();
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now(); // lint: wall-clock-ok
    let mut sim = Simulator::new(
        cfg,
        plans,
        Diknn::new(DiknnConfig::default(), requests),
        seed,
    );
    sim.warm_neighbor_tables();
    let warm_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now(); // lint: wall-clock-ok
    sim.run();
    let run_s = t2.elapsed().as_secs_f64();

    let (_protocol, ctx) = sim.into_parts();
    let mut w = diknn_snap::SnapWriter::new();
    ctx.trace().snap(&mut w);
    RunOut {
        setup_s,
        warm_s,
        run_s,
        fingerprint: Fingerprint {
            trace_fp: diknn_snap::fingerprint(&w.into_bytes()),
            stats: *ctx.stats(),
            energy_bits: ctx.total_energy_j().to_bits(),
        },
    }
}

fn bench_cell(
    scenario: &ScenarioConfig,
    wl: &WorkloadConfig,
    index: NeighborIndex,
    thread_count: usize,
    runs: usize,
    seed: u64,
) -> Cell {
    let sweep = ParallelSweep::new(thread_count);
    let t0 = Instant::now(); // lint: wall-clock-ok
    let outs = sweep.map(runs, |i| {
        run_one(scenario, wl, index, Experiment::sweep_seed(seed, i), false)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    Cell {
        nodes: scenario.nodes,
        index,
        threads: sweep.threads(),
        wall_s,
        setup_s: outs.iter().map(|o| o.setup_s).sum(),
        warm_s: outs.iter().map(|o| o.warm_s).sum(),
        run_s: outs.iter().map(|o| o.run_s).sum(),
        events: outs.iter().map(|o| o.fingerprint.stats.events).sum(),
        fingerprints: outs.iter().map(|o| o.fingerprint).collect(),
    }
}

/// One `DIVERGENCE` message per variant whose run fingerprints differ
/// from those of the first (reference) variant.
fn divergences(nodes: usize, variants: &[(String, Vec<Fingerprint>)]) -> Vec<String> {
    let Some(((reference, expected), rest)) = variants.split_first() else {
        return Vec::new();
    };
    rest.iter()
        .filter(|(_, fingerprints)| fingerprints != expected)
        .map(|(label, _)| {
            format!("DIVERGENCE at nodes={nodes}: {label} disagrees with {reference}")
        })
        .collect()
}

fn print_cell(cell: &Cell) {
    println!(
        "scale nodes={:<5} index={:<5} threads={:<2} wall={:>8.3}s \
         setup={:>7.3}s warm={:>7.3}s run={:>8.3}s events={:>9} ({:>9.0} ev/s)",
        cell.nodes,
        index_name(cell.index),
        cell.threads,
        cell.wall_s,
        cell.setup_s,
        cell.warm_s,
        cell.run_s,
        cell.events,
        cell.events_per_sec(),
    );
}

fn compute_speedup(cells: &[Cell], nodes: usize, t_max: usize) -> SpeedupRow {
    let find = |index: NeighborIndex, threads: usize| {
        cells
            .iter()
            .find(|c| c.nodes == nodes && c.index == index && c.threads == threads)
    };
    let grid_1 = find(NeighborIndex::Grid, 1);
    let brute_1 = find(NeighborIndex::BruteForce, 1);
    let grid_t = find(NeighborIndex::Grid, t_max);
    let vs_brute = |f: fn(&Cell) -> f64| match (grid_1, brute_1) {
        (Some(g), Some(b)) => ratio(f(b), f(g)),
        _ => None,
    };
    SpeedupRow {
        nodes,
        warm_grid_vs_brute: vs_brute(|c| c.warm_s),
        run_grid_vs_brute: vs_brute(|c| c.run_s),
        wall_grid_vs_brute: vs_brute(|c| c.wall_s),
        sweep_parallel_vs_serial_grid: match (grid_1, grid_t) {
            (Some(g), Some(gt)) if t_max > 1 => ratio(g.wall_s, gt.wall_s),
            // Single-thread axis (or missing cell): unmeasurable, not 1.0.
            _ => None,
        },
    }
}

fn opt_display(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}x"),
        None => "n/a".to_string(),
    }
}

/// The config block. `threads_detected` is the machine parallelism found
/// at run time; `degenerate_parallel` flags a sweep thread axis that
/// collapsed to {1} (single-core box or `DIKNN_THREADS=1`), whose
/// parallel-vs-serial column is then `null`, never a vacuous 1.000.
fn config_json(
    runs: usize,
    seed: u64,
    duration: f64,
    threads_max: usize,
    threads_detected: usize,
    node_counts: &[usize],
) -> Json {
    Json::obj([
        ("runs", runs.into()),
        ("base_seed", Json::UInt(seed)),
        ("duration_s", Json::Fixed(duration, 1)),
        ("node_degree", Json::Fixed(NODE_DEGREE, 1)),
        ("radio_range", Json::Fixed(RADIO_RANGE, 1)),
        ("max_speed", Json::Fixed(MAX_SPEED, 1)),
        ("threads_max", threads_max.into()),
        ("threads_detected", threads_detected.into()),
        ("degenerate_parallel", Json::Bool(threads_max <= 1)),
        ("brute_max_nodes", BRUTE_MAX_NODES.into()),
        (
            "node_counts",
            Json::Arr(node_counts.iter().map(|&n| n.into()).collect()),
        ),
    ])
}

/// The complete `BENCH_scale.json` document.
fn render_json(config: Json, cells: &[Cell], speedups: &[SpeedupRow], equivalent: bool) -> String {
    // The engine throughput curve across the population axis: grid,
    // single sweep thread.
    let series = cells
        .iter()
        .filter(|c| c.index == NeighborIndex::Grid && c.threads == 1)
        .map(|c| {
            Json::obj([
                ("nodes", c.nodes.into()),
                ("events_per_sec", Json::Fixed(c.events_per_sec(), 1)),
            ])
        });
    Json::obj([
        ("bench", "scale_bench".into()),
        ("schema_version", SCALE_SCHEMA_VERSION.into()),
        ("config", config),
        ("cells", Json::Arr(cells.iter().map(Cell::json).collect())),
        ("events_per_sec_series", Json::Arr(series.collect())),
        (
            "speedups",
            Json::Arr(speedups.iter().map(SpeedupRow::json).collect()),
        ),
        (
            "equivalence",
            Json::obj([("all_variants_bit_identical", Json::Bool(equivalent))]),
        ),
    ])
    .render()
}

fn main() {
    let runs = env_usize("DIKNN_RUNS", 3).max(1);
    let seed = base_seed();
    let duration = env_f64("DIKNN_DURATION", 30.0).max(1.0);
    let oracle_duration = duration.min(10.0);
    let t_max = threads();
    let detected = ParallelSweep::available().threads();
    let node_counts = env_list(
        "DIKNN_SCALE_NODES",
        &[250, 500, 1000, 2000, 5000, 10000],
        |&n| n > 0,
    );
    // On a single-core box the {1, all} thread axis collapses to {1}; the
    // JSON records threads_detected + degenerate_parallel so the missing
    // comparison is flagged, never reported as a vacuous 1.000.
    let thread_counts: Vec<usize> = if t_max > 1 { vec![1, t_max] } else { vec![1] };

    println!("scale_bench: radio-index (grid vs brute) and sweep (1 vs {t_max} threads) scaling");
    println!(
        "runs={runs} base_seed={seed} duration={duration}s oracle_duration={oracle_duration}s \
         degree={NODE_DEGREE} range={RADIO_RANGE}m max_speed={MAX_SPEED}m/s \
         nodes={node_counts:?} threads_detected={detected}"
    );
    if t_max <= 1 {
        println!(
            "note: sweep thread axis collapsed to {{1}} (threads_max={t_max}); the \
             parallel-vs-serial column is unmeasurable here and will be null"
        );
    }

    let mut cells: Vec<Cell> = Vec::new();
    let mut equivalent = true;
    for &n in &node_counts {
        let (scenario, wl) = cell_inputs(n, duration);
        let with_brute = n <= BRUTE_MAX_NODES;
        let indexes: &[NeighborIndex] = if with_brute {
            &[NeighborIndex::Grid, NeighborIndex::BruteForce]
        } else {
            println!(
                "note: brute-force oracle skipped at nodes={n} \
                 (O(n\u{b2}) scan; gated above {BRUTE_MAX_NODES}) — its ratios are null"
            );
            &[NeighborIndex::Grid]
        };
        // The index is a pure lookup structure and the sweep a pure
        // executor: every variant must have produced the same runs.
        let mut variants = Vec::new();
        for &index in indexes {
            for &tc in &thread_counts {
                let cell = bench_cell(&scenario, &wl, index, tc, runs, seed);
                print_cell(&cell);
                let label = format!("index={} threads={}", index_name(index), cell.threads);
                variants.push((label, cell.fingerprints.clone()));
                cells.push(cell);
            }
        }
        let mut diverged = divergences(n, &variants);
        if with_brute {
            let (scenario, wl) = cell_inputs(n, oracle_duration);
            let traced: Vec<(String, Vec<Fingerprint>)> =
                [NeighborIndex::BruteForce, NeighborIndex::Grid]
                    .into_iter()
                    .map(|index| {
                        let fp = run_one(&scenario, &wl, index, seed, true).fingerprint;
                        println!(
                            "oracle nodes={n:<5} index={:<5} trace_fp={:016x} events={}",
                            index_name(index),
                            fp.trace_fp,
                            fp.stats.events,
                        );
                        (format!("traced index={}", index_name(index)), vec![fp])
                    })
                    .collect();
            diverged.extend(divergences(n, &traced));
        }
        for d in &diverged {
            eprintln!("{d}");
        }
        equivalent &= diverged.is_empty();
    }

    let speedups: Vec<SpeedupRow> = node_counts
        .iter()
        .map(|&n| compute_speedup(&cells, n, t_max))
        .collect();
    for s in &speedups {
        println!(
            "speedup nodes={:<5} warm grid/brute={:>6} run grid/brute={:>6} \
             wall grid/brute={:>6} sweep 1->{} threads={:>6}",
            s.nodes,
            opt_display(s.warm_grid_vs_brute),
            opt_display(s.run_grid_vs_brute),
            opt_display(s.wall_grid_vs_brute),
            t_max,
            opt_display(s.sweep_parallel_vs_serial_grid),
        );
    }

    let config = config_json(runs, seed, duration, t_max, detected, &node_counts);
    let json = render_json(config, &cells, &speedups, equivalent);
    write_results(&[("BENCH_scale.json", &json)]);
    gate(
        &[(
            equivalent,
            "neighbor-index, thread or traced oracle variants diverged — see above".into(),
        )],
        "all index/thread variants and the traced grid run match the brute-force oracle \
         bit for bit",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_cell() -> Cell {
        Cell {
            nodes: 250,
            index: NeighborIndex::Grid,
            threads: 1,
            wall_s: 1.5,
            setup_s: 0.1,
            warm_s: 0.2,
            run_s: 1.2,
            events: 1000,
            fingerprints: vec![fingerprint(7); 3],
        }
    }

    fn fingerprint(trace_fp: u64) -> Fingerprint {
        Fingerprint {
            trace_fp,
            stats: SimStats::default(),
            energy_bits: 0.5f64.to_bits(),
        }
    }

    #[test]
    fn unmeasured_ratio_is_none_and_serializes_as_null() {
        // The schema-2 bug: den == 0 (brute never ran) reported 0.000.
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(ratio(0.0, 1.0), None);
        assert_eq!(ratio(3.0, 2.0), Some(1.5));
        // Above the brute-force gate every ratio is unmeasured.
        let brute_gated = SpeedupRow {
            nodes: 5000,
            warm_grid_vs_brute: None,
            run_grid_vs_brute: None,
            wall_grid_vs_brute: None,
            sweep_parallel_vs_serial_grid: None,
        };
        let json = brute_gated.json().render();
        assert_eq!(json.matches("_vs_").count(), 4, "{json}");
        assert_eq!(json.matches(": null").count(), 4, "{json}");
        assert!(!json.contains("0.000"), "fabricated zero ratio: {json}");
    }

    #[test]
    fn degenerate_single_thread_axis_is_flagged_not_faked() {
        let cells = [grid_cell()];
        let speedups = [SpeedupRow {
            nodes: 250,
            warm_grid_vs_brute: Some(3.2),
            run_grid_vs_brute: Some(1.1),
            wall_grid_vs_brute: Some(1.4),
            sweep_parallel_vs_serial_grid: None,
        }];
        let config = config_json(3, 1000, 30.0, 1, 1, &[250, 5000]);
        let json = render_json(config, &cells, &speedups, true);
        assert!(json.contains("\"schema_version\": 4"), "{json}");
        assert!(json.contains("\"degenerate_parallel\": true"), "{json}");
        assert!(json.contains("\"threads_detected\": 1"), "{json}");
        assert!(
            json.contains("\"sweep_parallel_vs_serial_grid\": null"),
            "the vacuous 1.000 column must be null when the axis collapsed: {json}"
        );
        assert!(
            !json.contains("\"sweep_parallel_vs_serial_grid\": 1.000"),
            "{json}"
        );
        assert!(
            json.contains("\"equivalence\": {\"all_variants_bit_identical\": true}"),
            "{json}"
        );
    }

    /// The oracle pass moved here from a separate profiling bin: a traced
    /// grid run whose flight-recorder fingerprint differs from the
    /// brute-force run's fails the gate even when the end-of-run
    /// `SimStats` and energy agree.
    #[test]
    fn diverging_trace_fingerprint_fails_the_gate() {
        let traced = |grid_fp: u64| {
            vec![
                ("traced index=brute".to_string(), vec![fingerprint(7)]),
                ("traced index=grid".to_string(), vec![fingerprint(grid_fp)]),
            ]
        };
        assert!(divergences(250, &traced(7)).is_empty());
        let diverged = divergences(250, &traced(8));
        assert_eq!(
            diverged,
            ["DIVERGENCE at nodes=250: traced index=grid disagrees with traced index=brute"]
        );
        let json = render_json(Json::obj([]), &[], &[], diverged.is_empty());
        assert!(
            json.contains("\"all_variants_bit_identical\": false"),
            "{json}"
        );
    }
}
