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
//! count; the binary exits non-zero if they diverge (CI's bench-smoke job
//! relies on this).
//!
//! Output: a human table on stdout and machine-readable
//! `results/BENCH_scale.json` (schema 4, see `diknn_bench::report`:
//! unmeasured ratios are `null`, a collapsed thread axis is flagged as
//! `degenerate_parallel` instead of reporting a vacuous 1.000 column).
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

use diknn_bench::report::{ratio, render_json, CellRow, ReportConfig, SpeedupRow};
use diknn_bench::{base_seed, threads};
use diknn_core::{Diknn, DiknnConfig};
use diknn_sim::{NeighborIndex, SimStats, Simulator};
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

/// Timings and behaviour fingerprint of one seeded run.
struct RunOut {
    setup_s: f64,
    warm_s: f64,
    run_s: f64,
    stats: SimStats,
    energy_bits: u64,
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
    fingerprints: Vec<(SimStats, u64)>,
}

impl Cell {
    fn index_name(&self) -> &'static str {
        index_name(self.index)
    }

    fn events_per_sec(&self) -> f64 {
        if self.run_s > 0.0 {
            self.events as f64 / self.run_s
        } else {
            0.0
        }
    }

    fn row(&self) -> CellRow {
        CellRow {
            nodes: self.nodes,
            index: self.index_name(),
            threads: self.threads,
            runs: self.fingerprints.len(),
            wall_s: self.wall_s,
            setup_s: self.setup_s,
            warm_s: self.warm_s,
            run_s: self.run_s,
            events: self.events,
            events_per_sec: self.events_per_sec(),
        }
    }
}

fn index_name(index: NeighborIndex) -> &'static str {
    match index {
        NeighborIndex::Grid => "grid",
        NeighborIndex::BruteForce => "brute",
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Node counts from `DIKNN_SCALE_NODES` (comma-separated).
fn scale_nodes() -> Vec<usize> {
    let default = vec![250, 500, 1000, 2000, 5000, 10000];
    match std::env::var("DIKNN_SCALE_NODES") {
        Ok(raw) => {
            let parsed: Vec<usize> = raw
                .split(',')
                .filter_map(|tok| tok.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect();
            if parsed.is_empty() {
                default
            } else {
                parsed
            }
        }
        Err(_) => default,
    }
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
) -> RunOut {
    let t0 = Instant::now(); // lint: wall-clock-ok
    let plans = scenario.build(seed);
    let requests = workload::generate(scenario, wl, seed);
    let mut cfg = scenario.sim_config();
    cfg.neighbor_index = index;
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
    RunOut {
        setup_s,
        warm_s,
        run_s,
        stats: *ctx.stats(),
        energy_bits: ctx.total_energy_j().to_bits(),
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
        run_one(scenario, wl, index, Experiment::sweep_seed(seed, i))
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
        events: outs.iter().map(|o| o.stats.events).sum(),
        fingerprints: outs.iter().map(|o| (o.stats, o.energy_bits)).collect(),
    }
}

fn print_cell(cell: &Cell) {
    println!(
        "scale nodes={:<5} index={:<5} threads={:<2} wall={:>8.3}s \
         setup={:>7.3}s warm={:>7.3}s run={:>8.3}s events={:>9} ({:>9.0} ev/s)",
        cell.nodes,
        cell.index_name(),
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

fn main() {
    let runs = env_usize("DIKNN_RUNS", 3).max(1);
    let seed = base_seed();
    let duration = env_f64("DIKNN_DURATION", 30.0).max(1.0);
    let t_max = threads();
    let detected = ParallelSweep::available().threads();
    let node_counts = scale_nodes();
    // On a single-core box the {1, all} thread axis collapses to {1}; the
    // JSON records threads_detected + degenerate_parallel so the missing
    // comparison is flagged, never reported as a vacuous 1.000.
    let thread_counts: Vec<usize> = if t_max > 1 { vec![1, t_max] } else { vec![1] };
    let degenerate_parallel = t_max <= 1;

    println!("scale_bench: radio-index (grid vs brute) and sweep (1 vs {t_max} threads) scaling");
    println!(
        "runs={runs} base_seed={seed} duration={duration}s degree={NODE_DEGREE} \
         range={RADIO_RANGE}m max_speed={MAX_SPEED}m/s nodes={node_counts:?} \
         threads_detected={detected}"
    );
    if degenerate_parallel {
        println!(
            "note: sweep thread axis collapsed to {{1}} (threads_max={t_max}); the \
             parallel-vs-serial column is unmeasurable here and will be null"
        );
    }

    let mut cells: Vec<Cell> = Vec::new();
    let mut equivalent = true;
    for &n in &node_counts {
        let scenario = ScenarioConfig {
            nodes: n,
            max_speed: MAX_SPEED,
            duration,
            ..ScenarioConfig::default()
        }
        .with_node_degree(NODE_DEGREE, RADIO_RANGE);
        let wl = WorkloadConfig {
            last_at: (duration - 5.0).max(duration * 0.5),
            ..WorkloadConfig::default()
        };
        let group_start = cells.len();
        let indexes: &[NeighborIndex] = if n <= BRUTE_MAX_NODES {
            &[NeighborIndex::Grid, NeighborIndex::BruteForce]
        } else {
            println!(
                "note: brute-force oracle skipped at nodes={n} \
                 (O(n\u{b2}) scan; gated above {BRUTE_MAX_NODES}) — its ratios are null"
            );
            &[NeighborIndex::Grid]
        };
        for &index in indexes {
            for &tc in &thread_counts {
                let cell = bench_cell(&scenario, &wl, index, tc, runs, seed);
                print_cell(&cell);
                cells.push(cell);
            }
        }
        // The index is a pure lookup structure and the sweep a pure
        // executor: every variant must have produced the same runs.
        let (reference, rest) = cells[group_start..].split_at(1);
        for cell in rest {
            if cell.fingerprints != reference[0].fingerprints {
                equivalent = false;
                eprintln!(
                    "DIVERGENCE at nodes={n}: index={} threads={} disagrees with \
                     index={} threads={}",
                    cell.index_name(),
                    cell.threads,
                    reference[0].index_name(),
                    reference[0].threads,
                );
            }
        }
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

    let report_cfg = ReportConfig {
        runs,
        base_seed: seed,
        duration_s: duration,
        node_degree: NODE_DEGREE,
        radio_range: RADIO_RANGE,
        max_speed: MAX_SPEED,
        threads_max: t_max,
        threads_detected: detected,
        degenerate_parallel,
        brute_max_nodes: BRUTE_MAX_NODES,
        node_counts: node_counts.clone(),
    };
    let cell_rows: Vec<CellRow> = cells.iter().map(Cell::row).collect();
    let json = render_json(&report_cfg, &cell_rows, &speedups, equivalent);
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("warning: could not create results/: {e}");
    }
    match std::fs::write("results/BENCH_scale.json", &json) {
        Ok(()) => println!("wrote results/BENCH_scale.json"),
        Err(e) => {
            eprintln!("error: writing results/BENCH_scale.json: {e}");
            std::process::exit(2);
        }
    }
    if equivalent {
        println!("OK: all index/thread variants produced bit-identical run fingerprints");
    } else {
        eprintln!("FAIL: neighbor-index or thread variants diverged — see above");
        std::process::exit(1);
    }
}
