//! `query_load` — DIKNN under sustained query load, with the sink-side
//! serving layer off and on.
//!
//! Sweeps arrival rate × k × mobility at a fixed node count (default 500),
//! driving DIKNN with the deterministic Poisson-like arrival process of
//! [`diknn_workloads::QueryLoad`] and the serving layer off. Rates well
//! above `1 / typical latency` keep many queries in flight at once, and at
//! 10 q/s the unprotected engine collapses to ~0.06 post-accuracy because
//! every arrival launches a full itinerary into an already saturated
//! channel. So every rate also gets one serving-on cell, at the first k and
//! the first max speed: admission control, spatial query merging and
//! short-TTL result caching shed and coalesce that load at the sink,
//! before it becomes radio traffic (DESIGN.md §12).
//!
//! Every run is invariant-checked by the experiment driver: the per-query
//! laws, the cross-query custody law and the admission-soundness law. Per
//! cell the binary reports:
//!
//! * sustained throughput (completed queries per simulated second),
//! * p50 / p95 / mean query latency,
//! * pre-/post-mobility accuracy, completion and answered rates,
//! * flow-attributed energy per query,
//! * the peak number of concurrently in-flight queries,
//! * the queries per terminal [`QueryStatus`].
//!
//! Four hard checks decide the exit code (CI's bench-smoke relies on
//! them):
//!
//! 1. every issued query reaches a terminal [`QueryStatus`] in every run,
//! 2. at least one serving-off cell sustains `DIKNN_LOAD_MIN_INFLIGHT`
//!    (default 8) concurrent in-flight queries,
//! 3. the serving-on cell at the swept rate nearest `TARGET_RATE_QPS`
//!    (10 q/s) holds at least `DIKNN_LOAD_MIN_ACCURACY` mean post-accuracy,
//! 4. the first cell and the first serving-on cell, re-run through
//!    `ParallelSweep`, are bit-identical to their sequential metrics
//!    (per-query rows included).
//!
//! Output: a human table on stdout, the same table in
//! `results/query_load.txt`, and machine-readable
//! `results/BENCH_query_load.json`.
//!
//! Knobs:
//!
//! * `DIKNN_RUNS`              — seeded runs per cell (default 3)
//! * `DIKNN_SEED`              — base seed (default 1000)
//! * `DIKNN_DURATION`          — simulated seconds per run (default 40)
//! * `DIKNN_THREADS`           — sweep worker threads (default: all cores)
//! * `DIKNN_LOAD_NODES`        — node count (default 500)
//! * `DIKNN_LOAD_RATES`        — comma-separated arrival rates in
//!   queries/sec (default `2,10,25`)
//! * `DIKNN_LOAD_KS`           — comma-separated k values (default `10,40`)
//! * `DIKNN_LOAD_SPEEDS`       — comma-separated max speeds in m/s
//!   (default `0,5`)
//! * `DIKNN_LOAD_MIN_INFLIGHT` — in-flight queries some serving-off cell
//!   must sustain (default 8)
//! * `DIKNN_LOAD_MIN_ACCURACY` — post-accuracy floor for the gated
//!   serving-on cell (default 0.5)

// Wall-clock timing never feeds back into simulation state, so the
// determinism ban is lifted here (the xtask pass is exempted per call site
// with `// lint: wall-clock-ok`).
#![allow(clippy::disallowed_methods)]

use std::time::Instant; // lint: wall-clock-ok (host-side benchmark timing)

use diknn_bench::report::{gate, write_results, Json};
use diknn_bench::{base_seed, env_f64, env_list, env_usize, threads};
use diknn_core::{QueryStatus, ServingConfig};
use diknn_workloads::{
    admission_experiment, Aggregate, Experiment, ParallelSweep, QueryLoad, RunMetrics,
    ServingSummary,
};

/// The arrival rate, in queries per second, whose serving-on cell the
/// accuracy gate checks; the nearest swept rate stands in for it.
const TARGET_RATE_QPS: f64 = 10.0;

/// One load cell: arrival rate × k × mobility × serving layer.
struct Cell {
    rate_qps: f64,
    k: usize,
    max_speed: f64,
    serving: bool,
    wall_s: f64,
    agg: Aggregate,
    /// Peak concurrently in-flight queries over the cell's runs.
    peak_in_flight: usize,
    /// Mean issued queries per run.
    queries_per_run: f64,
    /// Completed queries per simulated second, averaged over runs.
    sustained_qps: f64,
    /// Queries per terminal status, summed over the cell's runs.
    summary: ServingSummary,
}

/// The DIKNN cell this bench sweeps: a seeded Poisson-like stream of
/// `rate_qps` k-NN queries from t = 2 s until ten seconds before the end
/// (at least half the run), with the serving layer on or off.
fn load_experiment(
    nodes: usize,
    duration: f64,
    rate_qps: f64,
    k: usize,
    max_speed: f64,
    serving: bool,
) -> Experiment {
    let load = QueryLoad {
        rate_qps,
        k,
        first_at: 2.0,
        last_at: (duration - 10.0).max(duration * 0.5),
    };
    let serving = if serving {
        ServingConfig::enabled()
    } else {
        ServingConfig::default()
    };
    admission_experiment(nodes, duration, max_speed, &load, serving)
}

/// Whether running `exp` over the sweep seeds `0..parallel.len()` of
/// `seed` one after another reproduces the `ParallelSweep` metrics
/// `parallel`, per-query rows included. `Debug` text round-trips `f64`
/// exactly and renders NaN (a never-completed query's latency) equal to
/// itself, unlike `PartialEq`.
fn matches_sequential(exp: &Experiment, seed: u64, parallel: &[RunMetrics]) -> bool {
    let sequential: Vec<RunMetrics> = (0..parallel.len())
        .map(|i| exp.run_once(Experiment::sweep_seed(seed, i)))
        .collect();
    format!("{sequential:?}") == format!("{parallel:?}")
}

fn bench_cell(
    exp: &Experiment,
    rate_qps: f64,
    k: usize,
    serving: bool,
    runs: usize,
    seed: u64,
    sweep: &ParallelSweep,
) -> (Cell, Vec<RunMetrics>) {
    let t0 = Instant::now(); // lint: wall-clock-ok
    let metrics = sweep.map(runs, |i| exp.run_once(Experiment::sweep_seed(seed, i)));
    let wall_s = t0.elapsed().as_secs_f64();
    let duration = exp.scenario.duration;
    let cell = Cell {
        rate_qps,
        k,
        max_speed: exp.scenario.max_speed,
        serving,
        wall_s,
        agg: Aggregate::from_runs(&metrics),
        peak_in_flight: metrics.iter().map(|m| m.max_in_flight).max().unwrap_or(0),
        queries_per_run: metrics.iter().map(|m| m.queries as f64).sum::<f64>() / runs.max(1) as f64,
        sustained_qps: metrics
            .iter()
            .map(|m| m.completed as f64 / duration)
            .sum::<f64>()
            / runs.max(1) as f64,
        summary: ServingSummary::from_runs(&metrics),
    };
    (cell, metrics)
}

fn cell_line(c: &Cell) -> String {
    let s = &c.summary;
    format!(
        "load rate={:<5} k={:<3} speed={:<3} serving={:<3} queries/run={:<6.1} \
         sustained={:>6.2} q/s p50={:.3}s p95={:.3}s latency={:.3}s post={:.3} \
         completion={:.2} answered={:.2} rejected={:<4} merged={:<4} cached={:<4} \
         energy/query={:.4}J peak_in_flight={:<3} terminal={} wall={:.1}s",
        c.rate_qps,
        c.k,
        c.max_speed,
        if c.serving { "on" } else { "off" },
        c.queries_per_run,
        c.sustained_qps,
        c.agg.latency_p50_s.mean,
        c.agg.latency_p95_s.mean,
        c.agg.latency_s.mean,
        c.agg.post_accuracy.mean,
        c.agg.completion_rate.mean,
        s.answered_rate(),
        s.rejected,
        s.merged,
        s.cache_hits,
        c.agg.per_query_energy_j.mean,
        c.peak_in_flight,
        s.all_terminal(),
        c.wall_s,
    )
}

fn cell_json(c: &Cell) -> Json {
    let status_counts = QueryStatus::ALL
        .iter()
        .zip(c.summary.status_counts)
        .map(|(s, n)| (s.label().replace('-', "_"), n.into()))
        .collect();
    Json::obj([
        ("rate_qps", Json::Num(c.rate_qps)),
        ("k", c.k.into()),
        ("max_speed", Json::Num(c.max_speed)),
        ("serving", Json::Bool(c.serving)),
        ("queries_per_run", Json::Fixed(c.queries_per_run, 1)),
        ("sustained_qps", Json::Fixed(c.sustained_qps, 4)),
        ("latency_p50_s", Json::Fixed(c.agg.latency_p50_s.mean, 6)),
        ("latency_p95_s", Json::Fixed(c.agg.latency_p95_s.mean, 6)),
        ("latency_mean_s", Json::Fixed(c.agg.latency_s.mean, 6)),
        ("pre_accuracy", Json::Fixed(c.agg.pre_accuracy.mean, 4)),
        ("post_accuracy", Json::Fixed(c.agg.post_accuracy.mean, 4)),
        (
            "completion_rate",
            Json::Fixed(c.agg.completion_rate.mean, 4),
        ),
        ("answered_rate", Json::Fixed(c.summary.answered_rate(), 4)),
        (
            "per_query_energy_j",
            Json::Fixed(c.agg.per_query_energy_j.mean, 6),
        ),
        ("peak_in_flight", c.peak_in_flight.into()),
        ("all_terminal", Json::Bool(c.summary.all_terminal())),
        ("wall_s", Json::Fixed(c.wall_s, 3)),
        ("status_counts", Json::Obj(status_counts)),
    ])
}

fn main() {
    let runs = env_usize("DIKNN_RUNS", 3).max(1);
    let seed = base_seed();
    let duration = env_f64("DIKNN_DURATION", 40.0).max(5.0);
    let nodes = env_usize("DIKNN_LOAD_NODES", 500).max(10);
    let rates = env_list("DIKNN_LOAD_RATES", &[2.0, 10.0, 25.0], |&v: &f64| {
        v > 0.0 && v.is_finite()
    });
    let ks = env_list("DIKNN_LOAD_KS", &[10, 40], |&v| v > 0);
    let speeds = env_list("DIKNN_LOAD_SPEEDS", &[0.0, 5.0], |&v: &f64| {
        v >= 0.0 && v.is_finite()
    });
    let min_inflight = env_usize("DIKNN_LOAD_MIN_INFLIGHT", 8);
    let min_accuracy = env_f64("DIKNN_LOAD_MIN_ACCURACY", 0.5);
    let sweep = ParallelSweep::new(threads());

    let mut out = String::new();
    let mut line = |s: String| {
        println!("{s}");
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "query_load: DIKNN under sustained load at {nodes} nodes, serving layer off \
         (every cell) and on (first k, first speed)"
    ));
    line(format!(
        "runs={runs} base_seed={seed} duration={duration}s rates={rates:?} ks={ks:?} \
         speeds={speeds:?} threads={}",
        sweep.threads()
    ));

    // Serving off at every rate × k × speed, then one serving-on cell per
    // rate at the first k and the first speed.
    let mut grid: Vec<(f64, usize, f64, bool)> = Vec::new();
    for &rate in &rates {
        for &k in &ks {
            grid.extend(speeds.iter().map(|&speed| (rate, k, speed, false)));
        }
        grid.push((rate, ks[0], speeds[0], true));
    }
    let mut cells: Vec<Cell> = Vec::new();
    let mut parallel_equiv = true;
    for (rate, k, speed, serving) in grid {
        let exp = load_experiment(nodes, duration, rate, k, speed, serving);
        let (cell, metrics) = bench_cell(&exp, rate, k, serving, runs, seed, &sweep);
        line(cell_line(&cell));
        // The first cell of each serving mode: the parallel sweep above must
        // be bit-identical to the plain sequential loop, per-query rows
        // included.
        let first_of_mode = !cells.iter().any(|c| c.serving == serving);
        if first_of_mode && !matches_sequential(&exp, seed, &metrics) {
            parallel_equiv = false;
            eprintln!(
                "DIVERGENCE: parallel sweep disagrees with sequential metrics \
                 at rate={rate} k={k} speed={speed} serving={serving}"
            );
        }
        cells.push(cell);
    }

    // The gated rate: the swept rate closest to the target.
    let gate_rate = rates
        .iter()
        .copied()
        .min_by(|a, b| {
            (a - TARGET_RATE_QPS)
                .abs()
                .total_cmp(&(b - TARGET_RATE_QPS).abs())
        })
        .unwrap_or(TARGET_RATE_QPS);
    let gated_accuracy = |serving: bool| {
        cells
            .iter()
            .find(|c| c.serving == serving && c.rate_qps == gate_rate)
            .map(|c| c.agg.post_accuracy.mean)
    };
    let serving_on_accuracy = gated_accuracy(true).unwrap_or(0.0);
    let serving_off_accuracy = gated_accuracy(false).unwrap_or(f64::NAN);
    // Serving-off cells only: a rejected query never gets a completion
    // time, so a serving-on cell's peak counts its rejections too.
    let peak_in_flight = cells
        .iter()
        .filter(|c| !c.serving)
        .map(|c| c.peak_in_flight)
        .max()
        .unwrap_or(0);
    let all_terminal = cells.iter().all(|c| c.summary.all_terminal());
    line(format!(
        "summary peak_in_flight={peak_in_flight} (target >= {min_inflight}) \
         gate_rate={gate_rate} serving_on_accuracy={serving_on_accuracy:.3} \
         (floor {min_accuracy}) serving_off_accuracy={serving_off_accuracy:.3} \
         all_terminal={all_terminal} parallel_equiv={parallel_equiv}"
    ));

    let inflight_ok = peak_in_flight >= min_inflight;
    let accuracy_ok = serving_on_accuracy >= min_accuracy;
    let json = Json::obj([
        ("bench", "query_load".into()),
        ("schema_version", 3usize.into()),
        (
            "config",
            Json::obj([
                ("runs", runs.into()),
                ("base_seed", Json::UInt(seed)),
                ("duration_s", Json::Fixed(duration, 1)),
                ("nodes", nodes.into()),
                ("min_inflight", min_inflight.into()),
                ("min_accuracy", Json::Num(min_accuracy)),
            ]),
        ),
        ("cells", Json::Arr(cells.iter().map(cell_json).collect())),
        (
            "checks",
            Json::obj([
                ("peak_in_flight", peak_in_flight.into()),
                ("sustained_inflight_ok", Json::Bool(inflight_ok)),
                ("gate_rate_qps", Json::Num(gate_rate)),
                ("serving_on_accuracy", Json::Fixed(serving_on_accuracy, 4)),
                ("serving_off_accuracy", Json::Fixed(serving_off_accuracy, 4)),
                ("accuracy_ok", Json::Bool(accuracy_ok)),
                ("all_queries_terminal", Json::Bool(all_terminal)),
                ("parallel_equiv_bit_identical", Json::Bool(parallel_equiv)),
            ]),
        ),
    ])
    .render();
    write_results(&[("BENCH_query_load.json", &json), ("query_load.txt", &out)]);
    gate(
        &[
            (
                inflight_ok,
                format!(
                    "no serving-off cell sustained {min_inflight} concurrent \
                     in-flight queries (peak {peak_in_flight})"
                ),
            ),
            (
                accuracy_ok,
                format!(
                    "serving-on cell at {gate_rate} q/s holds {serving_on_accuracy:.3} \
                     post-accuracy, below the {min_accuracy} floor"
                ),
            ),
            (
                all_terminal,
                "some query never reached a terminal status".into(),
            ),
            (
                parallel_equiv,
                "parallel sweep diverged from sequential metrics".into(),
            ),
        ],
        &format!(
            "sustained {peak_in_flight} in-flight queries, serving layer holds \
             {serving_on_accuracy:.3} post-accuracy at {gate_rate} q/s (unprotected: \
             {serving_off_accuracy:.3}), every query terminal, parallel sweep bit-identical"
        ),
    );
}
