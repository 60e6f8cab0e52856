//! `query_load` — the concurrent multi-query engine under sustained load.
//!
//! Sweeps arrival rate × k × mobility at a fixed node count (default 500),
//! driving DIKNN with the deterministic Poisson-like arrival process of
//! [`diknn_workloads::QueryLoad`]. Rates well above `1 / typical latency`
//! keep many queries in flight at once; every run is invariant-checked
//! (all six per-query laws plus the cross-query custody law) by the
//! experiment driver. Per cell the binary reports:
//!
//! * sustained throughput (completed queries per simulated second),
//! * p50 / p95 / mean query latency,
//! * pre-/post-mobility accuracy and completion rate,
//! * flow-attributed energy per query,
//! * the peak number of concurrently in-flight queries.
//!
//! Three hard checks decide the exit code (CI's bench-smoke relies on
//! them):
//!
//! 1. every issued query reaches a terminal [`QueryStatus`] in every run,
//! 2. at least one cell sustains `DIKNN_LOAD_MIN_INFLIGHT` (default 8)
//!    concurrent in-flight queries,
//! 3. the first cell re-run through `ParallelSweep` is bit-identical to
//!    its sequential metrics (per-query rows included).
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
//! * `DIKNN_LOAD_MIN_INFLIGHT` — in-flight queries some cell must sustain
//!   (default 8)

// Wall-clock timing never feeds back into simulation state, so the
// determinism ban is lifted here (the xtask pass is exempted per call site
// with `// lint: wall-clock-ok`).
#![allow(clippy::disallowed_methods)]

use std::time::Instant; // lint: wall-clock-ok (host-side benchmark timing)

use diknn_bench::report::{gate, write_results, Json};
use diknn_bench::{
    base_seed, env_f64, env_list, env_usize, load_experiment, matches_sequential, threads,
};
use diknn_core::{QueryStatus, ServingConfig};
use diknn_workloads::{Aggregate, Experiment, ParallelSweep, RunMetrics, ServingSummary};

/// One load cell: arrival rate × k × mobility.
struct Cell {
    rate_qps: f64,
    k: usize,
    max_speed: f64,
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

fn bench_cell(
    exp: &Experiment,
    rate_qps: f64,
    k: usize,
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
    format!(
        "load rate={:<5} k={:<3} speed={:<3} queries/run={:<6.1} sustained={:>6.2} q/s \
         p50={:.3}s p95={:.3}s latency={:.3}s post={:.3} completion={:.2} \
         energy/query={:.4}J peak_in_flight={:<3} terminal={} wall={:.1}s",
        c.rate_qps,
        c.k,
        c.max_speed,
        c.queries_per_run,
        c.sustained_qps,
        c.agg.latency_p50_s.mean,
        c.agg.latency_p95_s.mean,
        c.agg.latency_s.mean,
        c.agg.post_accuracy.mean,
        c.agg.completion_rate.mean,
        c.agg.per_query_energy_j.mean,
        c.peak_in_flight,
        c.summary.all_terminal(),
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
    let sweep = ParallelSweep::new(threads());

    let mut out = String::new();
    let mut line = |s: String| {
        println!("{s}");
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "query_load: concurrent multi-query engine, DIKNN at {nodes} nodes"
    ));
    line(format!(
        "runs={runs} base_seed={seed} duration={duration}s rates={rates:?} ks={ks:?} \
         speeds={speeds:?} threads={}",
        sweep.threads()
    ));

    let mut cells: Vec<Cell> = Vec::new();
    let mut parallel_equiv = true;
    for &rate in &rates {
        for &k in &ks {
            for &speed in &speeds {
                let exp =
                    load_experiment(nodes, duration, rate, k, speed, ServingConfig::default());
                let (cell, metrics) = bench_cell(&exp, rate, k, runs, seed, &sweep);
                line(cell_line(&cell));
                // First cell: the parallel sweep above must be bit-identical
                // to the plain sequential loop, per-query rows included.
                if cells.is_empty() && !matches_sequential(&exp, seed, &metrics) {
                    parallel_equiv = false;
                    eprintln!(
                        "DIVERGENCE: parallel sweep disagrees with sequential metrics \
                         at rate={rate} k={k} speed={speed}"
                    );
                }
                cells.push(cell);
            }
        }
    }

    let peak_in_flight = cells.iter().map(|c| c.peak_in_flight).max().unwrap_or(0);
    let all_terminal = cells.iter().all(|c| c.summary.all_terminal());
    line(format!(
        "summary peak_in_flight={peak_in_flight} (target >= {min_inflight}) \
         all_terminal={all_terminal} parallel_equiv={parallel_equiv}"
    ));

    let inflight_ok = peak_in_flight >= min_inflight;
    let json = Json::obj([
        ("bench", "query_load".into()),
        ("schema_version", 2usize.into()),
        (
            "config",
            Json::obj([
                ("runs", runs.into()),
                ("base_seed", Json::UInt(seed)),
                ("duration_s", Json::Fixed(duration, 1)),
                ("nodes", nodes.into()),
                ("min_inflight", min_inflight.into()),
            ]),
        ),
        ("cells", Json::Arr(cells.iter().map(cell_json).collect())),
        (
            "checks",
            Json::obj([
                ("peak_in_flight", peak_in_flight.into()),
                ("sustained_inflight_ok", Json::Bool(inflight_ok)),
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
                    "no cell sustained {min_inflight} concurrent in-flight queries \
                     (peak {peak_in_flight})"
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
            "sustained {peak_in_flight} in-flight queries, every query terminal, \
             parallel sweep bit-identical"
        ),
    );
}
