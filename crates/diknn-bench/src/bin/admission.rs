//! `admission` — the sink-side serving layer under overload.
//!
//! The `query_load` bench shows the failure this layer exists for: at
//! 10 q/s over 500 nodes the unprotected engine collapses to ~0.06
//! post-accuracy because every arrival launches a full itinerary into an
//! already saturated channel. This bench sweeps arrival rate × serving
//! mode (off / on) and demonstrates graceful degradation: with admission
//! control, spatial query merging and short-TTL result caching enabled the
//! sink sheds and coalesces load *before* it becomes radio traffic, and
//! the answered queries stay accurate.
//!
//! Three hard checks decide the exit code (CI's bench-smoke relies on
//! them):
//!
//! 1. every query of every run reaches a terminal classification (no
//!    `Pending` survivors — rejected/merged/cache-hit are classifications
//!    too),
//! 2. the serving-on cell at the target rate holds at least
//!    `DIKNN_ADM_MIN_ACCURACY` mean post-accuracy (default 0.5 at 10 q/s —
//!    ~8× the unprotected baseline),
//! 3. the first serving-on cell re-run through `ParallelSweep` is
//!    bit-identical to its sequential metrics.
//!
//! Every run is invariant-checked by the experiment driver, including the
//! `admission-soundness` law (no rejected query executes, merged results
//! are attributed to their members, cache hits respect their TTL).
//!
//! Output: a human table on stdout, the same table in
//! `results/admission.txt`, and machine-readable
//! `results/BENCH_admission.json`.
//!
//! Knobs:
//!
//! * `DIKNN_RUNS`             — seeded runs per cell (default 3)
//! * `DIKNN_SEED`             — base seed (default 1000)
//! * `DIKNN_DURATION`         — simulated seconds per run (default 40)
//! * `DIKNN_THREADS`          — sweep worker threads (default: all cores)
//! * `DIKNN_ADM_NODES`        — node count (default 500)
//! * `DIKNN_ADM_RATES`        — comma-separated arrival rates in
//!   queries/sec (default `2,10`)
//! * `DIKNN_ADM_K`            — neighbour count k (default 10)
//! * `DIKNN_ADM_SPEED`        — max node speed in m/s (default 0)
//! * `DIKNN_ADM_TARGET_RATE`  — rate whose serving-on cell is gated
//!   (default 10; clamped to the swept rates)
//! * `DIKNN_ADM_MIN_ACCURACY` — post-accuracy floor for that cell
//!   (default 0.5)

// Wall-clock timing never feeds back into simulation state, so the
// determinism ban is lifted here (the xtask pass is exempted per call site
// with `// lint: wall-clock-ok`).
#![allow(clippy::disallowed_methods)]

use std::time::Instant; // lint: wall-clock-ok (host-side benchmark timing)

use diknn_bench::report::{gate, write_results, Json};
use diknn_bench::{
    base_seed, env_f64, env_list, env_usize, load_experiment, matches_sequential, threads,
};
use diknn_core::ServingConfig;
use diknn_workloads::{Aggregate, Experiment, ParallelSweep, RunMetrics, ServingSummary};

/// One bench cell: arrival rate × serving mode.
struct Cell {
    rate_qps: f64,
    serving_on: bool,
    wall_s: f64,
    agg: Aggregate,
    summary: ServingSummary,
    queries_per_run: f64,
    peak_in_flight: usize,
}

fn bench_cell(
    exp: &Experiment,
    rate_qps: f64,
    serving_on: bool,
    runs: usize,
    seed: u64,
    sweep: &ParallelSweep,
) -> (Cell, Vec<RunMetrics>) {
    let t0 = Instant::now(); // lint: wall-clock-ok
    let metrics = sweep.map(runs, |i| exp.run_once(Experiment::sweep_seed(seed, i)));
    let wall_s = t0.elapsed().as_secs_f64();
    let cell = Cell {
        rate_qps,
        serving_on,
        wall_s,
        agg: Aggregate::from_runs(&metrics),
        summary: ServingSummary::from_runs(&metrics),
        queries_per_run: metrics.iter().map(|m| m.queries as f64).sum::<f64>() / runs.max(1) as f64,
        peak_in_flight: metrics.iter().map(|m| m.max_in_flight).max().unwrap_or(0),
    };
    (cell, metrics)
}

fn cell_line(c: &Cell) -> String {
    let s = &c.summary;
    format!(
        "adm rate={:<5} serving={:<3} queries/run={:<6.1} post={:.3} answered={:.2} \
         completed={:<4} rejected={:<4} merged={:<4} cached={:<4} degraded={:<3} \
         p50={:.3}s peak_in_flight={:<3} terminal={} wall={:.1}s",
        c.rate_qps,
        if c.serving_on { "on" } else { "off" },
        c.queries_per_run,
        c.agg.post_accuracy.mean,
        s.answered_rate(),
        s.completed,
        s.rejected,
        s.merged,
        s.cache_hits,
        s.degraded,
        c.agg.latency_p50_s.mean,
        c.peak_in_flight,
        s.all_terminal(),
        c.wall_s,
    )
}

fn cell_json(c: &Cell) -> Json {
    let s = &c.summary;
    Json::obj([
        ("rate_qps", Json::Num(c.rate_qps)),
        ("serving", Json::Bool(c.serving_on)),
        ("queries_per_run", Json::Fixed(c.queries_per_run, 1)),
        ("post_accuracy", Json::Fixed(c.agg.post_accuracy.mean, 4)),
        ("pre_accuracy", Json::Fixed(c.agg.pre_accuracy.mean, 4)),
        ("answered_rate", Json::Fixed(s.answered_rate(), 4)),
        ("latency_p50_s", Json::Fixed(c.agg.latency_p50_s.mean, 6)),
        ("latency_p95_s", Json::Fixed(c.agg.latency_p95_s.mean, 6)),
        ("peak_in_flight", c.peak_in_flight.into()),
        ("all_terminal", Json::Bool(s.all_terminal())),
        ("wall_s", Json::Fixed(c.wall_s, 3)),
        (
            "status_counts",
            Json::Obj(s.ledger().into_iter().map(|(k, n)| (k, n.into())).collect()),
        ),
    ])
}

fn main() {
    let runs = env_usize("DIKNN_RUNS", 3).max(1);
    let seed = base_seed();
    let duration = env_f64("DIKNN_DURATION", 40.0).max(5.0);
    let nodes = env_usize("DIKNN_ADM_NODES", 500).max(10);
    let rates = env_list("DIKNN_ADM_RATES", &[2.0, 10.0], |&v: &f64| {
        v > 0.0 && v.is_finite()
    });
    let k = env_usize("DIKNN_ADM_K", 10).max(1);
    let speed = env_f64("DIKNN_ADM_SPEED", 0.0).max(0.0);
    let min_accuracy = env_f64("DIKNN_ADM_MIN_ACCURACY", 0.5);
    let target_rate = env_f64("DIKNN_ADM_TARGET_RATE", 10.0);
    let sweep = ParallelSweep::new(threads());

    let mut out = String::new();
    let mut line = |s: String| {
        println!("{s}");
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "admission: sink-side serving layer under overload, DIKNN at {nodes} nodes"
    ));
    line(format!(
        "runs={runs} base_seed={seed} duration={duration}s rates={rates:?} k={k} \
         speed={speed} threads={}",
        sweep.threads()
    ));

    // The gated rate: the swept rate closest to the requested target.
    let gate_rate = rates
        .iter()
        .copied()
        .min_by(|a, b| (a - target_rate).abs().total_cmp(&(b - target_rate).abs()))
        .unwrap_or(target_rate);

    let mut cells: Vec<Cell> = Vec::new();
    let mut parallel_equiv = true;
    let mut checked_equiv = false;
    for &rate in &rates {
        for serving_on in [false, true] {
            let serving = if serving_on {
                ServingConfig::enabled()
            } else {
                ServingConfig::default()
            };
            let exp = load_experiment(nodes, duration, rate, k, speed, serving);
            let (cell, metrics) = bench_cell(&exp, rate, serving_on, runs, seed, &sweep);
            line(cell_line(&cell));
            // First serving-on cell: the parallel sweep above must be
            // bit-identical to the plain sequential loop, per-query rows
            // included — the serving layer must not break sweep determinism.
            if serving_on && !checked_equiv {
                checked_equiv = true;
                if !matches_sequential(&exp, seed, &metrics) {
                    parallel_equiv = false;
                    eprintln!(
                        "DIVERGENCE: parallel sweep disagrees with sequential metrics \
                         at rate={rate} serving=on"
                    );
                }
            }
            cells.push(cell);
        }
    }

    let all_terminal = cells.iter().all(|c| c.summary.all_terminal());
    let gated = cells
        .iter()
        .find(|c| c.serving_on && c.rate_qps == gate_rate);
    let gated_accuracy = gated.map(|c| c.agg.post_accuracy.mean).unwrap_or(0.0);
    let baseline_accuracy = cells
        .iter()
        .find(|c| !c.serving_on && c.rate_qps == gate_rate)
        .map(|c| c.agg.post_accuracy.mean)
        .unwrap_or(f64::NAN);
    line(format!(
        "summary gate_rate={gate_rate} serving_on_accuracy={gated_accuracy:.3} \
         (floor {min_accuracy}) serving_off_accuracy={baseline_accuracy:.3} \
         all_terminal={all_terminal} parallel_equiv={parallel_equiv}"
    ));

    let accuracy_ok = gated_accuracy >= min_accuracy;
    let json = Json::obj([
        ("bench", "admission".into()),
        ("schema_version", 1usize.into()),
        (
            "config",
            Json::obj([
                ("runs", runs.into()),
                ("base_seed", Json::UInt(seed)),
                ("duration_s", Json::Fixed(duration, 1)),
                ("nodes", nodes.into()),
                ("k", k.into()),
                ("max_speed", Json::Num(speed)),
                ("gate_rate_qps", Json::Num(gate_rate)),
                ("min_accuracy", Json::Num(min_accuracy)),
            ]),
        ),
        ("cells", Json::Arr(cells.iter().map(cell_json).collect())),
        (
            "checks",
            Json::obj([
                ("serving_on_accuracy", Json::Fixed(gated_accuracy, 4)),
                ("serving_off_accuracy", Json::Fixed(baseline_accuracy, 4)),
                ("accuracy_ok", Json::Bool(accuracy_ok)),
                ("all_queries_terminal", Json::Bool(all_terminal)),
                ("parallel_equiv_bit_identical", Json::Bool(parallel_equiv)),
            ]),
        ),
    ])
    .render();
    write_results(&[("BENCH_admission.json", &json), ("admission.txt", &out)]);
    gate(
        &[
            (
                accuracy_ok,
                format!(
                    "serving-on cell at {gate_rate} q/s holds {gated_accuracy:.3} \
                     post-accuracy, below the {min_accuracy} floor"
                ),
            ),
            (
                all_terminal,
                "some query never reached a terminal classification".into(),
            ),
            (
                parallel_equiv,
                "parallel sweep diverged from sequential metrics".into(),
            ),
        ],
        &format!(
            "serving layer holds {gated_accuracy:.3} post-accuracy at {gate_rate} q/s \
             (unprotected: {baseline_accuracy:.3}), every query classified, \
             parallel sweep bit-identical"
        ),
    );
}
