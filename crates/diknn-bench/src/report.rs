//! The `scale_bench` JSON report model and emitter.
//!
//! Extracted from the binary so the serialization rules are unit-tested
//! (ISSUE 10 regression: schema 2 serialized *missing* measurements as
//! real numbers — `warm_grid_vs_brute: 0.000` for cells where the
//! brute-force oracle never ran, and a vacuous
//! `sweep_parallel_vs_serial_grid: 1.000` on single-core machines where
//! the thread axis collapsed to {1}).
//!
//! Schema 3 rules:
//!
//! * A ratio whose denominator (or numerator) was never measured is
//!   `null`, not `0.0` and not `1.0`. In Rust that is `Option<f64>`;
//!   [`opt_json`] is the single place the `null` spelling lives.
//! * The config block records the *detected* machine parallelism
//!   (`threads_detected`) next to the requested axis (`threads_max`), and
//!   an explicit `degenerate_parallel` flag when the sweep axis collapsed
//!   to a single thread — a degenerate column is flagged, never faked.
//!
//! Schema 4 removes the intra-run partition axis with the partitioned run
//! loop it measured (DESIGN.md §15): the per-cell partition count, its
//! wall-time series, its speed-up column and its config list.

/// Schema version of `results/BENCH_scale.json`. Bumped to 3 for the
/// `null`-ratio rules and the degenerate-parallel flag, and to 4 when the
/// intra-run partition axis was removed.
pub const SCALE_SCHEMA_VERSION: u32 = 4;

/// `num / den` if both sides are real measurements, else `None`.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (num > 0.0 && den > 0.0).then(|| num / den)
}

/// JSON spelling of an optional ratio: a number or `null` — never a
/// fabricated zero.
pub fn opt_json(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "null".to_string(),
    }
}

/// One finished benchmark cell, reduced to what the report serializes.
#[derive(Debug, Clone)]
pub struct CellRow {
    pub nodes: usize,
    pub index: &'static str,
    pub threads: usize,
    pub runs: usize,
    pub wall_s: f64,
    pub setup_s: f64,
    pub warm_s: f64,
    pub run_s: f64,
    pub events: u64,
    pub events_per_sec: f64,
}

impl CellRow {
    fn json(&self) -> String {
        format!(
            "    {{\"nodes\": {}, \"index\": \"{}\", \"threads\": {}, \"runs\": {}, \
             \"wall_s\": {:.6}, \"setup_s\": {:.6}, \"warm_s\": {:.6}, \
             \"run_s\": {:.6}, \"events\": {}, \"events_per_sec\": {:.1}}}",
            self.nodes,
            self.index,
            self.threads,
            self.runs,
            self.wall_s,
            self.setup_s,
            self.warm_s,
            self.run_s,
            self.events,
            self.events_per_sec,
        )
    }
}

/// Grid-vs-brute and parallel-vs-serial ratios for one node count.
/// `None` = the comparison could not be measured on this
/// machine/configuration (oracle gated off, single-core) and is
/// serialized as `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    pub nodes: usize,
    pub warm_grid_vs_brute: Option<f64>,
    pub run_grid_vs_brute: Option<f64>,
    pub wall_grid_vs_brute: Option<f64>,
    pub sweep_parallel_vs_serial_grid: Option<f64>,
}

impl SpeedupRow {
    fn json(&self) -> String {
        format!(
            "    {{\"nodes\": {}, \"warm_grid_vs_brute\": {}, \"run_grid_vs_brute\": {}, \
             \"wall_grid_vs_brute\": {}, \"sweep_parallel_vs_serial_grid\": {}}}",
            self.nodes,
            opt_json(self.warm_grid_vs_brute),
            opt_json(self.run_grid_vs_brute),
            opt_json(self.wall_grid_vs_brute),
            opt_json(self.sweep_parallel_vs_serial_grid),
        )
    }
}

/// Everything the config block of the report records.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    pub runs: usize,
    pub base_seed: u64,
    pub duration_s: f64,
    pub node_degree: f64,
    pub radio_range: f64,
    pub max_speed: f64,
    /// The requested "all threads" axis value.
    pub threads_max: usize,
    /// The machine parallelism actually detected at run time.
    pub threads_detected: usize,
    /// True when the sweep thread axis collapsed to {1} (single-core box
    /// or `DIKNN_THREADS=1`): the parallel-vs-serial column is then
    /// unmeasurable and serialized as `null`, never as `1.000`.
    pub degenerate_parallel: bool,
    pub brute_max_nodes: usize,
    pub node_counts: Vec<usize>,
}

fn usize_list(xs: &[usize]) -> String {
    xs.iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Render the complete `BENCH_scale.json` document.
pub fn render_json(
    cfg: &ReportConfig,
    cells: &[CellRow],
    speedups: &[SpeedupRow],
    equivalent: bool,
) -> String {
    let cell_rows: Vec<String> = cells.iter().map(CellRow::json).collect();
    let speedup_rows: Vec<String> = speedups.iter().map(SpeedupRow::json).collect();
    // The engine throughput curve across the population axis: grid,
    // single sweep thread.
    let series_rows: Vec<String> = cells
        .iter()
        .filter(|c| c.index == "grid" && c.threads == 1)
        .map(|c| {
            format!(
                "    {{\"nodes\": {}, \"events_per_sec\": {:.1}}}",
                c.nodes, c.events_per_sec
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"scale_bench\",\n  \"schema_version\": {ver},\n  \"config\": {{\
         \"runs\": {runs}, \"base_seed\": {seed}, \"duration_s\": {duration:.1}, \
         \"node_degree\": {degree:.1}, \"radio_range\": {range:.1}, \
         \"max_speed\": {speed:.1}, \"threads_max\": {tmax}, \
         \"threads_detected\": {tdet}, \"degenerate_parallel\": {degen}, \
         \"brute_max_nodes\": {bmax}, \
         \"node_counts\": [{nodes}]}},\n  \
         \"cells\": [\n{cells}\n  ],\n  \
         \"events_per_sec_series\": [\n{series}\n  ],\n  \
         \"speedups\": [\n{speedups}\n  ],\n  \
         \"equivalence\": {{\"all_variants_bit_identical\": {equivalent}}}\n}}\n",
        ver = SCALE_SCHEMA_VERSION,
        runs = cfg.runs,
        seed = cfg.base_seed,
        duration = cfg.duration_s,
        degree = cfg.node_degree,
        range = cfg.radio_range,
        speed = cfg.max_speed,
        tmax = cfg.threads_max,
        tdet = cfg.threads_detected,
        degen = cfg.degenerate_parallel,
        bmax = cfg.brute_max_nodes,
        nodes = usize_list(&cfg.node_counts),
        cells = cell_rows.join(",\n"),
        series = series_rows.join(",\n"),
        speedups = speedup_rows.join(",\n"),
        equivalent = equivalent,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(nodes: usize, index: &'static str, threads: usize) -> CellRow {
        CellRow {
            nodes,
            index,
            threads,
            runs: 3,
            wall_s: 1.5,
            setup_s: 0.1,
            warm_s: 0.2,
            run_s: 1.2,
            events: 1000,
            events_per_sec: 833.3,
        }
    }

    fn config() -> ReportConfig {
        ReportConfig {
            runs: 3,
            base_seed: 1000,
            duration_s: 30.0,
            node_degree: 20.0,
            radio_range: 20.0,
            max_speed: 5.0,
            threads_max: 1,
            threads_detected: 1,
            degenerate_parallel: true,
            brute_max_nodes: 2000,
            node_counts: vec![250, 5000],
        }
    }

    #[test]
    fn unmeasured_ratio_is_none_and_serializes_as_null() {
        // The schema-2 bug: den == 0 (brute never ran) reported 0.000.
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(ratio(0.0, 1.0), None);
        assert_eq!(opt_json(None), "null");
        assert_eq!(opt_json(Some(2.5)), "2.500");
    }

    #[test]
    fn measured_ratio_divides() {
        assert_eq!(ratio(3.0, 2.0), Some(1.5));
    }

    #[test]
    fn brute_gated_cell_emits_null_not_zero() {
        let row = SpeedupRow {
            nodes: 5000,
            warm_grid_vs_brute: None,
            run_grid_vs_brute: None,
            wall_grid_vs_brute: None,
            sweep_parallel_vs_serial_grid: None,
        };
        let json = row.json();
        assert!(json.contains("\"warm_grid_vs_brute\": null"), "{json}");
        assert!(json.contains("\"run_grid_vs_brute\": null"), "{json}");
        assert!(json.contains("\"wall_grid_vs_brute\": null"), "{json}");
        assert!(
            json.contains("\"sweep_parallel_vs_serial_grid\": null"),
            "{json}"
        );
        assert!(!json.contains("0.000"), "fabricated zero ratio: {json}");
    }

    #[test]
    fn degenerate_single_thread_axis_is_flagged_not_faked() {
        let cfg = config();
        let cells = [cell(250, "grid", 1)];
        let speedups = [SpeedupRow {
            nodes: 250,
            warm_grid_vs_brute: Some(3.2),
            run_grid_vs_brute: Some(1.1),
            wall_grid_vs_brute: Some(1.4),
            sweep_parallel_vs_serial_grid: None,
        }];
        let json = render_json(&cfg, &cells, &speedups, true);
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
    }
}
