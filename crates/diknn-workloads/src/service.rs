//! Resident service mode: a long-lived simulator fed by a streaming
//! workload, with snapshot/restore and rolling operational metrics.
//!
//! The batch drivers ([`crate::Experiment`]) build a simulator, run it to
//! a fixed horizon and tear it down. [`ServiceRun`] instead keeps one
//! simulator resident and advances it in fixed *epochs*: before each epoch
//! the driver derives that epoch's query arrivals statelessly from
//! `(seed, epoch)` ([`crate::workload::epoch_arrivals`]), streams them into
//! the running protocol through [`diknn_core::Diknn::inject_requests`], and
//! then runs the event loop to the epoch boundary. Node churn
//! (leave/rejoin with state loss) rides on the ordinary fault plan.
//!
//! # Snapshot/restore and the equivalence law
//!
//! [`ServiceRun::snapshot`] captures the *entire* mutable state — the
//! engine snapshot (clock, RNG streams, event queue, neighbour tables,
//! energy, lifecycle, flight recorder), the protocol's mutable state, and
//! the driver's own counters — at an epoch boundary.
//! [`ServiceRun::restore`] rebuilds the run from the bytes plus the same
//! [`ServiceConfig`] and continues. Because arrivals restart their
//! exponential clock at every epoch boundary, the restored run regenerates
//! the identical workload for all later epochs, which yields the law the
//! test-suite enforces bit-exactly via [`ServiceRun::trace_fingerprint`]:
//!
//! ```text
//! run(2T)  ≡  run(T) + snapshot + restore + run(2T)
//! ```
//!
//! # Snapshot format versioning
//!
//! The service stream is framed by [`SERVICE_SNAP_VERSION`] and embeds the
//! engine stream (framed by [`diknn_sim::SNAP_VERSION`]) as an opaque byte
//! field. Any change to the byte layout of either layer — a field added,
//! removed, reordered or re-typed anywhere in the snapshotted state —
//! requires bumping the corresponding version constant; restore refuses
//! mismatched versions rather than guessing. Static configuration is never
//! serialized: the caller re-supplies [`ServiceConfig`], and a fingerprint
//! of it (plus the seed) is checked against the stream.

use std::collections::VecDeque;

use diknn_core::{Diknn, DiknnConfig, DiknnMsg, KnnProtocol, QueryOutcome, QueryStatus};
use diknn_sim::{Ctx, FaultPlan, NeighborIndex, SimTime, Simulator, TraceConfig};
use diknn_snap::{Snap, SnapError, SnapWriter};

use crate::metrics::percentile;
use crate::scenario::ScenarioConfig;
use crate::workload::{epoch_arrivals, RateSchedule};

/// Version of the service-layer snapshot framing. Bump on any change to
/// the byte layout written by [`ServiceRun::snapshot`] (the embedded
/// engine stream is versioned separately by [`diknn_sim::SNAP_VERSION`]).
///
/// Version 2: the driver keeps the visited qids still pending instead of
/// every qid it ever counted.
///
/// Version 3: the image ends in an FNV-1a checksum of all bytes before it,
/// and the configuration fingerprint covers a `ScenarioConfig` whose herd
/// setup is a placement.
///
/// Version 4: the configuration fingerprint covers a `DiknnConfig` whose
/// serving layer keeps only its switch; its admission ceiling, merge and
/// cache radii and cache TTL are constants.
pub const SERVICE_SNAP_VERSION: u32 = 4;

/// Rolling window (number of recent terminal queries) for the latency
/// percentiles in [`ServiceMetrics`].
const LATENCY_WINDOW: usize = 256;

/// Static configuration of a resident service run. Everything here is
/// immutable for the lifetime of the run and must be re-supplied verbatim
/// to [`ServiceRun::restore`] (fingerprint-enforced).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Network scenario. `scenario.duration` must cover the longest
    /// horizon the service will be driven to: mobility plans are built
    /// once, for `duration + 30 s`.
    pub scenario: ScenarioConfig,
    /// Protocol configuration (including the sink-side serving layer).
    pub diknn: DiknnConfig,
    /// Arrival-rate schedule for the streaming workload.
    pub schedule: RateSchedule,
    /// Fault plan; use [`FaultPlan::churning`] for continuous node churn.
    pub faults: FaultPlan,
    /// Neighbours requested per query.
    pub k: usize,
    /// Epoch length in seconds. Arrivals are derived per epoch and
    /// snapshots are taken at epoch boundaries.
    pub epoch_s: f64,
    /// Spatial index for the engine's radio hot path. The grid and the
    /// brute-force oracle must behave identically, so the equivalence laws
    /// are exercised under both.
    pub neighbor_index: NeighborIndex,
}

impl ServiceConfig {
    /// A service configuration with serving-layer defaults: k = 10,
    /// 5 s epochs and no faults.
    pub fn new(scenario: ScenarioConfig, schedule: RateSchedule) -> Self {
        ServiceConfig {
            scenario,
            diknn: DiknnConfig::default(),
            schedule,
            faults: FaultPlan::default(),
            k: 10,
            epoch_s: 5.0,
            neighbor_index: NeighborIndex::Grid,
        }
    }

    /// Fingerprint of the static configuration and seed, embedded in
    /// snapshots so restore can refuse a mismatched config. `Debug`
    /// formatting is stable for the plain-data types involved.
    fn fingerprint(&self, seed: u64) -> u64 {
        let mut w = SnapWriter::new();
        format!("{self:?}").snap(&mut w);
        w.put_u64(seed);
        diknn_snap::fingerprint(&w.into_bytes())
    }
}

/// Rolling operational metrics of a [`ServiceRun`], exported in a
/// scrape-friendly text format by [`ServiceRun::metrics_export`].
/// Equality compares the `Debug` rendering, which is exact for every field
/// (an `f64` prints as the shortest text that reads back to it), so two
/// bit-identical runs compare equal also while the latency window is empty
/// and the percentiles are NaN.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Epochs completed so far.
    pub epoch: u64,
    /// Simulated time, seconds.
    pub sim_time_s: f64,
    /// Requests streamed into the protocol so far.
    pub injected: u64,
    /// Requests whose sink actually issued them (allocated an outcome).
    /// The rest had an offline sink at issue time — under churn or crash
    /// plans the engine suppresses timers of down nodes, so the request
    /// dies client-side before the protocol ever sees it.
    pub issued: u64,
    /// Injected requests that never issued (`injected - issued`); nonzero
    /// only under churn/crash fault plans.
    pub never_issued: u64,
    /// Issued requests that reached a terminal [`QueryStatus`].
    pub terminal: u64,
    /// Issued requests not yet terminal.
    pub pending: u64,
    /// Fraction of terminal requests that ended with an answer
    /// (`Completed`, `Merged` or `CacheHit`); 0 while nothing is terminal.
    pub completion_rate: f64,
    /// Median sink latency over the rolling window, seconds, interpolated
    /// as [`crate::RunMetrics`] does; NaN while the window is empty.
    pub latency_p50_s: f64,
    /// 95th-percentile sink latency over the rolling window, seconds (same
    /// statistic as `latency_p50_s`).
    pub latency_p95_s: f64,
    /// Total per-query (flow-attributed) radio energy divided by terminal
    /// queries, joules.
    pub joules_per_query: f64,
    /// Nodes currently up.
    pub nodes_alive: u64,
}

impl PartialEq for ServiceMetrics {
    fn eq(&self, other: &Self) -> bool {
        format!("{self:?}") == format!("{other:?}")
    }
}

impl ServiceMetrics {
    /// Render as one-metric-per-line `name value` text (Prometheus text
    /// exposition style), suitable for appending to a scrape file.
    pub fn export(&self) -> String {
        let mut s = String::new();
        let mut line = |name: &str, v: f64| {
            s.push_str("diknn_service_");
            s.push_str(name);
            s.push(' ');
            s.push_str(&format!("{v}"));
            s.push('\n');
        };
        line("epoch", self.epoch as f64);
        line("sim_time_s", self.sim_time_s);
        line("injected_total", self.injected as f64);
        line("issued_total", self.issued as f64);
        line("never_issued_total", self.never_issued as f64);
        line("terminal_total", self.terminal as f64);
        line("pending", self.pending as f64);
        line("completion_rate", self.completion_rate);
        line("latency_p50_s", self.latency_p50_s);
        line("latency_p95_s", self.latency_p95_s);
        line("joules_per_query", self.joules_per_query);
        line("nodes_alive", self.nodes_alive as f64);
        s
    }
}

/// A resident DIKNN deployment: one simulator kept alive across epochs,
/// fed by streaming arrivals, snapshottable at epoch boundaries.
pub struct ServiceRun {
    cfg: ServiceConfig,
    seed: u64,
    sim: Simulator<Diknn>,
    /// Epochs completed (also: the next epoch to run).
    epoch: u64,
    /// Requests injected so far.
    injected: u64,
    /// Visited qids still pending, ascending. Every visited outcome is
    /// either counted in `terminal` or kept here, so the first
    /// `terminal + waiting.len()` qids have been visited; each epoch visits
    /// these again before the outcomes issued since.
    waiting: Vec<u32>,
    /// Rolling window of recent terminal-query latencies, seconds.
    latencies: VecDeque<f64>,
    terminal: u64,
    completed: u64,
}

impl ServiceRun {
    /// Build and start a fresh service run. The simulator's neighbour
    /// tables are pre-warmed (steady-state beaconing) and `on_start` has
    /// run; no workload is injected yet.
    pub fn new(cfg: ServiceConfig, seed: u64) -> Self {
        assert!(
            cfg.epoch_s > 0.0 && cfg.epoch_s.is_finite(),
            "epoch length must be positive"
        );
        let plans = cfg.scenario.build(seed);
        let mut sim_cfg = cfg.scenario.sim_config();
        sim_cfg.faults = cfg.faults.clone();
        sim_cfg.neighbor_index = cfg.neighbor_index;
        sim_cfg.trace = TraceConfig::enabled();
        let mut sim = Simulator::new(
            sim_cfg,
            plans,
            Diknn::new(cfg.diknn.clone(), Vec::new()),
            seed,
        );
        sim.warm_neighbor_tables();
        sim.start();
        ServiceRun {
            cfg,
            seed,
            sim,
            epoch: 0,
            injected: 0,
            waiting: Vec::new(),
            latencies: VecDeque::new(),
            terminal: 0,
            completed: 0,
        }
    }

    /// Advance the run by `n` epochs: for each, derive the epoch's
    /// arrivals, stream them in, and run the event loop to the epoch
    /// boundary.
    pub fn run_epochs(&mut self, n: u64) {
        for _ in 0..n {
            let start = self.epoch as f64 * self.cfg.epoch_s;
            let end = (self.epoch + 1) as f64 * self.cfg.epoch_s;
            let reqs = epoch_arrivals(
                &self.cfg.scenario,
                &self.cfg.schedule,
                self.cfg.k,
                self.seed,
                self.epoch,
                start,
                end,
            );
            self.injected += reqs.len() as u64;
            self.sim.drive(|p, ctx| p.inject_requests(ctx, &reqs));
            self.sim.run_until(SimTime::from_secs_f64(end));
            self.epoch += 1;
            self.absorb_outcomes();
        }
    }

    /// Fold newly-terminal outcomes into the rolling metrics, each once,
    /// in ascending qid order: the still-waiting qids, then the outcomes
    /// issued since the last epoch.
    fn absorb_outcomes(&mut self) {
        let outcomes = self.sim.protocol().outcomes();
        let visited = self.terminal as u32 + self.waiting.len() as u32;
        let waiting = std::mem::take(&mut self.waiting);
        for qid in waiting.into_iter().chain(visited..outcomes.len() as u32) {
            let o = &outcomes[qid as usize];
            if o.status == QueryStatus::Pending {
                self.waiting.push(qid);
                continue;
            }
            self.terminal += 1;
            if o.status.is_answered() {
                self.completed += 1;
            }
            if let Some(done) = o.completed_at {
                if self.latencies.len() == LATENCY_WINDOW {
                    self.latencies.pop_front();
                }
                self.latencies
                    .push_back(done.as_secs_f64() - o.issued_at.as_secs_f64());
            }
        }
    }

    /// Current rolling metrics.
    pub fn metrics(&self) -> ServiceMetrics {
        let mut sorted: Vec<f64> = self.latencies.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let energy: f64 = self.sim.ctx().flow_energy_j().total();
        let issued = self.sim.protocol().outcomes().len() as u64;
        ServiceMetrics {
            epoch: self.epoch,
            sim_time_s: self.sim.ctx().now().as_secs_f64(),
            injected: self.injected,
            issued,
            never_issued: self.injected - issued,
            terminal: self.terminal,
            pending: issued - self.terminal,
            completion_rate: self.completed as f64 / self.terminal.max(1) as f64,
            latency_p50_s: percentile(&sorted, 0.50),
            latency_p95_s: percentile(&sorted, 0.95),
            joules_per_query: energy / self.terminal.max(1) as f64,
            nodes_alive: self.sim.ctx().alive_count() as u64,
        }
    }

    /// [`ServiceMetrics::export`] of the current metrics.
    pub fn metrics_export(&self) -> String {
        self.metrics().export()
    }

    /// Serialize the run (engine + protocol + driver counters). Call at an
    /// epoch boundary — i.e. between [`ServiceRun::run_epochs`] calls —
    /// for the restore-equivalence law to hold.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        diknn_snap::write_header(&mut w, SERVICE_SNAP_VERSION);
        w.put_u64(self.cfg.fingerprint(self.seed));
        w.put_u64(self.seed);
        w.put_u64(self.epoch);
        w.put_u64(self.injected);
        self.waiting.snap(&mut w);
        self.latencies.snap(&mut w);
        w.put_u64(self.terminal);
        w.put_u64(self.completed);
        self.sim.snapshot().snap(&mut w);
        diknn_snap::seal(w)
    }

    /// Rebuild a run from [`ServiceRun::snapshot`] bytes and the original
    /// configuration. The mobility plans are rebuilt deterministically
    /// from the scenario and seed; neighbour tables come from the stream,
    /// so no re-warming happens (it would clobber the restored state).
    pub fn restore(bytes: &[u8], cfg: ServiceConfig) -> Result<Self, SnapError> {
        let mut r = diknn_snap::open(bytes, SERVICE_SNAP_VERSION)?;
        let fp = r.take_u64()?;
        let seed = r.take_u64()?;
        if fp != cfg.fingerprint(seed) {
            return Err(SnapError::FingerprintMismatch("ServiceConfig"));
        }
        let epoch = r.take_u64()?;
        let injected = r.take_u64()?;
        let waiting: Vec<u32> = Snap::unsnap(&mut r)?;
        let latencies: VecDeque<f64> = Snap::unsnap(&mut r)?;
        let terminal = r.take_u64()?;
        let completed = r.take_u64()?;
        let sim_bytes: Vec<u8> = Snap::unsnap(&mut r)?;
        r.finish()?;
        let plans = cfg.scenario.build(seed);
        let mut sim_cfg = cfg.scenario.sim_config();
        sim_cfg.faults = cfg.faults.clone();
        sim_cfg.neighbor_index = cfg.neighbor_index;
        sim_cfg.trace = TraceConfig::enabled();
        let sim = Simulator::restore(
            &sim_bytes,
            sim_cfg,
            plans,
            Diknn::new(cfg.diknn.clone(), Vec::new()),
        )?;
        // The next epoch indexes outcomes by these qids and resumes after
        // the first `terminal + waiting.len()` of them.
        let issued = sim.protocol().outcomes().len() as u64;
        let ascending = waiting.windows(2).all(|w| w[0] < w[1]);
        let in_range = waiting.iter().all(|&q| u64::from(q) < issued);
        if !ascending || !in_range || terminal > issued - waiting.len() as u64 {
            return Err(SnapError::Corrupt("service waiting list"));
        }
        Ok(ServiceRun {
            cfg,
            seed,
            sim,
            epoch,
            injected,
            waiting,
            latencies,
            terminal,
            completed,
        })
    }

    /// FNV-1a fingerprint of the serialized flight-recorder contents. Two
    /// runs with bit-identical trace histories agree on this; it is the
    /// cheap equality the restore-equivalence tests assert.
    pub fn trace_fingerprint(&self) -> u64 {
        let mut w = SnapWriter::new();
        self.sim.ctx().trace().snap(&mut w);
        diknn_snap::fingerprint(&w.into_bytes())
    }

    /// Tear down: apply the protocol's end-of-run finalisation (classifies
    /// still-pending queries) and hand back protocol and context for
    /// invariant checks and metrics.
    pub fn finish(self) -> (Diknn, Ctx<DiknnMsg>) {
        let (mut protocol, ctx) = self.sim.into_parts();
        protocol.finish(&ctx);
        (protocol, ctx)
    }

    /// Epochs completed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Requests streamed into the protocol so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configuration this run was built from.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The resident simulator (read-only).
    pub fn sim(&self) -> &Simulator<Diknn> {
        &self.sim
    }

    /// Query outcomes recorded so far (terminal and pending).
    pub fn outcomes(&self) -> &[QueryOutcome] {
        self.sim.protocol().outcomes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants;

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            scenario: ScenarioConfig {
                nodes: 120,
                max_speed: 0.0,
                duration: 120.0,
                ..ScenarioConfig::default()
            },
            epoch_s: 2.0,
            ..ServiceConfig::new(ScenarioConfig::default(), RateSchedule::constant(0.8))
        }
    }

    #[test]
    fn service_runs_and_completes_queries() {
        let mut run = ServiceRun::new(small_cfg(), 11);
        run.run_epochs(10);
        assert_eq!(run.epoch(), 10);
        assert!(run.injected() > 0, "no arrivals in 20 s at 0.8 qps");
        let m = run.metrics();
        assert!(m.terminal > 0, "nothing terminal after 20 s");
        assert!(m.completion_rate > 0.5, "completion {}", m.completion_rate);
        assert!(m.latency_p50_s.is_finite() && m.latency_p50_s >= 0.0);
        let (protocol, ctx) = run.finish();
        invariants::assert_clean(ctx.trace(), protocol.outcomes());
    }

    #[test]
    fn only_pending_qids_are_kept_between_epochs() {
        let mut run = ServiceRun::new(small_cfg(), 11);
        let mut kept_some = false;
        for _ in 0..10 {
            run.run_epochs(1);
            assert_eq!(run.waiting.len() as u64, run.metrics().pending);
            kept_some |= !run.waiting.is_empty();
        }
        assert!(kept_some, "no epoch ended with a query in flight");
    }

    #[test]
    fn latency_percentiles_are_the_batch_statistic() {
        let mut run = ServiceRun::new(small_cfg(), 11);
        let empty = run.metrics();
        assert!(empty.latency_p50_s.is_nan() && empty.latency_p95_s.is_nan());
        // An empty window still compares equal to itself, and only to itself.
        assert_eq!(empty, run.metrics());
        let moved = ServiceMetrics {
            latency_p95_s: 0.0,
            ..empty.clone()
        };
        assert_ne!(empty, moved);
        run.run_epochs(10);
        let mut window: Vec<f64> = run.latencies.iter().copied().collect();
        assert!(window.len() > 2, "window too small to tell: {window:?}");
        window.sort_by(f64::total_cmp);
        let m = run.metrics();
        assert_eq!(
            m.latency_p50_s.to_bits(),
            percentile(&window, 0.50).to_bits()
        );
        assert_eq!(
            m.latency_p95_s.to_bits(),
            percentile(&window, 0.95).to_bits()
        );
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let cfg = small_cfg();
        // Uninterrupted reference: 8 epochs straight.
        let mut full = ServiceRun::new(cfg.clone(), 23);
        full.run_epochs(8);

        // Interrupted: 4 epochs, snapshot, restore, 4 more.
        let mut half = ServiceRun::new(cfg.clone(), 23);
        half.run_epochs(4);
        let bytes = half.snapshot();
        drop(half);
        let mut restored = ServiceRun::restore(&bytes, cfg).expect("restore");
        restored.run_epochs(4);

        assert_eq!(restored.epoch(), full.epoch());
        assert_eq!(restored.injected(), full.injected());
        assert_eq!(restored.trace_fingerprint(), full.trace_fingerprint());
        assert_eq!(restored.metrics(), full.metrics());
    }

    #[test]
    fn restore_rejects_config_mismatch() {
        let mut run = ServiceRun::new(small_cfg(), 5);
        run.run_epochs(1);
        let bytes = run.snapshot();
        let mut other = small_cfg();
        other.k = 7;
        match ServiceRun::restore(&bytes, other) {
            Err(SnapError::FingerprintMismatch("ServiceConfig")) => {}
            Err(e) => panic!("expected config fingerprint mismatch, got {e:?}"),
            Ok(_) => panic!("restore accepted a mismatched config"),
        }
    }

    #[test]
    fn restore_refuses_corrupt_waiting_list() {
        let cfg = small_cfg();
        let mut run = ServiceRun::new(cfg.clone(), 11);
        run.run_epochs(3);
        assert!(run.waiting.len() >= 2, "kept {:?}", run.waiting);
        assert!(ServiceRun::restore(&run.snapshot(), cfg.clone()).is_ok());
        let refused = |run: &ServiceRun| {
            matches!(
                ServiceRun::restore(&run.snapshot(), cfg.clone()),
                Err(SnapError::Corrupt(_))
            )
        };
        let (waiting, terminal) = (run.waiting.clone(), run.terminal);
        run.waiting.reverse();
        assert!(refused(&run), "a waiting list out of order must be refused");
        run.waiting = waiting.clone();
        *run.waiting.last_mut().unwrap() = run.outcomes().len() as u32;
        assert!(refused(&run), "a qid past the outcomes must be refused");
        run.waiting = waiting;
        run.terminal = terminal + 1;
        assert!(
            refused(&run),
            "more visited qids than outcomes must be refused"
        );
    }

    #[test]
    fn snapshot_rejects_version_skew() {
        let mut run = ServiceRun::new(small_cfg(), 5);
        run.run_epochs(1);
        let mut bytes = run.snapshot();
        // Corrupt the version field (bytes 4..8, little-endian after magic).
        bytes[4] ^= 0xFF;
        assert!(matches!(
            ServiceRun::restore(&bytes, small_cfg()),
            Err(SnapError::BadVersion { .. })
        ));
    }

    #[test]
    fn metrics_export_is_line_oriented() {
        let mut run = ServiceRun::new(small_cfg(), 3);
        run.run_epochs(3);
        let text = run.metrics_export();
        for line in text.lines() {
            let mut parts = line.split(' ');
            let name = parts.next().unwrap();
            let value = parts.next().unwrap();
            assert!(name.starts_with("diknn_service_"), "bad name {name}");
            assert!(value.parse::<f64>().is_ok(), "bad value {value}");
            assert_eq!(parts.next(), None);
        }
        assert!(text.contains("diknn_service_latency_p50_s "));
        assert!(text.contains("diknn_service_joules_per_query "));
    }
}
