//! The experiment driver: run a protocol over a scenario + workload for
//! several seeds and aggregate the paper's metrics.

use diknn_baselines::{
    Centralized, CentralizedConfig, Flood, FloodConfig, Kpt, KptConfig, PeerTree, PeerTreeConfig,
};
use diknn_core::{Diknn, DiknnConfig, KnnProtocol, QueryRequest};
use diknn_sim::{Protocol, SimConfig, Simulator, TraceConfig};

use crate::invariants;
use crate::metrics::{Aggregate, RunMetrics};
use crate::oracle::GroundTruth;
use crate::parallel::ParallelSweep;
use crate::scenario::ScenarioConfig;
use crate::workload::{self, WorkloadConfig};

/// Which protocol to run (with its configuration).
#[derive(Debug, Clone)]
pub enum ProtocolKind {
    Diknn(DiknnConfig),
    Kpt(KptConfig),
    PeerTree(PeerTreeConfig),
    Flood(FloodConfig),
    Centralized(CentralizedConfig),
}

impl ProtocolKind {
    /// Display name for experiment output (matches the paper's legends).
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Diknn(_) => "DIKNN",
            ProtocolKind::Kpt(_) => "KPT+KNNB",
            ProtocolKind::PeerTree(_) => "PeerTree",
            ProtocolKind::Flood(_) => "Flood",
            ProtocolKind::Centralized(_) => "Centralized",
        }
    }
}

/// A fully specified experiment cell: protocol × scenario × workload.
#[derive(Debug, Clone)]
pub struct Experiment {
    pub protocol: ProtocolKind,
    pub scenario: ScenarioConfig,
    pub workload: WorkloadConfig,
    /// Overrides applied to the scenario's [`SimConfig`] (e.g. loss rate);
    /// `None` keeps the scenario defaults.
    pub sim_tweak: Option<fn(&mut SimConfig)>,
    /// Fault-injection plan installed into the [`SimConfig`] (crashes,
    /// bursty loss, jamming, energy budgets); `None` keeps the scenario's
    /// (inert) plan. Applied after `sim_tweak`.
    pub fault_plan: Option<diknn_sim::FaultPlan>,
    /// Record a flight-recorder trace during each run and fail loudly
    /// (panic) if any protocol invariant is violated (see
    /// [`crate::invariants`]). On by default: every experiment doubles as a
    /// correctness check. Disable for benchmark timing runs.
    pub check_invariants: bool,
}

impl Experiment {
    pub fn new(protocol: ProtocolKind, scenario: ScenarioConfig, workload: WorkloadConfig) -> Self {
        Experiment {
            protocol,
            scenario,
            workload,
            sim_tweak: None,
            fault_plan: None,
            check_invariants: true,
        }
    }

    /// Run one seeded simulation and return its metrics.
    pub fn run_once(&self, seed: u64) -> RunMetrics {
        let mut scenario = self.scenario.clone();
        // Index-based protocols need their infrastructure nodes appended.
        match &self.protocol {
            ProtocolKind::PeerTree(cfg) => {
                scenario.infrastructure = PeerTree::clusterhead_positions(scenario.field, cfg.grid);
            }
            ProtocolKind::Centralized(_) => {
                scenario.infrastructure = vec![Centralized::base_position(scenario.field)];
            }
            _ => scenario.infrastructure.clear(),
        }
        let plans = scenario.build(seed);
        let oracle = GroundTruth::new(plans.clone(), scenario.nodes);
        let requests = workload::generate(&scenario, &self.workload, seed);
        let mut sim_cfg = scenario.sim_config();
        if let Some(tweak) = self.sim_tweak {
            tweak(&mut sim_cfg);
        }
        if let Some(plan) = &self.fault_plan {
            sim_cfg.faults = plan.clone();
        }
        if self.check_invariants {
            sim_cfg.trace = TraceConfig::enabled();
        }
        let check = self.check_invariants;
        match &self.protocol {
            ProtocolKind::Diknn(cfg) => execute(
                sim_cfg,
                plans,
                Diknn::new(cfg.clone(), requests),
                seed,
                &oracle,
                check,
            ),
            ProtocolKind::Kpt(cfg) => execute(
                sim_cfg,
                plans,
                Kpt::new(cfg.clone(), requests),
                seed,
                &oracle,
                check,
            ),
            ProtocolKind::PeerTree(cfg) => execute(
                sim_cfg,
                plans,
                PeerTree::new(cfg.clone(), scenario.field, scenario.nodes, requests),
                seed,
                &oracle,
                check,
            ),
            ProtocolKind::Flood(cfg) => execute(
                sim_cfg,
                plans,
                Flood::new(cfg.clone(), requests),
                seed,
                &oracle,
                check,
            ),
            ProtocolKind::Centralized(cfg) => execute(
                sim_cfg,
                plans,
                Centralized::new(cfg.clone(), scenario.field, scenario.nodes, requests),
                seed,
                &oracle,
                check,
            ),
        }
    }

    /// The seed of the `i`-th run of a sweep starting at `base_seed`.
    /// Shared by [`Experiment::run`] and [`Experiment::run_parallel`] so
    /// the two paths are seed-for-seed identical by construction.
    #[inline]
    pub fn sweep_seed(base_seed: u64, i: usize) -> u64 {
        base_seed.wrapping_add(i as u64 * 7919)
    }

    /// Run `runs` seeds (the paper averages 20) and aggregate.
    pub fn run(&self, runs: usize, base_seed: u64) -> Aggregate {
        let metrics: Vec<RunMetrics> = (0..runs)
            .map(|i| self.run_once(Self::sweep_seed(base_seed, i)))
            .collect();
        Aggregate::from_runs(&metrics)
    }

    /// [`Experiment::run`] across a worker pool. Per-run seeds are derived
    /// exactly as the sequential path derives them and results are
    /// aggregated in seed order, so the returned [`Aggregate`] is
    /// bit-identical to `self.run(runs, base_seed)` — parallelism changes
    /// wall time, never results (see [`crate::parallel`]).
    pub fn run_parallel(&self, runs: usize, base_seed: u64, sweep: &ParallelSweep) -> Aggregate {
        let metrics = sweep.map(runs, |i| self.run_once(Self::sweep_seed(base_seed, i)));
        Aggregate::from_runs(&metrics)
    }
}

fn execute<P>(
    sim_cfg: SimConfig,
    plans: Vec<diknn_sim::SharedMobility>,
    protocol: P,
    seed: u64,
    oracle: &GroundTruth,
    check: bool,
) -> RunMetrics
where
    P: Protocol + KnnProtocol,
{
    let mut sim = Simulator::new(sim_cfg, plans, protocol, seed);
    // Nodes have been in place before t=0: start with a warm beacon round,
    // as a long-running network would be.
    sim.warm_neighbor_tables();
    sim.run();
    let (mut protocol, ctx) = sim.into_parts();
    // Classify queries that never finalised (dead sink, suppressed timer).
    protocol.finish(&ctx);
    if check {
        invariants::assert_clean(ctx.trace(), protocol.outcomes());
    }
    let energy = ctx.total_protocol_energy_j();
    let stats = *ctx.stats();
    RunMetrics::compute(
        protocol.outcomes(),
        &stats,
        energy,
        ctx.flow_energy_j(),
        oracle,
    )
}

/// Convenience used by tests and benches: run all requests and return the
/// raw outcomes (single seed).
pub fn run_protocol_once(
    protocol: ProtocolKind,
    scenario: &ScenarioConfig,
    requests: Vec<QueryRequest>,
    seed: u64,
) -> (Vec<diknn_core::QueryOutcome>, f64) {
    run_protocol_once_faulted(protocol, scenario, requests, seed, None)
}

/// [`run_protocol_once`] with a fault plan installed into the simulation.
pub fn run_protocol_once_faulted(
    protocol: ProtocolKind,
    scenario: &ScenarioConfig,
    requests: Vec<QueryRequest>,
    seed: u64,
    fault_plan: Option<diknn_sim::FaultPlan>,
) -> (Vec<diknn_core::QueryOutcome>, f64) {
    let mut scenario = scenario.clone();
    match &protocol {
        ProtocolKind::PeerTree(cfg) => {
            scenario.infrastructure = PeerTree::clusterhead_positions(scenario.field, cfg.grid);
        }
        ProtocolKind::Centralized(_) => {
            scenario.infrastructure = vec![Centralized::base_position(scenario.field)];
        }
        _ => {}
    }
    let plans = scenario.build(seed);
    let mut sim_cfg = scenario.sim_config();
    if let Some(plan) = fault_plan {
        sim_cfg.faults = plan;
    }
    // Every one-shot run is also an invariant check: record a trace and
    // replay it against the outcomes before handing them back.
    sim_cfg.trace = TraceConfig::enabled();
    macro_rules! go {
        ($p:expr) => {{
            let mut sim = Simulator::new(sim_cfg, plans, $p, seed);
            sim.warm_neighbor_tables();
            sim.run();
            let (mut proto, ctx) = sim.into_parts();
            proto.finish(&ctx);
            invariants::assert_clean(ctx.trace(), proto.outcomes());
            let e = ctx.total_protocol_energy_j();
            (proto.outcomes().to_vec(), e)
        }};
    }
    match protocol {
        ProtocolKind::Diknn(cfg) => go!(Diknn::new(cfg, requests)),
        ProtocolKind::Kpt(cfg) => go!(Kpt::new(cfg, requests)),
        ProtocolKind::PeerTree(cfg) => {
            let field = scenario.field;
            let n = scenario.nodes;
            go!(PeerTree::new(cfg, field, n, requests))
        }
        ProtocolKind::Flood(cfg) => go!(Flood::new(cfg, requests)),
        ProtocolKind::Centralized(cfg) => {
            let field = scenario.field;
            let n = scenario.nodes;
            go!(Centralized::new(cfg, field, n, requests))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenario() -> ScenarioConfig {
        ScenarioConfig {
            nodes: 120,
            duration: 25.0,
            max_speed: 0.0,
            ..ScenarioConfig::default()
        }
    }

    fn small_workload() -> WorkloadConfig {
        WorkloadConfig {
            k: 10,
            first_at: 2.0,
            last_at: 10.0,
            mean_interval: 4.0,
        }
    }

    #[test]
    fn diknn_experiment_produces_sane_metrics() {
        let exp = Experiment::new(
            ProtocolKind::Diknn(DiknnConfig::default()),
            small_scenario(),
            small_workload(),
        );
        let m = exp.run_once(1);
        assert!(m.queries >= 1);
        assert!(m.completed >= 1, "{m:?}");
        assert!(m.latency_s > 0.0 && m.latency_s < 10.0, "{m:?}");
        assert!(m.energy_j > 0.0);
        assert!(m.pre_accuracy > 0.5, "{m:?}");
        assert!(m.post_accuracy > 0.5, "{m:?}");
    }

    #[test]
    fn aggregate_over_multiple_seeds() {
        let exp = Experiment::new(
            ProtocolKind::Diknn(DiknnConfig::default()),
            small_scenario(),
            small_workload(),
        );
        let agg = exp.run(2, 42);
        assert_eq!(agg.runs, 2);
        assert!(agg.post_accuracy.mean > 0.5);
        assert!(agg.completion_rate.mean > 0.5);
    }

    #[test]
    fn all_protocols_run_through_the_driver() {
        for proto in [
            ProtocolKind::Diknn(DiknnConfig::default()),
            ProtocolKind::Kpt(KptConfig::default()),
            ProtocolKind::PeerTree(PeerTreeConfig::default()),
            ProtocolKind::Flood(FloodConfig::default()),
            ProtocolKind::Centralized(CentralizedConfig::default()),
        ] {
            let name = proto.name();
            let exp = Experiment::new(proto, small_scenario(), small_workload());
            let m = exp.run_once(3);
            assert!(m.queries >= 1, "{name}: no queries");
            assert!(m.completed >= 1, "{name}: no query completed ({m:?})");
        }
    }

    #[test]
    fn experiments_are_deterministic() {
        let exp = Experiment::new(
            ProtocolKind::Kpt(KptConfig::default()),
            small_scenario(),
            small_workload(),
        );
        assert_eq!(exp.run_once(9), exp.run_once(9));
    }
}
