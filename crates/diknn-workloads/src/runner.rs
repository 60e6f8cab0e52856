//! The experiment driver: run a protocol over a scenario + workload for
//! several seeds and aggregate the paper's metrics.

use diknn_baselines::{
    Centralized, CentralizedConfig, Flood, FloodConfig, Kpt, KptConfig, PeerTree, PeerTreeConfig,
};
use diknn_core::{Diknn, DiknnConfig, KnnProtocol, QueryOutcome, QueryRequest};
use diknn_sim::{FlowLedger, SharedMobility, SimConfig, SimStats, Simulator, TraceConfig};

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
        let scenario = with_infrastructure(&self.protocol, &self.scenario);
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
        let run = Run {
            sim_cfg,
            plans,
            seed,
            check: self.check_invariants,
        }
        .dispatch(&self.protocol, &scenario, requests);
        RunMetrics::compute(
            &run.outcomes,
            &run.stats,
            run.energy_j,
            &run.flow_energy_j,
            &oracle,
        )
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

/// `scenario` with the infrastructure nodes `protocol` needs appended after
/// the data nodes: Peer-tree's clusterheads, Centralized's base station, and
/// none for the infrastructure-free protocols.
fn with_infrastructure(protocol: &ProtocolKind, scenario: &ScenarioConfig) -> ScenarioConfig {
    let mut scenario = scenario.clone();
    scenario.infrastructure = match protocol {
        ProtocolKind::PeerTree(cfg) => PeerTree::clusterhead_positions(scenario.field, cfg.grid),
        ProtocolKind::Centralized(_) => vec![Centralized::base_position(scenario.field)],
        ProtocolKind::Diknn(_) | ProtocolKind::Kpt(_) | ProtocolKind::Flood(_) => Vec::new(),
    };
    scenario
}

/// One simulation ready to start: its config, node plans and seed, and
/// whether to check the invariants once it has run.
struct Run {
    sim_cfg: SimConfig,
    plans: Vec<SharedMobility>,
    seed: u64,
    check: bool,
}

/// What a finished run leaves behind.
struct Finished {
    outcomes: Vec<QueryOutcome>,
    stats: SimStats,
    energy_j: f64,
    flow_energy_j: FlowLedger,
}

impl Run {
    /// [`Run::execute`] the protocol `kind` names, serving `requests` on
    /// `scenario`.
    fn dispatch(
        self,
        kind: &ProtocolKind,
        scenario: &ScenarioConfig,
        requests: Vec<QueryRequest>,
    ) -> Finished {
        let (field, nodes) = (scenario.field, scenario.nodes);
        match kind {
            ProtocolKind::Diknn(cfg) => self.execute(Diknn::new(cfg.clone(), requests)),
            ProtocolKind::Kpt(cfg) => self.execute(Kpt::new(cfg.clone(), requests)),
            ProtocolKind::PeerTree(cfg) => {
                self.execute(PeerTree::new(cfg.clone(), field, nodes, requests))
            }
            ProtocolKind::Flood(cfg) => self.execute(Flood::new(cfg.clone(), requests)),
            ProtocolKind::Centralized(cfg) => {
                self.execute(Centralized::new(cfg.clone(), field, nodes, requests))
            }
        }
    }

    /// Run `protocol` from a warm start, classify the queries that never
    /// finalised (dead sink, suppressed timer) and, with `check`, replay the
    /// recorded trace against the invariants, panicking on any violation.
    fn execute<P: KnnProtocol>(self, protocol: P) -> Finished {
        let mut sim = Simulator::new(self.sim_cfg, self.plans, protocol, self.seed);
        // Nodes have been in place before t=0: start with a warm beacon
        // round, as a long-running network would be.
        sim.warm_neighbor_tables();
        sim.run();
        let (mut protocol, ctx) = sim.into_parts();
        protocol.finish(&ctx);
        if self.check {
            invariants::assert_clean(ctx.trace(), protocol.outcomes());
        }
        Finished {
            outcomes: protocol.outcomes().to_vec(),
            stats: *ctx.stats(),
            energy_j: ctx.total_protocol_energy_j(),
            flow_energy_j: ctx.flow_energy_j().clone(),
        }
    }
}

/// Run `requests` once under `protocol` on `scenario` (with the protocol's
/// infrastructure) and return the raw outcomes and the total protocol
/// energy, with `fault_plan` installed when given. Every such run is also
/// an invariant check: it records a trace and replays it against the
/// outcomes before handing them back.
pub fn run_protocol_once_faulted(
    protocol: ProtocolKind,
    scenario: &ScenarioConfig,
    requests: Vec<QueryRequest>,
    seed: u64,
    fault_plan: Option<diknn_sim::FaultPlan>,
) -> (Vec<QueryOutcome>, f64) {
    let scenario = with_infrastructure(&protocol, scenario);
    let plans = scenario.build(seed);
    let mut sim_cfg = scenario.sim_config();
    if let Some(plan) = fault_plan {
        sim_cfg.faults = plan;
    }
    sim_cfg.trace = TraceConfig::enabled();
    let run = Run {
        sim_cfg,
        plans,
        seed,
        check: true,
    }
    .dispatch(&protocol, &scenario, requests);
    (run.outcomes, run.energy_j)
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
    fn infrastructure_follows_the_protocol() {
        let stale = ScenarioConfig {
            infrastructure: vec![diknn_geom::Point::new(1.0, 1.0)],
            ..small_scenario()
        };
        let infra = |p: ProtocolKind| with_infrastructure(&p, &stale).infrastructure.len();
        assert_eq!(infra(ProtocolKind::Diknn(DiknnConfig::default())), 0);
        assert_eq!(infra(ProtocolKind::Kpt(KptConfig::default())), 0);
        assert_eq!(infra(ProtocolKind::Flood(FloodConfig::default())), 0);
        assert_eq!(infra(ProtocolKind::PeerTree(PeerTreeConfig::default())), 25);
        assert_eq!(
            infra(ProtocolKind::Centralized(CentralizedConfig::default())),
            1
        );
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
