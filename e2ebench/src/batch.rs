//! Batch runs: a call-for-call mirror of `Experiment::run_once`, built
//! from the same public functions in the same order, so set-up time, the
//! event loop and the event count are visible from outside the program.

use std::time::Instant;

use diknn_baselines::{Centralized, Flood, Kpt, PeerTree};
use diknn_core::{Diknn, KnnProtocol};
use diknn_sim::{Protocol, SharedMobility, SimConfig, Simulator, TraceConfig};
use diknn_workloads::{invariants, workload, Experiment, GroundTruth, ProtocolKind, RunMetrics};

use crate::spans::{self, Probe};
use crate::stats::digest;
use crate::wrap::{self, Timed};
use crate::{timed, verdict, Counts};

/// One protocol run of a batch workload.
pub struct BatchOut {
    pub metrics: RunMetrics,
    /// FNV-1a of the `RunMetrics` Debug string.
    pub digest: u64,
    pub setup_s: f64,
    pub loop_s: f64,
    pub counts: Counts,
    /// The run's plans when tracing (for the mobility calibration loop).
    pub plans: Vec<SharedMobility>,
}

/// Mirror of `Experiment::run_once(seed)`. Tracing wraps the plans and the
/// protocol and records spans; the result is identical either way.
pub fn run_once(exp: &Experiment, seed: u64, probe: &mut Probe) -> Result<BatchOut, String> {
    let t0 = Instant::now(); // lint: wall-clock-ok (host-side benchmark timing)
    let mut scenario = exp.scenario.clone();
    match &exp.protocol {
        ProtocolKind::PeerTree(cfg) => {
            scenario.infrastructure = PeerTree::clusterhead_positions(scenario.field, cfg.grid);
        }
        ProtocolKind::Centralized(_) => {
            scenario.infrastructure = vec![Centralized::base_position(scenario.field)];
        }
        _ => scenario.infrastructure.clear(),
    }
    let plans = probe.span("scenario.build", spans::SCENARIO, || scenario.build(seed));
    let plans = if probe.on() {
        wrap::counting(plans)
    } else {
        plans
    };
    let oracle = GroundTruth::new(plans.clone(), scenario.nodes);
    let kept = if probe.on() {
        plans.clone()
    } else {
        Vec::new()
    };
    let requests = probe.span("workload.generate", spans::SCENARIO, || {
        workload::generate(&scenario, &exp.workload, seed)
    });
    let mut counts = Counts::default();
    counts.add("scenario.plans", plans.len() as f64);
    counts.add("scenario.requests", requests.len() as f64);
    let mut sim_cfg = scenario.sim_config();
    if let Some(tweak) = exp.sim_tweak {
        tweak(&mut sim_cfg);
    }
    if let Some(plan) = &exp.fault_plan {
        sim_cfg.faults = plan.clone();
    }
    if exp.check_invariants {
        sim_cfg.trace = TraceConfig::enabled();
    }
    let run = Setup {
        t0,
        sim_cfg,
        plans,
        seed,
        oracle: &oracle,
        check: exp.check_invariants,
        kept,
        counts,
    };
    match &exp.protocol {
        ProtocolKind::Diknn(cfg) => run.dispatch(probe, Diknn::new(cfg.clone(), requests)),
        ProtocolKind::Kpt(cfg) => run.dispatch(probe, Kpt::new(cfg.clone(), requests)),
        ProtocolKind::PeerTree(cfg) => run.dispatch(
            probe,
            PeerTree::new(cfg.clone(), scenario.field, scenario.nodes, requests),
        ),
        ProtocolKind::Flood(cfg) => run.dispatch(probe, Flood::new(cfg.clone(), requests)),
        ProtocolKind::Centralized(cfg) => run.dispatch(
            probe,
            Centralized::new(cfg.clone(), scenario.field, scenario.nodes, requests),
        ),
    }
}

struct Setup<'a> {
    t0: Instant,
    sim_cfg: SimConfig,
    plans: Vec<SharedMobility>,
    seed: u64,
    oracle: &'a GroundTruth,
    check: bool,
    kept: Vec<SharedMobility>,
    counts: Counts,
}

impl Setup<'_> {
    fn dispatch<P: Protocol + KnnProtocol>(
        self,
        probe: &mut Probe,
        protocol: P,
    ) -> Result<BatchOut, String> {
        if probe.on() {
            self.execute(probe, Timed(protocol))
        } else {
            self.execute(probe, protocol)
        }
    }

    /// The `execute` half of `run_once`: simulate, finish, check, measure.
    fn execute<P: Protocol + KnnProtocol>(
        self,
        probe: &mut Probe,
        protocol: P,
    ) -> Result<BatchOut, String> {
        let Setup {
            t0,
            sim_cfg,
            plans,
            seed,
            oracle,
            check,
            kept,
            mut counts,
        } = self;
        let mut sim = probe.span("sim.new", spans::SETUP, || {
            Simulator::new(sim_cfg, plans, protocol, seed)
        });
        probe.span("sim.warm", spans::SETUP, || sim.warm_neighbor_tables());
        let setup_s = t0.elapsed().as_secs_f64();
        let (_, loop_s) = timed(|| probe.span("sim.run", spans::ENGINE, || sim.run()));
        let (mut protocol, ctx) = sim.into_parts();
        probe.span("protocol.finish", spans::PROTOCOL, || protocol.finish(&ctx));
        let violations = if check {
            probe.span("invariants.check", spans::INVARIANTS, || {
                invariants::check(ctx.trace(), protocol.outcomes())
            })
        } else {
            Vec::new()
        };
        let energy = ctx.total_protocol_energy_j();
        let stats = *ctx.stats();
        let metrics = probe.span("metrics.compute", spans::ORACLE, || {
            RunMetrics::compute(
                protocol.outcomes(),
                &stats,
                energy,
                ctx.flow_energy_j(),
                oracle,
            )
        });
        verdict(&violations, &metrics)?;
        counts.engine(&stats, ctx.perf());
        counts.queries(&metrics);
        if check {
            counts.add("inv.records", ctx.trace().len() as f64);
        }
        let digest = digest(&format!("{metrics:?}"));
        Ok(BatchOut {
            metrics,
            digest,
            setup_s,
            loop_s,
            counts,
            plans: kept,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Recorder;
    use diknn_baselines::PeerTreeConfig;
    use diknn_core::DiknnConfig;
    use diknn_workloads::{ScenarioConfig, WorkloadConfig};

    /// Bare, wrapped and `Experiment::run_once` runs of a 50-node mobile
    /// scenario agree digest for digest, so the mirrored batch path cannot
    /// drift from `Experiment::run_once` and the wrappers change nothing.
    #[test]
    fn wrappers_and_mirror_are_transparent() {
        for protocol in [
            ProtocolKind::Diknn(DiknnConfig::default()),
            ProtocolKind::PeerTree(PeerTreeConfig::default()),
        ] {
            let exp = Experiment::new(
                protocol,
                ScenarioConfig {
                    nodes: 50,
                    duration: 30.0,
                    ..ScenarioConfig::default()
                },
                WorkloadConfig {
                    k: 5,
                    last_at: 15.0,
                    ..WorkloadConfig::default()
                },
            );
            let name = exp.protocol.name();
            let bare = run_once(&exp, 7, &mut Probe(None)).map(|o| o.digest);
            let mut rec = Recorder::default();
            let wrapped = run_once(&exp, 7, &mut Probe(Some(&mut rec))).map(|o| o.digest);
            let reference = digest(&format!("{:?}", exp.run_once(7)));
            assert_eq!(bare, Ok(reference), "{name}: mirror differs from run_once");
            assert_eq!(wrapped, Ok(reference), "{name}: wrappers changed the run");
            assert!(
                rec.aggs().iter().any(|a| a.count > 0),
                "{name}: no callbacks timed"
            );
            assert!(
                rec.spans().iter().any(|s| s.mobility_calls > 0),
                "{name}: no position_at calls counted"
            );
        }
    }
}
