//! `traffic_mix_n150`: the closed control/data loop of
//! `TrafficEngine::run`, decomposed into its public calls so that each
//! layer gets a span, run for four data-plane arms back to back on the
//! same underlay seed.

use super::{scaled, timed_setup, Outcome, RunArgs, SETUP_REPS};
use crate::spec;
use crate::stats::Fnv;
use crate::trace::{Tracer, RUN_EPOCH_TREE};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{Metric, Simulator};
use egoist_graph::DistanceMatrix;
use egoist_traffic::demand::{DemandGenerator, WorkloadKind};
use egoist_traffic::engine::{TrafficConfig, TrafficEngine};
use egoist_traffic::feedback::{self, AimdController};
use egoist_traffic::policy::{DataPolicyKind, RoutingPolicy};
use egoist_traffic::report::TrafficReport;
use egoist_traffic::router::{RouteInputs, RouteOutcome};
use std::time::Instant;

/// One data-plane arm, with the names of its span and layer metrics.
pub struct Arm {
    pub name: &'static str,
    route_span: &'static str,
    route_ms: &'static str,
    delivery: &'static str,
    p99: &'static str,
    policy: DataPolicyKind,
    max_paths: usize,
    workload: WorkloadKind,
    /// Flows per epoch at full size.
    flows: usize,
}

macro_rules! arm {
    ($name:literal, $policy:expr, $max_paths:expr, $workload:expr, $flows:expr) => {
        Arm {
            name: $name,
            route_span: concat!("traffic.route_epoch.", $name),
            route_ms: concat!("traffic.route_epoch.", $name, ".ms"),
            delivery: concat!("traffic.arm.", $name, ".delivery_ratio"),
            p99: concat!("traffic.arm.", $name, ".p99_latency_ms"),
            policy: $policy,
            max_paths: $max_paths,
            workload: $workload,
            flows: $flows,
        }
    };
}

/// Uniform arms carry 400k flows per epoch (flows >> nodes, so the data
/// plane and the report writer dominate); the multipath arm carries 20k
/// gravity flows because each one costs a disjoint-path computation.
pub const ARMS: [Arm; 4] = [
    arm!(
        "spf",
        DataPolicyKind::ShortestPath,
        1,
        WorkloadKind::Uniform,
        400_000
    ),
    arm!(
        "mp2",
        DataPolicyKind::ShortestPath,
        2,
        WorkloadKind::Gravity { exponent: 1.2 },
        20_000
    ),
    arm!(
        "backpressure",
        DataPolicyKind::Backpressure,
        1,
        WorkloadKind::Uniform,
        400_000
    ),
    arm!(
        "delay_aware",
        DataPolicyKind::DelayAware,
        1,
        WorkloadKind::Uniform,
        400_000
    ),
];

/// Arms whose p99 counts end to end. Backpressure trades latency for
/// throughput by design, and the multipath arm's gravity hot spots land
/// on different access links with every seed (its p99 moves ±15% seed
/// to seed, the uniform arms' ±2%), so those two stay layer metrics.
const LATENCY_ARMS: [&str; 2] = ["spf", "delay_aware"];

/// Offered load where the `spf` arm delivers 0.6–0.8 at n=150 k=6.
const OFFERED_MBPS: f64 = 800.0;

pub struct Shape {
    pub n: usize,
    pub k: usize,
    /// Timed epochs per arm (after the cold epoch 0).
    pub epochs: usize,
    /// Divide every arm's flow count by this (smoke / tests).
    pub flow_divisor: usize,
}

pub fn shape(args: &RunArgs) -> Shape {
    Shape {
        n: if args.smoke { 40 } else { 150 },
        k: 6,
        epochs: scaled(args.seconds, 1.0, 2),
        flow_divisor: if args.smoke { 100 } else { 1 },
    }
}

pub fn arm_config(arm: &Arm, shape: &Shape, seed: u64) -> TrafficConfig {
    let mut cfg = TrafficConfig::new(
        shape.n,
        shape.k,
        PolicyKind::BestResponse,
        Metric::DelayPing,
        seed,
    );
    cfg.sim.epochs = 1 + shape.epochs;
    cfg.sim.warmup_epochs = 1 + shape.epochs / 2;
    cfg.workload = arm.workload;
    cfg.offered_mbps = OFFERED_MBPS;
    cfg.flows_per_epoch = arm.flows / shape.flow_divisor;
    cfg.router.max_paths = arm.max_paths;
    cfg.data_policy = arm.policy;
    cfg
}

/// Flow-level tallies over steady epochs.
#[derive(Default)]
struct Tally {
    offered: u64,
    lost: u64,
    invalid: u64,
}

/// The state `TrafficEngine::run` keeps across epochs.
struct ArmRun {
    cfg: TrafficConfig,
    sim: Simulator,
    demand: DemandGenerator,
    policy: Box<dyn RoutingPolicy + Send>,
    aimd: AimdController,
    report: TrafficReport,
    tally: Tally,
}

impl ArmRun {
    /// Everything `TrafficEngine::run` does before its epoch loop.
    fn new(cfg: TrafficConfig) -> Self {
        let sim = Simulator::new(cfg.sim.clone());
        let n = cfg.sim.n;
        let demand = DemandGenerator::new(
            cfg.workload,
            n,
            cfg.offered_mbps,
            cfg.flows_per_epoch,
            cfg.sim.seed,
            sim.delays().base(),
        );
        let policy = cfg
            .data_policy
            .instantiate(n, cfg.router, cfg.backpressure, cfg.delay_aware);
        let aimd = AimdController::new(cfg.aimd);
        let mut report = TrafficReport::new(
            sim.config_label(),
            demand.kind().label().to_string(),
            cfg.sim.seed,
            cfg.feedback.enabled,
            cfg.sim.warmup_epochs,
        );
        if cfg.data_policy != DataPolicyKind::ShortestPath {
            report.data_policy = Some(cfg.data_policy.label().to_string());
        }
        ArmRun {
            cfg,
            sim,
            demand,
            policy,
            aimd,
            report,
            tally: Tally::default(),
        }
    }

    /// One iteration of `TrafficEngine::run`'s epoch loop (the wiring
    /// policy is plain best response, so its traffic-aware demand feed
    /// is not part of this loop).
    fn epoch(&mut self, epoch: usize, arm: &Arm, tracer: &mut Tracer) {
        let ctx = || format!("arm={} epoch={epoch}", arm.name);
        let n = self.cfg.sim.n;
        let open = tracer.begin_with("core.run_epoch", ctx, RUN_EPOCH_TREE);
        let rewirings = self.sim.run_epoch(epoch);
        tracer.end(open);

        let flows = tracer.span("traffic.demand", ctx, || {
            let flows = self.demand.generate(epoch, self.sim.alive());
            self.aimd.shape(&flows)
        });

        let open = tracer.begin("traffic.inputs", ctx);
        let announced = self.sim.announced_view();
        let overlay = self.sim.wiring().to_graph(&announced, self.sim.alive());
        let true_delays = self.sim.delays().current();
        let node_load: Vec<f64> = (0..n).map(|i| self.sim.loads().instantaneous(i)).collect();
        let capacity =
            DistanceMatrix::from_fn(n, |i, j| self.sim.bandwidths().unloaded_available(i, j));
        let inputs = RouteInputs {
            overlay: &overlay,
            true_delays: &true_delays,
            node_load: &node_load,
            capacity: &capacity,
        };
        tracer.end(open);

        let outcome = tracer.span(arm.route_span, ctx, || {
            let outcome = self.policy.route_epoch(epoch as u64, &flows, &inputs);
            self.aimd.update(&outcome);
            outcome
        });
        drop(announced);

        tracer.span("traffic.feedback", ctx, || {
            feedback::apply(&mut self.sim, &outcome, &self.cfg.feedback)
        });
        let sample = tracer.span("core.measure", ctx, || self.sim.measure(epoch, rewirings));
        tracer.span("traffic.report", ctx, || {
            self.report.record(&outcome, &sample)
        });
        if epoch >= self.cfg.sim.warmup_epochs {
            tracer.span("bench.account", ctx, || self.tally.add(&outcome));
        }
    }
}

impl Tally {
    fn add(&mut self, outcome: &RouteOutcome) {
        for f in &outcome.flows {
            self.offered += 1;
            let d = f.delivered_mbps;
            if d == 0.0 {
                self.lost += 1;
            } else if !(d > 0.0 && d <= f.flow.rate_mbps * (1.0 + 1e-9) && f.latency_ms.is_finite())
            {
                self.invalid += 1;
            }
        }
    }
}

/// A whole arm through the decomposed loop, as report bytes.
pub fn decomposed(arm: &Arm, cfg: &TrafficConfig) -> String {
    let mut tracer = Tracer::new(false);
    let mut run = ArmRun::new(cfg.clone());
    for epoch in 0..cfg.sim.epochs {
        run.epoch(epoch, arm, &mut tracer);
    }
    run.report.to_json()
}

/// Decomposed loop ≡ `TrafficEngine::run` for every arm on a reduced
/// configuration.
pub fn decomposed_matches_library(seed: u64) -> bool {
    let small = Shape {
        n: 40,
        k: 4,
        epochs: 3,
        flow_divisor: 100,
    };
    ARMS.iter().all(|arm| {
        let cfg = arm_config(arm, &small, seed);
        TrafficEngine::run(&cfg).to_json() == decomposed(arm, &cfg)
    })
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let shape = shape(args);
    let mut out = Outcome {
        sizes: vec![
            ("n", shape.n as f64),
            ("k", shape.k as f64),
            ("timed_epochs_per_arm", shape.epochs as f64),
            ("arms", ARMS.len() as f64),
            ("offered_mbps", OFFERED_MBPS),
        ],
        ..Outcome::default()
    };
    out.check(
        "decomposed loop == TrafficEngine::run at n=40, all arms",
        decomposed_matches_library(args.seed),
    );

    // Set-up: every arm's models, simulator, policy, and cold epoch 0.
    let (mut arms, setup_s) = timed_setup(SETUP_REPS, || {
        let mut inert = Tracer::new(false);
        ARMS.iter()
            .map(|arm| {
                let mut run = ArmRun::new(arm_config(arm, &shape, args.seed));
                run.epoch(0, arm, &mut inert);
                run
            })
            .collect::<Vec<ArmRun>>()
    });

    egoist_obs::registry().reset();
    let from_ns = tracer.mark();
    let t = Instant::now();
    for (arm, run) in ARMS.iter().zip(arms.iter_mut()) {
        for epoch in 1..run.cfg.sim.epochs {
            run.epoch(epoch, arm, tracer);
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let traced_ms = tracer.top_level_ms_since(from_ns);

    out.e2e.insert(spec::WALL_S, wall_s);
    out.e2e.insert(spec::SETUP_S, setup_s);
    let (mut offered, mut delivered) = (0.0, 0.0);
    let mut p99 = f64::NEG_INFINITY;
    let mut fp = Fnv::default();
    let mut flows_recorded = 0u64;
    let mut route_changes = 0u64;
    for (arm, run) in ARMS.iter().zip(&arms) {
        let s = &run.report.summary;
        offered += s.offered_mbps;
        delivered += s.delivered_mbps;
        if LATENCY_ARMS.contains(&arm.name) {
            p99 = p99.max(s.p99_latency_ms);
        }
        fp.bytes(run.report.to_json().as_bytes());
        out.ops += run.tally.offered;
        out.ops_lost += run.tally.lost;
        out.failed += run.tally.invalid;
        flows_recorded += (run.cfg.flows_per_epoch * shape.epochs) as u64;
        route_changes += s.route_changes as u64;
    }
    out.fingerprint = fp.finish();
    let delivery_ratio = delivered / offered;
    out.e2e.insert(spec::DELIVERY_RATIO, delivery_ratio);
    out.e2e.insert(spec::P99_LATENCY_MS, p99);
    out.check(
        "0 < delivery_ratio <= 1",
        delivery_ratio > 0.0 && delivery_ratio <= 1.0,
    );
    out.check("p99_latency_ms finite", p99.is_finite());

    if tracer.on() {
        let reg = egoist_obs::registry();
        let span_ms = |name: &str| reg.span_value(name).1 as f64 / 1e6;
        let l = &mut out.layers;
        for (metric, span) in [
            ("core.run_epoch.ms", "core.run_epoch"),
            ("core.measure.ms", "core.measure"),
            ("traffic.demand.ms", "traffic.demand"),
            ("traffic.inputs.ms", "traffic.inputs"),
            ("traffic.feedback.ms", "traffic.feedback"),
            ("traffic.report.ms", "traffic.report"),
        ] {
            l.insert(metric, tracer.total_ms(span));
        }
        l.insert(
            "core.run_epoch.calls",
            tracer.calls("core.run_epoch") as f64,
        );
        l.insert("core.run_epoch.self.ms", tracer.self_ms("core.run_epoch"));
        l.insert("core.turn.solver.ms", span_ms("core.epoch.turn.solver"));
        l.insert("core.turn.residual.ms", span_ms("core.epoch.turn.residual"));
        l.insert("core.turn.absorb.ms", span_ms("core.epoch.turn.absorb"));
        l.insert("core.turns", reg.counter_value("core.turns") as f64);
        l.insert("core.rewirings", reg.counter_value("core.rewirings") as f64);
        l.insert("graph.apsp.build.ms", span_ms("graph.apsp.build"));
        l.insert(
            "graph.apsp.sources",
            reg.counter_value("graph.apsp.sources") as f64,
        );
        for (arm, run) in ARMS.iter().zip(&arms) {
            l.insert(arm.route_ms, tracer.total_ms(arm.route_span));
            l.insert(arm.delivery, run.report.summary.delivery_ratio);
            l.insert(arm.p99, run.report.summary.p99_latency_ms);
        }
        l.insert(
            "traffic.report.ns_per_flow",
            tracer.total_ms("traffic.report") * 1e6 / flows_recorded.max(1) as f64,
        );
        l.insert(
            "traffic.flows.offered",
            reg.counter_value("traffic.flows.offered") as f64,
        );
        l.insert(
            "traffic.flows.dropped",
            reg.counter_value("traffic.flows.dropped") as f64,
        );
        l.insert("traffic.route_changes", route_changes as f64);
        l.insert("trace.coverage", traced_ms / (wall_s * 1e3));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposed_loop_is_the_library_run_for_all_four_arms() {
        assert!(decomposed_matches_library(11));
        assert!(decomposed_matches_library(12));
    }

    #[test]
    fn smoke_run_reports_its_metrics() {
        let args = RunArgs {
            workload: String::new(),
            seed: 3,
            seconds: 3,
            traced: false,
            smoke: true,
        };
        let out = run(&args, &mut Tracer::new(false));
        assert!(out.correct(), "{:?}", out.checks);
        assert!(out.ops > 0 && out.ops_lost <= out.ops && out.failed == 0);
        assert!(out.e2e[spec::P99_LATENCY_MS] > 0.0);
    }
}
