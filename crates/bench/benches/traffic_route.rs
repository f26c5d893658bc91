//! Criterion bench: the data-plane layers the `traffic_mix_n150`
//! benchmark workload times end to end, at its shape (n=150, k=6,
//! 800 Mbps offered), one per arm plus the report:
//!
//! * `spf` — one epoch of single-path routing of 400k uniform flows;
//! * `record` — `TrafficReport::record` on that 400k-flow outcome;
//! * `backpressure` — a fresh backpressure engine run for
//!   `BP_EPOCHS` epochs of the same 400k flows (its queues carry over
//!   from epoch to epoch, so a fixed count from empty queues keeps
//!   every iteration the same work);
//! * `delay_aware` — one epoch of the delay-aware policy on those flows,
//!   its commitments and queue estimates carried from iteration to
//!   iteration (steady state after the first);
//! * `mp2` — one epoch of 2-path routing of 20k gravity flows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{Metric, SimConfig, Simulator};
use egoist_graph::{DiGraph, DistanceMatrix};
use egoist_traffic::demand::{DemandGenerator, Flow, WorkloadKind};
use egoist_traffic::policy::{DataPolicyKind, DelayAwareConfig, RoutingPolicy};
use egoist_traffic::report::TrafficReport;
use egoist_traffic::router::{FlowRouter, RouteInputs, RouteOutcome, RouterConfig};
use egoist_traffic::BackpressureConfig;
use std::hint::black_box;

const N: usize = 150;
const SEED: u64 = 11;
/// Epochs per `backpressure` iteration.
const BP_EPOCHS: usize = 3;

/// One epoch's router inputs on a BR overlay just past its join storm.
struct Epoch {
    sim: Simulator,
    flows: Vec<Flow>,
    overlay: DiGraph,
    true_delays: DistanceMatrix,
    node_load: Vec<f64>,
    capacity: DistanceMatrix,
}

impl Epoch {
    fn new(workload: WorkloadKind, flows: usize) -> Self {
        let mut cfg = SimConfig::baseline(6, PolicyKind::BestResponse, Metric::DelayPing, SEED);
        cfg.n = N;
        let mut sim = Simulator::new(cfg);
        sim.run_epoch(0);
        let demand = DemandGenerator::new(workload, N, 800.0, flows, SEED, sim.delays().base());
        Epoch {
            flows: demand.generate(0, sim.alive()),
            overlay: sim.wiring().to_graph(&sim.announced_view(), sim.alive()),
            true_delays: sim.delays().current(),
            node_load: (0..N).map(|i| sim.loads().instantaneous(i)).collect(),
            capacity: DistanceMatrix::from_fn(N, |i, j| sim.bandwidths().unloaded_available(i, j)),
            sim,
        }
    }

    fn inputs(&self) -> RouteInputs<'_> {
        RouteInputs {
            overlay: &self.overlay,
            true_delays: &self.true_delays,
            node_load: &self.node_load,
            capacity: &self.capacity,
        }
    }

    fn route(&self, max_paths: usize) -> RouteOutcome {
        let router = FlowRouter::new(RouterConfig {
            max_paths,
            ..RouterConfig::default()
        });
        router.route(&self.flows, &self.inputs())
    }

    /// A fresh `kind` policy with the workload's default tuning.
    fn policy(kind: DataPolicyKind) -> Box<dyn RoutingPolicy + Send> {
        kind.instantiate(
            N,
            RouterConfig::default(),
            BackpressureConfig::default(),
            DelayAwareConfig::default(),
        )
    }
}

fn bench_traffic_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("traffic_route");
    group.sample_size(10);

    let uniform = Epoch::new(WorkloadKind::Uniform, 400_000);
    group.throughput(Throughput::Elements(400_000));
    group.bench_function("spf", |b| b.iter(|| black_box(uniform.route(1))));
    let (outcome, sample) = (uniform.route(1), uniform.sim.measure(0, 0));
    group.bench_function("record", |b| {
        b.iter(|| {
            let mut report = TrafficReport::new(String::new(), String::new(), SEED, true, 0);
            report.record(&outcome, &sample);
            black_box(report.summary.p99_latency_ms)
        })
    });

    group.throughput(Throughput::Elements((BP_EPOCHS * 400_000) as u64));
    group.bench_function("backpressure", |b| {
        b.iter(|| {
            let mut engine = Epoch::policy(DataPolicyKind::Backpressure);
            for epoch in 0..BP_EPOCHS {
                black_box(engine.route_epoch(epoch as u64, &uniform.flows, &uniform.inputs()));
            }
        })
    });
    group.throughput(Throughput::Elements(400_000));
    let mut delay_aware = Epoch::policy(DataPolicyKind::DelayAware);
    let mut epoch = 0;
    group.bench_function("delay_aware", |b| {
        b.iter(|| {
            epoch += 1;
            black_box(delay_aware.route_epoch(epoch, &uniform.flows, &uniform.inputs()))
        })
    });

    let gravity = Epoch::new(WorkloadKind::Gravity { exponent: 1.2 }, 20_000);
    group.throughput(Throughput::Elements(20_000));
    group.bench_function("mp2", |b| b.iter(|| black_box(gravity.route(2))));
    group.finish();
}

criterion_group!(benches, bench_traffic_route);
criterion_main!(benches);
