//! Criterion bench: the three data-plane layers the `traffic_mix_n150`
//! benchmark workload times end to end, one epoch each at its shape
//! (n=150, k=6, 800 Mbps offered) — single-path routing of 400k uniform
//! flows, 2-path routing of 20k gravity flows, and `TrafficReport::record`
//! on a 400k-flow outcome.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{Metric, SimConfig, Simulator};
use egoist_graph::{DiGraph, DistanceMatrix};
use egoist_traffic::demand::{DemandGenerator, Flow, WorkloadKind};
use egoist_traffic::report::TrafficReport;
use egoist_traffic::router::{FlowRouter, RouteInputs, RouteOutcome, RouterConfig};
use std::hint::black_box;

const N: usize = 150;
const SEED: u64 = 11;

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

    fn route(&self, max_paths: usize) -> RouteOutcome {
        let router = FlowRouter::new(RouterConfig {
            max_paths,
            ..RouterConfig::default()
        });
        let inputs = RouteInputs {
            overlay: &self.overlay,
            true_delays: &self.true_delays,
            node_load: &self.node_load,
            capacity: &self.capacity,
        };
        router.route(&self.flows, &inputs)
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

    let gravity = Epoch::new(WorkloadKind::Gravity { exponent: 1.2 }, 20_000);
    group.throughput(Throughput::Elements(20_000));
    group.bench_function("mp2", |b| b.iter(|| black_box(gravity.route(2))));
    group.finish();
}

criterion_group!(benches, bench_traffic_route);
criterion_main!(benches);
