//! Criterion bench: one best-response wiring epoch of the route-state
//! engine.
//!
//! The quantity the epoch route-state engine optimizes is the wall time
//! of `Simulator::run_epoch` under BR — the per-epoch control-plane cost
//! that bounds every figure sweep and scaling experiment: one shared
//! snapshot per epoch state, residual rows repaired incrementally (whole
//! runs pinned by the goldens of `tests/engine_equivalence.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{Metric, SimConfig, Simulator};
use std::hint::black_box;

fn cfg(n: usize) -> SimConfig {
    let mut c = SimConfig::baseline(5, PolicyKind::BestResponse, Metric::DelayPing, 7);
    c.n = n;
    c.epochs = 4;
    c.warmup_epochs = 1;
    c
}

/// A simulator warmed past the initial join storm, so the benched epoch
/// reflects steady-state dynamics rather than first wiring.
fn warmed(n: usize) -> Simulator {
    let mut sim = Simulator::new(cfg(n));
    for epoch in 0..2 {
        sim.run_epoch(epoch);
    }
    sim
}

fn bench_epoch_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_step_br_delay");
    group.sample_size(10);
    for n in [50usize, 200] {
        group.bench_with_input(BenchmarkId::new("epoch_engine", n), &n, |b, &n| {
            let mut sim = warmed(n);
            let mut epoch = 2;
            b.iter(|| {
                epoch += 1;
                black_box(sim.run_epoch(epoch))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_epoch_step);
criterion_main!(benches);
