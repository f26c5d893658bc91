//! Criterion bench: sampling mechanisms (§5) — uniform vs `b_ij`-scored
//! shortlist construction, and the `b_ij` ranking ingredients (radius-r
//! neighborhoods). Ablation over the radius r, the design knob the paper
//! fixes at 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egoist_core::sampling::{neighborhood, rank, shortlist};
use egoist_graph::csr::MaxMin;
use egoist_graph::{DiGraph, NodeId};
use egoist_netsim::rng::derive;
use std::hint::black_box;

/// A 295-node, k=3 circulant-ish overlay.
fn overlay(n: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for o in [1usize, 7, 31] {
            let j = (i + o) % n;
            if i != j {
                g.add_edge(
                    NodeId::from_index(i),
                    NodeId::from_index(j),
                    1.0 + (o as f64),
                );
            }
        }
    }
    g
}

fn bench_sampling(c: &mut Criterion) {
    let n = 295;
    let g = overlay(n);
    let candidates: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let direct = vec![10.0; n];

    let mut group = c.benchmark_group("sampling");
    group.bench_function("random_m16", |b| {
        let mut rng = derive(1, "s");
        b.iter(|| black_box(shortlist::<MaxMin>(&candidates, &[], 16, None, &mut rng)))
    });
    for r in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("topology_biased_m16_r", r), &r, |b, &r| {
            let mut rng = derive(1, "t");
            let b_ij = |j: NodeId| rank(&g, j, r, &direct);
            b.iter(|| {
                black_box(shortlist::<MaxMin>(
                    &candidates,
                    &[],
                    16,
                    Some(&b_ij),
                    &mut rng,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("neighborhood_r", r), &r, |b, &r| {
            b.iter(|| black_box(neighborhood(&g, NodeId(0), r)))
        });
    }
    group.bench_function("rank_single", |b| {
        b.iter(|| black_box(rank(&g, NodeId(0), 2, &direct)))
    });
    group.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
