//! Criterion bench: graph substrate scaling (Dijkstra, APSP, widest
//! paths, max-flow, disjoint paths) on EGOIST-shaped overlays
//! (n nodes, out-degree k = 5), and the protocol node's residual-row
//! computation on the `fleet_br_n300` shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egoist_core::{ResidualArena, ResidualView};
use egoist_graph::apsp::{apsp, floyd_warshall};
use egoist_graph::dijkstra::dijkstra;
use egoist_graph::disjoint::edge_disjoint_paths;
use egoist_graph::maxflow::max_flow;
use egoist_graph::widest::widest_paths;
use egoist_graph::{CsrGraph, DiGraph, NodeId};
use egoist_netsim::delay::DelayModel;
use egoist_netsim::{PlanetLabSpec, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn overlay(n: usize, k: usize) -> DiGraph {
    let d = DelayModel::from_spec(&PlanetLabSpec::uniform(Region::NorthAmerica, n), 1)
        .base()
        .clone();
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for o in 1..=k {
            let j = (i + o * (n / (k + 1)).max(1)) % n;
            if i != j {
                g.add_edge(NodeId::from_index(i), NodeId::from_index(j), d.at(i, j));
            }
        }
    }
    g
}

fn bench_shortest_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("shortest_paths");
    for n in [50usize, 150, 295] {
        let g = overlay(n, 5);
        group.bench_with_input(BenchmarkId::new("dijkstra", n), &n, |b, _| {
            b.iter(|| black_box(dijkstra(&g, NodeId(0))))
        });
        group.bench_with_input(BenchmarkId::new("apsp", n), &n, |b, _| {
            b.iter(|| black_box(apsp(&g)))
        });
    }
    // Floyd–Warshall only at moderate n (O(n^3)).
    let g = overlay(50, 5);
    group.bench_function("floyd_warshall/50", |b| {
        b.iter(|| black_box(floyd_warshall(&g)))
    });
    group.finish();
}

fn bench_bandwidth_algos(c: &mut Criterion) {
    let mut group = c.benchmark_group("bandwidth_algos");
    for n in [50usize, 150] {
        let g = overlay(n, 5);
        group.bench_with_input(BenchmarkId::new("widest_paths", n), &n, |b, _| {
            b.iter(|| black_box(widest_paths(&g, NodeId(0))))
        });
        group.bench_with_input(BenchmarkId::new("max_flow", n), &n, |b, _| {
            b.iter(|| black_box(max_flow(&g, NodeId(0), NodeId::from_index(n - 1))))
        });
        group.bench_with_input(BenchmarkId::new("edge_disjoint", n), &n, |b, _| {
            b.iter(|| {
                black_box(edge_disjoint_paths(
                    &g,
                    NodeId(0),
                    NodeId::from_index(n - 1),
                ))
            })
        });
    }
    group.finish();
}

/// One re-wiring job's residual state at n=300, k=4: the dense
/// `apsp(G−i)` every job used to run, against the named rows swept in
/// one batch (`batched`, what the node does) — when the policy reads 20%
/// of them (`ping_sample = 8`, what `fleet_br_n300` measures), 50%, and
/// all of them (unbounded `ping_sample`, the `live_overlay` default —
/// the case that must not lose to dense).
fn bench_node_rewire(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_rewire");
    let (n, k, me) = (300usize, 4, NodeId(0));
    // A seeded random k-out digraph, like the wirings the fleet settles
    // into: strongly connected, so a sweep settles all n nodes
    // (`overlay`'s fixed strides reach only a handful at this n).
    let mut rng = StdRng::seed_from_u64(11);
    let mut g = DiGraph::new(n);
    for i in 0..n {
        while g.out_degree(NodeId::from_index(i)) < k {
            let j = rng.random_range(0..n);
            if j != i {
                let cost = 4.0 + 28.0 * rng.random::<f64>();
                g.add_edge(NodeId::from_index(i), NodeId::from_index(j), cost);
            }
        }
    }
    let csr = CsrGraph::from_digraph(&g);
    let mut residual_graph = g.clone();
    residual_graph.clear_out_edges(me);
    // Rows read, spread evenly: every 5th at 20%, every 2nd at 50%, all
    // at 100%.
    let sources = |percent: usize| (1..n).filter(move |s| s * percent % 100 < percent);
    let read = |view: ResidualView<'_>, percent: usize| -> f64 {
        sources(percent).map(|s| view.row(s)[(s + 1) % n]).sum()
    };
    for percent in [20usize, 50, 100] {
        group.bench_with_input(
            BenchmarkId::new("dense_apsp", percent),
            &percent,
            |b, &p| {
                b.iter(|| {
                    let dense = apsp(black_box(&residual_graph));
                    black_box(read(ResidualView::dense(&dense), p))
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("batched", percent), &percent, |b, &p| {
            b.iter(|| {
                let named = sources(p).map(NodeId::from_index);
                let arena = &mut ResidualArena::default();
                black_box(read(arena.sweep(black_box(&csr), me, named), p))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_shortest_paths,
    bench_bandwidth_algos,
    bench_node_rewire
);
criterion_main!(benches);
