//! Criterion bench: best-response computation cost.
//!
//! Validates §5's scaling claims: exact BR explodes combinatorially,
//! local search is polynomial but grows with n, and sampled BR (the §5
//! mechanism) keeps the per-re-wiring cost nearly flat as the overlay
//! grows. Also benches the HybridBR forced-members variant (ablation for
//! the §3.3 design).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egoist_core::cost::{disconnection_penalty, Preferences};
use egoist_core::policies::bandwidth::{all_pairs_widest, BwInstance};
use egoist_core::policies::best_response::{BestResponse, BrInstance};
use egoist_core::policies::solver::SolverArena;
use egoist_core::policies::{PolicyKind, WiringContext};
use egoist_core::sampling::shortlist;
use egoist_core::wiring::Wiring;
use egoist_graph::apsp::apsp;
use egoist_graph::csr::MinPlus;
use egoist_graph::{DiGraph, DistanceMatrix, NodeId};
use egoist_netsim::delay::DelayModel;
use egoist_netsim::rng::derive;
use egoist_netsim::{BandwidthModel, PlanetLabSpec, Region};
use std::hint::black_box;

struct Fixture {
    residual: DistanceMatrix,
    candidates: Vec<NodeId>,
    direct: Vec<f64>,
    prefs: Preferences,
    alive: Vec<bool>,
    penalty: f64,
}

fn fixture(n: usize, k: usize) -> Fixture {
    let d = DelayModel::from_spec(&PlanetLabSpec::uniform(Region::NorthAmerica, n), 1)
        .base()
        .clone();
    // A circulant wiring as the residual overlay.
    let mut w = Wiring::empty(n);
    for i in 0..n {
        let mut neigh = Vec::new();
        for o in 1..=k {
            neigh.push(NodeId::from_index((i + o) % n));
        }
        w.rewire(NodeId::from_index(i), neigh);
    }
    let alive = vec![true; n];
    let residual = apsp(&w.residual_graph(NodeId(0), &d, &alive));
    Fixture {
        candidates: (1..n).map(NodeId::from_index).collect(),
        direct: d.row(0).to_vec(),
        prefs: Preferences::uniform(n),
        penalty: disconnection_penalty(&d),
        residual,
        alive,
    }
}

impl Fixture {
    fn ctx<'a>(&'a self, k: usize, candidates: &'a [NodeId]) -> WiringContext<'a> {
        WiringContext {
            node: NodeId(0),
            k,
            candidates,
            direct: &self.direct,
            residual: egoist_core::ResidualView::dense(&self.residual),
            prefs: &self.prefs,
            alive: &self.alive,
            penalty: self.penalty,
            current: &[],
        }
    }
}

fn bench_best_response(c: &mut Criterion) {
    let k = 3;
    let mut group = c.benchmark_group("best_response");
    group.sample_size(20);
    for n in [20usize, 50, 100, 295] {
        let f = fixture(n, k);
        group.bench_with_input(BenchmarkId::new("local_search", n), &n, |b, _| {
            let mut solver = BestResponse::local_search();
            b.iter(|| {
                let ctx = f.ctx(k, &f.candidates);
                black_box(solver.solve(&ctx))
            })
        });
        // Sampled BR: m = 16 candidates regardless of n (§5).
        group.bench_with_input(BenchmarkId::new("sampled_m16", n), &n, |b, _| {
            let mut solver = BestResponse::local_search();
            let mut rng = derive(2, "bench-sample");
            let sample = shortlist::<MinPlus>(&f.candidates, &[], 16, None, &mut rng);
            b.iter(|| {
                let ctx = f.ctx(k, &sample);
                black_box(solver.solve(&ctx))
            })
        });
    }
    // Exact BR only at small n (combinatorial).
    for n in [12usize, 16, 20] {
        let f = fixture(n, k);
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            let mut solver = BestResponse::exact();
            b.iter(|| {
                let ctx = f.ctx(k, &f.candidates);
                black_box(solver.solve(&ctx))
            })
        });
    }
    group.finish();
}

fn bench_hybrid_ablation(c: &mut Criterion) {
    // Ablation: cost of forcing k2 donated links into the local search.
    let mut group = c.benchmark_group("hybrid_forced_members");
    group.sample_size(20);
    let f = fixture(50, 5);
    for k2 in [0usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(k2), &k2, |b, &k2| {
            let ctx = f.ctx(5, &f.candidates);
            let mut inst = BrInstance::build(&ctx);
            let forced: Vec<usize> = (0..k2).collect();
            b.iter(|| {
                let init = inst.greedy(5, &forced);
                black_box(inst.local_search(5, init, &forced, 64))
            })
        });
    }
    group.finish();
}

fn bench_lazy_solver(c: &mut Criterion) {
    // The sweep count, visible without the whole-stack benchmark: the
    // shipped solver reads a candidate's row only when a stale bound
    // fails to reject it, `*_reference` are the eager loops (every
    // candidate, every swap pair, summed in full) the Recompute oracle
    // still runs. Decisions are bit-identical; only the wall time
    // differs, and the gap widens with |cand|.
    let mut group = c.benchmark_group("lazy_solver");
    group.sample_size(10);
    let k = 8;
    for cands in [150usize, 500] {
        let f = fixture(cands + 1, k);
        // A plausible current wiring: the k cheapest direct links.
        let mut current = f.candidates.clone();
        current.sort_by(|a, b| f.direct[a.index()].total_cmp(&f.direct[b.index()]));
        current.truncate(k);
        let ctx = WiringContext {
            current: &current,
            ..f.ctx(k, &f.candidates)
        };
        let mut inst = BrInstance::build(&ctx);
        group.bench_with_input(BenchmarkId::new("lazy_greedy", cands), &cands, |b, _| {
            b.iter(|| black_box(inst.greedy(k, &[])))
        });
        group.bench_with_input(
            BenchmarkId::new("greedy_reference", cands),
            &cands,
            |b, _| b.iter(|| black_box(inst.greedy_reference(k, &[]))),
        );
        // The whole turn: build, greedy, both local searches.
        group.bench_with_input(BenchmarkId::new("solve", cands), &cands, |b, _| {
            let mut solver = BestResponse::local_search();
            b.iter(|| black_box(solver.solve(&ctx)))
        });
        group.bench_with_input(
            BenchmarkId::new("solve_reference", cands),
            &cands,
            |b, _| {
                let mut solver = BestResponse::local_search().with_reference(true);
                b.iter(|| black_box(solver.solve(&ctx)))
            },
        );
    }
    group.finish();
}

/// The eager bandwidth local search (every swap pair summed in full) the
/// pruned core replaced — the timing oracle for `bw_local_search`.
fn bw_local_search_eager(
    inst: &BwInstance,
    init: Vec<usize>,
    max_rounds: usize,
) -> (Vec<usize>, f64) {
    let nd = inst.dests.len();
    let mut subset = init;
    let mut utility = inst.eval(&subset);
    for _ in 0..max_rounds {
        let mut b1 = vec![(0.0f64, usize::MAX); nd];
        let mut b2 = vec![0.0f64; nd];
        for &c in &subset {
            for t in 0..nd {
                let v = inst.assignment(c, t);
                if v > b1[t].0 {
                    b2[t] = b1[t].0;
                    b1[t] = (v, c);
                } else if v > b2[t] {
                    b2[t] = v;
                }
            }
        }
        let mut best_swap: Option<(usize, usize, f64)> = None;
        for &out in &subset {
            for inn in (0..inst.cand.len()).filter(|c| !subset.contains(c)) {
                let mut new_u = 0.0;
                for t in 0..nd {
                    let surviving = if b1[t].1 == out { b2[t] } else { b1[t].0 };
                    new_u += inst.weight[t] * surviving.max(inst.assignment(inn, t));
                }
                if new_u > utility + 1e-12 && best_swap.map(|(_, _, u)| new_u > u).unwrap_or(true) {
                    best_swap = Some((out, inn, new_u));
                }
            }
        }
        match best_swap {
            Some((out, inn, new_u)) => {
                subset.retain(|&c| c != out);
                subset.push(inn);
                utility = new_u;
            }
            None => break,
        }
    }
    (subset, utility)
}

fn bench_bw_local_search(c: &mut Criterion) {
    // The widest-path semiring on the same core, n = 300, k = 8, from a
    // poor start (the k last candidates) so several swap rounds run.
    let (n, k) = (300usize, 8usize);
    let bw = BandwidthModel::new(n, 1);
    let mut g = DiGraph::new(n);
    for i in 1..n {
        for o in 1..=k {
            let j = (i + o) % n;
            g.add_edge(
                NodeId::from_index(i),
                NodeId::from_index(j),
                bw.available(i, j),
            );
        }
    }
    let residual = all_pairs_widest(&g);
    let direct: Vec<f64> = (0..n).map(|j| bw.available(0, j)).collect();
    let candidates: Vec<NodeId> = (1..n).map(NodeId::from_index).collect();
    let ctx = WiringContext {
        node: NodeId(0),
        k,
        candidates: &candidates,
        direct: &direct,
        residual: egoist_core::ResidualView::dense(&residual),
        prefs: &Preferences::uniform(n),
        alive: &vec![true; n],
        penalty: 0.0,
        current: &[],
    };
    let mut inst = BwInstance::build_in(&ctx, &mut SolverArena::default());
    let start: Vec<usize> = (inst.cand.len() - k..inst.cand.len()).collect();
    assert_eq!(
        inst.local_search(k, start.clone(), &[], 64),
        bw_local_search_eager(&inst, start.clone(), 64),
        "pruned and eager searches must agree"
    );
    let mut group = c.benchmark_group("bw_local_search");
    group.sample_size(10);
    group.bench_function("pruned", |b| {
        b.iter(|| black_box(inst.local_search(k, start.clone(), &[], 64)))
    });
    group.bench_function("eager", |b| {
        b.iter(|| black_box(bw_local_search_eager(&inst, start.clone(), 64)))
    });
    group.finish();
}

fn bench_full_sweep(c: &mut Criterion) {
    // One full round-robin sweep of the 50-node game, per policy.
    let mut group = c.benchmark_group("game_sweep_n50");
    group.sample_size(10);
    let d = DelayModel::planetlab_50(3).base().clone();
    for (label, kind) in [
        ("best_response", PolicyKind::BestResponse),
        (
            "epsilon_br",
            PolicyKind::EpsilonBestResponse { epsilon: 0.1 },
        ),
        ("k_closest", PolicyKind::Closest),
        ("k_random", PolicyKind::Random),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut game = egoist_core::game::Game::new(d.clone(), 3, kind, 7);
                black_box(game.sweep())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_best_response,
    bench_hybrid_ablation,
    bench_lazy_solver,
    bench_bw_local_search,
    bench_full_sweep
);
criterion_main!(benches);
