//! Figures 5–8: newcomer cost under sampling (§5).
//!
//! An n-node overlay (n = 295 sites, k = 3) is built with one of four
//! strategies — BR (incrementally, Fig. 5), k-Random (Fig. 6), k-Regular
//! (Fig. 7), k-Closest (Fig. 8). A newcomer then joins using each
//! strategy restricted to a random sample of size m, or BR over a
//! topology-biased sample (radius r = 2). Both samples are
//! `sampling::shortlist` — the stage every simulator turn goes through —
//! without a score and with `b_ij` as the score. Reported: newcomer's
//! realized cost normalized by BR-without-sampling.

use egoist_bench::{fast, print_expectation, print_figure, seeds, Series};
use egoist_core::cost::{disconnection_penalty, Preferences};
use egoist_core::game::Game;
use egoist_core::policies::best_response::BestResponse;
use egoist_core::policies::{PolicyKind, WiringContext};
use egoist_core::sampling::{rank, shortlist};
use egoist_graph::apsp::apsp;
use egoist_graph::csr::MaxMin;
use egoist_graph::{DiGraph, DistanceMatrix, NodeId};
use egoist_netsim::delay::DelayModel;
use egoist_netsim::rng::derive;
use egoist_netsim::PlanetLabSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Evaluate the newcomer's realized cost for a chosen wiring `w` against
/// *all* existing nodes.
fn realized_cost(
    newcomer: NodeId,
    w: &[NodeId],
    d: &DistanceMatrix,
    dist: &DistanceMatrix,
    existing: &[NodeId],
    penalty: f64,
) -> f64 {
    let mut total = 0.0;
    for &j in existing {
        let mut best = penalty;
        for &hop in w {
            let tail = if hop == j { 0.0 } else { dist.get(hop, j) };
            if tail.is_finite() {
                best = best.min(d.get(newcomer, hop) + tail);
            }
        }
        total += best;
    }
    total / existing.len() as f64
}

/// k-Regular over the sorted sample ring.
fn regular_on_sample(sample: &[NodeId], k: usize) -> Vec<NodeId> {
    let mut s: Vec<NodeId> = sample.to_vec();
    s.sort_unstable();
    let m = s.len();
    let mut out = Vec::new();
    for j in 1..=k {
        let raw = 1.0 + (j as f64 - 1.0) * (m as f64 - 1.0) / (k as f64 + 1.0);
        let idx = ((raw.round() as usize).max(1) - 1) % m;
        if !out.contains(&s[idx]) {
            out.push(s[idx]);
        }
    }
    out
}

fn main() {
    print_expectation(
        "BR-with-sampling beats all sampled heuristics at every sample size; \
         topology-biased BRtp improves on random-sampled BR everywhere; even \
         m/n ≈ 2% keeps the newcomer's ratio near 1 on a BR graph; heuristics \
         fare relatively best on the BR graph (already optimized) and worst on \
         k-Regular graphs",
    );

    let n_existing = if fast() { 60 } else { 295 };
    let k = 3usize;
    let r = 2usize;
    let seed = seeds()[0];
    let reps = if fast() { 2 } else { 6 };
    let sample_sizes: Vec<usize> = (3..=10).map(|x| 2 * x).collect(); // 6..=20

    // One extra site for the newcomer.
    let mut spec = PlanetLabSpec::paper_295();
    if fast() {
        spec = PlanetLabSpec {
            counts: vec![(egoist_netsim::Region::NorthAmerica, n_existing)],
        };
    }
    spec.counts.push((egoist_netsim::Region::NorthAmerica, 1));
    let model = DelayModel::from_spec(&spec, seed);
    let d = model.base().clone();
    let n = d.len();
    let newcomer = NodeId::from_index(n - 1);
    let existing: Vec<NodeId> = (0..n - 1).map(NodeId::from_index).collect();
    let penalty = disconnection_penalty(&d);

    let graphs = [
        ("BR graph (Fig. 5)", PolicyKind::BestResponse, true),
        ("k-Random graph (Fig. 6)", PolicyKind::Random, false),
        ("k-Regular graph (Fig. 7)", PolicyKind::Regular, false),
        ("k-Closest graph (Fig. 8)", PolicyKind::Closest, false),
    ];

    for (title, policy, incremental) in graphs {
        // ---- Build the underlying overlay over the existing nodes. ----
        let mut game = Game::new(d.clone(), k, policy, seed);
        game.alive[n - 1] = false;
        if incremental {
            game.incremental_build(n - 1);
        } else {
            game.sweep();
        }
        let g: DiGraph = game.graph();
        let dist = apsp(&g);
        let prefs = Preferences::uniform(n);
        let direct: Vec<f64> = d.row(newcomer.index()).to_vec();
        // BR over `sample` as candidate and destination set — the §5
        // "scaled-down input", which is what a context's candidates are.
        let br = |sample: &[NodeId]| {
            let ctx = WiringContext {
                node: newcomer,
                k,
                candidates: sample,
                direct: &direct,
                residual: egoist_core::ResidualView::dense(&dist),
                prefs: &prefs,
                alive: &game.alive,
                penalty,
                current: &[],
            };
            BestResponse::local_search().solve(&ctx).0
        };
        let b: Vec<f64> = (0..n)
            .map(|j| rank(&g, NodeId::from_index(j), r, &direct))
            .collect();
        let b_ij = |j: NodeId| b[j.index()];

        // Reference: BR with full knowledge.
        let w_full = br(&existing);
        let c_full = realized_cost(newcomer, &w_full, &d, &dist, &existing, penalty);

        let mut series = vec![
            Series::new("k-Random"),
            Series::new("k-Regular"),
            Series::new("k-Closest"),
            Series::new("BR"),
            Series::new("BRtp"),
        ];
        for &m in &sample_sizes {
            let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); 5];
            for rep in 0..reps {
                let mut rng: StdRng = derive(seed ^ (rep as u64) << 17, title);
                let sample = shortlist::<MaxMin>(&existing, &[], m, None, &mut rng);

                // k-Random on the sample.
                let mut pool = sample.clone();
                pool.shuffle(&mut rng);
                pool.truncate(k);
                ratios[0]
                    .push(realized_cost(newcomer, &pool, &d, &dist, &existing, penalty) / c_full);

                // k-Regular on the sample ring.
                let wreg = regular_on_sample(&sample, k);
                ratios[1]
                    .push(realized_cost(newcomer, &wreg, &d, &dist, &existing, penalty) / c_full);

                // k-Closest within the sample.
                let mut close = sample.clone();
                close.sort_by(|a, b| {
                    d.get(newcomer, *a)
                        .total_cmp(&d.get(newcomer, *b))
                        .then(a.cmp(b))
                });
                close.truncate(k);
                ratios[2]
                    .push(realized_cost(newcomer, &close, &d, &dist, &existing, penalty) / c_full);

                // BR on the random sample.
                let wbr = br(&sample);
                ratios[3]
                    .push(realized_cost(newcomer, &wbr, &d, &dist, &existing, penalty) / c_full);

                // BR on the topology-biased sample: half of it the
                // highest b_ij, half uniform.
                let biased = shortlist::<MaxMin>(&existing, &[], m, Some(&b_ij), &mut rng);
                let wtp = br(&biased);
                ratios[4]
                    .push(realized_cost(newcomer, &wtp, &d, &dist, &existing, penalty) / c_full);
            }
            for (idx, rs) in ratios.iter().enumerate() {
                series[idx].push_samples(m as f64, rs);
            }
        }
        print_figure(
            &format!(
                "{title}: newcomer cost under sampling, n={}, k={k}, r={r}",
                n - 1
            ),
            "m",
            "newcomer cost / BR-no-sampling cost",
            &series,
        );
    }
}
