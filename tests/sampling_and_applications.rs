//! Cross-crate integration for §5 (sampling) and §6 (applications):
//! the scalability mechanisms and the multipath analyses hold on
//! realistic underlays.

use egoist::core::cost::{disconnection_penalty, Preferences};
use egoist::core::game::Game;
use egoist::core::multipath::{
    analyze_pair, average_gains, bandwidth_overlay, disjoint_path_counts,
};
use egoist::core::policies::best_response::BrInstance;
use egoist::core::policies::{PolicyKind, WiringContext};
use egoist::core::sampling::{rank, shortlist};
use egoist::core::stats;
use egoist::graph::apsp::apsp;
use egoist::graph::csr::MaxMin;
use egoist::graph::NodeId;
use egoist::netsim::rng::derive;
use egoist::netsim::{BandwidthModel, DelayModel};

/// §5: BR over a biased sample stays close to full-knowledge BR, and
/// sampled BR beats sampled heuristics (the Figs. 5–8 ordering), at
/// reduced scale.
#[test]
fn sampled_br_stays_close_to_full_br() {
    let n = 60usize;
    let k = 3usize;
    let d = DelayModel::from_spec(
        &egoist::netsim::PlanetLabSpec::uniform(egoist::netsim::Region::NorthAmerica, n),
        1,
    )
    .base()
    .clone();
    // Build a BR overlay over nodes 0..n-2; newcomer is the last id.
    let existing_n = d.len() - 1;
    let mut game = Game::new(d.clone(), k, PolicyKind::BestResponse, 1);
    game.alive[existing_n] = false;
    game.incremental_build(existing_n);
    let g = game.graph();
    let dist = apsp(&g);
    let newcomer = NodeId::from_index(existing_n);
    let existing: Vec<NodeId> = (0..existing_n).map(NodeId::from_index).collect();
    let penalty = disconnection_penalty(&d);
    let prefs = Preferences::uniform(d.len());
    let alive = game.alive.clone();

    let direct: Vec<f64> = d.row(newcomer.index()).to_vec();
    let solve = |candidates: &[NodeId]| -> Vec<NodeId> {
        let ctx = WiringContext {
            node: newcomer,
            k,
            candidates,
            direct: &direct,
            residual: egoist::core::ResidualView::dense(&dist),
            prefs: &prefs,
            alive: &alive,
            penalty,
            current: &[],
        };
        let mut inst = BrInstance::build(&ctx);
        let init = inst.greedy(k, &[]);
        let (s, _) = inst.local_search(k, init, &[], 64);
        inst.to_nodes(&s)
    };
    let realized = |w: &[NodeId]| -> f64 {
        let mut total = 0.0;
        for &j in &existing {
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
    };

    let c_full = realized(&solve(&existing));
    let mut rng = derive(5, "sample-test");
    let mut sampled_costs = Vec::new();
    let mut biased_costs = Vec::new();
    for _ in 0..8 {
        let sample = shortlist::<MaxMin>(&existing, &[], 12, None, &mut rng);
        sampled_costs.push(realized(&solve(&sample)));
        let b_ij = |j: NodeId| rank(&g, j, 2, &direct);
        let biased = shortlist::<MaxMin>(&existing, &[], 12, Some(&b_ij), &mut rng);
        biased_costs.push(realized(&solve(&biased)));
    }
    let mean_sampled = stats::mean(&sampled_costs);
    let mean_biased = stats::mean(&biased_costs);
    // Sampling at m/n = 20% keeps the newcomer within 2x of full BR.
    assert!(
        mean_sampled < 2.0 * c_full,
        "random-sampled BR {mean_sampled:.1} vs full {c_full:.1}"
    );
    assert!(
        mean_biased < 2.0 * c_full,
        "biased-sampled BR {mean_biased:.1} vs full {c_full:.1}"
    );
}

/// §6.1: multipath transfer gains grow with k and the max-flow bound
/// dominates the parallel-sessions gain.
#[test]
fn multipath_gains_grow_with_k() {
    let n = 20;
    let bw = BandwidthModel::new(n, 3);
    let members: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let mut prev = 0.0;
    for k in [2usize, 4, 6] {
        let overlay = bandwidth_overlay(&bw, k, 2);
        let (parallel, bound) = average_gains(&overlay, &bw, &members);
        let p = stats::mean(&parallel);
        let b = stats::mean(&bound);
        assert!(b >= p - 1e-9, "bound {b:.2} must dominate parallel {p:.2}");
        assert!(
            p >= prev * 0.9,
            "gain should not collapse as k grows: k={k}, {p:.2} vs prev {prev:.2}"
        );
        prev = p;
    }
}

/// §6.2: disjoint-path counts are bounded by k and grow with it.
#[test]
fn disjoint_paths_track_k() {
    let d = DelayModel::planetlab_50(5)
        .base()
        .submatrix(&(0..20).map(NodeId).collect::<Vec<_>>());
    let members: Vec<NodeId> = (0..20).map(NodeId).collect();
    let mut prev = 0.0;
    for k in [2usize, 4, 6] {
        let mut game = Game::new(d.clone(), k, PolicyKind::BestResponse, 5);
        game.run_to_convergence(6);
        let counts = disjoint_path_counts(&game.graph(), &members);
        let mean = stats::mean(&counts);
        assert!(counts.iter().all(|&c| c <= k as f64 + 1e-9));
        assert!(mean > prev, "disjoint paths must grow with k: {mean:.2}");
        prev = mean;
    }
}

/// The per-pair multipath analysis is internally consistent on a
/// BR-wired overlay.
#[test]
fn multipath_pair_analysis_consistency() {
    let bw = BandwidthModel::new(16, 9);
    let overlay = bandwidth_overlay(&bw, 4, 2);
    for s in 0..4u32 {
        for t in 8..12u32 {
            let r = analyze_pair(&overlay, &bw, NodeId(s), NodeId(t));
            assert!(r.direct > 0.0);
            assert!(r.parallel >= r.direct - 1e-9);
            assert!(r.max_flow_bound >= r.parallel - 1e-9);
            assert!(r.parallel_gain() >= 1.0 - 1e-9);
        }
    }
}
