//! Bandwidth-objective best response (§4.1, Appendix A).
//!
//! The wiring `s_i` maximizes the aggregate bottleneck bandwidth
//!
//! ```text
//! Σ_{j ∈ V−i}  max_{w ∈ s_i}  min( AvailBW(i → w), AvailBW(w ⇝ j) )
//! ```
//!
//! where `AvailBW(w ⇝ j)` is the max-bottleneck (widest-path) bandwidth
//! over the residual overlay. Appendix A proves maximizing this is
//! NP-hard (reduction from MAX-UNIQUES/SET-COVER), so as in the deployed
//! system we use a greedy + local-search heuristic; the test suite checks
//! it lands within a few percent of the exhaustive optimum on small
//! instances, mirroring the paper's "within 5% of optimal" claim.
//!
//! A bandwidth turn is an ordinary [`WiringContext`]: `direct` holds the
//! probed available bandwidth `i → j`, `residual` the widest-path widths
//! over `G−i`, `penalty` is 0 (an unserved destination carries nothing)
//! and `current` is not read. [`PolicyKind::instantiate_bandwidth`] picks
//! the policy object defined here, or k-Widest (`KClosest<MaxMin>`).
//!
//! [`PolicyKind::instantiate_bandwidth`]: super::PolicyKind::instantiate_bandwidth

use super::solver::{Instance, SolverArena, MAX_ROUNDS};
use super::{Policy, WiringContext};
use egoist_graph::csr::MaxMin;
use egoist_graph::NodeId;
use rand::rngs::StdRng;

/// Assignment-utility instance: `assignment(c, t) = min(direct_bw(i, c),
/// residual_bw(c, j_t))`, the bottleneck bandwidth to destination `t`
/// through first hop `c`. The max-min instantiation of the core
/// `BrInstance` runs on.
pub type BwInstance = Instance<MaxMin>;

/// Bandwidth best response: greedy + local search, in the caller's
/// recycled `arena`.
pub fn bandwidth_best_response(
    ctx: &WiringContext<'_>,
    arena: &mut SolverArena,
) -> (Vec<NodeId>, f64) {
    let mut inst = BwInstance::build_in(ctx, arena);
    let k = ctx.effective_k();
    let init = inst.greedy(k, &[]);
    let (subset, utility) = inst.local_search(k, init, &[], MAX_ROUNDS);
    let nodes = inst.to_nodes(&subset);
    inst.recycle(arena);
    (nodes, utility)
}

/// The bandwidth best-response policy object; owns its recycled arena.
#[derive(Default)]
pub struct BandwidthBr {
    arena: SolverArena,
}

impl Policy for BandwidthBr {
    fn wire(&mut self, ctx: &WiringContext<'_>, _rng: &mut StdRng) -> Vec<NodeId> {
        bandwidth_best_response(ctx, &mut self.arena).0
    }

    fn name(&self) -> &'static str {
        "BR-bandwidth"
    }
}

/// The eager solver `BwInstance` shipped before it moved onto the
/// shared pruned core, kept verbatim as the bandwidth oracle: every
/// candidate and every swap pair is summed in full, in index order. And
/// the residual rows' oracle: widest paths between every pair by
/// max-min Floyd–Warshall.
#[cfg(test)]
pub(crate) mod oracle {
    use super::BwInstance;
    use egoist_graph::{DiGraph, DistanceMatrix};

    /// Dense all-pairs widest-path matrix for a bandwidth-weighted
    /// overlay: `INFINITY` on the diagonal, `0` when unreachable. `min`
    /// and `max` never round, so every width is bit-exact.
    pub fn all_pairs_widest(g: &DiGraph) -> DistanceMatrix {
        let n = g.len();
        let mut w = DistanceMatrix::filled(n, 0.0);
        for i in 0..n {
            w.set_at(i, i, f64::INFINITY);
        }
        for (from, to, bw) in g.edges() {
            w.set(from, to, w.get(from, to).max(bw));
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    w.set_at(i, j, w.at(i, j).max(w.at(i, k).min(w.at(k, j))));
                }
            }
        }
        w
    }

    pub fn greedy(inst: &BwInstance, k: usize) -> Vec<usize> {
        let nd = inst.dests.len();
        let mut chosen: Vec<usize> = Vec::new();
        let mut in_chosen = vec![false; inst.cand.len()];
        let mut best_per_dest = vec![0.0f64; nd];
        while chosen.len() < k.min(inst.cand.len()) {
            let mut pick = None;
            let mut pick_util = -1.0;
            for (c, _) in in_chosen.iter().enumerate().filter(|(_, &taken)| !taken) {
                let mut utility = 0.0;
                for (t, (&w, &best)) in inst.weight.iter().zip(best_per_dest.iter()).enumerate() {
                    utility += w * best.max(inst.assignment(c, t));
                }
                if utility > pick_util {
                    pick_util = utility;
                    pick = Some(c);
                }
            }
            let Some(c) = pick else { break };
            chosen.push(c);
            in_chosen[c] = true;
            for (t, b) in best_per_dest.iter_mut().enumerate() {
                *b = b.max(inst.assignment(c, t));
            }
        }
        chosen
    }

    /// (A short `init` is replaced by an unseeded greedy here; the
    /// shared core seeds greedy with it. No caller passes one.)
    pub fn local_search(
        inst: &BwInstance,
        k: usize,
        init: Vec<usize>,
        max_rounds: usize,
    ) -> (Vec<usize>, f64) {
        let nd = inst.dests.len();
        let mut subset = init;
        subset.sort_unstable();
        subset.dedup();
        if subset.len() < k.min(inst.cand.len()) {
            subset = greedy(inst, k);
        }
        let mut in_subset = vec![false; inst.cand.len()];
        for &c in &subset {
            in_subset[c] = true;
        }
        let mut utility = inst.eval(&subset);
        for _ in 0..max_rounds {
            // best1/best2 per destination (max version).
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
                for (inn, _) in in_subset.iter().enumerate().filter(|(_, &taken)| !taken) {
                    let mut new_u = 0.0;
                    for t in 0..nd {
                        let surviving = if b1[t].1 == out { b2[t] } else { b1[t].0 };
                        new_u += inst.weight[t] * surviving.max(inst.assignment(inn, t));
                    }
                    if new_u > utility + 1e-12
                        && best_swap.map(|(_, _, u)| new_u > u).unwrap_or(true)
                    {
                        best_swap = Some((out, inn, new_u));
                    }
                }
            }
            match best_swap {
                Some((out, inn, new_u)) => {
                    subset.retain(|&c| c != out);
                    subset.push(inn);
                    in_subset[out] = false;
                    in_subset[inn] = true;
                    utility = new_u;
                }
                None => break,
            }
        }
        (subset, utility)
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::all_pairs_widest;
    use super::*;
    use crate::cost::Preferences;
    use crate::residual::ResidualView;
    use egoist_graph::{DiGraph, DistanceMatrix};
    use egoist_netsim::BandwidthModel;
    use rand::SeedableRng;

    struct Parts {
        candidates: Vec<NodeId>,
        direct: Vec<f64>,
        residual: DistanceMatrix,
        prefs: Preferences,
        alive: Vec<bool>,
    }

    /// Residual overlay = ring wiring over a bandwidth model.
    fn make_parts(n: usize, seed: u64) -> Parts {
        let bw = BandwidthModel::new(n, seed);
        let mut g = DiGraph::new(n);
        for i in 0..n {
            let j = (i + 1) % n;
            let j2 = (i + 3) % n;
            if i != j {
                g.add_edge(
                    NodeId::from_index(i),
                    NodeId::from_index(j),
                    bw.available(i, j),
                );
            }
            if i != j2 {
                g.add_edge(
                    NodeId::from_index(i),
                    NodeId::from_index(j2),
                    bw.available(i, j2),
                );
            }
        }
        g.clear_out_edges(NodeId(0));
        let residual = all_pairs_widest(&g);
        let direct: Vec<f64> = (0..n).map(|j| bw.available(0, j)).collect();
        Parts {
            candidates: (1..n).map(NodeId::from_index).collect(),
            direct,
            residual,
            prefs: Preferences::uniform(n),
            alive: vec![true; n],
        }
    }

    fn ctx(parts: &Parts, k: usize) -> WiringContext<'_> {
        WiringContext {
            node: NodeId(0),
            k,
            candidates: &parts.candidates,
            direct: &parts.direct,
            residual: ResidualView::dense(&parts.residual),
            prefs: &parts.prefs,
            alive: &parts.alive,
            penalty: 0.0,
            current: &[],
        }
    }

    fn solve(c: &WiringContext<'_>) -> (Vec<NodeId>, f64) {
        bandwidth_best_response(c, &mut SolverArena::default())
    }

    fn k_widest(c: &WiringContext<'_>) -> Vec<NodeId> {
        let mut k_widest = crate::policies::closest::KClosest::<MaxMin>::default();
        k_widest.wire(c, &mut StdRng::seed_from_u64(0))
    }

    #[test]
    fn pruned_solver_matches_the_eager_oracle_bitwise() {
        for (n, k) in [(9usize, 2usize), (24, 3), (40, 5), (64, 8)] {
            for seed in 1..5 {
                let parts = make_parts(n, seed);
                let c = ctx(&parts, k);
                let mut inst = BwInstance::build_in(&c, &mut SolverArena::default());
                let g_ref = oracle::greedy(&inst, k);
                assert_eq!(
                    inst.greedy(k, &[]),
                    g_ref,
                    "greedy (n={n}, k={k}, seed={seed})"
                );
                // From greedy (what ships), from nothing, and from a
                // deliberately poor start so several swap rounds run.
                let poor: Vec<usize> = (0..k).map(|x| inst.cand.len() - 1 - x).collect();
                for init in [g_ref.clone(), Vec::new(), poor] {
                    let (s_ref, u_ref) = oracle::local_search(&inst, k, init.clone(), 64);
                    let (s, u) = inst.local_search(k, init, &[], 64);
                    assert_eq!(s, s_ref, "subset (n={n}, k={k}, seed={seed})");
                    assert_eq!(
                        u.to_bits(),
                        u_ref.to_bits(),
                        "utility bits (n={n}, k={k}, seed={seed}): {u} vs {u_ref}"
                    );
                }
            }
        }
    }

    #[test]
    fn recycled_arena_does_not_change_a_decision() {
        let mut arena = SolverArena::default();
        for (n, seed) in [(30usize, 2u64), (12, 3), (30, 4)] {
            let parts = make_parts(n, seed);
            let c = ctx(&parts, 4);
            let recycled = bandwidth_best_response(&c, &mut arena);
            assert_eq!(recycled, solve(&c), "n={n}, seed={seed}");
        }
    }

    #[test]
    fn heuristic_close_to_exhaustive_optimum() {
        for seed in [1, 2, 3] {
            let parts = make_parts(12, seed);
            for k in 1..4 {
                let c = ctx(&parts, k);
                let inst = BwInstance::build_in(&c, &mut SolverArena::default());
                let (_, u_opt) = inst.exhaustive(k, &[], u64::MAX).expect("unbounded budget");
                let (_, u_heur) = solve(&c);
                assert!(
                    u_heur >= 0.95 * u_opt - 1e-9,
                    "seed {seed}, k={k}: heuristic {u_heur} < 95% of optimum {u_opt}"
                );
            }
        }
    }

    #[test]
    fn utility_monotone_in_k() {
        let parts = make_parts(14, 4);
        let mut prev = 0.0;
        for k in 1..6 {
            let (_, u) = solve(&ctx(&parts, k));
            assert!(u >= prev - 1e-9, "utility dropped at k={k}");
            prev = u;
        }
    }

    #[test]
    fn bw_br_beats_k_widest() {
        // Aggregate-bandwidth BR must be at least as good as the myopic
        // k-Widest heuristic under its own objective.
        let parts = make_parts(16, 5);
        let c = ctx(&parts, 3);
        let inst = BwInstance::build_in(&c, &mut SolverArena::default());
        let (_, u_br) = solve(&c);
        let idx = crate::policies::solver::indices_of(&inst.cand, &k_widest(&c));
        assert!(u_br >= inst.eval(&idx) - 1e-9);
    }

    #[test]
    fn k_widest_orders_by_direct_bandwidth() {
        let parts = make_parts(10, 6);
        let c = ctx(&parts, 3);
        let w = k_widest(&c);
        assert_eq!(w.len(), 3);
        for pair in w.windows(2) {
            assert!(c.direct[pair[0].index()] >= c.direct[pair[1].index()]);
        }
    }

    #[test]
    fn first_hop_limits_utility() {
        // A candidate with a tiny first hop cannot contribute more than it.
        let n = 6;
        let mut parts = make_parts(n, 7);
        for j in 0..n {
            parts.direct[j] = 0.001;
        }
        let c = ctx(&parts, 2);
        let (_, u) = solve(&c);
        // Σ weights = 1, so utility ≤ 0.001.
        assert!(u <= 0.001 + 1e-12);
    }
}
