//! Best-Response wiring (Definition 1).
//!
//! Choosing the `k` neighbors that minimize
//! `C_i = Σ_j p_ij · min_{w ∈ s_i} (d_iw + d_{G−i}(w, j))`
//! is an asymmetric k-median instance and NP-hard (§2.1), so EGOIST ships
//! two solvers:
//!
//! * **Exact** — exhaustive subset enumeration, used for validation and
//!   tiny instances (the ILP of \[21\] would solve the same instances).
//! * **Local search** — greedy seeding followed by best-improvement single
//!   swaps with best/second-best bookkeeping, the classic k-median local
//!   search (\[5\] in the paper). §4.1 reports the deployed heuristic lands
//!   "within 5% of optimal in the tested scenarios"; our test suite checks
//!   the same bound against the exact solver.
//!
//! Both run on the facility-location core in [`super::solver`], which the
//! bandwidth objective shares; this module adds the policy object. The
//! pre-optimization greedy / local-search loops the core is pinned
//! against live with the tests below.

use super::solver::{indices_of, Instance, SolverArena, MAX_ROUNDS};
use super::{Policy, WiringContext};
use egoist_graph::csr::MinPlus;
use egoist_graph::NodeId;
use rand::rngs::StdRng;
use std::sync::OnceLock;

/// Assignment-cost instance for one node's best response:
/// `assignment(c, t)` is the cost node `i` pays for destination `t` when
/// routing through candidate `c` as the first hop, clamped at the
/// disconnection penalty. Solved by the shared [`Instance`] core.
pub type BrInstance = Instance<MinPlus>;

/// Enumeration budget for the exact solver.
const EXACT_BUDGET: u64 = 2_000_000;

/// The Best-Response policy object.
pub struct BestResponse {
    exact: bool,
    /// Relative hysteresis: keep the current wiring unless the best found
    /// wiring improves on it by more than this fraction. Best-response
    /// dynamics with an *approximate* solver can limit-cycle on near-ties
    /// (different local optima of almost equal cost); a tiny dead band
    /// restores the convergence the exact game has (\[20\]'s equilibria)
    /// without measurably changing cost.
    pub hysteresis: f64,
    /// Recycled assignment-matrix storage (no per-turn allocation).
    arena: SolverArena,
}

impl BestResponse {
    /// Local-search solver (the deployed default).
    ///
    /// The 1% hysteresis models the real system's measurement noise
    /// floor: ping-averaged costs cannot resolve sub-percent differences,
    /// so the deployed EGOIST never re-wired for gains that small either.
    pub fn local_search() -> Self {
        BestResponse {
            exact: false,
            hysteresis: 0.01,
            arena: SolverArena::default(),
        }
    }

    /// Exhaustive solver; falls back to local search above the budget.
    pub fn exact() -> Self {
        BestResponse {
            exact: true,
            hysteresis: 0.0,
            arena: SolverArena::default(),
        }
    }

    /// Whether the dead band keeps the full current wiring `init`, of
    /// cost `current`, whatever a search would find: no subset of
    /// `init.len()` candidates costs less than `current −
    /// inst.gain_bound(..)`, so a bound inside `hysteresis · current`
    /// (behind the solver's 1e-9 margins) settles the turn.
    pub(crate) fn band_holds(&self, inst: &mut BrInstance, init: &[usize], current: f64) -> bool {
        let bound = inst.gain_bound(init, init.len());
        bound * (1.0 + 1e-9) + 1e-9 * (current.abs() + 1.0) <= self.hysteresis * current
    }

    /// Solve and return (neighbors, cost). A full current wiring the dead
    /// band provably keeps (`Self::band_holds`) is returned without a
    /// search.
    pub fn solve(&mut self, ctx: &WiringContext<'_>) -> (Vec<NodeId>, f64) {
        let mut inst = BrInstance::build_in(ctx, &mut self.arena);
        let k = ctx.effective_k();
        // Current wiring (alive members only) as candidate indices.
        let init = indices_of(&inst.cand, ctx.current);
        let hold = self.hysteresis > 0.0 && init.len() == k;
        static PROOFS: OnceLock<egoist_obs::Counter> = OnceLock::new();
        let proofs =
            PROOFS.get_or_init(|| egoist_obs::registry().counter("core.solver.hysteresis_proofs"));
        if hold {
            let current_cost = inst.eval(&init);
            if self.band_holds(&mut inst, &init, current_cost) {
                proofs.inc();
                let kept = (inst.to_nodes(&init), current_cost);
                inst.recycle(&mut self.arena);
                return kept;
            }
        }

        let (best_set, best_cost) = if self.exact {
            match inst.exhaustive(k, &[], EXACT_BUDGET) {
                Some(r) => r,
                None => inst.local_search(k, init.clone(), &[], MAX_ROUNDS),
            }
        } else {
            // Seed local search from both the current wiring and greedy;
            // take the cheaper result.
            let greedy = inst.greedy(k, &[]);
            let (s1, c1) = inst.local_search(k, init.clone(), &[], MAX_ROUNDS);
            let (s2, c2) = inst.local_search(k, greedy, &[], MAX_ROUNDS);
            if c1 <= c2 {
                (s1, c1)
            } else {
                (s2, c2)
            }
        };

        // Hysteresis: a full current wiring is kept unless beaten clearly.
        let result = if hold {
            let current_cost = inst.eval(&init);
            if best_cost >= current_cost * (1.0 - self.hysteresis) {
                (inst.to_nodes(&init), current_cost)
            } else {
                (inst.to_nodes(&best_set), best_cost)
            }
        } else {
            (inst.to_nodes(&best_set), best_cost)
        };
        inst.recycle(&mut self.arena);
        result
    }
}

impl Policy for BestResponse {
    fn wire(&mut self, ctx: &WiringContext<'_>, _rng: &mut StdRng) -> Vec<NodeId> {
        self.solve(ctx).0
    }

    fn name(&self) -> &'static str {
        if self.exact {
            "BR-exact"
        } else {
            "BR"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::CtxParts;
    use crate::wiring::Wiring;
    use egoist_graph::{DistanceMatrix, NodeId};

    impl Instance<MinPlus> {
        /// The pre-optimization greedy, kept verbatim as the oracle
        /// [`Instance::greedy`] is pinned against.
        pub(crate) fn greedy_reference(&self, k: usize, forced: &[usize]) -> Vec<usize> {
            let nd = self.dests.len();
            let mut chosen: Vec<usize> = forced.to_vec();
            let mut best_per_dest = vec![self.unserved; nd];
            for &c in forced {
                for (t, b) in best_per_dest.iter_mut().enumerate() {
                    *b = b.min(self.assignment(c, t));
                }
            }
            while chosen.len() < k.min(self.cand.len()) {
                let mut pick = None;
                let mut pick_cost = f64::INFINITY;
                for c in 0..self.cand.len() {
                    if chosen.contains(&c) {
                        continue;
                    }
                    let mut cost = 0.0;
                    for (t, (&w, &best)) in self.weight.iter().zip(best_per_dest.iter()).enumerate()
                    {
                        cost += w * best.min(self.assignment(c, t));
                    }
                    if cost < pick_cost {
                        pick_cost = cost;
                        pick = Some(c);
                    }
                }
                let Some(c) = pick else { break };
                chosen.push(c);
                for (t, b) in best_per_dest.iter_mut().enumerate() {
                    *b = b.min(self.assignment(c, t));
                }
            }
            chosen
        }

        /// The pre-optimization local search, kept verbatim. Bit-identical
        /// results to [`Instance::local_search`] (the tests assert it).
        pub(crate) fn local_search_reference(
            &self,
            k: usize,
            init: Vec<usize>,
            forced: &[usize],
            max_rounds: usize,
        ) -> (Vec<usize>, f64) {
            let nd = self.dests.len();
            let mut subset = init;
            subset.sort_unstable();
            subset.dedup();
            let mut cost = self.eval(&subset);
            if subset.len() < k.min(self.cand.len()) {
                subset = self.greedy_reference(k, &subset);
                cost = self.eval(&subset);
            }

            for _ in 0..max_rounds {
                let mut b1 = vec![(self.unserved, usize::MAX); nd];
                let mut b2 = vec![self.unserved; nd];
                for &c in &subset {
                    for t in 0..nd {
                        let v = self.assignment(c, t);
                        if v < b1[t].0 {
                            b2[t] = b1[t].0;
                            b1[t] = (v, c);
                        } else if v < b2[t] {
                            b2[t] = v;
                        }
                    }
                }

                let mut best_swap: Option<(usize, usize, f64)> = None;
                for &out in &subset {
                    if forced.contains(&out) {
                        continue;
                    }
                    for inn in 0..self.cand.len() {
                        if subset.contains(&inn) {
                            continue;
                        }
                        let mut new_cost = 0.0;
                        for t in 0..nd {
                            let surviving = if b1[t].1 == out { b2[t] } else { b1[t].0 };
                            new_cost += self.weight[t] * surviving.min(self.assignment(inn, t));
                        }
                        if new_cost < cost - 1e-12
                            && best_swap.map(|(_, _, c)| new_cost < c).unwrap_or(true)
                        {
                            best_swap = Some((out, inn, new_cost));
                        }
                    }
                }
                match best_swap {
                    Some((out, inn, new_cost)) => {
                        subset.retain(|&c| c != out);
                        subset.push(inn);
                        cost = new_cost;
                    }
                    None => break,
                }
            }
            (subset, cost)
        }
    }

    impl BestResponse {
        /// [`BestResponse::solve`] on the reference loops and without the
        /// dead-band proof: what the solver computed before its core was
        /// optimised, the oracle the shipped solve is pinned against.
        pub(crate) fn solve_reference(&mut self, ctx: &WiringContext<'_>) -> (Vec<NodeId>, f64) {
            let inst = BrInstance::build_in(ctx, &mut self.arena);
            let k = ctx.effective_k();
            let init = indices_of(&inst.cand, ctx.current);
            let search = |init| inst.local_search_reference(k, init, &[], MAX_ROUNDS);
            let (best_set, best_cost) = if self.exact {
                match inst.exhaustive(k, &[], EXACT_BUDGET) {
                    Some(r) => r,
                    None => search(init.clone()),
                }
            } else {
                let (s1, c1) = search(init.clone());
                let (s2, c2) = search(inst.greedy_reference(k, &[]));
                if c1 <= c2 {
                    (s1, c1)
                } else {
                    (s2, c2)
                }
            };
            // Hysteresis: a full current wiring is kept unless beaten clearly.
            let held = (self.hysteresis > 0.0 && init.len() == k).then(|| inst.eval(&init));
            let result = match held {
                Some(current) if best_cost >= current * (1.0 - self.hysteresis) => {
                    (inst.to_nodes(&init), current)
                }
                _ => (inst.to_nodes(&best_set), best_cost),
            };
            inst.recycle(&mut self.arena);
            result
        }
    }

    /// A 5-node metric where node 0's best single neighbor is the hub.
    fn hub_matrix() -> DistanceMatrix {
        // Node 1 is a hub: cheap to everyone. Others expensive directly.
        DistanceMatrix::from_fn(5, |i, j| if i == 1 || j == 1 { 1.0 } else { 10.0 })
    }

    fn ring_wiring(n: usize) -> Wiring {
        let mut w = Wiring::empty(n);
        for i in 0..n {
            w.rewire(NodeId::from_index(i), vec![NodeId::from_index((i + 1) % n)]);
        }
        w
    }

    #[test]
    fn br_prefers_the_hub() {
        let d = hub_matrix();
        let w = ring_wiring(5);
        let parts = CtxParts::build(&d, &w, NodeId(0), 1);
        let (neighbors, _) = BestResponse::local_search().solve(&parts.ctx());
        assert_eq!(neighbors, vec![NodeId(1)], "hub must be chosen at k=1");
    }

    #[test]
    fn exact_matches_local_search_on_small_instances() {
        // Pseudo-random but deterministic metric.
        let d = DistanceMatrix::from_fn(9, |i, j| ((i * 7 + j * 13) % 23 + 1) as f64);
        let w = ring_wiring(9);
        for k in 1..4 {
            let parts = CtxParts::build(&d, &w, NodeId(0), k);
            let ctx = parts.ctx();
            let (_, c_exact) = BestResponse::exact().solve(&ctx);
            let (_, c_ls) = BestResponse::local_search().solve(&ctx);
            assert!(
                c_ls <= c_exact * 1.05 + 1e-9,
                "k={k}: local search {c_ls} should be within 5% of optimal {c_exact}"
            );
            assert!(c_exact <= c_ls + 1e-9, "exact can never be worse");
        }
    }

    #[test]
    fn cost_decreases_with_k() {
        let d = DistanceMatrix::from_fn(10, |i, j| ((i * 3 + j * 5) % 17 + 1) as f64);
        let w = ring_wiring(10);
        let mut prev = f64::INFINITY;
        for k in 1..6 {
            let parts = CtxParts::build(&d, &w, NodeId(2), k);
            let (_, c) = BestResponse::local_search().solve(&parts.ctx());
            assert!(
                c <= prev + 1e-9,
                "more links can't hurt: k={k}, {c} > {prev}"
            );
            prev = c;
        }
    }

    #[test]
    fn returns_exactly_k_distinct_neighbors() {
        let d = DistanceMatrix::from_fn(8, |i, j| ((i + 2 * j) % 9 + 1) as f64);
        let w = ring_wiring(8);
        let parts = CtxParts::build(&d, &w, NodeId(3), 4);
        let (neigh, _) = BestResponse::local_search().solve(&parts.ctx());
        assert_eq!(neigh.len(), 4);
        let mut s = neigh.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 4);
        assert!(!neigh.contains(&NodeId(3)));
    }

    #[test]
    fn k_larger_than_population_is_clamped() {
        let d = DistanceMatrix::off_diagonal(4, 1.0);
        let w = ring_wiring(4);
        let parts = CtxParts::build(&d, &w, NodeId(0), 10);
        let (neigh, _) = BestResponse::local_search().solve(&parts.ctx());
        assert_eq!(neigh.len(), 3);
    }

    #[test]
    fn stable_under_repeated_solve() {
        // Solving twice from the resulting wiring must not flip-flop.
        let d = DistanceMatrix::from_fn(12, |i, j| ((i * 11 + j * 3) % 19 + 1) as f64);
        let mut w = ring_wiring(12);
        let parts = CtxParts::build(&d, &w, NodeId(5), 3);
        let (n1, c1) = BestResponse::local_search().solve(&parts.ctx());
        w.rewire(NodeId(5), n1.clone());
        let parts2 = CtxParts::build(&d, &w, NodeId(5), 3);
        let (n2, c2) = BestResponse::local_search().solve(&parts2.ctx());
        let mut a = n1.clone();
        let mut b = n2.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "re-solve changed wiring: {c1} → {c2}");
    }

    #[test]
    fn unreachable_destinations_attract_direct_links() {
        // Node 3 is reachable by nobody in the residual: BR must link to it
        // directly (the §4.4 healing incentive), because the penalty
        // dominates.
        let mut d = DistanceMatrix::off_diagonal(5, 5.0);
        d.set(NodeId(0), NodeId(3), 50.0); // even an expensive direct link wins
        let mut w = Wiring::empty(5);
        // Others form a ring that excludes node 3 entirely.
        w.rewire(NodeId(1), vec![NodeId(2)]);
        w.rewire(NodeId(2), vec![NodeId(4)]);
        w.rewire(NodeId(4), vec![NodeId(1)]);
        let parts = CtxParts::build(&d, &w, NodeId(0), 2);
        let (neigh, _) = BestResponse::local_search().solve(&parts.ctx());
        assert!(
            neigh.contains(&NodeId(3)),
            "BR must reconnect the isolated node, got {neigh:?}"
        );
    }

    /// A deterministic, irregular instance large enough to exercise the
    /// pruned scan, the abort paths and multi-round swap chains.
    fn scrambled_instance(n: usize, seed: usize) -> (DistanceMatrix, Wiring) {
        let d = DistanceMatrix::from_fn(n, |i, j| {
            ((i * 13 + j * 7 + seed * 31) % 83 + 1) as f64 * 0.25
        });
        let mut w = Wiring::empty(n);
        for i in 0..n {
            let neigh: Vec<NodeId> = (1..4)
                .map(|o| NodeId::from_index((i + o * (seed + 2)) % n))
                .filter(|x| x.index() != i)
                .collect();
            w.rewire(NodeId::from_index(i), neigh);
        }
        (d, w)
    }

    #[test]
    fn optimized_solvers_match_reference_bitwise() {
        for seed in 0..6 {
            // n = 120: long enough swap chains that stale bounds
            // survive several rounds before they are refreshed.
            for (n, k) in [(15usize, 3usize), (30, 5), (48, 7), (120, 8)] {
                let (d, w) = scrambled_instance(n, seed);
                let parts = CtxParts::build(&d, &w, NodeId::from_index(seed % n), k);
                let ctx = parts.ctx();
                let mut inst = BrInstance::build(&ctx);

                let g_opt = inst.greedy(k, &[]);
                let g_ref = inst.greedy_reference(k, &[]);
                assert_eq!(g_opt, g_ref, "greedy diverged (n={n}, k={k}, seed={seed})");

                let current_init = indices_of(&inst.cand, &parts.current);
                for init in [Vec::new(), g_opt.clone(), current_init] {
                    let (s_opt, c_opt) = inst.local_search(k, init.clone(), &[], 64);
                    let (s_ref, c_ref) = inst.local_search_reference(k, init, &[], 64);
                    let mut a = s_opt.clone();
                    let mut b = s_ref.clone();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "subset diverged (n={n}, k={k}, seed={seed})");
                    assert_eq!(
                        c_opt.to_bits(),
                        c_ref.to_bits(),
                        "cost bits diverged (n={n}, k={k}, seed={seed}): {c_opt} vs {c_ref}"
                    );
                }
            }
        }
    }

    #[test]
    fn optimized_solvers_match_reference_with_forced_members() {
        let (d, w) = scrambled_instance(24, 3);
        let parts = CtxParts::build(&d, &w, NodeId(1), 5);
        let mut inst = BrInstance::build(&parts.ctx());
        let forced = [2usize, 9];
        let g_opt = inst.greedy(5, &forced);
        let g_ref = inst.greedy_reference(5, &forced);
        assert_eq!(g_opt, g_ref);
        let (s_opt, c_opt) = inst.local_search(5, g_opt, &forced, 64);
        let (s_ref, c_ref) = inst.local_search_reference(5, g_ref, &forced, 64);
        let mut a = s_opt;
        let mut b = s_ref;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(c_opt.to_bits(), c_ref.to_bits());
    }

    #[test]
    fn greedy_respects_forced_members() {
        let d = DistanceMatrix::from_fn(6, |i, j| ((i + j) % 5 + 1) as f64);
        let w = ring_wiring(6);
        let parts = CtxParts::build(&d, &w, NodeId(0), 3);
        let mut inst = BrInstance::build(&parts.ctx());
        let g = inst.greedy(3, &[4]);
        assert!(g.contains(&4));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn local_search_never_swaps_forced() {
        let d = DistanceMatrix::from_fn(7, |i, j| ((2 * i + j) % 6 + 1) as f64);
        let w = ring_wiring(7);
        let parts = CtxParts::build(&d, &w, NodeId(0), 3);
        let mut inst = BrInstance::build(&parts.ctx());
        let (s, _) = inst.local_search(3, vec![2], &[2], 32);
        assert!(s.contains(&2));
    }
}
