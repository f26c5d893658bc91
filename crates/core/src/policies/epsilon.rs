//! BR(ε): threshold re-wiring (§4.3).
//!
//! "The re-wiring rate can significantly be decreased (with marginal
//! impact on routing cost) by requiring that re-wiring be performed only
//! if connecting to the 'new' set of neighbors would improve the local
//! cost to the node by more than a given threshold ε."
//!
//! The policy computes a full best response, then compares the cost of
//! the proposed wiring against the cost of *keeping the current wiring*;
//! only a relative improvement beyond ε triggers the change.

use super::best_response::{BestResponse, BrInstance};
use super::solver::{indices_of, SolverArena};
use super::{Policy, WiringContext};
use egoist_graph::NodeId;
use rand::rngs::StdRng;

/// The BR(ε) policy.
pub struct EpsilonBr {
    /// Relative improvement threshold (0.1 = 10%).
    pub epsilon: f64,
    inner: BestResponse,
    /// Recycled storage for the keep-current evaluation.
    arena: SolverArena,
}

impl EpsilonBr {
    /// BR(ε) with local-search inner solver.
    pub fn new(epsilon: f64) -> Self {
        EpsilonBr {
            epsilon,
            inner: BestResponse::local_search(),
            arena: SolverArena::default(),
        }
    }

    /// Cost of keeping the current wiring, under announced information,
    /// computed in recycled storage.
    fn current_cost_in(ctx: &WiringContext<'_>, arena: &mut SolverArena) -> f64 {
        let inst = BrInstance::build_in(ctx, arena);
        let cost = inst.eval(&indices_of(&inst.cand, ctx.current));
        inst.recycle(arena);
        cost
    }
}

impl Policy for EpsilonBr {
    fn wire(&mut self, ctx: &WiringContext<'_>, _rng: &mut StdRng) -> Vec<NodeId> {
        let (proposed, new_cost) = self.inner.solve(ctx);
        if ctx.current.is_empty() {
            return proposed; // first join: wire unconditionally
        }
        // Re-evaluate the old wiring against *current* announced costs.
        let old_cost = Self::current_cost_in(ctx, &mut self.arena);
        if old_cost.is_finite() && new_cost < old_cost * (1.0 - self.epsilon) {
            proposed
        } else {
            // Keep the old wiring, dropping dead neighbors.
            let mut kept: Vec<NodeId> = ctx
                .current
                .iter()
                .copied()
                .filter(|w| ctx.alive[w.index()])
                .collect();
            kept.shrink_to_fit();
            kept
        }
    }

    fn name(&self) -> &'static str {
        "BR(eps)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::CtxParts;
    use crate::wiring::Wiring;
    use egoist_graph::DistanceMatrix;
    use rand::SeedableRng;

    fn base_matrix() -> DistanceMatrix {
        DistanceMatrix::from_fn(8, |i, j| ((i * 5 + j * 3) % 13 + 1) as f64)
    }

    fn converged_wiring(d: &DistanceMatrix, k: usize) -> Wiring {
        // One pass of BR for each node, from a ring start.
        let n = d.len();
        let mut w = Wiring::empty(n);
        for i in 0..n {
            w.rewire(NodeId::from_index(i), vec![NodeId::from_index((i + 1) % n)]);
        }
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..n {
            let parts = CtxParts::build(d, &w, NodeId::from_index(i), k);
            let neigh = BestResponse::local_search().wire(&parts.ctx(), &mut rng);
            w.rewire(NodeId::from_index(i), neigh);
        }
        w
    }

    #[test]
    fn first_join_wires_unconditionally() {
        let d = base_matrix();
        let w = Wiring::empty(8);
        let parts = CtxParts::build(&d, &w, NodeId(0), 2);
        let n = EpsilonBr::new(0.5).wire(&parts.ctx(), &mut StdRng::seed_from_u64(0));
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn small_gains_do_not_trigger_rewiring() {
        let d = base_matrix();
        let w = converged_wiring(&d, 2);
        // After convergence the BR gain is ~0, so any ε > 0 keeps wiring.
        let parts = CtxParts::build(&d, &w, NodeId(3), 2);
        let kept = EpsilonBr::new(0.10).wire(&parts.ctx(), &mut StdRng::seed_from_u64(0));
        let mut cur = parts.current.clone();
        let mut got = kept.clone();
        cur.sort_unstable();
        got.sort_unstable();
        assert_eq!(cur, got, "ε should suppress marginal re-wiring");
    }

    #[test]
    fn big_gains_do_trigger_rewiring() {
        // Current wiring is terrible (farthest node); BR improvement is
        // large, so even ε = 0.10 re-wires.
        let mut d = DistanceMatrix::off_diagonal(6, 2.0);
        d.set(NodeId(0), NodeId(5), 500.0);
        let mut w = Wiring::empty(6);
        for i in 1..6 {
            w.rewire(
                NodeId::from_index(i),
                vec![NodeId::from_index(if i == 5 { 1 } else { i + 1 })],
            );
        }
        w.rewire(NodeId(0), vec![NodeId(5)]);
        let parts = CtxParts::build(&d, &w, NodeId(0), 1);
        let n = EpsilonBr::new(0.10).wire(&parts.ctx(), &mut StdRng::seed_from_u64(0));
        assert_ne!(n, vec![NodeId(5)], "must abandon the 500-cost link");
    }

    #[test]
    fn epsilon_zero_behaves_like_br() {
        let d = base_matrix();
        let w = converged_wiring(&d, 3);
        let parts = CtxParts::build(&d, &w, NodeId(1), 3);
        let mut rng = StdRng::seed_from_u64(0);
        let br = BestResponse::local_search().wire(&parts.ctx(), &mut rng);
        let eps = EpsilonBr::new(0.0).wire(&parts.ctx(), &mut rng);
        let mut a = br;
        let mut b = eps;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn dead_neighbors_are_dropped_when_keeping() {
        let d = base_matrix();
        let w = converged_wiring(&d, 2);
        let mut parts = CtxParts::build(&d, &w, NodeId(3), 2);
        let victim = parts.current[0];
        parts.alive[victim.index()] = false;
        parts.candidates.retain(|&c| c != victim);
        let kept = EpsilonBr::new(10.0) // absurd ε: never re-wire
            .wire(&parts.ctx(), &mut StdRng::seed_from_u64(0));
        assert!(!kept.contains(&victim));
    }
}
