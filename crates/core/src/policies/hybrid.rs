//! HybridBR: selfish wiring plus donated connectivity links (§3.3).
//!
//! "Each node uses k1 of its k links to selfishly optimize its performance
//! using BR, and 'donates' the remaining k2 = k − k1 links to the system to
//! be used for assuring basic connectivity under churn" — built as `k2/2`
//! bidirectional id-offset cycles rather than k-MSTs.
//!
//! Computing BR conditioned on the donated links is the paper's ILP trick
//! of fixing `Y_i := 1` for backbone targets; in our local-search solver
//! the donated candidates are simply *forced* members of the subset.

use super::best_response::BrInstance;
use super::solver::{indices_of, SolverArena, MAX_ROUNDS};
use super::{Policy, WiringContext};
use egoist_graph::cycles::backbone_edges;
use egoist_graph::NodeId;
use rand::rngs::StdRng;

/// The HybridBR policy.
pub struct HybridBr {
    /// Number of donated links (must be even; `k2/2` cycles).
    pub k2: usize,
    /// Recycled solver storage.
    arena: SolverArena,
}

impl HybridBr {
    /// HybridBR donating `k2` links.
    pub fn new(k2: usize) -> Self {
        HybridBr {
            k2,
            arena: SolverArena::default(),
        }
    }

    /// The donated out-links of `node` given the current alive set.
    pub fn donated_links(&self, node: NodeId, alive_nodes: &[NodeId]) -> Vec<NodeId> {
        backbone_edges(alive_nodes, self.k2)
            .into_iter()
            .filter(|&(a, _)| a == node)
            .map(|(_, b)| b)
            .collect()
    }
}

impl Policy for HybridBr {
    fn wire(&mut self, ctx: &WiringContext<'_>, _rng: &mut StdRng) -> Vec<NodeId> {
        // The ring spans the membership, not the candidate list: a
        // sampled turn's candidates are a subset of it.
        let alive_nodes: Vec<NodeId> = (0..ctx.alive.len())
            .filter(|&j| ctx.alive[j])
            .map(NodeId::from_index)
            .collect();

        let donated = self.donated_links(ctx.node, &alive_nodes);
        let k = ctx.effective_k();
        if donated.len() >= k {
            // Degenerate: the whole budget is donated.
            return donated[..k].to_vec();
        }

        let mut inst = BrInstance::build_in(ctx, &mut self.arena);
        let forced = indices_of(&inst.cand, &donated);
        debug_assert_eq!(
            forced.len(),
            donated.len(),
            "a donated link is no candidate"
        );
        let init = inst.greedy(k, &forced);
        let (subset, _) = inst.local_search(k, init, &forced, MAX_ROUNDS);
        let nodes = inst.to_nodes(&subset);
        inst.recycle(&mut self.arena);
        nodes
    }

    fn name(&self) -> &'static str {
        "HybridBR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::CtxParts;
    use crate::wiring::Wiring;
    use egoist_graph::connectivity::strongly_connected;
    use egoist_graph::{DiGraph, DistanceMatrix};
    use rand::SeedableRng;

    fn metric(n: usize) -> DistanceMatrix {
        DistanceMatrix::from_fn(n, |i, j| ((i * 7 + j * 11) % 17 + 1) as f64)
    }

    #[test]
    fn donated_links_follow_the_backbone() {
        let h = HybridBr::new(2);
        let alive: Vec<NodeId> = (0..8).map(NodeId).collect();
        let d = h.donated_links(NodeId(3), &alive);
        // Unit bidirectional cycle: 3 → 4 and 3 → 2.
        assert!(d.contains(&NodeId(4)));
        assert!(d.contains(&NodeId(2)));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn wiring_includes_all_donated_links() {
        let n = 10;
        let d = metric(n);
        let w = Wiring::empty(n);
        let parts = CtxParts::build(&d, &w, NodeId(5), 5);
        let mut h = HybridBr::new(2);
        let wired = h.wire(&parts.ctx(), &mut StdRng::seed_from_u64(0));
        assert_eq!(wired.len(), 5);
        assert!(wired.contains(&NodeId(6)));
        assert!(wired.contains(&NodeId(4)));
    }

    #[test]
    fn overlay_of_hybrid_nodes_is_strongly_connected_even_without_br() {
        // Even if every selfish link were useless, the backbone connects.
        let n = 9;
        let d = metric(n);
        let w = Wiring::empty(n);
        let mut h = HybridBr::new(2);
        let mut g = DiGraph::new(n);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..n {
            let parts = CtxParts::build(&d, &w, NodeId::from_index(i), 4);
            for t in h.wire(&parts.ctx(), &mut rng) {
                g.add_edge(NodeId::from_index(i), t, 1.0);
            }
        }
        let members: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        assert!(strongly_connected(&g, &members));
    }

    #[test]
    fn degenerate_all_donated() {
        let n = 8;
        let d = metric(n);
        let w = Wiring::empty(n);
        let parts = CtxParts::build(&d, &w, NodeId(0), 2);
        let mut h = HybridBr::new(4); // k2 > k
        let wired = h.wire(&parts.ctx(), &mut StdRng::seed_from_u64(0));
        assert_eq!(wired.len(), 2);
    }

    #[test]
    fn selfish_links_improve_on_backbone_alone() {
        use crate::policies::best_response::BrInstance;
        let n = 12;
        let d = metric(n);
        let w = Wiring::empty(n);
        let parts = CtxParts::build(&d, &w, NodeId(0), 6);
        let ctx = parts.ctx();
        let mut h = HybridBr::new(2);
        let wired = h.wire(&ctx, &mut StdRng::seed_from_u64(0));
        let inst = BrInstance::build(&ctx);
        let full = indices_of(&inst.cand, &wired);
        let alive: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let donated_only = indices_of(&inst.cand, &h.donated_links(NodeId(0), &alive));
        assert!(inst.eval(&full) < inst.eval(&donated_only));
    }

    #[test]
    fn backbone_adapts_to_alive_set() {
        let h = HybridBr::new(2);
        let alive: Vec<NodeId> = vec![NodeId(0), NodeId(3), NodeId(7)];
        let d = h.donated_links(NodeId(3), &alive);
        // Ring over {0, 3, 7}: 3 → 7 (forward), 3 → 0 (backward).
        assert!(d.contains(&NodeId(7)));
        assert!(d.contains(&NodeId(0)));
    }
}
