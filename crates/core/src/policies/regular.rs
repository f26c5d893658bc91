//! k-Regular: "all nodes follow the same wiring pattern dictated by a
//! common offset vector o = {o_1, …, o_k} … node i connects to nodes
//! i + o_j mod n, j = 1, …, k. In our system, we set
//! o_j = 1 + (j−1)·(n−1)/(k+1)." (§3.2)
//!
//! Visualized on a DHT-style id ring, the offsets spread each node's `k`
//! links evenly around the periphery. The formula assumes `n − 1` is a
//! multiple of `k + 1`; we round to the nearest integer otherwise, then
//! deduplicate. Dead targets are simply skipped (k-Regular has no repair
//! story — which is exactly why its efficiency collapses under churn in
//! Fig. 2).

use super::{Policy, WiringContext};
use egoist_graph::NodeId;
use rand::rngs::StdRng;

/// The k-Regular policy.
pub struct KRegular;

/// The paper's offset vector for population size `n` and degree `k`.
pub fn offsets(n: usize, k: usize) -> Vec<usize> {
    let mut o = Vec::with_capacity(k);
    for j in 1..=k {
        let raw = 1.0 + (j as f64 - 1.0) * (n as f64 - 1.0) / (k as f64 + 1.0);
        let off = (raw.round() as usize).clamp(1, n.saturating_sub(1).max(1));
        o.push(off);
    }
    o.dedup();
    o
}

impl Policy for KRegular {
    fn wire(&mut self, ctx: &WiringContext<'_>, _rng: &mut StdRng) -> Vec<NodeId> {
        let n = ctx.alive.len();
        let k = ctx.effective_k();
        let mut out = Vec::with_capacity(k);
        for off in offsets(n, k) {
            let target = NodeId::from_index((ctx.node.index() + off) % n);
            if target != ctx.node && ctx.alive[target.index()] && !out.contains(&target) {
                out.push(target);
            }
        }
        // A dead or repeated target leaves a slot unused.
        out.shrink_to_fit();
        out
    }

    fn name(&self) -> &'static str {
        "k-Regular"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::CtxParts;
    use crate::wiring::Wiring;
    use egoist_graph::DistanceMatrix;
    use rand::SeedableRng;

    #[test]
    fn offsets_match_paper_formula_when_divisible() {
        // n = 50, k = 6: n−1 = 49 = 7 · (k+1) → o_j = 1 + (j−1)·7.
        assert_eq!(offsets(50, 6), vec![1, 8, 15, 22, 29, 36]);
    }

    #[test]
    fn offsets_rounded_otherwise() {
        let o = offsets(50, 4);
        assert_eq!(o.len(), 4);
        assert_eq!(o[0], 1);
        assert!(o.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn all_nodes_follow_same_pattern() {
        let d = DistanceMatrix::off_diagonal(10, 1.0);
        let w = Wiring::empty(10);
        let mut rng = StdRng::seed_from_u64(0);
        let p0 = CtxParts::build(&d, &w, NodeId(0), 3);
        let p4 = CtxParts::build(&d, &w, NodeId(4), 3);
        let n0 = KRegular.wire(&p0.ctx(), &mut rng);
        let n4 = KRegular.wire(&p4.ctx(), &mut rng);
        // Same offsets, shifted by 4 (mod 10).
        let shifted: Vec<NodeId> = n0
            .iter()
            .map(|v| NodeId::from_index((v.index() + 4) % 10))
            .collect();
        assert_eq!(n4, shifted);
    }

    #[test]
    fn union_over_all_nodes_is_a_connected_circulant() {
        use egoist_graph::connectivity::strongly_connected;
        use egoist_graph::DiGraph;
        let n = 12;
        let d = DistanceMatrix::off_diagonal(n, 1.0);
        let w = Wiring::empty(n);
        let mut g = DiGraph::new(n);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..n {
            let p = CtxParts::build(&d, &w, NodeId::from_index(i), 2);
            for t in KRegular.wire(&p.ctx(), &mut rng) {
                g.add_edge(NodeId::from_index(i), t, 1.0);
            }
        }
        let members: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        assert!(strongly_connected(&g, &members));
    }

    #[test]
    fn skips_dead_targets_without_replacement() {
        let d = DistanceMatrix::off_diagonal(10, 1.0);
        let w = Wiring::empty(10);
        let mut parts = CtxParts::build(&d, &w, NodeId(0), 3);
        // Kill node 1 (offset 1 target of node 0).
        parts.alive[1] = false;
        parts.candidates.retain(|&c| c != NodeId(1));
        let n = KRegular.wire(&parts.ctx(), &mut StdRng::seed_from_u64(0));
        assert!(!n.contains(&NodeId(1)));
        assert!(n.len() < 3, "no replacement for dead targets");
    }
}
