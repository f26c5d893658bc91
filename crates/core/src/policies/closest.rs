//! k-Closest: "each node selects its k neighbors to be the nodes with the
//! minimum link cost (e.g., minimum delay from it, maximum bandwidth,
//! etc.)." (§3.2)
//!
//! The policy is myopic: it looks only at the first hop. That is exactly
//! why it wins at tiny `k` on delay (nearby nodes are usually fine first
//! hops) but "fails to predict anything beyond the immediate neighbor" for
//! the load metric (§4.2) — and the shape our reproduction must preserve.
//!
//! "Minimum link cost" is the metric's: the ranking is
//! [`PathAlgebra::better`] of the metric's algebra, so [`MinPlus`] (delay,
//! load) takes the smallest direct costs and [`MaxMin`] the largest
//! available bandwidths — §4.1's k-Widest is `KClosest<MaxMin>`.
//!
//! [`MaxMin`]: egoist_graph::csr::MaxMin

use super::{Policy, WiringContext};
use egoist_graph::csr::{MinPlus, PathAlgebra};
use egoist_graph::NodeId;
use rand::rngs::StdRng;
use std::marker::PhantomData;

/// The k-Closest policy on algebra `A`'s notion of a better direct cost.
pub struct KClosest<A = MinPlus>(PhantomData<A>);

impl<A> Default for KClosest<A> {
    fn default() -> Self {
        KClosest(PhantomData)
    }
}

impl<A: PathAlgebra> Policy for KClosest<A> {
    fn wire(&mut self, ctx: &WiringContext<'_>, _rng: &mut StdRng) -> Vec<NodeId> {
        let k = ctx.effective_k();
        let mut pool: Vec<NodeId> = ctx.candidates.to_vec();
        // Better direct cost first — `heap_order` is `better` made total —
        // tie-break on id for determinism.
        pool.sort_by(|a, b| {
            A::heap_order(ctx.direct[b.index()], ctx.direct[a.index()]).then(a.cmp(b))
        });
        // A copy of the k kept, so the stored wiring holds no room for
        // the whole pool.
        pool[..k].to_vec()
    }

    fn name(&self) -> &'static str {
        "k-Closest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::CtxParts;
    use crate::wiring::Wiring;
    use egoist_graph::DistanceMatrix;
    use rand::SeedableRng;

    fn k_closest() -> KClosest {
        KClosest::default()
    }

    #[test]
    fn picks_minimum_direct_costs() {
        let d = DistanceMatrix::from_fn(6, |i, j| if i == 0 { (j * 10) as f64 } else { 1.0 });
        let w = Wiring::empty(6);
        let p = CtxParts::build(&d, &w, NodeId(0), 3);
        let n = k_closest().wire(&p.ctx(), &mut StdRng::seed_from_u64(0));
        assert_eq!(n, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn ignores_everything_beyond_first_hop() {
        // Node 1 is nearest but a dead end; k-Closest picks it anyway.
        let mut d = DistanceMatrix::off_diagonal(4, 10.0);
        d.set(NodeId(0), NodeId(1), 1.0);
        let w = Wiring::empty(4);
        let p = CtxParts::build(&d, &w, NodeId(0), 1);
        let n = k_closest().wire(&p.ctx(), &mut StdRng::seed_from_u64(0));
        assert_eq!(n, vec![NodeId(1)]);
    }

    #[test]
    fn deterministic_without_rng() {
        let d = DistanceMatrix::from_fn(8, |i, j| ((i * 5 + j * 7) % 11 + 1) as f64);
        let w = Wiring::empty(8);
        let p = CtxParts::build(&d, &w, NodeId(2), 4);
        let a = k_closest().wire(&p.ctx(), &mut StdRng::seed_from_u64(1));
        let b = k_closest().wire(&p.ctx(), &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    fn tie_break_is_by_id() {
        let d = DistanceMatrix::off_diagonal(5, 3.0);
        let w = Wiring::empty(5);
        let p = CtxParts::build(&d, &w, NodeId(4), 2);
        let n = k_closest().wire(&p.ctx(), &mut StdRng::seed_from_u64(0));
        assert_eq!(n, vec![NodeId(0), NodeId(1)]);
    }
}
