//! k-Random: "each node selects k neighbors randomly. If the resulting
//! graph is not connected, we enforce a cycle." (§3.2)
//!
//! The cycle enforcement is a *global* fix-up applied by the overlay
//! simulator after all nodes wire (see `crate::sim`); the per-node policy
//! here is the random choice itself.

use super::{Policy, WiringContext};
use egoist_graph::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// The k-Random policy.
pub struct KRandom;

impl Policy for KRandom {
    fn wire(&mut self, ctx: &WiringContext<'_>, rng: &mut StdRng) -> Vec<NodeId> {
        let k = ctx.effective_k();
        let mut pool: Vec<NodeId> = ctx.candidates.to_vec();
        // The full shuffle: a partial one draws differently and would
        // move every k-Random wiring.
        pool.shuffle(rng);
        // A copy of the k kept, so the stored wiring holds no room for
        // the whole pool.
        pool[..k].to_vec()
    }

    fn name(&self) -> &'static str {
        "k-Random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::CtxParts;
    use crate::wiring::Wiring;
    use egoist_graph::DistanceMatrix;
    use rand::SeedableRng;

    fn parts(k: usize) -> CtxParts {
        let d = DistanceMatrix::off_diagonal(10, 1.0);
        let w = Wiring::empty(10);
        CtxParts::build(&d, &w, NodeId(0), k)
    }

    #[test]
    fn returns_k_distinct_candidates() {
        let p = parts(4);
        let mut rng = StdRng::seed_from_u64(1);
        let n = KRandom.wire(&p.ctx(), &mut rng);
        assert_eq!(n.len(), 4);
        let mut s = n.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 4);
        assert!(!n.contains(&NodeId(0)));
    }

    #[test]
    fn is_seed_deterministic() {
        let p = parts(3);
        let a = KRandom.wire(&p.ctx(), &mut StdRng::seed_from_u64(7));
        let b = KRandom.wire(&p.ctx(), &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let p = parts(3);
        let a = KRandom.wire(&p.ctx(), &mut StdRng::seed_from_u64(1));
        let b = KRandom.wire(&p.ctx(), &mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
    }

    #[test]
    fn clamps_to_population() {
        let p = parts(100);
        let n = KRandom.wire(&p.ctx(), &mut StdRng::seed_from_u64(3));
        assert_eq!(n.len(), 9);
    }
}
