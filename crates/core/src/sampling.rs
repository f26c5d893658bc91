//! Scalability via sampling (§5).
//!
//! Computing a best response over all `n` candidates is expensive at
//! scale, so EGOIST computes BR over a *sample* of `m` candidates —
//! [`shortlist`], the one stage every sampled turn goes through:
//!
//! * **Unbiased random sampling** — `m` uniform picks (no score).
//! * **Biased sampling** — half of the sample is the best candidates by
//!   a score, the other half uniform from the rest. The simulator scores
//!   by measured direct cost; §5's topology-based bias scores by
//!   `b_ij = |F(v_j)| / Σ_{u ∈ F(v_j)} d(v_i, u)` ([`rank`])
//!   where `F(v_j)` is `v_j`'s out-neighborhood of radius `r` hops: "An
//!   ideal candidate for `v_i` has a large neighborhood of nodes, many of
//!   which are relatively close to `v_i`."

use egoist_graph::csr::PathAlgebra;
use egoist_graph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// The §5 sample a best response is computed over: every member of
/// `keep` that is a candidate (the node's current and forced links — a
/// turn must be able to keep what it has), then the `m / 2` best of the
/// rest by `score` (ranked by `A::better`, ties to the earlier
/// candidate), then uniform draws from what is left until `m` were
/// added. Without a score all `m` are uniform. The result is a
/// subsequence of `candidates`; when `candidates.len() <= m` it is
/// `candidates` itself and `rng` is not touched, so runs that small
/// never see the stage.
pub fn shortlist<A: PathAlgebra>(
    candidates: &[NodeId],
    keep: &[NodeId],
    m: usize,
    score: Option<&dyn Fn(NodeId) -> f64>,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    if candidates.len() <= m {
        return candidates.to_vec();
    }
    let mut picked: Vec<bool> = candidates.iter().map(|c| keep.contains(c)).collect();
    let mut rest: Vec<usize> = (0..candidates.len()).filter(|&p| !picked[p]).collect();
    let mut best = 0;
    if let Some(score) = score {
        best = (m / 2).min(rest.len());
        let key: Vec<f64> = candidates.iter().map(|&c| score(c)).collect();
        if best < rest.len() {
            rest.select_nth_unstable_by(best, |&a, &b| {
                A::better(key[b], key[a])
                    .cmp(&A::better(key[a], key[b]))
                    .then(a.cmp(&b))
            });
        }
    }
    let pool = &mut rest[best..];
    let uniform = (m - best).min(pool.len());
    for t in 0..uniform {
        let j = rng.random_range(t..pool.len());
        pool.swap(t, j);
    }
    for &p in &rest[..best + uniform] {
        picked[p] = true;
    }
    candidates
        .iter()
        .zip(picked)
        .filter_map(|(&c, picked)| picked.then_some(c))
        .collect()
}

/// Size and members of the radius-`r` out-neighborhood `F(v)` in `g`
/// (excluding `v` itself). Hop-count radius, costs ignored.
pub fn neighborhood(g: &DiGraph, v: NodeId, r: usize) -> Vec<NodeId> {
    let mut dist = vec![usize::MAX; g.len()];
    let mut queue = std::collections::VecDeque::new();
    dist[v.index()] = 0;
    queue.push_back(v);
    let mut out = Vec::new();
    while let Some(u) = queue.pop_front() {
        if dist[u.index()] >= r {
            continue;
        }
        for e in g.out_edges(u) {
            if dist[e.to.index()] == usize::MAX {
                dist[e.to.index()] = dist[u.index()] + 1;
                out.push(e.to);
                queue.push_back(e.to);
            }
        }
    }
    out
}

/// The ranking function `b_ij` for candidate `j` from the perspective of a
/// newcomer whose measured direct distances are `direct` (dense by node
/// index). Returns 0 for an empty neighborhood.
pub fn rank(g: &DiGraph, j: NodeId, r: usize, direct: &[f64]) -> f64 {
    let f = neighborhood(g, j, r);
    if f.is_empty() {
        return 0.0;
    }
    let denom: f64 = f
        .iter()
        .map(|u| direct[u.index()].max(1e-9))
        .filter(|d| d.is_finite())
        .sum();
    if denom <= 0.0 {
        return 0.0;
    }
    f.len() as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use egoist_graph::csr::{MaxMin, MinPlus};
    use rand::SeedableRng;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    /// Star: node 0 reaches everyone in 1 hop; leaves reach nobody.
    fn star(n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for j in 1..n {
            g.add_edge(NodeId(0), NodeId::from_index(j), 1.0);
        }
        g
    }

    #[test]
    fn uniform_shortlist_is_distinct_and_bounded() {
        let c = ids(20);
        let mut rng = StdRng::seed_from_u64(1);
        let s = shortlist::<MinPlus>(&c, &[], 8, None, &mut rng);
        assert_eq!(s.len(), 8);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "a subsequence: {s:?}");
        assert_eq!(shortlist::<MinPlus>(&c, &[], 50, None, &mut rng), c);
    }

    #[test]
    fn shortlist_keeps_links_then_best_then_uniform() {
        let c = ids(40);
        let direct: Vec<f64> = (0..40).map(|j| ((j * 7) % 40) as f64).collect();
        let score = |j: NodeId| direct[j.index()];
        let keep = [NodeId(39), NodeId(3), NodeId(77)];
        let mut rng = StdRng::seed_from_u64(5);
        let low = shortlist::<MinPlus>(&c, &keep, 8, Some(&score), &mut rng);
        // 39 and 3 are candidates, 77 is not; the four cheapest of the
        // rest have direct cost 0..=3; four more are drawn.
        assert_eq!(low.len(), 2 + 8);
        for j in [39u32, 3, 0, 23, 6, 29] {
            assert!(low.contains(&NodeId(j)), "{j} missing from {low:?}");
        }
        let high = shortlist::<MaxMin>(&c, &keep, 8, Some(&score), &mut rng);
        for j in [39u32, 3, 17, 34, 11, 28] {
            assert!(high.contains(&NodeId(j)), "{j} missing from {high:?}");
        }
    }

    #[test]
    fn neighborhood_radius_one_is_out_neighbors() {
        let g = star(6);
        assert_eq!(neighborhood(&g, NodeId(0), 1).len(), 5);
        assert!(neighborhood(&g, NodeId(3), 1).is_empty());
    }

    #[test]
    fn neighborhood_radius_two_expands() {
        // Chain 0→1→2→3.
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        assert_eq!(neighborhood(&g, NodeId(0), 1).len(), 1);
        assert_eq!(neighborhood(&g, NodeId(0), 2).len(), 2);
        assert_eq!(neighborhood(&g, NodeId(0), 3).len(), 3);
    }

    #[test]
    fn rank_prefers_hubs_near_the_source() {
        let g = star(8);
        let direct = vec![1.0; 8];
        let hub = rank(&g, NodeId(0), 2, &direct);
        let leaf = rank(&g, NodeId(3), 2, &direct);
        assert!(hub > leaf, "hub {hub} must outrank leaf {leaf}");
    }

    #[test]
    fn rank_penalizes_distant_neighborhoods() {
        let g = star(8);
        let near = vec![1.0; 8];
        let far = vec![100.0; 8];
        assert!(rank(&g, NodeId(0), 2, &near) > rank(&g, NodeId(0), 2, &far));
    }

    #[test]
    fn rank_scored_shortlist_finds_the_hubs() {
        // Two hubs (0 and 1) among 30 nodes: with b_ij as the score the
        // best half of a 4-sample is exactly the hubs.
        let n = 30;
        let mut g = DiGraph::new(n);
        for j in 2..n {
            g.add_edge(NodeId(0), NodeId::from_index(j), 1.0);
            g.add_edge(NodeId(1), NodeId::from_index(j), 1.0);
        }
        let direct = vec![1.0; n];
        let c = ids(n as u32);
        let b_ij = |j: NodeId| rank(&g, j, 2, &direct);
        let mut rng = StdRng::seed_from_u64(7);
        let s = shortlist::<MaxMin>(&c, &[], 4, Some(&b_ij), &mut rng);
        assert!(
            s.contains(&NodeId(0)) && s.contains(&NodeId(1)),
            "expected both hubs in {s:?}"
        );
    }
}
