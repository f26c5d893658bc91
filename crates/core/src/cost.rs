//! The SNS cost model.
//!
//! `C_i(S) = Σ_{j≠i} p_ij · d_S(v_i, v_j)` where `p_ij` is node `i`'s
//! preference for destination `j` and `d_S` the shortest-path distance over
//! the global wiring (Definition 1). Unreachable destinations cost `M ≫ n`
//! — a large *finite* penalty, so best responses are still comparable and
//! "the (infinite) cost of reaching the disconnected nodes will act as an
//! incentive for nodes to choose disconnected nodes as direct neighbors"
//! (§4.4).

use egoist_graph::csr::{tree_path_costs, MaxMin, Sweep, TreeScratch};
use egoist_graph::{CsrGraph, DiGraph, DijkstraWorkspace, DistanceMatrix, NodeId};
use rand::Rng;

/// Preference weights `p_ij`. Row `i` holds node `i`'s preference for each
/// destination; the diagonal is ignored. The paper's experiments use
/// uniform preference (which, per §4.2, is *conservative* for BR — skew
/// only helps it).
#[derive(Clone, Debug)]
pub struct Preferences {
    n: usize,
    /// Row `i` starts at `i * stride`: `n` for a dense matrix, 0 when
    /// every row is the same one (uniform preference costs `n` floats,
    /// not `n²` — a protocol node builds one per re-wiring job).
    stride: usize,
    weights: Vec<f64>,
}

impl Preferences {
    /// Uniform preference over all destinations: `p_ij = 1/(n−1)`.
    pub fn uniform(n: usize) -> Self {
        let w = if n > 1 { 1.0 / (n as f64 - 1.0) } else { 0.0 };
        Preferences {
            n,
            stride: 0,
            weights: vec![w; n],
        }
    }

    /// Zipf-skewed preferences: destination ranks are permuted per source
    /// (deterministically from `rng`), weight ∝ 1/rank^exponent, rows
    /// normalized to 1. Exercises the "BR leverages skew" claim.
    pub fn zipf(n: usize, exponent: f64, rng: &mut impl Rng) -> Self {
        let mut weights = vec![0.0; n * n];
        for i in 0..n {
            // Random permutation of destinations.
            let mut dests: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            for x in (1..dests.len()).rev() {
                let y = rng.random_range(0..=x);
                dests.swap(x, y);
            }
            let mut sum = 0.0;
            for (rank, &j) in dests.iter().enumerate() {
                let w = 1.0 / ((rank + 1) as f64).powf(exponent);
                weights[i * n + j] = w;
                sum += w;
            }
            if sum > 0.0 {
                for &j in &dests {
                    weights[i * n + j] /= sum;
                }
            }
        }
        Preferences {
            n,
            stride: n,
            weights,
        }
    }

    /// Build from an explicit dense weight matrix (row-major, length
    /// `n·n`). Used by the traffic-aware wiring policy, which blends the
    /// base preferences with an observed demand matrix.
    pub fn from_weights(n: usize, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), n * n, "weights must be dense n×n");
        Preferences {
            n,
            stride: n,
            weights,
        }
    }

    /// `p_ij`.
    #[inline]
    pub fn get(&self, i: NodeId, j: NodeId) -> f64 {
        self.weights[i.index() * self.stride + j.index()]
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.weights[i * self.stride..i * self.stride + self.n]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Disconnection penalty: `M` scaled to dominate any real path cost.
/// The paper requires `M ≫ n` under hop-count; for general metrics we use
/// a multiple of the largest finite direct cost times `n`.
pub fn disconnection_penalty(d: &DistanceMatrix) -> f64 {
    let n = d.len().max(2);
    let mut max_c: f64 = 0.0;
    for i in 0..d.len() {
        for j in 0..d.len() {
            let c = d.at(i, j);
            if c.is_finite() {
                max_c = max_c.max(c);
            }
        }
    }
    if max_c <= 0.0 {
        max_c = 1.0;
    }
    max_c * n as f64 * 4.0
}

/// Node `i`'s cost given its shortest-path distance vector `dist` (length
/// n), preferences and penalty for unreachable destinations.
pub fn node_cost_from_dists(
    i: NodeId,
    dist: &[f64],
    prefs: &Preferences,
    alive: &[bool],
    penalty: f64,
) -> f64 {
    let n = dist.len();
    let mut c = 0.0;
    for j in 0..n {
        if j == i.index() || !alive[j] {
            continue;
        }
        let d = dist[j];
        let term = if d.is_finite() { d } else { penalty };
        c += prefs.row(i.index())[j] * term;
    }
    c
}

/// Route from each of `sources` over the announced-cost overlay and hand
/// `visit` the source with its announced shortest-path distances and the
/// realized cost of each of those routes — the true costs summed along
/// the announced-shortest path (`INFINITY` when unreachable).
///
/// One shortest-path tree per source serves both rows: the realized row
/// is the true cost accumulated down the tree's parent links, which adds
/// exactly what walking each path would, in the same order.
pub fn realized_rows(
    announced: &DiGraph,
    sources: impl IntoIterator<Item = NodeId>,
    mut true_cost: impl FnMut(NodeId, NodeId) -> f64,
    mut visit: impl FnMut(NodeId, &[f64], &[f64]),
) {
    let n = announced.len();
    let g = CsrGraph::from_digraph(announced);
    let mut ws = DijkstraWorkspace::new(n);
    let mut tree = TreeScratch::default();
    let (mut dist, mut parent, mut realized) = (vec![0.0; n], vec![0u32; n], vec![0.0; n]);
    for i in sources {
        ws.sssp_into(&g, i.0, None, &mut dist, &mut parent);
        tree_path_costs(&parent, i.0, &mut true_cost, &mut realized, &mut tree);
        visit(i, &dist, &realized);
    }
}

/// Widest-path widths from each of `sources` over an overlay whose edge
/// costs are bandwidths (`0` when unreachable, `INFINITY` for the source
/// itself) — the max-min form of the sweep [`realized_rows`] runs, one
/// workspace reused across sources.
pub fn widest_rows(
    overlay: &DiGraph,
    sources: impl IntoIterator<Item = NodeId>,
    mut visit: impl FnMut(NodeId, &[f64]),
) {
    let n = overlay.len();
    let g = CsrGraph::from_digraph(overlay);
    let mut ws = DijkstraWorkspace::new(n);
    let (mut width, mut parent) = (vec![0.0; n], vec![0u32; n]);
    for i in sources {
        ws.sweep::<MaxMin>(&g, i.0, Sweep::default(), &mut width, &mut parent);
        visit(i, &width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widest_rows_bitwise_match_widest_paths() {
        // What `Simulator::measure` reads under the bandwidth metric,
        // against the dense reference it used to call: dead nodes (no
        // edges), a reused workspace and unreachable targets included.
        let n = 23;
        let bw = egoist_netsim::BandwidthModel::new(n, 5).available_matrix();
        let mut g = DiGraph::new(n);
        for i in (0..n).filter(|i| i % 7 != 3) {
            for o in [1, 4, 9] {
                let j = (i * 5 + o) % n;
                if j != i && j % 7 != 3 {
                    g.add_edge(NodeId::from_index(i), NodeId::from_index(j), bw.at(i, j));
                }
            }
        }
        let mut seen = 0;
        widest_rows(&g, (0..n).rev().map(NodeId::from_index), |i, width| {
            let oracle = egoist_graph::widest::widest_paths(&g, i).width;
            let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&oracle), bits(width), "source {i:?}");
            seen += 1;
        });
        assert_eq!(seen, n);
    }

    #[test]
    fn uniform_rows_sum_to_one() {
        let p = Preferences::uniform(5);
        for i in 0..5 {
            let s: f64 = p
                .row(i)
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, w)| w)
                .sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_rows_sum_to_one_and_are_skewed() {
        let mut rng = egoist_netsim::rng::derive(1, "zipf");
        let p = Preferences::zipf(10, 1.2, &mut rng);
        for i in 0..10 {
            let row = p.row(i);
            let s: f64 = row
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, w)| w)
                .sum();
            assert!((s - 1.0).abs() < 1e-9);
            let max = row.iter().cloned().fold(0.0, f64::max);
            assert!(max > 2.0 / 9.0, "skew should concentrate mass: {max}");
        }
    }

    #[test]
    fn penalty_dominates_any_path() {
        let d = DistanceMatrix::off_diagonal(10, 50.0);
        let m = disconnection_penalty(&d);
        // Any simple path costs < n * max ≤ 500.
        assert!(m > 500.0);
    }

    #[test]
    fn node_cost_uses_penalty_for_unreachable() {
        let prefs = Preferences::uniform(3);
        let alive = vec![true; 3];
        let dist = vec![0.0, 2.0, f64::INFINITY];
        let c = node_cost_from_dists(NodeId(0), &dist, &prefs, &alive, 100.0);
        assert!((c - 0.5 * (2.0 + 100.0)).abs() < 1e-12);
    }

    #[test]
    fn node_cost_skips_dead_nodes() {
        let prefs = Preferences::uniform(3);
        let alive = vec![true, true, false];
        let dist = vec![0.0, 2.0, f64::INFINITY];
        let c = node_cost_from_dists(NodeId(0), &dist, &prefs, &alive, 100.0);
        assert!((c - 0.5 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn realized_equals_announced_for_honest_nodes() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 2.0);
        g.add_edge(NodeId(1), NodeId(2), 3.0);
        let honest = |u, v| g.edge_cost(u, v).unwrap();
        realized_rows(&g, [NodeId(0)], honest, |_, dist, realized| {
            assert_eq!(dist[2], 5.0);
            assert_eq!(realized[2], 5.0);
        });
    }

    #[test]
    fn inflated_announcement_diverts_routing() {
        // True costs: 0→1→2 costs 2, direct 0→2 costs 3.
        // Node 1 inflates its out-link 1→2 to 9 → routing goes direct (3),
        // realized cost 3 even though the true best path costs 2.
        let mut announced = DiGraph::new(3);
        announced.add_edge(NodeId(0), NodeId(1), 1.0);
        announced.add_edge(NodeId(1), NodeId(2), 9.0); // true 1.0
        announced.add_edge(NodeId(0), NodeId(2), 3.0);
        let truth = |u, v| {
            if (u, v) == (NodeId(1), NodeId(2)) {
                1.0
            } else {
                announced.edge_cost(u, v).unwrap()
            }
        };
        realized_rows(&announced, [NodeId(0)], truth, |_, dist, realized| {
            assert_eq!(dist[2], 3.0);
            assert_eq!(realized[2], 3.0);
        });
        // The honest network would have realized 2.0; the lie costs 0→ 1.0.
    }

    #[test]
    fn one_tree_per_source_equals_walking_every_path() {
        use egoist_graph::apsp::apsp;
        use egoist_graph::dijkstra::dijkstra;
        use rand::Rng;
        // Small-integer announced costs: equal-cost routes everywhere,
        // so the tree's parent choice matters; irrational-ish true costs,
        // so the order of the additions matters.
        for seed in 0..20u64 {
            let mut rng = egoist_netsim::rng::derive(seed, "realized-rows");
            let n = rng.random_range(2..40usize);
            let mut g = DiGraph::new(n);
            for i in 0..n {
                for _ in 0..rng.random_range(0..4u32) {
                    let j = rng.random_range(0..n);
                    if j != i {
                        let c = rng.random_range(0..4u32) as f64;
                        g.add_edge(NodeId::from_index(i), NodeId::from_index(j), c);
                    }
                }
            }
            let truth = DistanceMatrix::from_fn(n, |i, j| ((i * 31 + j * 17) % 97) as f64 * 0.1);
            let announced = apsp(&g);
            let mut seen = 0;
            let all = (0..n).map(NodeId::from_index);
            realized_rows(
                &g,
                all,
                |u, v| truth.get(u, v),
                |i, dist, realized| {
                    let sp = dijkstra(&g, i);
                    for j in 0..n {
                        let walked = match sp.path_to(NodeId::from_index(j)) {
                            Some(path) => {
                                path.windows(2).fold(0.0, |c, w| c + truth.get(w[0], w[1]))
                            }
                            None => f64::INFINITY,
                        };
                        assert_eq!(realized[j].to_bits(), walked.to_bits());
                        assert_eq!(dist[j].to_bits(), announced.at(i.index(), j).to_bits());
                    }
                    seen += 1;
                },
            );
            assert_eq!(seen, n);
        }
    }
}
