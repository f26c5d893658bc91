//! All-pairs shortest paths as a dense matrix.
//!
//! A newcomer in EGOIST "obtains the pair-wise distance function `d_{G−i}`
//! by running an all-pairs shortest path algorithm on `G−i`" (§3.1). For the
//! sparse wirings EGOIST produces (`m ≈ n·k`, `k ≪ n`) that is one sweep
//! per source: [`crate::csr::all_pairs`] on [`MinPlus`], the pass every
//! route-state snapshot builds, read here into a [`DistanceMatrix`].

use crate::csr::{all_pairs, CsrGraph, MinPlus};
use crate::graph::DiGraph;
use crate::matrix::DistanceMatrix;

/// All-pairs shortest path distances: `result.get(i, j)` = `d_S(v_i, v_j)`;
/// infinite when unreachable. Counted and timed as every CSR all-pairs
/// build is (`graph.apsp.build`, `graph.apsp.sources`).
pub fn apsp(g: &DiGraph) -> DistanceMatrix {
    let n = g.len();
    let all = all_pairs::<MinPlus>(&CsrGraph::from_digraph(g));
    DistanceMatrix::from_fn(n, |i, j| all.dist[i * n + j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::floyd_warshall;
    use crate::types::NodeId;

    fn ring(n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for i in 0..n {
            g.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 1.0);
        }
        g
    }

    #[test]
    fn apsp_on_directed_ring() {
        let d = apsp(&ring(5));
        // Going "forward" only: distance i→j = (j - i) mod 5.
        assert_eq!(d.at(0, 1), 1.0);
        assert_eq!(d.at(0, 4), 4.0);
        assert_eq!(d.at(4, 0), 1.0);
        assert_eq!(d.at(3, 2), 4.0);
    }

    #[test]
    fn apsp_matches_floyd_warshall() {
        let mut g = ring(6);
        g.add_edge(NodeId(0), NodeId(3), 1.5);
        g.add_edge(NodeId(2), NodeId(5), 0.5);
        let a = apsp(&g);
        let f = floyd_warshall(&g);
        for i in 0..6 {
            for j in 0..6 {
                let (x, y) = (a.at(i, j), f.at(i, j));
                assert!(
                    (x - y).abs() < 1e-9 || (x.is_infinite() && y.is_infinite()),
                    "mismatch at ({i},{j}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn disconnected_pairs_infinite() {
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        let d = apsp(&g);
        assert!(d.at(0, 2).is_infinite());
        assert!(d.at(1, 3).is_infinite());
        assert_eq!(d.at(2, 3), 1.0);
    }
}
