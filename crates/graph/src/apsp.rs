//! All-pairs shortest paths.
//!
//! A newcomer in EGOIST "obtains the pair-wise distance function `d_{G−i}`
//! by running an all-pairs shortest path algorithm on `G−i`" (§3.1). For the
//! sparse wirings EGOIST produces (`m ≈ n·k`, `k ≪ n`) repeated Dijkstra is
//! asymptotically better than Floyd–Warshall; both are provided and
//! cross-checked in tests.

use crate::dijkstra::dijkstra;
use crate::graph::DiGraph;
use crate::matrix::DistanceMatrix;
use crate::types::NodeId;

/// All-pairs shortest path distances via `n` Dijkstra runs.
/// `result.get(i, j)` = `d_S(v_i, v_j)`; infinite when unreachable.
pub fn apsp(g: &DiGraph) -> DistanceMatrix {
    let n = g.len();
    let mut out = DistanceMatrix::filled(n, f64::INFINITY);
    for i in 0..n {
        let sp = dijkstra(g, NodeId::from_index(i));
        for (j, &d) in sp.dist.iter().enumerate() {
            out.set_at(i, j, d);
        }
    }
    out
}

/// All-pairs shortest paths via Floyd–Warshall (dense `O(n^3)`).
/// Primarily a test oracle for [`apsp`]; also faster for near-complete
/// graphs such as the full mesh.
pub fn floyd_warshall(g: &DiGraph) -> DistanceMatrix {
    let n = g.len();
    let mut d = DistanceMatrix::filled(n, f64::INFINITY);
    for i in 0..n {
        d.set_at(i, i, 0.0);
    }
    for (from, to, cost) in g.edges() {
        if cost < d.get(from, to) {
            d.set(from, to, cost);
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d.at(i, k);
            if !dik.is_finite() {
                continue;
            }
            for j in 0..n {
                let via = dik + d.at(k, j);
                if via < d.at(i, j) {
                    d.set_at(i, j, via);
                }
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

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
