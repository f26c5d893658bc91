//! Directed weighted adjacency-list graph — the overlay wiring `S`.

use crate::matrix::DistanceMatrix;
use crate::types::{Cost, NodeId};

/// One directed overlay edge `e = (v_i, v_j)` with cost `d_ij`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    pub to: NodeId,
    pub cost: Cost,
}

/// A directed weighted graph over dense node ids `0..n`.
///
/// This is the concrete representation of a *global wiring*
/// `S = {s_1, ..., s_n}`: `out_edges(i)` is exactly `s_i`, the set of links
/// node `v_i` established, weighted by the underlying IP-path cost.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    adj: Vec<Vec<Edge>>,
}

impl DiGraph {
    /// An edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        DiGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Add the directed edge `from → to`. Duplicate edges between the same
    /// pair are replaced (an overlay node maintains at most one link to a
    /// given neighbor).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cost: Cost) {
        debug_assert_ne!(from, to, "self loops are not part of a wiring");
        let list = &mut self.adj[from.index()];
        if let Some(e) = list.iter_mut().find(|e| e.to == to) {
            e.cost = cost;
        } else {
            list.push(Edge { to, cost });
        }
    }

    /// Remove the directed edge `from → to` if present; returns whether an
    /// edge was removed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let list = &mut self.adj[from.index()];
        let before = list.len();
        list.retain(|e| e.to != to);
        list.len() != before
    }

    /// Drop all out-edges of `v` (the residual wiring `S_{-i}` operation).
    pub fn clear_out_edges(&mut self, v: NodeId) {
        self.adj[v.index()].clear();
    }

    /// Out-edges of `v` (the wiring `s_v`).
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[Edge] {
        &self.adj[v.index()]
    }

    /// Out-neighbor ids of `v`.
    pub fn out_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[v.index()].iter().map(|e| e.to)
    }

    /// Out-degree of `v` (the `k` of the wiring).
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Cost of the direct edge `from → to`, or `None` if absent.
    pub fn edge_cost(&self, from: NodeId, to: NodeId) -> Option<Cost> {
        self.adj[from.index()]
            .iter()
            .find(|e| e.to == to)
            .map(|e| e.cost)
    }

    /// True if the directed edge exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edge_cost(from, to).is_some()
    }

    /// Iterate over every directed edge as `(from, to, cost)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Cost)> + '_ {
        self.adj.iter().enumerate().flat_map(|(i, list)| {
            list.iter()
                .map(move |e| (NodeId::from_index(i), e.to, e.cost))
        })
    }

    /// Build a wiring graph from per-node neighbor lists, taking edge costs
    /// from the distance matrix `d`.
    pub fn from_wiring(d: &DistanceMatrix, wiring: &[Vec<NodeId>]) -> Self {
        let n = d.len();
        assert_eq!(wiring.len(), n, "wiring must cover all nodes");
        let mut g = DiGraph::new(n);
        for (i, neigh) in wiring.iter().enumerate() {
            let vi = NodeId::from_index(i);
            for &j in neigh {
                g.add_edge(vi, j, d.get(vi, j));
            }
        }
        g
    }

    /// The graph with every edge reversed (used for in-reachability tests).
    pub fn reversed(&self) -> DiGraph {
        let mut g = DiGraph::new(self.len());
        for (from, to, cost) in self.edges() {
            g.add_edge(to, from, cost);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DiGraph {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 2.0);
        g.add_edge(NodeId(2), NodeId(0), 3.0);
        g
    }

    #[test]
    fn add_and_query_edges() {
        let g = tiny();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(1.0));
        assert_eq!(g.edge_cost(NodeId(1), NodeId(0)), None);
        assert!(g.has_edge(NodeId(2), NodeId(0)));
    }

    #[test]
    fn duplicate_edge_replaces_cost() {
        let mut g = tiny();
        g.add_edge(NodeId(0), NodeId(1), 9.0);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(9.0));
    }

    #[test]
    fn remove_edge_works() {
        let mut g = tiny();
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn from_wiring_uses_matrix_costs() {
        let d = DistanceMatrix::from_fn(3, |i, j| (10 * i + j) as f64);
        let wiring = vec![vec![NodeId(1)], vec![NodeId(2)], vec![NodeId(0)]];
        let g = DiGraph::from_wiring(&d, &wiring);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(1.0));
        assert_eq!(g.edge_cost(NodeId(1), NodeId(2)), Some(12.0));
        assert_eq!(g.edge_cost(NodeId(2), NodeId(0)), Some(20.0));
    }

    #[test]
    fn reversed_flips_edges() {
        let g = tiny().reversed();
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.edge_cost(NodeId(0), NodeId(2)), Some(3.0));
    }
}
