//! Wirings `s_i`, global wirings `S`, and residual graphs `G_{−i}`.

use egoist_graph::{DiGraph, DistanceMatrix, NodeId};

/// A global wiring `S = {s_1, …, s_n}`: each node's chosen out-neighbors.
#[derive(Clone, Debug, PartialEq)]
pub struct Wiring {
    neighbors: Vec<Vec<NodeId>>,
}

impl Wiring {
    /// An empty wiring for `n` nodes.
    pub fn empty(n: usize) -> Self {
        Wiring {
            neighbors: vec![Vec::new(); n],
        }
    }

    fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        for (i, list) in self.neighbors.iter().enumerate() {
            for &j in list {
                debug_assert_ne!(j.index(), i, "self-link at node {i}");
                debug_assert!(j.index() < self.neighbors.len(), "dangling neighbor");
            }
            let mut sorted: Vec<NodeId> = list.clone();
            sorted.sort_unstable();
            sorted.dedup();
            debug_assert_eq!(sorted.len(), list.len(), "duplicate neighbor at node {i}");
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// True when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Node `i`'s wiring `s_i`.
    pub fn of(&self, i: NodeId) -> &[NodeId] {
        &self.neighbors[i.index()]
    }

    /// Replace node `i`'s wiring (a re-wiring event). Returns `true` when
    /// the new wiring differs from the old one as a *set*.
    pub fn rewire(&mut self, i: NodeId, mut new: Vec<NodeId>) -> bool {
        new.sort_unstable();
        new.dedup();
        let mut old = self.neighbors[i.index()].clone();
        old.sort_unstable();
        let changed = old != new;
        self.neighbors[i.index()] = new;
        self.debug_validate();
        changed
    }

    /// Drop all links of node `i` (it churned OFF). In-links pointing at
    /// `i` are the *other* nodes' business; graph construction filters
    /// them by aliveness.
    pub fn clear(&mut self, i: NodeId) {
        self.neighbors[i.index()].clear();
    }

    /// Materialize the overlay graph: edges of alive nodes toward alive
    /// targets, with costs from `costs`.
    pub fn to_graph(&self, costs: &DistanceMatrix, alive: &[bool]) -> DiGraph {
        let n = self.len();
        let mut g = DiGraph::new(n);
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            let vi = NodeId::from_index(i);
            for &j in &self.neighbors[i] {
                if alive[j.index()] {
                    g.add_edge(vi, j, costs.get(vi, j));
                }
            }
        }
        g
    }

    /// The residual graph `G_{−i}`: the overlay with node `i`'s out-links
    /// removed (Definition 1's `S_{−i}`).
    pub fn residual_graph(&self, i: NodeId, costs: &DistanceMatrix, alive: &[bool]) -> DiGraph {
        let mut g = self.to_graph(costs, alive);
        g.clear_out_edges(i);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewire_detects_set_change() {
        let mut w = Wiring::empty(4);
        assert!(w.rewire(NodeId(0), vec![NodeId(1), NodeId(2)]));
        // Same set, different order: no change.
        assert!(!w.rewire(NodeId(0), vec![NodeId(2), NodeId(1)]));
        assert!(w.rewire(NodeId(0), vec![NodeId(2), NodeId(3)]));
    }

    #[test]
    fn to_graph_respects_aliveness() {
        let mut w = Wiring::empty(3);
        w.rewire(NodeId(0), vec![NodeId(1), NodeId(2)]);
        w.rewire(NodeId(1), vec![NodeId(2)]);
        let d = DistanceMatrix::off_diagonal(3, 1.0);
        let alive = vec![true, true, false];
        let g = w.to_graph(&d, &alive);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)), "dead target filtered");
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn residual_removes_only_out_links() {
        let mut w = Wiring::empty(3);
        w.rewire(NodeId(0), vec![NodeId(1)]);
        w.rewire(NodeId(1), vec![NodeId(0), NodeId(2)]);
        let d = DistanceMatrix::off_diagonal(3, 1.0);
        let g = w.residual_graph(NodeId(1), &d, &[true, true, true]);
        assert_eq!(g.out_degree(NodeId(1)), 0);
        assert!(g.has_edge(NodeId(0), NodeId(1)), "in-links stay");
    }

    #[test]
    fn clear_empties_wiring() {
        let mut w = Wiring::empty(2);
        w.rewire(NodeId(0), vec![NodeId(1)]);
        w.clear(NodeId(0));
        assert!(w.of(NodeId(0)).is_empty());
    }
}
