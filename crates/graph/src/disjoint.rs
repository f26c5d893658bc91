//! Edge-disjoint path counting (Fig. 11).
//!
//! §6.2 measures "the number of disjoint paths between the source node and
//! target node when the source establishes k parallel connections". By
//! Menger's theorem the maximum number of edge-disjoint directed paths
//! equals the max-flow with unit edge capacities.

use crate::graph::DiGraph;
use crate::maxflow::FlowNetwork;
use crate::types::NodeId;

/// Number of edge-disjoint directed paths `s → t`.
pub fn edge_disjoint_paths(g: &DiGraph, s: NodeId, t: NodeId) -> usize {
    if s == t {
        return 0;
    }
    let mut unit = DiGraph::new(g.len());
    for (from, to, _) in g.edges() {
        unit.add_edge(from, to, 1.0);
    }
    let f = FlowNetwork::from_graph(&unit).max_flow(s, t);
    f.round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_disjoint_routes() -> DiGraph {
        // 0→1→3 and 0→2→3.
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 9.0);
        g.add_edge(NodeId(1), NodeId(3), 9.0);
        g.add_edge(NodeId(0), NodeId(2), 9.0);
        g.add_edge(NodeId(2), NodeId(3), 9.0);
        g
    }

    #[test]
    fn counts_two_parallel_routes() {
        let g = two_disjoint_routes();
        assert_eq!(edge_disjoint_paths(&g, NodeId(0), NodeId(3)), 2);
    }

    #[test]
    fn single_edge_into_target_caps_the_count() {
        // 0→1→4 and 0→2→4 merge at relay 4, whose one edge 4→3 is the
        // only way into 3.
        let mut g = DiGraph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(4), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(4), 1.0);
        g.add_edge(NodeId(4), NodeId(3), 1.0);
        assert_eq!(edge_disjoint_paths(&g, NodeId(0), NodeId(3)), 1);
    }

    #[test]
    fn paths_sharing_a_vertex_are_edge_disjoint() {
        // 0→1→2→4→5 and 0→3→2→6→5 share vertex 2 but no edge.
        let mut g = DiGraph::new(7);
        for (a, b) in [
            (0, 1),
            (1, 2),
            (2, 4),
            (4, 5),
            (0, 3),
            (3, 2),
            (2, 6),
            (6, 5),
        ] {
            g.add_edge(NodeId(a), NodeId(b), 1.0);
        }
        assert_eq!(edge_disjoint_paths(&g, NodeId(0), NodeId(5)), 2);
    }

    #[test]
    fn no_path_means_zero() {
        let g = DiGraph::new(3);
        assert_eq!(edge_disjoint_paths(&g, NodeId(0), NodeId(2)), 0);
    }

    #[test]
    fn same_node_zero_paths() {
        let g = two_disjoint_routes();
        assert_eq!(edge_disjoint_paths(&g, NodeId(1), NodeId(1)), 0);
    }
}
