//! Reachability and connectivity predicates.

use crate::graph::DiGraph;
use crate::types::NodeId;
use std::collections::VecDeque;

/// Set of nodes reachable from `source` by directed paths (including
/// `source` itself), ignoring edge costs.
pub fn reachable_from(g: &DiGraph, source: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.len()];
    let mut queue = VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for e in g.out_edges(u) {
            if !seen[e.to.index()] {
                seen[e.to.index()] = true;
                queue.push_back(e.to);
            }
        }
    }
    seen
}

/// True when every node in `members` can reach every other node in
/// `members` by directed paths. (Kosaraju-style double BFS from one
/// member — sufficient for the single-SCC test.)
pub fn strongly_connected(g: &DiGraph, members: &[NodeId]) -> bool {
    if members.len() <= 1 {
        return true;
    }
    let start = members[0];
    let fwd = reachable_from(g, start);
    if members.iter().any(|m| !fwd[m.index()]) {
        return false;
    }
    let bwd = reachable_from(&g.reversed(), start);
    members.iter().all(|m| bwd[m.index()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn directed_line_is_not_strong() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        assert!(!strongly_connected(&g, &ids(&[0, 1, 2])));
    }

    #[test]
    fn ring_is_strong() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(0), 1.0);
        assert!(strongly_connected(&g, &ids(&[0, 1, 2])));
    }

    #[test]
    fn membership_subset_only_checked() {
        // Node 2 is isolated, but we only ask about {0, 1}.
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(0), 1.0);
        assert!(strongly_connected(&g, &ids(&[0, 1])));
        assert!(!strongly_connected(&g, &ids(&[0, 1, 2])));
    }

    #[test]
    fn singleton_trivially_connected() {
        let g = DiGraph::new(1);
        assert!(strongly_connected(&g, &ids(&[0])));
    }
}
