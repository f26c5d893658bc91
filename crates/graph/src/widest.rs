//! Maximum-bottleneck-bandwidth ("widest") paths.
//!
//! §4.1: the available bandwidth between `v` and `u` is
//! `AvailBW(v,u) = max_{p ∈ P(v,u)} min_{e ∈ p} AvailBW(e)` — a
//! "Maximum Bottleneck Bandwidth" problem solved by a simple modification
//! of Dijkstra's algorithm (max-min instead of min-plus).
//!
//! In this module edge costs are *bandwidths* (bigger is better); a missing
//! edge has bandwidth 0.

use crate::graph::DiGraph;
use crate::types::{Cost, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a single-source widest-path computation.
#[derive(Clone, Debug)]
pub struct WidestPaths {
    pub source: NodeId,
    /// `width[j]` = bottleneck bandwidth of the best path `source → j`
    /// (`0` when unreachable, `f64::INFINITY` for the source itself).
    pub width: Vec<Cost>,
    pub parent: Vec<Option<NodeId>>,
}

impl WidestPaths {
    /// Node sequence of the widest path, or `None` when unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if self.width[target.index()] <= 0.0 && target != self.source {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        if cur != self.source {
            return None;
        }
        path.reverse();
        Some(path)
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    width: Cost,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on width.
        self.width
            .total_cmp(&other.width)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Widest (maximum-bottleneck) paths from `source`. Edge costs are
/// interpreted as available bandwidths (must be ≥ 0).
pub fn widest_paths(g: &DiGraph, source: NodeId) -> WidestPaths {
    let n = g.len();
    let mut width = vec![0.0; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);

    width[source.index()] = f64::INFINITY;
    heap.push(HeapEntry {
        width: f64::INFINITY,
        node: source.0,
    });

    while let Some(HeapEntry { width: w, node }) = heap.pop() {
        let u = node as usize;
        if settled[u] {
            continue;
        }
        settled[u] = true;
        for e in g.out_edges(NodeId(node)) {
            debug_assert!(e.cost >= 0.0 && !e.cost.is_nan());
            let v = e.to.index();
            let nw = w.min(e.cost);
            if nw > width[v] {
                width[v] = nw;
                parent[v] = Some(NodeId(node));
                heap.push(HeapEntry {
                    width: nw,
                    node: e.to.0,
                });
            }
        }
    }

    WidestPaths {
        source,
        width,
        parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0→1 (10), 1→2 (4), 0→2 (3): two-hop bottleneck 4 beats direct 3.
    fn diamondish() -> DiGraph {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 10.0);
        g.add_edge(NodeId(1), NodeId(2), 4.0);
        g.add_edge(NodeId(0), NodeId(2), 3.0);
        g
    }

    #[test]
    fn detour_beats_narrow_direct_link() {
        let wp = widest_paths(&diamondish(), NodeId(0));
        assert_eq!(wp.width[2], 4.0);
        assert_eq!(
            wp.path_to(NodeId(2)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn unreachable_width_zero() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 5.0);
        let wp = widest_paths(&g, NodeId(0));
        assert_eq!(wp.width[2], 0.0);
        assert!(wp.path_to(NodeId(2)).is_none());
    }

    #[test]
    fn source_width_infinite() {
        let wp = widest_paths(&diamondish(), NodeId(0));
        assert!(wp.width[0].is_infinite());
    }

    #[test]
    fn single_edge_width_is_edge_bandwidth() {
        let wp = widest_paths(&diamondish(), NodeId(1));
        assert_eq!(wp.width[2], 4.0);
    }

    #[test]
    fn widest_matches_bruteforce_on_small_graph() {
        // Brute force: enumerate all simple paths of a 4-node graph.
        let mut g = DiGraph::new(4);
        let edges = [
            (0, 1, 7.0),
            (0, 2, 5.0),
            (1, 2, 9.0),
            (1, 3, 2.0),
            (2, 3, 6.0),
        ];
        for (a, b, c) in edges {
            g.add_edge(NodeId(a), NodeId(b), c);
        }
        // Paths 0→3: [0,1,3] = min(7,2)=2; [0,2,3] = min(5,6)=5;
        // [0,1,2,3] = min(7,9,6)=6.
        assert_eq!(widest_paths(&g, NodeId(0)).width[3], 6.0);
    }
}
