//! Single-source shortest paths (Dijkstra with a binary heap).
//!
//! Overlay routing in EGOIST is plain shortest-path routing over the
//! selfishly constructed topology (§1, footnote 1) — so Dijkstra over the
//! wiring graph *is* the routing protocol's path computation.

use crate::graph::DiGraph;
use crate::types::{Cost, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a single-source shortest path computation.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    pub source: NodeId,
    /// `dist[j]` = cost of the shortest directed path `source → j`
    /// (`f64::INFINITY` when unreachable, `0` for the source itself).
    pub dist: Vec<Cost>,
    /// `parent[j]` = predecessor of `j` on that path (`None` for the source
    /// and unreachable nodes).
    pub parent: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Reconstruct the node sequence `source → … → target`, or `None` when
    /// the target is unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if !self.dist[target.index()].is_finite() {
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

    /// The next hop from the source toward `target` (routing-table entry),
    /// or `None` when unreachable or `target == source`.
    pub fn next_hop(&self, target: NodeId) -> Option<NodeId> {
        let mut cur = target;
        loop {
            let p = self.parent[cur.index()]?;
            if p == self.source {
                return Some(cur);
            }
            cur = p;
        }
    }

    /// [`Self::next_hop`] toward every node at once — the whole routing
    /// table in one O(n) sweep instead of n path walks.
    pub fn first_hops(&self) -> Vec<Option<NodeId>> {
        first_hops_by(self.parent.len(), self.source.index(), |v| {
            self.parent[v].map(NodeId::index)
        })
    }
}

/// First hop from `source` toward every node of the shortest-path tree
/// `parent` encodes (`None` for the source and for unreachable nodes):
/// every node inherits its parent's first hop, the source's children
/// are their own.
pub(crate) fn first_hops_by(
    n: usize,
    source: usize,
    parent: impl Fn(usize) -> Option<usize>,
) -> Vec<Option<NodeId>> {
    let mut hop = vec![None; n];
    for_each_tree_edge(
        source,
        parent,
        &mut vec![false; n],
        &mut Vec::new(),
        |p, v| {
            hop[v] = if p == source {
                Some(NodeId(v as u32))
            } else {
                hop[p]
            }
        },
    );
    hop
}

/// One O(n) sweep down the tree `parent` encodes: `visit(p, v)` is
/// called once for every node `v` with a parent `p`, after `p`'s own
/// visit (the source has none) — so a value that is a function of the
/// parent's value can be filled in place, root to leaves. `done` and
/// `stack` are scratch the caller may reuse across sweeps.
///
/// Each unvisited node climbs to its nearest visited ancestor, then the
/// climbed chain is visited top down, so every node is touched once.
pub(crate) fn for_each_tree_edge(
    source: usize,
    parent: impl Fn(usize) -> Option<usize>,
    done: &mut [bool],
    stack: &mut Vec<usize>,
    mut visit: impl FnMut(usize, usize),
) {
    done.fill(false);
    done[source] = true;
    for v in 0..done.len() {
        stack.clear();
        let mut cur = v;
        while !done[cur] {
            done[cur] = true;
            match parent(cur) {
                Some(p) => {
                    stack.push(cur);
                    cur = p;
                }
                None => break, // unreachable: nothing above to inherit from
            }
        }
        while let Some(x) = stack.pop() {
            visit(parent(x).expect("stacked nodes have parents"), x);
        }
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: Cost,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost: reverse the comparison. Costs are never NaN
        // (asserted at insertion), so total_cmp is safe and total.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from `source` over non-negative edge costs.
///
/// # Panics
/// Debug-panics if an edge has negative or NaN cost; link delays, loads and
/// announced costs are all non-negative by construction.
pub fn dijkstra(g: &DiGraph, source: NodeId) -> ShortestPaths {
    let n = g.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);

    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: source.0,
    });

    while let Some(HeapEntry { cost, node }) = heap.pop() {
        let u = node as usize;
        if settled[u] {
            continue;
        }
        settled[u] = true;
        for e in g.out_edges(NodeId(node)) {
            debug_assert!(
                e.cost >= 0.0 && !e.cost.is_nan(),
                "negative/NaN edge cost {} on {}→{}",
                e.cost,
                node,
                e.to
            );
            if !e.cost.is_finite() {
                continue;
            }
            let v = e.to.index();
            let nd = cost + e.cost;
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = Some(NodeId(node));
                heap.push(HeapEntry {
                    cost: nd,
                    node: e.to.0,
                });
            }
        }
    }

    ShortestPaths {
        source,
        dist,
        parent,
    }
}

/// Shortest-path distance for a single pair (convenience wrapper).
pub fn distance(g: &DiGraph, from: NodeId, to: NodeId) -> Cost {
    dijkstra(g, from).dist[to.index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 →1→ 1 →1→ 2, plus a direct 0→2 edge of cost 5 (detour wins).
    fn line_with_shortcut() -> DiGraph {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 5.0);
        g
    }

    #[test]
    fn prefers_cheaper_two_hop_path() {
        let sp = dijkstra(&line_with_shortcut(), NodeId(0));
        assert_eq!(sp.dist[2], 2.0);
        assert_eq!(
            sp.path_to(NodeId(2)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let sp = dijkstra(&g, NodeId(0));
        assert!(sp.dist[2].is_infinite());
        assert!(sp.path_to(NodeId(2)).is_none());
        assert!(sp.next_hop(NodeId(2)).is_none());
    }

    #[test]
    fn direction_matters() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        assert_eq!(distance(&g, NodeId(0), NodeId(1)), 1.0);
        assert!(distance(&g, NodeId(1), NodeId(0)).is_infinite());
    }

    #[test]
    fn next_hop_is_first_edge_of_path() {
        let sp = dijkstra(&line_with_shortcut(), NodeId(0));
        assert_eq!(sp.next_hop(NodeId(2)), Some(NodeId(1)));
        assert_eq!(sp.next_hop(NodeId(1)), Some(NodeId(1)));
        assert_eq!(sp.next_hop(NodeId(0)), None);
    }

    #[test]
    fn zero_cost_edges_are_fine() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 0.0);
        g.add_edge(NodeId(1), NodeId(2), 0.0);
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(sp.dist[2], 0.0);
    }

    #[test]
    fn infinite_edges_are_skipped() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), f64::INFINITY);
        let sp = dijkstra(&g, NodeId(0));
        assert!(sp.dist[1].is_infinite());
    }

    #[test]
    fn source_distance_zero() {
        let g = line_with_shortcut();
        let sp = dijkstra(&g, NodeId(1));
        assert_eq!(sp.dist[1], 0.0);
        assert_eq!(sp.path_to(NodeId(1)).unwrap(), vec![NodeId(1)]);
    }
}
