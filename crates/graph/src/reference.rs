//! The dense textbook loops the [`crate::csr`] stack is pinned against,
//! bit for bit: Dijkstra and its max-min modification (§4.1: "max-min
//! instead of min-plus") over a [`DiGraph`], with their own heap, and
//! Floyd–Warshall. Test-only: nothing shipped reaches them.

use crate::graph::DiGraph;
use crate::matrix::DistanceMatrix;
use crate::types::{Cost, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One source's best paths.
pub(crate) struct Tree {
    pub source: NodeId,
    /// Shortest distance (`INFINITY` unreached, `0` at the source), or
    /// widest width (`0` unreached, `INFINITY` at the source).
    pub dist: Vec<Cost>,
    /// Predecessor on the chosen path; `None` at the source and unreached.
    pub parent: Vec<Option<NodeId>>,
}

impl Tree {
    /// The node sequence `source → … → target`, or `None` when unreached.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![target];
        while let Some(p) = self.parent[path[path.len() - 1].index()] {
            path.push(p);
        }
        (path[path.len() - 1] == self.source).then(|| path.into_iter().rev().collect())
    }
}

/// Best key first (smallest cost, or largest width when `widest`), ties
/// by the smaller node id.
#[derive(PartialEq)]
struct Entry {
    key: Cost,
    node: u32,
    widest: bool,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_key = if self.widest {
            self.key.total_cmp(&other.key)
        } else {
            other.key.total_cmp(&self.key)
        };
        by_key.then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn best_paths(g: &DiGraph, source: NodeId, widest: bool) -> Tree {
    let n = g.len();
    let (start, unreached) = if widest {
        (f64::INFINITY, 0.0)
    } else {
        (0.0, f64::INFINITY)
    };
    let mut dist = vec![unreached; n];
    let mut parent = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[source.index()] = start;
    heap.push(Entry {
        key: start,
        node: source.0,
        widest,
    });
    while let Some(Entry { key, node, .. }) = heap.pop() {
        if std::mem::replace(&mut settled[node as usize], true) {
            continue;
        }
        for e in g.out_edges(NodeId(node)) {
            debug_assert!(e.cost >= 0.0 && !e.cost.is_nan());
            let v = e.to.index();
            let offer = if widest {
                key.min(e.cost)
            } else {
                key + e.cost
            };
            let wins = if widest {
                offer > dist[v]
            } else {
                offer < dist[v]
            };
            if wins {
                dist[v] = offer;
                parent[v] = Some(NodeId(node));
                heap.push(Entry {
                    key: offer,
                    node: e.to.0,
                    widest,
                });
            }
        }
    }
    Tree {
        source,
        dist,
        parent,
    }
}

/// Shortest paths from `source` over non-negative costs.
pub(crate) fn dijkstra(g: &DiGraph, source: NodeId) -> Tree {
    best_paths(g, source, false)
}

/// Widest (maximum-bottleneck) paths from `source`; costs are bandwidths.
pub(crate) fn widest_paths(g: &DiGraph, source: NodeId) -> Tree {
    best_paths(g, source, true)
}

/// All-pairs shortest paths by Floyd–Warshall: sums in another order
/// than any sweep's, so equal to them only up to rounding.
pub(crate) fn floyd_warshall(g: &DiGraph) -> DistanceMatrix {
    let n = g.len();
    let mut d = DistanceMatrix::off_diagonal(n, f64::INFINITY);
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
