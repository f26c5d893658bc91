//! The per-epoch path plane: what the path routers compute once per
//! source and once per (src, dst) pair, so that the per-flow loop only
//! meters a flow into capacity.
//!
//! * per **source** — [`SourceTrees`]: one SSSP parent row, computed the
//!   first time a flow from that source shows up;
//! * per **pair** — [`PathPlane`]: the pair's path(s) as slices of one
//!   flat [`NodeId`] arena, each with its realized latency and its
//!   propagation delay. Both are hop sums over state that is fixed for
//!   the epoch, so they are pair constants, added up left to right
//!   exactly as a per-flow walk would;
//! * per **flow** — admission against the ledger, nothing else.

use crate::router::RouteInputs;
use egoist_graph::csr::NO_PARENT;
use egoist_graph::{CsrGraph, DijkstraWorkspace, NodeId};
use std::ops::Range;

/// Per-hop processing delay in ms per unit of true node load — the
/// term that couples flow latency to the Load metric.
pub(crate) const PROC_MS_PER_LOAD: f64 = 2.0;

/// What one hop costs a delivered flow.
pub(crate) struct HopCosts<'a> {
    pub(crate) inp: &'a RouteInputs<'a>,
    /// Row-major `n × n` per-link queuing estimate (ms) charged on top —
    /// the delay-aware policy's metric; `None` for the plain router.
    pub(crate) queue_ms: Option<&'a [f64]>,
}

impl HopCosts<'_> {
    /// Realized latency and propagation-only delay of `path`. Latency is
    /// true propagation per hop plus load-proportional processing at
    /// every relay and the destination's receive path (the source's own
    /// stack is free — it paces itself), plus the queuing estimate when
    /// there is one.
    fn path_ms(&self, path: &[NodeId]) -> (f64, f64) {
        let n = self.inp.node_load.len();
        let (mut latency, mut propagation) = (0.0, 0.0);
        for w in path.windows(2) {
            let hop = self.inp.true_delays.get(w[0], w[1]);
            propagation += hop;
            latency += hop;
            latency += PROC_MS_PER_LOAD * self.inp.node_load[w[1].index()];
            if let Some(q) = self.queue_ms {
                latency += q[w[0].index() * n + w[1].index()];
            }
        }
        (latency, propagation)
    }
}

/// Lazily computed SSSP parent rows over one epoch's routing graph.
pub(crate) struct SourceTrees<'g> {
    g: &'g CsrGraph,
    ws: DijkstraWorkspace,
    dist: Vec<f64>,
    rows: Vec<Option<Vec<u32>>>,
}

impl<'g> SourceTrees<'g> {
    pub(crate) fn new(g: &'g CsrGraph) -> Self {
        SourceTrees {
            g,
            ws: DijkstraWorkspace::new(g.len()),
            dist: vec![f64::INFINITY; g.len()],
            rows: vec![None; g.len()],
        }
    }

    /// The parent row of `source`'s shortest-path tree.
    pub(crate) fn parent_row(&mut self, source: NodeId) -> &[u32] {
        let (g, ws, dist) = (self.g, &mut self.ws, &mut self.dist);
        self.rows[source.index()].get_or_insert_with(|| {
            let mut row = vec![NO_PARENT; g.len()];
            ws.sssp_into(g, source.0, None, dist, &mut row);
            row
        })
    }
}

/// Append the tree path `src → dst` of a parent row to `out`; `false`
/// (and nothing appended) when `dst` is not in the tree.
pub(crate) fn append_tree_path(
    out: &mut Vec<NodeId>,
    parent: &[u32],
    src: NodeId,
    dst: NodeId,
) -> bool {
    if src != dst && parent[dst.index()] == NO_PARENT {
        return false;
    }
    let start = out.len();
    let mut cur = dst;
    out.push(cur);
    while cur != src {
        cur = NodeId(parent[cur.index()]);
        out.push(cur);
    }
    out[start..].reverse();
    true
}

/// One path of a pair and its epoch constants.
#[derive(Clone, Copy)]
pub(crate) struct PlanePath {
    start: u32,
    end: u32,
    pub(crate) latency_ms: f64,
    pub(crate) propagation_ms: f64,
}

/// Dense `n × n` pair table over a flat node arena, filled pair by pair
/// in first-seen flow order. A pair reopened for more paths moves its
/// range to the end of the table, so every pair's paths stay one
/// contiguous run.
pub(crate) struct PathPlane {
    n: usize,
    /// Per pair, its range of `paths`; `UNSEEN` until the pair is opened.
    pairs: Vec<(u32, u32)>,
    paths: Vec<PlanePath>,
    arena: Vec<NodeId>,
    /// Index into `pairs` of the pair being filled.
    open: usize,
}

const UNSEEN: (u32, u32) = (u32::MAX, u32::MAX);

impl PathPlane {
    pub(crate) fn new(n: usize) -> Self {
        PathPlane {
            n,
            pairs: vec![UNSEEN; n * n],
            paths: Vec::new(),
            arena: Vec::new(),
            open: 0,
        }
    }

    /// The pair's paths, cheapest first (empty: no route); `None` while
    /// the pair has not been opened.
    pub(crate) fn get(&self, src: NodeId, dst: NodeId) -> Option<&[PlanePath]> {
        let range = self.pairs[src.index() * self.n + dst.index()];
        (range != UNSEEN).then(|| &self.paths[range.0 as usize..range.1 as usize])
    }

    /// Indices of the pair's paths, cheapest first; empty while the pair
    /// has not been opened or has no route.
    pub(crate) fn range(&self, src: NodeId, dst: NodeId) -> Range<usize> {
        match self.pairs[src.index() * self.n + dst.index()] {
            UNSEEN => 0..0,
            (lo, hi) => lo as usize..hi as usize,
        }
    }

    /// Path `at`, an index from [`range`](PathPlane::range).
    pub(crate) fn path(&self, at: usize) -> &PlanePath {
        &self.paths[at]
    }

    /// The nodes of `path`, source first.
    pub(crate) fn nodes(&self, path: &PlanePath) -> &[NodeId] {
        &self.arena[path.start as usize..path.end as usize]
    }

    /// Open `(src, dst)` with no paths; the pushes that follow, up to
    /// the next `open`, are its paths.
    pub(crate) fn open(&mut self, src: NodeId, dst: NodeId) {
        let at = self.paths.len() as u32;
        self.open = src.index() * self.n + dst.index();
        self.pairs[self.open] = (at, at);
    }

    /// Reopen `(src, dst)` so that the pushes that follow add to its
    /// paths; they are moved to the end of the table first unless they
    /// already are there (their nodes stay where they are in the arena).
    pub(crate) fn reopen(&mut self, src: NodeId, dst: NodeId) {
        self.open = src.index() * self.n + dst.index();
        let (lo, hi) = self.pairs[self.open];
        if hi as usize != self.paths.len() {
            let at = self.paths.len() as u32;
            self.paths.extend_from_within(lo as usize..hi as usize);
            self.pairs[self.open] = (at, self.paths.len() as u32);
        }
    }

    /// Append a path to the open pair and compute its constants.
    pub(crate) fn push(&mut self, nodes: &[NodeId], costs: &HopCosts<'_>) {
        self.push_with(nodes, costs.path_ms(nodes));
    }

    fn push_with(&mut self, nodes: &[NodeId], (latency_ms, propagation_ms): (f64, f64)) {
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(nodes);
        self.paths.push(PlanePath {
            start,
            end: self.arena.len() as u32,
            latency_ms,
            propagation_ms,
        });
        self.pairs[self.open].1 = self.paths.len() as u32;
    }

    /// Copy over the paths of every pair of `prev` that this plane has
    /// not opened, constants as `prev` computed them.
    pub(crate) fn inherit(&mut self, prev: &PathPlane) {
        for (pair, &(lo, hi)) in prev.pairs.iter().enumerate() {
            if self.pairs[pair] == UNSEEN && (lo, hi) != UNSEEN {
                self.open = pair;
                self.pairs[pair] = (self.paths.len() as u32, self.paths.len() as u32);
                for path in &prev.paths[lo as usize..hi as usize] {
                    self.push_with(prev.nodes(path), (path.latency_ms, path.propagation_ms));
                }
            }
        }
    }
}
