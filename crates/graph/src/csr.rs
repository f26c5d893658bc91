//! Compressed-sparse-row graph form and allocation-free best paths.
//!
//! The epoch simulator runs tens of thousands of single-source sweeps per
//! simulation: one all-pairs pass per route-state snapshot plus targeted
//! repairs every re-wiring turn. [`DiGraph`]'s nested `Vec<Vec<Edge>>`
//! costs a pointer chase per adjacency list, and a textbook Dijkstra
//! allocates four fresh vectors per call. This module is the crate's one
//! best-path stack:
//!
//! * [`CsrGraph`] — the same directed weighted graph flattened into
//!   `offsets / targets / costs` arrays, built once per snapshot;
//! * [`PathAlgebra`] — what §4.1's "simple modification of Dijkstra's
//!   algorithm" modifies, written once per semiring: [`MinPlus`]
//!   (shortest paths over delay / load) and [`MaxMin`] (widest paths over
//!   available bandwidth). Everything below is generic over it and
//!   monomorphised, so each semiring compiles to its own loops;
//! * [`DijkstraWorkspace`] — reusable heap and bitmap arenas behind the
//!   one sweep ([`DijkstraWorkspace::sweep`]; [`DijkstraWorkspace::sssp_into`]
//!   names its min-plus form) and the two exact row repairs of the
//!   incremental route state, [`DijkstraWorkspace::repair_insertion`] and
//!   [`DijkstraWorkspace::repair_removal`] — allocation-free after warmup;
//! * [`all_pairs`] ([`apsp_csr`] on min-plus) — the all-pairs pass, fanning
//!   sources out over `std::thread::scope` threads, each writing into
//!   pre-partitioned row slices (byte-deterministic regardless of
//!   scheduling);
//! * [`first_hops`] / [`tree_path_costs`] / [`DisjointSearch`] — what
//!   routing tables and the data plane read off a parent row.
//!
//! Every sweep here produces the values and parents of the dense textbook
//! loops its tests pin it against, bit for bit (the test-only `reference`
//! module): a value is the best of per-path folds that do not depend on
//! visit order, and ties are settled by node id.

use crate::graph::DiGraph;
use crate::types::{Cost, NodeId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Sentinel for "no parent" in packed parent arrays.
pub const NO_PARENT: u32 = u32::MAX;

/// A directed weighted graph in compressed-sparse-row form.
#[derive(Clone, Debug, Default)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    costs: Vec<f64>,
}

impl CsrGraph {
    /// Flatten a [`DiGraph`], preserving per-node edge order.
    pub fn from_digraph(g: &DiGraph) -> Self {
        let n = g.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(g.edge_count());
        let mut costs = Vec::with_capacity(g.edge_count());
        offsets.push(0);
        for i in 0..n {
            for e in g.out_edges(NodeId::from_index(i)) {
                targets.push(e.to.0);
                costs.push(e.cost);
            }
            offsets.push(targets.len() as u32);
        }
        CsrGraph {
            offsets,
            targets,
            costs,
        }
    }

    /// Build from a per-node edge closure: `edges(i)` yields `(to, cost)`
    /// pairs in adjacency order. Avoids materializing a `DiGraph` first.
    pub fn from_fn<I>(n: usize, mut edges: impl FnMut(usize) -> I) -> Self
    where
        I: IntoIterator<Item = (u32, f64)>,
    {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut costs = Vec::new();
        offsets.push(0);
        for i in 0..n {
            for (to, cost) in edges(i) {
                debug_assert_ne!(to as usize, i, "self loop in CSR build");
                targets.push(to);
                costs.push(cost);
            }
            offsets.push(targets.len() as u32);
        }
        CsrGraph {
            offsets,
            targets,
            costs,
        }
    }

    /// Any edge list as it comes, self-loops and parallel edges
    /// included — what the checked builders refuse and a sweep must
    /// nevertheless survive.
    #[cfg(test)]
    pub(crate) fn from_raw_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut g = CsrGraph::with_capacity(n, edges.len());
        for u in 0..n {
            for &(_, to, cost) in edges.iter().filter(|e| e.0 == u) {
                g.targets.push(to as u32);
                g.costs.push(cost);
            }
            g.end_row();
        }
        g
    }

    /// Start a row-by-row build of an `n`-node graph with room for
    /// `edges` edges: [`Self::set_edge`] fills node `len()`'s row,
    /// [`Self::end_row`] closes it. For callers whose adjacency comes out
    /// of a filter with state (the protocol node's quarantine audit)
    /// and so fits neither a `DiGraph` nor [`Self::from_fn`]'s closure.
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        CsrGraph {
            offsets,
            targets: Vec::with_capacity(edges),
            costs: Vec::with_capacity(edges),
        }
    }

    /// Add the edge `len() → to` to the open row, or replace its cost
    /// when the row already has one — [`DiGraph::add_edge`]'s rule, so a
    /// row built here equals the adjacency list `add_edge` would build.
    /// Linear in the row's length: meant for degree-`k` rows.
    pub fn set_edge(&mut self, to: u32, cost: f64) {
        debug_assert_ne!(to as usize, self.len(), "self loop in CSR build");
        let lo = *self
            .offsets
            .last()
            .expect("row builds start from with_capacity") as usize;
        match self.targets[lo..].iter().position(|&t| t == to) {
            Some(at) => self.costs[lo + at] = cost,
            None => {
                self.targets.push(to);
                self.costs.push(cost);
            }
        }
    }

    /// Close the open row; the next [`Self::set_edge`] starts node
    /// `len()`'s.
    pub fn end_row(&mut self) {
        self.offsets.push(self.targets.len() as u32);
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-edges of `u` as parallel `(targets, costs)` slices.
    #[inline]
    pub fn out(&self, u: usize) -> (&[u32], &[f64]) {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        (&self.targets[lo..hi], &self.costs[lo..hi])
    }

    /// Every directed edge as `(from, to, cost)`, rows in node order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.len()).flat_map(move |u| {
            let (ts, cs) = self.out(u);
            ts.iter().zip(cs).map(move |(&t, &c)| (u as u32, t, c))
        })
    }

    /// The graph with every edge reversed (for "distances to a target"
    /// queries). Reversal is stable: in-edges appear ordered by source.
    pub fn reversed(&self) -> CsrGraph {
        let mut out = CsrGraph::default();
        self.reverse_into(&mut out);
        out
    }

    /// [`Self::reversed`] into a caller-owned graph, reusing its buffers
    /// — the route-state engine re-derives the reversal after every
    /// committed re-wiring, so the allocation would otherwise recur once
    /// per commit.
    pub fn reverse_into(&self, out: &mut CsrGraph) {
        let n = self.len();
        out.offsets.clear();
        out.offsets.resize(n + 1, 0);
        for &t in &self.targets {
            out.offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            out.offsets[i + 1] += out.offsets[i];
        }
        let mut cursor = out.offsets.clone();
        out.targets.clear();
        out.targets.resize(self.targets.len(), 0);
        out.costs.clear();
        out.costs.resize(self.costs.len(), 0.0);
        for u in 0..n {
            let (ts, cs) = self.out(u);
            for (&t, &c) in ts.iter().zip(cs) {
                let slot = cursor[t as usize] as usize;
                out.targets[slot] = u as u32;
                out.costs[slot] = c;
                cursor[t as usize] += 1;
            }
        }
    }

    /// Replace node `u`'s out-edge slice with `edges` (adjacency order),
    /// leaving every other node's slice untouched — the single-node
    /// counterpart of rebuilding the whole CSR after a re-wiring.
    ///
    /// Equal-degree rewrites (the common case under a fixed link budget
    /// `k`) overwrite the slice in place; degree changes splice the
    /// backing arrays and shift the downstream offsets. Either way the
    /// result is identical to a from-scratch build of the same adjacency
    /// lists.
    pub fn rewrite_out_edges(&mut self, u: usize, edges: &[(u32, f64)]) {
        debug_assert!(edges.iter().all(|&(t, _)| t as usize != u), "self loop");
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        if edges.len() == hi - lo {
            for (slot, &(t, c)) in edges.iter().enumerate() {
                self.targets[lo + slot] = t;
                self.costs[lo + slot] = c;
            }
            return;
        }
        self.targets.splice(lo..hi, edges.iter().map(|&(t, _)| t));
        self.costs.splice(lo..hi, edges.iter().map(|&(_, c)| c));
        let delta = edges.len() as i64 - (hi - lo) as i64;
        for off in &mut self.offsets[u + 1..] {
            *off = (*off as i64 + delta) as u32;
        }
    }
}

/// A path semiring: how a path's value grows along an edge and which of
/// two values wins. §4.1 gets the bandwidth metric from "a simple
/// modification of Dijkstra's algorithm (max-min instead of min-plus)";
/// this trait is that modification and nothing else.
///
/// | | [`MinPlus`] | [`MaxMin`] |
/// |---|---|---|
/// | `SOURCE` (empty path) | `0` | `∞` |
/// | `UNREACHED` (no path) | `∞` | `0` |
/// | `extend(path, edge)` | `path + edge` | `min(path, edge)` |
/// | `better(a, b)` | `a < b` | `a > b` |
/// | popped first | smallest key | largest key |
/// | `BUILD_SPAN` | `graph.apsp.build` | `graph.widest.build` |
///
/// Both are monotone — extending a path never makes it better — which
/// is all the sweep's and the repairs' exactness arguments use. Edge
/// values must be non-negative and not NaN.
pub trait PathAlgebra: Sized {
    /// Value of the empty path: a source's own entry.
    const SOURCE: f64;
    /// Value of "no path".
    const UNREACHED: f64;
    /// Obs span timing an all-pairs build on this algebra.
    const BUILD_SPAN: &'static str;
    /// A path of value `path` extended by an edge of value `edge`.
    fn extend(path: f64, edge: f64) -> f64;
    /// Is `a` strictly better than `b`?
    fn better(a: f64, b: f64) -> bool;
    /// Heap order on keys (never NaN): `Greater` is popped first.
    fn heap_order(a: f64, b: f64) -> Ordering;
    /// This algebra's heap inside a workspace (entries of different
    /// algebras order differently, so they cannot share one).
    #[doc(hidden)]
    fn heap(ws: &mut DijkstraWorkspace) -> &mut BinaryHeap<HeapEntry<Self>>;
}

/// Shortest paths: additive costs, smaller is better.
pub struct MinPlus;
/// Widest paths: bottleneck bandwidth, larger is better.
pub struct MaxMin;

impl PathAlgebra for MinPlus {
    const SOURCE: f64 = 0.0;
    const UNREACHED: f64 = f64::INFINITY;
    const BUILD_SPAN: &'static str = "graph.apsp.build";
    #[inline]
    fn extend(path: f64, edge: f64) -> f64 {
        path + edge
    }
    #[inline]
    fn better(a: f64, b: f64) -> bool {
        a < b
    }
    #[inline(always)]
    fn heap_order(a: f64, b: f64) -> Ordering {
        b.total_cmp(&a)
    }
    #[inline]
    fn heap(ws: &mut DijkstraWorkspace) -> &mut BinaryHeap<HeapEntry<Self>> {
        &mut ws.min_heap
    }
}

impl PathAlgebra for MaxMin {
    const SOURCE: f64 = f64::INFINITY;
    const UNREACHED: f64 = 0.0;
    const BUILD_SPAN: &'static str = "graph.widest.build";
    #[inline]
    fn extend(path: f64, edge: f64) -> f64 {
        path.min(edge)
    }
    #[inline]
    fn better(a: f64, b: f64) -> bool {
        a > b
    }
    #[inline(always)]
    fn heap_order(a: f64, b: f64) -> Ordering {
        a.total_cmp(&b)
    }
    #[inline]
    fn heap(ws: &mut DijkstraWorkspace) -> &mut BinaryHeap<HeapEntry<Self>> {
        &mut ws.max_heap
    }
}

/// A tentative `(value, node)` in a sweep's heap: best key first, ties
/// by smaller node id — the settle order of the textbook heap loops.
/// Equality is `cmp`'s, so `Eq` and `Ord` agree.
#[doc(hidden)]
pub struct HeapEntry<A> {
    key: Cost,
    node: u32,
    algebra: PhantomData<A>,
}

impl<A> HeapEntry<A> {
    fn new(key: Cost, node: u32) -> Self {
        HeapEntry {
            key,
            node,
            algebra: PhantomData,
        }
    }
}

// The comparator sits inside `BinaryHeap`'s sift loops, the hottest code
// of a sweep; without the hints it is left as a call per comparison in
// some instantiations (measured: +20% on `fleet_br_n300`'s re-wire job).
impl<A: PathAlgebra> Ord for HeapEntry<A> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        A::heap_order(self.key, other.key).then_with(|| other.node.cmp(&self.node))
    }
}

impl<A: PathAlgebra> PartialOrd for HeapEntry<A> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<A: PathAlgebra> PartialEq for HeapEntry<A> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<A: PathAlgebra> Eq for HeapEntry<A> {}

/// What one sweep leaves out. The default sweeps everything.
#[derive(Clone, Copy, Default)]
pub struct Sweep<'a> {
    /// Node whose out-edges are skipped — the residual-graph (`G−i`)
    /// sweep without materializing a second graph.
    pub mask: Option<u32>,
    /// Parallel to the CSR cost array: edges to skip.
    pub disabled: Option<&'a [bool]>,
    /// End the sweep once this node is settled. Its value and the parent
    /// chain back to the source are then exactly the full sweep's: every
    /// node on the chain was settled before it, and a settled node's
    /// entries are final, because no later pop has a better key and
    /// extending a path never improves it, so a strictly better
    /// candidate cannot appear again (zero-cost edges and ties included).
    /// Entries of nodes off the chain are unspecified.
    pub stop_at: Option<u32>,
}

/// Reusable arenas for repeated sweeps: value and parent arrays live in
/// external row slices, the heaps and settled bitmap are reused between
/// calls, so a warmed-up workspace allocates nothing. [`sweep_many`]
/// keeps its node-major lanes and work-list here too.
#[derive(Default)]
pub struct DijkstraWorkspace {
    settled: Vec<bool>,
    /// Marker for the affected set during removal repairs, and for the
    /// nodes on [`sweep_many`]'s work-list; cleared before returning.
    flag: Vec<bool>,
    min_heap: BinaryHeap<HeapEntry<MinPlus>>,
    max_heap: BinaryHeap<HeapEntry<MaxMin>>,
    /// [`sweep_many`]'s values, `lanes[v][l]` for source `l` of a block.
    lanes: Vec<f64>,
    /// [`sweep_many`]'s FIFO work-list.
    work: VecDeque<u32>,
}

impl DijkstraWorkspace {
    /// A workspace pre-sized for `n`-node graphs.
    pub fn new(n: usize) -> Self {
        DijkstraWorkspace {
            settled: vec![false; n],
            flag: vec![false; n],
            min_heap: BinaryHeap::with_capacity(n),
            max_heap: BinaryHeap::with_capacity(n),
            lanes: Vec::new(),
            work: VecDeque::new(),
        }
    }

    /// Shortest paths ([`MinPlus`]) from `source` into caller-provided
    /// row slices.
    ///
    /// `mask`: when `Some(v)`, node `v`'s out-edges are skipped — the
    /// residual-graph (`G−i`) sweep without materializing a second graph.
    pub fn sssp_into(
        &mut self,
        g: &CsrGraph,
        source: u32,
        mask: Option<u32>,
        dist: &mut [f64],
        parent: &mut [u32],
    ) {
        let sweep = Sweep {
            mask,
            ..Sweep::default()
        };
        self.sweep::<MinPlus>(g, source, sweep, dist, parent)
    }

    /// Best paths from `source` on algebra `A` into caller-provided row
    /// slices: `dist[source] = A::SOURCE`, unreached nodes keep
    /// `A::UNREACHED` and [`NO_PARENT`].
    ///
    /// The one Dijkstra loop of the crate's CSR side — a single
    /// implementation so relaxation and tie-break behavior (which the
    /// engine's bit-exactness rests on) cannot diverge between the
    /// semirings or between the plain, masked and disabled-edge forms.
    pub fn sweep<A: PathAlgebra>(
        &mut self,
        g: &CsrGraph,
        source: u32,
        Sweep {
            mask,
            disabled,
            stop_at,
        }: Sweep<'_>,
        dist: &mut [f64],
        parent: &mut [u32],
    ) {
        let n = g.len();
        debug_assert_eq!(dist.len(), n);
        debug_assert_eq!(parent.len(), n);
        self.settled.clear();
        self.settled.resize(n, false);
        dist.fill(A::UNREACHED);
        parent.fill(NO_PARENT);
        dist[source as usize] = A::SOURCE;
        A::heap(self).clear();
        A::heap(self).push(HeapEntry::new(A::SOURCE, source));
        while let Some(HeapEntry { key, node, .. }) = A::heap(self).pop() {
            let u = node as usize;
            if self.settled[u] {
                continue;
            }
            self.settled[u] = true;
            if stop_at == Some(node) {
                break;
            }
            if mask == Some(node) {
                continue;
            }
            let (ts, cs) = g.out(u);
            let lo = g.offsets[u] as usize;
            for (off, (&t, &c)) in ts.iter().zip(cs).enumerate() {
                debug_assert!(c >= 0.0 && !c.is_nan());
                if disabled.is_some_and(|d| d[lo + off]) {
                    continue;
                }
                self.relax::<A>(key, node, t, c, dist, parent);
            }
        }
    }

    /// Offer `v` the path that reaches `u` with value `key` and continues
    /// over the edge `u → v` of value `c`; a strictly better offer is
    /// recorded and queued.
    #[inline]
    fn relax<A: PathAlgebra>(
        &mut self,
        key: f64,
        u: u32,
        v: u32,
        c: f64,
        dist: &mut [f64],
        parent: &mut [u32],
    ) {
        let cand = A::extend(key, c);
        if A::better(cand, dist[v as usize]) {
            dist[v as usize] = cand;
            parent[v as usize] = u;
            A::heap(self).push(HeapEntry::new(cand, v));
        }
    }

    /// Drain the heap, relaxing out-edges of every entry that is still
    /// its node's value — the propagation both repairs end with.
    fn propagate<A: PathAlgebra>(&mut self, g: &CsrGraph, dist: &mut [f64], parent: &mut [u32]) {
        while let Some(HeapEntry { key, node, .. }) = A::heap(self).pop() {
            if A::better(dist[node as usize], key) {
                continue; // stale entry
            }
            let (ts, cs) = g.out(node as usize);
            for (&t, &c) in ts.iter().zip(cs) {
                self.relax::<A>(key, node, t, c, dist, parent);
            }
        }
    }

    /// Exact row repair after edge insertions.
    ///
    /// `dist`/`parent` must hold exact best paths of the graph *before*
    /// the inserted edges; `seeds` carries one `(node, candidate value,
    /// parent)` triple per inserted edge head. Insertion can only improve
    /// values (distances shrink, widths grow), so only the region that
    /// actually improves is re-explored, and the repaired rows are
    /// bit-identical to a from-scratch sweep.
    pub fn repair_insertion<A: PathAlgebra>(
        &mut self,
        g: &CsrGraph,
        seeds: &[(u32, f64, u32)],
        dist: &mut [f64],
        parent: &mut [u32],
    ) {
        csr_obs().insertion_repairs.inc();
        A::heap(self).clear();
        for &(node, cand, par) in seeds {
            let v = node as usize;
            if A::better(cand, dist[v]) {
                dist[v] = cand;
                parent[v] = par;
                A::heap(self).push(HeapEntry::new(cand, node));
            }
        }
        self.propagate::<A>(g, dist, parent);
    }

    /// Exact row repair after edge removals, given the affected set.
    ///
    /// `dist` must hold exact best paths of `g`, which still holds the
    /// removed edges (`rev` is `g` reversed); `cut(u, v)` says whether
    /// `u → v` is one of them, and `affected` must contain every vertex
    /// whose tree path uses one, each after its tree parent
    /// ([`subtree_under`]'s breadth-first order). Every other vertex keeps
    /// its value — removal only worsens paths and its tree path survives.
    /// No tail of a cut edge may be affected (its out-edges would be
    /// relaxed again, cut ones included) — which holds whenever the cut
    /// edges all leave one node, since a simple path to it uses none of
    /// them.
    ///
    /// Call a vertex *unflagged* when it is outside `affected` or was kept
    /// earlier in one pass over `affected` in order. The pass *keeps* a
    /// vertex `v` with an uncut in-edge from an unflagged `u` whose offer
    /// `extend(d(u), c)` is `d(v)` bit for bit: that path survives in the
    /// reduced graph and removal only worsens, so `d(v)` stands, and `v`
    /// is re-parented to `u`, which comes before it — the new parents stay
    /// acyclic. Bottleneck ties make this the common case on [`MaxMin`];
    /// float delays almost never tie. Every other vertex remembers its
    /// best unflagged offer. Only those are reset and seeded, after the
    /// whole pass — a kept vertex is never pushed, so an earlier seed
    /// would miss its out-edges — from the stored offer, or from a rescan
    /// when a vertex later in the order was kept; with nothing kept this
    /// is one in-edge scan per vertex. Any path into them enters through
    /// an edge from an unflagged vertex, and path values fold
    /// left-to-right exactly as a full sweep of the reduced graph would,
    /// so repaired rows are bit-identical to [`Self::sweep`] on it.
    ///
    /// `parent` is only written, never read: a caller may pass scratch.
    /// Returns how many vertices were kept.
    pub fn repair_removal<A: PathAlgebra>(
        &mut self,
        g: &CsrGraph,
        rev: &CsrGraph,
        cut: impl Fn(u32, u32) -> bool,
        affected: &[u32],
        dist: &mut [f64],
        parent: &mut [u32],
    ) -> usize {
        let obs = csr_obs();
        obs.removal_repairs.inc();
        self.flag.resize(g.len(), false);
        for &v in affected {
            self.flag[v as usize] = true;
        }
        // The keep pass. A vertex that is not kept stays flagged, so nobody
        // reads the offer it parks in its own entries.
        let (mut kept, mut last_kept) = (0, 0);
        for (at, &v) in affected.iter().enumerate() {
            let v = v as usize;
            match self.offer::<A>(rev, &cut, v, dist, Some(dist[v])) {
                Offer::Tight(u) => {
                    parent[v] = u;
                    self.flag[v] = false;
                    (kept, last_kept) = (kept + 1, at);
                }
                Offer::Best(best, best_par) => (dist[v], parent[v]) = (best, best_par),
            }
        }
        // Seed what was not kept: a vertex before the last kept one may
        // have a tail its stored offer did not see.
        A::heap(self).clear();
        for (at, &v) in affected.iter().enumerate() {
            let v = v as usize;
            if !self.flag[v] {
                continue;
            }
            if at < last_kept {
                if let Offer::Best(best, best_par) = self.offer::<A>(rev, &cut, v, dist, None) {
                    (dist[v], parent[v]) = (best, best_par);
                }
            }
            if A::better(dist[v], A::UNREACHED) {
                A::heap(self).push(HeapEntry::new(dist[v], v as u32));
            }
        }
        // Propagate inside the regrown region (only it can improve).
        self.propagate::<A>(g, dist, parent);
        for &v in affected {
            self.flag[v as usize] = false;
        }
        obs.kept.add(kept as u64);
        kept
    }

    /// What `v`'s uncut in-edges from unflagged tails offer: with `keep`,
    /// the first tail whose offer is `keep` bit for bit; otherwise (or
    /// when there is none) the best offer and its tail — `A::UNREACHED`
    /// and [`NO_PARENT`] when nothing reaches `v`.
    #[inline]
    fn offer<A: PathAlgebra>(
        &self,
        rev: &CsrGraph,
        cut: &impl Fn(u32, u32) -> bool,
        v: usize,
        dist: &[f64],
        keep: Option<f64>,
    ) -> Offer {
        let (us, cs) = rev.out(v);
        let (mut best, mut best_par) = (A::UNREACHED, NO_PARENT);
        for (&u, &c) in us.iter().zip(cs) {
            if self.flag[u as usize] || cut(u, v as u32) {
                continue;
            }
            let cand = A::extend(dist[u as usize], c);
            if keep.is_some_and(|d| cand.to_bits() == d.to_bits()) {
                return Offer::Tight(u);
            }
            if A::better(cand, best) {
                best = cand;
                best_par = u;
            }
        }
        Offer::Best(best, best_par)
    }
}

/// [`DijkstraWorkspace::offer`]'s answer.
enum Offer {
    /// An in-edge from this tail keeps the vertex's value.
    Tight(u32),
    /// The best offer and its tail.
    Best(f64, u32),
}

/// Would [`DijkstraWorkspace::repair_removal`] keep every vertex of
/// `affected`, leaving the row's values as they are? Read-only, and unlike
/// the repair it reads `parent`, which must be the tree `affected` was
/// walked from. The vertices whose tree edge is cut — `affected`'s heads,
/// which [`subtree_under`] lists first — need an uncut tight in-edge from
/// outside the torn subtree or from an earlier head; every other vertex
/// is then kept over its own tree edge, whose tail comes before it and
/// was kept. A tail is outside the subtree when its own tree path uses no
/// cut edge, which the walk up `parent` settles only for the tight
/// in-edges, so a row with no ties costs one in-edge scan of its first
/// head.
pub fn removal_keeps_all<A: PathAlgebra>(
    rev: &CsrGraph,
    cut: impl Fn(u32, u32) -> bool,
    affected: &[u32],
    dist: &[f64],
    parent: &[u32],
) -> bool {
    let torn = |mut v: u32| loop {
        match parent[v as usize] {
            NO_PARENT => return false,
            p if cut(p, v) => return true,
            p => v = p,
        }
    };
    let heads = affected.iter().take_while(|&&v| cut(parent[v as usize], v));
    heads.enumerate().all(|(at, &h)| {
        let (us, cs) = rev.out(h as usize);
        us.iter().zip(cs).any(|(&u, &c)| {
            !cut(u, h)
                && A::extend(dist[u as usize], c).to_bits() == dist[h as usize].to_bits()
                && (affected[..at].contains(&u) || !torn(u))
        })
    })
}

/// Collect into `out` the vertices whose path in the best-path tree
/// `parent` over `g` uses one of the edges `via → w`, `w ∈ heads`: the
/// heads that are tree children of `via`, then every descendant of
/// theirs, breadth first. Empty exactly when the tree uses none of the
/// edges — `heads.len()` compares, no scan of the parent row.
///
/// A tree child of `v` is by construction an out-neighbour of `v`, so
/// the walk reads `g.out(v)` and keeps the `t` with `parent[t] == v` —
/// work proportional to the out-degrees of the subtrees, nothing
/// proportional to `n`. With the edges about to be removed this is the
/// affected set of [`DijkstraWorkspace::repair_removal`]. Every tree
/// edge below a head must be an edge of `g`, and `g` must hold no
/// parallel edges (each would list its head twice).
pub fn subtree_under(g: &CsrGraph, parent: &[u32], via: u32, heads: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.extend(heads.iter().filter(|&&w| parent[w as usize] == via));
    let mut next = 0; // the BFS frontier lives inside `out`
    while next < out.len() {
        let v = out[next];
        next += 1;
        let children = g.out(v as usize).0.iter();
        out.extend(children.filter(|&&t| parent[t as usize] == v));
    }
}

/// Packed all-pairs result: `dist[s * n + v]` and `parent[s * n + v]`
/// (the predecessor of `v` on the chosen shortest-path tree of source
/// `s`; [`NO_PARENT`] for sources and unreachable nodes).
#[derive(Clone, Debug)]
pub struct CsrApsp {
    pub n: usize,
    pub dist: Vec<f64>,
    pub parent: Vec<u32>,
}

impl CsrApsp {
    /// Distance row of source `s`.
    #[inline]
    pub fn dist_row(&self, s: usize) -> &[f64] {
        &self.dist[s * self.n..(s + 1) * self.n]
    }

    /// Parent row of source `s`.
    #[inline]
    pub fn parent_row(&self, s: usize) -> &[u32] {
        &self.parent[s * self.n..(s + 1) * self.n]
    }
}

/// How many worker threads an all-pairs fan-out should use for an
/// `n`-source sweep: one per available core, never more than the rows,
/// and none at all for small instances where spawn overhead dominates.
///
/// The core count is probed once and cached: `available_parallelism` is
/// a syscall, and on a single-core host (the common container case) the
/// answer never changes — every all-pairs pass then takes the inline
/// no-spawn path below without re-asking the OS.
fn fanout_threads(n: usize) -> usize {
    if n < 64 {
        return 1;
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    cores.min(n)
}

/// Sweep every source on algebra `A`, fanning rows out over scoped
/// threads. Each thread owns a disjoint chunk of the output, so the
/// result is byte-identical to the sequential order.
fn all_pairs_fanout<A: PathAlgebra>(g: &CsrGraph, dist: &mut [f64], parent: &mut [u32]) {
    let n = g.len();
    let sweep_rows = |first: usize, dist: &mut [f64], parent: &mut [u32]| {
        let mut ws = DijkstraWorkspace::new(n);
        let rows = dist.chunks_mut(n).zip(parent.chunks_mut(n));
        for (r, (d_row, p_row)) in rows.enumerate() {
            ws.sweep::<A>(g, (first + r) as u32, Sweep::default(), d_row, p_row);
        }
    };
    let threads = fanout_threads(n);
    if threads <= 1 {
        return sweep_rows(0, dist, parent);
    }
    let rows_per = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut dist_rest = dist;
        let mut parent_rest = parent;
        for chunk in 0..threads {
            let start = chunk * rows_per;
            if start >= n {
                break;
            }
            let rows = rows_per.min(n - start);
            let (dist_chunk, d_rest) = dist_rest.split_at_mut(rows * n);
            let (parent_chunk, p_rest) = parent_rest.split_at_mut(rows * n);
            dist_rest = d_rest;
            parent_rest = p_rest;
            scope.spawn(move || sweep_rows(start, dist_chunk, parent_chunk));
        }
    });
}

/// Obs counters of the CSR all-pairs machinery, resolved lazily once.
/// Builds get a span per algebra ([`PathAlgebra::BUILD_SPAN`]; they are
/// the expensive, once-per-epoch-state operation); the per-row repairs
/// are far too hot for timestamps and get plain counters instead.
struct CsrObs {
    sources: egoist_obs::Counter,
    removal_repairs: egoist_obs::Counter,
    kept: egoist_obs::Counter,
    insertion_repairs: egoist_obs::Counter,
    many_sources: egoist_obs::Counter,
    many_pops: egoist_obs::Counter,
}

fn csr_obs() -> &'static CsrObs {
    static OBS: OnceLock<CsrObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = egoist_obs::registry();
        CsrObs {
            sources: r.counter("graph.apsp.sources"),
            removal_repairs: r.counter("graph.repair.removal"),
            kept: r.counter("graph.repair.kept"),
            insertion_repairs: r.counter("graph.repair.insertion"),
            many_sources: r.counter("graph.sweep_many.sources"),
            many_pops: r.counter("graph.sweep_many.pops"),
        }
    })
}

/// All-pairs best paths on algebra `A` with parent tracking: row `s`
/// is [`DijkstraWorkspace::sweep`] from `s`, so the diagonal holds
/// `A::SOURCE` and unreachable pairs `A::UNREACHED`. On [`MaxMin`] that
/// is the policy layer's dense widest-matrix convention (diagonal
/// `INFINITY`, unreachable 0).
pub fn all_pairs<A: PathAlgebra>(g: &CsrGraph) -> CsrApsp {
    let timer = egoist_obs::registry().timer(A::BUILD_SPAN);
    let _span = timer.start();
    let n = g.len();
    csr_obs().sources.add(n as u64);
    let mut dist = vec![A::UNREACHED; n * n];
    let mut parent = vec![NO_PARENT; n * n];
    all_pairs_fanout::<A>(g, &mut dist, &mut parent);
    CsrApsp { n, dist, parent }
}

/// All-pairs shortest paths ([`all_pairs`] on [`MinPlus`]);
/// [`crate::apsp::apsp`] reads its distances into a dense matrix.
pub fn apsp_csr(g: &CsrGraph) -> CsrApsp {
    all_pairs::<MinPlus>(g)
}

/// How many sources [`sweep_many`] sweeps together: one lane per source,
/// `n × LANE_BLOCK × 8 B` of node-major values per block — 150 KB at the
/// fleet's n=300, inside L2. Every pop is shared by the whole block, so
/// wider blocks pop less per source; measured (EXPERIMENTS.md "Batched
/// residual rows") the time per row falls steeply up to 64 lanes and by
/// under 10% beyond.
pub const LANE_BLOCK: usize = 64;

/// A block's lanes are padded to a multiple of this with never-improving
/// `UNREACHED` lanes, so the relaxation loop runs over whole vectors.
const LANE_PAD: usize = 8;

/// Offer every lane of `dv` the path that reaches `u` with that lane's
/// `du` and continues over an edge of value `c`: branch-free
/// `dv[l] = better(extend(du[l], c), dv[l])`, the relaxation of
/// [`DijkstraWorkspace::sweep`] on `du.len()` sources at once. Returns
/// whether any lane improved.
#[inline]
fn relax_lanes<A: PathAlgebra>(du: &[f64], dv: &mut [f64], c: f64) -> bool {
    let mut improved = false;
    for (v, &u) in dv.iter_mut().zip(du) {
        let cand = A::extend(u, c);
        let better = A::better(cand, *v);
        *v = if better { cand } else { *v };
        improved |= better;
    }
    improved
}

/// Best-path values on algebra `A` from many sources in one pass:
/// `out[r * n..][..n]` becomes the value row of `sources[r]`, bit for
/// bit the `dist` of [`DijkstraWorkspace::sweep`] from it with the same
/// `mask` (that node's out-edges skipped: rows of `G−mask`). Values
/// only — no parents. Returns the number of work-list pops. The lanes,
/// work-list and queued flags live in `ws`, so a caller that keeps one
/// workspace allocates nothing once it is warm.
///
/// Up to [`LANE_BLOCK`] sources share one label-correcting pass: values
/// are held node-major, `lane[v][l]` for source `l`, a FIFO work-list of
/// nodes starts from the sources, and a popped node relaxes each
/// out-edge over all lanes in one branch-free, vectorised loop; a head
/// that improved in any lane re-enters the list. No heap, and nothing
/// per source but its lane.
///
/// *Exact*, not approximate. Every lane value is at all times the
/// left-to-right fold of a real path, and the pass stops at a fixed
/// point `d[v] = best_u extend(d[u], c_uv)`; Dijkstra's row is such a
/// fold and such a fixed point too. `extend` is monotone in both
/// algebras (rounding included), so induction along either one's paths
/// bounds it by the other: the rows are equal, and equal non-NaN
/// `f64`s from non-negative edges are bit-equal.
///
/// *Worst case*: a node re-enters the list in round `r` only if some
/// lane's best path to it has at least `r` edges, so a block pops at
/// most `sources + n·(n−1)` nodes (one lane: `1 + n·(n−1)/2`) —
/// `O(n·m)` edge relaxations where a heap sweep is `O(m log n)` per
/// source. Edge values an adversary picks (LSA costs are) can force
/// that: the test `sweep_many_adversarial_costs_stay_exact_and_bounded`
/// builds the graph. The overlays nodes announce measure ≈ 5 pops per
/// node and block (DESIGN.md §6).
pub fn sweep_many<A: PathAlgebra>(
    ws: &mut DijkstraWorkspace,
    g: &CsrGraph,
    sources: &[u32],
    mask: Option<u32>,
    out: &mut [f64],
) -> u64 {
    let n = g.len();
    assert_eq!(out.len(), sources.len() * n, "one packed row per source");
    if sources.is_empty() {
        return 0;
    }
    let DijkstraWorkspace {
        flag: queued,
        lanes: lane,
        work,
        ..
    } = ws;
    // Every queued node is popped before a block ends, so the flags are
    // all clear between blocks and calls.
    queued.resize(n, false);
    let mut pops = 0u64;
    for (block, rows) in sources
        .chunks(LANE_BLOCK)
        .zip(out.chunks_mut(LANE_BLOCK * n))
    {
        let lanes = block.len().next_multiple_of(LANE_PAD);
        lane.clear();
        lane.resize(n * lanes, A::UNREACHED);
        for (l, &s) in block.iter().enumerate() {
            lane[s as usize * lanes + l] = A::SOURCE;
            if !std::mem::replace(&mut queued[s as usize], true) {
                work.push_back(s);
            }
        }
        let mut snapshot = [A::UNREACHED; LANE_BLOCK];
        while let Some(u) = work.pop_front() {
            pops += 1;
            queued[u as usize] = false;
            if mask == Some(u) {
                continue;
            }
            // A snapshot of u's lanes: a self-loop then offers u nothing
            // better than it has, and no two lane slices alias.
            let du = &mut snapshot[..lanes];
            du.copy_from_slice(&lane[u as usize * lanes..][..lanes]);
            let (ts, cs) = g.out(u as usize);
            for (&t, &c) in ts.iter().zip(cs) {
                debug_assert!(c >= 0.0 && !c.is_nan());
                let dv = &mut lane[t as usize * lanes..][..lanes];
                if relax_lanes::<A>(du, dv, c) && !std::mem::replace(&mut queued[t as usize], true)
                {
                    work.push_back(t);
                }
            }
        }
        // Lane-major back to the packed per-source rows readers take.
        for (v, lanes_of_v) in lane.chunks_exact(lanes).enumerate() {
            for (l, &d) in lanes_of_v[..block.len()].iter().enumerate() {
                rows[l * n + v] = d;
            }
        }
    }
    let obs = csr_obs();
    obs.many_sources.add(sources.len() as u64);
    obs.many_pops.add(pops);
    pops
}

/// First hop from `source` toward every node, from a packed parent row
/// (`None` for the source and unreachable nodes) — one O(n) sweep
/// instead of a path walk per node.
pub fn first_hops(parent: &[u32], source: u32) -> Vec<Option<NodeId>> {
    first_hops_by(parent.len(), source as usize, |v| {
        (parent[v] != NO_PARENT).then_some(parent[v] as usize)
    })
}

/// First hop from `source` toward every node of the shortest-path tree
/// `parent` encodes (`None` for the source and for unreachable nodes):
/// every node inherits its parent's first hop, the source's children
/// are their own.
fn first_hops_by(
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
fn for_each_tree_edge(
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

/// Reusable scratch for [`tree_path_costs`].
#[derive(Default)]
pub struct TreeScratch {
    done: Vec<bool>,
    stack: Vec<usize>,
}

/// Cost of the tree path `source → v` for every `v`, under an edge cost
/// other than the one the tree was built on (routes follow announced
/// costs, what they deliver is the true ones): with `p = parent[v]`,
/// `out[v] = out[p] + cost(p, v)`, root to leaves in one O(n) sweep. These are
/// the additions of walking each path from the source, in the same
/// left-to-right order, so every sum is bit-identical to the walk's.
/// Unreachable nodes get `INFINITY`, the source `0`.
pub fn tree_path_costs(
    parent: &[u32],
    source: u32,
    mut cost: impl FnMut(NodeId, NodeId) -> f64,
    out: &mut [f64],
    scratch: &mut TreeScratch,
) {
    out.fill(f64::INFINITY);
    out[source as usize] = 0.0;
    scratch.done.resize(parent.len(), false);
    for_each_tree_edge(
        source as usize,
        |v| (parent[v] != NO_PARENT).then_some(parent[v] as usize),
        &mut scratch.done,
        &mut scratch.stack,
        |p, v| out[v] = out[p] + cost(NodeId(p as u32), NodeId(v as u32)),
    );
}

/// Scratch of the successive edge-disjoint shortest-path search: the
/// disabled-edge mask (parallel to the CSR cost array, all-false between
/// calls), a workspace and one dist/parent row, reused across pairs.
pub struct DisjointSearch {
    ws: DijkstraWorkspace,
    dist: Vec<f64>,
    parent: Vec<u32>,
    disabled: Vec<bool>,
    used_slots: Vec<usize>,
}

impl DisjointSearch {
    /// Scratch sized for `g`.
    pub fn new(g: &CsrGraph) -> Self {
        DisjointSearch {
            ws: DijkstraWorkspace::new(g.len()),
            dist: vec![f64::INFINITY; g.len()],
            parent: vec![NO_PARENT; g.len()],
            disabled: vec![false; g.edge_count()],
            used_slots: Vec::new(),
        }
    }

    /// Up to `want` (at least one) edge-disjoint paths `source → target`,
    /// cheapest first: successive shortest paths with the used edges
    /// disabled in place (no graph clones), each search stopping once
    /// `target` is settled. Every path is handed to `emit` as a parent
    /// row whose chain from `target` leads back to `source`.
    ///
    /// `tree` is the parent row of a plain SSSP from `source` when the
    /// caller already has one: nothing is disabled before the first
    /// search, so path 0 is read off it instead of searched again.
    /// `source == target` yields the one empty path — it disables no
    /// edge, so every further search would return it again.
    pub fn for_each_path(
        &mut self,
        g: &CsrGraph,
        source: u32,
        target: u32,
        want: usize,
        tree: Option<&[u32]>,
        mut emit: impl FnMut(&[u32]),
    ) {
        let want = want.max(1);
        for found in 0..want {
            let row = match tree {
                Some(row) if found == 0 => row,
                _ => {
                    let sweep = Sweep {
                        mask: None,
                        disabled: Some(&self.disabled),
                        stop_at: Some(target),
                    };
                    self.ws
                        .sweep::<MinPlus>(g, source, sweep, &mut self.dist, &mut self.parent);
                    &self.parent
                }
            };
            if source != target && row[target as usize] == NO_PARENT {
                break;
            }
            emit(row);
            if source == target || found + 1 == want {
                break;
            }
            // Disable the first still-enabled copy of every path edge.
            let mut cur = target;
            while cur != source {
                let p = row[cur as usize];
                let lo = g.offsets[p as usize] as usize;
                let (ts, _) = g.out(p as usize);
                for (off, &t) in ts.iter().enumerate() {
                    if t == cur && !self.disabled[lo + off] {
                        self.disabled[lo + off] = true;
                        self.used_slots.push(lo + off);
                        break;
                    }
                }
                cur = p;
            }
        }
        for slot in self.used_slots.drain(..) {
            self.disabled[slot] = false;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference::{self, dijkstra, widest_paths};

    /// Reconstruct the node path `source → target` from a packed parent row.
    /// Returns `None` when unreachable.
    pub(crate) fn path_from_parents(
        parent: &[u32],
        source: u32,
        target: u32,
        reachable: bool,
    ) -> Option<Vec<NodeId>> {
        if !reachable {
            return None;
        }
        let mut path = vec![NodeId(target)];
        let mut cur = target;
        while cur != source {
            let p = parent[cur as usize];
            if p == NO_PARENT {
                return None;
            }
            path.push(NodeId(p));
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// [`DisjointSearch::for_each_path`] collected into node paths.
    pub(crate) fn successive_disjoint_paths(
        g: &CsrGraph,
        source: u32,
        target: u32,
        want: usize,
        search: &mut DisjointSearch,
    ) -> Vec<Vec<NodeId>> {
        let mut paths = Vec::new();
        search.for_each_path(g, source, target, want, None, |row| {
            paths.extend(path_from_parents(row, source, target, true));
        });
        paths
    }

    /// One sweep of `g` from `s` on algebra `A`: `(values, parents)`.
    pub(crate) fn tree<A: PathAlgebra>(g: &DiGraph, s: u32) -> (Vec<f64>, Vec<u32>) {
        let n = g.len();
        let (mut dist, mut parent) = (vec![0.0; n], vec![0; n]);
        let csr = CsrGraph::from_digraph(g);
        DijkstraWorkspace::new(n).sweep::<A>(&csr, s, Sweep::default(), &mut dist, &mut parent);
        (dist, parent)
    }

    fn digraph(n: usize, edges: &[(u32, u32, f64)]) -> DiGraph {
        let mut g = DiGraph::new(n);
        for &(a, b, c) in edges {
            g.add_edge(NodeId(a), NodeId(b), c);
        }
        g
    }

    /// Deterministic pseudo-random sparse graph.
    fn scrambled(n: usize, out_degree: usize) -> DiGraph {
        scrambled_with(n, out_degree, |i, j, o| {
            ((i * 31 + j * 17 + o) % 97 + 1) as f64 * 0.5
        })
    }

    /// [`scrambled`]'s shape with integer costs 1..=3: equal-valued
    /// paths everywhere, on both semirings.
    fn tie_heavy(n: usize, out_degree: usize) -> DiGraph {
        scrambled_with(n, out_degree, |i, j, o| {
            ((i * 31 + j * 17 + o) % 3 + 1) as f64
        })
    }

    /// Node `i`'s `o`-th edge goes to `(7i + 13o + 3) mod n` at `cost(i, j, o)`.
    fn scrambled_with(
        n: usize,
        out_degree: usize,
        cost: impl Fn(usize, usize, usize) -> f64,
    ) -> DiGraph {
        let mut g = DiGraph::new(n);
        for i in 0..n {
            for o in 0..out_degree {
                let j = (i * 7 + o * 13 + 3) % n;
                if j != i {
                    g.add_edge(NodeId::from_index(i), NodeId::from_index(j), cost(i, j, o));
                }
            }
        }
        g
    }

    #[test]
    fn csr_matches_digraph_shape() {
        let g = scrambled(20, 4);
        let c = CsrGraph::from_digraph(&g);
        assert_eq!(c.len(), 20);
        assert_eq!(c.edge_count(), g.edge_count());
        for i in 0..20 {
            let (ts, cs) = c.out(i);
            let edges = g.out_edges(NodeId::from_index(i));
            assert_eq!(ts.len(), edges.len());
            for ((&t, &cost), e) in ts.iter().zip(cs).zip(edges) {
                assert_eq!(t, e.to.0);
                assert_eq!(cost, e.cost);
            }
        }
    }

    /// The `DiGraph` reference sweep of each algebra.
    trait Reference: PathAlgebra {
        fn sweep(g: &DiGraph, source: NodeId) -> reference::Tree;
    }

    impl Reference for MinPlus {
        fn sweep(g: &DiGraph, source: NodeId) -> reference::Tree {
            dijkstra(g, source)
        }
    }

    impl Reference for MaxMin {
        fn sweep(g: &DiGraph, source: NodeId) -> reference::Tree {
            widest_paths(g, source)
        }
    }

    fn assert_rows_bit_equal(truth: &[f64], got: &[f64], what: &str) {
        assert_eq!(truth.len(), got.len(), "{what}: length");
        for (j, (t, g)) in truth.iter().zip(got).enumerate() {
            assert_eq!(t.to_bits(), g.to_bits(), "{what}: target {j}: {t} vs {g}");
        }
    }

    fn all_pairs_matches_reference<A: Reference>() {
        for n in [5usize, 17, 40, 80] {
            let g = scrambled(n, 3);
            let packed = all_pairs::<A>(&CsrGraph::from_digraph(&g));
            for s in 0..n {
                let oracle = A::sweep(&g, NodeId::from_index(s)).dist;
                assert_rows_bit_equal(&oracle, packed.dist_row(s), &format!("n={n} source {s}"));
            }
        }
    }

    #[test]
    fn all_pairs_matches_reference_min_plus() {
        all_pairs_matches_reference::<MinPlus>();
    }

    #[test]
    fn all_pairs_matches_reference_max_min() {
        all_pairs_matches_reference::<MaxMin>();
    }

    /// Where equal-valued paths abound, the settle order alone picks a
    /// parent: every all-pairs parent row is the reference's, the
    /// source's own entry aside.
    fn all_pairs_parents_match_reference<A: Reference>() {
        for n in [5usize, 17, 40, 80] {
            for degree in [2, 3, 5] {
                let g = tie_heavy(n, degree);
                let packed = all_pairs::<A>(&CsrGraph::from_digraph(&g));
                for s in 0..n {
                    let oracle = A::sweep(&g, NodeId::from_index(s)).parent;
                    let got = packed.parent_row(s);
                    for v in (0..n).filter(|&v| v != s) {
                        let want = oracle[v].map_or(NO_PARENT, |p| p.0);
                        assert_eq!(want, got[v], "n={n} degree {degree} source {s}: {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_pairs_parents_match_reference_min_plus() {
        all_pairs_parents_match_reference::<MinPlus>();
    }

    #[test]
    fn all_pairs_parents_match_reference_max_min() {
        all_pairs_parents_match_reference::<MaxMin>();
    }

    #[test]
    fn shortest_paths_on_small_graphs() {
        // 0 →1→ 1 →1→ 2, plus a direct 0→2 edge of cost 5: the detour wins.
        let g = digraph(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]);
        let (dist, parent) = tree::<MinPlus>(&g, 0);
        assert_eq!(dist, [0.0, 1.0, 2.0]);
        let path = path_from_parents(&parent, 0, 2, true);
        assert_eq!(path, Some(vec![NodeId(0), NodeId(1), NodeId(2)]));
        assert_eq!(
            first_hops(&parent, 0),
            [None, Some(NodeId(1)), Some(NodeId(1))]
        );
        // Edges are directed; a source's path to itself is itself.
        let (dist, parent) = tree::<MinPlus>(&g, 1);
        assert_eq!(dist, [f64::INFINITY, 0.0, 1.0]);
        assert_eq!(
            path_from_parents(&parent, 1, 1, true),
            Some(vec![NodeId(1)])
        );
        // Zero-cost edges are paths, an infinite one is none: 3 is
        // unreached, with no path and no first hop.
        let g = digraph(4, &[(0, 1, 0.0), (1, 2, 0.0), (2, 3, f64::INFINITY)]);
        let (dist, parent) = tree::<MinPlus>(&g, 0);
        assert_eq!(dist, [0.0, 0.0, 0.0, f64::INFINITY]);
        assert_eq!(parent[3], NO_PARENT);
        assert_eq!(path_from_parents(&parent, 0, 3, dist[3].is_finite()), None);
        assert_eq!(first_hops(&parent, 0)[3], None);
    }

    #[test]
    fn widest_paths_on_small_graphs() {
        // 0→1 (10), 1→2 (4), 0→2 (3): the two-hop bottleneck 4 beats the
        // direct 3; the source's own width is infinite, an unreached one 0.
        let g = digraph(3, &[(0, 1, 10.0), (1, 2, 4.0), (0, 2, 3.0)]);
        let (width, parent) = tree::<MaxMin>(&g, 0);
        assert_eq!(width, [f64::INFINITY, 10.0, 4.0]);
        let path = path_from_parents(&parent, 0, 2, true);
        assert_eq!(path, Some(vec![NodeId(0), NodeId(1), NodeId(2)]));
        let (width, parent) = tree::<MaxMin>(&g, 1);
        assert_eq!(width, [0.0, f64::INFINITY, 4.0]);
        assert_eq!(parent[0], NO_PARENT);
        // Paths 0→3: [0,1,3] = min(7,2) = 2; [0,2,3] = min(5,6) = 5;
        // [0,1,2,3] = min(7,9,6) = 6.
        let edges = [
            (0, 1, 7.0),
            (0, 2, 5.0),
            (1, 2, 9.0),
            (1, 3, 2.0),
            (2, 3, 6.0),
        ];
        assert_eq!(tree::<MaxMin>(&digraph(4, &edges), 0).0[3], 6.0);
    }

    fn masked_sweep_equals_clearing_out_edges<A: Reference>() {
        let g = scrambled(24, 4);
        let csr = CsrGraph::from_digraph(&g);
        let mut ws = DijkstraWorkspace::new(24);
        for masked in [0u32, 5, 23] {
            let mut cleared = g.clone();
            cleared.clear_out_edges(NodeId(masked));
            for s in 0..24u32 {
                let oracle = A::sweep(&cleared, NodeId(s)).dist;
                let mut dist = vec![0.0; 24];
                let mut parent = vec![0u32; 24];
                let sweep = Sweep {
                    mask: Some(masked),
                    ..Sweep::default()
                };
                ws.sweep::<A>(&csr, s, sweep, &mut dist, &mut parent);
                assert_rows_bit_equal(&oracle, &dist, &format!("mask {masked} source {s}"));
            }
        }
    }

    #[test]
    fn masked_sweep_equals_clearing_out_edges_min_plus() {
        masked_sweep_equals_clearing_out_edges::<MinPlus>();
    }

    #[test]
    fn masked_sweep_equals_clearing_out_edges_max_min() {
        masked_sweep_equals_clearing_out_edges::<MaxMin>();
    }

    /// `sweep_many` rows, through the caller's workspace `batch`, against
    /// one heap sweep per source (shared with the crate's proptests);
    /// returns the pops.
    pub(crate) fn assert_batch_is_per_source_sweeps<A: PathAlgebra>(
        batch: &mut DijkstraWorkspace,
        g: &CsrGraph,
        sources: &[u32],
        mask: Option<u32>,
    ) -> u64 {
        let n = g.len();
        let mut rows = vec![f64::NAN; sources.len() * n];
        let pops = sweep_many::<A>(batch, g, sources, mask, &mut rows);
        let mut ws = DijkstraWorkspace::new(n);
        let (mut dist, mut parent) = (vec![0.0; n], vec![0u32; n]);
        let sweep = Sweep {
            mask,
            ..Sweep::default()
        };
        for (&s, row) in sources.iter().zip(rows.chunks(n)) {
            ws.sweep::<A>(g, s, sweep, &mut dist, &mut parent);
            assert_rows_bit_equal(&dist, row, &format!("mask {mask:?} source {s}"));
        }
        pops
    }

    /// One workspace carries over every call: graphs that grow and
    /// shrink, block shapes and masks.
    fn sweep_many_matches_per_source_sweeps<A: PathAlgebra>() {
        let mut ws = DijkstraWorkspace::default();
        for (n, degree) in [(24usize, 4usize), (90, 3), (31, 2)] {
            let g = CsrGraph::from_digraph(&scrambled(n, degree));
            // One lane, a padded block, exactly one block, two blocks.
            for count in [1, 5, LANE_BLOCK, LANE_BLOCK + 7] {
                let sources: Vec<u32> = (0..count).map(|r| (r * 11 % n) as u32).collect();
                for mask in [None, Some(0), Some(sources[count / 2])] {
                    assert_batch_is_per_source_sweeps::<A>(&mut ws, &g, &sources, mask);
                }
            }
        }
        let g = CsrGraph::from_digraph(&scrambled(8, 2));
        assert_eq!(sweep_many::<A>(&mut ws, &g, &[], Some(3), &mut []), 0);
    }

    #[test]
    fn sweep_many_matches_per_source_sweeps_min_plus() {
        sweep_many_matches_per_source_sweeps::<MinPlus>();
    }

    #[test]
    fn sweep_many_matches_per_source_sweeps_max_min() {
        sweep_many_matches_per_source_sweeps::<MaxMin>();
    }

    /// The worst case, stated: a chain `0 → 1 → … → n−1` of unit edges
    /// plus shortcuts from the source straight to every node, dearer the
    /// farther they reach and listed farthest first. The FIFO pass first
    /// believes every shortcut, then corrects one more node per round:
    /// Θ(n²) pops from one source where a heap sweep settles n. A node
    /// re-enters the list in round r only if a best path to it has at
    /// least r edges, so a lane never costs more than the `n·(n−1)/2 + 1`
    /// this graph reaches, and a block never more than `sources + n·(n−1)`.
    #[test]
    fn sweep_many_adversarial_costs_stay_exact_and_bounded() {
        let n = 40usize;
        let mut edges: Vec<(usize, usize, f64)> = (1..n)
            .rev()
            .map(|v| (0, v, (v * n) as f64))
            .chain((1..n - 1).map(|v| (v, v + 1, 1.0)))
            .collect();
        edges[n - 2].2 = 1.0; // 0 → 1 starts the chain
        let g = CsrGraph::from_raw_edges(n, &edges);
        let ws = &mut DijkstraWorkspace::default();
        let pops = assert_batch_is_per_source_sweeps::<MinPlus>(ws, &g, &[0], None);
        let bound = (n * (n - 1)) as u64;
        assert!(pops <= bound, "{pops} pops > n·(n−1) = {bound}");
        assert!(
            pops > bound / 4,
            "{pops} pops: the graph is no longer adversarial"
        );
        // The same costs as bandwidths are benign (every shortcut is the
        // widest path), and the bound holds with every node a source.
        assert_batch_is_per_source_sweeps::<MaxMin>(ws, &g, &[0], None);
        let all: Vec<u32> = (0..n as u32).collect();
        let pops = assert_batch_is_per_source_sweeps::<MinPlus>(ws, &g, &all, Some(7));
        assert!(pops <= n as u64 + bound);
    }

    /// All-pairs state of `g` without `node`'s out-edges, re-inserted
    /// row by row through `repair_insertion`: `(repaired, csr of g)`.
    fn reinsert_out_edges<A: PathAlgebra>(g: &DiGraph, node: u32) -> (CsrApsp, CsrGraph) {
        let n = g.len();
        let mut without = g.clone();
        without.clear_out_edges(NodeId(node));
        let mut state = all_pairs::<A>(&CsrGraph::from_digraph(&without));
        let full = CsrGraph::from_digraph(g);
        let mut ws = DijkstraWorkspace::new(n);
        for s in 0..n {
            let row = &mut state.dist[s * n..(s + 1) * n];
            let prow = &mut state.parent[s * n..(s + 1) * n];
            let via = row[node as usize];
            let seeds: Vec<(u32, f64, u32)> = g
                .out_edges(NodeId(node))
                .iter()
                .filter(|_| A::better(via, A::UNREACHED))
                .map(|e| (e.to.0, A::extend(via, e.cost), node))
                .collect();
            ws.repair_insertion::<A>(&full, &seeds, row, prow);
        }
        (state, full)
    }

    fn repair_insertion_equals_from_scratch<A: PathAlgebra>() {
        // Remove a node's out-edges, compute all pairs, then re-add
        // them via insertion repair; every row must equal the full
        // all-pairs result.
        for (n, node) in [(30usize, 3u32), (28, 2)] {
            let g = scrambled(n, 3);
            let (repaired, full) = reinsert_out_edges::<A>(&g, node);
            let truth = all_pairs::<A>(&full);
            for s in 0..n {
                let what = format!("n={n} source {s}");
                assert_rows_bit_equal(truth.dist_row(s), repaired.dist_row(s), &what);
            }
        }
    }

    #[test]
    fn repair_insertion_equals_from_scratch_min_plus() {
        repair_insertion_equals_from_scratch::<MinPlus>();
    }

    #[test]
    fn repair_insertion_equals_from_scratch_max_min() {
        repair_insertion_equals_from_scratch::<MaxMin>();
    }

    fn repaired_parents_form_a_valid_tree<A: PathAlgebra>() {
        let n = 26;
        let (repaired, full) = reinsert_out_edges::<A>(&scrambled(n, 3), 5);
        for s in 0..n {
            let (dist, parent) = (repaired.dist_row(s), repaired.parent_row(s));
            assert_tight_tree::<A>(&full, |_, _| false, s, dist, parent, &format!("source {s}"));
        }
    }

    #[test]
    fn repaired_parents_form_a_valid_tree_min_plus() {
        repaired_parents_form_a_valid_tree::<MinPlus>();
    }

    #[test]
    fn repaired_parents_form_a_valid_tree_max_min() {
        repaired_parents_form_a_valid_tree::<MaxMin>();
    }

    /// Every reached vertex but `s` has a parent over a tight edge of `g`
    /// that `cut` spares — some copy of the edge `p → v` extends `p`'s
    /// value to exactly `v`'s — and its parent chain ends at `s`.
    fn assert_tight_tree<A: PathAlgebra>(
        g: &CsrGraph,
        cut: impl Fn(u32, u32) -> bool,
        s: usize,
        dist: &[f64],
        parent: &[u32],
        what: &str,
    ) {
        for v in (0..g.len()).filter(|&v| v != s) {
            let p = parent[v];
            if p == NO_PARENT {
                assert_eq!(
                    dist[v].to_bits(),
                    A::UNREACHED.to_bits(),
                    "{what}: {v} orphaned"
                );
                continue;
            }
            let (ts, cs) = g.out(p as usize);
            let tight = ts.iter().zip(cs).any(|(&t, &c)| {
                t as usize == v
                    && !cut(p, t)
                    && A::extend(dist[p as usize], c).to_bits() == dist[v].to_bits()
            });
            assert!(tight, "{what}: parent edge {p}→{v} is not tight");
            let mut at = v;
            for _ in 0..g.len() {
                if parent[at] == NO_PARENT {
                    break;
                }
                at = parent[at] as usize;
            }
            assert_eq!(at, s, "{what}: the chain from {v} ends at {at}");
        }
    }

    /// Returns how many vertices the repairs kept.
    fn repair_removal_matches_masked_sweep<A: PathAlgebra>(g: &DiGraph) -> usize {
        let csr = CsrGraph::from_digraph(g);
        let rev = csr.reversed();
        let full = all_pairs::<A>(&csr);
        let mut ws = DijkstraWorkspace::new(32);
        let (mut affected, mut total_kept) = (Vec::new(), 0);
        for masked in [0u32, 9, 31] {
            let (links, costs) = csr.out(masked as usize);
            // Every out-edge of `masked` cut, then all but the first.
            for kept in [0, 1] {
                let cut_heads = &links[kept..];
                let stay = links.iter().zip(costs).take(kept);
                let stay: Vec<(u32, f64)> = stay.map(|(&t, &c)| (t, c)).collect();
                let mut reduced = csr.clone();
                reduced.rewrite_out_edges(masked as usize, &stay);
                for s in 0..32usize {
                    let mut oracle_d = vec![0.0; 32];
                    let mut oracle_p = vec![0u32; 32];
                    ws.sweep::<A>(
                        &reduced,
                        s as u32,
                        Sweep::default(),
                        &mut oracle_d,
                        &mut oracle_p,
                    );
                    subtree_under(&csr, full.parent_row(s), masked, cut_heads, &mut affected);
                    let what = format!("node {masked} keeps {kept}, source {s}");
                    let cut = |u, v| u == masked && cut_heads.contains(&v);
                    // The parent row is scratch: written, never read.
                    let mut dist = full.dist_row(s).to_vec();
                    let mut parent = vec![7u32; 32];
                    let kept_here =
                        ws.repair_removal::<A>(&csr, &rev, cut, &affected, &mut dist, &mut parent);
                    assert_rows_bit_equal(&oracle_d, &dist, &what);
                    let (dist_row, tree) = (full.dist_row(s), full.parent_row(s));
                    let keeps_all = removal_keeps_all::<A>(&rev, cut, &affected, dist_row, tree);
                    assert_eq!(keeps_all, kept_here == affected.len(), "{what}");
                    // On the real tree the repaired parents are a tree too.
                    let mut dist = dist_row.to_vec();
                    let mut parent = tree.to_vec();
                    ws.repair_removal::<A>(&csr, &rev, cut, &affected, &mut dist, &mut parent);
                    assert_rows_bit_equal(&oracle_d, &dist, &what);
                    assert_tight_tree::<A>(&csr, cut, s, &dist, &parent, &what);
                    total_kept += kept_here;
                }
            }
        }
        total_kept
    }

    #[test]
    fn repair_removal_matches_masked_sweep_min_plus() {
        repair_removal_matches_masked_sweep::<MinPlus>(&scrambled(32, 4));
        repair_removal_matches_masked_sweep::<MinPlus>(&tie_heavy(32, 4));
    }

    #[test]
    fn repair_removal_matches_masked_sweep_max_min() {
        repair_removal_matches_masked_sweep::<MaxMin>(&scrambled(32, 4));
        let kept = repair_removal_matches_masked_sweep::<MaxMin>(&tie_heavy(32, 4));
        assert!(kept > 0, "bottleneck ties must keep vertices");
    }

    #[test]
    fn heap_entry_equality_is_its_ordering() {
        // 0.0 and -0.0 are `==` as floats but distinct under `total_cmp`,
        // the order the heap uses: `Eq` must side with `Ord`.
        let (pos, neg) = (HeapEntry::<MinPlus>::new(0.0, 1), HeapEntry::new(-0.0, 1));
        assert!(pos != neg && pos.cmp(&neg) != Ordering::Equal);
        assert!(pos == HeapEntry::new(0.0, 1));
        let mut heap = BinaryHeap::from(
            [(2.0, 7), (1.0, 9), (1.0, 4), (3.0, 0)].map(|(k, v)| HeapEntry::<MinPlus>::new(k, v)),
        );
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop().map(|e| e.node)).collect();
        assert_eq!(order, [4, 9, 7, 0]);
        let mut heap = BinaryHeap::from(
            [(2.0, 7), (1.0, 9), (3.0, 4), (3.0, 0)].map(|(k, v)| HeapEntry::<MaxMin>::new(k, v)),
        );
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop().map(|e| e.node)).collect();
        assert_eq!(order, [0, 4, 7, 9]);
    }

    #[test]
    fn subtree_under_walks_out_edges() {
        // Tree rooted at 0: 0→{1,2}, 1→{3,4}, 3→{5}; the graph also holds
        // non-tree edges (2→4, 4→5, 5→0, 1→5) the walk must not follow.
        let parent = [NO_PARENT, 0, 0, 1, 1, 3];
        let tree = [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)];
        let extra = [(2, 4), (4, 5), (5, 0), (1, 5)];
        let edges: Vec<_> = tree
            .iter()
            .chain(&extra)
            .map(|&(u, v)| (u, v, 1.0))
            .collect();
        let g = CsrGraph::from_raw_edges(6, &edges);
        let mut out = vec![9, 9];
        subtree_under(&g, &parent, 0, &[1], &mut out);
        assert_eq!(out, [1, 3, 4, 5], "head first, then breadth first");
        subtree_under(&g, &parent, 3, &[5], &mut out);
        assert_eq!(out, [5], "a head with no tree children");
        subtree_under(&g, &parent, 1, &[4, 3], &mut out);
        assert_eq!(out, [4, 3, 5], "several heads");
        subtree_under(&g, &parent, 0, &[1, 2], &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5], "the source's own children");
        subtree_under(&g, &parent, 1, &[5, 0], &mut out);
        assert!(out.is_empty(), "edges the tree does not use");
        subtree_under(&g, &parent, 1, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn subtree_under_detects_relays() {
        // Line 0→1→2: source 0's tree routes through 1 but not through 2.
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let a = apsp_csr(&csr);
        let mut out = Vec::new();
        let mut relays = |s: usize, relay: u32| {
            let heads = csr.out(relay as usize).0;
            subtree_under(&csr, a.parent_row(s), relay, heads, &mut out);
            !out.is_empty()
        };
        assert!(relays(0, 1));
        assert!(!relays(0, 2));
        assert!(!relays(2, 1));
    }

    #[test]
    fn successive_disjoint_paths_matches_digraph_successive() {
        // Diamond with two disjoint routes.
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(3), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 2.0);
        g.add_edge(NodeId(2), NodeId(3), 2.0);
        let csr = CsrGraph::from_digraph(&g);
        let mut search = DisjointSearch::new(&csr);
        let paths = successive_disjoint_paths(&csr, 0, 3, 2, &mut search);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0], vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(paths[1], vec![NodeId(0), NodeId(2), NodeId(3)]);
        assert!(
            search.disabled.iter().all(|&d| !d),
            "scratch must be restored"
        );
        // And a second call still works (scratch reuse).
        let again = successive_disjoint_paths(&csr, 0, 3, 5, &mut search);
        assert_eq!(again.len(), 2);
    }

    #[test]
    fn path_from_parents_matches_dijkstra_path() {
        let g = scrambled(18, 3);
        let csr = CsrGraph::from_digraph(&g);
        let a = apsp_csr(&csr);
        for (s, t) in [(0usize, 9u32), (3, 17), (11, 2)] {
            let oracle = dijkstra(&g, NodeId(s as u32)).path_to(NodeId(t));
            let ported = path_from_parents(
                a.parent_row(s),
                s as u32,
                t,
                a.dist_row(s)[t as usize].is_finite(),
            );
            assert_eq!(oracle, ported);
        }
    }

    #[test]
    fn rewrite_out_edges_matches_full_rebuild() {
        let g = scrambled(18, 3);
        let base = CsrGraph::from_digraph(&g);
        // Equal-degree rewrite, shrink, grow — each must equal a
        // from-scratch build of the same adjacency lists.
        let cases: Vec<(usize, Vec<(u32, f64)>)> = vec![
            (4, vec![(1, 2.5), (9, 0.5), (17, 7.0)]),
            (4, vec![(2, 1.0)]),
            (11, vec![(0, 3.0), (5, 4.0), (6, 5.0), (7, 6.0), (8, 1.5)]),
            (0, vec![]),
        ];
        let mut patched = base.clone();
        let mut lists: Vec<Vec<(u32, f64)>> = (0..18)
            .map(|u| {
                let (ts, cs) = base.out(u);
                ts.iter().copied().zip(cs.iter().copied()).collect()
            })
            .collect();
        for (u, edges) in cases {
            patched.rewrite_out_edges(u, &edges);
            lists[u] = edges;
            let truth = CsrGraph::from_fn(18, |v| lists[v].clone());
            assert_eq!(patched.edge_count(), truth.edge_count());
            for v in 0..18 {
                let (pt, pc) = patched.out(v);
                let (tt, tc) = truth.out(v);
                assert_eq!(pt, tt, "targets diverged at node {v} after {u}");
                assert_eq!(pc, tc, "costs diverged at node {v} after {u}");
            }
        }
    }

    #[test]
    fn reverse_into_matches_reversed_and_reuses_buffers() {
        let a = scrambled(20, 4);
        let b = scrambled(12, 2);
        let ca = CsrGraph::from_digraph(&a);
        let cb = CsrGraph::from_digraph(&b);
        let mut out = CsrGraph::default();
        // Fill with the larger graph's reversal first, then reuse for
        // the smaller one — stale capacity must not leak.
        ca.reverse_into(&mut out);
        cb.reverse_into(&mut out);
        let truth = cb.reversed();
        assert_eq!(out.len(), truth.len());
        assert_eq!(out.edge_count(), truth.edge_count());
        for v in 0..out.len() {
            assert_eq!(out.out(v), truth.out(v), "reversal mismatch at {v}");
        }
    }

    #[test]
    fn reversed_twice_is_identity_shape() {
        let g = scrambled(15, 3);
        let csr = CsrGraph::from_digraph(&g);
        let back = csr.reversed().reversed();
        assert_eq!(back.edge_count(), csr.edge_count());
        for u in 0..15 {
            let (t0, _) = csr.out(u);
            let (t1, _) = back.out(u);
            let mut a = t0.to_vec();
            let mut b = t1.to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }
}
