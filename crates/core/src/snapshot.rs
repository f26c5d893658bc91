//! The epoch route-state engine: shared snapshots and incremental
//! residual repair.
//!
//! §3.1's newcomer procedure — "run an all-pairs shortest path algorithm
//! on `G−i`" — is what made best-response dynamics quadratic-in-`n` per
//! epoch: every staggered turn rebuilt the announced cost matrix and ran
//! a from-scratch APSP over the residual overlay. But within one epoch
//! the underlay is sampled once, so the announced matrix is constant, and
//! consecutive turns differ only by single-node wiring deltas. This
//! module exploits both facts:
//!
//! * [`EpochSnapshot`] — announced matrix, disconnection penalty, alive
//!   set, the full-wiring CSR graph and its all-pairs result (with
//!   shortest-path-tree parents), built once and invalidated only when
//!   announced costs change on `O(n²)` pairs: the underlay advances, or
//!   an external actor (traffic feedback) mutates the underlay models.
//!   Everything that changes *edges* — a re-wiring, a leave, a join — is
//!   a delta the snapshot absorbs in place.
//! * **Residual views, not residual matrices** — the turn node `i`'s
//!   `G−i` distances are served through a zero-copy
//!   [`crate::residual::ResidualView`]: a source `s` is repaired into a
//!   small side pool only when its shortest-path tree actually routes
//!   through one of `i`'s out-edges; every other row is *borrowed* from
//!   the snapshot in place. Borrowing is exact: a tree that avoids `i`'s
//!   out-links survives their removal, and removal can only lengthen
//!   paths, so the minimum is unchanged — bit-for-bit, since equal path
//!   minima are equal `f64`s. Per-turn cost is `O(affected · sweep)`
//!   instead of the former dense `O(n²)` materialization.
//! * **Rewiring repair** — when node `i` commits a new wiring, the
//!   snapshot absorbs it *in place*: the pool rows this very turn
//!   repaired (the post-removal state of every affected source) are
//!   written back over their snapshot rows, unaffected rows already
//!   *are* post-removal (that is the borrow argument above), and then
//!   the *added* edges propagate through an insertion repair seeded at
//!   the new edge heads. `d(s, i)` itself never changes across `i`'s
//!   re-wiring (a simple path to `i` uses none of `i`'s out-edges),
//!   which is what makes the seeds valid. The snapshot's CSR is patched
//!   on node `i`'s out-edge slice only ([`CsrGraph::rewrite_out_edges`]).
//! * **Membership deltas** — announced costs and the penalty do not
//!   depend on who is alive, so churn is two more edge deltas built from
//!   the same primitives. A *leave* of `x` ([`RouteState::note_leave`])
//!   is the turn residual `G−x` made permanent; once `x` has no
//!   out-edges it is a leaf of every shortest-path tree, so dropping its
//!   in-edges changes nothing but column `x`. A *join*
//!   ([`RouteState::note_join`]) re-inserts the stale in-links `w → x`
//!   that survived the down period in the other nodes' wirings: one
//!   insertion repair per row, seeded at `x`. The joiner's own out-links
//!   arrive through the ordinary re-wiring repair at its first turn.
//!   Distances stay bit-identical to a rebuild (path minima do not
//!   depend on the order edges were offered in); parents may differ from
//!   a rebuild's among equal-valued paths, which the borrow argument
//!   above allows — any valid tree will do.
//!
//! Delay / load and bandwidth snapshots differ only in their
//! [`PathAlgebra`]: each public [`RouteState`] method resolves the
//! snapshot's [`SnapshotKind`] to [`MinPlus`] or [`MaxMin`] once and runs
//! one generic body — the sweep, both repairs and the fill values of the
//! "no out-links" rows all come from the algebra.
//!
//! The all-pairs rebuild fans sources out over `std::thread::scope`
//! threads in `egoist_graph::csr`, each writing disjoint row slices, so
//! results are byte-deterministic under any scheduling (and run inline
//! when one core is all there is).

use crate::residual::{CowResidual, ResidualView, NO_SLOT};
use crate::wiring::Wiring;
use egoist_graph::csr::{
    all_pairs, tree_descendants, MaxMin, MinPlus, PathAlgebra, Sweep, NO_PARENT,
};
use egoist_graph::{CsrApsp, CsrGraph, DiGraph, DijkstraWorkspace, DistanceMatrix, NodeId};

/// Which path semiring the snapshot's all-pairs state uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Min-plus shortest paths (delay / load metrics).
    Additive,
    /// Max-min widest paths (the bandwidth metric).
    Widest,
}

/// Everything a wiring turn reads, computed once per epoch state.
pub struct EpochSnapshot {
    pub kind: SnapshotKind,
    /// Announced edge-cost matrix (constant between underlay advances).
    pub announced: DistanceMatrix,
    /// Disconnection penalty `M` derived from `announced`.
    pub penalty: f64,
    /// Membership at snapshot time.
    pub alive: Vec<bool>,
    /// Full-wiring overlay in CSR form (alive edges, announced costs).
    pub csr: CsrGraph,
    /// `csr` reversed — in-edge access for the removal repairs.
    pub rev: CsrGraph,
    /// All-pairs distances/widths and shortest-path-tree parents over
    /// `csr`, kept exact across incremental re-wiring repairs.
    pub apsp: CsrApsp,
}

/// What dropped the snapshot the next [`RouteState::rebuild`] replaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildCause {
    /// The underlay advanced (or nothing was ever built): announced
    /// costs changed everywhere.
    Underlay,
    /// An external actor (traffic feedback) mutated the underlay models
    /// between two underlay advances.
    Feedback,
}

/// Work counters — how much of the engine's traffic the incremental
/// paths absorbed (asserted by tests, reported by the perf bench).
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteStats {
    /// Full snapshot rebuilds (see [`RebuildCause`]). Re-wirings and
    /// membership churn are absorbed as deltas and do not count.
    pub rebuilds: usize,
    /// Residual rows repaired into the pool because the source routed
    /// through the turn node.
    pub residual_swept: usize,
    /// Residual rows borrowed zero-copy from the snapshot.
    pub residual_borrowed: usize,
    /// Post-rewiring rows re-swept in full (a tree edge was removed).
    pub rewire_swept: usize,
    /// Post-rewiring rows absorbed by insertion repair.
    pub rewire_repaired: usize,
    /// Departures absorbed by [`RouteState::note_leave`].
    pub leaves: usize,
    /// Arrivals absorbed by [`RouteState::note_join`].
    pub joins: usize,
}

/// Obs handles for the engine, resolved once per [`RouteState`].
/// Wall time goes to the `core.epoch.turn.{residual,absorb}` spans;
/// the work counters mirror [`RouteStats`] into the global registry
/// (batched — one atomic add per `residual`/`note_rewire` call).
/// Membership deltas are timed by the simulator's `core.epoch.churn`
/// span and counted in `leaves`/`joins` only: the residual counters
/// keep meaning "turn residuals".
struct RouteObs {
    residual: egoist_obs::Timer,
    absorb: egoist_obs::Timer,
    rebuilds: egoist_obs::Counter,
    rebuilds_underlay: egoist_obs::Counter,
    rebuilds_feedback: egoist_obs::Counter,
    residual_borrowed: egoist_obs::Counter,
    residual_swept: egoist_obs::Counter,
    rewire_swept: egoist_obs::Counter,
    rewire_repaired: egoist_obs::Counter,
    leaves: egoist_obs::Counter,
    joins: egoist_obs::Counter,
}

impl RouteObs {
    fn resolve() -> Self {
        let r = egoist_obs::registry();
        RouteObs {
            residual: r.timer("core.epoch.turn.residual"),
            absorb: r.timer("core.epoch.turn.absorb"),
            rebuilds: r.counter("core.route.rebuilds"),
            rebuilds_underlay: r.counter("core.route.rebuilds_by_cause.underlay"),
            rebuilds_feedback: r.counter("core.route.rebuilds_by_cause.feedback"),
            residual_borrowed: r.counter("core.route.residual_borrowed"),
            residual_swept: r.counter("core.route.residual_swept"),
            rewire_swept: r.counter("core.route.rewire_swept"),
            rewire_repaired: r.counter("core.route.rewire_repaired"),
            leaves: r.counter("core.route.leaves"),
            joins: r.counter("core.route.joins"),
        }
    }
}

/// The engine: an optional live snapshot plus reusable scratch arenas.
pub struct RouteState {
    snap: Option<EpochSnapshot>,
    /// Why the snapshot was last dropped (see [`Self::invalidate`]).
    cause: RebuildCause,
    ws: DijkstraWorkspace,
    /// Copy-on-write side pool: per-source dispatch table (`NO_SLOT` =
    /// borrow the snapshot row) plus packed repaired rows. Retained
    /// between [`Self::residual`] and [`Self::note_rewire`] so a
    /// committed re-wiring can write the post-removal rows back instead
    /// of re-sweeping them.
    row_slot: Vec<u32>,
    pool_dist: Vec<f64>,
    pool_parent: Vec<u32>,
    /// Source of each pool slot, in slot order.
    pool_rows: Vec<u32>,
    /// The turn node's own residual row (no out-links survive `G−i`).
    self_row: Vec<f64>,
    /// Which node the retained pool was computed for; any change to the
    /// snapshot drops it.
    residual_for: Option<usize>,
    /// Child-bucket scratch for subtree collection.
    child_head: Vec<u32>,
    child_next: Vec<u32>,
    affected: Vec<u32>,
    /// Scratch of the deltas: one node's out-edge slice, the in-neighbours
    /// of a churned node, and one row's insertion seeds.
    edges: Vec<(u32, f64)>,
    in_links: Vec<u32>,
    seeds: Vec<(u32, f64, u32)>,
    pub stats: RouteStats,
    obs: RouteObs,
}

/// Node `i`'s out-edge slice as [`Wiring::to_graph`] builds it: alive
/// targets in wiring order at announced costs, nothing for a dead node.
fn alive_edges(
    out: &mut Vec<(u32, f64)>,
    announced: &DistanceMatrix,
    wiring: &Wiring,
    i: NodeId,
    alive: &[bool],
) {
    out.clear();
    if alive[i.index()] {
        let links = wiring.of(i).iter().filter(|w| alive[w.index()]);
        out.extend(links.map(|&w| (w.0, announced.get(i, w))));
    }
}

impl EpochSnapshot {
    /// Make `G−i` the snapshot's all-pairs state: write the repaired
    /// pool rows (every source that routed through `i`) back over their
    /// snapshot rows — every other row already *is* its post-removal
    /// state — and leave row `i` reaching nothing but itself.
    fn adopt_residual<A: PathAlgebra>(
        &mut self,
        i: usize,
        pool_rows: &[u32],
        pool_dist: &[f64],
        pool_parent: &[u32],
    ) {
        let n = self.apsp.n;
        for (slot, &s) in pool_rows.iter().enumerate() {
            let src = slot * n;
            let dst = s as usize * n;
            self.apsp.dist[dst..dst + n].copy_from_slice(&pool_dist[src..src + n]);
            self.apsp.parent[dst..dst + n].copy_from_slice(&pool_parent[src..src + n]);
        }
        let lo = i * n;
        self.apsp.dist[lo..lo + n].fill(A::UNREACHED);
        self.apsp.dist[lo + i] = A::SOURCE;
        self.apsp.parent[lo..lo + n].fill(NO_PARENT);
    }
}

impl RouteState {
    /// An empty engine (no snapshot yet).
    pub fn new() -> Self {
        RouteState {
            snap: None,
            cause: RebuildCause::Underlay,
            ws: DijkstraWorkspace::new(0),
            row_slot: Vec::new(),
            pool_dist: Vec::new(),
            pool_parent: Vec::new(),
            pool_rows: Vec::new(),
            self_row: Vec::new(),
            residual_for: None,
            child_head: Vec::new(),
            child_next: Vec::new(),
            affected: Vec::new(),
            edges: Vec::new(),
            in_links: Vec::new(),
            seeds: Vec::new(),
            stats: RouteStats::default(),
            obs: RouteObs::resolve(),
        }
    }

    /// Drop the snapshot; the next turn rebuilds from scratch. For
    /// changes to announced costs — edge changes are deltas
    /// ([`Self::note_rewire`], [`Self::note_leave`], [`Self::note_join`]).
    ///
    /// The rebuild is charged to `cause`, except that an underlay advance
    /// outranks feedback: a rebuild is feedback's only when no advance
    /// would have forced it anyway.
    pub fn invalidate(&mut self, cause: RebuildCause) {
        if self.snap.is_some() || cause == RebuildCause::Underlay {
            self.cause = cause;
        }
        self.snap = None;
        self.residual_for = None;
    }

    /// The live snapshot, if any.
    pub fn snapshot(&self) -> Option<&EpochSnapshot> {
        self.snap.as_ref()
    }

    /// Install a fresh snapshot for `overlay` (the full current wiring
    /// on announced costs).
    pub fn rebuild(
        &mut self,
        kind: SnapshotKind,
        announced: DistanceMatrix,
        penalty: f64,
        alive: Vec<bool>,
        overlay: &DiGraph,
    ) {
        let csr = CsrGraph::from_digraph(overlay);
        let rev = csr.reversed();
        let apsp = match kind {
            SnapshotKind::Additive => all_pairs::<MinPlus>(&csr),
            SnapshotKind::Widest => all_pairs::<MaxMin>(&csr),
        };
        self.stats.rebuilds += 1;
        self.obs.rebuilds.inc();
        match self.cause {
            RebuildCause::Underlay => self.obs.rebuilds_underlay.inc(),
            RebuildCause::Feedback => self.obs.rebuilds_feedback.inc(),
        }
        self.residual_for = None;
        self.snap = Some(EpochSnapshot {
            kind,
            announced,
            penalty,
            alive,
            csr,
            rev,
            apsp,
        });
    }

    /// The residual view for the turn node `i` — pairwise distances (or
    /// widths) over `G−i`, bit-identical to a from-scratch all-pairs run
    /// on the residual graph, without materializing it.
    ///
    /// Affected rows (sources whose shortest-path tree routes through
    /// `i`) are copied into the side pool and repaired on `i`'s tree
    /// descendants only; every other row is borrowed from the snapshot
    /// zero-copy. The pool is retained together with its parents so
    /// [`Self::note_rewire`] can write the post-removal rows back in
    /// place on a commit.
    ///
    /// # Panics
    /// Panics when no snapshot is live; callers must `rebuild` first.
    pub fn residual(&mut self, i: usize) -> ResidualView<'_> {
        let timer = self.obs.residual.clone();
        let span = timer.start();
        let live = self.snap.as_ref().expect("route snapshot must be live");
        let swept = match live.kind {
            SnapshotKind::Additive => self.repair_residual::<MinPlus>(i),
            SnapshotKind::Widest => self.repair_residual::<MaxMin>(i),
        };
        drop(span);
        let snap = self.snap.as_ref().expect("still live");
        let borrowed = snap.apsp.n - 1 - swept;
        self.stats.residual_swept += swept;
        self.stats.residual_borrowed += borrowed;
        self.obs.residual_swept.add(swept as u64);
        self.obs.residual_borrowed.add(borrowed as u64);
        ResidualView::cow(CowResidual {
            n: snap.apsp.n,
            node: i,
            snap: &snap.apsp.dist,
            slot: &self.row_slot,
            pool: &self.pool_dist,
            self_row: &self.self_row,
        })
    }

    /// Fill the side pool, slot table and self row of `G−i` on the
    /// snapshot's algebra; returns how many rows had to be repaired
    /// (every other source's row is exact as it stands).
    fn repair_residual<A: PathAlgebra>(&mut self, i: usize) -> usize {
        let snap = self.snap.as_ref().expect("route snapshot must be live");
        let n = snap.apsp.n;
        self.row_slot.clear();
        self.row_slot.resize(n, NO_SLOT);
        self.pool_rows.clear();
        // Source `i` keeps no out-links in `G−i`.
        self.self_row.clear();
        self.self_row.resize(n, A::UNREACHED);
        self.self_row[i] = A::SOURCE;
        let iu = i as u32;
        for s in 0..n {
            if s == i || !snap.apsp.routes_through(s, iu) {
                continue;
            }
            let slot = self.pool_rows.len();
            let lo = slot * n;
            if self.pool_dist.len() < lo + n {
                self.pool_dist.resize(lo + n, f64::INFINITY);
                self.pool_parent.resize(lo + n, NO_PARENT);
            }
            let row = &mut self.pool_dist[lo..lo + n];
            let prow = &mut self.pool_parent[lo..lo + n];
            row.copy_from_slice(snap.apsp.dist_row(s));
            prow.copy_from_slice(snap.apsp.parent_row(s));
            tree_descendants(
                prow,
                iu,
                &mut self.child_head,
                &mut self.child_next,
                &mut self.affected,
            );
            self.ws
                .repair_removal::<A>(&snap.csr, &snap.rev, iu, &self.affected, row, prow);
            self.row_slot[s] = slot as u32;
            self.pool_rows.push(s as u32);
        }
        self.residual_for = Some(i);
        self.pool_rows.len()
    }

    /// Absorb node `i`'s committed re-wiring into the live snapshot, if
    /// any.
    ///
    /// The fast path reuses the residual pool [`Self::residual`] just
    /// computed for this very turn: the repaired pool rows *are* the
    /// post-removal distances of every affected source, and every
    /// unaffected row already equals its post-removal state (its tree
    /// avoids `i`'s out-links), so the absorb writes the pool rows back
    /// over their snapshot rows in place and then propagates only the
    /// inserted out-links of `i` (one insertion repair per source). The
    /// snapshot CSR is patched on `i`'s out-edge slice only; no buffer is
    /// reallocated or swapped.
    pub fn note_rewire(&mut self, i: NodeId, old: &[NodeId], wiring: &Wiring, alive: &[bool]) {
        match self.snap.as_ref().map(|snap| snap.kind) {
            None => {}
            Some(SnapshotKind::Additive) => self.absorb::<MinPlus>(i, old, wiring, alive),
            Some(SnapshotKind::Widest) => self.absorb::<MaxMin>(i, old, wiring, alive),
        }
    }

    /// [`Self::note_rewire`] on the live snapshot's algebra.
    fn absorb<A: PathAlgebra>(
        &mut self,
        i: NodeId,
        old: &[NodeId],
        wiring: &Wiring,
        alive: &[bool],
    ) {
        let snap = self.snap.as_mut().expect("dispatched on a live snapshot");
        let new = wiring.of(i);
        // Wirings hold no duplicates, so set equality of the alive links
        // is containment both ways.
        let live = |w: &&NodeId| alive[w.index()];
        let unchanged = old.iter().filter(live).all(|w| new.contains(w))
            && new.iter().filter(live).all(|w| old.contains(w));
        if unchanged {
            return;
        }
        let _span = self.obs.absorb.start();
        let (swept0, repaired0) = (self.stats.rewire_swept, self.stats.rewire_repaired);
        // Patch the CSR topology on node `i`'s slice only — every other
        // node's adjacency is unchanged since the snapshot was built or
        // last patched (by a re-wiring or a membership delta).
        alive_edges(&mut self.edges, &snap.announced, wiring, i, alive);
        snap.csr.rewrite_out_edges(i.index(), &self.edges);
        snap.csr.reverse_into(&mut snap.rev);
        let n = snap.apsp.n;
        let adopt_pool = self.residual_for.take() == Some(i.index());
        if adopt_pool {
            // Adopt the retained `G−i` pool: write the post-removal rows
            // back in place; `i`'s new out-links go in everywhere below.
            snap.adopt_residual::<A>(
                i.index(),
                &self.pool_rows,
                &self.pool_dist,
                &self.pool_parent,
            );
        }
        for s in 0..n {
            let lo = s * n;
            let dist = &mut snap.apsp.dist[lo..lo + n];
            let parent = &mut snap.apsp.parent[lo..lo + n];
            // Without a retained residual for `i`, a source that routed
            // through one of its old out-links is re-swept instead.
            let tree_lost = |w: &NodeId| alive[w.index()] && parent[w.index()] == i.0;
            if !adopt_pool && (s == i.index() || old.iter().any(tree_lost)) {
                self.ws
                    .sweep::<A>(&snap.csr, s as u32, Sweep::default(), dist, parent);
                self.stats.rewire_swept += 1;
                continue;
            }
            // Insert `i`'s new out-links into the row. `d(s, i)` is
            // invariant under changes to `i`'s out-links (a simple path
            // to `i` uses none of them), so the row's current value seeds
            // the insertion exactly; for `i` itself it is `A::SOURCE`.
            let via = dist[i.index()];
            if A::better(via, A::UNREACHED) {
                self.seeds.clear();
                let heads = self.edges.iter();
                self.seeds
                    .extend(heads.map(|&(w, c)| (w, A::extend(via, c), i.0)));
                self.ws
                    .repair_insertion::<A>(&snap.csr, &self.seeds, dist, parent);
            }
            self.stats.rewire_repaired += 1;
        }
        self.obs
            .rewire_swept
            .add((self.stats.rewire_swept - swept0) as u64);
        self.obs
            .rewire_repaired
            .add((self.stats.rewire_repaired - repaired0) as u64);
    }

    /// Node `x` left the overlay: drop its out- and in-edges from the
    /// live snapshot, if any, keeping the all-pairs state exact.
    ///
    /// Removing `x`'s out-edges is the turn residual `G−x` made
    /// permanent — the rows routed through `x` are repaired into the
    /// pool and adopted, exactly as a committed re-wiring to no links
    /// would. After that `x` is a leaf of every shortest-path tree, so
    /// removing its in-edges can change no entry but column `x` itself,
    /// which becomes unreachable. The CSR is patched on `x`'s slice and
    /// on its in-neighbours' slices.
    pub fn note_leave(&mut self, x: NodeId) {
        match self.snap.as_ref().map(|snap| snap.kind) {
            None => return,
            Some(SnapshotKind::Additive) => self.absorb_leave::<MinPlus>(x),
            Some(SnapshotKind::Widest) => self.absorb_leave::<MaxMin>(x),
        }
        self.stats.leaves += 1;
        self.obs.leaves.inc();
    }

    /// [`Self::note_leave`] on the live snapshot's algebra.
    fn absorb_leave<A: PathAlgebra>(&mut self, x: NodeId) {
        let xi = x.index();
        self.repair_residual::<A>(xi);
        self.residual_for = None;
        let snap = self.snap.as_mut().expect("dispatched on a live snapshot");
        snap.adopt_residual::<A>(xi, &self.pool_rows, &self.pool_dist, &self.pool_parent);
        let n = snap.apsp.n;
        for s in (0..n).filter(|&s| s != xi) {
            snap.apsp.dist[s * n + xi] = A::UNREACHED;
            snap.apsp.parent[s * n + xi] = NO_PARENT;
        }
        self.in_links.clear();
        self.in_links.extend_from_slice(snap.rev.out(xi).0);
        snap.csr.rewrite_out_edges(xi, &[]);
        for &w in &self.in_links {
            let (heads, costs) = snap.csr.out(w as usize);
            let kept = heads.iter().zip(costs).filter(|(&t, _)| t != x.0);
            self.edges.clear();
            self.edges.extend(kept.map(|(&t, &c)| (t, c)));
            snap.csr.rewrite_out_edges(w as usize, &self.edges);
        }
        snap.csr.reverse_into(&mut snap.rev);
        snap.alive[xi] = false;
        self.audit_sampled_row::<A>();
    }

    /// Node `x` (re)joined the overlay: `alive` already says so, and
    /// `wiring` still holds the stale in-links `w → x` that other nodes
    /// kept through its down period. Put them back into the live
    /// snapshot, if any: the in-neighbours' CSR slices are rewritten in
    /// [`Wiring::to_graph`] order, and every row takes one insertion
    /// repair seeded at `x` with the best of those links. The joiner
    /// itself comes back unwired (a leave clears its wiring); its own
    /// out-links arrive through [`Self::note_rewire`] at its first turn.
    pub fn note_join(&mut self, x: NodeId, wiring: &Wiring, alive: &[bool]) {
        debug_assert!(alive[x.index()], "note_join of a node that is not alive");
        debug_assert!(
            wiring.of(x).iter().all(|w| !alive[w.index()]),
            "a joiner's out-links go through note_rewire"
        );
        match self.snap.as_ref().map(|snap| snap.kind) {
            None => return,
            Some(SnapshotKind::Additive) => self.absorb_join::<MinPlus>(x, wiring, alive),
            Some(SnapshotKind::Widest) => self.absorb_join::<MaxMin>(x, wiring, alive),
        }
        self.stats.joins += 1;
        self.obs.joins.inc();
    }

    /// [`Self::note_join`] on the live snapshot's algebra.
    fn absorb_join<A: PathAlgebra>(&mut self, x: NodeId, wiring: &Wiring, alive: &[bool]) {
        let snap = self.snap.as_mut().expect("dispatched on a live snapshot");
        let (n, xi) = (snap.apsp.n, x.index());
        self.residual_for = None;
        self.in_links.clear();
        for w in (0..n).filter(|&w| alive[w] && w != xi) {
            let w = NodeId::from_index(w);
            if wiring.of(w).contains(&x) {
                alive_edges(&mut self.edges, &snap.announced, wiring, w, alive);
                snap.csr.rewrite_out_edges(w.index(), &self.edges);
                self.in_links.push(w.0);
            }
        }
        snap.csr.reverse_into(&mut snap.rev);
        snap.alive[xi] = true;
        for s in (0..n).filter(|&s| s != xi) {
            let lo = s * n;
            let dist = &mut snap.apsp.dist[lo..lo + n];
            let parent = &mut snap.apsp.parent[lo..lo + n];
            self.seeds.clear();
            for &w in &self.in_links {
                let link = snap.announced.get(NodeId(w), x);
                self.seeds.push((x.0, A::extend(dist[w as usize], link), w));
            }
            self.ws
                .repair_insertion::<A>(&snap.csr, &self.seeds, dist, parent);
        }
        self.audit_sampled_row::<A>();
    }

    /// ROADMAP 5.2 at run time: a patched snapshot equals a rebuilt one
    /// on a sampled row. Debug builds re-sweep one source per membership
    /// delta (rotating with the delta count) and demand the snapshot's
    /// row bit for bit; release builds compile this to nothing.
    fn audit_sampled_row<A: PathAlgebra>(&mut self) {
        #[cfg(debug_assertions)]
        {
            let snap = self.snap.as_ref().expect("audited after a delta");
            let n = snap.apsp.n;
            let s = (self.stats.leaves + self.stats.joins) % n;
            let (mut dist, mut parent) = (vec![A::UNREACHED; n], vec![NO_PARENT; n]);
            self.ws.sweep::<A>(
                &snap.csr,
                s as u32,
                Sweep::default(),
                &mut dist,
                &mut parent,
            );
            for (t, (patched, swept)) in snap.apsp.dist_row(s).iter().zip(&dist).enumerate() {
                assert_eq!(
                    patched.to_bits(),
                    swept.to_bits(),
                    "membership delta left row {s} stale at column {t}: {patched} vs {swept}"
                );
            }
        }
    }
}

impl Default for RouteState {
    fn default() -> Self {
        Self::new()
    }
}

/// Test oracle: is the live snapshot what [`RouteState::rebuild`] would
/// build for `wiring` over `alive`? Both CSRs slice by slice, every
/// distance bit, and parents that form a tree of tight edges (they may
/// differ from a rebuild's among equal-valued paths, so they are checked
/// for validity, not equality).
#[cfg(test)]
impl RouteState {
    pub(crate) fn check_against_rebuild(
        &self,
        wiring: &Wiring,
        alive: &[bool],
    ) -> Result<(), String> {
        let snap = self.snapshot().ok_or("no live snapshot")?;
        match snap.kind {
            SnapshotKind::Additive => snap.check_against_rebuild::<MinPlus>(wiring, alive),
            SnapshotKind::Widest => snap.check_against_rebuild::<MaxMin>(wiring, alive),
        }
    }
}

#[cfg(test)]
impl EpochSnapshot {
    fn check_against_rebuild<A: PathAlgebra>(
        &self,
        wiring: &Wiring,
        alive: &[bool],
    ) -> Result<(), String> {
        if self.alive != alive {
            return Err("alive mask differs".into());
        }
        let csr = CsrGraph::from_digraph(&wiring.to_graph(&self.announced, alive));
        let rev = csr.reversed();
        let n = csr.len();
        for u in 0..n {
            if self.csr.out(u) != csr.out(u) {
                return Err(format!("out-edges of {u}: {:?}", self.csr.out(u)));
            }
            if self.rev.out(u) != rev.out(u) {
                return Err(format!("in-edges of {u}: {:?}", self.rev.out(u)));
            }
        }
        let truth = all_pairs::<A>(&csr);
        for s in 0..n {
            let (dist, parent) = (self.apsp.dist_row(s), self.apsp.parent_row(s));
            for v in 0..n {
                if dist[v].to_bits() != truth.dist[s * n + v].to_bits() {
                    let want = truth.dist[s * n + v];
                    return Err(format!("dist({s},{v}) = {} but rebuilt {want}", dist[v]));
                }
                if parent[v] == NO_PARENT {
                    if v != s && dist[v].to_bits() != A::UNREACHED.to_bits() {
                        return Err(format!("({s},{v}) reached without a parent"));
                    }
                    continue;
                }
                let p = parent[v] as usize;
                let (heads, costs) = csr.out(p);
                let tight = heads.iter().zip(costs).any(|(&t, &c)| {
                    t as usize == v && A::extend(dist[p], c).to_bits() == dist[v].to_bits()
                });
                if !tight {
                    return Err(format!("({s},{v}): parent {p} is not a tight edge"));
                }
                // The chain of parents must end at the source.
                let mut at = v;
                for _ in 0..n {
                    if parent[at] == NO_PARENT {
                        break;
                    }
                    at = parent[at] as usize;
                }
                if at != s {
                    return Err(format!("({s},{v}): parent chain ends at {at}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::disconnection_penalty;
    use egoist_graph::apsp::apsp;
    use egoist_graph::csr::apsp_csr;
    use egoist_netsim::delay::{DelayConfig, DelayModel};
    use egoist_netsim::{PlanetLabSpec, Region};

    fn setup(n: usize, k: usize, seed: u64) -> (DistanceMatrix, Wiring, Vec<bool>) {
        let d = DelayModel::from_spec(
            &PlanetLabSpec::uniform(Region::NorthAmerica, n),
            &DelayConfig::default(),
            seed,
        )
        .base()
        .clone();
        let mut w = Wiring::empty(n);
        for i in 0..n {
            let mut neigh = Vec::new();
            for o in 1..=k {
                neigh.push(NodeId::from_index((i + o * 3 + seed as usize) % n));
            }
            neigh.retain(|x| x.index() != i);
            w.rewire(NodeId::from_index(i), neigh);
        }
        (d, w, vec![true; n])
    }

    fn fresh_state(
        kind: SnapshotKind,
        d: &DistanceMatrix,
        w: &Wiring,
        alive: &[bool],
    ) -> RouteState {
        let mut rs = RouteState::new();
        rs.rebuild(
            kind,
            d.clone(),
            disconnection_penalty(d),
            alive.to_vec(),
            &w.to_graph(d, alive),
        );
        rs
    }

    #[test]
    fn residual_matches_from_scratch_apsp() {
        let (d, w, alive) = setup(24, 3, 1);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        for i in [0usize, 7, 23] {
            let oracle = apsp(&w.residual_graph(NodeId::from_index(i), &d, &alive));
            let got = rs.residual(i);
            for s in 0..24 {
                for t in 0..24 {
                    assert_eq!(
                        oracle.at(s, t).to_bits(),
                        got.at(s, t).to_bits(),
                        "residual({i}) mismatch at ({s},{t})"
                    );
                }
            }
        }
        assert!(rs.stats.residual_borrowed > 0, "some rows must be borrowed");
    }

    #[test]
    fn residual_widest_matches_all_pairs_widest() {
        let (d, w, alive) = setup(20, 3, 2);
        let mut rs = fresh_state(SnapshotKind::Widest, &d, &w, &alive);
        for i in [0usize, 9, 19] {
            let oracle = crate::policies::bandwidth::all_pairs_widest(&w.residual_graph(
                NodeId::from_index(i),
                &d,
                &alive,
            ));
            let got = rs.residual(i);
            for s in 0..20 {
                for t in 0..20 {
                    assert_eq!(
                        oracle.at(s, t).to_bits(),
                        got.at(s, t).to_bits(),
                        "widest residual({i}) mismatch at ({s},{t})"
                    );
                }
            }
        }
    }

    #[test]
    fn note_rewire_keeps_apsp_exact() {
        let (d, mut w, alive) = setup(26, 3, 3);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        // A chain of re-wirings: replace, shrink, grow.
        let moves: Vec<(usize, Vec<usize>)> = vec![
            (4, vec![1, 9, 17]),
            (4, vec![1]),
            (11, vec![4, 5, 6, 7]),
            (0, vec![25]),
        ];
        for (node, links) in moves {
            let i = NodeId::from_index(node);
            let old = w.of(i).to_vec();
            w.rewire(i, links.into_iter().map(NodeId::from_index).collect());
            rs.note_rewire(i, &old, &w, &alive);
            let truth = apsp_csr(&CsrGraph::from_digraph(&w.to_graph(&d, &alive)));
            let snap = rs.snapshot().unwrap();
            for p in 0..26 * 26 {
                assert_eq!(
                    truth.dist[p].to_bits(),
                    snap.apsp.dist[p].to_bits(),
                    "post-rewire dist drift at {p}"
                );
            }
        }
        assert!(rs.stats.rewire_repaired > 0);
    }

    #[test]
    fn note_rewire_keeps_widest_exact() {
        let (d, mut w, alive) = setup(22, 3, 4);
        let mut rs = fresh_state(SnapshotKind::Widest, &d, &w, &alive);
        for (node, links) in [(2usize, vec![8usize, 14]), (8, vec![2, 3, 4]), (2, vec![9])] {
            let i = NodeId::from_index(node);
            let old = w.of(i).to_vec();
            w.rewire(i, links.into_iter().map(NodeId::from_index).collect());
            rs.note_rewire(i, &old, &w, &alive);
            let truth = all_pairs::<MaxMin>(&CsrGraph::from_digraph(&w.to_graph(&d, &alive)));
            let snap = rs.snapshot().unwrap();
            for p in 0..22 * 22 {
                assert_eq!(
                    truth.dist[p].to_bits(),
                    snap.apsp.dist[p].to_bits(),
                    "post-rewire width drift at {p}"
                );
            }
        }
    }

    #[test]
    fn residual_after_rewire_still_matches_oracle() {
        let (d, mut w, alive) = setup(18, 3, 5);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        let i = NodeId(6);
        let old = w.of(i).to_vec();
        w.rewire(i, vec![NodeId(1), NodeId(2)]);
        rs.note_rewire(i, &old, &w, &alive);
        for probe in [0usize, 6, 17] {
            let oracle = apsp(&w.residual_graph(NodeId::from_index(probe), &d, &alive));
            let got = rs.residual(probe);
            for s in 0..18 {
                for t in 0..18 {
                    assert_eq!(oracle.at(s, t).to_bits(), got.at(s, t).to_bits());
                }
            }
        }
    }

    #[test]
    fn invalidate_drops_snapshot() {
        let (d, w, alive) = setup(10, 2, 6);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        assert_eq!(rs.snapshot().map(|s| s.kind), Some(SnapshotKind::Additive));
        rs.invalidate(RebuildCause::Underlay);
        assert!(rs.snapshot().is_none());
    }

    #[test]
    fn dead_targets_ignored_in_rewire_delta() {
        let (d, mut w, mut alive) = setup(12, 2, 7);
        alive[5] = false;
        // Rebuild over the reduced membership.
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        let i = NodeId(3);
        let old = w.of(i).to_vec();
        // New wiring includes the dead node 5 — the alive filter must
        // keep it out of the delta and the graph alike.
        w.rewire(i, vec![NodeId(5), NodeId(7)]);
        rs.note_rewire(i, &old, &w, &alive);
        let truth = apsp_csr(&CsrGraph::from_digraph(&w.to_graph(&d, &alive)));
        let snap = rs.snapshot().unwrap();
        for p in 0..12 * 12 {
            assert_eq!(truth.dist[p].to_bits(), snap.apsp.dist[p].to_bits());
        }
    }

    /// The simulator's churn handling, step for step.
    fn leave(rs: &mut RouteState, w: &mut Wiring, alive: &mut [bool], x: usize) {
        alive[x] = false;
        w.clear(NodeId::from_index(x));
        rs.note_leave(NodeId::from_index(x));
    }

    fn join(rs: &mut RouteState, w: &Wiring, alive: &mut [bool], x: usize) {
        alive[x] = true;
        rs.note_join(NodeId::from_index(x), w, alive);
    }

    fn note_leave_keeps_apsp_exact(kind: SnapshotKind) {
        let (d, mut w, mut alive) = setup(28, 3, 8);
        let mut rs = fresh_state(kind, &d, &w, &alive);
        for x in [4usize, 7, 27, 0] {
            leave(&mut rs, &mut w, &mut alive, x);
            rs.check_against_rebuild(&w, &alive).unwrap();
        }
        assert_eq!((rs.stats.leaves, rs.stats.rebuilds), (4, 1));
        assert_eq!(
            (rs.stats.residual_borrowed, rs.stats.residual_swept),
            (0, 0),
            "membership repairs are not turn residuals"
        );
        // Turn residuals over the shrunken overlay are still exact.
        let oracle = w.residual_graph(NodeId(9), &d, &alive);
        let oracle = match kind {
            SnapshotKind::Additive => apsp(&oracle),
            SnapshotKind::Widest => crate::policies::bandwidth::all_pairs_widest(&oracle),
        };
        let got = rs.residual(9);
        for s in 0..28 {
            for t in 0..28 {
                assert_eq!(oracle.at(s, t).to_bits(), got.at(s, t).to_bits());
            }
        }
    }

    #[test]
    fn note_leave_keeps_apsp_exact_additive() {
        note_leave_keeps_apsp_exact(SnapshotKind::Additive);
    }

    #[test]
    fn note_leave_keeps_apsp_exact_widest() {
        note_leave_keeps_apsp_exact(SnapshotKind::Widest);
    }

    #[test]
    fn join_restores_stale_in_links() {
        for kind in [SnapshotKind::Additive, SnapshotKind::Widest] {
            let (d, mut w, mut alive) = setup(24, 3, 9);
            let x = NodeId(10);
            let in_links = (0..24)
                .filter(|&u| w.of(NodeId::from_index(u)).contains(&x))
                .count();
            assert!(in_links > 0, "the fixture links to node 10");
            let mut rs = fresh_state(kind, &d, &w, &alive);
            leave(&mut rs, &mut w, &mut alive, 10);
            let snap = rs.snapshot().unwrap();
            assert!(snap.rev.out(10).0.is_empty() && !snap.alive[10]);
            join(&mut rs, &w, &mut alive, 10);
            rs.check_against_rebuild(&w, &alive).unwrap();
            let snap = rs.snapshot().unwrap();
            assert_eq!(snap.rev.out(10).0.len(), in_links, "{kind:?}");
            assert!(snap.csr.out(10).0.is_empty(), "a leave clears the wiring");
            assert_eq!((rs.stats.joins, rs.stats.rebuilds), (1, 1));
        }
    }

    #[test]
    fn leave_join_rewire_of_the_same_node() {
        for kind in [SnapshotKind::Additive, SnapshotKind::Widest] {
            let (d, mut w, mut alive) = setup(22, 3, 10);
            let mut rs = fresh_state(kind, &d, &w, &alive);
            let x = NodeId(6);
            leave(&mut rs, &mut w, &mut alive, 6);
            join(&mut rs, &w, &mut alive, 6);
            // First turn back: the residual is taken, then the commit
            // adopts its (empty) pool.
            rs.residual(6);
            w.rewire(x, vec![NodeId(1), NodeId(15), NodeId(20)]);
            rs.note_rewire(x, &[], &w, &alive);
            rs.check_against_rebuild(&w, &alive).unwrap();
            // And a later re-wiring of a neighbour, without a residual.
            let old = w.of(NodeId(3)).to_vec();
            w.rewire(NodeId(3), vec![x, NodeId(12)]);
            rs.note_rewire(NodeId(3), &old, &w, &alive);
            rs.check_against_rebuild(&w, &alive).unwrap();
            assert_eq!(rs.stats.rebuilds, 1, "{kind:?}");
        }
    }

    #[test]
    fn leave_of_a_node_nobody_routes_through() {
        let (d, mut w, mut alive) = setup(16, 2, 11);
        // Node 5 keeps in-links but no out-links: a leaf of every tree.
        w.rewire(NodeId(5), vec![]);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        let before = rs.snapshot().unwrap().apsp.dist.clone();
        leave(&mut rs, &mut w, &mut alive, 5);
        rs.check_against_rebuild(&w, &alive).unwrap();
        let after = &rs.snapshot().unwrap().apsp.dist;
        for (p, (b, a)) in before.iter().zip(after).enumerate() {
            if p % 16 != 5 {
                assert_eq!(b.to_bits(), a.to_bits(), "entry {p} is off column 5");
            }
        }
    }

    #[test]
    fn join_with_zero_in_links() {
        let (d, mut w, mut alive) = setup(14, 2, 12);
        let mut rs = fresh_state(SnapshotKind::Widest, &d, &w, &alive);
        leave(&mut rs, &mut w, &mut alive, 3);
        // Everybody re-wires away from the dead node before it returns.
        for u in 0..14 {
            let i = NodeId::from_index(u);
            if w.of(i).contains(&NodeId(3)) {
                let old = w.of(i).to_vec();
                let links = old.iter().copied().filter(|&t| t != NodeId(3)).collect();
                w.rewire(i, links);
                rs.note_rewire(i, &old, &w, &alive);
            }
        }
        join(&mut rs, &w, &mut alive, 3);
        rs.check_against_rebuild(&w, &alive).unwrap();
        assert!(rs.snapshot().unwrap().rev.out(3).0.is_empty());
    }

    #[test]
    fn any_delta_drops_the_retained_pool() {
        // A turn that does not commit leaves its pool behind; a later
        // re-wiring of the same node must not adopt it once another delta
        // has changed the snapshot underneath.
        let (d, mut w, mut alive) = setup(20, 3, 14);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        rs.residual(2);
        leave(&mut rs, &mut w, &mut alive, 11);
        let old = w.of(NodeId(2)).to_vec();
        w.rewire(NodeId(2), vec![NodeId(0), NodeId(19)]);
        rs.note_rewire(NodeId(2), &old, &w, &alive);
        rs.check_against_rebuild(&w, &alive).unwrap();
        assert!(
            rs.stats.rewire_swept > 0,
            "no pool: lost tree edges re-sweep"
        );
    }

    #[test]
    fn rebuilds_are_charged_to_the_underlay_first() {
        let (d, w, alive) = setup(10, 2, 15);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        assert_eq!(rs.cause, RebuildCause::Underlay, "nothing was ever built");
        rs.invalidate(RebuildCause::Feedback);
        assert_eq!(rs.cause, RebuildCause::Feedback);
        rs.invalidate(RebuildCause::Underlay);
        rs.invalidate(RebuildCause::Feedback);
        assert_eq!(
            rs.cause,
            RebuildCause::Underlay,
            "the advance forces it anyway"
        );
    }
}
