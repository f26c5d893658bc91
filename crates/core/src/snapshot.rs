//! The epoch route-state engine: one shared snapshot, named residual
//! rows in a side pool, edge deltas repaired in place.
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
//!   best-path-tree parents), built once and invalidated only when
//!   announced costs change on `O(n²)` pairs: the underlay advances, or
//!   an external actor (traffic feedback) mutates the underlay models.
//!   Everything that changes *edges* — a re-wiring, a leave, a join — is
//!   a delta the snapshot absorbs in place.
//! * **A turn repairs the rows it reads** ([`RouteState::residual`]) —
//!   the caller names the sources whose `G−i` rows its policy will read
//!   (the simulator names the §5 shortlist). A named source whose tree
//!   uses none of `i`'s out-links is *borrowed* from the snapshot in
//!   place, and so is one whose torn subtree the removal repair would
//!   keep whole — every head has a tight in-edge from outside it (a
//!   read-only check, [`removal_keeps_all`], that may read the snapshot's
//!   real parent row). Any other is copied into a small side pool and
//!   repaired on the subtrees under those links only. Nothing else is
//!   touched, nothing is written back, and reading a row nobody named
//!   panics.
//!   "Does `s` route through `i`" is `parent_s[w] == i` for the ≤ `k`
//!   heads `w` of `i`'s out-links, and the subtree under them is walked
//!   over CSR out-edges ([`subtree_under`]): a tree child of `v` is an
//!   out-neighbour of `v`.
//! * **A commit repairs the links it changed** ([`RouteState::note_rewire`])
//!   — on the snapshot's own rows, in two exact steps. *Dropped* links
//!   first: every source whose tree uses one gets a removal repair on
//!   the subtrees under those heads only, regrown as if the dropped
//!   links were gone and the kept ones still there — a subtree hanging
//!   under a kept link is never torn down. Then the *added* links: `i`'s
//!   CSR slice becomes the new wiring and every row takes one insertion
//!   repair seeded at the added heads with `d(s, i) ⊗ c(i, w)`. There is
//!   one path whether or not a residual preceded the commit; the pool is
//!   never adopted.
//! * **Membership deltas** — announced costs and the penalty do not
//!   depend on who is alive, so churn is two more edge deltas built from
//!   the same primitives. A *leave* of `x` ([`RouteState::note_leave`])
//!   is the same removal with every out-link of `x` dropped; with no
//!   out-edges `x` is a leaf of every tree, so dropping its in-edges
//!   changes nothing but column `x`. A *join*
//!   ([`RouteState::note_join`]) re-inserts the stale in-links `w → x`
//!   that survived the down period in the other nodes' wirings: one
//!   insertion repair per row, seeded at `x`. The joiner's own out-links
//!   arrive through the ordinary re-wiring repair at its first turn.
//!
//! Why this is exact, once. *Borrowing:* a tree that avoids the removed
//! edges survives their removal, and removal can only worsen paths, so
//! the row's optima are unchanged — bit for bit, since equal path optima
//! are equal `f64`s. *Removal:* the vertices whose tree path uses a
//! removed edge are exactly the subtrees under the removed tree edges'
//! heads; everything else keeps its value by the borrow argument. Inside
//! them, a vertex with an uncut in-edge whose offer equals its value, from
//! a vertex that kept its own, keeps it too — that path survives and
//! removal only worsens — and the repair re-derives only the rest from
//! their frontier in-edges on the reduced graph, which is what a sweep of
//! that graph computes ([`DijkstraWorkspace::repair_removal`]).
//! *Insertion:* a simple path to `i` uses none of `i`'s out-edges, so
//! `d(s, i)` is invariant under every delta to them and seeds the added
//! links exactly on top of the kept-only state. Distances therefore
//! stay bit-identical to a rebuild (path optima do not depend on the
//! order edges were offered in); parents may differ from a rebuild's
//! among equal-valued paths, which every argument above allows — any
//! valid tree will do.
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

use crate::residual::{ResidualArena, ResidualView};
use crate::wiring::Wiring;
use egoist_graph::csr::{
    all_pairs, removal_keeps_all, subtree_under, MaxMin, MinPlus, PathAlgebra, NO_PARENT,
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
    /// All-pairs distances/widths and best-path-tree parents over
    /// `csr`, kept exact across the in-place deltas.
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
    /// Named residual rows repaired into the pool because the source's
    /// tree used one of the turn node's out-links and not every vertex
    /// under them had a tie to keep its value.
    pub residual_swept: usize,
    /// Named residual rows served zero-copy from the snapshot: named
    /// minus swept. Rows nobody named are neither.
    pub residual_borrowed: usize,
    /// Always 0: a commit repairs rows in place and never re-sweeps one.
    pub rewire_swept: usize,
    /// Rows a committed re-wiring inserted its added links into.
    pub rewire_repaired: usize,
    /// Departures absorbed by [`RouteState::note_leave`].
    pub leaves: usize,
    /// Arrivals absorbed by [`RouteState::note_join`].
    pub joins: usize,
}

/// Obs handles for the engine, resolved once per [`RouteState`].
/// Wall time goes to the `core.epoch.turn.{residual,absorb}` spans;
/// the work counters mirror [`RouteStats`] into the global registry and
/// size the deltas (batched — one atomic add per `residual` /
/// `note_rewire` call). Membership deltas are timed by the simulator's
/// `core.epoch.churn` span and counted in `leaves`/`joins` only: the
/// residual and absorb counters keep meaning "turns" and "commits".
struct RouteObs {
    residual: egoist_obs::Timer,
    absorb: egoist_obs::Timer,
    rebuilds: egoist_obs::Counter,
    rebuilds_underlay: egoist_obs::Counter,
    rebuilds_feedback: egoist_obs::Counter,
    residual_named: egoist_obs::Counter,
    residual_borrowed: egoist_obs::Counter,
    residual_swept: egoist_obs::Counter,
    rewire_repaired: egoist_obs::Counter,
    links_dropped: egoist_obs::Counter,
    links_added: egoist_obs::Counter,
    rows_removed: egoist_obs::Counter,
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
            residual_named: r.counter("core.route.residual_named"),
            residual_borrowed: r.counter("core.route.residual_borrowed"),
            residual_swept: r.counter("core.route.residual_swept"),
            rewire_repaired: r.counter("core.route.rewire_repaired"),
            links_dropped: r.counter("core.absorb.links_dropped"),
            links_added: r.counter("core.absorb.links_added"),
            rows_removed: r.counter("core.absorb.rows_removed"),
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
    /// The turn's named rows: borrowed snapshot rows and the repaired
    /// side pool. Read by the turn's view only.
    rows: ResidualArena,
    /// Where a pool row's repair writes its parents: write-only scratch,
    /// which `repair_removal` never reads.
    pool_tree: Vec<u32>,
    /// Scratch of the removal repairs: the subtrees under one row's
    /// removed tree edges.
    affected: Vec<u32>,
    /// Scratch of the deltas: one node's out-edge slice, the links a
    /// commit adds and drops, the in-neighbours of a churned node, and
    /// one row's insertion seeds.
    edges: Vec<(u32, f64)>,
    added: Vec<(u32, f64)>,
    dropped: Vec<u32>,
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

impl RouteState {
    /// An empty engine (no snapshot yet).
    pub fn new() -> Self {
        RouteState {
            snap: None,
            cause: RebuildCause::Underlay,
            ws: DijkstraWorkspace::new(0),
            rows: ResidualArena::default(),
            pool_tree: Vec::new(),
            affected: Vec::new(),
            edges: Vec::new(),
            added: Vec::new(),
            dropped: Vec::new(),
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

    /// The residual view for the turn node `i` — the rows of `rows` of
    /// the pairwise distances (or widths) over `G−i`, bit-identical to a
    /// from-scratch all-pairs run on the residual graph, without
    /// materializing it.
    ///
    /// A named source whose tree uses one of `i`'s out-links is copied
    /// into the side pool and repaired on the subtrees under those
    /// links, unless the repair would keep every vertex of them; every
    /// other named row is borrowed from the snapshot zero-copy. The
    /// snapshot itself is not touched, and nothing here outlives the
    /// view: a commit repairs the snapshot's own rows.
    /// Reading a row that was not named panics.
    ///
    /// # Panics
    /// Panics when no snapshot is live; callers must `rebuild` first.
    pub fn residual(&mut self, i: usize, rows: &[NodeId]) -> ResidualView<'_> {
        let timer = self.obs.residual.clone();
        let span = timer.start();
        let live = self.snap.as_ref().expect("route snapshot must be live");
        let named = match live.kind {
            SnapshotKind::Additive => self.repair_residual::<MinPlus>(i, rows),
            SnapshotKind::Widest => self.repair_residual::<MaxMin>(i, rows),
        };
        drop(span);
        let swept = self.rows.rows_materialised();
        self.stats.residual_swept += swept;
        self.stats.residual_borrowed += named - swept;
        self.obs.residual_named.add(named as u64);
        self.obs.residual_swept.add(swept as u64);
        self.obs.residual_borrowed.add((named - swept) as u64);
        let snap = self.snap.as_ref().expect("still live");
        self.rows.view(i, &snap.apsp.dist)
    }

    /// Name the rows of `G−i` on the snapshot's algebra: borrow each one
    /// that is exact as it stands, repair every other into the pool.
    /// Returns how many distinct rows were named.
    fn repair_residual<A: PathAlgebra>(&mut self, i: usize, rows: &[NodeId]) -> usize {
        let snap = self.snap.as_ref().expect("route snapshot must be live");
        let n = snap.apsp.n;
        self.rows.clear(n);
        self.pool_tree.resize(n, NO_PARENT);
        let (iu, links) = (i as u32, snap.csr.out(i).0);
        let mut named = 0;
        for s in rows.iter().map(|s| s.index()) {
            if self.rows.named(s) {
                continue;
            }
            named += 1;
            let (affected, tree) = (&mut self.affected, snap.apsp.parent_row(s));
            subtree_under(&snap.csr, tree, iu, links, affected);
            let cut = |u, _| u == iu;
            let dist = snap.apsp.dist_row(s);
            if affected.is_empty() || removal_keeps_all::<A>(&snap.rev, cut, affected, dist, tree) {
                self.rows.borrow(s);
                continue;
            }
            let row = self.rows.pool_row(s, n);
            row.copy_from_slice(dist);
            let (csr, rev, tree) = (&snap.csr, &snap.rev, &mut self.pool_tree);
            self.ws
                .repair_removal::<A>(csr, rev, cut, affected, row, tree);
        }
        named
    }

    /// Absorb node `i`'s committed re-wiring into the live snapshot, if
    /// any, as a link delta against what the snapshot holds for `i`: the
    /// dropped links are removed from the rows whose trees used them,
    /// the added links are inserted into every row, subtrees under kept
    /// links are left alone, and the CSR is patched on `i`'s out-edge
    /// slice only. Whether a [`Self::residual`] preceded the commit makes
    /// no difference.
    pub fn note_rewire(&mut self, i: NodeId, wiring: &Wiring, alive: &[bool]) {
        match self.snap.as_ref().map(|snap| snap.kind) {
            None => {}
            Some(SnapshotKind::Additive) => self.absorb::<MinPlus>(i, wiring, alive),
            Some(SnapshotKind::Widest) => self.absorb::<MaxMin>(i, wiring, alive),
        }
    }

    /// [`Self::note_rewire`] on the live snapshot's algebra.
    fn absorb<A: PathAlgebra>(&mut self, i: NodeId, wiring: &Wiring, alive: &[bool]) {
        let snap = self.snap.as_mut().expect("dispatched on a live snapshot");
        alive_edges(&mut self.edges, &snap.announced, wiring, i, alive);
        // Wirings hold no duplicates: the delta is two set differences.
        let old = snap.csr.out(i.index()).0;
        let stays = |w: &&u32| self.edges.iter().any(|&(t, _)| t == **w);
        self.dropped.clear();
        self.dropped.extend(old.iter().filter(|w| !stays(w)));
        let fresh = self.edges.iter().filter(|(w, _)| !old.contains(w));
        self.added.clear();
        self.added.extend(fresh);
        if self.dropped.is_empty() && self.added.is_empty() {
            return;
        }
        let timer = self.obs.absorb.clone();
        let span = timer.start();
        // The dropped links go first, while the CSR still holds them.
        let removed = snap.remove_links::<A>(i.0, &self.dropped, &mut self.ws, &mut self.affected);
        snap.csr.rewrite_out_edges(i.index(), &self.edges);
        snap.csr.reverse_into(&mut snap.rev);
        // `d(s, i)` is invariant under changes to `i`'s out-links, so each
        // row's current value seeds the insertion exactly; for `i` itself
        // it is `A::SOURCE`.
        let n = snap.apsp.n;
        let rows = if self.added.is_empty() { 0 } else { n };
        for s in 0..rows {
            let dist = &mut snap.apsp.dist[s * n..(s + 1) * n];
            let parent = &mut snap.apsp.parent[s * n..(s + 1) * n];
            let via = dist[i.index()];
            if A::better(via, A::UNREACHED) {
                self.seeds.clear();
                let heads = self.added.iter();
                self.seeds
                    .extend(heads.map(|&(w, c)| (w, A::extend(via, c), i.0)));
                self.ws
                    .repair_insertion::<A>(&snap.csr, &self.seeds, dist, parent);
            }
        }
        self.stats.rewire_repaired += rows;
        self.obs.rewire_repaired.add(rows as u64);
        self.obs.links_dropped.add(self.dropped.len() as u64);
        self.obs.links_added.add(self.added.len() as u64);
        self.obs.rows_removed.add(removed as u64);
        drop(span);
        self.audit_sampled_row::<A>();
    }

    /// Node `x` left the overlay: drop its out- and in-edges from the
    /// live snapshot, if any, keeping the all-pairs state exact.
    ///
    /// This is a commit that drops every out-link of `x` and adds none.
    /// Without out-edges `x` is a leaf of every best-path tree, so
    /// removing its in-edges as well can change no entry but column `x`
    /// itself, which becomes unreachable. The CSR is patched on `x`'s
    /// slice and on its in-neighbours' slices.
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
        let snap = self.snap.as_mut().expect("dispatched on a live snapshot");
        let xi = x.index();
        self.dropped.clear();
        self.dropped.extend_from_slice(snap.csr.out(xi).0);
        // No tree hangs `x` under one of its own out-links, so no repair
        // reads or writes column `x`.
        snap.remove_links::<A>(x.0, &self.dropped, &mut self.ws, &mut self.affected);
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
    /// repair seeded at `x` with the best of those links. The joiner's
    /// own out-links are not read here: they arrive through
    /// [`Self::note_rewire`] — the simulator's at the joiner's first turn
    /// (a leave cleared them), a static game's right after the join.
    pub fn note_join(&mut self, x: NodeId, wiring: &Wiring, alive: &[bool]) {
        debug_assert!(alive[x.index()], "note_join of a node that is not alive");
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

    /// A patched snapshot equals a rebuilt one, checked at run time on a
    /// sampled row: debug builds re-sweep one source after every delta —
    /// commit, leave or join, the row rotating with their count — and
    /// demand the snapshot's row bit for bit. With no pool to fall back
    /// on, this is the net under the in-place repairs; release builds
    /// compile it to nothing.
    fn audit_sampled_row<A: PathAlgebra>(&mut self) {
        #[cfg(debug_assertions)]
        {
            let snap = self.snap.as_ref().expect("audited after a delta");
            let n = snap.apsp.n;
            let stats = &self.stats;
            let s = (stats.leaves + stats.joins + stats.rewire_repaired / n) % n;
            let (mut dist, mut parent) = (vec![A::UNREACHED; n], vec![NO_PARENT; n]);
            let everything = egoist_graph::csr::Sweep::default();
            self.ws
                .sweep::<A>(&snap.csr, s as u32, everything, &mut dist, &mut parent);
            for (t, (patched, swept)) in snap.apsp.dist_row(s).iter().zip(&dist).enumerate() {
                assert_eq!(
                    patched.to_bits(),
                    swept.to_bits(),
                    "a delta left row {s} stale at column {t}: {patched} vs {swept}"
                );
            }
        }
    }
}

impl EpochSnapshot {
    /// The removal half of a delta, run while `csr` and `rev` still hold
    /// the edges `i → w`, `w ∈ dropped`: repair in place every row whose
    /// tree uses one of them (`dropped.len()` compares per source), on
    /// the subtrees under those heads only, as if they were gone.
    /// Returns the rows repaired.
    fn remove_links<A: PathAlgebra>(
        &mut self,
        i: u32,
        dropped: &[u32],
        ws: &mut DijkstraWorkspace,
        affected: &mut Vec<u32>,
    ) -> usize {
        let n = self.apsp.n;
        let cut = |u, v| u == i && dropped.contains(&v);
        let mut removed = 0;
        for s in 0..n {
            let parent = &mut self.apsp.parent[s * n..(s + 1) * n];
            subtree_under(&self.csr, parent, i, dropped, affected);
            if affected.is_empty() {
                continue;
            }
            let dist = &mut self.apsp.dist[s * n..(s + 1) * n];
            ws.repair_removal::<A>(&self.csr, &self.rev, cut, affected, dist, parent);
            removed += 1;
        }
        removed
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
    use egoist_netsim::delay::DelayModel;
    use egoist_netsim::{PlanetLabSpec, Region};

    fn setup(n: usize, k: usize, seed: u64) -> (DistanceMatrix, Wiring, Vec<bool>) {
        let d = DelayModel::from_spec(&PlanetLabSpec::uniform(Region::NorthAmerica, n), seed)
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

    /// Name every row: the tests read the whole view.
    fn everyone(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::from_index).collect()
    }

    #[test]
    fn residual_matches_from_scratch_apsp() {
        let (d, w, alive) = setup(24, 3, 1);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        for i in [0usize, 7, 23] {
            let oracle = apsp(&w.residual_graph(NodeId::from_index(i), &d, &alive));
            let got = rs.residual(i, &everyone(24));
            for s in 0..24 {
                for t in 0..24 {
                    assert_eq!(
                        oracle.at(s, t).to_bits(),
                        got.row(s)[t].to_bits(),
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
            let oracle = crate::policies::bandwidth::oracle::all_pairs_widest(&w.residual_graph(
                NodeId::from_index(i),
                &d,
                &alive,
            ));
            let got = rs.residual(i, &everyone(20));
            for s in 0..20 {
                for t in 0..20 {
                    assert_eq!(
                        oracle.at(s, t).to_bits(),
                        got.row(s)[t].to_bits(),
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
            w.rewire(i, links.into_iter().map(NodeId::from_index).collect());
            rs.note_rewire(i, &w, &alive);
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
            w.rewire(i, links.into_iter().map(NodeId::from_index).collect());
            rs.note_rewire(i, &w, &alive);
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
        w.rewire(i, vec![NodeId(1), NodeId(2)]);
        rs.note_rewire(i, &w, &alive);
        for probe in [0usize, 6, 17] {
            let oracle = apsp(&w.residual_graph(NodeId::from_index(probe), &d, &alive));
            let got = rs.residual(probe, &everyone(18));
            for s in 0..18 {
                for t in 0..18 {
                    assert_eq!(oracle.at(s, t).to_bits(), got.row(s)[t].to_bits());
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
        // New wiring includes the dead node 5 — the alive filter must
        // keep it out of the delta and the graph alike.
        w.rewire(i, vec![NodeId(5), NodeId(7)]);
        rs.note_rewire(i, &w, &alive);
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
            SnapshotKind::Widest => crate::policies::bandwidth::oracle::all_pairs_widest(&oracle),
        };
        let got = rs.residual(9, &everyone(28));
        for s in 0..28 {
            for t in 0..28 {
                assert_eq!(oracle.at(s, t).to_bits(), got.row(s)[t].to_bits());
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
            // First turn back: the residual is taken, then the commit.
            rs.residual(6, &everyone(22));
            w.rewire(x, vec![NodeId(1), NodeId(15), NodeId(20)]);
            rs.note_rewire(x, &w, &alive);
            rs.check_against_rebuild(&w, &alive).unwrap();
            // And a later re-wiring of a neighbour, without a residual.
            w.rewire(NodeId(3), vec![x, NodeId(12)]);
            rs.note_rewire(NodeId(3), &w, &alive);
            rs.check_against_rebuild(&w, &alive).unwrap();
            assert_eq!(rs.stats.rebuilds, 1, "{kind:?}");
        }
    }

    #[test]
    fn leave_of_a_node_nobody_relays_through() {
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
                let links = w.of(i).iter().copied().filter(|&t| t != NodeId(3));
                let links = links.collect();
                w.rewire(i, links);
                rs.note_rewire(i, &w, &alive);
            }
        }
        join(&mut rs, &w, &mut alive, 3);
        rs.check_against_rebuild(&w, &alive).unwrap();
        assert!(rs.snapshot().unwrap().rev.out(3).0.is_empty());
    }

    #[test]
    fn a_commit_needs_no_residual_and_ignores_a_stale_one() {
        for kind in [SnapshotKind::Additive, SnapshotKind::Widest] {
            let (d, mut w, mut alive) = setup(20, 3, 14);
            let mut rs = fresh_state(kind, &d, &w, &alive);
            // A re-wiring nobody took a residual for: one kept link, two
            // dropped, one added.
            let kept = w.of(NodeId(7))[0];
            w.rewire(NodeId(7), vec![kept, NodeId(3)]);
            rs.note_rewire(NodeId(7), &w, &alive);
            rs.check_against_rebuild(&w, &alive).unwrap();
            // A turn that does not commit leaves its pool behind; another
            // delta changes the snapshot underneath; the later re-wiring
            // of the same node repairs the snapshot's own rows.
            rs.residual(2, &everyone(20));
            leave(&mut rs, &mut w, &mut alive, 11);
            rs.check_against_rebuild(&w, &alive).unwrap();
            w.rewire(NodeId(2), vec![NodeId(0), NodeId(19)]);
            rs.note_rewire(NodeId(2), &w, &alive);
            rs.check_against_rebuild(&w, &alive).unwrap();
            assert_eq!(rs.stats.rewire_swept, 0, "{kind:?}: no row is re-swept");
            assert_eq!(rs.stats.rewire_repaired, 2 * 20, "{kind:?}");
        }
    }

    #[test]
    fn every_delta_shape_stays_exact() {
        for kind in [SnapshotKind::Additive, SnapshotKind::Widest] {
            let (d, mut w, alive) = setup(24, 4, 16);
            let mut rs = fresh_state(kind, &d, &w, &alive);
            let i = NodeId(5);
            let old = w.of(i).to_vec();
            let spare: Vec<NodeId> = everyone(24)
                .into_iter()
                .filter(|t| *t != i && !old.contains(t))
                .collect();
            let shapes = [
                vec![old[0], old[1]],                     // dropped only
                vec![old[0], old[1], spare[0], spare[1]], // added only
                vec![old[1], old[0], spare[1], spare[0]], // nothing
                vec![old[0], spare[2], spare[3]],         // kept + dropped + added
                vec![old[2], old[3], spare[4]],           // all replaced
                vec![],                                   // everything dropped
            ];
            for links in shapes {
                w.rewire(i, links.clone());
                rs.note_rewire(i, &w, &alive);
                rs.check_against_rebuild(&w, &alive)
                    .unwrap_or_else(|e| panic!("{kind:?} {links:?}: {e}"));
            }
            assert_eq!(rs.stats.rewire_swept, 0);
        }
    }

    #[test]
    fn only_named_rows_are_counted_and_served() {
        let (d, w, alive) = setup(24, 3, 1);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        // Duplicates name nothing new; the turn node's own row is named
        // like any other.
        let named = [NodeId(3), NodeId(9), NodeId(3), NodeId(7), NodeId(20)];
        let oracle = apsp(&w.residual_graph(NodeId(7), &d, &alive));
        let got = rs.residual(7, &named);
        for s in [3usize, 9, 20, 7] {
            for t in 0..24 {
                assert_eq!(oracle.at(s, t).to_bits(), got.row(s)[t].to_bits());
            }
        }
        let stats = rs.stats;
        assert_eq!(stats.residual_borrowed + stats.residual_swept, 4);
    }

    #[test]
    #[should_panic(expected = "row 4 was not named for node 7")]
    fn reading_an_unnamed_row_panics() {
        let (d, w, alive) = setup(24, 3, 1);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        rs.residual(7, &[NodeId(3), NodeId(9)]).row(4);
    }

    #[test]
    #[should_panic(expected = "row 7 was not named for node 7")]
    fn the_turn_nodes_own_row_is_read_only_when_named() {
        let (d, w, alive) = setup(24, 3, 1);
        let mut rs = fresh_state(SnapshotKind::Additive, &d, &w, &alive);
        rs.residual(7, &[NodeId(3), NodeId(9)]).row(7);
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
