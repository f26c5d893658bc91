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
//!   the underlay advances, membership churns, or an external actor
//!   (traffic feedback) mutates the underlay models.
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

/// Work counters — how much of the engine's traffic the incremental
/// paths absorbed (asserted by tests, reported by the perf bench).
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteStats {
    /// Full snapshot rebuilds (underlay advances, churn, feedback).
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
}

/// Obs handles for the engine, resolved once per [`RouteState`].
/// Wall time goes to the `core.epoch.turn.{residual,absorb}` spans;
/// the work counters mirror [`RouteStats`] into the global registry
/// (batched — one atomic add per `residual`/`note_rewire` call).
struct RouteObs {
    residual: egoist_obs::Timer,
    absorb: egoist_obs::Timer,
    rebuilds: egoist_obs::Counter,
    residual_borrowed: egoist_obs::Counter,
    residual_swept: egoist_obs::Counter,
    rewire_swept: egoist_obs::Counter,
    rewire_repaired: egoist_obs::Counter,
}

impl RouteObs {
    fn resolve() -> Self {
        let r = egoist_obs::registry();
        RouteObs {
            residual: r.timer("core.epoch.turn.residual"),
            absorb: r.timer("core.epoch.turn.absorb"),
            rebuilds: r.counter("core.route.rebuilds"),
            residual_borrowed: r.counter("core.route.residual_borrowed"),
            residual_swept: r.counter("core.route.residual_swept"),
            rewire_swept: r.counter("core.route.rewire_swept"),
            rewire_repaired: r.counter("core.route.rewire_repaired"),
        }
    }
}

/// The engine: an optional live snapshot plus reusable scratch arenas.
pub struct RouteState {
    snap: Option<EpochSnapshot>,
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
    /// Which node the retained pool was computed for.
    residual_for: Option<usize>,
    /// Child-bucket scratch for subtree collection.
    child_head: Vec<u32>,
    child_next: Vec<u32>,
    affected: Vec<u32>,
    pub stats: RouteStats,
    obs: RouteObs,
}

impl RouteState {
    /// An empty engine (no snapshot yet).
    pub fn new() -> Self {
        RouteState {
            snap: None,
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
            stats: RouteStats::default(),
            obs: RouteObs::resolve(),
        }
    }

    /// Drop the snapshot; the next turn rebuilds from scratch.
    pub fn invalidate(&mut self) {
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
        let live = self.snap.as_ref().expect("route snapshot must be live");
        match live.kind {
            SnapshotKind::Additive => self.repair_residual::<MinPlus>(i),
            SnapshotKind::Widest => self.repair_residual::<MaxMin>(i),
        }
        let snap = self.snap.as_ref().expect("still live");
        ResidualView::cow(CowResidual {
            n: snap.apsp.n,
            node: i,
            snap: &snap.apsp.dist,
            slot: &self.row_slot,
            pool: &self.pool_dist,
            self_row: &self.self_row,
        })
    }

    /// Fill the side pool, slot table and self row [`Self::residual`]'s
    /// view reads, on the snapshot's algebra.
    fn repair_residual<A: PathAlgebra>(&mut self, i: usize) {
        let _span = self.obs.residual.start();
        let (borrowed0, swept0) = (self.stats.residual_borrowed, self.stats.residual_swept);
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
            if s == i {
                continue;
            }
            if !snap.apsp.routes_through(s, iu) {
                self.stats.residual_borrowed += 1;
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
            self.stats.residual_swept += 1;
        }
        self.residual_for = Some(i);
        self.obs
            .residual_borrowed
            .add((self.stats.residual_borrowed - borrowed0) as u64);
        self.obs
            .residual_swept
            .add((self.stats.residual_swept - swept0) as u64);
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
        let changed = {
            let mut o: Vec<NodeId> = old.iter().copied().filter(|w| alive[w.index()]).collect();
            o.sort_unstable();
            let mut m: Vec<NodeId> = new.iter().copied().filter(|w| alive[w.index()]).collect();
            m.sort_unstable();
            o != m
        };
        if !changed {
            return;
        }
        let _span = self.obs.absorb.start();
        let (swept0, repaired0) = (self.stats.rewire_swept, self.stats.rewire_repaired);
        // Patch the CSR topology on node `i`'s slice only — every other
        // node's adjacency is unchanged since the snapshot was built (or
        // last patched); churn and external mutation invalidate instead.
        let new_edges: Vec<(u32, f64)> = if alive[i.index()] {
            new.iter()
                .filter(|w| alive[w.index()])
                .map(|w| (w.0, snap.announced.get(i, *w)))
                .collect()
        } else {
            Vec::new()
        };
        snap.csr.rewrite_out_edges(i.index(), &new_edges);
        snap.csr.reverse_into(&mut snap.rev);
        let n = snap.apsp.n;
        let adopt_pool = self.residual_for == Some(i.index());
        if adopt_pool {
            // Adopt the retained `G−i` pool: write the post-removal rows
            // back in place; `i`'s new out-links go in everywhere below.
            for (slot, &s) in self.pool_rows.iter().enumerate() {
                let src = slot * n;
                let dst = s as usize * n;
                snap.apsp.dist[dst..dst + n].copy_from_slice(&self.pool_dist[src..src + n]);
                snap.apsp.parent[dst..dst + n].copy_from_slice(&self.pool_parent[src..src + n]);
            }
            // Row `i` post-removal: nothing but itself is reachable.
            let lo = i.index() * n;
            snap.apsp.dist[lo..lo + n].fill(A::UNREACHED);
            snap.apsp.dist[lo + i.index()] = A::SOURCE;
            snap.apsp.parent[lo..lo + n].fill(NO_PARENT);
            self.residual_for = None;
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
                let seeds: Vec<(u32, f64, u32)> = new_edges
                    .iter()
                    .map(|&(w, c)| (w, A::extend(via, c), i.0))
                    .collect();
                self.ws
                    .repair_insertion::<A>(&snap.csr, &seeds, dist, parent);
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
}

impl Default for RouteState {
    fn default() -> Self {
        Self::new()
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
        rs.invalidate();
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
}
