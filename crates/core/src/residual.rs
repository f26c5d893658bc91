//! Zero-copy views over residual (`G−i`) pairwise state.
//!
//! §3.1 only requires the residual distances to be *consultable* — "run
//! an all-pairs shortest path algorithm on `G−i`" names the quantity, not
//! a storage format. The epoch route-state engine therefore stopped
//! materializing a dense per-turn matrix: a [`ResidualView`] lets the
//! policy layer read residual rows wherever they actually live.
//!
//! Three backings exist:
//!
//! * **Dense** — a borrowed [`DistanceMatrix`], used by the `Recompute`
//!   oracle, the sampling experiments and every test that builds
//!   residual state from scratch.
//! * **On demand** — the protocol node's form ([`OnDemandResidual`]): a
//!   node re-wires once per epoch from a graph it has no snapshot of,
//!   and its policy reads only the rows of candidates it has measured.
//!   The job names those rows and one batched, masked multi-source pass
//!   over the announced CSR graph ([`sweep_many`]) fills them; a row it
//!   did not name is one masked Dijkstra the first time it is read, kept
//!   for the rest of the job. A row nobody names or reads is never
//!   computed.
//! * **Copy-on-write** — the epoch engine's form, over the rows the turn
//!   *named* (the sources its policy will read): a named row whose
//!   best-path tree avoids the turn node's out-links borrows the epoch
//!   snapshot's all-pairs row directly; a named row that uses them is a
//!   repaired copy in a small side pool; the turn node's own row is the
//!   fixed "no out-links" pattern. A per-source slot table dispatches
//!   each row read to the right backing in O(1) — and traps a read of a
//!   row nobody named, which would otherwise hand out a snapshot row
//!   that still routes through the turn node.
//!
//! Exactness of the copy-on-write form is argued once, in
//! [`crate::snapshot`]'s module docs (borrowing and the removal
//! repair). The named rows of the view are therefore indistinguishable,
//! bit for bit, from the same rows of `apsp(residual_graph(i))` — pinned
//! by the proptests in this crate and the golden equivalence suite. The
//! on-demand form gets the same guarantee from the mask of
//! [`sweep_many`] and [`DijkstraWorkspace::sssp_into`]: skipping the
//! turn node's out-edges is the sweep over `G−i`, row by row, and the
//! batched pass ends at the same least fixed point as the heap sweep.

use egoist_graph::csr::{sweep_many, MinPlus};
use egoist_graph::{CsrGraph, DijkstraWorkspace, DistanceMatrix, NodeId};
use std::cell::{Cell, OnceCell, RefCell};

/// Sentinel in a slot table: the row has no packed copy — copy-on-write
/// reads it from the snapshot, on demand sweeps it on first read.
pub const NO_SLOT: u32 = u32::MAX;

/// Sentinel in a copy-on-write slot table: the row was not named for
/// this turn, so nobody checked it against the turn node's out-links.
/// Reading it panics.
pub const UNNAMED: u32 = u32::MAX - 1;

/// The copy-on-write backing, borrowed from the route-state engine.
#[derive(Clone, Copy)]
pub struct CowResidual<'a> {
    /// Node count (rows are length `n`).
    pub n: usize,
    /// The turn node `i` whose out-links are removed.
    pub node: usize,
    /// The snapshot's packed all-pairs rows (`n × n`, row-major).
    pub snap: &'a [f64],
    /// Per-source dispatch: [`NO_SLOT`] borrows the snapshot row,
    /// [`UNNAMED`] traps, anything else indexes a pool row.
    pub slot: &'a [u32],
    /// Repaired rows, packed by slot (`slots × n`, row-major).
    pub pool: &'a [f64],
    /// The turn node's own residual row (no out-links survive).
    pub self_row: &'a [f64],
}

/// The on-demand backing: rows of `apsp(G−node)` over a CSR graph.
///
/// One instance serves one re-wiring job. The rows the job is known to
/// read ([`Self::with_rows_in`]) are filled up front by one batched
/// [`sweep_many`] pass into one packed block; any other row is one
/// masked single-source sweep on its first read, kept until the instance
/// is dropped. There is no `n × n` matrix behind it — memory is the rows
/// that were computed.
pub struct OnDemandResidual<'g> {
    g: &'g CsrGraph,
    node: u32,
    /// Per source: its row in `batch`, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// The announced sources, in slot order.
    sources: Vec<u32>,
    /// The announced rows, packed by slot (`slots × n`, row-major).
    batch: Vec<f64>,
    /// Rows nobody announced, swept on first read; the table itself is
    /// allocated by the first such read.
    lazy: OnceCell<Box<[LazyRow]>>,
    /// The batched pass's workspace, then the lazy sweeps' (with their
    /// parent row).
    scratch: RefCell<(DijkstraWorkspace, Vec<u32>)>,
    computed: Cell<usize>,
}

/// A row nobody announced: swept on its first read.
type LazyRow = OnceCell<Box<[f64]>>;

/// The storage behind an [`OnDemandResidual`]: its slot table, packed
/// rows and sweep workspace. A caller that builds one residual after
/// another keeps one arena and recycles it
/// ([`OnDemandResidual::with_rows_in`], [`OnDemandResidual::recycle`]),
/// so a warm job allocates no rows; contents never survive a fill, so
/// reuse cannot change a row.
#[derive(Default)]
pub struct ResidualArena {
    slot: Vec<u32>,
    sources: Vec<u32>,
    batch: Vec<f64>,
    ws: DijkstraWorkspace,
    parent: Vec<u32>,
    materialised: usize,
}

impl ResidualArena {
    /// Rows the residual last recycled into this arena computed.
    pub fn rows_materialised(&self) -> usize {
        self.materialised
    }
}

impl<'g> OnDemandResidual<'g> {
    /// Residual rows of `g` minus `node`'s out-edges, with the rows of
    /// `sources` computed now, all in one batched pass, into `arena`'s
    /// recycled storage — for a caller that knows which rows its reader
    /// will ask for. Bit for bit the rows a first read would have swept;
    /// reading a row not named here still works, one sweep each. Call
    /// [`Self::recycle`] when done to hand the storage back.
    pub fn with_rows_in(
        g: &'g CsrGraph,
        node: NodeId,
        sources: impl IntoIterator<Item = NodeId>,
        arena: &mut ResidualArena,
    ) -> Self {
        let n = g.len();
        let ResidualArena {
            mut slot,
            sources: mut distinct,
            mut batch,
            mut ws,
            parent,
            materialised: _,
        } = std::mem::take(arena);
        slot.clear();
        slot.resize(n, NO_SLOT);
        distinct.clear();
        for s in sources {
            if slot[s.index()] == NO_SLOT {
                slot[s.index()] = distinct.len() as u32;
                distinct.push(s.0);
            }
        }
        // No clear: the pass writes every cell.
        batch.resize(distinct.len() * n, 0.0);
        sweep_many::<MinPlus>(&mut ws, g, &distinct, Some(node.0), &mut batch);
        OnDemandResidual {
            g,
            node: node.0,
            slot,
            computed: Cell::new(distinct.len()),
            sources: distinct,
            batch,
            lazy: OnceCell::new(),
            scratch: RefCell::new((ws, parent)),
        }
    }

    /// Return the storage to `arena` for the next residual.
    pub fn recycle(self, arena: &mut ResidualArena) {
        let (ws, parent) = self.scratch.into_inner();
        *arena = ResidualArena {
            slot: self.slot,
            sources: self.sources,
            batch: self.batch,
            ws,
            parent,
            materialised: self.computed.get(),
        };
    }

    fn row(&self, s: usize) -> &[f64] {
        let n = self.g.len();
        match self.slot[s] {
            NO_SLOT => {
                let lazy = self
                    .lazy
                    .get_or_init(|| (0..n).map(|_| OnceCell::new()).collect());
                lazy[s].get_or_init(|| {
                    let mut dist = vec![0.0; n].into_boxed_slice();
                    let (ws, parent) = &mut *self.scratch.borrow_mut();
                    parent.resize(n, 0);
                    ws.sssp_into(self.g, s as u32, Some(self.node), &mut dist, parent);
                    self.computed.set(self.computed.get() + 1);
                    dist
                })
            }
            slot => &self.batch[slot as usize * n..][..n],
        }
    }

    /// How many rows have been computed so far, batched or on a read.
    pub fn rows_materialised(&self) -> usize {
        self.computed.get()
    }
}

#[derive(Clone, Copy)]
enum Inner<'a> {
    Dense(&'a DistanceMatrix),
    Cow(CowResidual<'a>),
    OnDemand(&'a OnDemandResidual<'a>),
}

/// A read-only view of pairwise residual state, dense, copy-on-write or
/// on demand.
///
/// Policies consume exactly two access patterns — whole candidate rows
/// ([`ResidualView::row`]) and point probes ([`ResidualView::at`]) — and
/// both cost O(1) dispatch over every backing (plus, on demand, the
/// sweep that fills a row the first time it is read).
#[derive(Clone, Copy)]
pub struct ResidualView<'a> {
    inner: Inner<'a>,
}

impl<'a> ResidualView<'a> {
    /// View over a dense matrix (the from-scratch form).
    pub fn dense(m: &'a DistanceMatrix) -> Self {
        ResidualView {
            inner: Inner::Dense(m),
        }
    }

    /// View over the epoch engine's copy-on-write backing.
    pub fn cow(parts: CowResidual<'a>) -> Self {
        debug_assert_eq!(parts.slot.len(), parts.n);
        debug_assert_eq!(parts.self_row.len(), parts.n);
        debug_assert_eq!(parts.snap.len(), parts.n * parts.n);
        ResidualView {
            inner: Inner::Cow(parts),
        }
    }

    /// View whose rows are computed the first time they are read.
    pub fn on_demand(rows: &'a OnDemandResidual<'a>) -> Self {
        ResidualView {
            inner: Inner::OnDemand(rows),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        match self.inner {
            Inner::Dense(m) => m.len(),
            Inner::Cow(p) => p.n,
            Inner::OnDemand(p) => p.g.len(),
        }
    }

    /// True when the view covers no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row of source `s`: its residual distance (or width) to every node.
    #[inline]
    pub fn row(&self, s: usize) -> &'a [f64] {
        match self.inner {
            Inner::Dense(m) => m.row(s),
            Inner::OnDemand(p) => p.row(s),
            Inner::Cow(p) => {
                if s == p.node {
                    p.self_row
                } else {
                    match p.slot[s] {
                        NO_SLOT => &p.snap[s * p.n..(s + 1) * p.n],
                        UNNAMED => panic!("residual row {s} was not named for node {}", p.node),
                        slot => &p.pool[slot as usize * p.n..(slot as usize + 1) * p.n],
                    }
                }
            }
        }
    }

    /// Point probe by raw indices.
    #[inline]
    pub fn at(&self, s: usize, t: usize) -> f64 {
        self.row(s)[t]
    }

    /// Point probe by node ids.
    #[inline]
    pub fn get(&self, i: NodeId, j: NodeId) -> f64 {
        self.row(i.index())[j.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_view_reads_through() {
        let m = DistanceMatrix::from_fn(4, |i, j| (i * 10 + j) as f64);
        let v = ResidualView::dense(&m);
        assert_eq!(v.len(), 4);
        assert_eq!(v.at(1, 3), 13.0);
        assert_eq!(v.get(NodeId(3), NodeId(1)), 31.0);
        assert_eq!(v.row(2), m.row(2));
    }

    #[test]
    fn cow_view_dispatches_rows() {
        let n = 3;
        // Snapshot rows: row s filled with s; pool slot 0: filled with 9.
        let snap: Vec<f64> = (0..n * n).map(|p| (p / n) as f64).collect();
        let pool = vec![9.0; n];
        let slot = vec![NO_SLOT, 0, NO_SLOT];
        let self_row = vec![f64::INFINITY, f64::INFINITY, 0.0];
        let v = ResidualView::cow(CowResidual {
            n,
            node: 2,
            snap: &snap,
            slot: &slot,
            pool: &pool,
            self_row: &self_row,
        });
        assert_eq!(v.row(0), &[0.0, 0.0, 0.0], "borrowed from snapshot");
        assert_eq!(v.row(1), &[9.0, 9.0, 9.0], "repaired pool row");
        assert_eq!(v.row(2), &self_row[..], "turn node's own row");
        assert_eq!(v.at(1, 2), 9.0);
    }

    #[test]
    fn on_demand_view_computes_only_the_rows_read() {
        // 0 → 1 → 2 → 0 ring plus a 0 → 2 chord; node 0 is re-wiring.
        let mut g = egoist_graph::DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 2.0);
        g.add_edge(NodeId(2), NodeId(0), 4.0);
        g.add_edge(NodeId(0), NodeId(2), 0.5);
        let csr = CsrGraph::from_digraph(&g);
        let mut arena = ResidualArena::default();
        let rows = OnDemandResidual::with_rows_in(&csr, NodeId(0), [], &mut arena);
        let v = ResidualView::on_demand(&rows);
        assert_eq!(v.len(), 3);
        assert_eq!(rows.rows_materialised(), 0);
        assert_eq!(v.row(1), &[6.0, 0.0, 2.0]);
        assert_eq!(v.at(1, 2), 2.0, "second read hits the kept row");
        assert_eq!(rows.rows_materialised(), 1);
        // The turn node's own row: its out-links are gone.
        assert_eq!(v.row(0), &[0.0, f64::INFINITY, f64::INFINITY]);
        assert_eq!(rows.rows_materialised(), 2);

        // Announced rows are computed up front, once however often they
        // are named; reading them computes nothing more.
        let named = [NodeId(1), NodeId(0), NodeId(1)];
        let rows = OnDemandResidual::with_rows_in(&csr, NodeId(0), named, &mut arena);
        let v = ResidualView::on_demand(&rows);
        assert_eq!(rows.rows_materialised(), 2);
        assert_eq!(v.row(1), &[6.0, 0.0, 2.0]);
        assert_eq!(v.row(0), &[0.0, f64::INFINITY, f64::INFINITY]);
        assert_eq!(rows.rows_materialised(), 2);
        assert_eq!(v.row(2), &[4.0, f64::INFINITY, 0.0], "not announced");
        assert_eq!(rows.rows_materialised(), 3);
    }
}
