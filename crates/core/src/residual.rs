//! One view over residual (`G−i`) pairwise state.
//!
//! §3.1 only requires the residual distances to be *consultable* — "run
//! an all-pairs shortest path algorithm on `G−i`" names the quantity, not
//! a storage format. A [`ResidualView`] reads them through one slot
//! table: per source, the table either borrows a *base* row (a row of the
//! epoch snapshot's all-pairs state, or of a dense matrix), reads a row
//! of a packed *pool*, or traps. A turn names the rows its policy will
//! read, and only those are ever checked or computed; reading any other
//! row panics — a base row nobody checked may still route through the
//! turn node.
//!
//! Two fills write the named rows into one store, a [`ResidualArena`]:
//!
//! * **The epoch engine's** ([`RouteState::residual`]): a named row
//!   whose best-path tree avoids the turn node's out-links borrows the
//!   snapshot row in place; any other is removal-repaired into the pool.
//!   Exactness is argued once, in [`crate::snapshot`]'s module docs.
//! * **The protocol node's** ([`ResidualArena::sweep`]): a node has no
//!   snapshot of the graph it re-wires from, so every named row is one
//!   lane of a batched [`sweep_many`] pass over its CSR graph. The pass
//!   masks the turn node's out-edges, which is the sweep over `G−i`, and
//!   ends at the same least fixed point as a heap sweep.
//!
//! Either way the named rows are bit for bit the same rows of
//! `apsp(residual_graph(i))` — pinned by the proptests in this crate and
//! the golden equivalence suite. A dense view ([`ResidualView::dense`])
//! has no table: every row of its matrix is a base row. The sampling
//! experiments and the tests build those.
//!
//! [`RouteState::residual`]: crate::snapshot::RouteState::residual

use egoist_graph::csr::{sweep_many, MinPlus};
use egoist_graph::{CsrGraph, DijkstraWorkspace, DistanceMatrix, NodeId};

/// Slot-table entry: the row is the base's own.
const BASE: u32 = u32::MAX;

/// Slot-table entry: nobody named the row for this turn. Reading it
/// panics.
const UNNAMED: u32 = u32::MAX - 1;

/// The named rows of one turn: a slot table and the pool rows it points
/// at. A caller that fills one turn after another keeps one arena, so a
/// warm turn allocates no rows; every fill starts from an all-unnamed
/// table, so reuse cannot change a row.
#[derive(Default)]
pub struct ResidualArena {
    /// Per source: [`BASE`], [`UNNAMED`] or its pool row.
    slot: Vec<u32>,
    /// Pool rows, packed by slot (`rows × n`, row-major).
    pool: Vec<f64>,
    /// The pool rows' sources, in slot order.
    sources: Vec<u32>,
    /// [`sweep_many`]'s lanes and work-list.
    ws: DijkstraWorkspace,
}

impl ResidualArena {
    /// Start a fill over `n` nodes: every row unnamed, the pool empty.
    pub(crate) fn clear(&mut self, n: usize) {
        self.slot.clear();
        self.slot.resize(n, UNNAMED);
        self.sources.clear();
    }

    /// Whether the current fill named `s`.
    pub(crate) fn named(&self, s: usize) -> bool {
        self.slot[s] != UNNAMED
    }

    /// Name `s` as a base row.
    pub(crate) fn borrow(&mut self, s: usize) {
        self.slot[s] = BASE;
    }

    /// Name `s` as the next pool row and hand that row (length `n`, stale
    /// contents) to the caller to fill.
    pub(crate) fn pool_row(&mut self, s: usize, n: usize) -> &mut [f64] {
        let lo = self.sources.len() * n;
        self.slot[s] = self.sources.len() as u32;
        self.sources.push(s as u32);
        if self.pool.len() < lo + n {
            self.pool.resize(lo + n, 0.0);
        }
        &mut self.pool[lo..lo + n]
    }

    /// Rows the last fill computed into the pool.
    pub fn rows_materialised(&self) -> usize {
        self.sources.len()
    }

    /// The view of the current fill for turn node `node`, over `base`
    /// (packed `n × n` rows, or empty when nothing is borrowed).
    pub(crate) fn view<'a>(&'a self, node: usize, base: &'a [f64]) -> ResidualView<'a> {
        let n = self.slot.len();
        debug_assert!(base.is_empty() || base.len() == n * n);
        ResidualView {
            n,
            node,
            base,
            slot: &self.slot,
            pool: &self.pool,
        }
    }

    /// The on-demand fill: the additive rows of `g` minus `node`'s
    /// out-edges for `sources` (repeats name one row), all in one batched
    /// [`sweep_many`] pass into the pool. Every other row is unnamed.
    pub fn sweep(
        &mut self,
        g: &CsrGraph,
        node: NodeId,
        sources: impl IntoIterator<Item = NodeId>,
    ) -> ResidualView<'_> {
        let n = g.len();
        self.clear(n);
        for s in sources.into_iter().map(NodeId::index) {
            if !self.named(s) {
                self.pool_row(s, n);
            }
        }
        // The pass writes every cell of the named rows.
        let pool = &mut self.pool[..self.sources.len() * n];
        sweep_many::<MinPlus>(&mut self.ws, g, &self.sources, Some(node.0), pool);
        self.view(node.index(), &[])
    }
}

/// A read-only view of the residual rows of one turn.
///
/// Policies read whole candidate rows ([`ResidualView::row`]); a read is
/// one table lookup, whatever filled the row.
#[derive(Clone, Copy)]
pub struct ResidualView<'a> {
    /// Row length.
    n: usize,
    /// The turn node, named when a read traps.
    node: usize,
    /// Base rows, packed (`n × n`, row-major), or empty.
    base: &'a [f64],
    /// Per source: [`BASE`], [`UNNAMED`] or a pool row. Empty for a dense
    /// view, whose every row is a base row.
    slot: &'a [u32],
    /// Pool rows, packed by slot.
    pool: &'a [f64],
}

impl<'a> ResidualView<'a> {
    /// View over a dense matrix: every row is readable.
    pub fn dense(m: &'a DistanceMatrix) -> Self {
        ResidualView {
            n: m.len(),
            node: usize::MAX,
            base: m.as_slice(),
            slot: &[],
            pool: &[],
        }
    }

    /// View of a turn of `node` that named no rows: every read panics.
    pub fn empty(node: usize) -> Self {
        ResidualView {
            n: 0,
            node,
            base: &[],
            slot: &[],
            pool: &[],
        }
    }

    /// Row of source `s`: its residual distance (or width) to every node.
    ///
    /// # Panics
    /// Panics when nobody named `s` for this turn.
    #[inline]
    pub fn row(&self, s: usize) -> &'a [f64] {
        let n = self.n;
        let slot = match self.slot.get(s) {
            Some(&slot) => slot,
            None if s < n => BASE,
            None => UNNAMED,
        };
        match slot {
            BASE => &self.base[s * n..][..n],
            UNNAMED => panic!("residual row {s} was not named for node {}", self.node),
            slot => &self.pool[slot as usize * n..][..n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_view_reads_through() {
        let m = DistanceMatrix::from_fn(4, |i, j| (i * 10 + j) as f64);
        let v = ResidualView::dense(&m);
        assert_eq!(v.row(1)[3], 13.0);
        for s in 0..4 {
            assert_eq!(v.row(s), m.row(s));
        }
    }

    #[test]
    fn slot_table_dispatches_rows() {
        let n = 3;
        // Base rows: row s filled with s; the one pool row: filled with 9.
        let base: Vec<f64> = (0..n * n).map(|p| (p / n) as f64).collect();
        let mut arena = ResidualArena::default();
        arena.clear(n);
        arena.borrow(0);
        arena.pool_row(2, n).fill(9.0);
        let v = arena.view(1, &base);
        assert_eq!(v.row(0), &[0.0, 0.0, 0.0], "borrowed from the base");
        assert_eq!(v.row(2), &[9.0, 9.0, 9.0], "pool row");
        assert_eq!(arena.rows_materialised(), 1);
        assert!(!arena.named(1), "the turn node was not named");
    }

    /// 0 → 1 → 2 → 0 ring plus a 0 → 2 chord.
    fn ring() -> CsrGraph {
        let mut g = egoist_graph::DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 2.0);
        g.add_edge(NodeId(2), NodeId(0), 4.0);
        g.add_edge(NodeId(0), NodeId(2), 0.5);
        CsrGraph::from_digraph(&g)
    }

    #[test]
    fn on_demand_view_computes_only_the_named_rows() {
        // Node 0 is re-wiring.
        let csr = ring();
        let mut arena = ResidualArena::default();
        // Named rows are computed once however often they are named.
        let named = [NodeId(1), NodeId(0), NodeId(1)];
        let v = arena.sweep(&csr, NodeId(0), named);
        assert_eq!(v.row(1), &[6.0, 0.0, 2.0]);
        // The turn node's own row: its out-links are gone.
        assert_eq!(v.row(0), &[0.0, f64::INFINITY, f64::INFINITY]);
        assert_eq!(arena.rows_materialised(), 2);
        // A fill that names nothing computes nothing.
        arena.sweep(&csr, NodeId(0), []);
        assert_eq!(arena.rows_materialised(), 0);
    }

    #[test]
    #[should_panic(expected = "row 2 was not named for node 0")]
    fn on_demand_view_traps_an_unnamed_row() {
        let csr = ring();
        let mut arena = ResidualArena::default();
        arena.sweep(&csr, NodeId(0), [NodeId(1)]).row(2);
    }

    #[test]
    #[should_panic(expected = "row 0 was not named for node 5")]
    fn empty_view_traps_every_read() {
        ResidualView::empty(5).row(0);
    }
}
