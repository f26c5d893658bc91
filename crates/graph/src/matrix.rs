//! Dense `n × n` cost matrices.
//!
//! A [`DistanceMatrix`] stores the pairwise quantity `d_ij` of the paper:
//! the cost of a *potential direct overlay link* from `v_i` to `v_j`
//! (one-way delay, announced cost, or available bandwidth depending on the
//! metric in play). Matrices are directed — `d_ij != d_ji` in general, as
//! §2.1 stresses.

use crate::types::{Cost, NodeId};

/// Dense row-major `n × n` matrix of directed pairwise costs.
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<Cost>,
}

impl DistanceMatrix {
    /// A matrix with every entry (including the diagonal) set to `fill`.
    pub fn filled(n: usize, fill: Cost) -> Self {
        DistanceMatrix {
            n,
            data: vec![fill; n * n],
        }
    }

    /// A matrix with zero diagonal and `fill` off-diagonal.
    pub fn off_diagonal(n: usize, fill: Cost) -> Self {
        let mut m = Self::filled(n, fill);
        for i in 0..n {
            m.data[i * n + i] = 0.0;
        }
        m
    }

    /// Build from a closure over index pairs; the diagonal is forced to 0.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> Cost) -> Self {
        let mut m = Self::filled(n, 0.0);
        for i in 0..n {
            for j in 0..n {
                m.data[i * n + j] = if i == j { 0.0 } else { f(i, j) };
            }
        }
        m
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Cost of the directed pair `(i, j)`.
    #[inline]
    pub fn get(&self, i: NodeId, j: NodeId) -> Cost {
        self.data[i.index() * self.n + j.index()]
    }

    /// Cost by raw indices (hot loops).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> Cost {
        self.data[i * self.n + j]
    }

    /// Set the directed pair `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: NodeId, j: NodeId, c: Cost) {
        self.data[i.index() * self.n + j.index()] = c;
    }

    /// Set by raw indices.
    #[inline]
    pub fn set_at(&mut self, i: usize, j: usize, c: Cost) {
        self.data[i * self.n + j] = c;
    }

    /// Row `i` as a slice (costs from `i` to every node).
    #[inline]
    pub fn row(&self, i: usize) -> &[Cost] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Restrict the matrix to the sub-population `keep` (in the given
    /// order), renumbering nodes densely. Used by the sampling machinery
    /// of §5 to scale down the BR input.
    pub fn submatrix(&self, keep: &[NodeId]) -> DistanceMatrix {
        let m = keep.len();
        let mut out = DistanceMatrix::filled(m, 0.0);
        for (a, &i) in keep.iter().enumerate() {
            for (b, &j) in keep.iter().enumerate() {
                out.data[a * m + b] = self.get(i, j);
            }
        }
        out
    }

    /// Symmetrize: replace `d_ij` and `d_ji` with their average. Useful for
    /// constructing RTT/2 style one-way estimates from round trips.
    pub fn symmetrized(&self) -> DistanceMatrix {
        DistanceMatrix::from_fn(self.n, |i, j| 0.5 * (self.at(i, j) + self.at(j, i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_get_set() {
        let mut m = DistanceMatrix::off_diagonal(3, 5.0);
        assert_eq!(m.get(NodeId(0), NodeId(0)), 0.0);
        assert_eq!(m.get(NodeId(0), NodeId(2)), 5.0);
        m.set(NodeId(0), NodeId(2), 7.5);
        assert_eq!(m.get(NodeId(0), NodeId(2)), 7.5);
        // Directedness: the reverse entry is untouched.
        assert_eq!(m.get(NodeId(2), NodeId(0)), 5.0);
    }

    #[test]
    fn from_fn_zeroes_diagonal() {
        let m = DistanceMatrix::from_fn(4, |i, j| (i * 10 + j) as f64);
        for i in 0..4 {
            assert_eq!(m.at(i, i), 0.0);
        }
        assert_eq!(m.at(1, 3), 13.0);
    }

    #[test]
    fn submatrix_renumbers() {
        let m = DistanceMatrix::from_fn(4, |i, j| (i * 10 + j) as f64);
        let s = m.submatrix(&[NodeId(3), NodeId(1)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.at(0, 1), 31.0);
        assert_eq!(s.at(1, 0), 13.0);
    }

    #[test]
    fn symmetrized_averages_pairs() {
        let mut m = DistanceMatrix::off_diagonal(2, 0.0);
        m.set(NodeId(0), NodeId(1), 10.0);
        m.set(NodeId(1), NodeId(0), 20.0);
        let s = m.symmetrized();
        assert_eq!(s.get(NodeId(0), NodeId(1)), 15.0);
        assert_eq!(s.get(NodeId(1), NodeId(0)), 15.0);
    }

    #[test]
    fn row_matches_entries() {
        let m = DistanceMatrix::from_fn(3, |i, j| (i + j) as f64);
        assert_eq!(m.row(1), &[1.0, 0.0, 3.0]);
    }
}
