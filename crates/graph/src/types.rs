//! Core identifier and cost types shared across the EGOIST workspace.

use std::fmt;

/// Identifier of an overlay node `v_i ∈ V`.
///
/// Nodes are dense small integers (`0..n`), which lets every algorithm in
/// this workspace use flat `Vec` indexing instead of hash maps. The newtype
/// prevents accidentally mixing node ids with other integers (sample sizes,
/// neighbor counts, ...).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position when used as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Edge/path cost. `f64::INFINITY` encodes "no edge" or "unreachable".
pub type Cost = f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        for i in [0usize, 1, 7, 4096] {
            assert_eq!(NodeId::from_index(i).index(), i);
        }
    }

    #[test]
    fn node_id_ordering_is_dense_index_ordering() {
        assert!(NodeId(3) < NodeId(10));
        assert_eq!(NodeId(5), NodeId::from_index(5));
    }

    #[test]
    fn display_formats_with_v_prefix() {
        assert_eq!(format!("{}", NodeId(12)), "v12");
        assert_eq!(format!("{:?}", NodeId(12)), "v12");
    }
}
