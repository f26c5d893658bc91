//! Directed weighted graph algorithms for the EGOIST overlay routing system.
//!
//! This crate is the graph substrate of the EGOIST reproduction. It provides
//! exactly the algorithmic machinery the paper's evaluation relies on:
//!
//! * [`DiGraph`] — a directed, weighted adjacency-list graph keyed by
//!   [`NodeId`], the representation of an overlay wiring `S`.
//! * [`DistanceMatrix`] — dense `n × n` cost matrices (link delays,
//!   announced costs, available bandwidth).
//! * [`dijkstra`] / [`apsp`] — single-source and all-pairs shortest paths,
//!   the routing layer of Definition 1 (`d_S(v_i, v_j)`).
//! * [`widest`] — maximum-bottleneck-bandwidth paths (the modified Dijkstra
//!   of §4.1 used for the available-bandwidth cost metric).
//! * [`csr`] — the hot-path stack: [`CsrGraph`], and one sweep, one
//!   insertion repair, one removal repair and one all-pairs pass, each
//!   generic over a [`csr::PathAlgebra`] ([`csr::MinPlus`] shortest
//!   paths, [`csr::MaxMin`] widest paths). The dense `dijkstra` / `apsp`
//!   / `widest` modules above are the references it is pinned against.
//! * [`maxflow`] — Dinic's max-flow, the "all peers allow multipath
//!   redirection" upper bound of Fig. 10.
//! * [`disjoint`] — edge-disjoint path counting (Fig. 11) via unit-capacity
//!   max-flow.
//! * [`cycles`] — the id-offset bidirectional cycles used by HybridBR's
//!   donated-link backbone (§3.3) and the "enforce a cycle" connectivity
//!   fix-up of k-Random / k-Closest (§3.2).
//! * [`connectivity`] — reachability and strong/weak connectivity tests.
//! * [`efficiency`] — the Efficiency metric of §4.4 (reciprocal shortest
//!   distance, zero when disconnected).
//! * [`mst`] — Prim's minimum spanning tree, implemented as the k-MST
//!   backbone baseline the paper contrasts HybridBR against.
//!
//! All algorithms are deterministic and panic-free on well-formed inputs;
//! costs are `f64` with `f64::INFINITY` meaning "no edge / unreachable"
//! (the paper's `M >> n` sentinel is a *finite* penalty applied by the
//! policy layer in `egoist-core`, not here).

pub mod apsp;
pub mod connectivity;
pub mod csr;
pub mod cycles;
pub mod dijkstra;
pub mod disjoint;
pub mod efficiency;
pub mod graph;
pub mod matrix;
pub mod maxflow;
pub mod mst;
pub mod types;
pub mod widest;

pub use csr::{CsrApsp, CsrGraph, DijkstraWorkspace};
pub use graph::DiGraph;
pub use matrix::DistanceMatrix;
pub use types::NodeId;

#[cfg(test)]
mod proptests;
