//! Directed weighted graph algorithms for the EGOIST overlay routing system.
//!
//! This crate is the graph substrate of the EGOIST reproduction. It provides
//! exactly the algorithmic machinery the paper's evaluation relies on:
//!
//! * [`DiGraph`] — a directed, weighted adjacency-list graph keyed by
//!   [`NodeId`], the representation of an overlay wiring `S`.
//! * [`DistanceMatrix`] — dense `n × n` cost matrices (link delays,
//!   announced costs, available bandwidth).
//! * [`csr`] — the shortest-path stack every shipped caller uses:
//!   [`CsrGraph`], and one sweep, one insertion repair, one removal repair
//!   and one all-pairs pass, each generic over a [`csr::PathAlgebra`]
//!   ([`csr::MinPlus`] shortest paths, [`csr::MaxMin`] the widest paths of
//!   §4.1's available-bandwidth metric).
//! * [`cycles`] — the id-offset bidirectional cycles used by HybridBR's
//!   donated-link backbone (§3.3) and the "enforce a cycle" connectivity
//!   fix-up of k-Random / k-Closest (§3.2).
//! * [`connectivity`] — reachability and strong connectivity tests.
//! * [`mst`] — Prim's minimum spanning tree, implemented as the k-MST
//!   backbone baseline the paper contrasts HybridBR against.
//!
//! The dense modules that remain beside `csr`, and why:
//!
//! * [`apsp`] — one [`csr::all_pairs`] pass read into a
//!   [`DistanceMatrix`], for `egoist-netsim`'s underlay routing, the
//!   static-game figures' dense costs (`egoist-bench`) and the tests'
//!   from-scratch residual oracle. The whole-stack benchmark imports it
//!   by this path.
//! * [`maxflow`] / [`disjoint`] — Dinic's max-flow and the edge-disjoint
//!   path count built on it: the only max-flow code, used for Fig. 10's
//!   "all peers allow multipath redirection" bound and Fig. 11's disjoint
//!   paths (§6).
//!
//! The dense single-source loops `csr` is pinned against bit for bit
//! (heap Dijkstra, its max-min form, Floyd–Warshall) live in the test-only
//! `reference` module.
//!
//! All algorithms are deterministic and panic-free on well-formed inputs;
//! costs are `f64` with `f64::INFINITY` meaning "no edge / unreachable"
//! (the paper's `M >> n` sentinel is a *finite* penalty applied by the
//! policy layer in `egoist-core`, not here).

pub mod apsp;
pub mod connectivity;
pub mod csr;
pub mod cycles;
pub mod disjoint;
pub mod graph;
pub mod matrix;
pub mod maxflow;
pub mod mst;
pub mod types;

pub use csr::{CsrApsp, CsrGraph, DijkstraWorkspace};
pub use graph::DiGraph;
pub use matrix::DistanceMatrix;
pub use types::NodeId;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;
