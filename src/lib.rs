//! # EGOIST — overlay routing using selfish neighbor selection
//!
//! A from-scratch Rust reproduction of *EGOIST: Overlay Routing using
//! Selfish Neighbor Selection* (Smaragdakis, Laoutaris, Bestavros, Byers,
//! Roussopoulos; BUCS-TR-2007-013 / CoNEXT 2008): the complete system —
//! wiring policies, link-state overlay protocol, PlanetLab-like underlay
//! simulator, and the benchmark harness that regenerates every figure of
//! the paper's evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`obs`] | `egoist-obs` | deterministic spans, counters, histograms, flight recorder, JSON/Prometheus export |
//! | [`graph`] | `egoist-graph` | shortest/widest paths, max-flow, disjoint paths, cycles |
//! | [`netsim`] | `egoist-netsim` | delay/bandwidth/load models, churn, event queue, fault injection |
//! | [`coord`] | `egoist-coord` | Vivaldi network coordinates (the paper's pyxida mode) |
//! | [`core`] | `egoist-core` | SNS policies (BR, BR(ε), HybridBR, heuristics), sampling, game dynamics, the epoch simulator |
//! | [`proto`] | `egoist-proto` | the async link-state protocol: codec, LSDB, bootstrap, node agent |
//! | [`traffic`] | `egoist-traffic` | the closed-loop data-plane workload engine: demand, flow routing, congestion feedback, traffic reports |
//!
//! ## Quick start
//!
//! Compare neighbor-selection policies on a 50-node PlanetLab-like
//! overlay (the Fig. 1 experiment, shrunk):
//!
//! ```
//! use egoist::core::policies::PolicyKind;
//! use egoist::core::sim::{run, Metric, SimConfig};
//!
//! let mut cfg = SimConfig::baseline(3, PolicyKind::BestResponse, Metric::DelayPing, 42);
//! cfg.n = 16;          // keep the doctest fast
//! cfg.epochs = 6;
//! cfg.warmup_epochs = 2;
//! let br = run(cfg.clone());
//!
//! cfg.policy = PolicyKind::Random;
//! let random = run(cfg);
//!
//! let (c_br, c_rnd) = (br.mean_individual_cost(2), random.mean_individual_cost(2));
//! assert!(c_br < c_rnd, "selfish wiring beats random: {c_br:.1} < {c_rnd:.1}");
//! ```
//!
//! Or run a *live* overlay over UDP — see `examples/live_overlay.rs`.
//!
//! ## Reproduction map
//!
//! Every figure of the paper has a regeneration binary in
//! `crates/bench/src/bin/`; see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub use egoist_coord as coord;
pub use egoist_core as core;
pub use egoist_graph as graph;
pub use egoist_netsim as netsim;
pub use egoist_obs as obs;
pub use egoist_proto as proto;
pub use egoist_traffic as traffic;

/// Workspace version, for tooling.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
