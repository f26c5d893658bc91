//! # egoist-traffic — a closed-loop data-plane workload engine
//!
//! The EGOIST paper argues that selfishly-wired overlays *carry traffic*
//! better — lower delay, higher bottleneck bandwidth, graceful load
//! behavior (§4–§5) — yet a control-plane simulation alone only measures
//! static graph costs. This crate makes traffic actually flow:
//!
//! * [`demand`] — deterministic flow-level demand generators: uniform
//!   all-pairs, Zipf/gravity hot-spots, broadcast/gossip fan-out and
//!   CDN-style client→origin pulls. All conserve a configured offered
//!   load per epoch and derive their randomness from
//!   `egoist_netsim::rng`, so a seed pins the whole workload.
//! * [`router`] — forwards each flow along the *announced*-shortest
//!   overlay path (what link-state routing actually computes), with an
//!   optional multipath mode that splits a flow over edge-disjoint
//!   paths; charges realized per-hop propagation delay plus per-hop
//!   processing delay proportional to true node load.
//! * [`capacity`] — the ledger that meters flows into finite link
//!   capacity and accounts per-node forwarded traffic.
//! * [`feedback`] — the closed loop: carried traffic is charged back
//!   into the underlay's [`egoist_netsim::LoadModel`] (induced load) and
//!   [`egoist_netsim::BandwidthModel`] (consumed capacity), so next
//!   epoch's announcements — EWMA load, bandwidth probes — react to the
//!   congestion the overlay itself created, and best-response rewiring
//!   routes around it.
//! * [`policy`] — the [`policy::RoutingPolicy`] trait and its three
//!   implementations: the shortest-path router above, per-destination
//!   [`backpressure`] (differential-backlog forwarding over [`queue`]
//!   fluid queues — throughput-optimal, latency-oblivious) and a
//!   delay-aware variant that augments announced edge weights with a
//!   smoothed queuing-delay estimate and only re-routes past a
//!   hysteresis margin (bounded flapping).
//! * [`engine`] — drives an `egoist_core::sim::Simulator` epoch by epoch
//!   (control plane), routes the epoch's flows (data plane) through the
//!   configured policy with optional AIMD per-flow shaping
//!   ([`feedback::AimdController`]), applies feedback, and measures.
//!   [`engine::sweep_offered`] sweeps offered load × policy grids — the
//!   single code path shared by the `policy_race` and
//!   `traffic_workloads --sweep` binaries.
//! * [`report`] — the [`report::TrafficReport`] metrics sink:
//!   throughput, delivery ratio, p50/p99 flow latency, path stretch vs.
//!   the direct underlay path — exported as JSON (via [`json`], a small
//!   vendored writer, since the build environment has no serde).
//!
//! ```
//! use egoist_traffic::demand::WorkloadKind;
//! use egoist_traffic::engine::{TrafficConfig, TrafficEngine};
//! use egoist_core::policies::PolicyKind;
//! use egoist_core::sim::Metric;
//!
//! let mut cfg = TrafficConfig::new(16, 3, PolicyKind::BestResponse, Metric::Load, 7);
//! cfg.sim.epochs = 6;
//! cfg.sim.warmup_epochs = 2;
//! cfg.workload = WorkloadKind::Gravity { exponent: 1.0 };
//! let report = TrafficEngine::run(&cfg);
//! assert!(report.summary.delivered_mbps > 0.0);
//! assert!(report.to_json().starts_with('{'));
//! ```

pub mod backpressure;
pub mod capacity;
pub mod demand;
pub mod engine;
pub mod feedback;
pub mod json;
mod paths;
pub mod policy;
pub mod queue;
pub mod report;
pub mod router;

pub use backpressure::{BackpressureConfig, BackpressureEngine};
pub use demand::{DemandGenerator, Flow, WorkloadKind};
pub use engine::{sweep_offered, SweepPoint, TrafficConfig, TrafficEngine};
pub use feedback::{AimdConfig, AimdController};
pub use policy::{DataPolicyKind, DelayAwareConfig, RoutingPolicy};
pub use report::TrafficReport;
pub use router::{FlowRouter, RouteOutcome};

#[cfg(test)]
mod proptests;
