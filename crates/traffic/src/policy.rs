//! The data-plane routing policy abstraction.
//!
//! Three ways to turn one epoch's flows into carried traffic:
//!
//! * [`DataPolicyKind::ShortestPath`] — the original announced-shortest
//!   path router ([`FlowRouter`]), optionally multipath. One-shot
//!   admission against the capacity ledger.
//! * [`DataPolicyKind::Backpressure`] — per-destination-queue
//!   differential-backlog forwarding ([`crate::backpressure`]):
//!   throughput-optimal, path-free, pays for it in queueing delay.
//! * [`DataPolicyKind::DelayAware`] — shortest path over announced cost
//!   **plus** a smoothed per-link queuing-delay estimate, with
//!   hysteresis on path switches (Jonglez et al., arXiv:1403.3488):
//!   a flow's path changes only when the alternative is at least
//!   `hysteresis` relatively cheaper — with both paths evaluated under
//!   the flow's own induced queue, so an idle alternative can't look
//!   spuriously cheap — which kills route flapping on saturated links.
//!   Route changes are counted into [`RouteOutcome::route_changes`].
//!
//! All three implement [`RoutingPolicy`] and are driven identically by
//! the engine, so benches sweep them through one code path.

use crate::backpressure::{BackpressureConfig, BackpressureEngine};
use crate::capacity::CapacityLedger;
use crate::demand::Flow;
use crate::paths::{append_tree_path, HopCosts, PathPlane, SourceTrees};
use crate::router::{traffic_obs, FlowRouter, FlowTally, RouteInputs, RouteOutcome, RouterConfig};
use egoist_graph::{CsrGraph, NodeId};

/// One epoch of routing under some policy. Implementations may keep
/// cross-epoch state (queues, smoothed delay estimates, remembered
/// paths) but must stay deterministic: same construction + same call
/// sequence → bit-identical outcomes. Every implementation times its
/// epoch under the `traffic.route` timer, once per call.
pub trait RoutingPolicy {
    fn label(&self) -> &'static str;
    fn route_epoch(&mut self, epoch: u64, flows: &[Flow], inp: &RouteInputs<'_>) -> RouteOutcome;
}

/// Which data-plane policy the engine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DataPolicyKind {
    /// Announced-shortest-path (the pre-existing router). The default:
    /// report bytes and perf fingerprints are pinned to it.
    #[default]
    ShortestPath,
    /// Differential-backlog forwarding with per-destination queues.
    Backpressure,
    /// Smoothed queuing-delay metric with switch hysteresis.
    DelayAware,
}

impl DataPolicyKind {
    pub fn label(self) -> &'static str {
        match self {
            DataPolicyKind::ShortestPath => "spf",
            DataPolicyKind::Backpressure => "backpressure",
            DataPolicyKind::DelayAware => "delay-aware",
        }
    }

    pub fn all() -> [DataPolicyKind; 3] {
        [
            DataPolicyKind::ShortestPath,
            DataPolicyKind::Backpressure,
            DataPolicyKind::DelayAware,
        ]
    }

    /// Build the policy object for an `n`-node run.
    pub fn instantiate(
        self,
        n: usize,
        router: RouterConfig,
        bp: BackpressureConfig,
        da: DelayAwareConfig,
    ) -> Box<dyn RoutingPolicy + Send> {
        match self {
            DataPolicyKind::ShortestPath => Box::new(ShortestPathPolicy {
                router: FlowRouter::new(router),
            }),
            DataPolicyKind::Backpressure => Box::new(BackpressurePolicy {
                engine: BackpressureEngine::new(n, bp),
            }),
            DataPolicyKind::DelayAware => Box::new(DelayAwarePolicy::new(n, da)),
        }
    }
}

/// The existing router behind the trait.
pub struct ShortestPathPolicy {
    pub router: FlowRouter,
}

impl RoutingPolicy for ShortestPathPolicy {
    fn label(&self) -> &'static str {
        "spf"
    }

    fn route_epoch(&mut self, _epoch: u64, flows: &[Flow], inp: &RouteInputs<'_>) -> RouteOutcome {
        let _span = traffic_obs().route.start();
        self.router.route(flows, inp)
    }
}

/// Backpressure behind the trait.
pub struct BackpressurePolicy {
    pub engine: BackpressureEngine,
}

impl RoutingPolicy for BackpressurePolicy {
    fn label(&self) -> &'static str {
        "backpressure"
    }

    fn route_epoch(&mut self, _epoch: u64, flows: &[Flow], inp: &RouteInputs<'_>) -> RouteOutcome {
        let _span = traffic_obs().route.start();
        self.engine.route_epoch(flows, inp)
    }
}

/// Weight of the smoothed queuing-delay estimate in the routing cost
/// (`w' = announced + DELAY_WEIGHT · q̂`).
const DELAY_WEIGHT: f64 = 1.0;
/// EWMA smoothing factor for the per-link queuing estimate.
const EWMA_ALPHA: f64 = 0.3;
/// Cap on the per-link queuing estimate (ms) — keeps the M/M/1 blow-up
/// `ρ/(1−ρ)` finite at saturation.
const MAX_QUEUE_MS: f64 = 50.0;

/// Delay-aware tuning.
#[derive(Clone, Copy, Debug)]
pub struct DelayAwareConfig {
    /// Relative-improvement threshold for switching paths: keep the
    /// current path unless the best alternative costs less than
    /// `(1 − hysteresis) ×` the current one. 0 disables hysteresis.
    pub hysteresis: f64,
}

impl Default for DelayAwareConfig {
    fn default() -> Self {
        DelayAwareConfig { hysteresis: 0.15 }
    }
}

/// Shortest-path routing on `announced + smoothed queuing delay`, with
/// switch hysteresis. Keeps per-link EWMA estimates and each pair's
/// current path across epochs.
pub struct DelayAwarePolicy {
    n: usize,
    cfg: DelayAwareConfig,
    /// Smoothed queuing-delay estimate per directed pair (ms), dense.
    ewma_ms: Vec<f64>,
    /// The path each (src, dst) pair is currently committed to: the
    /// last epoch's plane plus the commitments it inherited.
    current_paths: PathPlane,
    /// Lifetime route-change count (steady-state flapping observable).
    pub route_changes_total: u64,
}

impl DelayAwarePolicy {
    pub fn new(n: usize, cfg: DelayAwareConfig) -> Self {
        DelayAwarePolicy {
            n,
            cfg,
            ewma_ms: vec![0.0; n * n],
            current_paths: PathPlane::new(n),
            route_changes_total: 0,
        }
    }

    #[inline]
    fn q_est(&self, u: NodeId, v: NodeId) -> f64 {
        self.ewma_ms[u.index() * self.n + v.index()]
    }

    /// The queuing delay `rate` Mbps would induce by itself on a link of
    /// capacity `cap` (same capped M/M/1 shape as the measured estimate).
    fn q_self(&self, rate: f64, cap: f64) -> f64 {
        if cap <= 0.0 {
            return MAX_QUEUE_MS;
        }
        let rho = (rate / cap).min(0.95);
        (rho / (1.0 - rho)).min(MAX_QUEUE_MS)
    }

    /// Switch-decision cost of `path` for a flow of `rate` Mbps: per hop,
    /// announced weight plus `DELAY_WEIGHT · max(q̂, q_self)`. Flooring
    /// the measured estimate with the flow's *own* induced queue is what
    /// kills ping-ponging — an idle alternative's estimate decays toward
    /// zero, but it would saturate the moment the flow moved there, and
    /// this cost says so up front. `None` when an edge no longer exists
    /// (rewire/churn invalidated the path).
    fn switch_cost(&self, path: &[NodeId], inp: &RouteInputs<'_>, rate: f64) -> Option<f64> {
        let mut cost = 0.0;
        for w in path.windows(2) {
            let base = inp.overlay.edge_cost(w[0], w[1])?;
            let q = self
                .q_est(w[0], w[1])
                .max(self.q_self(rate, inp.capacity.get(w[0], w[1])));
            cost += base + DELAY_WEIGHT * q;
        }
        Some(cost)
    }
}

impl RoutingPolicy for DelayAwarePolicy {
    fn label(&self) -> &'static str {
        "delay-aware"
    }

    fn route_epoch(&mut self, _epoch: u64, flows: &[Flow], inp: &RouteInputs<'_>) -> RouteOutcome {
        let _span = traffic_obs().route.start();
        let n = self.n;
        debug_assert_eq!(inp.overlay.len(), n);

        // Overlay with queuing-adjusted edge weights, straight into CSR
        // (the overlay's rows have no duplicate targets to merge).
        let this = &*self;
        let csr = CsrGraph::from_fn(n, |u| {
            let u = NodeId::from_index(u);
            let edges = inp.overlay.out_edges(u).iter();
            edges.map(move |e| (e.to.0, e.cost + DELAY_WEIGHT * this.q_est(u, e.to)))
        });
        // Realized latency charges the smoothed queuing estimate on every
        // hop on top — the delay the metric itself predicts.
        let costs = HopCosts {
            inp,
            queue_ms: Some(&self.ewma_ms),
        };

        // Flows are admitted in their original order against the
        // capacity ledger, each on its pair's path. That path is decided
        // when the pair's first flow shows up (by that flow's rate), off
        // one SSSP tree per distinct source.
        let mut trees = SourceTrees::new(&csr);
        let (mut plane, mut candidate) = (PathPlane::new(n), Vec::new());
        let mut ledger = CapacityLedger::new(inp.capacity);
        let mut tally = FlowTally::new(flows.len(), inp);
        let mut route_changes = 0;
        for &flow in flows {
            let (src, dst) = (flow.src, flow.dst);
            if plane.get(src, dst).is_none() {
                plane.open(src, dst);
                candidate.clear();
                // No route at all this epoch drops any commitment.
                if append_tree_path(&mut candidate, trees.parent_row(src), src, dst) {
                    let committed = self.current_paths.get(src, dst);
                    let old = committed.and_then(|paths| paths.first());
                    let old = old.map(|path| self.current_paths.nodes(path));
                    // First sighting: adopt, not a change. Old path
                    // broken by rewire/churn: forced switch (not flapping
                    // — the route was taken away).
                    let old_cost = old.and_then(|old| self.switch_cost(old, inp, flow.rate_mbps));
                    let decision = match old.zip(old_cost) {
                        None => &candidate[..],
                        Some((old, old_cost)) => {
                            let cand_cost = self
                                .switch_cost(&candidate, inp, flow.rate_mbps)
                                .unwrap_or(f64::INFINITY);
                            let switch = candidate != old
                                && cand_cost < old_cost * (1.0 - self.cfg.hysteresis);
                            route_changes += usize::from(switch);
                            if switch {
                                &candidate[..]
                            } else {
                                old
                            }
                        }
                    };
                    plane.push(decision, &costs);
                }
            }
            match plane.get(src, dst).expect("decided above").first() {
                Some(path) => {
                    let got = ledger.admit(plane.nodes(path), flow.rate_mbps);
                    let constants = (path.latency_ms, path.propagation_ms);
                    tally.settle(flow, got, constants, usize::from(got > 0.0));
                }
                None => tally.settle(flow, 0.0, (f64::NAN, f64::NAN), 0),
            }
        }
        self.route_changes_total += route_changes as u64;

        // Update the per-link queuing estimate from this epoch's
        // realized utilization: M/M/1-style ρ/(1−ρ), capped, smoothed.
        let consumed = ledger.consumed_matrix();
        let alpha = EWMA_ALPHA;
        for (u, v, _) in inp.overlay.edges() {
            let cap = inp.capacity.get(u, v);
            let idx = u.index() * n + v.index();
            let raw = self.q_self(consumed[idx], cap);
            self.ewma_ms[idx] = alpha * raw + (1.0 - alpha) * self.ewma_ms[idx];
        }
        // Pairs without a flow this epoch stay committed.
        plane.inherit(&self.current_paths);
        self.current_paths = plane;

        RouteOutcome {
            route_changes,
            ..tally.finish(ledger.consumed_matrix(), ledger.forwarded_per_node())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egoist_graph::{DiGraph, DistanceMatrix};

    fn diamond() -> DiGraph {
        // Two parallel 2-hop routes 0→1→3 (cheap) and 0→2→3 (pricier).
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(3), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 1.2);
        g.add_edge(NodeId(2), NodeId(3), 1.2);
        g
    }

    fn inputs<'a>(
        overlay: &'a DiGraph,
        delays: &'a DistanceMatrix,
        loads: &'a [f64],
        cap: &'a DistanceMatrix,
    ) -> RouteInputs<'a> {
        RouteInputs {
            overlay,
            true_delays: delays,
            node_load: loads,
            capacity: cap,
        }
    }

    #[test]
    fn hysteresis_prevents_flapping_on_saturated_link() {
        let overlay = diamond();
        let delays = DistanceMatrix::off_diagonal(4, 5.0);
        let loads = [0.0; 4];
        // The cheap path saturates: 10 Mbps links, 9.5 Mbps flow → the
        // queuing estimate on 0→1 climbs every epoch.
        let cap = DistanceMatrix::off_diagonal(4, 10.0);
        let flows = [Flow {
            src: NodeId(0),
            dst: NodeId(3),
            rate_mbps: 9.5,
        }];
        let inp = inputs(&overlay, &delays, &loads, &cap);
        let run = |hysteresis: f64| {
            let mut p = DelayAwarePolicy::new(4, DelayAwareConfig { hysteresis });
            for e in 0..24 {
                p.route_epoch(e, &flows, &inp);
            }
            p.route_changes_total
        };
        let with = run(0.25);
        let without = run(0.0);
        assert!(
            with <= without,
            "hysteresis must not flap more: {with} vs {without}"
        );
        assert!(with <= 2, "bounded route changes with hysteresis: {with}");
    }

    #[test]
    fn broken_path_is_replaced_without_counting_as_flap() {
        let mut overlay = diamond();
        let delays = DistanceMatrix::off_diagonal(4, 5.0);
        let loads = [0.0; 4];
        let cap = DistanceMatrix::off_diagonal(4, 100.0);
        let flows = [Flow {
            src: NodeId(0),
            dst: NodeId(3),
            rate_mbps: 1.0,
        }];
        let mut p = DelayAwarePolicy::new(4, DelayAwareConfig::default());
        let out = p.route_epoch(0, &flows, &inputs(&overlay, &delays, &loads, &cap));
        assert!(out.delivered_mbps > 0.0);
        // Rewire: the committed 0→1→3 route disappears.
        overlay.remove_edge(NodeId(0), NodeId(1));
        let out = p.route_epoch(1, &flows, &inputs(&overlay, &delays, &loads, &cap));
        assert!(out.delivered_mbps > 0.0, "must re-route via 0→2→3");
        assert_eq!(out.route_changes, 0, "forced switch is not flapping");
    }

    #[test]
    fn deterministic_across_runs() {
        let overlay = diamond();
        let delays = DistanceMatrix::off_diagonal(4, 5.0);
        let loads = [0.3; 4];
        let cap = DistanceMatrix::off_diagonal(4, 12.0);
        let flows = [
            Flow {
                src: NodeId(0),
                dst: NodeId(3),
                rate_mbps: 9.0,
            },
            Flow {
                src: NodeId(1),
                dst: NodeId(3),
                rate_mbps: 4.0,
            },
        ];
        let run = || {
            let mut p = DelayAwarePolicy::new(4, DelayAwareConfig::default());
            let mut sig = Vec::new();
            for e in 0..10 {
                let out = p.route_epoch(e, &flows, &inputs(&overlay, &delays, &loads, &cap));
                sig.push((
                    out.delivered_mbps.to_bits(),
                    out.flows[0].latency_ms.to_bits(),
                    out.route_changes,
                ));
            }
            sig
        };
        assert_eq!(run(), run());
    }
}
