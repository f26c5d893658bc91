//! The flow router: announced-shortest-path forwarding with an optional
//! edge-disjoint multipath mode.
//!
//! Routing consumes *announced* costs — the overlay graph as the
//! link-state protocol disseminated it — while every realized quantity
//! (latency, capacity) uses *true* underlay state. That mirrors the
//! announced/true split of `egoist_core::cost` and is what makes the
//! closed loop meaningful: wiring and routing react to announcements,
//! announcements lag the congestion traffic creates.

use crate::capacity::CapacityLedger;
use crate::demand::Flow;
use crate::paths::{append_tree_path, HopCosts, PathPlane, SourceTrees};
use egoist_graph::csr::DisjointSearch;
use egoist_graph::{CsrGraph, DiGraph, DistanceMatrix};
use std::sync::OnceLock;

/// Obs handles for the data plane, resolved lazily once and shared by
/// every routing policy (shortest-path, backpressure, delay-aware) and
/// the AIMD controller. Everything recorded here is a simulated
/// quantity (Mbps, simulated ms), so the exported values are
/// deterministic per seed. Registering the whole set on first resolve
/// means any traffic run exports every instrument — including the
/// queue/backlog/rate signals at zero when their policy is off — which
/// is what `metrics_check`'s x-required-instruments gate expects.
pub(crate) struct TrafficObs {
    pub(crate) route: egoist_obs::Timer,
    pub(crate) flows_offered: egoist_obs::Counter,
    pub(crate) flows_admitted: egoist_obs::Counter,
    pub(crate) flows_dropped: egoist_obs::Counter,
    pub(crate) rate_increase: egoist_obs::Counter,
    pub(crate) rate_decrease: egoist_obs::Counter,
    pub(crate) latency_ms: egoist_obs::Histogram,
    pub(crate) stretch: egoist_obs::Histogram,
    pub(crate) link_utilization: egoist_obs::Histogram,
    pub(crate) queue_depth: egoist_obs::Histogram,
    pub(crate) backlog: egoist_obs::Histogram,
}

pub(crate) fn traffic_obs() -> &'static TrafficObs {
    static OBS: OnceLock<TrafficObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = egoist_obs::registry();
        TrafficObs {
            route: r.timer("traffic.route"),
            flows_offered: r.counter("traffic.flows.offered"),
            flows_admitted: r.counter("traffic.flows.admitted"),
            flows_dropped: r.counter("traffic.flows.dropped"),
            rate_increase: r.counter("traffic.rate.increase"),
            rate_decrease: r.counter("traffic.rate.decrease"),
            latency_ms: r.histogram("traffic.flow_latency_ms"),
            stretch: r.histogram("traffic.flow_stretch"),
            link_utilization: r.histogram("traffic.link_utilization"),
            queue_depth: r.histogram("traffic.queue.depth"),
            backlog: r.histogram("traffic.backpressure.backlog"),
        }
    })
}

/// Router tuning.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Maximum paths per flow (1 = single announced-shortest path;
    /// > 1 splits over up to that many edge-disjoint paths, the §6
    /// > multipath application applied to bulk flows).
    pub max_paths: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { max_paths: 1 }
    }
}

/// One flow's routing outcome.
#[derive(Clone, Debug)]
pub struct RoutedFlow {
    pub flow: Flow,
    /// Mbps actually carried (0 when unroutable or starved).
    pub delivered_mbps: f64,
    /// Delivered-weighted mean end-to-end latency (ms); NaN when
    /// nothing was delivered.
    pub latency_ms: f64,
    /// Propagation-only path stretch vs. the direct underlay path;
    /// NaN when undelivered.
    pub stretch: f64,
    /// Number of paths used.
    pub paths_used: usize,
}

/// Aggregate outcome of routing one epoch's flows.
#[derive(Clone, Debug)]
pub struct RouteOutcome {
    pub flows: Vec<RoutedFlow>,
    pub offered_mbps: f64,
    pub delivered_mbps: f64,
    /// Row-major `n × n` carried traffic (Mbps) for bandwidth feedback.
    pub consumed: Vec<f64>,
    /// Per-node transmitted traffic (Mbps) for load feedback.
    pub forwarded: Vec<f64>,
    /// Committed-path switches this epoch (delay-aware policy only;
    /// always 0 for the stateless path routers and backpressure).
    pub route_changes: usize,
}

impl RouteOutcome {
    /// Delivered / offered (1.0 when nothing was offered).
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered_mbps <= 0.0 {
            1.0
        } else {
            self.delivered_mbps / self.offered_mbps
        }
    }
}

/// Everything the router reads for one epoch.
pub struct RouteInputs<'a> {
    /// The overlay wired by the control plane, edges carrying announced
    /// costs (routing state).
    pub overlay: &'a DiGraph,
    /// True per-pair propagation delays (ms).
    pub true_delays: &'a DistanceMatrix,
    /// True instantaneous per-node load.
    pub node_load: &'a [f64],
    /// Unloaded per-pair link capacity (Mbps).
    pub capacity: &'a DistanceMatrix,
}

/// The per-flow half of an epoch's outcome, which every routing policy
/// reports the same way: the routed flows in offer order and the obs
/// tallies (admitted/dropped counters, latency and stretch histograms).
pub(crate) struct FlowTally<'a> {
    inp: &'a RouteInputs<'a>,
    routed: Vec<RoutedFlow>,
    delivered_mbps: f64,
    admitted: u64,
}

impl<'a> FlowTally<'a> {
    pub(crate) fn new(flows: usize, inp: &'a RouteInputs<'a>) -> Self {
        FlowTally {
            inp,
            routed: Vec::with_capacity(flows),
            delivered_mbps: 0.0,
            admitted: 0,
        }
    }

    /// Close `flow`'s account: `delivered` Mbps over `paths_used` paths,
    /// at the given delivered-weighted latency and propagation delay
    /// (both ignored when nothing was delivered).
    pub(crate) fn settle(
        &mut self,
        flow: Flow,
        delivered: f64,
        (latency_ms, propagation_ms): (f64, f64),
        paths_used: usize,
    ) {
        let (latency_ms, stretch) = if delivered > 0.0 {
            let direct = self.inp.true_delays.get(flow.src, flow.dst);
            let stretch = if direct > 0.0 {
                propagation_ms / direct
            } else {
                f64::NAN
            };
            self.admitted += 1;
            let obs = traffic_obs();
            obs.latency_ms.observe(latency_ms);
            if stretch.is_finite() {
                obs.stretch.observe(stretch);
            }
            (latency_ms, stretch)
        } else {
            (f64::NAN, f64::NAN)
        };
        self.delivered_mbps += delivered;
        self.routed.push(RoutedFlow {
            flow,
            delivered_mbps: delivered,
            latency_ms,
            stretch,
            paths_used,
        });
    }

    /// Close the epoch: counters out, outcome assembled.
    pub(crate) fn finish(self, consumed: &[f64], forwarded: &[f64]) -> RouteOutcome {
        let obs = traffic_obs();
        obs.flows_offered.add(self.routed.len() as u64);
        obs.flows_admitted.add(self.admitted);
        obs.flows_dropped
            .add(self.routed.len() as u64 - self.admitted);
        RouteOutcome {
            offered_mbps: self.routed.iter().map(|f| f.flow.rate_mbps).sum(),
            delivered_mbps: self.delivered_mbps,
            flows: self.routed,
            consumed: consumed.to_vec(),
            forwarded: forwarded.to_vec(),
            route_changes: 0,
        }
    }
}

/// The router: stateless — everything it computes is per epoch.
#[derive(Clone, Debug, Default)]
pub struct FlowRouter {
    pub cfg: RouterConfig,
}

impl FlowRouter {
    pub fn new(cfg: RouterConfig) -> Self {
        FlowRouter { cfg }
    }

    /// Route one epoch's flows in order, metering them into capacity.
    ///
    /// Paths are shared across flows through the epoch's path plane
    /// (`paths.rs`): per distinct `(src, dst)` pair, up to
    /// `max_paths` edge-disjoint paths, cheapest first (they depend only
    /// on the overlay, not on ledger state, so sharing them cannot change
    /// admission results). Path 0 is read off the source's SSSP tree when
    /// the pair's first flow shows up. Paths 1.. come from
    /// [`DisjointSearch`], asked for `max_paths` outright, the first time
    /// one of the pair's flows does not fit on path 0: the search returns
    /// the same paths whenever it runs, and a flow reaches path 1 only
    /// when it has rate left after path 0, so a pair none of whose flows
    /// spills never pays for it. An earlier version first counted the
    /// pair's disjoint paths with a unit-capacity max-flow and asked for
    /// the smaller of the two, which cannot change the result: the search
    /// stops at the first path it fails to find, and greedily chosen
    /// edge-disjoint paths never outnumber the max-flow, so the count only
    /// ever capped a loop that had already ended.
    pub fn route(&self, flows: &[Flow], inp: &RouteInputs<'_>) -> RouteOutcome {
        let n = inp.overlay.len();
        let csr = CsrGraph::from_digraph(inp.overlay);
        let costs = HopCosts {
            inp,
            queue_ms: None,
        };
        let want = self.cfg.max_paths.max(1);
        let (mut trees, mut search) = (SourceTrees::new(&csr), DisjointSearch::new(&csr));
        let (mut plane, mut nodes) = (PathPlane::new(n), Vec::new());
        // Per pair, multipath only: paths 1.. have been searched.
        let mut searched = vec![false; if want > 1 { n * n } else { 0 }];
        let mut ledger = CapacityLedger::new(inp.capacity);
        let mut tally = FlowTally::new(flows.len(), inp);
        for &flow in flows {
            let (src, dst) = (flow.src, flow.dst);
            let pair = src.index() * n + dst.index();
            if plane.get(src, dst).is_none() {
                plane.open(src, dst);
                nodes.clear();
                if append_tree_path(&mut nodes, trees.parent_row(src), src, dst) {
                    plane.push(&nodes, &costs);
                }
            }
            // Fill paths cheapest-first; each takes what its bottleneck
            // allows until the flow's rate is placed.
            let mut remaining = flow.rate_mbps;
            let mut delivered = 0.0;
            let (mut weighted_latency, mut weighted_prop) = (0.0, 0.0);
            let (mut used, mut tried) = (0, 0);
            loop {
                let paths = plane.range(src, dst);
                for at in paths.start + tried..paths.end {
                    if remaining <= 0.0 {
                        break;
                    }
                    let path = plane.path(at);
                    let got = ledger.admit(plane.nodes(path), remaining);
                    if got > 0.0 {
                        delivered += got;
                        remaining -= got;
                        weighted_latency += got * path.latency_ms;
                        weighted_prop += got * path.propagation_ms;
                        used += 1;
                    }
                }
                tried = paths.len();
                if remaining <= 0.0 || want == 1 || paths.is_empty() || searched[pair] {
                    break;
                }
                // The flow spills past path 0: search the pair's others.
                searched[pair] = true;
                plane.reopen(src, dst);
                let mut first = true;
                let tree = Some(trees.parent_row(src));
                search.for_each_path(&csr, src.0, dst.0, want, tree, |row| {
                    if !std::mem::take(&mut first) {
                        nodes.clear();
                        append_tree_path(&mut nodes, row, src, dst);
                        plane.push(&nodes, &costs);
                    }
                });
            }
            let means = (weighted_latency / delivered, weighted_prop / delivered);
            tally.settle(flow, delivered, means, used);
        }

        if egoist_obs::is_enabled() {
            // Utilization of every link that carried traffic this epoch.
            let obs = traffic_obs();
            for (at, &used) in ledger.consumed_matrix().iter().enumerate() {
                let cap = inp.capacity.at(at / n, at % n);
                if used > 0.0 && cap > 0.0 {
                    obs.link_utilization.observe(used / cap);
                }
            }
        }
        tally.finish(ledger.consumed_matrix(), ledger.forwarded_per_node())
    }
}

/// The pre-optimisation router, kept as the test oracle: every opened
/// pair searches all its paths at once.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn route_eager(
        router: &FlowRouter,
        flows: &[Flow],
        inp: &RouteInputs<'_>,
    ) -> RouteOutcome {
        let n = inp.overlay.len();
        let csr = CsrGraph::from_digraph(inp.overlay);
        let costs = HopCosts {
            inp,
            queue_ms: None,
        };
        let (mut trees, mut search) = (SourceTrees::new(&csr), DisjointSearch::new(&csr));
        let (mut plane, mut nodes) = (PathPlane::new(n), Vec::new());
        let mut ledger = CapacityLedger::new(inp.capacity);
        let mut tally = FlowTally::new(flows.len(), inp);
        for &flow in flows {
            let (src, dst) = (flow.src, flow.dst);
            if plane.get(src, dst).is_none() {
                plane.open(src, dst);
                let (want, tree) = (router.cfg.max_paths, Some(trees.parent_row(src)));
                search.for_each_path(&csr, src.0, dst.0, want, tree, |row| {
                    nodes.clear();
                    append_tree_path(&mut nodes, row, src, dst);
                    plane.push(&nodes, &costs);
                });
            }
            let mut remaining = flow.rate_mbps;
            let mut delivered = 0.0;
            let (mut weighted_latency, mut weighted_prop) = (0.0, 0.0);
            let mut used = 0;
            for path in plane.get(src, dst).expect("filled above") {
                if remaining <= 0.0 {
                    break;
                }
                let got = ledger.admit(plane.nodes(path), remaining);
                if got > 0.0 {
                    delivered += got;
                    remaining -= got;
                    weighted_latency += got * path.latency_ms;
                    weighted_prop += got * path.propagation_ms;
                    used += 1;
                }
            }
            let means = (weighted_latency / delivered, weighted_prop / delivered);
            tally.settle(flow, delivered, means, used);
        }
        tally.finish(ledger.consumed_matrix(), ledger.forwarded_per_node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egoist_graph::NodeId;

    /// A 4-node line 0→1→2→3 with a costly shortcut 0→3.
    fn line_overlay() -> DiGraph {
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        g.add_edge(NodeId(0), NodeId(3), 10.0);
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
    fn follows_announced_shortest_path() {
        let overlay = line_overlay();
        let delays = DistanceMatrix::off_diagonal(4, 5.0);
        let loads = [0.0; 4];
        let cap = DistanceMatrix::off_diagonal(4, 1000.0);
        let r = FlowRouter::default();
        let out = r.route(
            &[Flow {
                src: NodeId(0),
                dst: NodeId(3),
                rate_mbps: 10.0,
            }],
            &inputs(&overlay, &delays, &loads, &cap),
        );
        // Announced-shortest is the 3-hop line (cost 3 < 10): 3 × 5 ms.
        assert_eq!(out.flows[0].delivered_mbps, 10.0);
        assert!((out.flows[0].latency_ms - 15.0).abs() < 1e-9);
        assert!((out.flows[0].stretch - 3.0).abs() < 1e-9);
    }

    #[test]
    fn hot_relay_inflates_latency() {
        let overlay = line_overlay();
        let delays = DistanceMatrix::off_diagonal(4, 5.0);
        let cap = DistanceMatrix::off_diagonal(4, 1000.0);
        let cool = [0.0, 0.0, 0.0, 0.0];
        let hot = [0.0, 20.0, 0.0, 0.0]; // relay v1 is slammed
        let r = FlowRouter::default();
        let f = [Flow {
            src: NodeId(0),
            dst: NodeId(3),
            rate_mbps: 1.0,
        }];
        let lat_cool = r.route(&f, &inputs(&overlay, &delays, &cool, &cap)).flows[0].latency_ms;
        let lat_hot = r.route(&f, &inputs(&overlay, &delays, &hot, &cap)).flows[0].latency_ms;
        assert!(
            lat_hot > lat_cool + 30.0,
            "20 load × 2 ms = 40 ms extra: {lat_cool} vs {lat_hot}"
        );
    }

    #[test]
    fn capacity_starvation_reduces_delivery() {
        let overlay = line_overlay();
        let delays = DistanceMatrix::off_diagonal(4, 5.0);
        let loads = [0.0; 4];
        let cap = DistanceMatrix::off_diagonal(4, 8.0);
        let r = FlowRouter::default();
        let out = r.route(
            &[
                Flow {
                    src: NodeId(0),
                    dst: NodeId(2),
                    rate_mbps: 6.0,
                },
                Flow {
                    src: NodeId(0),
                    dst: NodeId(2),
                    rate_mbps: 6.0,
                },
            ],
            &inputs(&overlay, &delays, &loads, &cap),
        );
        // The shared 0→1 link caps the pair at 8 Mbps total.
        assert_eq!(out.flows[0].delivered_mbps, 6.0);
        assert_eq!(out.flows[1].delivered_mbps, 2.0);
        assert!((out.delivery_ratio() - 8.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn unroutable_flow_counts_as_undelivered() {
        let mut overlay = DiGraph::new(3);
        overlay.add_edge(NodeId(0), NodeId(1), 1.0);
        let delays = DistanceMatrix::off_diagonal(3, 5.0);
        let loads = [0.0; 3];
        let cap = DistanceMatrix::off_diagonal(3, 100.0);
        let out = FlowRouter::default().route(
            &[Flow {
                src: NodeId(0),
                dst: NodeId(2),
                rate_mbps: 4.0,
            }],
            &inputs(&overlay, &delays, &loads, &cap),
        );
        assert_eq!(out.flows[0].delivered_mbps, 0.0);
        assert!(out.flows[0].latency_ms.is_nan());
        assert_eq!(out.delivery_ratio(), 0.0);
    }

    #[test]
    fn multipath_exceeds_single_path_on_bottleneck() {
        // Diamond: 0→1→3 and 0→2→3, each path 10 Mbps.
        let mut overlay = DiGraph::new(4);
        overlay.add_edge(NodeId(0), NodeId(1), 1.0);
        overlay.add_edge(NodeId(1), NodeId(3), 1.0);
        overlay.add_edge(NodeId(0), NodeId(2), 2.0);
        overlay.add_edge(NodeId(2), NodeId(3), 2.0);
        let delays = DistanceMatrix::off_diagonal(4, 5.0);
        let loads = [0.0; 4];
        let cap = DistanceMatrix::off_diagonal(4, 10.0);
        let f = [Flow {
            src: NodeId(0),
            dst: NodeId(3),
            rate_mbps: 18.0,
        }];
        let single = FlowRouter::new(RouterConfig { max_paths: 1 });
        let multi = FlowRouter::new(RouterConfig { max_paths: 2 });
        let inp = inputs(&overlay, &delays, &loads, &cap);
        assert_eq!(single.route(&f, &inp).delivered_mbps, 10.0);
        assert_eq!(multi.route(&f, &inp).delivered_mbps, 18.0);
        let out = multi.route(&f, &inp);
        assert_eq!(out.flows[0].paths_used, 2);
    }

    #[test]
    fn forwarded_and_consumed_feed_back() {
        let overlay = line_overlay();
        let delays = DistanceMatrix::off_diagonal(4, 5.0);
        let loads = [0.0; 4];
        let cap = DistanceMatrix::off_diagonal(4, 100.0);
        let out = FlowRouter::default().route(
            &[Flow {
                src: NodeId(0),
                dst: NodeId(3),
                rate_mbps: 9.0,
            }],
            &inputs(&overlay, &delays, &loads, &cap),
        );
        assert_eq!(out.forwarded, vec![9.0, 9.0, 9.0, 0.0]);
        let n = 4;
        assert_eq!(out.consumed[n + 2], 9.0); // 1→2
    }
}
