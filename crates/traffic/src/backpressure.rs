//! Differential-backlog (backpressure) forwarding over the overlay.
//!
//! Rai–Singh–Modiano (arXiv:1612.05537) show a backpressure scheme run
//! purely on overlay nodes is throughput-optimal: instead of committing
//! each flow to one precomputed path, every node keeps one queue per
//! destination and each overlay link forwards the commodity with the
//! largest backlog differential `Q_i(d) − Q_j(d)`. Traffic finds every
//! usable path automatically, so delivered throughput approaches the
//! overlay's multi-commodity capacity — at the price of queueing delay.
//!
//! This implementation is a slotted fluid simulation per epoch:
//!
//! * each epoch is divided into [`BackpressureConfig::slots`] service
//!   slots; a link `(i, j)` may move at most `capacity/slots` per slot;
//! * within a slot a link serves commodities by descending differential
//!   (ties broken toward the smallest destination id — deterministic),
//!   until the slot capacity is spent or no differential is positive;
//! * a per-link **virtual queue** tracks what the link moved last slot
//!   and is subtracted from the differential, so a link that just
//!   committed fluid does not immediately over-commit again
//!   (the overlay-tunnel pacing of the paper, collapsed to one scalar);
//! * queued fluid ages by `slot_ms` per slot (waiting cost) and parcels
//!   are charged true propagation plus load-proportional processing per
//!   hop, so reported latencies are comparable with the path routers';
//! * queues persist across epochs — bounded backlog under a fixed
//!   admissible load *is* the stability property the proptests pin.
//!
//! Everything iterates in fixed order (edge list order, ascending
//! destination id), so two same-seed runs are bit-identical.

use crate::demand::Flow;
use crate::queue::QueueBank;
use crate::router::{FlowTally, RouteInputs, RouteOutcome};
use egoist_graph::NodeId;
use std::collections::HashMap;

const EPS: f64 = 1e-9;

/// Backpressure tuning.
#[derive(Clone, Copy, Debug)]
pub struct BackpressureConfig {
    /// Service slots per epoch (more slots = finer fluid granularity,
    /// more work). Each link moves at most `capacity/slots` per slot.
    pub slots: usize,
    /// Simulated waiting cost per slot (ms): fluid still queued at the
    /// end of a slot accrues this much latency.
    pub slot_ms: f64,
}

impl Default for BackpressureConfig {
    fn default() -> Self {
        BackpressureConfig {
            slots: 16,
            slot_ms: 4.0,
        }
    }
}

/// The per-run backpressure state: per-destination queues plus per-link
/// virtual queues, persistent across epochs.
#[derive(Debug)]
pub struct BackpressureEngine {
    n: usize,
    cfg: BackpressureConfig,
    /// Per-hop processing delay per unit of true node load (shared with
    /// the path routers so latencies are comparable).
    proc_ms_per_load: f64,
    queues: QueueBank,
    /// Volume each link committed in its previous service slot.
    link_vq: HashMap<(u32, u32), f64>,
}

impl BackpressureEngine {
    pub fn new(n: usize, cfg: BackpressureConfig, proc_ms_per_load: f64) -> Self {
        BackpressureEngine {
            n,
            cfg,
            proc_ms_per_load,
            queues: QueueBank::new(n),
            link_vq: HashMap::new(),
        }
    }

    /// Total fluid queued anywhere — the stability observable.
    pub fn total_backlog(&self) -> f64 {
        self.queues.total_backlog()
    }

    /// Run one epoch of slotted backpressure forwarding.
    pub fn route_epoch(&mut self, flows: &[Flow], inp: &RouteInputs<'_>) -> RouteOutcome {
        let n = self.n;
        debug_assert_eq!(inp.overlay.len(), n);
        let slots = self.cfg.slots.max(1);

        // Deterministic edge list: DiGraph iteration order (by source
        // node, then adjacency order). Per-slot capacity and hop costs
        // are fixed for the epoch.
        struct Link {
            src: NodeId,
            dst: NodeId,
            cap_slot: f64,
            hop_lat: f64,
            hop_prop: f64,
        }
        let links: Vec<Link> = inp
            .overlay
            .edges()
            .filter_map(|(u, v, _)| {
                let cap = inp.capacity.get(u, v);
                if cap <= 0.0 {
                    return None;
                }
                let prop = inp.true_delays.get(u, v);
                Some(Link {
                    src: u,
                    dst: v,
                    cap_slot: cap / slots as f64,
                    hop_lat: prop + self.proc_ms_per_load * inp.node_load[v.index()],
                    hop_prop: prop,
                })
            })
            .collect();

        // Per-destination accounting for this epoch.
        let mut injected = vec![0.0f64; n];
        let mut delivered = vec![0.0f64; n];
        let mut del_lat = vec![0.0f64; n];
        let mut del_prop = vec![0.0f64; n];
        let mut consumed = vec![0.0f64; n * n];
        let mut forwarded = vec![0.0f64; n];
        for f in flows {
            injected[f.dst.index()] += f.rate_mbps;
        }

        for _slot in 0..slots {
            // Source injection: each flow feeds its destination queue.
            for f in flows {
                self.queues.inject(f.src, f.dst, f.rate_mbps / slots as f64);
            }

            // Link service, in fixed edge order.
            for link in &links {
                let vq = *self.link_vq.get(&(link.src.0, link.dst.0)).unwrap_or(&0.0);
                let mut cap_rem = link.cap_slot;
                let mut sent = 0.0;
                while cap_rem > EPS {
                    // Commodity with the largest positive differential;
                    // strict `>` keeps ties on the smallest id.
                    let mut best: Option<(usize, f64)> = None;
                    for d in 0..n {
                        let q_i = self.queues.backlog(link.src, NodeId(d as u32));
                        if q_i <= EPS {
                            continue;
                        }
                        let q_j = if d == link.dst.index() {
                            0.0
                        } else {
                            self.queues.backlog(link.dst, NodeId(d as u32))
                        };
                        let w = q_i - q_j - vq;
                        if w > EPS && best.map(|(_, bw)| w > bw).unwrap_or(true) {
                            best = Some((d, w));
                        }
                    }
                    let Some((d, _)) = best else { break };
                    let dest = NodeId(d as u32);
                    let avail = self.queues.backlog(link.src, dest);
                    let x = avail.min(cap_rem);
                    let mut parcel = self.queues.withdraw(link.src, dest, x);
                    if parcel.amount <= 0.0 {
                        break;
                    }
                    parcel.charge_hop(link.hop_lat, link.hop_prop);
                    if link.dst == dest {
                        delivered[d] += parcel.amount;
                        del_lat[d] += parcel.lat_mass;
                        del_prop[d] += parcel.prop_mass;
                    } else {
                        self.queues.deposit(link.dst, dest, parcel);
                    }
                    consumed[link.src.index() * n + link.dst.index()] += parcel.amount;
                    forwarded[link.src.index()] += parcel.amount;
                    sent += parcel.amount;
                    cap_rem -= x;
                }
                self.link_vq.insert((link.src.0, link.dst.0), sent);
            }

            self.queues.age(self.cfg.slot_ms);
        }

        // Attribute per-destination deliveries back to flows,
        // proportionally to each flow's share of the commodity injected
        // this epoch (backlog drain beyond that stays unattributed but
        // still counts toward delivered throughput).
        let mut tally = FlowTally::new(flows.len(), inp);
        for &flow in flows {
            let d = flow.dst.index();
            let frac = if injected[d] > 0.0 {
                (delivered[d] / injected[d]).min(1.0)
            } else {
                0.0
            };
            // `got > 0` implies `delivered[d] > 0`, so the means exist.
            let means = (del_lat[d] / delivered[d], del_prop[d] / delivered[d]);
            tally.settle(flow, flow.rate_mbps * frac, means, 0);
        }

        let obs = crate::router::traffic_obs();
        if egoist_obs::is_enabled() {
            for i in 0..n {
                let node = NodeId(i as u32);
                obs.queue_depth.observe(self.queues.node_depth(node));
                for d in 0..n {
                    let b = self.queues.backlog(node, NodeId(d as u32));
                    if b > 0.0 {
                        obs.backlog.observe(b);
                    }
                }
            }
        }

        RouteOutcome {
            delivered_mbps: delivered.iter().sum(),
            ..tally.finish(&consumed, &forwarded)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egoist_graph::{DiGraph, DistanceMatrix};

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
    fn admissible_line_drains_to_bounded_backlog() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        let delays = DistanceMatrix::off_diagonal(3, 5.0);
        let loads = [0.0; 3];
        let cap = DistanceMatrix::off_diagonal(3, 100.0);
        let mut bp = BackpressureEngine::new(3, BackpressureConfig::default(), 2.0);
        let flows = [Flow {
            src: NodeId(0),
            dst: NodeId(2),
            rate_mbps: 20.0,
        }];
        let mut last = 0.0;
        for _ in 0..8 {
            let out = bp.route_epoch(&flows, &inputs(&g, &delays, &loads, &cap));
            last = out.delivered_mbps;
        }
        // Steady state: deliveries match the offered rate and backlog
        // stays bounded (a couple of epochs of fluid in flight, tops).
        assert!(
            (last - 20.0).abs() < 2.0,
            "steady delivery ≈ offered: {last}"
        );
        assert!(bp.total_backlog() < 60.0, "{}", bp.total_backlog());
    }

    #[test]
    fn overload_delivers_at_capacity_and_queues_grow() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let delays = DistanceMatrix::off_diagonal(2, 5.0);
        let loads = [0.0; 2];
        let cap = DistanceMatrix::off_diagonal(2, 10.0);
        let mut bp = BackpressureEngine::new(2, BackpressureConfig::default(), 2.0);
        let flows = [Flow {
            src: NodeId(0),
            dst: NodeId(1),
            rate_mbps: 30.0,
        }];
        let inp = inputs(&g, &delays, &loads, &cap);
        let out1 = bp.route_epoch(&flows, &inp);
        let b1 = bp.total_backlog();
        let out2 = bp.route_epoch(&flows, &inp);
        let b2 = bp.total_backlog();
        assert!(out1.delivered_mbps <= 10.0 + 1e-6);
        assert!(out2.delivered_mbps <= 10.0 + 1e-6);
        assert!(b2 > b1, "inadmissible load must grow backlog: {b1} → {b2}");
    }

    #[test]
    fn uses_both_diamond_paths_beyond_single_path_capacity() {
        // Diamond 0→{1,2}→3, each link 10 Mbps: single-path tops out at
        // 10, backpressure should push toward 20.
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(1), NodeId(3), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        let delays = DistanceMatrix::off_diagonal(4, 5.0);
        let loads = [0.0; 4];
        let cap = DistanceMatrix::off_diagonal(4, 10.0);
        let mut bp = BackpressureEngine::new(4, BackpressureConfig::default(), 2.0);
        let flows = [Flow {
            src: NodeId(0),
            dst: NodeId(3),
            rate_mbps: 18.0,
        }];
        let mut last = 0.0;
        for _ in 0..10 {
            last = bp
                .route_epoch(&flows, &inputs(&g, &delays, &loads, &cap))
                .delivered_mbps;
        }
        assert!(last > 14.0, "backpressure should exceed one path: {last}");
    }

    #[test]
    fn same_inputs_bit_identical() {
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(1), NodeId(3), 1.0);
        let delays = DistanceMatrix::off_diagonal(4, 5.0);
        let loads = [0.0, 1.0, 0.0, 2.0];
        let cap = DistanceMatrix::off_diagonal(4, 25.0);
        let flows = [
            Flow {
                src: NodeId(0),
                dst: NodeId(2),
                rate_mbps: 9.0,
            },
            Flow {
                src: NodeId(0),
                dst: NodeId(3),
                rate_mbps: 9.0,
            },
        ];
        let run = || {
            let mut bp = BackpressureEngine::new(4, BackpressureConfig::default(), 2.0);
            let mut sig = Vec::new();
            for _ in 0..5 {
                let out = bp.route_epoch(&flows, &inputs(&g, &delays, &loads, &cap));
                sig.push((
                    out.delivered_mbps.to_bits(),
                    out.flows[0].latency_ms.to_bits(),
                ));
            }
            (sig, bp.total_backlog().to_bits())
        };
        assert_eq!(run(), run());
    }
}
