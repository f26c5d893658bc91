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
use crate::paths::PROC_MS_PER_LOAD;
use crate::queue::{InjectionRuns, QueueBank};
use crate::router::{FlowTally, RouteInputs, RouteOutcome};
use egoist_graph::NodeId;
use std::collections::BinaryHeap;

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
    queues: QueueBank,
    /// Row-major `n × n`: volume each link committed in its previous
    /// service slot (0 for a link that never served).
    link_vq: Vec<f64>,
}

/// One overlay link's constants for an epoch.
struct Link {
    src: NodeId,
    dst: NodeId,
    cap_slot: f64,
    hop_lat: f64,
    hop_prop: f64,
}

/// Per-destination deliveries of one epoch.
struct Delivered {
    amount: Vec<f64>,
    lat_mass: Vec<f64>,
    prop_mass: Vec<f64>,
    /// Row-major `n × n` carried volume and per-node transmitted volume.
    consumed: Vec<f64>,
    forwarded: Vec<f64>,
}

impl Delivered {
    fn new(n: usize) -> Self {
        Delivered {
            amount: vec![0.0; n],
            lat_mass: vec![0.0; n],
            prop_mass: vec![0.0; n],
            consumed: vec![0.0; n * n],
            forwarded: vec![0.0; n],
        }
    }
}

/// The serve order key of commodity `d` at differential `w > EPS`: a
/// positive float's bits order like its value, and the low word makes
/// ties pop the smaller id first from a max-heap.
fn serve_key(w: f64, d: usize) -> u128 {
    (u128::from(w.to_bits()) << 32) | u128::from(u32::MAX - d as u32)
}

impl BackpressureEngine {
    pub fn new(n: usize, cfg: BackpressureConfig) -> Self {
        BackpressureEngine {
            n,
            cfg,
            queues: QueueBank::new(n),
            link_vq: vec![0.0; n * n],
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
        let links = self.links(inp, slots);

        // Per-destination accounting for this epoch.
        let mut injected = vec![0.0f64; n];
        for f in flows {
            injected[f.dst.index()] += f.rate_mbps;
        }
        let mut acc = Delivered::new(n);
        let injection = InjectionRuns::new(n, flows, slots);
        let mut order = BinaryHeap::with_capacity(n);
        for _slot in 0..slots {
            // Source injection: each flow feeds its destination queue.
            self.queues.inject_runs(&injection);
            // Link service, in fixed edge order.
            for link in &links {
                self.serve(link, &mut order, &mut acc);
            }
            self.queues.age(self.cfg.slot_ms);
        }
        self.settle(flows, inp, &injected, &acc)
    }

    /// Deterministic edge list: DiGraph iteration order (by source node,
    /// then adjacency order). Per-slot capacity and hop costs are fixed
    /// for the epoch.
    fn links(&self, inp: &RouteInputs<'_>, slots: usize) -> Vec<Link> {
        let edges = inp.overlay.edges();
        edges
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
                    hop_lat: prop + PROC_MS_PER_LOAD * inp.node_load[v.index()],
                    hop_prop: prop,
                })
            })
            .collect()
    }

    /// One slot of `link`: serve commodities by descending differential
    /// `w = Q_src(d) − Q_dst(d) − VQ` (ties to the smaller id, `w > EPS`
    /// only) until the slot's capacity is spent.
    ///
    /// One scan fixes the order. Serving `d` moves only `Q_src(d)` and
    /// `Q_dst(d)`, and `VQ` is read once, so no other differential
    /// changes; and each serve either drains `Q_src(d)` to exactly 0
    /// (dropping `d` out) or spends the remaining capacity to exactly 0
    /// (ending the slot). Re-running the argmax after each serve, as the
    /// textbook loop does, therefore picks the next key of this scan.
    fn serve(&mut self, link: &Link, order: &mut BinaryHeap<u128>, acc: &mut Delivered) {
        let n = self.n;
        let at = link.src.index() * n + link.dst.index();
        let vq = self.link_vq[at];
        let mut cap_rem = link.cap_slot;
        let mut sent = 0.0;
        // The heap's own buffer holds the scan, then is heapified in place.
        let mut keys = std::mem::take(order).into_vec();
        keys.clear();
        if cap_rem > EPS {
            let here = self.queues.backlog_row(link.src);
            let there = self.queues.backlog_row(link.dst);
            // Branch-free compaction: every key is written, only the
            // eligible ones advance `kept`.
            keys.resize(n, 0);
            let mut kept = 0;
            for d in 0..n {
                let q_i = here[d];
                let q_j = if d == link.dst.index() { 0.0 } else { there[d] };
                let w = q_i - q_j - vq;
                keys[kept] = serve_key(w, d);
                kept += usize::from(q_i > EPS && w > EPS);
            }
            keys.truncate(kept);
        }
        *order = BinaryHeap::from(keys);
        while cap_rem > EPS {
            let Some(key) = order.pop() else { break };
            let d = (u32::MAX - key as u32) as usize;
            let dest = NodeId(d as u32);
            let avail = self.queues.backlog(link.src, dest);
            let x = avail.min(cap_rem);
            let mut parcel = self.queues.withdraw(link.src, dest, x);
            if parcel.amount <= 0.0 {
                break;
            }
            parcel.charge_hop(link.hop_lat, link.hop_prop);
            if link.dst == dest {
                acc.amount[d] += parcel.amount;
                acc.lat_mass[d] += parcel.lat_mass;
                acc.prop_mass[d] += parcel.prop_mass;
            } else {
                self.queues.deposit(link.dst, dest, parcel);
            }
            acc.consumed[at] += parcel.amount;
            acc.forwarded[link.src.index()] += parcel.amount;
            sent += parcel.amount;
            cap_rem -= x;
        }
        self.link_vq[at] = sent;
    }

    /// Close the epoch: attribute per-destination deliveries back to
    /// flows, proportionally to each flow's share of the commodity
    /// injected this epoch (backlog drain beyond that stays unattributed
    /// but still counts toward delivered throughput).
    fn settle(
        &self,
        flows: &[Flow],
        inp: &RouteInputs<'_>,
        injected: &[f64],
        acc: &Delivered,
    ) -> RouteOutcome {
        // Per destination, once: the delivered fraction and the means
        // (`got > 0` implies `delivered > 0`, so a mean a flow reads
        // exists).
        let per_dest: Vec<(f64, (f64, f64))> = (0..self.n)
            .map(|d| {
                let delivered = acc.amount[d];
                let frac = if injected[d] > 0.0 {
                    (delivered / injected[d]).min(1.0)
                } else {
                    0.0
                };
                (
                    frac,
                    (acc.lat_mass[d] / delivered, acc.prop_mass[d] / delivered),
                )
            })
            .collect();
        let mut tally = FlowTally::new(flows.len(), inp);
        for &flow in flows {
            let (frac, means) = per_dest[flow.dst.index()];
            tally.settle(flow, flow.rate_mbps * frac, means, 0);
        }
        self.observe_queues();
        RouteOutcome {
            delivered_mbps: acc.amount.iter().sum(),
            ..tally.finish(&acc.consumed, &acc.forwarded)
        }
    }

    fn observe_queues(&self) {
        if !egoist_obs::is_enabled() {
            return;
        }
        let obs = crate::router::traffic_obs();
        for i in 0..self.n {
            let node = NodeId(i as u32);
            obs.queue_depth.observe(self.queues.node_depth(node));
            for &b in self.queues.backlog_row(node) {
                if b > 0.0 {
                    obs.backlog.observe(b);
                }
            }
        }
    }
}

/// The pre-optimisation epoch, kept as the test oracle: per-flow
/// injection every slot and a fresh argmax over all commodities before
/// every serve.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn route_epoch(
        bp: &mut BackpressureEngine,
        flows: &[Flow],
        inp: &RouteInputs<'_>,
    ) -> RouteOutcome {
        let n = bp.n;
        let slots = bp.cfg.slots.max(1);
        let links = bp.links(inp, slots);
        let mut injected = vec![0.0f64; n];
        for f in flows {
            injected[f.dst.index()] += f.rate_mbps;
        }
        let mut acc = Delivered::new(n);
        for _slot in 0..slots {
            for f in flows {
                bp.queues.inject(f.src, f.dst, f.rate_mbps / slots as f64);
            }
            for link in &links {
                let at = link.src.index() * n + link.dst.index();
                let vq = bp.link_vq[at];
                let mut cap_rem = link.cap_slot;
                let mut sent = 0.0;
                while cap_rem > EPS {
                    let mut best: Option<(usize, f64)> = None;
                    for d in 0..n {
                        let q_i = bp.queues.backlog(link.src, NodeId(d as u32));
                        if q_i <= EPS {
                            continue;
                        }
                        let q_j = if d == link.dst.index() {
                            0.0
                        } else {
                            bp.queues.backlog(link.dst, NodeId(d as u32))
                        };
                        let w = q_i - q_j - vq;
                        if w > EPS && best.map(|(_, bw)| w > bw).unwrap_or(true) {
                            best = Some((d, w));
                        }
                    }
                    let Some((d, _)) = best else { break };
                    let dest = NodeId(d as u32);
                    let avail = bp.queues.backlog(link.src, dest);
                    let x = avail.min(cap_rem);
                    let mut parcel = bp.queues.withdraw(link.src, dest, x);
                    if parcel.amount <= 0.0 {
                        break;
                    }
                    parcel.charge_hop(link.hop_lat, link.hop_prop);
                    if link.dst == dest {
                        acc.amount[d] += parcel.amount;
                        acc.lat_mass[d] += parcel.lat_mass;
                        acc.prop_mass[d] += parcel.prop_mass;
                    } else {
                        bp.queues.deposit(link.dst, dest, parcel);
                    }
                    acc.consumed[at] += parcel.amount;
                    acc.forwarded[link.src.index()] += parcel.amount;
                    sent += parcel.amount;
                    cap_rem -= x;
                }
                bp.link_vq[at] = sent;
            }
            bp.queues.age(bp.cfg.slot_ms);
        }
        let mut tally = FlowTally::new(flows.len(), inp);
        for &flow in flows {
            let d = flow.dst.index();
            let frac = if injected[d] > 0.0 {
                (acc.amount[d] / injected[d]).min(1.0)
            } else {
                0.0
            };
            let means = (
                acc.lat_mass[d] / acc.amount[d],
                acc.prop_mass[d] / acc.amount[d],
            );
            tally.settle(flow, flow.rate_mbps * frac, means, 0);
        }
        RouteOutcome {
            delivered_mbps: acc.amount.iter().sum(),
            ..tally.finish(&acc.consumed, &acc.forwarded)
        }
    }

    /// Every queue accumulator's bits and every virtual queue's bits.
    pub(crate) fn state_bits(bp: &BackpressureEngine) -> (Vec<u64>, Vec<u64>) {
        let vq = bp.link_vq.iter().map(|v| v.to_bits()).collect();
        (bp.queues.bits(), vq)
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
        let mut bp = BackpressureEngine::new(3, BackpressureConfig::default());
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
        let mut bp = BackpressureEngine::new(2, BackpressureConfig::default());
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
        let mut bp = BackpressureEngine::new(4, BackpressureConfig::default());
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
            let mut bp = BackpressureEngine::new(4, BackpressureConfig::default());
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
