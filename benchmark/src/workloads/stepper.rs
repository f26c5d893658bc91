//! A benchmark-owned re-drive of `run_fleet`'s timer-wheel loop.
//!
//! `run_fleet` is one opaque call, so the traced run of a fleet
//! workload steps the same fleet through the public API instead —
//! `SimNet::with_plan`, `BootstrapServer`, and `EgoistNode`'s `new`,
//! `start`, `drain`, `tick_*`, `shutdown_now`, `view_handle` — with a
//! span around each drain sweep and each tick. The loop below mirrors
//! `egoist_proto::fleet::run_fleet_inner` statement for statement (same
//! wheel order, same phases, same delay substrate), so its outputs must
//! equal `run_fleet`'s; [`matches_report`] checks that they do.

use crate::trace::Tracer;
use egoist_graph::{DistanceMatrix, NodeId};
use egoist_netsim::FaultPlan;
use egoist_proto::bootstrap::{BootstrapServer, Registry};
use egoist_proto::fleet::{FleetConfig, RobustnessReport};
use egoist_proto::message::MessageClass;
use egoist_proto::node::{EgoistNode, NodeConfig, NodeView};
use egoist_proto::transport::{FaultStats, SimNet, SimTransport};
use parking_lot::RwLock;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// What a stepped fleet leaves behind.
pub struct SteppedFleet {
    /// Every node's published view at the horizon (before shutdown).
    pub views: Vec<NodeView>,
    /// `(virtual_secs, reachability)` samples.
    pub timeline: Vec<(f64, f64)>,
    pub fault: FaultStats,
    pub frames_sent: u64,
    pub bytes_sent: u64,
    /// The delay substrate the fleet ran on.
    pub delays: DistanceMatrix,
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fleet's metric delay substrate: seeded positions in a 20×20 ms
/// square, `d(i,j) = 4 + |pᵢ − pⱼ|` ms.
pub fn delay_matrix(total: usize, seed: u64) -> DistanceMatrix {
    let coord = |i: usize, axis: u64| {
        let z = mix64(
            seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ axis.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        (z >> 11) as f64 / (1u64 << 53) as f64 * 20.0
    };
    let pos: Vec<(f64, f64)> = (0..total).map(|i| (coord(i, 1), coord(i, 2))).collect();
    DistanceMatrix::from_fn(total, |i, j| {
        if i == j {
            0.0
        } else {
            let (dx, dy) = (pos[i].0 - pos[j].0, pos[i].1 - pos[j].1);
            4.0 + (dx * dx + dy * dy).sqrt()
        }
    })
}

fn node_config(cfg: &FleetConfig, i: usize, boot: NodeId) -> NodeConfig {
    let mut nc = NodeConfig::new(NodeId::from_index(i), cfg.n + cfg.sybils, cfg.k);
    nc.policy = cfg.policy;
    nc.epoch = cfg.epoch;
    nc.announce_interval = cfg.announce_interval;
    nc.ping_interval = cfg.ping_interval;
    nc.liveness_timeout = cfg.liveness_timeout;
    nc.bootstrap = Some(boot);
    nc.seed = cfg.seed.wrapping_mul(1031).wrapping_add(i as u64);
    nc.inline_rewire = true;
    nc.gossip_fanout = cfg.gossip_fanout;
    nc.gossip_ttl = cfg.gossip_ttl;
    nc.sync_interval = cfg.sync_interval;
    nc.ping_sample = cfg.ping_sample;
    nc.announce_refresh = cfg.announce_refresh;
    nc.lsdb_max_age = cfg.lsdb_max_age;
    nc.claims = cfg.claims;
    nc.expose_route_edges = cfg.expose_route_edges;
    nc
}

/// Reachable share of the ordered honest pairs whose both ends the plan
/// has not churned off at `now`.
fn reachability(views: &[NodeView], plan: &FaultPlan, now: f64) -> f64 {
    let on: Vec<bool> = (0..views.len())
        .map(|i| !plan.node_off(now, NodeId::from_index(i)))
        .collect();
    let (mut reachable, mut pairs) = (0u64, 0u64);
    for (i, v) in views.iter().enumerate() {
        if !on[i] {
            continue;
        }
        for (j, &on_j) in on.iter().enumerate() {
            if j == i || !on_j {
                continue;
            }
            pairs += 1;
            if v.next_hops.get(j).is_some_and(Option::is_some) {
                reachable += 1;
            }
        }
    }
    if pairs == 0 {
        1.0
    } else {
        reachable as f64 / pairs as f64
    }
}

const K_SPAWN: u8 = 0;
const K_PING: u8 = 1;
const K_ANNOUNCE: u8 = 2;
const K_SYNC: u8 = 3;
const K_JOIN: u8 = 4;
const K_EPOCH: u8 = 5;

/// Step `cfg`'s fleet to its horizon on the paused clock.
pub fn run(cfg: &FleetConfig, tracer: &mut Tracer) -> SteppedFleet {
    assert!(
        cfg.adversary.is_none() && cfg.sybils == 0,
        "the stepper drives honest fleets only"
    );
    tokio::runtime::block_on_paused(run_inner(cfg, tracer))
}

async fn run_inner(cfg: &FleetConfig, tracer: &mut Tracer) -> SteppedFleet {
    let boot = NodeId::from_index(cfg.n);
    let delays = delay_matrix(cfg.n + 1, cfg.seed);
    let net = SimNet::with_plan(delays.clone(), cfg.fault, Some(cfg.plan.clone()), cfg.seed);
    tokio::spawn(BootstrapServer::new(net.endpoint(boot), Registry::default()).run());

    let us = |d: std::time::Duration| d.as_micros() as u64;
    let step_us = us(cfg.wheel_step).max(1);
    let horizon_us = us(cfg.horizon);
    let sample_us = us(cfg.sample_every);
    let samples = (cfg.horizon.as_secs_f64() / cfg.sample_every.as_secs_f64()).floor() as usize;

    let mut nodes: Vec<Option<EgoistNode<SimTransport>>> = (0..cfg.n).map(|_| None).collect();
    let mut handles: Vec<Option<Arc<RwLock<NodeView>>>> = vec![None; cfg.n];
    let mut wheel: BinaryHeap<Reverse<(u64, u32, u8)>> = BinaryHeap::new();
    for i in 0..cfg.n {
        wheel.push(Reverse((
            i as u64 * us(cfg.spawn_spacing),
            i as u32,
            K_SPAWN,
        )));
    }
    let snapshot = |handles: &[Option<Arc<RwLock<NodeView>>>]| -> Vec<NodeView> {
        handles
            .iter()
            .map(|h| h.as_ref().map(|v| v.read().clone()).unwrap_or_default())
            .collect()
    };

    let mut timeline = Vec::with_capacity(samples);
    let mut next_sample_us = sample_us;
    let mut now_us = 0u64;
    while now_us < horizon_us {
        // Advancing the virtual clock is where the runtime fires every
        // in-flight frame's delivery task (SimNet spawns one per frame)
        // and runs the bootstrap server.
        let open = tracer.begin("proto.simnet.deliver", String::new);
        tokio::time::sleep(cfg.wheel_step).await;
        tracer.end(open);
        now_us += step_us;
        let open = tracer.begin("proto.drain", String::new);
        for node in nodes.iter_mut().flatten() {
            node.drain().await;
        }
        tracer.end(open);
        while let Some(&Reverse((due, ni, kind))) = wheel.peek() {
            if due > now_us {
                break;
            }
            wheel.pop();
            let i = ni as usize;
            let ctx = || format!("node={i}");
            if kind == K_SPAWN {
                let open = tracer.begin("proto.spawn", ctx);
                let nc = node_config(cfg, i, boot);
                let join0 = us(nc.join_backoff_base).max(1);
                let endpoint = net.endpoint(nc.id);
                let mut node = EgoistNode::new(nc, endpoint);
                node.start().await;
                handles[i] = Some(node.view_handle());
                nodes[i] = Some(node);
                tracer.end(open);
                let frac = i as f64 / cfg.n.max(1) as f64;
                let ann0 = (us(cfg.announce_interval) / 10).max(1);
                let sync0 = us(cfg.sync_interval.mul_f64(0.25 + 0.75 * frac)).max(1);
                let epoch0 = us(cfg.epoch.mul_f64(frac)).max(step_us);
                wheel.push(Reverse((due + 10_000, ni, K_PING)));
                wheel.push(Reverse((due + ann0, ni, K_ANNOUNCE)));
                wheel.push(Reverse((due + sync0, ni, K_SYNC)));
                wheel.push(Reverse((due + join0, ni, K_JOIN)));
                wheel.push(Reverse((due + epoch0, ni, K_EPOCH)));
                continue;
            }
            let node = nodes[i].as_mut().expect("tick before spawn");
            let rearm = match kind {
                K_PING => {
                    let open = tracer.begin("proto.tick_ping", ctx);
                    node.tick_ping().await;
                    tracer.end(open);
                    us(cfg.ping_interval)
                }
                K_ANNOUNCE => {
                    let open = tracer.begin("proto.tick_announce", ctx);
                    node.tick_announce().await;
                    tracer.end(open);
                    us(cfg.announce_interval)
                }
                K_SYNC => {
                    let open = tracer.begin("proto.tick_sync", ctx);
                    node.tick_sync().await;
                    tracer.end(open);
                    us(cfg.sync_interval)
                }
                K_JOIN => {
                    let open = tracer.begin("proto.tick_join", ctx);
                    let delay = node.tick_join().await;
                    tracer.end(open);
                    us(delay).max(step_us)
                }
                _ => {
                    let open = tracer.begin("proto.tick_epoch", ctx);
                    node.tick_epoch().await;
                    tracer.end(open);
                    us(cfg.epoch)
                }
            };
            wheel.push(Reverse((due + rearm, ni, kind)));
        }
        if timeline.len() < samples && now_us >= next_sample_us {
            let nominal = (timeline.len() + 1) as f64 * cfg.sample_every.as_secs_f64();
            let r = reachability(&snapshot(&handles), &cfg.plan, nominal);
            timeline.push((nominal, r));
            next_sample_us += sample_us;
        }
    }

    let views = snapshot(&handles);
    let fault = net.fault_stats();
    for node in nodes.iter_mut().flatten() {
        node.shutdown_now().await;
    }
    SteppedFleet {
        views,
        timeline,
        fault,
        frames_sent: net.frames_sent(),
        bytes_sent: net.bytes_sent(),
        delays,
    }
}

/// Honest frames sent per message class, summed over views.
pub fn frames_by_class(views: &[NodeView]) -> Vec<(String, u64)> {
    MessageClass::ALL
        .iter()
        .map(|&c| {
            (
                c.label().to_string(),
                views.iter().map(|v| v.overhead.frames(c)).sum(),
            )
        })
        .collect()
}

/// Whether the stepped fleet ended where `run_fleet` did: same
/// reachability timeline, same honest frame count in every class, same
/// fault-injector verdict counts.
pub fn matches_report(stepped: &SteppedFleet, report: &RobustnessReport) -> bool {
    let report_frames: Vec<(String, u64)> = report
        .overhead
        .iter()
        .map(|(class, frames, _)| (class.clone(), *frames))
        .collect();
    stepped.timeline == report.timeline
        && frames_by_class(&stepped.views) == report_frames
        && stepped.fault == report.fault
}

/// Mean over reachable ordered pairs of (delay along the published
/// next hops) ÷ (direct delay) — the live fleet's analogue of the
/// simulator's cost ÷ full-mesh cost.
pub fn route_stretch(views: &[NodeView], delays: &DistanceMatrix) -> f64 {
    let n = views.len();
    let (mut sum, mut pairs) = (0.0, 0u64);
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let (mut at, mut path, mut hops) = (src, 0.0, 0);
            while at != dst && hops <= n {
                let Some(Some(next)) = views[at].next_hops.get(dst) else {
                    break;
                };
                path += delays.at(at, next.index());
                at = next.index();
                hops += 1;
            }
            if at == dst {
                sum += path / delays.at(src, dst);
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        sum / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::fleet;
    use crate::workloads::RunArgs;
    use egoist_proto::fleet::run_fleet;

    #[test]
    fn stepper_ends_where_run_fleet_does() {
        let args = RunArgs {
            workload: String::new(),
            seed: 11,
            seconds: 10,
            traced: true,
            smoke: true,
        };
        for shape in [fleet::chaos(&args), fleet::best_response(&args)] {
            let cfg = fleet::fleet_config(&shape, args.seed);
            assert_eq!(cfg.n, 40);
            let report = run_fleet(&cfg);
            let mut tracer = Tracer::new(true);
            let stepped = run(&cfg, &mut tracer);
            assert!(
                matches_report(&stepped, &report),
                "{}: stepper {:?} vs run_fleet {:?}",
                cfg.scenario,
                stepped.timeline,
                report.timeline
            );
            assert!(tracer.calls("proto.drain") > 0 && tracer.calls("proto.tick_epoch") > 0);
            let stretch = route_stretch(&stepped.views, &stepped.delays);
            assert!(stretch >= 1.0 - 1e-9, "metric substrate: {stretch}");
        }
    }
}
