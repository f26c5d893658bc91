//! The two live-fleet workloads. End-to-end runs time `run_fleet`, the
//! call users make; traced runs step the same fleet through the public
//! node API ([`super::stepper`]) to get a span per drain sweep and tick.

use super::{scaled, stepper, timed_setup, Outcome, RunArgs};
use crate::spec;
use crate::stats::Fnv;
use crate::trace::Tracer;
use egoist_core::policies::PolicyKind;
use egoist_graph::NodeId;
use egoist_netsim::{FaultConfig, FaultPlan};
use egoist_proto::fleet::{chaos_n1000_profile, run_fleet, FleetConfig, RobustnessReport};
use std::time::{Duration, Instant};

/// The input shape of one fleet workload.
pub struct Shape {
    pub scenario: &'static str,
    pub n: usize,
    /// `true`: Random wiring, 10% loss, storm + partition. `false`:
    /// best response on a pristine network.
    pub chaos: bool,
    /// Virtual seconds.
    pub horizon: u64,
    /// `final_reachability` must reach this.
    pub reach_floor: f64,
}

/// The horizon is the one size `--seconds` moves; below this many
/// virtual seconds the fleet has not converged and the workload would
/// measure only the join cascade.
const MIN_HORIZON: usize = 200;

/// ~35 virtual s per host second at n=600 on the reference host.
pub fn chaos(args: &RunArgs) -> Shape {
    Shape {
        scenario: spec::FLEET_CHAOS,
        n: if args.smoke { 40 } else { 600 },
        chaos: true,
        horizon: scaled(args.seconds, 26.0, MIN_HORIZON) as u64,
        reach_floor: 0.95,
    }
}

/// The per-turn dense APSP makes virtual time ~19 s per host second at
/// n=300, k=4.
pub fn best_response(args: &RunArgs) -> Shape {
    Shape {
        scenario: spec::FLEET_BR,
        n: if args.smoke { 40 } else { 300 },
        chaos: false,
        horizon: scaled(args.seconds, 20.0, MIN_HORIZON) as u64,
        reach_floor: 0.90,
    }
}

/// `chaos_n1000_profile(true)`'s knob values (fanout 3, ttl 2, 10 ms
/// wheel, 20 s sampling, k=4...) rebuilt at the shape's `n`: storm =
/// first n/4, minority = last n/8, windows at the profile's fractions
/// of the horizon.
pub fn fleet_config(shape: &Shape, seed: u64) -> FleetConfig {
    let mut cfg = chaos_n1000_profile(true);
    let n = shape.n;
    cfg.scenario = shape.scenario.to_string();
    cfg.n = n;
    cfg.seed = seed;
    cfg.horizon = Duration::from_secs(shape.horizon);
    if shape.chaos {
        let h = shape.horizon as f64;
        let storm: Vec<NodeId> = (0..n / 4).map(NodeId::from_index).collect();
        let minority: Vec<NodeId> = (n - n / 8..n).map(NodeId::from_index).collect();
        cfg.plan = FaultPlan::new()
            .churn_storm(0.25 * h, 0.48 * h, storm, 30.0, 0.3)
            .partition(0.54 * h, 0.66 * h, vec![vec![], minority]);
    } else {
        cfg.policy = PolicyKind::BestResponse;
        cfg.fault = FaultConfig::default();
        cfg.plan = FaultPlan::new();
    }
    cfg
}

/// Set-up: build the configuration and run a 32-node, 60-virtual-second
/// fleet of the same kind, which touches every lazily built piece (obs
/// handles, runtime, allocator arenas). The full fleet's spawn phase
/// stays in `wall_s`: users pay it on every run.
fn setup(shape: &Shape, seed: u64) -> FleetConfig {
    let warm = Shape {
        n: 32,
        horizon: 60,
        ..*shape
    };
    std::hint::black_box(run_fleet(&fleet_config(&warm, seed)));
    fleet_config(shape, seed)
}

const FLEET_SETUP_REPS: usize = 5;

fn ctrl_bytes_per_node_s(bytes: u64, cfg: &FleetConfig) -> f64 {
    bytes as f64 / (cfg.n as f64 * cfg.horizon.as_secs_f64())
}

/// Ordered live honest pairs at the last sample, from the plan alone.
fn live_pairs(cfg: &FleetConfig, at: f64) -> u64 {
    let live = (0..cfg.n)
        .filter(|&i| !cfg.plan.node_off(at, NodeId::from_index(i)))
        .count() as u64;
    live * live.saturating_sub(1)
}

fn end_to_end(out: &mut Outcome, shape: &Shape, cfg: &FleetConfig, report: &RobustnessReport) {
    let reach = report.final_reachability;
    out.e2e.insert(spec::FINAL_REACHABILITY, reach);
    let bytes: u64 = report.overhead.iter().map(|(_, _, b)| b).sum();
    out.e2e
        .insert(spec::CTRL_BYTES, ctrl_bytes_per_node_s(bytes, cfg));
    if shape.chaos {
        // Virtual seconds from the partition's heal to the first
        // sample back over the threshold; the rest of the horizon when
        // the fleet never got there.
        let partition = report.windows.iter().find(|w| w.kind == "partition");
        let recovery = partition.and_then(|w| w.recovery_secs);
        out.check(
            "fleet reconverged after the partition healed",
            recovery.is_some(),
        );
        let heal = partition.map_or(0.0, |w| w.to);
        out.e2e.insert(
            spec::RECONVERGE_S,
            recovery.unwrap_or(report.horizon_secs - heal),
        );
    }
    let last_sample = report.timeline.last().map_or(0.0, |&(t, _)| t);
    out.ops = live_pairs(cfg, last_sample);
    if reach.is_finite() && (0.0..=1.0).contains(&reach) {
        out.ops_lost = ((1.0 - reach) * out.ops as f64).round() as u64;
    } else {
        out.failed = out.ops;
    }
    let mut fp = Fnv::default();
    fp.bytes(report.to_json().as_bytes());
    out.fingerprint = fp.finish();
    out.check(
        format!("final_reachability >= {}", shape.reach_floor),
        reach >= shape.reach_floor,
    );
}

pub fn run(shape: &Shape, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (cfg, setup_s) = timed_setup(FLEET_SETUP_REPS, || setup(shape, args.seed));
    out.sizes = vec![
        ("n", cfg.n as f64),
        ("k", cfg.k as f64),
        ("horizon_virtual_s", shape.horizon as f64),
    ];
    out.e2e.insert(spec::SETUP_S, setup_s);

    if !tracer.on() {
        let t = Instant::now();
        let report = run_fleet(&cfg);
        out.e2e.insert(spec::WALL_S, t.elapsed().as_secs_f64());
        end_to_end(&mut out, shape, &cfg, &report);
        return out;
    }

    egoist_obs::registry().reset();
    let from_ns = tracer.mark();
    let t = Instant::now();
    let stepped = stepper::run(&cfg, tracer);
    let wall_s = t.elapsed().as_secs_f64();
    let traced_ms = tracer.top_level_ms_since(from_ns);
    out.e2e.insert(spec::WALL_S, wall_s);

    // Read the registry before the reference run adds to it.
    let reg = egoist_obs::registry();
    let recv_frames: u64 = egoist_proto::message::MessageClass::ALL
        .iter()
        .map(|c| reg.counter_value(&format!("proto.recv.{}.frames", c.label())))
        .sum();
    let (fault_dropped, fault_cut) = (
        reg.counter_value("netsim.fault.dropped"),
        reg.counter_value("netsim.fault.cut"),
    );

    let report = run_fleet(&cfg);
    end_to_end(&mut out, shape, &cfg, &report);
    let matches = stepper::matches_report(&stepped, &report);
    if !matches {
        eprintln!(
            "warning: stepper diverged from run_fleet on {} (timeline {:?} vs {:?})",
            cfg.scenario, stepped.timeline, report.timeline
        );
    }

    let sum = |f: fn(&egoist_proto::node::NodeView) -> u64| -> f64 {
        stepped.views.iter().map(f).sum::<u64>() as f64
    };
    let l = &mut out.layers;
    for (metric, span) in [
        ("proto.spawn.ms", "proto.spawn"),
        ("proto.simnet.deliver.ms", "proto.simnet.deliver"),
        ("proto.drain.ms", "proto.drain"),
        ("proto.tick_ping.ms", "proto.tick_ping"),
        ("proto.tick_announce.ms", "proto.tick_announce"),
        ("proto.tick_sync.ms", "proto.tick_sync"),
        ("proto.tick_join.ms", "proto.tick_join"),
        ("proto.tick_epoch.ms", "proto.tick_epoch"),
    ] {
        l.insert(metric, tracer.total_ms(span));
    }
    let drain_ms = tracer.total_ms("proto.drain");
    let epoch_calls = tracer.calls("proto.tick_epoch");
    l.insert("proto.drain.calls", tracer.calls("proto.drain") as f64);
    l.insert("proto.tick_epoch.calls", epoch_calls as f64);
    l.insert(
        "proto.tick_epoch.ms_per_call",
        tracer.total_ms("proto.tick_epoch") / epoch_calls.max(1) as f64,
    );
    l.insert("fleet.wheel.self.ms", wall_s * 1e3 - traced_ms);
    l.insert("proto.frames.sent", stepped.frames_sent as f64);
    l.insert("proto.bytes.sent", stepped.bytes_sent as f64);
    l.insert(
        "proto.drain.us_per_frame",
        drain_ms * 1e3 / recv_frames.max(1) as f64,
    );
    l.insert("proto.gossip.forwards", sum(|v| v.gossip_forwards));
    let announces = sum(|v| v.announces);
    let link_state = stepper::frames_by_class(&stepped.views)
        .iter()
        .find(|(class, _)| class == "link_state")
        .map_or(0, |(_, frames)| *frames);
    let full_flood = announces * cfg.n.saturating_sub(1) as f64;
    l.insert(
        "proto.flood_ratio",
        if full_flood > 0.0 {
            link_state as f64 / full_flood
        } else {
            0.0
        },
    );
    l.insert("proto.ae.digests", sum(|v| v.ae_digests));
    l.insert("proto.ae.pulls", sum(|v| v.ae_pulls));
    l.insert("proto.ae.pushed_lsas", sum(|v| v.ae_pushed));
    l.insert("proto.decode_errors", sum(|v| v.decode_errors));
    l.insert("proto.join.retries", sum(|v| v.join_retries));
    l.insert("proto.peer.demotions", sum(|v| v.demotions));
    l.insert(
        "proto.route_stretch",
        stepper::route_stretch(&stepped.views, &stepped.delays),
    );
    l.insert("proto.stepper.matches", f64::from(u8::from(matches)));
    l.insert("netsim.fault.dropped", fault_dropped as f64);
    l.insert("netsim.fault.cut", fault_cut as f64);
    l.insert("trace.coverage", traced_ms / (wall_s * 1e3));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_keep_the_profile_knobs_and_rescale_the_plan() {
        let args = RunArgs {
            workload: String::new(),
            seed: 7,
            seconds: 10,
            traced: false,
            smoke: false,
        };
        let profile = chaos_n1000_profile(true);
        let cfg = fleet_config(&chaos(&args), 7);
        assert_eq!((cfg.n, cfg.k, cfg.seed), (600, profile.k, 7));
        assert_eq!(cfg.horizon, Duration::from_secs(260));
        assert_eq!(cfg.gossip_fanout, profile.gossip_fanout);
        assert_eq!(cfg.wheel_step, profile.wheel_step);
        assert_eq!(cfg.plan.windows.len(), 2);
        // Mid-partition (0.54h..0.66h) the last n/8 are cut from the rest.
        assert!(cfg.plan.cuts(150.0, NodeId(0), NodeId(599)));
        assert!(!cfg.plan.cuts(150.0, NodeId(0), NodeId(1)));
        let cfg = fleet_config(&best_response(&args), 7);
        assert_eq!(cfg.policy, PolicyKind::BestResponse);
        assert!(cfg.plan.windows.is_empty());
        assert_eq!(cfg.fault.drop_chance, 0.0);
        assert_eq!(live_pairs(&cfg, 200.0), 300 * 299);
    }
}
