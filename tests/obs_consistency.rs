//! Cross-layer consistency of the `egoist-obs` registry.
//!
//! Four claims pinned here:
//!
//! 1. the protocol layer's registry counters agree *exactly* with the
//!    per-node ledgers summed over a full overlay run: each per-class
//!    send counter with the [`OverheadCounters`] of the views, and each
//!    [`Tally`] that names an obs counter with the views' [`Tallies`] —
//!    the two accounting paths (obs registry vs. the §4.3 overhead
//!    accountant and the node's tallies) see every frame and every
//!    counted event the same way;
//! 2. instrumentation is invisible to the simulation: a closed-loop
//!    traffic run produces a byte-identical report whether obs (and the
//!    flight recorder) is on or off;
//! 3. obs counters are themselves deterministic: two identical runs
//!    export identical counter and histogram values;
//! 4. the fault injector's `netsim.fault.*` counters equal the verdict
//!    counts `SimNet::fault_stats` reports.
//!
//! The enable/trace flags are process-global, so every test here takes
//! one shared lock and restores the disabled state before releasing it.

use egoist::graph::{DistanceMatrix, NodeId};
use egoist::netsim::{FaultConfig, FaultPlan};
use egoist::proto::bootstrap::{BootstrapServer, Registry};
use egoist::proto::codec::encode;
use egoist::proto::message::MessageClass;
use egoist::proto::node::Tally;
use egoist::proto::{EgoistNode, Message, NodeConfig, SimNet, Transport, Wheel};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const BOOT: NodeId = NodeId(1000);

#[test]
fn proto_registry_counters_match_overhead_ledgers() {
    let _g = serial();
    let reg = egoist::obs::registry();
    reg.reset();
    egoist::obs::enable();

    let views = tokio::runtime::block_on_paused(async {
        let n = 6;
        let k = 2;
        let delays = DistanceMatrix::from_fn(n, |i, j| 4.0 + ((i * 3 + j) % 7) as f64);
        let mut big = DistanceMatrix::off_diagonal(1001, 1.0);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    big.set_at(i, j, delays.at(i, j));
                }
            }
        }
        // A clean net: no corrupted frames, so decode_errors stays 0 and
        // every sent frame is accounted on both ledgers.
        let net = SimNet::clean(big);
        tokio::spawn(BootstrapServer::new(net.endpoint(BOOT), Registry::default()).run());
        let spacing = Duration::from_millis(150);
        let mut wheel = Wheel::new(Duration::from_millis(1), n, spacing, |i| {
            let mut cfg = NodeConfig::new(NodeId::from_index(i), n, k);
            cfg.epoch = Duration::from_secs(10);
            cfg.announce_interval = Duration::from_secs(3);
            cfg.ping_interval = Duration::from_secs(5);
            cfg.liveness_timeout = Duration::from_secs(12);
            cfg.bootstrap = Some(BOOT);
            EgoistNode::new(cfg, net.endpoint(NodeId::from_index(i)))
        });
        wheel
            .run_for(spacing * n as u32 + Duration::from_secs(60))
            .await;
        // Keep the shared views alive past shutdown: the node publishes a
        // final snapshot (including its overhead ledger) on shutdown, and
        // the Leave frames it sends then are counted on both sides.
        let views: Vec<_> = wheel
            .nodes()
            .iter()
            .map(|node| node.as_ref().expect("spawned").view_handle())
            .collect();
        wheel.shutdown().await;
        views
    });

    egoist::obs::disable();

    for class in MessageClass::ALL {
        let label = class.label();
        let ledger_frames: u64 = views.iter().map(|v| v.read().overhead.frames(class)).sum();
        let ledger_bytes: u64 = views.iter().map(|v| v.read().overhead.bytes(class)).sum();
        let reg_frames = reg.counter_value(&format!("proto.send.{label}.frames"));
        let reg_bytes = reg.counter_value(&format!("proto.send.{label}.bytes"));
        assert_eq!(
            reg_frames, ledger_frames,
            "{label}: registry frames vs summed per-node ledgers"
        );
        assert_eq!(
            reg_bytes, ledger_bytes,
            "{label}: registry bytes vs summed per-node ledgers"
        );
    }
    for t in Tally::ALL {
        let Some(name) = t.obs_name() else { continue };
        let ledger: u64 = views.iter().map(|v| v.read().tallies[t]).sum();
        assert_eq!(
            reg.counter_value(name),
            ledger,
            "{t:?}: registry {name} vs summed per-node tallies"
        );
    }
    // A clean net leaves the error, ban and quarantine tallies at 0;
    // these ones are compared above on counts that are not.
    for t in [
        Tally::Promotions,
        Tally::GossipForwards,
        Tally::AeDigests,
        Tally::ClaimsCorroborated,
    ] {
        let name = t.obs_name().expect("paired with an obs counter");
        assert!(reg.counter_value(name) > 0, "{name} never counted");
    }
    // The overlay actually did something measurable, and the
    // heartbeat/measurement split is real: liveness pings to wired
    // neighbors land in the heartbeat class, candidate probes in the
    // measurement class, and neither is empty.
    assert!(reg.counter_value("proto.send.measurement.frames") > 0);
    assert!(reg.counter_value("proto.send.heartbeat.frames") > 0);
    assert!(reg.counter_value("proto.send.link_state.frames") > 0);
    assert_eq!(reg.counter_value("proto.decode_errors"), 0);
    // Joins landed in the convergence histogram — at most one per node
    // (a node that first wires at an epoch tick, rather than on the
    // ping fast-path, does not count as an observed join).
    let joins = reg.histogram_snapshot("proto.convergence.join_secs").count;
    assert!(
        joins >= 1 && joins <= views.len() as u64,
        "join observations out of range: {joins}"
    );
    // Received frames are a subset of sent ones (lossless net, but some
    // frames go to the bootstrap server, which is not an EgoistNode).
    for class in MessageClass::ALL {
        let label = class.label();
        assert!(
            reg.counter_value(&format!("proto.recv.{label}.frames"))
                <= reg.counter_value(&format!("proto.send.{label}.frames")),
            "{label}: more receives than sends"
        );
    }
}

#[test]
fn fault_stats_match_netsim_fault_counters() {
    let _g = serial();
    let reg = egoist::obs::registry();
    reg.reset();
    egoist::obs::enable();

    let stats = tokio::runtime::block_on_paused(async {
        let fault = FaultConfig {
            drop_chance: 0.1,
            duplicate_chance: 0.1,
            reorder_chance: 0.1,
            jitter_chance: 0.1,
            ..Default::default()
        };
        let plan = FaultPlan::new().partition(2.0, 4.0, vec![vec![], vec![NodeId(1)]]);
        let net = SimNet::with_plan(DistanceMatrix::off_diagonal(2, 1.0), fault, Some(plan), 5);
        let a = net.endpoint(NodeId(0));
        let _b = net.endpoint(NodeId(1));
        let frame = encode(&Message::Leave { from: NodeId(0) });
        for _ in 0..600 {
            a.send(NodeId(1), frame.clone()).unwrap();
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        net.fault_stats()
    });

    egoist::obs::disable();

    for (name, counted) in [
        ("cut", stats.cut),
        ("dropped", stats.dropped),
        ("duplicated", stats.duplicated),
        ("reordered", stats.reordered),
        ("jittered", stats.jittered),
    ] {
        assert!(counted > 0, "{name}: the run never produced this verdict");
        assert_eq!(
            reg.counter_value(&format!("netsim.fault.{name}")),
            counted,
            "{name}: registry counter vs SimNet::fault_stats"
        );
    }
}

fn traffic_cfg() -> egoist::traffic::engine::TrafficConfig {
    use egoist::core::policies::PolicyKind;
    use egoist::core::sim::Metric;
    let mut cfg = egoist::traffic::engine::TrafficConfig::new(
        16,
        3,
        PolicyKind::BestResponse,
        Metric::DelayPing,
        7,
    );
    cfg.sim.epochs = 6;
    cfg.sim.warmup_epochs = 2;
    cfg.flows_per_epoch = 24;
    cfg
}

#[test]
fn instrumentation_does_not_change_outputs() {
    let _g = serial();
    use egoist::traffic::engine::TrafficEngine;
    let cfg = traffic_cfg();

    egoist::obs::disable();
    let plain = TrafficEngine::run(&cfg).to_json();

    egoist::obs::registry().reset();
    egoist::obs::enable();
    egoist::obs::enable_trace();
    let instrumented = TrafficEngine::run(&cfg).to_json();
    egoist::obs::disable_trace();
    egoist::obs::disable();

    assert_eq!(
        plain, instrumented,
        "enabling obs must be invisible to simulation outputs"
    );
}

#[test]
fn obs_exports_are_deterministic_across_runs() {
    let _g = serial();
    use egoist::traffic::engine::TrafficEngine;
    let cfg = traffic_cfg();
    let reg = egoist::obs::registry();

    let deterministic_view = || {
        // Everything except span durations: counters, histogram
        // snapshots (bucket counts and fixed-point sums), span *counts*.
        let counters = reg.counters_sorted();
        let hists: Vec<_> = reg
            .histograms_sorted()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("proto."))
            .collect();
        let span_counts: Vec<_> = reg
            .spans_sorted()
            .into_iter()
            .map(|(name, count, _ns)| (name, count))
            .collect();
        (counters, hists, span_counts)
    };

    egoist::obs::enable();
    reg.reset();
    TrafficEngine::run(&cfg);
    let first = deterministic_view();

    reg.reset();
    TrafficEngine::run(&cfg);
    let second = deterministic_view();
    egoist::obs::disable();

    assert_eq!(first, second, "obs exports must be seed-deterministic");
    let (counters, hists, _) = first;
    assert!(
        counters
            .iter()
            .any(|(name, v)| name == "core.solver.candidates_scanned" && *v > 0),
        "solver counters should have fired: {counters:?}"
    );
    // The delta counters are pure functions of the seed (they are in the
    // view compared above) and they fired: turns named the rows their
    // shortlists kept, commits dropped and added links, and dropped links
    // cost removal repairs.
    let count = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert!(count("core.route.residual_named") > 0);
    assert_eq!(
        count("core.route.residual_named"),
        count("core.shortlist.kept")
    );
    for name in ["links_dropped", "links_added", "rows_removed"] {
        assert!(count(&format!("core.absorb.{name}")) > 0, "{name}");
    }
    assert!(
        hists
            .iter()
            .any(|(name, snap)| name == "traffic.flow_latency_ms" && snap.count > 0),
        "flow latency histogram should have observations"
    );
}

/// Every data-plane policy times its epoch under `traffic.route`, once
/// per `route_epoch` — backpressure and delay-aware included, which do
/// not go through `FlowRouter::route`.
#[test]
fn every_policy_epoch_is_one_route_span() {
    let _g = serial();
    use egoist::graph::DiGraph;
    use egoist::traffic::demand::Flow;
    use egoist::traffic::policy::DataPolicyKind;
    use egoist::traffic::router::{RouteInputs, RouterConfig};
    let mut overlay = DiGraph::new(4);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)] {
        overlay.add_edge(NodeId(u), NodeId(v), 1.0);
    }
    let delays = DistanceMatrix::off_diagonal(4, 5.0);
    let capacity = DistanceMatrix::off_diagonal(4, 10.0);
    let loads = [0.0; 4];
    let inputs = RouteInputs {
        overlay: &overlay,
        true_delays: &delays,
        node_load: &loads,
        capacity: &capacity,
    };
    let flows = [(0, 3, 12.0), (0, 3, 4.0), (1, 2, 3.0)].map(|(s, d, rate_mbps)| Flow {
        src: NodeId(s),
        dst: NodeId(d),
        rate_mbps,
    });
    let reg = egoist::obs::registry();
    reg.reset();
    egoist::obs::enable();
    let mut calls = Vec::new();
    for max_paths in [1, 2] {
        for kind in DataPolicyKind::all() {
            let router = RouterConfig { max_paths };
            let mut policy = kind.instantiate(4, router, Default::default(), Default::default());
            let before = reg.span_value("traffic.route").0;
            policy.route_epoch(0, &flows, &inputs);
            calls.push((
                kind.label(),
                max_paths,
                reg.span_value("traffic.route").0 - before,
            ));
        }
    }
    egoist::obs::disable();
    for (label, max_paths, added) in calls {
        assert_eq!(
            added, 1,
            "{label} (max_paths {max_paths}): one epoch, one span"
        );
    }
}

/// The fleet instruments (`x-fleet-instruments` in the metrics schema:
/// route computation plus the anti-entropy overlap and refresh
/// counters): present after a best-response fleet, consistent with each
/// other, and invisible to the report. Every re-wiring job is also one
/// shared wiring turn, counted by the core's turn instruments.
#[test]
fn fleet_route_instruments_are_exported_and_invisible() {
    let _g = serial();
    use egoist::proto::fleet::{run_fleet, FleetConfig};
    let mut cfg = FleetConfig::new("obs_fleet", 12, 3, 5);
    cfg.horizon = Duration::from_secs(60);
    cfg.ping_sample = 3;

    egoist::obs::disable();
    let plain = run_fleet(&cfg).to_json();

    let reg = egoist::obs::registry();
    reg.reset();
    egoist::obs::enable();
    let instrumented = run_fleet(&cfg).to_json();
    egoist::obs::disable();
    assert_eq!(plain, instrumented, "obs must not change the report");

    let schema = include_str!("../schemas/metrics.schema.json");
    let at = schema.find("\"x-fleet-instruments\"").expect("section");
    let fleet = &schema[at..];
    let export = reg.to_json();
    let names: Vec<&str> = fleet
        .split('"')
        .filter(|name| name.starts_with("proto.") || name.starts_with("graph."))
        .collect();
    assert_eq!(names.len(), 13, "{names:?}");
    for name in names {
        assert!(export.contains(&format!("\"{name}\":")), "{name} missing");
    }

    let (jobs, _) = reg.span_value("proto.rewire.job");
    let (publishes, _) = reg.span_value("proto.route.publish");
    let read = reg.counter_value("proto.rewire.rows_materialised");
    let possible = reg.counter_value("proto.rewire.rows_possible");
    assert!(jobs > 0 && publishes > 0);
    assert_eq!(
        possible,
        jobs * cfg.n as u64,
        "every BR job could read n rows"
    );
    assert!(
        0 < read && read < possible,
        "bounded measurement reads some rows, not all: {read}/{possible}"
    );
    let batched = reg.counter_value("graph.sweep_many.sources");
    let pops = reg.counter_value("graph.sweep_many.pops");
    assert_eq!(batched, read, "every row read was announced to the batch");
    assert!(pops >= batched, "every source is popped: {pops}/{batched}");

    // Every job is the shared turn: one solve, over the identity
    // shortlist of the node's known peers (the node does not sample).
    let offered = reg.counter_value("core.shortlist.offered");
    assert!(offered > 0, "a BR job offers its known peers");
    assert_eq!(reg.counter_value("core.shortlist.kept"), offered);
    let (solves, _) = reg.span_value("core.epoch.turn.solver");
    assert_eq!(solves, jobs, "one solve per re-wiring job");
}
