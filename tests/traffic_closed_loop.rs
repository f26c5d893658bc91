//! Integration: the closed-loop data plane end to end.
//!
//! (a) determinism — one seed pins the entire run, down to the
//!     serialized report bytes;
//! (b) the paper's argument carried to the data plane — under the Load
//!     metric with congestion feedback, best-response rewiring routes
//!     flows around the hot spots its own traffic creates and beats
//!     Random wiring on p99 flow latency on a 32-node Zipf workload;
//! (c) the feedback itself is load-bearing: turning it off changes the
//!     realized latency profile of the very same configuration.

use egoist::core::policies::PolicyKind;
use egoist::core::sim::Metric;
use egoist::traffic::demand::WorkloadKind;
use egoist::traffic::engine::{TrafficConfig, TrafficEngine};

/// 32-node Zipf/gravity hot-spot workload on the Load metric.
fn zipf32(policy: PolicyKind, seed: u64, closed_loop: bool) -> TrafficConfig {
    let mut cfg = TrafficConfig::new(32, 4, policy, Metric::Load, seed);
    cfg.sim.epochs = 12;
    cfg.sim.warmup_epochs = 4;
    cfg.workload = WorkloadKind::Gravity { exponent: 1.2 };
    cfg.offered_mbps = 200.0;
    cfg.flows_per_epoch = 48;
    cfg.feedback.enabled = closed_loop;
    cfg
}

#[test]
fn same_seed_bit_identical_traffic_report() {
    let a = TrafficEngine::run(&zipf32(PolicyKind::BestResponse, 11, true));
    let b = TrafficEngine::run(&zipf32(PolicyKind::BestResponse, 11, true));
    assert_eq!(a.to_json(), b.to_json(), "same seed must be bit-identical");
    let c = TrafficEngine::run(&zipf32(PolicyKind::BestResponse, 12, true));
    assert_ne!(a.to_json(), c.to_json(), "different seeds must differ");
}

#[test]
fn closed_loop_br_cuts_p99_latency_vs_random() {
    let br = TrafficEngine::run(&zipf32(PolicyKind::BestResponse, 7, true));
    let rnd = TrafficEngine::run(&zipf32(PolicyKind::Random, 7, true));
    let (b, r) = (br.summary.p99_latency_ms, rnd.summary.p99_latency_ms);
    assert!(
        b < r,
        "closed-loop BR must strictly cut p99 flow latency vs Random: {b:.1} vs {r:.1} ms"
    );
    // The mechanism is re-wiring: BR keeps adapting to the load its own
    // traffic induces.
    assert!(
        br.summary.mean_rewirings > 0.0,
        "BR must re-wire in steady state under the closed loop"
    );
}

#[test]
fn traffic_induced_rewiring_changes_realized_p99() {
    // The same BR configuration with and without feedback: the only
    // difference is whether carried traffic is charged back into the
    // underlay. The announced-load stream the policy sees differs, so
    // rewiring decisions — and the realized p99 — differ.
    let closed = TrafficEngine::run(&zipf32(PolicyKind::BestResponse, 9, true));
    let open = TrafficEngine::run(&zipf32(PolicyKind::BestResponse, 9, false));
    assert_ne!(
        closed.summary.p99_latency_ms.to_bits(),
        open.summary.p99_latency_ms.to_bits(),
        "feedback must change realized p99 latency"
    );
    // And under feedback the overlay keeps adapting: wiring differs in
    // steady state, visible as a different rewiring count.
    assert!(closed.summary.flows_measured > 0 && open.summary.flows_measured > 0);
}

#[test]
fn backpressure_outdelivers_shortest_path_at_saturation() {
    // Past the single-path knee, differential-backlog forwarding finds
    // the capacity that path-committed routing leaves on the table.
    use egoist::traffic::DataPolicyKind;
    let mk = |dp| {
        let mut cfg = zipf32(PolicyKind::BestResponse, 21, true);
        cfg.offered_mbps = 3000.0;
        cfg.data_policy = dp;
        TrafficEngine::run(&cfg).summary.delivered_mbps
    };
    let spf = mk(DataPolicyKind::ShortestPath);
    let bp = mk(DataPolicyKind::Backpressure);
    assert!(
        bp > spf,
        "backpressure must out-deliver spf at saturation: {bp:.1} vs {spf:.1} Mbps"
    );
}

#[test]
fn delay_aware_hysteresis_bounds_route_flapping() {
    use egoist::traffic::DataPolicyKind;
    let mk = |hysteresis: f64| {
        let mut cfg = zipf32(PolicyKind::BestResponse, 27, true);
        cfg.offered_mbps = 2000.0; // saturated: queue estimates swing
        cfg.data_policy = DataPolicyKind::DelayAware;
        cfg.delay_aware.hysteresis = hysteresis;
        TrafficEngine::run(&cfg)
    };
    let with = mk(0.25);
    let without = mk(0.0);
    assert!(
        with.summary.route_changes <= without.summary.route_changes,
        "hysteresis must not flap more: {} vs {}",
        with.summary.route_changes,
        without.summary.route_changes
    );
    // Bounded in absolute terms too: well under one switch per pair per
    // steady epoch (48 flows × 8 steady epochs = 384 opportunities).
    assert!(
        with.summary.route_changes < 100,
        "route changes unbounded: {}",
        with.summary.route_changes
    );
    assert!(with.summary.delivered_mbps > 0.0);
}

#[test]
fn delivery_survives_churn() {
    use egoist::netsim::ChurnModel;
    let mut cfg = zipf32(PolicyKind::BestResponse, 5, true);
    let mut model = ChurnModel::planetlab_like(32, 5);
    model.timescale_divisor = 60.0;
    cfg.sim.churn = Some(model.generate(cfg.sim.epochs as f64 * cfg.sim.epoch_secs));
    let r = TrafficEngine::run(&cfg);
    assert!(
        r.summary.delivery_ratio > 0.3,
        "the overlay must keep delivering under churn: {}",
        r.summary.delivery_ratio
    );
}

/// FNV-1a over a report's JSON bytes.
fn fnv(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The four arms of the `traffic_mix_n150` benchmark workload at its
/// n=40 self-check shape. The pins are the report bytes of commit
/// b6ea82c, before the data plane moved onto the per-epoch path plane
/// (per-pair max-flow pre-count, per-flow path walks, sort-based report).
#[test]
fn benchmark_arm_reports_are_pinned() {
    use egoist::traffic::DataPolicyKind::{Backpressure, DelayAware, ShortestPath};
    let uniform = WorkloadKind::Uniform;
    let gravity = WorkloadKind::Gravity { exponent: 1.2 };
    for (name, policy, max_paths, workload, flows, pin) in [
        (
            "spf",
            ShortestPath,
            1,
            uniform,
            4000,
            0x5f4e79f9f48b12ea_u64,
        ),
        ("mp2", ShortestPath, 2, gravity, 200, 0x1975b578f21418dd),
        (
            "backpressure",
            Backpressure,
            1,
            uniform,
            4000,
            0x04ae6274a601de43,
        ),
        (
            "delay_aware",
            DelayAware,
            1,
            uniform,
            4000,
            0x14974a8694e16a97,
        ),
    ] {
        let mut cfg = TrafficConfig::new(40, 4, PolicyKind::BestResponse, Metric::DelayPing, 11);
        cfg.sim.epochs = 4;
        cfg.sim.warmup_epochs = 2;
        cfg.workload = workload;
        cfg.offered_mbps = 800.0;
        cfg.flows_per_epoch = flows;
        cfg.router.max_paths = max_paths;
        cfg.data_policy = policy;
        let got = fnv(&TrafficEngine::run(&cfg).to_json());
        assert_eq!(got, pin, "{name}: report bytes changed ({got:#018x})");
    }
}
