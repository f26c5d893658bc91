//! Golden equivalence: the epoch route-state engine must be a pure
//! optimization.
//!
//! [`EngineMode::Epoch`] (shared snapshots + incremental residual
//! repair) and [`EngineMode::Recompute`] (the straightforward per-turn
//! oracle) simulate the same process; these tests pin that the two
//! produce *bit-identical* outputs — every `EpochSample` series down to
//! the float bits, and the serialized `TrafficReport` byte for byte —
//! across metrics, scales, policies and churn. Any divergence means the
//! incremental repair returned a wrong distance, not merely a different
//! tie-break: policies only consume distances, and equal path minima are
//! equal `f64`s.

use egoist::core::cheat::CheatConfig;
use egoist::core::policies::PolicyKind;
use egoist::core::sim::{run, EngineMode, Metric, SimConfig, SimResult, Simulator};
use egoist::netsim::ChurnModel;
use egoist::traffic::demand::WorkloadKind;
use egoist::traffic::engine::{TrafficConfig, TrafficEngine};

fn cfg(n: usize, k: usize, policy: PolicyKind, metric: Metric, seed: u64) -> SimConfig {
    let mut c = SimConfig::baseline(k, policy, metric, seed);
    c.n = n;
    c.epochs = 6;
    c.warmup_epochs = 2;
    c
}

fn with_churn(mut c: SimConfig) -> SimConfig {
    let mut model = ChurnModel::planetlab_like(c.n, 4);
    model.timescale_divisor = 120.0;
    c.churn = Some(model.generate(c.epochs as f64 * c.epoch_secs));
    c
}

/// Run both engines and demand bitwise-equal sample series; returns
/// the epoch engine's result.
fn assert_equivalent(base: SimConfig) -> SimResult {
    let mut epoch_cfg = base.clone();
    epoch_cfg.engine = EngineMode::Epoch;
    let mut oracle_cfg = base;
    oracle_cfg.engine = EngineMode::Recompute;
    let fast = run(epoch_cfg.clone());
    let oracle = run(oracle_cfg);
    assert_series_identical(&fast, &oracle, &epoch_cfg);
    fast
}

/// FNV-1a over everything a `SimResult` carries, floats by bit pattern.
fn fingerprint(r: &SimResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(r.config_label.as_bytes());
    for s in &r.samples {
        for count in [s.epoch, s.rewirings, s.alive] {
            eat(&(count as u64).to_le_bytes());
        }
        for series in [&s.individual_cost, &s.efficiency, &s.bandwidth_utility] {
            for x in series {
                eat(&x.to_bits().to_le_bytes());
            }
        }
    }
    h
}

fn assert_series_identical(fast: &SimResult, oracle: &SimResult, cfg: &SimConfig) {
    assert_eq!(fast.samples.len(), oracle.samples.len());
    for (f, o) in fast.samples.iter().zip(&oracle.samples) {
        let label = format!(
            "{:?}/{:?} n={} seed={} epoch {}",
            cfg.policy, cfg.metric, cfg.n, cfg.seed, f.epoch
        );
        assert_eq!(f.epoch, o.epoch, "{label}");
        assert_eq!(f.rewirings, o.rewirings, "{label}: rewirings");
        assert_eq!(f.alive, o.alive, "{label}: alive");
        for (name, a, b) in [
            ("individual_cost", &f.individual_cost, &o.individual_cost),
            ("efficiency", &f.efficiency, &o.efficiency),
            (
                "bandwidth_utility",
                &f.bandwidth_utility,
                &o.bandwidth_utility,
            ),
        ] {
            assert_eq!(a.len(), b.len(), "{label}: {name} length");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: {name}[{i}] {x} vs {y}");
            }
        }
    }
}

#[test]
fn delay_metric_32_nodes_identical() {
    assert_equivalent(cfg(32, 4, PolicyKind::BestResponse, Metric::DelayPing, 3));
}

#[test]
fn delay_metric_64_nodes_identical() {
    assert_equivalent(cfg(64, 6, PolicyKind::BestResponse, Metric::DelayPing, 9));
}

#[test]
fn load_metric_identical() {
    assert_equivalent(cfg(32, 4, PolicyKind::BestResponse, Metric::Load, 5));
    assert_equivalent(cfg(64, 5, PolicyKind::BestResponse, Metric::Load, 6));
}

#[test]
fn bandwidth_metric_identical() {
    assert_equivalent(cfg(32, 4, PolicyKind::BestResponse, Metric::Bandwidth, 7));
    assert_equivalent(cfg(64, 5, PolicyKind::BestResponse, Metric::Bandwidth, 8));
}

#[test]
fn sampled_turn_identical_and_full_sample_is_the_unsampled_turn() {
    // n − 1 = 119 candidates > m = 64: the §5 shortlist is live. It is
    // cut before the engines part ways, so they still agree bit for bit.
    for metric in [Metric::DelayPing, Metric::Bandwidth] {
        let mut sampled = cfg(120, 6, PolicyKind::BestResponse, metric, 53);
        sampled.epochs = 3;
        assert!(sampled.n - 1 > sampled.sample_size);
        assert_equivalent(sampled);
    }
    // m = n reproduces the bits of the turn before the stage existed
    // (fingerprint produced at e112be1, which had no shortlist).
    let mut full = cfg(120, 6, PolicyKind::BestResponse, Metric::DelayPing, 53);
    full.sample_size = usize::MAX;
    let got = fingerprint(&run(full));
    assert_eq!(
        got, 0x1430_94fa_6f83_0d4c,
        "unsampled at n=120: {got:#018x}"
    );
}

#[test]
fn churned_runs_identical() {
    // The delay run is pinned too (fingerprint produced at 78d3412, when
    // every leave and join still rebuilt the snapshot): absorbing churn
    // as deltas must wire exactly as rebuilding did.
    let delay = with_churn(cfg(32, 4, PolicyKind::BestResponse, Metric::DelayPing, 11));
    let got = fingerprint(&assert_equivalent(delay));
    assert_eq!(
        got, 0x99f1_5ddb_4e68_7050,
        "churned BR/DelayPing: {got:#018x}"
    );
    assert_equivalent(with_churn(cfg(
        64,
        5,
        PolicyKind::BestResponse,
        Metric::Load,
        13,
    )));
}

#[test]
fn fault_plan_churn_runs_identical() {
    // The adversarial fleet harness schedules faults as a `FaultPlan`;
    // `churn_trace` projects its membership effects (partition minority
    // OFF for the window, storm flaps as ON/OFF events) into the pure
    // simulator's `ChurnTrace`. The engines must stay bit-identical
    // under that projection too, so the fleet's chaos scenarios and the
    // figure pipeline share one notion of churn.
    use egoist::graph::NodeId;
    use egoist::netsim::FaultPlan;
    for (n, k, metric, seed) in [
        (32usize, 4, Metric::DelayPing, 37u64),
        (64, 5, Metric::Load, 41),
    ] {
        let mut c = cfg(n, k, PolicyKind::BestResponse, metric, seed);
        let horizon = c.epochs as f64 * c.epoch_secs;
        let minority: Vec<NodeId> = (3 * n / 4..n).map(NodeId::from_index).collect();
        let flappy: Vec<NodeId> = (0..n / 4).map(NodeId::from_index).collect();
        let plan = FaultPlan::new()
            .partition(0.35 * horizon, 0.6 * horizon, vec![vec![], minority])
            .churn_storm(0.65 * horizon, 0.9 * horizon, flappy, 0.08 * horizon, 0.4);
        let trace = plan.churn_trace(n, horizon);
        assert!(
            !trace.events.is_empty(),
            "fault plan projected an empty churn trace"
        );
        c.churn = Some(trace);
        assert_equivalent(c);
    }
}

#[test]
fn other_policies_identical() {
    // Epoch ≡ Recompute says the engines agree with each other; the
    // fingerprints (produced at 4896637, before the bandwidth turn was
    // folded into the one `rewire`) say they still wire as they did.
    let eps = PolicyKind::EpsilonBestResponse { epsilon: 0.1 };
    let hybrid = PolicyKind::HybridBestResponse { k2: 2 };
    for (policy, metric, golden) in [
        (eps, Metric::DelayPing, 0x3cf4_8423_4ce5_76d5u64),
        (hybrid, Metric::DelayPing, 0x7056_6025_1cca_c4eb),
        (
            PolicyKind::Closest,
            Metric::DelayPing,
            0x3bdb_4415_9b83_fc50,
        ),
        (PolicyKind::Random, Metric::DelayPing, 0xa7e7_cb2f_0e83_631a),
        (
            PolicyKind::Regular,
            Metric::DelayPing,
            0xb663_60e9_5507_8e64,
        ),
        (
            PolicyKind::Closest,
            Metric::Bandwidth,
            0x6e5f_eb99_9eb8_3892,
        ),
        (PolicyKind::Random, Metric::Bandwidth, 0x28ff_3f33_f08f_0472),
        (
            PolicyKind::Regular,
            Metric::Bandwidth,
            0x75a6_8258_e20f_3c7b,
        ),
        (eps, Metric::Bandwidth, 0x0716_8fe6_4fcc_a288),
        (hybrid, Metric::Bandwidth, 0x46f9_9d33_e4aa_d65d),
        (
            PolicyKind::ExactBestResponse,
            Metric::Bandwidth,
            0xafc3_c925_6049_0f20,
        ),
    ] {
        let got = fingerprint(&assert_equivalent(cfg(32, 4, policy, metric, 17)));
        assert_eq!(got, golden, "{policy:?}/{metric:?}: {got:#018x}");
    }
    // The churned HybridBR delay run was produced at e112be1, when the
    // policy still read its ring off the candidate list.
    for (policy, metric, golden) in [
        (
            PolicyKind::BestResponse,
            Metric::Bandwidth,
            0xe9e2_32d7_7744_1ddcu64,
        ),
        (hybrid, Metric::Bandwidth, 0x0060_94d6_f7a6_ade7),
        (hybrid, Metric::DelayPing, 0x85a1_b34e_c6fa_55c5),
    ] {
        let churned = with_churn(cfg(32, 4, policy, metric, 21));
        let got = fingerprint(&assert_equivalent(churned));
        assert_eq!(got, golden, "churned {policy:?}/{metric:?}: {got:#018x}");
    }
}

#[test]
fn traffic_aware_wiring_identical() {
    // Without a demand feed the policy degenerates to plain BR, but the
    // dispatch still goes through the TrafficAware arms of both engines.
    assert_equivalent(cfg(
        32,
        4,
        PolicyKind::TrafficAware { bias: 0.8 },
        Metric::DelayPing,
        43,
    ));
}

#[test]
fn traffic_aware_closed_loop_report_identical() {
    // The real test: the traffic engine feeds an observed-demand EWMA
    // into the simulator every epoch, so the demand-blended preferences
    // actually differ from uniform — and both engine modes must consume
    // them identically, under every data-plane policy.
    use egoist::traffic::DataPolicyKind;
    let mut base = TrafficConfig::new(
        24,
        3,
        PolicyKind::TrafficAware { bias: 0.8 },
        Metric::DelayPing,
        47,
    );
    base.sim.epochs = 8;
    base.sim.warmup_epochs = 3;
    base.workload = WorkloadKind::Gravity { exponent: 1.2 };
    base.flows_per_epoch = 30;
    for data_policy in DataPolicyKind::all() {
        let mut b = base.clone();
        b.data_policy = data_policy;
        let mut fast = b.clone();
        fast.sim.engine = EngineMode::Epoch;
        let mut oracle = b;
        oracle.sim.engine = EngineMode::Recompute;
        assert_eq!(
            TrafficEngine::run(&fast).to_json(),
            TrafficEngine::run(&oracle).to_json(),
            "traffic-aware closed loop diverged under {data_policy:?}"
        );
    }
}

#[test]
fn free_rider_runs_identical() {
    let mut c = cfg(32, 4, PolicyKind::BestResponse, Metric::DelayPing, 19);
    c.cheat = CheatConfig::first_n(4, 2.0);
    assert_equivalent(c);
}

#[test]
fn traffic_report_json_identical() {
    for metric in [Metric::DelayPing, Metric::Load, Metric::Bandwidth] {
        let mut base = TrafficConfig::new(32, 4, PolicyKind::BestResponse, metric, 23);
        base.sim.epochs = 8;
        base.sim.warmup_epochs = 3;
        base.workload = WorkloadKind::Gravity { exponent: 1.2 };
        base.flows_per_epoch = 40;
        let mut fast = base.clone();
        fast.sim.engine = EngineMode::Epoch;
        let mut oracle = base;
        oracle.sim.engine = EngineMode::Recompute;
        assert_eq!(
            TrafficEngine::run(&fast).to_json(),
            TrafficEngine::run(&oracle).to_json(),
            "traffic report diverged on {metric:?}"
        );
    }
}

#[test]
fn traffic_report_json_identical_with_churn() {
    let mut base = TrafficConfig::new(32, 4, PolicyKind::BestResponse, Metric::Load, 29);
    base.sim.epochs = 8;
    base.sim.warmup_epochs = 3;
    let mut model = ChurnModel::planetlab_like(32, 4);
    model.timescale_divisor = 120.0;
    base.sim.churn = Some(model.generate(base.sim.epochs as f64 * base.sim.epoch_secs));
    let mut fast = base.clone();
    fast.sim.engine = EngineMode::Epoch;
    let mut oracle = base;
    oracle.sim.engine = EngineMode::Recompute;
    assert_eq!(
        TrafficEngine::run(&fast).to_json(),
        TrafficEngine::run(&oracle).to_json()
    );
}

#[test]
fn epoch_engine_actually_takes_the_incremental_paths() {
    // Not just equivalent — the engine must be doing the cheap thing:
    // copied residual rows and repaired rewirings dominate, and full
    // rebuilds stay at one per epoch state (underlay advance / churn).
    let c = cfg(32, 4, PolicyKind::BestResponse, Metric::DelayPing, 31);
    let mut sim = Simulator::new(c.clone());
    for epoch in 0..c.epochs {
        sim.run_epoch(epoch);
    }
    let stats = sim.route_stats();
    assert!(
        stats.rebuilds <= c.epochs + 1,
        "snapshot must survive whole epochs: {} rebuilds",
        stats.rebuilds
    );
    assert!(
        stats.residual_borrowed > stats.residual_swept,
        "most residual rows should be zero-copy borrows: {} borrowed vs {} swept",
        stats.residual_borrowed,
        stats.residual_swept
    );
    assert!(
        stats.rewire_repaired + stats.rewire_swept > 0,
        "re-wirings must flow through the incremental repair"
    );
}

#[test]
fn epoch_engine_absorbs_churn_without_rebuilding() {
    // The churned twin of the test above: leaves and joins are deltas on
    // the live snapshot, so rebuilds stay at one per underlay advance
    // however many membership events an epoch holds.
    for metric in [Metric::DelayPing, Metric::Bandwidth] {
        let c = with_churn(cfg(64, 5, PolicyKind::BestResponse, metric, 31));
        let mut sim = Simulator::new(c.clone());
        for epoch in 0..c.epochs {
            sim.run_epoch(epoch);
        }
        let stats = sim.route_stats();
        assert!(
            stats.leaves > c.epochs && stats.joins > c.epochs,
            "{metric:?}: the trace must churn for this to mean anything: {stats:?}"
        );
        assert!(
            stats.rebuilds <= c.epochs,
            "{metric:?}: churn must not rebuild the snapshot: {stats:?}"
        );
    }
}
