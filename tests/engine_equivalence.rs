//! Golden whole-run verdicts of the epoch route-state engine.
//!
//! The simulator once carried a second engine, `Recompute`: the paper's
//! literal turn (§3.1), an all-pairs shortest path on `G−i` from scratch
//! for every re-wiring node, driving the pre-optimization best-response
//! loops. These tests asserted that the epoch engine (shared snapshots +
//! incremental residual repair) produced *bit-identical* outputs to it —
//! every `EpochSample` series down to the float bits, and the serialized
//! `TrafficReport` byte for byte — across metrics, scales, policies and
//! churn. Every FNV golden below that names no other commit was made at
//! commit 0e9eba7, in the run that still asserted Epoch ≡ Recompute on
//! that very case, so each one pins the oracle's verdict: a changed
//! golden means the wiring changed, not merely a tie-break. The
//! per-layer oracles stay with the crates' unit tests (residual rows
//! against `apsp` / widest paths, the solvers against their reference
//! loops).

use egoist::core::cheat::CheatConfig;
use egoist::core::policies::PolicyKind;
use egoist::core::sim::{run, Metric, SimConfig, SimResult, Simulator};
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

fn label(c: &SimConfig) -> String {
    format!(
        "{:?}/{:?} n={} seed={}{}",
        c.policy,
        c.metric,
        c.n,
        c.seed,
        if c.churn.is_some() { " churned" } else { "" }
    )
}

/// Run `c` and demand the fingerprint of its whole `SimResult`.
fn assert_golden(c: SimConfig, golden: u64) {
    let got = fingerprint(&run(c.clone()));
    assert_eq!(got, golden, "{}: {got:#018x}", label(&c));
}

/// Run the closed loop and demand the fingerprint of its report JSON.
fn assert_report_golden(c: TrafficConfig, golden: u64) {
    let mut got = FNV_OFFSET;
    fnv(&mut got, TrafficEngine::run(&c).to_json().as_bytes());
    assert_eq!(
        got,
        golden,
        "report {} {:?}: {got:#018x}",
        label(&c.sim),
        c.data_policy
    );
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over everything a `SimResult` carries, floats by bit pattern.
fn fingerprint(r: &SimResult) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, r.config_label.as_bytes());
    for s in &r.samples {
        for count in [s.epoch, s.rewirings, s.alive] {
            fnv(&mut h, &(count as u64).to_le_bytes());
        }
        for series in [&s.individual_cost, &s.efficiency, &s.bandwidth_utility] {
            for x in series {
                fnv(&mut h, &x.to_bits().to_le_bytes());
            }
        }
    }
    h
}

#[test]
fn delay_metric_32_nodes_identical() {
    let c = cfg(32, 4, PolicyKind::BestResponse, Metric::DelayPing, 3);
    assert_golden(c, 0xc503_5ac6_a6dc_a85f);
}

#[test]
fn delay_metric_64_nodes_identical() {
    let c = cfg(64, 6, PolicyKind::BestResponse, Metric::DelayPing, 9);
    assert_golden(c, 0x7fdb_a8c6_60dc_cf46);
}

#[test]
fn load_metric_identical() {
    let c = cfg(32, 4, PolicyKind::BestResponse, Metric::Load, 5);
    assert_golden(c, 0x627f_805d_521f_fd30);
    let c = cfg(64, 5, PolicyKind::BestResponse, Metric::Load, 6);
    assert_golden(c, 0x0fff_e430_68a2_0e7a);
}

#[test]
fn bandwidth_metric_identical() {
    let c = cfg(32, 4, PolicyKind::BestResponse, Metric::Bandwidth, 7);
    assert_golden(c, 0x1e57_d397_63d0_ec86);
    let c = cfg(64, 5, PolicyKind::BestResponse, Metric::Bandwidth, 8);
    assert_golden(c, 0xb2a4_37ee_8ce0_4cb3);
}

#[test]
fn sampled_turn_identical_and_full_sample_is_the_unsampled_turn() {
    // n − 1 = 119 candidates > m = 64: the §5 shortlist is live. It is
    // cut before the residual rows are named, so the engines agreed on
    // these bit for bit.
    for (metric, golden) in [
        (Metric::DelayPing, 0xa028_052e_c66e_692fu64),
        (Metric::Bandwidth, 0xfd97_2ac7_86e0_15d3),
    ] {
        let mut sampled = cfg(120, 6, PolicyKind::BestResponse, metric, 53);
        sampled.epochs = 3;
        assert!(sampled.n - 1 > sampled.sample_size);
        assert_golden(sampled, golden);
    }
    // m = n reproduces the bits of the turn before the stage existed
    // (fingerprint produced at e112be1, which had no shortlist).
    let mut full = cfg(120, 6, PolicyKind::BestResponse, Metric::DelayPing, 53);
    full.sample_size = usize::MAX;
    assert_golden(full, 0x1430_94fa_6f83_0d4c);
}

#[test]
fn churned_runs_identical() {
    // The delay golden was produced at 78d3412, when every leave and join
    // still rebuilt the snapshot: absorbing churn as deltas must wire
    // exactly as rebuilding did.
    let delay = with_churn(cfg(32, 4, PolicyKind::BestResponse, Metric::DelayPing, 11));
    assert_golden(delay, 0x99f1_5ddb_4e68_7050);
    let load = with_churn(cfg(64, 5, PolicyKind::BestResponse, Metric::Load, 13));
    assert_golden(load, 0xe412_8af5_8934_011e);
}

#[test]
fn fault_plan_churn_runs_identical() {
    // The adversarial fleet harness schedules faults as a `FaultPlan`;
    // `churn_trace` projects its membership effects (partition minority
    // OFF for the window, storm flaps as ON/OFF events) into the pure
    // simulator's `ChurnTrace`, so the fleet's chaos scenarios and the
    // figure pipeline share one notion of churn.
    use egoist::graph::NodeId;
    use egoist::netsim::FaultPlan;
    for (n, k, metric, seed, golden) in [
        (
            32usize,
            4,
            Metric::DelayPing,
            37u64,
            0xa687_e9ac_d795_5190u64,
        ),
        (64, 5, Metric::Load, 41, 0xeb15_8c33_128b_3fe3),
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
        assert_golden(c, golden);
    }
}

#[test]
fn other_policies_identical() {
    // These goldens are older (produced at 4896637, before the bandwidth
    // turn was folded into the one `rewire`); 0e9eba7 confirmed them
    // against the oracle.
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
        assert_golden(cfg(32, 4, policy, metric, 17), golden);
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
        assert_golden(with_churn(cfg(32, 4, policy, metric, 21)), golden);
    }
}

#[test]
fn traffic_aware_wiring_identical() {
    // Without a demand feed the policy degenerates to plain BR, but the
    // dispatch still goes through the TrafficAware arm.
    let policy = PolicyKind::TrafficAware { bias: 0.8 };
    let c = cfg(32, 4, policy, Metric::DelayPing, 43);
    assert_golden(c, 0x74d4_3946_0e60_9102);
}

#[test]
fn traffic_aware_closed_loop_report_identical() {
    // The real test: the traffic engine feeds an observed-demand EWMA
    // into the simulator every epoch, so the demand-blended preferences
    // actually differ from uniform, under every data-plane policy.
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
    let goldens = [
        0x6811_ab34_0249_1466u64,
        0xd110_fb7a_5296_3c03,
        0x1ec3_2579_c177_a549,
    ];
    for (data_policy, golden) in DataPolicyKind::all().into_iter().zip(goldens) {
        let mut b = base.clone();
        b.data_policy = data_policy;
        assert_report_golden(b, golden);
    }
}

#[test]
fn free_rider_runs_identical() {
    let mut c = cfg(32, 4, PolicyKind::BestResponse, Metric::DelayPing, 19);
    c.cheat = CheatConfig::first_n(4, 2.0);
    assert_golden(c, 0xca97_affe_c551_e57b);
}

#[test]
fn traffic_report_json_identical() {
    for (metric, golden) in [
        (Metric::DelayPing, 0x214b_58c5_141b_5349u64),
        (Metric::Load, 0xff85_0f17_472a_1aa5),
        (Metric::Bandwidth, 0xa887_9ffc_ebd0_9f3a),
    ] {
        let mut base = TrafficConfig::new(32, 4, PolicyKind::BestResponse, metric, 23);
        base.sim.epochs = 8;
        base.sim.warmup_epochs = 3;
        base.workload = WorkloadKind::Gravity { exponent: 1.2 };
        base.flows_per_epoch = 40;
        assert_report_golden(base, golden);
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
    assert_report_golden(base, 0xee9c_4115_7146_95fe);
}

#[test]
fn epoch_engine_actually_takes_the_incremental_paths() {
    // Not just the right wiring — the engine must be doing the cheap thing:
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
