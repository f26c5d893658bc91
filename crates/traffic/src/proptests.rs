//! Property tests for the data plane.

use crate::backpressure::{self, BackpressureConfig, BackpressureEngine};
use crate::capacity::CapacityLedger;
use crate::demand::{DemandGenerator, Flow, WorkloadKind};
use crate::engine::{TrafficConfig, TrafficEngine};
use crate::policy::DataPolicyKind;
use crate::router::{self, FlowRouter, RouteInputs, RouteOutcome, RouterConfig};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::Metric;
use egoist_graph::{DiGraph, DistanceMatrix, NodeId};
use proptest::prelude::*;

fn delays(n: usize) -> DistanceMatrix {
    DistanceMatrix::from_fn(n, |i, j| 1.0 + ((i * 13 + j * 5) % 37) as f64)
}

fn kind_from(idx: usize) -> WorkloadKind {
    WorkloadKind::all()[idx % 4]
}

/// Every field of an outcome, as bits: per flow (endpoints, rate,
/// delivered, latency, stretch, paths used), then the totals, the
/// consumed matrix and the forwarded vector.
fn outcome_bits(out: &RouteOutcome) -> Vec<u64> {
    let mut bits = Vec::new();
    for f in &out.flows {
        bits.extend([u64::from(f.flow.src.0), u64::from(f.flow.dst.0)]);
        let values = [f.flow.rate_mbps, f.delivered_mbps, f.latency_ms, f.stretch];
        bits.extend(values.map(f64::to_bits));
        bits.push(f.paths_used as u64);
    }
    bits.extend([out.offered_mbps, out.delivered_mbps].map(f64::to_bits));
    bits.push(out.route_changes as u64);
    bits.extend(
        out.consumed
            .iter()
            .chain(&out.forwarded)
            .map(|v| v.to_bits()),
    );
    bits
}

/// A small random overlay: `edges` are `(from, to, cost, capacity
/// class)` folded onto `n` nodes; self loops are dropped and a repeated
/// pair keeps its last cost. Costs are small integers, so equal-cost
/// paths (ties) are common; the capacity classes include 0 (a link that
/// carries nothing), links a slot's service or one flow can saturate,
/// and ample ones.
fn random_overlay(n: usize, edges: &[(usize, usize, u8, usize)]) -> (DiGraph, DistanceMatrix) {
    const CAPS: [f64; 6] = [0.0, 0.05, 0.4, 1.5, 6.0, 80.0];
    let mut g = DiGraph::new(n);
    let mut cap = DistanceMatrix::off_diagonal(n, 0.0);
    for &(u, v, cost, class) in edges {
        let (u, v) = (u % n, v % n);
        if u != v {
            g.add_edge(
                NodeId::from_index(u),
                NodeId::from_index(v),
                f64::from(cost),
            );
            cap.set_at(u, v, CAPS[class % CAPS.len()]);
        }
    }
    (g, cap)
}

/// Flows with unequal rates, shaped the way the AIMD controller shapes
/// them: each flow asks for one of a few base rates, capped by its
/// cell's limit, which halves from epoch to epoch for some cells — so a
/// cell holds several distinct amounts, in runs and interleaved.
fn shaped_flows(
    n: usize,
    spec: &[(usize, usize, usize)],
    limits: &[f64],
    epoch: usize,
) -> Vec<Flow> {
    const BASE: [f64; 5] = [0.25, 0.7, 1.0, 2.5, 0.0];
    spec.iter()
        .filter(|&&(u, v, _)| u % n != v % n)
        .map(|&(u, v, r)| {
            let cell = (u % n) * n + v % n;
            let limit = limits[cell % limits.len()] * 0.5f64.powi((cell % (epoch + 1)) as i32);
            Flow {
                src: NodeId::from_index(u % n),
                dst: NodeId::from_index(v % n),
                rate_mbps: BASE[r % BASE.len()].min(limit),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generator conserves total offered load exactly (equal
    /// split), for any population size, seed, epoch and shape.
    #[test]
    fn demand_conserves_offered_load(
        n in 2usize..24,
        kind_idx in 0usize..4,
        seed in 0u64..500,
        epoch in 0usize..20,
        offered in 1.0f64..5000.0,
    ) {
        let g = DemandGenerator::new(kind_from(kind_idx), n, offered, 16, seed, &delays(n));
        let flows = g.generate(epoch, &vec![true; n]);
        prop_assert!(!flows.is_empty());
        let total: f64 = flows.iter().map(|f| f.rate_mbps).sum();
        prop_assert!(
            (total - offered).abs() < 1e-6 * offered.max(1.0),
            "{}: offered {offered}, emitted {total}",
            kind_from(kind_idx).label()
        );
    }

    /// Conservation also holds under partial aliveness (or the epoch is
    /// empty when fewer than two nodes are up), and flows never touch
    /// dead endpoints.
    #[test]
    fn demand_respects_aliveness(
        n in 2usize..16,
        kind_idx in 0usize..4,
        seed in 0u64..200,
        dead_mask in 0u32..65536,
    ) {
        let alive: Vec<bool> = (0..n).map(|i| dead_mask & (1 << i) == 0).collect();
        let n_alive = alive.iter().filter(|a| **a).count();
        let g = DemandGenerator::new(kind_from(kind_idx), n, 100.0, 12, seed, &delays(n));
        let flows = g.generate(0, &alive);
        if n_alive < 2 {
            prop_assert!(flows.is_empty());
        } else {
            for f in &flows {
                prop_assert!(alive[f.src.index()]);
                prop_assert!(alive[f.dst.index()]);
                prop_assert!(f.src != f.dst);
            }
            if !flows.is_empty() {
                let total: f64 = flows.iter().map(|f| f.rate_mbps).sum();
                prop_assert!((total - 100.0).abs() < 1e-6);
            }
        }
    }

    /// Generators are pure functions of (seed, epoch, aliveness).
    #[test]
    fn demand_is_deterministic(
        n in 2usize..16,
        kind_idx in 0usize..4,
        seed in 0u64..200,
        epoch in 0usize..10,
    ) {
        let d = delays(n);
        let a = DemandGenerator::new(kind_from(kind_idx), n, 64.0, 8, seed, &d);
        let b = DemandGenerator::new(kind_from(kind_idx), n, 64.0, 8, seed, &d);
        prop_assert_eq!(
            a.generate(epoch, &vec![true; n]),
            b.generate(epoch, &vec![true; n])
        );
    }

    /// The capacity ledger never goes negative and conserves admitted
    /// traffic into the consumed matrix.
    #[test]
    fn ledger_conserves_and_stays_nonnegative(
        cap in 1.0f64..100.0,
        rates in proptest::collection::vec(0.1f64..50.0, 1..20),
    ) {
        let n = 5;
        let mut ledger = CapacityLedger::new(&DistanceMatrix::off_diagonal(n, cap));
        let path = [NodeId(0), NodeId(1), NodeId(2)];
        let mut admitted_total = 0.0;
        for r in rates {
            admitted_total += ledger.admit(&path, r);
        }
        prop_assert!(admitted_total <= cap + 1e-9, "admitted {admitted_total} > cap {cap}");
        prop_assert!(ledger.residual(NodeId(0), NodeId(1)) >= -1e-12);
        // Each of the 2 hops carries the admitted total.
        prop_assert!((ledger.total_link_mbps() - 2.0 * admitted_total).abs() < 1e-6);
        let fwd = ledger.forwarded_per_node();
        prop_assert!((fwd[0] - admitted_total).abs() < 1e-9);
        prop_assert!((fwd[1] - admitted_total).abs() < 1e-9);
        prop_assert_eq!(fwd[2], 0.0);
    }

    /// Backpressure stability: under a strictly admissible load (link
    /// capacity comfortably above the offered rate) total backlog must
    /// settle to a bounded level instead of growing without bound, and
    /// steady-state deliveries must approach the offered rate.
    #[test]
    fn backpressure_backlog_bounded_under_admissible_load(
        n in 3usize..9,
        rate in 1.0f64..20.0,
        hops in 1usize..5,
    ) {
        let mut g = DiGraph::new(n);
        for i in 0..n {
            g.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32), 1.0);
        }
        let d = delays(n);
        let loads = vec![0.0; n];
        let cap = DistanceMatrix::off_diagonal(n, rate * 2.0 + 10.0);
        let inp = RouteInputs {
            overlay: &g,
            true_delays: &d,
            node_load: &loads,
            capacity: &cap,
        };
        let flows = [Flow {
            src: NodeId(0),
            dst: NodeId(hops.min(n - 1) as u32),
            rate_mbps: rate,
        }];
        let mut bp = BackpressureEngine::new(n, BackpressureConfig::default());
        let mut last = 0.0;
        for _ in 0..10 {
            last = bp.route_epoch(&flows, &inp).delivered_mbps;
        }
        let b1 = bp.total_backlog();
        for _ in 0..10 {
            last = bp.route_epoch(&flows, &inp).delivered_mbps;
        }
        let b2 = bp.total_backlog();
        prop_assert!(last > rate * 0.7, "steady delivery {last} ≪ offered {rate}");
        prop_assert!(
            b2 < rate * (n as f64 + 4.0),
            "backlog {b2} unbounded for rate {rate} on {n} nodes"
        );
        prop_assert!(
            b2 < b1 + 0.2 * rate,
            "backlog still growing after settling: {b1} → {b2}"
        );
    }

    /// The one-scan link service and the per-cell injection runs are
    /// exactly the per-iteration argmax service and the per-flow, per-slot
    /// injection: over several epochs of random small overlays, unequal
    /// AIMD-shaped rates and nonzero virtual queues, every outcome field
    /// and every queue accumulator and virtual queue agree bit for bit.
    #[test]
    fn backpressure_service_matches_the_argmax_oracle(
        n in 2usize..9,
        edges in proptest::collection::vec((0usize..9, 0usize..9, 1u8..4, 0usize..6), 0..40),
        spec in proptest::collection::vec((0usize..9, 0usize..9, 0usize..5), 0..60),
        limits in proptest::collection::vec(0.05f64..3.0, 1..8),
        slots in 1usize..20,
        loads in proptest::collection::vec(0.0f64..4.0, 9),
        epochs in 1usize..6,
    ) {
        let (g, cap) = random_overlay(n, &edges);
        let d = delays(n);
        let inp = RouteInputs {
            overlay: &g,
            true_delays: &d,
            node_load: &loads[..n],
            capacity: &cap,
        };
        let cfg = BackpressureConfig { slots, slot_ms: 3.0 };
        let mut fast = BackpressureEngine::new(n, cfg);
        let mut slow = BackpressureEngine::new(n, cfg);
        for epoch in 0..epochs {
            let flows = shaped_flows(n, &spec, &limits, epoch);
            let a = fast.route_epoch(&flows, &inp);
            let b = backpressure::oracle::route_epoch(&mut slow, &flows, &inp);
            prop_assert_eq!(outcome_bits(&a), outcome_bits(&b), "epoch {}", epoch);
            prop_assert_eq!(
                backpressure::oracle::state_bits(&fast),
                backpressure::oracle::state_bits(&slow)
            );
        }
    }

    /// Spill paths searched on demand route exactly as the eager fill
    /// that searched every opened pair's paths up front: 1–4 paths, random
    /// overlays with tied costs and saturating links, repeated pairs with
    /// unequal rates, several epochs of flows on one overlay.
    #[test]
    fn spill_paths_on_demand_match_the_eager_fill(
        n in 2usize..9,
        edges in proptest::collection::vec((0usize..9, 0usize..9, 1u8..4, 0usize..6), 0..40),
        spec in proptest::collection::vec((0usize..9, 0usize..9, 0usize..5), 0..60),
        limits in proptest::collection::vec(0.05f64..3.0, 1..8),
        max_paths in 1usize..5,
        loads in proptest::collection::vec(0.0f64..4.0, 9),
        epochs in 1usize..4,
    ) {
        let (g, cap) = random_overlay(n, &edges);
        let d = delays(n);
        let inp = RouteInputs {
            overlay: &g,
            true_delays: &d,
            node_load: &loads[..n],
            capacity: &cap,
        };
        let r = FlowRouter::new(RouterConfig { max_paths });
        for epoch in 0..epochs {
            let flows = shaped_flows(n, &spec, &limits, epoch);
            let a = r.route(&flows, &inp);
            let b = router::oracle::route_eager(&r, &flows, &inp);
            prop_assert_eq!(outcome_bits(&a), outcome_bits(&b), "epoch {}", epoch);
        }
    }

    /// Policy determinism end to end: every data policy run through the
    /// full closed-loop engine is a pure function of its configuration —
    /// two same-seed runs serialize byte-identically.
    #[test]
    fn data_policies_are_pure_functions_of_seed(
        n in 6usize..14,
        seed in 0u64..64,
        policy_idx in 0usize..3,
        offered in 50.0f64..800.0,
    ) {
        let mut cfg = TrafficConfig::new(n, 3, PolicyKind::BestResponse, Metric::DelayPing, seed);
        cfg.sim.epochs = 4;
        cfg.sim.warmup_epochs = 1;
        cfg.flows_per_epoch = 10;
        cfg.offered_mbps = offered;
        cfg.data_policy = DataPolicyKind::all()[policy_idx];
        prop_assert_eq!(
            TrafficEngine::run(&cfg).to_json(),
            TrafficEngine::run(&cfg).to_json()
        );
    }
}
