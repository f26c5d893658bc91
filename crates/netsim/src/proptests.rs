//! Property tests for the underlay models.

use crate::churn::{ChurnModel, ChurnTrace, Durations, NodeProfile};
use crate::delay::DelayModel;
use crate::fault::{FaultConfig, FaultInjector, FaultPlan, Verdict};
use crate::planetlab::{PlanetLabSpec, Region};
use crate::rng::derive;
use crate::topo::{barabasi_albert_delays, waxman_delays, BaConfig, WaxmanConfig};
use egoist_graph::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Delay matrices are always positive off-diagonal, zero on the
    /// diagonal, and stay positive under arbitrary jitter evolution.
    #[test]
    fn delays_stay_positive(seed in 0u64..500, steps in 0usize..20) {
        let spec = PlanetLabSpec::uniform(Region::Europe, 12);
        let mut m = DelayModel::from_spec(&spec, seed);
        let mut rng = derive(seed, "prop-adv");
        for _ in 0..steps {
            m.advance(60.0, &mut rng);
        }
        for i in 0..12 {
            for j in 0..12 {
                if i == j {
                    prop_assert_eq!(m.delay(i, j), 0.0);
                } else {
                    prop_assert!(m.delay(i, j) > 0.0);
                }
            }
        }
    }

    /// Churn traces keep a consistent membership state machine: alive_at
    /// never returns duplicates, and the population never exceeds n.
    #[test]
    fn churn_membership_is_consistent(seed in 0u64..200, divisor in 1.0f64..500.0) {
        let mut model = ChurnModel::planetlab_like(15, seed);
        model.timescale_divisor = divisor;
        let trace = model.generate(1800.0);
        for t in [0.0, 450.0, 900.0, 1799.0] {
            let alive = trace.alive_at(t);
            prop_assert!(alive.len() <= 15);
            let mut s = alive.clone();
            s.sort_unstable();
            s.dedup();
            prop_assert_eq!(s.len(), alive.len());
        }
        prop_assert!(trace.churn_rate() >= 0.0);
    }

    /// Higher timescale divisors never reduce the number of churn events.
    #[test]
    fn churn_rate_monotone_in_divisor(seed in 0u64..100) {
        let rate = |div: f64| {
            let mut m = ChurnModel::homogeneous(
                20,
                NodeProfile {
                    on: Durations::Exponential { mean: 3600.0 },
                    off: Durations::Exponential { mean: 600.0 },
                },
                seed,
            );
            m.timescale_divisor = div;
            m.generate(7200.0).churn_rate()
        };
        let (lo, hi) = (rate(1.0), rate(60.0));
        prop_assert!(hi >= lo, "divisor 60 rate {hi} < divisor 1 rate {lo}");
    }

    /// The fault injector conserves frames: passed + dropped + corrupted
    /// + rate_limited equals the number processed, and with no faults
    /// configured everything passes untouched.
    #[test]
    fn fault_injector_accounts_every_frame(
        seed in 0u64..200,
        drop in 0.0f64..1.0,
        corrupt in 0.0f64..1.0,
        frames in 1usize..200,
    ) {
        let cfg = FaultConfig { drop_chance: drop, corrupt_chance: corrupt, ..Default::default() };
        let mut inj = FaultInjector::new(cfg, seed);
        let mut buf = vec![0xA5u8; 16];
        for t in 0..frames {
            let _ = inj.process(t as f64, &mut buf);
        }
        prop_assert_eq!(
            inj.stats.passed + inj.stats.dropped + inj.stats.corrupted + inj.stats.rate_limited,
            frames as u64
        );
    }

    /// Clean injectors never mutate payloads.
    #[test]
    fn clean_injector_never_mutates(seed in 0u64..100, data in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut inj = FaultInjector::new(FaultConfig::default(), seed);
        let mut buf = data.clone();
        let v = inj.process(0.0, &mut buf);
        prop_assert_eq!(v, Verdict::Pass);
        prop_assert_eq!(buf, data);
    }

    /// Synthetic topologies always produce fully finite, positive delay
    /// matrices (the connectivity fix-up works for any density).
    #[test]
    fn topologies_are_connected(seed in 0u64..50, alpha in 0.02f64..0.8, m in 1usize..4) {
        let w = waxman_delays(20, &WaxmanConfig { alpha, ..Default::default() }, seed);
        let b = barabasi_albert_delays(20, &BaConfig { edges_per_node: m, ..Default::default() }, seed);
        for d in [&w, &b] {
            for i in 0..20 {
                for j in 0..20 {
                    if i != j {
                        prop_assert!(d.at(i, j).is_finite() && d.at(i, j) > 0.0);
                    }
                }
            }
        }
    }

    /// Same seed + config + plan ⇒ identical verdict sequence, across
    /// every verdict class (drop, corrupt, duplicate, reorder, jitter,
    /// partition/storm cuts). The adversarial fleet harness's
    /// bit-reproducible reports rest on this.
    #[test]
    fn fault_plan_verdicts_are_deterministic(
        seed in 0u64..200,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.4,
        reorder in 0.0f64..0.4,
        jitter in 0.0f64..0.4,
        frames in 1usize..300,
    ) {
        let cfg = FaultConfig {
            drop_chance: drop,
            corrupt_chance: 0.1,
            duplicate_chance: dup,
            reorder_chance: reorder,
            jitter_chance: jitter,
            ..Default::default()
        };
        let plan = FaultPlan::new()
            .partition(20.0, 50.0, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]])
            .churn_storm(60.0, 120.0, (0..4).map(NodeId).collect(), 15.0, 0.3)
            .loss(130.0, 160.0, 0.8)
            .duplicate(130.0, 160.0, 0.5)
            .reorder(130.0, 160.0, 0.5, 30.0)
            .jitter(130.0, 160.0, 0.5, 8.0);
        let run = || {
            let mut inj = FaultInjector::with_plan(cfg, Some(plan.clone()), seed);
            let mut verdicts = Vec::with_capacity(frames);
            for t in 0..frames {
                let now = t as f64 * 0.7;
                let from = NodeId((t % 4) as u32);
                let to = NodeId(((t + 1) % 4) as u32);
                let mut buf = vec![0x5Au8; 16];
                verdicts.push(inj.process_addressed(now, from, to, &mut buf));
            }
            (
                verdicts,
                inj.stats.cut,
                inj.stats.duplicated,
                inj.stats.reordered,
                inj.stats.jittered,
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// A plan-free injector behaves identically through the addressed
    /// and address-blind entry points: wiring the plan machinery in must
    /// not perturb legacy verdict streams.
    #[test]
    fn addressed_and_blind_paths_agree_without_plan(
        seed in 0u64..200,
        drop in 0.0f64..0.9,
        frames in 1usize..200,
    ) {
        let cfg = FaultConfig { drop_chance: drop, corrupt_chance: 0.2, ..Default::default() };
        let mut blind = FaultInjector::new(cfg, seed);
        let mut addressed = FaultInjector::new(cfg, seed);
        for t in 0..frames {
            let mut a = vec![0xC3u8; 8];
            let mut b = a.clone();
            let va = blind.process(t as f64, &mut a);
            let vb = addressed.process_addressed(t as f64, NodeId(5), NodeId(6), &mut b);
            prop_assert_eq!(va, vb);
            prop_assert_eq!(&a, &b);
        }
    }

    /// Trace slicing covers every event exactly once.
    #[test]
    fn events_between_partitions(seed in 0u64..100) {
        let model = ChurnModel::planetlab_like(10, seed);
        let trace: ChurnTrace = model.generate(3600.0);
        let cuts = [0.0, 700.0, 1800.0, 2500.0, 3600.0];
        let mut total = 0;
        for w in cuts.windows(2) {
            total += trace.events_between(w[0], w[1]).len();
        }
        prop_assert_eq!(total, trace.events.len());
    }
}
