//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! restates the end-to-end half of this file for the driver; a unit
//! test keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a fixed input shape whose only free parameters are the
/// seed and the `--seconds` budget (which picks epochs / horizon, never
/// `n` — `n` fixes the working set and the complexity regime).
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WIRING_BR_DELAY: &str = "wiring_br_delay_n500";
pub const WIRING_BW_CHURN: &str = "wiring_bw_churn_n300";
pub const TRAFFIC_MIX: &str = "traffic_mix_n150";
pub const FLEET_CHAOS: &str = "fleet_chaos_n600";
pub const FLEET_BR: &str = "fleet_br_n300";

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: WIRING_BR_DELAY,
        why: "epoch simulator, best response on delay, n=500 k=8, no churn, 1 cold + 6 timed epochs: the BR solver owns ~78% of wall, so a solver or candidate-scan change must show here",
    },
    WorkloadSpec {
        name: WIRING_BW_CHURN,
        why: "same engine on the widest-path semiring under PlanetLab-like churn, n=300 k=8, 1+9 epochs: snapshot rebuilds own ~37% of wall; guards the path a delay-only change could tax",
    },
    WorkloadSpec {
        name: TRAFFIC_MIX,
        why: "closed control/data loop, BR-wired n=150 k=6, arms spf/mp2/backpressure/delay_aware, 1+10 epochs each, flows >> nodes: crates/traffic owns ~76% of wall, core ~21%",
    },
    WorkloadSpec {
        name: FLEET_CHAOS,
        why: "live protocol fleet, n=600 Random wiring, 10% loss, churn storm + healed partition, 260 virtual s: frame handling and route publish dominate, zero solver",
    },
    WorkloadSpec {
        name: FLEET_BR,
        why: "live protocol fleet, n=300 k=4 best response, pristine network, 200 virtual s: the BR solver reached through EgoistNode's rewire job, tick_epoch owns ~84% of wall",
    },
];

/// One end-to-end metric. `workloads` lists where it is measured; on
/// every other workload the run reports [`NOT_APPLICABLE`] so that each
/// run carries one fixed key set.
pub struct E2eSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Empty = every workload.
    pub workloads: &'static [&'static str],
    /// Host time (varies run to run) or simulated (bit-equal for the
    /// same code, seed and `--seconds`).
    pub simulated: bool,
}

/// Reported for an end-to-end metric on a workload it is not defined
/// on. A constant can never trip a relative bound.
pub const NOT_APPLICABLE: f64 = 1.0;

pub const WALL_S: &str = "wall_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const COST_RATIO: &str = "cost_ratio";
pub const BW_UTILITY: &str = "bw_utility";
pub const DELIVERY_RATIO: &str = "delivery_ratio";
pub const P99_LATENCY_MS: &str = "p99_latency_ms";
pub const FINAL_REACHABILITY: &str = "final_reachability";
pub const RECONVERGE_S: &str = "reconverge_s";
pub const CTRL_BYTES: &str = "ctrl_bytes_per_node_s";

const FLEETS: &[&str] = &[FLEET_CHAOS, FLEET_BR];

pub const E2E: &[E2eSpec] = &[
    E2eSpec {
        name: WALL_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
        simulated: false,
    },
    E2eSpec {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
        simulated: false,
    },
    E2eSpec {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
        simulated: false,
    },
    E2eSpec {
        name: COST_RATIO,
        unit: "ratio",
        better: Better::Lower,
        bound: 0.03,
        workloads: &[WIRING_BR_DELAY],
        simulated: true,
    },
    E2eSpec {
        name: BW_UTILITY,
        unit: "Mbps",
        better: Better::Higher,
        bound: 0.25,
        workloads: &[WIRING_BW_CHURN],
        simulated: true,
    },
    E2eSpec {
        name: DELIVERY_RATIO,
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
        workloads: &[TRAFFIC_MIX],
        simulated: true,
    },
    E2eSpec {
        name: P99_LATENCY_MS,
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[TRAFFIC_MIX],
        simulated: true,
    },
    E2eSpec {
        name: FINAL_REACHABILITY,
        unit: "ratio",
        better: Better::Higher,
        bound: 0.06,
        workloads: FLEETS,
        simulated: true,
    },
    E2eSpec {
        name: RECONVERGE_S,
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[FLEET_CHAOS],
        simulated: true,
    },
    E2eSpec {
        name: CTRL_BYTES,
        unit: "B/node/s",
        better: Better::Lower,
        bound: 0.02,
        workloads: FLEETS,
        simulated: true,
    },
];

impl E2eSpec {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

#[cfg(test)]
pub fn e2e(name: &str) -> Option<&'static E2eSpec> {
    E2E.iter().find(|m| m.name == name)
}

/// One per-layer metric (traced run only; no bound).
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric a traced run prints, in layer order. A metric
/// of a layer the workload never enters reads 0.
pub const LAYERS: &[LayerSpec] = &[
    // core: the decomposed Simulator::new / run_epoch / measure loop.
    lower("core.sim_new.ms", "ms"),
    lower("core.run_epoch.ms", "ms"),
    lower("core.run_epoch.calls", "count"),
    lower("core.run_epoch.self.ms", "ms"),
    lower("core.measure.ms", "ms"),
    lower("core.turn.solver.ms", "ms"),
    lower("core.turn.residual.ms", "ms"),
    lower("core.turn.absorb.ms", "ms"),
    lower("core.turns", "count"),
    lower("core.rewirings", "count"),
    lower("core.solver.scanned_per_turn", "count"),
    higher("core.solver.prune_ratio", "ratio"),
    lower("core.solver.exact_evals", "count"),
    lower("core.route.rebuilds", "count"),
    higher("core.route.borrow_ratio", "ratio"),
    higher("core.route.repair_ratio", "ratio"),
    // graph: registry spans/counters plus two isolated probes.
    lower("graph.apsp.build.ms", "ms"),
    lower("graph.widest.build.ms", "ms"),
    lower("graph.apsp.sources", "count"),
    lower("graph.repair.insertion", "count"),
    lower("graph.repair.removal", "count"),
    lower("graph.probe.apsp_dense.ms", "ms"),
    lower("graph.probe.apsp_csr.ms", "ms"),
    // netsim: counts only; its time shows as core.run_epoch.self.ms.
    lower("netsim.churn.events", "count"),
    lower("netsim.fault.dropped", "count"),
    lower("netsim.fault.cut", "count"),
    // traffic: the decomposed TrafficEngine::run loop.
    lower("traffic.demand.ms", "ms"),
    lower("traffic.inputs.ms", "ms"),
    lower("traffic.route_epoch.spf.ms", "ms"),
    lower("traffic.route_epoch.mp2.ms", "ms"),
    lower("traffic.route_epoch.backpressure.ms", "ms"),
    lower("traffic.route_epoch.delay_aware.ms", "ms"),
    lower("traffic.feedback.ms", "ms"),
    lower("traffic.report.ms", "ms"),
    lower("traffic.report.ns_per_flow", "ns"),
    higher("traffic.arm.spf.delivery_ratio", "ratio"),
    higher("traffic.arm.mp2.delivery_ratio", "ratio"),
    higher("traffic.arm.backpressure.delivery_ratio", "ratio"),
    higher("traffic.arm.delay_aware.delivery_ratio", "ratio"),
    lower("traffic.arm.spf.p99_latency_ms", "sim_ms"),
    lower("traffic.arm.mp2.p99_latency_ms", "sim_ms"),
    lower("traffic.arm.backpressure.p99_latency_ms", "sim_ms"),
    lower("traffic.arm.delay_aware.p99_latency_ms", "sim_ms"),
    lower("traffic.flows.offered", "count"),
    lower("traffic.flows.dropped", "count"),
    lower("traffic.route_changes", "count"),
    // proto: the benchmark-owned stepper over the EgoistNode tick API.
    lower("proto.spawn.ms", "ms"),
    lower("proto.simnet.deliver.ms", "ms"),
    lower("proto.drain.ms", "ms"),
    lower("proto.drain.calls", "count"),
    lower("proto.tick_ping.ms", "ms"),
    lower("proto.tick_announce.ms", "ms"),
    lower("proto.tick_sync.ms", "ms"),
    lower("proto.tick_join.ms", "ms"),
    lower("proto.tick_epoch.ms", "ms"),
    lower("proto.tick_epoch.calls", "count"),
    lower("proto.tick_epoch.ms_per_call", "ms"),
    lower("fleet.wheel.self.ms", "ms"),
    lower("proto.frames.sent", "count"),
    lower("proto.bytes.sent", "B"),
    lower("proto.drain.us_per_frame", "us"),
    lower("proto.gossip.forwards", "count"),
    lower("proto.flood_ratio", "ratio"),
    lower("proto.ae.digests", "count"),
    lower("proto.ae.pulls", "count"),
    lower("proto.ae.pushed_lsas", "count"),
    lower("proto.decode_errors", "count"),
    lower("proto.join.retries", "count"),
    lower("proto.peer.demotions", "count"),
    lower("proto.route_stretch", "ratio"),
    higher("proto.stepper.matches", "count"),
    // proto probes: public codec / LSDB calls on a representative mix.
    lower("proto.probe.codec.encode.ns", "ns"),
    lower("proto.probe.codec.decode.ns", "ns"),
    lower("proto.probe.lsdb.apply.ns", "ns"),
    lower("proto.probe.lsdb.digest.us", "us"),
    // harness.
    higher("trace.coverage", "ratio"),
];

/// Computed by the suite from an untraced and a traced pass; a single
/// traced run cannot know it, so it is not in [`LAYERS`].
pub const OBS_OVERHEAD_RATIO: &str = "obs.overhead_ratio";

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `run --list`: every metric name, unit, direction and bound.
pub fn print_list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<24} {}", w.name, w.why);
    }
    println!("end-to-end metrics (name unit better bound workloads):");
    for m in E2E {
        let on = if m.workloads.is_empty() {
            "all".to_string()
        } else {
            m.workloads.join(",")
        };
        println!(
            "  {:<24} {:<9} {:<6} {:>5.1}%  {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            on
        );
    }
    println!("per-layer metrics, traced run only (name unit better):");
    for m in LAYERS {
        println!("  {:<42} {:<7} {}", m.name, m.unit, m.better.label());
    }
    println!(
        "  {:<42} {:<7} lower   (suite only: traced / untraced wall_s)",
        OBS_OVERHEAD_RATIO, "ratio"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` is the driver's copy of this file's tables.
    #[test]
    fn spec_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (theirs, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(theirs, "name"), w.name);
            assert_eq!(text(theirs, "why"), w.why);
        }

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), E2E.len());
        for (theirs, m) in e2e.iter().zip(E2E) {
            assert_eq!(text(theirs, "name"), m.name);
            assert_eq!(text(theirs, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(theirs, "better"), m.better.label(), "{}", m.name);
            assert_eq!(
                theirs.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), LAYERS.len());
        for (theirs, m) in layers.iter().zip(LAYERS) {
            assert_eq!(text(theirs, "name"), m.name);
            assert_eq!(text(theirs, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(theirs, "better"), m.better.label(), "{}", m.name);
        }
        assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(10.0));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(E2E.iter().map(|m| m.name));
        names.extend(LAYERS.iter().map(|m| m.name));
        let total = names.len();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(LAYERS.len() <= 128 && E2E.len() <= 16 && (2..=8).contains(&WORKLOADS.len()));
        assert!(E2E.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
