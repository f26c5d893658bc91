//! `policy_race` — race the data-plane routing policies and the
//! traffic-aware wiring, emitting the deterministic `egoist-traffic/v1`
//! report.
//!
//! Three scenarios, all driven through `egoist_traffic::sweep_offered`
//! (the same code path `traffic_workloads --sweep` uses):
//!
//! * `uniform_knee` — offered-load sweep, spf vs backpressure vs
//!   delay-aware on a uniform workload. Verdict: at the highest offered
//!   load, backpressure delivers strictly more than shortest-path —
//!   differential-backlog forwarding finds the capacity path-committed
//!   routing leaves on the table (arXiv:1612.05537).
//! * `saturated_link` — a hot-spot gravity workload far past the knee,
//!   delay-aware with hysteresis vs the same policy with hysteresis
//!   disabled. Verdict: the hysteretic run's route-change count stays
//!   under both the flap budget and the hysteresis-free count
//!   (arXiv:1403.3488).
//! * `wiring_race` — plain BR wiring vs demand-blended BR
//!   (`PolicyKind::TrafficAware`), same closed-loop workload. Verdict:
//!   wiring toward the observed demand matrix keeps delivered
//!   throughput within tolerance of plain BR (it re-aims links, it must
//!   not break transport).
//!
//! Every scenario is executed TWICE and the serializations must be
//! byte-identical — the determinism gate runs on every invocation.
//! `--check` additionally rejects any report with a failed verdict, so
//! CI holds the acceptance claims, not just the shape.
//!
//! Usage: policy_race [--quick] [--out PATH] [--schema PATH] [--check PATH]
//!   --quick        small profiles (CI scale)
//!   --out PATH     write the report (default: stdout)
//!   --schema PATH  schema to validate against (default: schemas/traffic.schema.json)
//!   --check PATH   validate an existing report file and exit (no run)

use egoist_bench::report::{same_twice, TRAFFIC};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::Metric;
use egoist_traffic::demand::WorkloadKind;
use egoist_traffic::engine::{sweep_offered, SweepPoint, TrafficConfig};
use egoist_traffic::json::{array, JsonObject, Layout::Compact};
use egoist_traffic::policy::DataPolicyKind;

/// One measured point of a sweep.
fn point_json(policy_label: &str, p: &SweepPoint) -> String {
    let s = &p.report.summary;
    JsonObject::new(Compact)
        .str("config", &p.report.config_label)
        .str("data_policy", policy_label)
        .f64("offered_mbps", p.offered_mbps)
        .f64("delivered_mbps", s.delivered_mbps)
        .f64("delivery_ratio", s.delivery_ratio)
        .f64("p50_latency_ms", s.p50_latency_ms)
        .f64("p99_latency_ms", s.p99_latency_ms)
        .f64("mean_stretch", s.mean_stretch)
        .u64("route_changes", s.route_changes as u64)
        .finish()
}

fn verdict_json(name: &str, lhs: f64, op: &str, rhs: f64, pass: bool) -> String {
    JsonObject::new(Compact)
        .str("name", name)
        .f64("lhs", lhs)
        .str("op", op)
        .f64("rhs", rhs)
        .bool("pass", pass)
        .finish()
}

fn scenario_json(name: &str, cfg: &TrafficConfig, points: Vec<String>, verdict: String) -> String {
    JsonObject::new(Compact)
        .str("scenario", name)
        .u64("n", cfg.sim.n as u64)
        .u64("k", cfg.sim.k as u64)
        .u64("seed", cfg.sim.seed)
        .str("workload", cfg.workload.label())
        .raw("points", array(Compact, points))
        .raw("verdict", verdict)
        .finish()
}

/// The shared control-plane base: closed loop on the Load metric, so
/// carried traffic feeds back into the announcements the wiring sees.
fn base(policy: PolicyKind, workload: WorkloadKind, seed: u64, quick: bool) -> TrafficConfig {
    let n = if quick { 20 } else { 24 };
    let mut cfg = TrafficConfig::new(n, 3, policy, Metric::Load, seed);
    cfg.sim.epochs = if quick { 8 } else { 12 };
    cfg.sim.warmup_epochs = if quick { 3 } else { 4 };
    cfg.workload = workload;
    cfg.flows_per_epoch = if quick { 32 } else { 48 };
    cfg
}

/// Offered-load sweep: the throughput knee, all three data policies.
fn uniform_knee(quick: bool) -> String {
    let cfg = base(PolicyKind::BestResponse, WorkloadKind::Uniform, 11, quick);
    let loads: &[f64] = if quick {
        &[500.0, 3000.0]
    } else {
        &[250.0, 500.0, 1000.0, 2000.0, 3000.0]
    };
    let policies = DataPolicyKind::all();
    let pts = sweep_offered(&cfg, loads, &policies);
    let peak = *loads.last().unwrap();
    let at_peak = |kind: DataPolicyKind| {
        pts.iter()
            .find(|p| p.data_policy == kind && p.offered_mbps == peak)
            .map(|p| p.report.summary.delivered_mbps)
            .unwrap_or(0.0)
    };
    let spf = at_peak(DataPolicyKind::ShortestPath);
    let bp = at_peak(DataPolicyKind::Backpressure);
    let verdict = verdict_json("backpressure_beats_spf_at_peak", bp, ">", spf, bp > spf);
    let points = pts
        .iter()
        .map(|p| point_json(p.data_policy.label(), p))
        .collect();
    scenario_json("uniform_knee", &cfg, points, verdict)
}

/// Saturated hot-spot workload: hysteresis vs none on route flapping.
fn saturated_link(quick: bool) -> String {
    let workload = WorkloadKind::Gravity { exponent: 1.5 };
    let mut hyst = base(PolicyKind::BestResponse, workload, 27, quick);
    hyst.delay_aware.hysteresis = 0.25;
    let mut nohyst = hyst.clone();
    nohyst.delay_aware.hysteresis = 0.0;
    let loads = [2500.0];
    let policies = [DataPolicyKind::DelayAware];
    let p_hyst = &sweep_offered(&hyst, &loads, &policies)[0];
    let p_nohyst = &sweep_offered(&nohyst, &loads, &policies)[0];
    let changes = p_hyst.report.summary.route_changes as f64;
    let rivals = p_nohyst.report.summary.route_changes as f64;
    // Flap budget: a quarter of one switch per flow per steady epoch.
    let steady = (hyst.sim.epochs - hyst.sim.warmup_epochs) as f64;
    let budget = hyst.flows_per_epoch as f64 * steady / 4.0;
    let bound = budget.min(rivals);
    let verdict = verdict_json(
        "delay_aware_route_changes_bounded",
        changes,
        "<=",
        bound,
        changes <= bound,
    );
    let points = vec![
        point_json("delay-aware", p_hyst),
        point_json("delay-aware-nohyst", p_nohyst),
    ];
    scenario_json("saturated_link", &hyst, points, verdict)
}

/// Plain BR vs demand-blended BR wiring, same closed-loop traffic.
fn wiring_race(quick: bool) -> String {
    let workload = WorkloadKind::Gravity { exponent: 1.2 };
    let br = base(PolicyKind::BestResponse, workload, 33, quick);
    let ta = base(PolicyKind::TrafficAware { bias: 0.8 }, workload, 33, quick);
    let loads = [800.0];
    let policies = [DataPolicyKind::ShortestPath];
    let p_br = &sweep_offered(&br, &loads, &policies)[0];
    let p_ta = &sweep_offered(&ta, &loads, &policies)[0];
    let br_del = p_br.report.summary.delivered_mbps;
    let ta_del = p_ta.report.summary.delivered_mbps;
    let floor = 0.95 * br_del;
    let verdict = verdict_json(
        "traffic_aware_within_tolerance",
        ta_del,
        ">=",
        floor,
        ta_del >= floor,
    );
    let points = vec![point_json("spf", p_br), point_json("spf", p_ta)];
    scenario_json("wiring_race", &ta, points, verdict)
}

fn build_report(quick: bool) -> String {
    let scenarios = [
        same_twice("policy_race", "uniform_knee", || uniform_knee(quick)),
        same_twice("policy_race", "saturated_link", || saturated_link(quick)),
        same_twice("policy_race", "wiring_race", || wiring_race(quick)),
    ];
    JsonObject::new(Compact)
        .str("schema", TRAFFIC.tag)
        .bool("quick", quick)
        .raw("scenarios", array(Compact, scenarios))
        .document()
}

fn main() {
    TRAFFIC.main("policy_race", build_report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_deterministic_and_passes_its_own_check() {
        let schema = include_str!("../../../../schemas/traffic.schema.json");
        let doc = build_report(true);
        assert_eq!(doc, build_report(true));
        let verdict = TRAFFIC.check(&doc, Some(schema));
        assert!(verdict.is_ok(), "{verdict:?}");
    }
}
