//! Data-plane workload comparison: policies × workloads, as JSON.
//!
//! Runs the closed-loop traffic engine for every combination of wiring
//! policy (BR, k-Random, k-Closest, and k-Regular as the degenerate
//! baseline) and workload shape (uniform, gravity, broadcast, CDN), and
//! emits one JSON document comparing their steady-state summaries —
//! throughput, delivery ratio, p50/p99 flow latency, path stretch.
//!
//! The paper's claim under test: selfishly-wired overlays carry real
//! traffic better (lower latency, less stretch), and with the closed
//! loop they keep doing so *under the congestion their own traffic
//! induces*.
//!
//! Honors `EGOIST_FAST=1`, `EGOIST_SEEDS`, `EGOIST_EPOCHS`.
//!
//! Flags: `--metrics-out PATH` dumps the obs registry (egoist-obs/v1,
//! all runs accumulated — flow latency/stretch/utilization histograms,
//! router counters, epoch spans) after the sweep; `--trace` turns the
//! flight recorder on and echoes its events JSON to stderr; `--sweep`
//! switches to an offered-load × data-policy sweep (spf, backpressure,
//! delay-aware) through `egoist_traffic::sweep_offered` — the same code
//! path the `policy_race` scenarios run on.

use egoist_bench::report::{dump_obs, Flags};
use egoist_bench::{epochs, seeds, warmup};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::Metric;
use egoist_obs::json::{array, JsonObject, Layout::Compact};
use egoist_traffic::demand::WorkloadKind;
use egoist_traffic::engine::{sweep_offered, TrafficConfig, TrafficEngine};
use egoist_traffic::policy::DataPolicyKind;

/// The `--sweep` mode: one wiring policy (BR), all three data policies,
/// offered load swept across the knee.
fn run_sweep() {
    let loads = [250.0, 500.0, 1000.0, 2000.0, 3000.0];
    let policies = DataPolicyKind::all();
    let seed = seeds()[0];
    let mut cfg = TrafficConfig::new(32, 4, PolicyKind::BestResponse, Metric::Load, seed);
    cfg.sim.epochs = epochs();
    cfg.sim.warmup_epochs = warmup();
    cfg.flows_per_epoch = 48;
    let points: Vec<String> = sweep_offered(&cfg, &loads, &policies)
        .iter()
        .map(|p| {
            let s = &p.report.summary;
            JsonObject::new(Compact)
                .str("data_policy", p.data_policy.label())
                .f64("offered_mbps", p.offered_mbps)
                .f64("delivered_mbps", s.delivered_mbps)
                .f64("delivery_ratio", s.delivery_ratio)
                .f64("p50_latency_ms", s.p50_latency_ms)
                .f64("p99_latency_ms", s.p99_latency_ms)
                .f64("mean_stretch", s.mean_stretch)
                .u64("route_changes", s.route_changes as u64)
                .finish()
        })
        .collect();
    let doc = JsonObject::new(Compact)
        .str("experiment", "traffic_workloads_sweep")
        .str(
            "expectation",
            "delivered throughput rises with offered load until the knee; past \
             it, backpressure keeps climbing toward the multi-commodity capacity \
             while the path-committed policies flatten out",
        )
        .u64("n", 32)
        .u64("k", 4)
        .str("metric", "Load")
        .u64("seed", seed)
        .raw("loads", array(Compact, loads.iter().map(|l| l.to_string())))
        .raw("points", array(Compact, points))
        .finish();
    println!("{doc}");
    eprintln!(
        "# traffic_workloads --sweep: {} policies x {} loads done",
        DataPolicyKind::all().len(),
        loads.len()
    );
}

fn main() {
    let flags = Flags::parse(&["--trace", "--sweep"], &["--metrics-out"]);
    let metrics_out = flags.value("--metrics-out");
    let trace = flags.on("--trace");
    if metrics_out.is_some() || trace {
        egoist_obs::enable();
    }
    if trace {
        egoist_obs::enable_trace();
    }
    if flags.on("--sweep") {
        run_sweep();
        return;
    }
    let n = 32;
    let k = 4;
    let policies = [
        PolicyKind::BestResponse,
        PolicyKind::Random,
        PolicyKind::Closest,
        PolicyKind::Regular,
    ];
    let workloads = WorkloadKind::all();

    let mut runs = Vec::new();
    for &policy in &policies {
        for &workload in &workloads {
            // Per-seed reports; the JSON carries each seed's summary so
            // downstream tooling can compute its own aggregates.
            let mut per_seed = Vec::new();
            for &seed in &seeds() {
                let mut cfg = TrafficConfig::new(n, k, policy, Metric::Load, seed);
                cfg.sim.epochs = epochs();
                cfg.sim.warmup_epochs = warmup();
                cfg.workload = workload;
                cfg.offered_mbps = 200.0;
                cfg.flows_per_epoch = 48;
                let report = TrafficEngine::run(&cfg);
                per_seed.push(
                    JsonObject::new(Compact)
                        .u64("seed", seed)
                        .raw(
                            "summary",
                            JsonObject::new(Compact)
                                .f64("delivered_mbps", report.summary.delivered_mbps)
                                .f64("delivery_ratio", report.summary.delivery_ratio)
                                .f64("p50_latency_ms", report.summary.p50_latency_ms)
                                .f64("p99_latency_ms", report.summary.p99_latency_ms)
                                .f64("mean_stretch", report.summary.mean_stretch)
                                .f64("mean_rewirings", report.summary.mean_rewirings)
                                .u64("flows_measured", report.summary.flows_measured as u64)
                                .finish(),
                        )
                        .finish(),
                );
            }
            runs.push(
                JsonObject::new(Compact)
                    .str("policy", &policy.label())
                    .str("workload", workload.label())
                    .raw("seeds", array(Compact, per_seed))
                    .finish(),
            );
        }
    }

    let doc = JsonObject::new(Compact)
        .str("experiment", "traffic_workloads")
        .str(
            "expectation",
            "BR carries flows at lower p50/p99 latency and stretch than the \
             heuristics on every workload; the closed loop keeps BR's latency \
             advantage under self-induced congestion",
        )
        .u64("n", n as u64)
        .u64("k", k as u64)
        .str("metric", "Load")
        .bool("closed_loop", true)
        .f64("offered_mbps", 200.0)
        .raw(
            "seeds",
            array(Compact, seeds().iter().map(|s| s.to_string())),
        )
        .raw("runs", array(Compact, runs))
        .finish();
    println!("{doc}");

    // A human-readable echo on stderr so terminal runs are scannable.
    eprintln!(
        "# traffic_workloads: {} policies x {} workloads x {} seeds done",
        policies.len(),
        workloads.len(),
        seeds().len()
    );

    dump_obs(metrics_out, trace);
}
