//! `metrics_check` — validate an `egoist-obs/v1` registry export (the
//! `--metrics-out` output of `perf_baseline` / `traffic_workloads`)
//! against the checked-in schema.
//!
//! The schema file (`schemas/metrics.schema.json`) is a standard JSON
//! Schema for external tooling; this binary enforces its load-bearing
//! subset (`egoist_bench::report::METRICS`): the schema tag, the three
//! top-level instrument maps, per-entry structural invariants, and the
//! `x-required-instruments` lists — the names every full epoch-engine
//! run must have registered. A missing name means a layer lost its
//! instrumentation; CI fails before a human notices the dashboards
//! went dark.
//!
//! Usage: metrics_check [METRICS.json] [SCHEMA.json]
//! (defaults: metrics_ci.json, schemas/metrics.schema.json)

use egoist_bench::report::METRICS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_path = args.first().map_or("metrics_ci.json", String::as_str);
    METRICS.check_file(metrics_path, args.get(1).map(String::as_str));
}
