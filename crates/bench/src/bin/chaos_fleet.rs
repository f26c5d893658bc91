//! `chaos_fleet` — run the adversarial fleet harness and emit/verify
//! the deterministic robustness report.
//!
//! Four scenarios, straight from `egoist_proto::fleet`:
//!
//! * `storm_partition` — 30% background loss plus a scheduled churn
//!   storm and a healed two-way partition; the fleet must reconverge.
//! * `sybil_eclipse` — a Sybil swarm on one endpoint budget running an
//!   eclipse lure; peer scoring must keep every attacker identity out
//!   of the honest active views.
//! * `chaos_n1000` — 1000 live protocol nodes on the timer wheel with
//!   fan-out-limited gossip and anti-entropy repair, under a churn
//!   storm and a healed partition; ≥95% final reachability with
//!   link-state traffic under 5% of the full-flood extrapolation.
//! * `third_party_lure` — a swarm forging only third-party links (the
//!   first-hand audit never fires); second-hand claim ranking must keep
//!   every forged link out of honest routing graphs and ban the origins.
//!
//! Every scenario is executed TWICE and the two reports must be
//! byte-identical — the determinism gate runs on every invocation, not
//! just in the test suite. The combined document nests one
//! `RobustnessReport` per scenario under `"scenarios"` and is validated
//! against `schemas/robustness.schema.json` (the load-bearing subset:
//! `egoist_bench::report::ROBUSTNESS`).
//!
//! Usage: chaos_fleet [--quick] [--out PATH] [--schema PATH] [--check PATH]
//!   --quick        small fleet profiles (CI scale)
//!   --out PATH     write the combined report (default: stdout)
//!   --schema PATH  schema to validate against (default: schemas/robustness.schema.json)
//!   --check PATH   validate an existing report file and exit (no run)
//!
//! At exit it prints the process's peak resident set (`VmHWM`) to
//! stderr when `/proc/self/status` is readable; the report never holds
//! it, so the report stays byte-identical across hosts.

use egoist_bench::report::{same_twice, ROBUSTNESS};
use egoist_obs::json::{array, JsonObject, Layout::Spaced};
use egoist_proto::fleet::{
    chaos_n1000_profile, run_fleet, storm_partition_profile, sybil_eclipse_profile,
    third_party_lure_profile, FleetConfig,
};

/// Run every profile (twice: reproducible robustness evidence is the
/// whole point of the harness) and nest the per-scenario reports under
/// one top-level document.
fn build_report(profiles: &[FleetConfig]) -> String {
    let reports = profiles.iter().map(|cfg| {
        let label = format!(
            "{} (n={}, sybils={}, seed={})",
            cfg.scenario, cfg.n, cfg.sybils, cfg.seed
        );
        let report = same_twice("chaos_fleet", &label, || run_fleet(cfg).to_json());
        report.trim_end().to_string()
    });
    JsonObject::new(Spaced)
        .str("schema", ROBUSTNESS.tag)
        .raw("scenarios", array(Spaced, reports))
        .document()
}

/// The peak resident set in MB from a `/proc/<pid>/status` text.
fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    ROBUSTNESS.main("chaos_fleet", |quick| {
        build_report(&[
            storm_partition_profile(quick),
            sybil_eclipse_profile(quick),
            third_party_lure_profile(quick),
            chaos_n1000_profile(quick),
        ])
    });
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(mb) = vm_hwm_mb(&status) {
        eprintln!("chaos_fleet: peak_rss_mb {mb:.1}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_report_passes_its_own_check() {
        let schema = include_str!("../../../../schemas/robustness.schema.json");
        let mut cfg = FleetConfig::new("demo", 6, 2, 7);
        cfg.horizon = std::time::Duration::from_secs(120);
        let verdict = ROBUSTNESS.check(&build_report(&[cfg]), Some(schema));
        assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn peak_rss_is_read_from_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(200.0));
        assert_eq!(vm_hwm_mb("Name:\tx\n"), None);
    }
}
