//! Figure 3 (all three panels): re-wiring behavior of BR and BR(ε).
//!
//! * left   — total re-wirings per epoch over time, for k ∈ {2,3,4,5,8};
//! * center — BR cost / full-mesh cost and mean re-wirings per epoch vs k;
//! * right  — the same for BR(ε = 0.1).

use egoist_bench::{print_expectation, print_figure, seeds, sim_config, sweep, warmup, Series};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{full_mesh_reference, run, Metric};

fn main() {
    print_expectation(
        "left: re-wiring rate decays fast to a k-dependent floor (minimal for \
         small k). center: cost ratio near 1 for all k while re-wirings grow \
         with k. right: BR(0.1) cuts re-wirings by an order of magnitude with \
         only marginal cost impact",
    );

    // ---- Left panel: time series. ----
    let ks = [2usize, 3, 4, 5, 8];
    let seed = seeds()[0];
    let mut ts_series: Vec<Series> = Vec::new();
    for &k in &ks {
        let mut cfg = sim_config(k, PolicyKind::BestResponse, Metric::DelayPing, seed);
        cfg.warmup_epochs = 0;
        let res = run(cfg);
        let mut s = Series::new(format!("k={k}"));
        for (epoch, count) in res.rewirings_series().iter().enumerate() {
            s.push(epoch as f64, *count as f64);
        }
        ts_series.push(s);
    }
    print_figure(
        "Figure 3 (left): total re-wirings per epoch over time (BR)",
        "epoch",
        "re-wirings per epoch (whole overlay)",
        &ts_series,
    );

    // ---- Center and right panels. ----
    for (title, policy) in [
        (
            "Figure 3 (center): exact-gain BR — cost vs re-wirings",
            PolicyKind::BestResponse,
        ),
        (
            "Figure 3 (right): BR(0.1) — cost vs re-wirings",
            PolicyKind::EpsilonBestResponse { epsilon: 0.10 },
        ),
    ] {
        let series = sweep(
            &["cost / full-mesh cost", "re-wirings per epoch"],
            &[2usize, 3, 4, 5, 6, 7, 8],
            |k, seed| {
                let cfg = sim_config(k, policy, Metric::DelayPing, seed);
                let res = run(cfg.clone());
                let cost_ratio = res.mean_individual_cost(warmup()) / full_mesh_reference(&cfg);
                (k as f64, vec![cost_ratio, res.mean_rewirings(warmup())])
            },
        );
        print_figure(title, "k", "cost ratio | re-wirings/epoch", &series);
    }
}
