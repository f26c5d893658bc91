//! Figure 2 (left): node efficiency / BR efficiency vs k under
//! trace-driven churn (n = 50).

use egoist_bench::{
    planetlab_churn, print_expectation, print_figure, sim_config, vs_best_response, warmup,
    HEURISTICS,
};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::Metric;

fn main() {
    print_expectation(
        "BR stays best even under churn; HybridBR approaches BR as k grows \
         (the two donated links matter less); k-Closest is decisively better \
         than k-Random and k-Regular",
    );

    let mut policies = HEURISTICS.to_vec();
    policies.push(("HybridBR", PolicyKind::HybridBestResponse { k2: 2 }));
    let series = vs_best_response(
        &[3usize, 4, 5, 6, 7, 8],
        &policies,
        |k, seed| {
            let mut cfg = sim_config(k, PolicyKind::BestResponse, Metric::DelayPing, seed);
            // Trace-driven churn, rescaled so a 50-node overlay sees
            // steady join/leave activity within the horizon (the paper's
            // "typical PlanetLab churn" regime).
            cfg.churn = Some(planetlab_churn(5.0, seed));
            (k as f64, cfg)
        },
        |result| result.mean_efficiency(warmup()),
    );
    print_figure(
        "Figure 2 (left): trace-driven churn, n=50",
        "k",
        "node efficiency / BR efficiency",
        &series,
    );
}
