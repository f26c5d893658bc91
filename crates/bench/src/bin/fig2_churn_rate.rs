//! Figure 2 (right): node efficiency / BR efficiency vs churn rate
//! (n = 50, k = 5). The churn rate is measured from each generated trace
//! with the paper's statistic (fraction of the population changing state
//! per second).

use egoist_bench::{
    planetlab_churn, print_expectation, print_figure, sim_config, vs_best_response, warmup,
    HEURISTICS,
};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::Metric;

fn main() {
    print_expectation(
        "at low churn BR leads; as churn approaches ~1e-2 (a membership event \
         every couple of seconds) HybridBR overtakes BR, k-Closest stays level \
         with BR, and k-Random / k-Regular collapse",
    );

    let mut policies = HEURISTICS.to_vec();
    policies.push(("HybridBR", PolicyKind::HybridBestResponse { k2: 2 }));
    let series = vs_best_response(
        // Timescale divisors spanning the paper's churn sweep.
        &[1.0f64, 5.0, 20.0, 80.0, 350.0],
        &policies,
        |divisor, seed| {
            let mut cfg = sim_config(5, PolicyKind::BestResponse, Metric::DelayPing, seed);
            let trace = planetlab_churn(divisor, seed);
            let rate = trace.churn_rate();
            cfg.churn = Some(trace);
            (rate, cfg)
        },
        |result| result.mean_efficiency(warmup()),
    );
    print_figure(
        "Figure 2 (right): parametrized churn, n=50, k=5",
        "churn",
        "node efficiency / BR efficiency",
        &series,
    );
}
