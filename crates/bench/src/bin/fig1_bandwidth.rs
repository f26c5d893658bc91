//! Figure 1 (bottom-right): total available bandwidth / BR available
//! bandwidth vs k (higher is better; BR normalizes to 1).

use egoist_bench::{
    print_expectation, print_figure, sim_config, vs_best_response, warmup, HEURISTICS,
};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::Metric;

fn main() {
    print_expectation(
        "BR delivers 2x-4x the aggregate bottleneck bandwidth of every \
         heuristic across the whole k range, so all plotted ratios sit well \
         below 1.0",
    );

    let series = vs_best_response(
        &[2usize, 3, 4, 5, 6, 7, 8],
        &HEURISTICS,
        |k, seed| {
            let cfg = sim_config(k, PolicyKind::BestResponse, Metric::Bandwidth, seed);
            (k as f64, cfg)
        },
        |result| result.mean_bandwidth_utility(warmup()),
    );
    print_figure(
        "Figure 1 (bottom-right): PlanetLab baseline, available bandwidth",
        "k",
        "total avail. bw / BR avail. bw (higher is better)",
        &series,
    );
}
