//! Figure 1 (bottom-left): individual cost / BR cost vs k, node-load
//! metric (path cost = sum of node loads along the path).

use egoist_bench::{
    print_expectation, print_figure, sim_config, vs_best_response, warmup, HEURISTICS,
};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::Metric;

fn main() {
    print_expectation(
        "clear delineation at every k: BR best, k-Random second, k-Closest worst \
         (it can't see past the first hop under high load variance); ratios \
         roughly 1.5x-4x",
    );

    let series = vs_best_response(
        &[2usize, 3, 4, 5, 6, 7, 8],
        &HEURISTICS,
        |k, seed| {
            let cfg = sim_config(k, PolicyKind::BestResponse, Metric::Load, seed);
            (k as f64, cfg)
        },
        |result| result.mean_individual_cost(warmup()),
    );
    print_figure(
        "Figure 1 (bottom-left): PlanetLab baseline, node CPU load",
        "k",
        "individual cost / BR cost",
        &series,
    );
}
