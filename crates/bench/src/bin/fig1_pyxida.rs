//! Figure 1 (top-right): individual cost / BR cost vs k, delay estimated
//! passively via the Vivaldi coordinate system (the paper's pyxida mode).

use egoist_bench::{
    print_expectation, print_figure, sim_config, vs_best_response, warmup, HEURISTICS,
};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::Metric;

fn main() {
    print_expectation(
        "same ordering as the ping panel — BR best at every k, gap largest at \
         small k (ratios up to ~4.5) — but noisier, since coordinate estimates \
         are less accurate than pings",
    );

    let series = vs_best_response(
        &[2usize, 3, 4, 5, 6, 7, 8],
        &HEURISTICS,
        |k, seed| {
            let cfg = sim_config(k, PolicyKind::BestResponse, Metric::DelayVivaldi, seed);
            (k as f64, cfg)
        },
        |result| result.mean_individual_cost(warmup()),
    );
    print_figure(
        "Figure 1 (top-right): PlanetLab baseline, delay via pyxida/Vivaldi",
        "k",
        "individual cost / BR cost",
        &series,
    );
}
