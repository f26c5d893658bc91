//! Figure 1 (top-left): individual cost / BR cost vs k, delay via ping,
//! with the full-mesh (RON) reference.

use egoist_bench::{
    labels, print_expectation, print_figure, ratios_vs_br, sim_config, sweep, warmup, HEURISTICS,
};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{full_mesh_reference, Metric};

fn main() {
    print_expectation(
        "BR dominates all heuristics for every k; at k=2 heuristics pay 2x-4x; \
         full mesh is at most ~30% below BR at k=2 and indistinguishable by k≈4; \
         k-Closest beats k-Random at small k, loses at larger k; k-Regular is worst",
    );

    // The RON reference is not a policy run: it replays the underlay
    // under a full mesh.
    let series = sweep(
        &[labels(&HEURISTICS), vec!["Full mesh"]].concat(),
        &[2usize, 3, 4, 5, 6, 7, 8],
        |k, seed| {
            let cfg = sim_config(k, PolicyKind::BestResponse, Metric::DelayPing, seed);
            let (br_cost, mut row) =
                ratios_vs_br(&cfg, &HEURISTICS, |r| r.mean_individual_cost(warmup()));
            row.push(full_mesh_reference(&cfg) / br_cost);
            (k as f64, row)
        },
    );
    print_figure(
        "Figure 1 (top-left): PlanetLab baseline, delay via ping",
        "k",
        "individual cost / BR cost",
        &series,
    );
}
