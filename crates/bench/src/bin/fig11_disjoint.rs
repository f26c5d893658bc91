//! Figure 11: number of edge-disjoint overlay paths between source and
//! target vs k, on the delay-wired EGOIST overlay (n = 50).

use egoist_bench::{fast, print_expectation, print_figure, sweep};
use egoist_core::game::Game;
use egoist_core::multipath::disjoint_path_counts;
use egoist_core::policies::PolicyKind;
use egoist_core::stats;
use egoist_graph::NodeId;
use egoist_netsim::DelayModel;

fn main() {
    print_expectation(
        "the number of disjoint paths grows roughly linearly with k \
         (≈ 1.5 at k=2 up to ≈ 5.5 at k=8)",
    );

    let n = if fast() { 16 } else { 50 };
    let members: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let series = sweep(
        &["disjoint paths"],
        &[2usize, 3, 4, 5, 6, 7, 8],
        |k, seed| {
            let d = if n == 50 {
                DelayModel::planetlab_50(seed).base().clone()
            } else {
                DelayModel::from_spec(
                    &egoist_netsim::PlanetLabSpec::uniform(egoist_netsim::Region::NorthAmerica, n),
                    seed,
                )
                .base()
                .clone()
            };
            let mut game = Game::new(d, k, PolicyKind::BestResponse, seed);
            game.run_to_convergence(8);
            let paths = disjoint_path_counts(&game.graph(), &members);
            (k as f64, vec![stats::mean(&paths)])
        },
    );
    print_figure(
        "Figure 11: edge-disjoint overlay paths, delay metric, n=50",
        "k",
        "number of disjoint paths",
        &series,
    );
}
