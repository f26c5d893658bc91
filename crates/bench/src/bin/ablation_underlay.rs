//! Ablation (§5): "we use these data sets [PlanetLab, BRITE synthetic
//! topologies, real AS topologies] … results obtained in the other
//! settings were similar."
//!
//! Runs the headline policy comparison (normalized cost vs BR at k = 3)
//! on three underlay families: the PlanetLab-like generator, Waxman
//! (BRITE router-level), and Barabási–Albert (AS-like). The *ordering*
//! should be underlay-invariant.

use egoist_bench::{labels, print_expectation, print_figure, static_cost_ratio, sweep, HEURISTICS};
use egoist_core::cost::Preferences;
use egoist_graph::DistanceMatrix;
use egoist_netsim::topo::{barabasi_albert_delays, waxman_delays, BaConfig, WaxmanConfig};
use egoist_netsim::DelayModel;

fn main() {
    print_expectation(
        "the BR > heuristics ordering is underlay-invariant: it holds on \
         PlanetLab-like, Waxman/BRITE and Barabási-Albert (AS-like) delay \
         spaces alike",
    );

    let n = 50usize;
    type UnderlayFactory = Box<dyn Fn(u64) -> DistanceMatrix>;
    let underlays: Vec<(&str, UnderlayFactory)> = vec![
        (
            "PlanetLab-like",
            Box::new(|seed| DelayModel::planetlab_50(seed).base().clone()),
        ),
        (
            "Waxman (BRITE)",
            Box::new(move |seed| waxman_delays(n, &WaxmanConfig::default(), seed)),
        ),
        (
            "Barabasi-Albert (AS)",
            Box::new(move |seed| barabasi_albert_delays(n, &BaConfig::default(), seed)),
        ),
    ];

    let indices: Vec<usize> = (0..underlays.len()).collect();
    let series = sweep(&labels(&HEURISTICS), &indices, |u_idx, seed| {
        let d = underlays[u_idx].1(seed);
        let prefs = Preferences::uniform(n);
        let ratio = |&(_, policy)| static_cost_ratio(&d, 3, policy, &prefs, 10, seed);
        (u_idx as f64, HEURISTICS.iter().map(ratio).collect())
    });
    for (u_idx, (name, _)) in underlays.iter().enumerate() {
        println!("# x = {u_idx} → {name}");
    }
    print_figure(
        "Ablation: policy ordering across underlay families (n=50, k=3)",
        "underlay",
        "policy cost / BR cost",
        &series,
    );
}
