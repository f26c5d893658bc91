//! Figure 4: robustness to free riders that announce 2× inflated
//! out-link costs.
//!
//! * left  — one free rider, k ∈ 2..8: cost ratio (with cheating /
//!   honest) for the free rider itself and for the honest majority;
//! * right — k = 2, 0..16 free riders: the same two ratios.

use egoist_bench::{print_expectation, print_figure, sim_config, sweep, warmup};
use egoist_core::cheat::CheatConfig;
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{run, Metric};
use egoist_core::stats;

/// Mean cost ratio (cheating run / honest run) for a set of nodes.
fn class_ratio(cheat: &[f64], honest: &[f64], members: impl Iterator<Item = usize>) -> f64 {
    let mut ratios = Vec::new();
    for i in members {
        if cheat[i].is_finite() && honest[i].is_finite() && honest[i] > 0.0 {
            ratios.push(cheat[i] / honest[i]);
        }
    }
    stats::mean(&ratios)
}

/// Run BR honestly and with `cheat` (its first `riders` nodes inflate
/// their announcements): the riders' and the honest nodes' mean cost
/// ratios. With nobody cheating the riders' ratio is 1 by definition.
fn class_ratios(k: usize, seed: u64, cheat: CheatConfig, riders: usize) -> Vec<f64> {
    let mut cfg = sim_config(k, PolicyKind::BestResponse, Metric::DelayPing, seed);
    let honest = run(cfg.clone()).per_node_mean_cost(warmup());
    cfg.cheat = cheat;
    let cheating = run(cfg).per_node_mean_cost(warmup());
    let riders_ratio = match riders {
        0 => 1.0,
        _ => class_ratio(&cheating, &honest, 0..riders),
    };
    vec![riders_ratio, class_ratio(&cheating, &honest, riders..50)]
}

fn main() {
    print_expectation(
        "both panels hug 1.0 (within ±10-20%): inflating announced costs \
         barely helps or hurts anyone, even with a third of the population \
         cheating at k=2",
    );

    // ---- Left: one free rider, k sweep. ----
    let series = sweep(
        &["Free rider", "Non free riders"],
        &[2usize, 3, 4, 5, 6, 7, 8],
        |k, seed| {
            let cheat = CheatConfig::single(egoist_graph::NodeId(0));
            (k as f64, class_ratios(k, seed, cheat, 1))
        },
    );
    print_figure(
        "Figure 4 (left): one free rider (2x inflation), n=50",
        "k",
        "individual cost / cost without free rider",
        &series,
    );

    // ---- Right: k=2, population sweep. ----
    let series = sweep(
        &["Free riders", "Non free riders"],
        &[0usize, 2, 4, 6, 8, 10, 12, 14, 16],
        |count, seed| {
            let cheat = CheatConfig::first_n(count, 2.0);
            (count as f64, class_ratios(2, seed, cheat, count))
        },
    );
    print_figure(
        "Figure 4 (right): many free riders, n=50, k=2",
        "free riders",
        "individual cost / cost without free riders",
        &series,
    );
}
