//! Ablation (§4.2, footnote 8): "using a uniform routing preference will
//! tend to deflate the advantage of BR neighbor selection … BR is capable
//! of leveraging skew in preference to its advantage."
//!
//! Sweeps Zipf preference skew and reports BR's advantage over k-Random
//! (with the §3.2 cycle fix-up applied to the heuristic overlay) — the
//! gap should widen as preferences concentrate, because BR shortens
//! routes to exactly the destinations each node cares about.

use egoist_bench::{print_expectation, print_figure, static_cost_ratio, sweep};
use egoist_core::cost::Preferences;
use egoist_core::policies::PolicyKind;
use egoist_netsim::rng::derive;
use egoist_netsim::DelayModel;

fn main() {
    print_expectation(
        "BR's advantage over k-Random grows with preference skew — uniform \
         preferences are the conservative case reported in the paper",
    );

    let series = sweep(
        &["k-Random cost / BR cost"],
        &[0.0f64, 0.5, 1.0, 1.5, 2.0],
        |expo, seed| {
            let d = DelayModel::planetlab_50(seed).base().clone();
            let prefs = if expo == 0.0 {
                Preferences::uniform(50)
            } else {
                Preferences::zipf(50, expo, &mut derive(seed, "skew"))
            };
            let ratio = static_cost_ratio(&d, 3, PolicyKind::Random, &prefs, 12, seed);
            (expo, vec![ratio])
        },
    );
    print_figure(
        "Ablation: preference skew amplifies BR's edge (n=50, k=3)",
        "zipf-exp",
        "k-Random cost / BR cost",
        &series,
    );
}
