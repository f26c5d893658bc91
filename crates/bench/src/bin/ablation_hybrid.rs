//! Ablation (§3.3): how many links should HybridBR donate?
//!
//! Sweeps the donated-link budget k2 at two churn intensities. The paper
//! argues k2 = 2 (one bidirectional cycle) suffices and that donating is
//! only worthwhile when churn is high; this bin quantifies that design
//! point, and also compares the id-cycle backbone against the k-MST
//! alternative it rejected (Young et al. \[43\]) on backbone path quality.

use egoist_bench::{
    planetlab_churn, print_expectation, print_figure, seeds, sim_config, sweep, warmup, Series,
};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{run, Metric};
use egoist_graph::cycles::backbone_edges;
use egoist_graph::mst::{k_mst_backbone, tree_weight};
use egoist_graph::NodeId;
use egoist_netsim::DelayModel;

fn main() {
    print_expectation(
        "at mild churn, every donated link costs efficiency (k2=0 is best); \
         at heavy churn k2=2 pays for itself; k2=4 adds little beyond k2=2 \
         (diminishing returns). The id-cycle backbone is heavier than k-MST \
         per edge but needs no global recomputation on churn",
    );

    // ---- k2 sweep under two churn regimes. ----
    let k = 6usize;
    for (label, divisor) in [("mild churn", 5.0f64), ("heavy churn", 400.0)] {
        let series = sweep(&["mean efficiency"], &[0usize, 2, 4], |k2, seed| {
            let policy = if k2 == 0 {
                PolicyKind::BestResponse
            } else {
                PolicyKind::HybridBestResponse { k2 }
            };
            let mut cfg = sim_config(k, policy, Metric::DelayPing, seed);
            cfg.churn = Some(planetlab_churn(divisor, seed));
            (k2 as f64, vec![run(cfg).mean_efficiency(warmup())])
        });
        print_figure(
            &format!("Ablation: HybridBR donated-link budget, {label} (n=50, k={k})"),
            "k2",
            "mean node efficiency (absolute)",
            &series,
        );
    }

    // ---- Backbone construction comparison: id-cycles vs k-MST. ----
    let mut cyc_weight = Series::new("id-cycle backbone weight");
    let mut mst_weight = Series::new("k-MST backbone weight");
    for &seed in &seeds() {
        let d = DelayModel::planetlab_50(seed).base().clone();
        let members: Vec<NodeId> = (0..50).map(NodeId).collect();
        let cyc: f64 = backbone_edges(&members, 2)
            .iter()
            .map(|&(a, b)| d.get(a, b))
            .sum();
        let trees = k_mst_backbone(&d, &members, 1);
        let mst: f64 = trees.iter().map(|t| 2.0 * tree_weight(&d, t)).sum();
        cyc_weight.push(seed as f64, cyc);
        mst_weight.push(seed as f64, mst);
    }
    print_figure(
        "Ablation: backbone total edge weight (one bidirectional cycle vs one MST, per seed)",
        "seed",
        "total one-way link weight (ms)",
        &[cyc_weight, mst_weight],
    );
    println!(
        "# trade-off: the MST is lighter, but must be recomputed globally on every\n\
         # membership change; the id-cycle repairs with two local link swaps (§3.3)."
    );
}
