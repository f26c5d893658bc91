//! Figure 10: available-bandwidth gain of multipath transfer vs k.
//!
//! On a bandwidth-wired EGOIST overlay (n = 50), a source opens k
//! parallel sessions through its first-hop neighbors; the gain is
//! measured against the single direct IP session (which is subject to
//! the per-session peering-point rate cap). The upper series is the
//! max-flow bound where every peer allows redirection.

use egoist_bench::{fast, print_expectation, print_figure, sweep};
use egoist_core::multipath::{average_gains, bandwidth_overlay};
use egoist_core::stats;
use egoist_graph::NodeId;
use egoist_netsim::BandwidthModel;

fn main() {
    print_expectation(
        "both series grow with k; parallel first-hop sessions reach roughly \
         2x-4x the direct path, while the all-peers max-flow bound climbs \
         toward ~6x-9x",
    );

    let n = if fast() { 16 } else { 50 };
    let members: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let series = sweep(
        &[
            "peers allow multipath redirections",
            "source establ. parallel connections",
        ],
        &[2usize, 3, 4, 5, 6, 7, 8],
        |k, seed| {
            let bw = BandwidthModel::new(n, seed);
            let overlay = bandwidth_overlay(&bw, k, 2);
            let (parallel, bound) = average_gains(&overlay, &bw, &members);
            (k as f64, vec![stats::mean(&bound), stats::mean(&parallel)])
        },
    );
    print_figure(
        "Figure 10: available bandwidth gain from multipath redirection, n=50",
        "k",
        "available bandwidth gain vs direct IP session",
        &series,
    );
}
