//! Multipath file transfer (§6.1, Fig. 9/10 scenario).
//!
//! A source wants to push a large file to a target. Instead of one
//! session over the direct IP path — throttled by the per-session rate
//! limit at its AS's peering point — it opens one session through each of
//! its k EGOIST neighbors, multiplying throughput.
//!
//! Run with: `cargo run --release --example multipath_transfer`

use egoist::core::multipath::{analyze_pair, bandwidth_overlay};
use egoist::core::stats;
use egoist_graph::NodeId;
use egoist_netsim::BandwidthModel;

fn main() {
    let n = 50;
    let k = 5;
    let seed = 7;
    println!("Multipath transfer over a bandwidth-wired EGOIST overlay (n={n}, k={k})\n");

    let bw = BandwidthModel::new(n, seed);
    let overlay = bandwidth_overlay(&bw, k, 2);

    // One concrete pair, narrated.
    let (src, dst) = (NodeId(3), NodeId(41));
    let r = analyze_pair(&overlay, &bw, src, dst);
    println!("source {src} → target {dst}:");
    println!(
        "  direct IP session (rate-capped):   {:>8.1} Mbps",
        r.direct
    );
    println!(
        "  {k} parallel first-hop sessions:     {:>8.1} Mbps  ({:.1}x)",
        r.parallel,
        r.parallel_gain()
    );
    println!(
        "  max-flow bound (all peers help):   {:>8.1} Mbps  ({:.1}x)",
        r.max_flow_bound,
        r.max_flow_gain()
    );
    println!(
        "  first-hop neighbors used: {:?}\n",
        overlay.out_neighbors(src).collect::<Vec<_>>()
    );

    // A transfer-time estimate for a 10 GB file.
    let gb = 10.0 * 8.0 * 1024.0; // Mbit
    println!("10 GB transfer time:");
    println!("  direct:    {:>8.1} min", gb / r.direct / 60.0);
    println!("  multipath: {:>8.1} min\n", gb / r.parallel / 60.0);

    // Population view.
    let members: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
    let mut gains = Vec::new();
    for &s in &members {
        for &t in &members {
            if s != t {
                gains.push(analyze_pair(&overlay, &bw, s, t).parallel_gain());
            }
        }
    }
    println!(
        "across all {} ordered pairs: mean gain {:.2}x, median {:.2}x, p95 {:.2}x",
        gains.len(),
        stats::mean(&gains),
        stats::percentile(&gains, 50.0),
        stats::percentile(&gains, 95.0),
    );
}
