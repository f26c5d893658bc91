//! The §6 applications: multipath file transfer and disjoint paths.
//!
//! **Multipath file transfer (§6.1, Fig. 10).** A source `v_i` opens up to
//! `k` parallel sessions, one through each of its first-hop EGOIST
//! neighbors `v_l ∈ s_i`. Each session's throughput is the bottleneck of
//! `v_i → v_l` (capped by the per-session peering-point rate limit) and the
//! best overlay continuation `v_l ⇝ v_j`. A *direct* transfer is one
//! session over the unique IP path, subject to the same per-session cap —
//! which is exactly why parallel sessions through distinct first hops
//! multiply throughput. The "peers allow multipath redirections" bound is
//! the max-flow from `v_i` to `v_j` over the overlay capacity graph.
//!
//! **Disjoint paths (§6.2, Fig. 11).** For real-time traffic the useful
//! quantity is how many edge-disjoint overlay paths connect source to
//! target when the source fans out through its `k` neighbors.

use crate::game::Game;
use crate::policies::PolicyKind;
use egoist_graph::csr::{MaxMin, Sweep};
use egoist_graph::disjoint::edge_disjoint_paths;
use egoist_graph::maxflow::max_flow;
use egoist_graph::{CsrGraph, DiGraph, DijkstraWorkspace, NodeId};
use egoist_netsim::BandwidthModel;

/// Per-pair multipath analysis result.
#[derive(Clone, Copy, Debug)]
pub struct MultipathGain {
    /// Throughput of the single direct IP session (Mbps).
    pub direct: f64,
    /// Aggregate throughput of k parallel sessions through the source's
    /// overlay neighbors (Mbps).
    pub parallel: f64,
    /// Max-flow upper bound when every peer redirects (Mbps).
    pub max_flow_bound: f64,
}

impl MultipathGain {
    /// Gain of parallel sessions over the direct path.
    pub fn parallel_gain(&self) -> f64 {
        if self.direct <= 0.0 {
            return f64::NAN;
        }
        self.parallel / self.direct
    }

    /// Gain of the all-peers max-flow bound over the direct path.
    pub fn max_flow_gain(&self) -> f64 {
        if self.direct <= 0.0 {
            return f64::NAN;
        }
        self.max_flow_bound / self.direct
    }
}

/// Analyze one source–target pair on a (bandwidth-)wired overlay.
///
/// `overlay` must carry available bandwidths as edge costs (as built by
/// the bandwidth-metric simulator); `bw` supplies direct-path availability
/// and session caps.
pub fn analyze_pair(
    overlay: &DiGraph,
    bw: &BandwidthModel,
    source: NodeId,
    target: NodeId,
) -> MultipathGain {
    let hops = continuations(&CsrGraph::from_digraph(overlay), source);
    pair_gain(overlay, bw, source, target, &hops)
}

/// Average multipath gains over all ordered pairs of `members`.
pub fn average_gains(
    overlay: &DiGraph,
    bw: &BandwidthModel,
    members: &[NodeId],
) -> (Vec<f64>, Vec<f64>) {
    let csr = CsrGraph::from_digraph(overlay);
    let mut parallel = Vec::new();
    let mut bound = Vec::new();
    for &s in members {
        let hops = continuations(&csr, s);
        for &t in members {
            if s == t {
                continue;
            }
            let g = pair_gain(overlay, bw, s, t, &hops);
            if g.parallel_gain().is_finite() {
                parallel.push(g.parallel_gain());
            }
            if g.max_flow_gain().is_finite() {
                bound.push(g.max_flow_gain());
            }
        }
    }
    (parallel, bound)
}

/// Each first hop `v_l` of `source`, in the overlay's edge order, with the
/// width of the widest continuation `v_l ⇝ v_j` to every `v_j` over the
/// overlay *without `source`'s out-edges* (sessions must diverge at the
/// source's access links): one masked max-min sweep per first hop,
/// shared by every target. A first hop's own entry is the sweep's source
/// value, `INFINITY`, so a target that is itself a first hop is limited
/// only by that first hop and the session cap.
fn continuations(g: &CsrGraph, source: NodeId) -> Vec<(usize, Vec<f64>)> {
    let n = g.len();
    let mut ws = DijkstraWorkspace::new(n);
    let mut parent = vec![0u32; n];
    let residual = Sweep {
        mask: Some(source.0),
        ..Sweep::default()
    };
    let (first_hops, _) = g.out(source.index());
    first_hops
        .iter()
        .map(|&l| {
            let mut width = vec![0.0; n];
            ws.sweep::<MaxMin>(g, l, residual, &mut width, &mut parent);
            (l as usize, width)
        })
        .collect()
}

/// One pair's gains from its source's [`continuations`].
fn pair_gain(
    overlay: &DiGraph,
    bw: &BandwidthModel,
    source: NodeId,
    target: NodeId,
    hops: &[(usize, Vec<f64>)],
) -> MultipathGain {
    let direct = bw
        .direct_session_bandwidth(source.index(), target.index())
        .max(1e-9);

    // Parallel sessions: one per first-hop neighbor. Session throughput:
    // first hop availability, session cap at the source's peering point,
    // and the overlay continuation.
    let mut parallel = 0.0;
    for (l, width) in hops {
        let session = bw
            .available(source.index(), *l)
            .min(bw.session_cap(source.index()))
            .min(width[target.index()]);
        if session.is_finite() {
            parallel += session;
        }
    }
    // A source would never do worse than the direct path: it can always
    // fall back to a single direct session.
    parallel = parallel.max(direct);

    let max_flow_bound = max_flow(overlay, source, target).max(parallel);

    MultipathGain {
        direct,
        parallel,
        max_flow_bound,
    }
}

/// Build a bandwidth-objective overlay: the static bandwidth game
/// ([`Game::bandwidth`]) on the model's true available bandwidths, every
/// node playing the bandwidth best response (§4.1) for `sweeps`
/// round-robin sweeps so later choices see earlier ones. Edge costs are
/// those bandwidths.
pub fn bandwidth_overlay(bw: &BandwidthModel, k: usize, sweeps: usize) -> DiGraph {
    // Bandwidth best response draws nothing, so the seed is inert.
    let mut game = Game::bandwidth(bw.available_matrix(), k, PolicyKind::BestResponse, 0);
    for _ in 0..sweeps.max(1) {
        game.sweep();
    }
    game.graph()
}

/// Edge-disjoint overlay paths per ordered pair (Fig. 11); the count is
/// naturally bounded by the source's out-degree `k`.
pub fn disjoint_path_counts(overlay: &DiGraph, members: &[NodeId]) -> Vec<f64> {
    let mut counts = Vec::new();
    for &s in members {
        for &t in members {
            if s != t {
                counts.push(edge_disjoint_paths(overlay, s, t) as f64);
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use egoist_graph::widest::widest_paths;
    use rand::Rng;

    /// [`analyze_pair`] as it was before the CSR port: a residual clone
    /// per pair and one dense widest-path sweep per first hop — the
    /// oracle the port is pinned to.
    fn analyze_pair_dense(
        overlay: &DiGraph,
        bw: &BandwidthModel,
        source: NodeId,
        target: NodeId,
    ) -> MultipathGain {
        let direct = bw
            .direct_session_bandwidth(source.index(), target.index())
            .max(1e-9);
        let mut residual = overlay.clone();
        residual.clear_out_edges(source);
        let mut parallel = 0.0;
        for e in overlay.out_edges(source) {
            let l = e.to;
            let continuation = if l == target {
                f64::INFINITY
            } else {
                widest_paths(&residual, l).width[target.index()]
            };
            let session = bw
                .available(source.index(), l.index())
                .min(bw.session_cap(source.index()))
                .min(continuation);
            if session.is_finite() {
                parallel += session;
            }
        }
        parallel = parallel.max(direct);
        let max_flow_bound = max_flow(overlay, source, target).max(parallel);
        MultipathGain {
            direct,
            parallel,
            max_flow_bound,
        }
    }

    fn bits(g: MultipathGain) -> [u64; 3] {
        [g.direct, g.parallel, g.max_flow_bound].map(f64::to_bits)
    }

    #[test]
    fn csr_port_equals_the_dense_per_pair_loop() {
        for seed in 0..24u64 {
            let mut rng = egoist_netsim::rng::derive(seed, "multipath-port");
            let n = rng.random_range(4..20usize);
            let bw = BandwidthModel::new(n, seed);
            // Node 0 has no out-edges (it may have in-edges); node n − 1
            // has no edges at all; about one edge in five carries 0 Mbps.
            let mut g = DiGraph::new(n);
            for i in 1..n - 1 {
                for _ in 0..rng.random_range(0..5u32) {
                    let j = rng.random_range(0..n - 1);
                    if j != i {
                        let mbps = if rng.random_range(0..5u32) == 0 {
                            0.0
                        } else {
                            bw.available(i, j)
                        };
                        g.add_edge(NodeId::from_index(i), NodeId::from_index(j), mbps);
                    }
                }
            }
            let members: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
            let (mut parallel, mut bound) = (Vec::new(), Vec::new());
            for &s in &members {
                for &t in members.iter().filter(|&&t| t != s) {
                    let want = analyze_pair_dense(&g, &bw, s, t);
                    let got = analyze_pair(&g, &bw, s, t);
                    assert_eq!(bits(got), bits(want), "seed {seed}: {s} → {t}");
                    if want.parallel_gain().is_finite() {
                        parallel.push(want.parallel_gain().to_bits());
                    }
                    if want.max_flow_gain().is_finite() {
                        bound.push(want.max_flow_gain().to_bits());
                    }
                }
            }
            let (p, b) = average_gains(&g, &bw, &members);
            assert_eq!(p.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), parallel);
            assert_eq!(b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), bound);
        }
    }

    fn star_overlay(bw: &BandwidthModel, k: usize) -> DiGraph {
        // Each node links to the next k ids (a k-regular circulant) with
        // bandwidth edge weights.
        let n = bw.len();
        let mut g = DiGraph::new(n);
        for i in 0..n {
            for o in 1..=k {
                let j = (i + o) % n;
                g.add_edge(
                    NodeId::from_index(i),
                    NodeId::from_index(j),
                    bw.available(i, j),
                );
            }
        }
        g
    }

    #[test]
    fn parallel_at_least_direct() {
        let bw = BandwidthModel::new(12, 1);
        let g = star_overlay(&bw, 3);
        for s in 0..4 {
            for t in 5..9 {
                let r = analyze_pair(&g, &bw, NodeId(s), NodeId(t));
                assert!(r.parallel >= r.direct - 1e-9);
                assert!(r.max_flow_bound >= r.parallel - 1e-9);
            }
        }
    }

    #[test]
    fn more_neighbors_more_parallel_bandwidth() {
        let bw = BandwidthModel::new(16, 2);
        let g2 = star_overlay(&bw, 2);
        let g6 = star_overlay(&bw, 6);
        let (p2, _) = average_gains(&g2, &bw, &(0..16).map(NodeId).collect::<Vec<_>>());
        let (p6, _) = average_gains(&g6, &bw, &(0..16).map(NodeId).collect::<Vec<_>>());
        let m2 = crate::stats::mean(&p2);
        let m6 = crate::stats::mean(&p6);
        assert!(
            m6 >= m2 * 0.99,
            "gain should not shrink with k: k=2 {m2:.2} vs k=6 {m6:.2}"
        );
    }

    #[test]
    fn disjoint_paths_bounded_by_k() {
        let bw = BandwidthModel::new(10, 3);
        for k in [2usize, 4] {
            let g = star_overlay(&bw, k);
            let members: Vec<NodeId> = (0..10).map(NodeId).collect();
            for c in disjoint_path_counts(&g, &members) {
                assert!(c <= k as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn disjoint_paths_grow_with_k() {
        let bw = BandwidthModel::new(12, 4);
        let members: Vec<NodeId> = (0..12).map(NodeId).collect();
        let mean_k = |k: usize| {
            let g = star_overlay(&bw, k);
            crate::stats::mean(&disjoint_path_counts(&g, &members))
        };
        assert!(mean_k(4) > mean_k(2));
    }

    #[test]
    fn bandwidth_overlay_has_degree_k_and_beats_random_wiring() {
        let bw = BandwidthModel::new(12, 9);
        let g = bandwidth_overlay(&bw, 3, 2);
        let members: Vec<NodeId> = (0..12).map(NodeId).collect();
        for &m in &members {
            assert_eq!(g.out_degree(m), 3);
        }
        // Aggregate widest-path utility beats the circulant star overlay.
        let util = |g: &DiGraph| -> f64 {
            let mut total = 0.0;
            for &s in &members {
                let wp = widest_paths(g, s);
                for &t in &members {
                    if s != t {
                        total += wp.width[t.index()];
                    }
                }
            }
            total
        };
        let ring = star_overlay(&bw, 3);
        assert!(util(&g) > util(&ring), "BR overlay must beat circulant");
    }

    #[test]
    fn direct_target_neighbor_counts_fully() {
        // When the target is itself a first-hop neighbor, that session is
        // limited only by first hop and session cap.
        let bw = BandwidthModel::new(6, 5);
        let g = star_overlay(&bw, 2);
        let r = analyze_pair(&g, &bw, NodeId(0), NodeId(1));
        let expect_session = bw.available(0, 1).min(bw.session_cap(0));
        assert!(r.parallel >= expect_session - 1e-9);
    }
}
