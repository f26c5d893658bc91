//! Synthetic router-level topologies (the paper's "synthetic topologies
//! from BRITE and real AS topologies", §5).
//!
//! The sampling experiments were validated on three underlay families:
//! PlanetLab delays, BRITE-generated topologies, and AS graphs. BRITE's
//! two classic router-level models are implemented here:
//!
//! * **Waxman** — nodes uniform in a plane, edge probability
//!   `α·exp(−d/(β·L))`; delays are Euclidean distances along
//!   shortest paths.
//! * **Barabási–Albert** — preferential attachment; produces the
//!   heavy-tailed degree distribution of AS-level graphs.
//!
//! Both produce a [`DistanceMatrix`] of pairwise delays (shortest paths
//! over the generated router graph), directly usable wherever the
//! PlanetLab generator is.

use crate::rng::derive;
use egoist_graph::apsp::apsp;
use egoist_graph::{DiGraph, DistanceMatrix, NodeId};
use rand::Rng;

/// Waxman model parameters.
#[derive(Clone, Debug)]
pub struct WaxmanConfig {
    /// Edge-probability scale `α` (higher = denser).
    pub alpha: f64,
    /// Distance decay `β` (higher = more long edges).
    pub beta: f64,
    /// Plane side length in "milliseconds".
    pub side: f64,
}

impl Default for WaxmanConfig {
    fn default() -> Self {
        WaxmanConfig {
            alpha: 0.4,
            beta: 0.25,
            side: 100.0,
        }
    }
}

/// Generate a Waxman router graph and return the pairwise shortest-path
/// delay matrix. The graph is forced connected by linking each isolated
/// component head to its nearest already-connected node.
pub fn waxman_delays(n: usize, cfg: &WaxmanConfig, seed: u64) -> DistanceMatrix {
    let mut rng = derive(seed, "waxman");
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            (
                rng.random_range(0.0..cfg.side),
                rng.random_range(0.0..cfg.side),
            )
        })
        .collect();
    let dist = |a: usize, b: usize| -> f64 {
        let (xa, ya) = pts[a];
        let (xb, yb) = pts[b];
        ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt()
    };
    let l = (2.0f64).sqrt() * cfg.side;
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(i, j);
            let p = cfg.alpha * (-d / (cfg.beta * l)).exp();
            if rng.random_range(0.0..1.0) < p {
                g.add_edge(NodeId::from_index(i), NodeId::from_index(j), d.max(0.1));
                g.add_edge(NodeId::from_index(j), NodeId::from_index(i), d.max(0.1));
            }
        }
    }
    connect_components(&mut g, &pts);
    apsp(&g)
}

/// Base per-hop delay (ms) assigned to every Barabási–Albert router link.
const HOP_DELAY: f64 = 12.0;

/// Barabási–Albert model parameters.
#[derive(Clone, Debug)]
pub struct BaConfig {
    /// Edges added per new node (`m` in the BA model).
    pub edges_per_node: usize,
    /// Extra per-link jitter as a fraction of the 12 ms base hop delay.
    pub jitter: f64,
}

impl Default for BaConfig {
    fn default() -> Self {
        BaConfig {
            edges_per_node: 2,
            jitter: 0.5,
        }
    }
}

/// Generate a Barabási–Albert graph and return the pairwise
/// shortest-path delay matrix (per-hop delays with jitter, as AS-level
/// hops are roughly uniform in cost).
pub fn barabasi_albert_delays(n: usize, cfg: &BaConfig, seed: u64) -> DistanceMatrix {
    let m = cfg.edges_per_node.max(1);
    let mut rng = derive(seed, "ba");
    let mut g = DiGraph::new(n);
    // Target list where each node appears once per incident edge —
    // sampling uniformly from it is preferential attachment.
    let mut stubs: Vec<usize> = Vec::new();
    let seedlings = (m + 1).min(n);
    for i in 0..seedlings {
        for j in 0..seedlings {
            if i < j {
                let d = link_delay(cfg, &mut rng);
                g.add_edge(NodeId::from_index(i), NodeId::from_index(j), d);
                g.add_edge(NodeId::from_index(j), NodeId::from_index(i), d);
                stubs.push(i);
                stubs.push(j);
            }
        }
    }
    for v in seedlings..n {
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m && guard < 100 * m {
            guard += 1;
            let pick = stubs[rng.random_range(0..stubs.len())];
            if pick != v && !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        for &t in &chosen {
            let d = link_delay(cfg, &mut rng);
            g.add_edge(NodeId::from_index(v), NodeId::from_index(t), d);
            g.add_edge(NodeId::from_index(t), NodeId::from_index(v), d);
            stubs.push(v);
            stubs.push(t);
        }
    }
    apsp(&g)
}

fn link_delay(cfg: &BaConfig, rng: &mut impl Rng) -> f64 {
    if cfg.jitter <= 0.0 {
        return HOP_DELAY;
    }
    HOP_DELAY * (1.0 + rng.random_range(0.0..cfg.jitter))
}

/// Make an undirected-ish graph connected: attach every unreachable node
/// to its geometrically nearest reachable one.
fn connect_components(g: &mut DiGraph, pts: &[(f64, f64)]) {
    let n = g.len();
    if n == 0 {
        return;
    }
    loop {
        let reach = egoist_graph::connectivity::reachable_from(g, NodeId(0));
        let Some(orphan) = (0..n).find(|&i| !reach[i]) else {
            return;
        };
        // Nearest reachable node.
        let mut best = None;
        let mut best_d = f64::INFINITY;
        for i in 0..n {
            if reach[i] {
                let d = ((pts[i].0 - pts[orphan].0).powi(2) + (pts[i].1 - pts[orphan].1).powi(2))
                    .sqrt();
                if d < best_d {
                    best_d = d;
                    best = Some(i);
                }
            }
        }
        let anchor = best.expect("node 0 is always reachable");
        g.add_edge(
            NodeId::from_index(orphan),
            NodeId::from_index(anchor),
            best_d.max(0.1),
        );
        g.add_edge(
            NodeId::from_index(anchor),
            NodeId::from_index(orphan),
            best_d.max(0.1),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waxman_matrix_is_finite_and_symmetricish() {
        let d = waxman_delays(60, &WaxmanConfig::default(), 1);
        assert_eq!(d.len(), 60);
        for i in 0..60 {
            for j in 0..60 {
                if i != j {
                    assert!(d.at(i, j).is_finite(), "({i},{j}) unreachable");
                    assert!(d.at(i, j) > 0.0);
                    // Bidirectional links → symmetric shortest paths.
                    assert!((d.at(i, j) - d.at(j, i)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn waxman_respects_triangle_inequality_of_shortest_paths() {
        let d = waxman_delays(40, &WaxmanConfig::default(), 2);
        for i in 0..40 {
            for j in 0..40 {
                for k in 0..40 {
                    if i != j && j != k && i != k {
                        assert!(d.at(i, k) <= d.at(i, j) + d.at(j, k) + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn ba_matrix_is_finite_and_hop_structured() {
        let cfg = BaConfig::default();
        let d = barabasi_albert_delays(80, &cfg, 3);
        let mut max = 0.0f64;
        for i in 0..80 {
            for j in 0..80 {
                if i != j {
                    assert!(d.at(i, j).is_finite());
                    max = max.max(d.at(i, j));
                }
            }
        }
        // Small-world: diameter a handful of hops.
        assert!(
            max < 10.0 * HOP_DELAY * (1.0 + cfg.jitter),
            "BA diameter too large: {max}"
        );
    }

    #[test]
    fn ba_has_heavy_tail_hubs() {
        // Rebuild the graph logic indirectly: hubs make many pairwise
        // distances equal to 2 hops. Check the distance distribution has
        // a strong mode at ≤ 2 hops.
        let cfg = BaConfig {
            jitter: 0.0,
            ..Default::default()
        };
        let d = barabasi_albert_delays(100, &cfg, 4);
        let mut two_hops = 0;
        let mut three_hops = 0;
        let mut total = 0;
        for i in 0..100 {
            for j in 0..100 {
                if i != j {
                    total += 1;
                    if d.at(i, j) <= 2.0 * HOP_DELAY + 1e-9 {
                        two_hops += 1;
                    }
                    if d.at(i, j) <= 3.0 * HOP_DELAY + 1e-9 {
                        three_hops += 1;
                    }
                }
            }
        }
        assert!(
            two_hops as f64 > 0.15 * total as f64,
            "preferential attachment should give a dense 2-hop core: {two_hops}/{total}"
        );
        assert!(
            three_hops as f64 > 0.55 * total as f64,
            "BA graphs are small worlds: {three_hops}/{total} within 3 hops"
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let a = waxman_delays(30, &WaxmanConfig::default(), 9);
        let b = waxman_delays(30, &WaxmanConfig::default(), 9);
        assert_eq!(a, b);
        let c = barabasi_albert_delays(30, &BaConfig::default(), 9);
        let e = barabasi_albert_delays(30, &BaConfig::default(), 9);
        assert_eq!(c, e);
    }

    #[test]
    fn sparse_waxman_still_connected() {
        let cfg = WaxmanConfig {
            alpha: 0.05,
            beta: 0.05,
            side: 200.0,
        };
        let d = waxman_delays(50, &cfg, 5);
        for i in 0..50 {
            for j in 0..50 {
                if i != j {
                    assert!(d.at(i, j).is_finite(), "fix-up must connect ({i},{j})");
                }
            }
        }
    }
}
