//! Property-based tests tying the graph algorithms to each other.

use crate::apsp::{apsp, floyd_warshall};
use crate::connectivity::{pairwise_reachability, strongly_connected};
use crate::cycles::{backbone_edges, enforce_cycle};
use crate::dijkstra::dijkstra;
use crate::disjoint::{edge_disjoint_paths, vertex_disjoint_paths};
use crate::graph::DiGraph;
use crate::matrix::DistanceMatrix;
use crate::maxflow::max_flow;
use crate::types::NodeId;
use crate::widest::widest_paths;
use proptest::prelude::*;

/// Random sparse directed graph with positive costs.
fn arb_graph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1u32..100u32);
        proptest::collection::vec(edge, 0..n * 3).prop_map(move |edges| {
            let mut g = DiGraph::new(n);
            for (a, b, c) in edges {
                if a != b {
                    g.add_edge(NodeId::from_index(a), NodeId::from_index(b), c as f64);
                }
            }
            g
        })
    })
}

/// Edge list over `2..max_n` nodes with costs in `0..3` (zero-cost edges
/// and ties everywhere) and repeated `(from, to)` draws.
fn arb_tie_edges(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, u32)>)> {
    (2usize..max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n, 0u32..3), 0..n * 3),
        )
    })
}

/// The pre-path-plane multipath search, kept as the oracle: a full
/// disabled-edge sweep per path and `want` capped by the max-flow count.
fn disjoint_paths_with_precount(
    g: &DiGraph,
    csr: &crate::csr::CsrGraph,
    (s, t): (u32, u32),
    max_paths: usize,
) -> Vec<Vec<NodeId>> {
    use crate::csr::{path_from_parents, DijkstraWorkspace, MinPlus, Sweep, NO_PARENT};
    let n = csr.len();
    let want = max_paths.min(edge_disjoint_paths(g, NodeId(s), NodeId(t)));
    let mut ws = DijkstraWorkspace::new(n);
    let mut disabled = vec![false; csr.edge_count()];
    let (mut dist, mut parent) = (vec![f64::INFINITY; n], vec![NO_PARENT; n]);
    let mut paths = Vec::new();
    for _ in 0..want.max(1) {
        let full = Sweep {
            disabled: Some(&disabled),
            ..Sweep::default()
        };
        ws.sweep::<MinPlus>(csr, s, full, &mut dist, &mut parent);
        let Some(path) = path_from_parents(&parent, s, t, dist[t as usize].is_finite()) else {
            break;
        };
        for w in path.windows(2) {
            let lo: usize = (0..w[0].index()).map(|u| csr.out(u).0.len()).sum();
            let (ts, _) = csr.out(w[0].index());
            let off = (0..ts.len()).find(|&o| ts[o] == w[1].0 && !disabled[lo + o]);
            disabled[lo + off.expect("path edges are enabled")] = true;
        }
        paths.push(path);
    }
    paths
}

/// One case of `early_exit_is_the_full_sweep` on algebra `A`.
fn early_exit_case<A: crate::csr::PathAlgebra>(
    csr: &crate::csr::CsrGraph,
    mask_seed: u64,
) -> Result<(), TestCaseError> {
    use crate::csr::{path_from_parents, DijkstraWorkspace, Sweep, NO_PARENT};
    let n = csr.len();
    let mut ws = DijkstraWorkspace::new(n);
    let row = || (vec![0.0; n], vec![NO_PARENT; n]);
    let masks = [
        vec![false; csr.edge_count()],
        (0..csr.edge_count())
            .map(|e| (mask_seed >> (e % 64)) & 1 == 1)
            .collect(),
    ];
    for (s, mask) in (0..n as u32).flat_map(|s| masks.iter().map(move |m| (s, m))) {
        let (mut dist, mut parent) = row();
        let full = Sweep {
            disabled: Some(mask),
            ..Sweep::default()
        };
        ws.sweep::<A>(csr, s, full, &mut dist, &mut parent);
        if mask.iter().all(|&d| !d) {
            let (mut plain_dist, mut plain_parent) = row();
            ws.sweep::<A>(csr, s, Sweep::default(), &mut plain_dist, &mut plain_parent);
            prop_assert_eq!(&plain_parent, &parent);
        }
        for t in 0..n as u32 {
            let (mut d, mut p) = row();
            let early = Sweep {
                stop_at: Some(t),
                ..full
            };
            ws.sweep::<A>(csr, s, early, &mut d, &mut p);
            prop_assert_eq!(d[t as usize].to_bits(), dist[t as usize].to_bits());
            let reachable = A::better(dist[t as usize], A::UNREACHED);
            prop_assert_eq!(
                path_from_parents(&p, s, t, reachable),
                path_from_parents(&parent, s, t, reachable)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One batched label-correcting pass is one heap sweep per source,
    /// bit for bit on either algebra: unreachable nodes, zero-cost edges
    /// and ties, self-loops and parallel edges, repeated sources, the
    /// masked node among the sources, no sources at all, and source
    /// counts on both sides of a lane block and off its padding.
    #[test]
    fn batched_sweep_is_the_per_source_sweeps(
        (n, edges) in arb_tie_edges(20),
        picks in proptest::collection::vec(0usize..20, 0..150),
        mask_seed in any::<u64>(),
    ) {
        let edges: Vec<(usize, usize, f64)> =
            edges.into_iter().map(|(a, b, c)| (a, b, c as f64)).collect();
        let csr = crate::csr::CsrGraph::from_raw_edges(n, &edges);
        let mut sources: Vec<u32> = picks.into_iter().map(|p| (p % n) as u32).collect();
        let masked = (mask_seed >> 8) as u32 % n as u32;
        let mask = match mask_seed % 4 {
            0 => None,
            1 => {
                sources.push(masked);
                Some(masked)
            }
            _ => Some(masked),
        };
        use crate::csr::tests::assert_batch_is_per_source_sweeps as check;
        let ws = &mut crate::DijkstraWorkspace::default();
        let pops = check::<crate::csr::MinPlus>(ws, &csr, &sources, mask);
        prop_assert!(pops >= sources.len().min(1) as u64);
        check::<crate::csr::MaxMin>(ws, &csr, &sources, mask);
    }

    /// `want = max_paths` finds exactly what `want = min(max_paths,
    /// max-flow)` found — with every search stopping at the target, and
    /// with path 0 read off a plain SSSP tree — unreachable targets,
    /// repeated edges and `s == t` included.
    #[test]
    fn disjoint_search_needs_no_maxflow_precount(
        (n, edges) in arb_tie_edges(12),
        picks in (0usize..12, 0usize..12),
        max_paths in 1usize..4,
    ) {
        use crate::csr::{
            path_from_parents, successive_disjoint_paths, CsrGraph, DijkstraWorkspace,
            DisjointSearch, NO_PARENT,
        };
        let mut g = DiGraph::new(n);
        for (a, b, c) in edges {
            if a != b {
                g.add_edge(NodeId::from_index(a), NodeId::from_index(b), c as f64);
            }
        }
        let csr = CsrGraph::from_digraph(&g);
        let (s, t) = ((picks.0 % n) as u32, (picks.1 % n) as u32);
        let oracle = disjoint_paths_with_precount(&g, &csr, (s, t), max_paths);
        let mut search = DisjointSearch::new(&csr);
        prop_assert_eq!(&successive_disjoint_paths(&csr, s, t, max_paths, &mut search), &oracle);

        let (mut dist, mut tree) = (vec![0.0; n], vec![NO_PARENT; n]);
        DijkstraWorkspace::new(n).sssp_into(&csr, s, None, &mut dist, &mut tree);
        let mut off_tree = Vec::new();
        search.for_each_path(&csr, s, t, max_paths, Some(&tree), |row| {
            off_tree.extend(path_from_parents(row, s, t, true));
        });
        prop_assert_eq!(&off_tree, &oracle);
    }

    /// Stopping at the target leaves its value and parent chain bit for
    /// bit the full sweep's, on either algebra, under any disabled-edge
    /// mask, on graphs with parallel edges, zero costs and ties; and an
    /// all-false mask is the plain tree.
    #[test]
    fn early_exit_is_the_full_sweep(
        (n, edges) in arb_tie_edges(12),
        mask_seed in any::<u64>(),
    ) {
        let csr = crate::csr::CsrGraph::from_fn(n, |u| {
            edges
                .iter()
                .filter(move |&&(a, b, _)| a == u && b != u)
                .map(|&(_, b, c)| (b as u32, c as f64))
                .collect::<Vec<_>>()
        });
        early_exit_case::<crate::csr::MinPlus>(&csr, mask_seed)?;
        early_exit_case::<crate::csr::MaxMin>(&csr, mask_seed)?;
    }

    /// Dijkstra distances satisfy the triangle inequality over relaxed
    /// edges: d(s,v) ≤ d(s,u) + w(u,v) for every edge (u,v).
    #[test]
    fn dijkstra_is_stable_under_relaxation(g in arb_graph(12)) {
        let sp = dijkstra(&g, NodeId(0));
        for (u, v, w) in g.edges() {
            let du = sp.dist[u.index()];
            let dv = sp.dist[v.index()];
            if du.is_finite() {
                prop_assert!(dv <= du + w + 1e-9,
                    "edge {u}→{v} (w={w}) violates relaxation: d(u)={du}, d(v)={dv}");
            }
        }
    }

    /// The one-sweep routing table is the per-target path walk, from
    /// every source, over both parent encodings; and a CSR graph built
    /// row by row is the `DiGraph` the same `add_edge` calls built.
    #[test]
    fn first_hops_equal_path_walks(g in arb_graph(14)) {
        use crate::csr::{first_hops, CsrGraph, DijkstraWorkspace};
        let n = g.len();
        let mut rows = CsrGraph::with_capacity(n, g.edge_count());
        for u in 0..n {
            for e in g.out_edges(NodeId::from_index(u)) {
                // Each edge twice: the second write must replace, not add.
                rows.set_edge(e.to.0, e.cost + 1.0);
                rows.set_edge(e.to.0, e.cost);
            }
            rows.end_row();
        }
        let flat = CsrGraph::from_digraph(&g);
        prop_assert_eq!(rows.edges().collect::<Vec<_>>(), flat.edges().collect::<Vec<_>>());

        let mut ws = DijkstraWorkspace::new(n);
        let (mut dist, mut parent) = (vec![0.0; n], vec![0; n]);
        for s in 0..n {
            let sp = dijkstra(&g, NodeId::from_index(s));
            let walked: Vec<Option<NodeId>> = (0..n)
                .map(|t| sp.path_to(NodeId::from_index(t)).and_then(|p| p.get(1).copied()))
                .collect();
            let hops: Vec<Option<NodeId>> =
                (0..n).map(|t| sp.next_hop(NodeId::from_index(t))).collect();
            prop_assert_eq!(&hops, &walked, "next_hop from {}", s);
            prop_assert_eq!(&sp.first_hops(), &walked, "first_hops from {}", s);
            ws.sssp_into(&rows, s as u32, None, &mut dist, &mut parent);
            prop_assert_eq!(&first_hops(&parent, s as u32), &walked, "CSR first_hops from {}", s);
        }
    }

    /// Repeated-Dijkstra APSP agrees with Floyd–Warshall everywhere.
    #[test]
    fn apsp_equals_floyd_warshall(g in arb_graph(10)) {
        let a = apsp(&g);
        let f = floyd_warshall(&g);
        for i in 0..g.len() {
            for j in 0..g.len() {
                let (x, y) = (a.at(i, j), f.at(i, j));
                prop_assert!(
                    (x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-6,
                    "({i},{j}): {x} vs {y}"
                );
            }
        }
    }

    /// Paths reported by Dijkstra have exactly the reported cost.
    #[test]
    fn dijkstra_path_cost_matches_dist(g in arb_graph(12)) {
        let sp = dijkstra(&g, NodeId(0));
        for j in 0..g.len() {
            if let Some(path) = sp.path_to(NodeId::from_index(j)) {
                let mut c = 0.0;
                for w in path.windows(2) {
                    c += g.edge_cost(w[0], w[1]).unwrap();
                }
                prop_assert!((c - sp.dist[j]).abs() < 1e-9);
            }
        }
    }

    /// Widest path width equals the minimum edge bandwidth along the
    /// reported path, and no single edge out of the source is wider than
    /// the best width to its endpoint.
    #[test]
    fn widest_path_is_consistent(g in arb_graph(12)) {
        let wp = widest_paths(&g, NodeId(0));
        for j in 1..g.len() {
            if let Some(path) = wp.path_to(NodeId::from_index(j)) {
                let mut w = f64::INFINITY;
                for win in path.windows(2) {
                    w = w.min(g.edge_cost(win[0], win[1]).unwrap());
                }
                prop_assert!((w - wp.width[j]).abs() < 1e-9);
            }
        }
        for e in g.out_edges(NodeId(0)) {
            prop_assert!(wp.width[e.to.index()] >= e.cost - 1e-9);
        }
    }

    /// Max-flow is bounded by both total out-capacity of s and the
    /// bottleneck width times the number of edge-disjoint paths... the
    /// simple sound bound: flow ≤ Σ out-capacities and flow ≥ widest single
    /// path bottleneck (when finite).
    #[test]
    fn max_flow_bounds(g in arb_graph(10)) {
        let s = NodeId(0);
        let t = NodeId::from_index(g.len() - 1);
        if s == t { return Ok(()); }
        let f = max_flow(&g, s, t);
        let out_cap: f64 = g.out_edges(s).iter().map(|e| e.cost).sum();
        prop_assert!(f <= out_cap + 1e-6);
        let w = widest_paths(&g, s).width[t.index()];
        if w > 0.0 && w.is_finite() {
            prop_assert!(f >= w - 1e-6, "flow {f} < single widest path {w}");
        }
    }

    /// Edge-disjoint ≥ vertex-disjoint, and both are 0 iff unreachable.
    #[test]
    fn disjoint_path_hierarchy(g in arb_graph(10)) {
        let s = NodeId(0);
        let t = NodeId::from_index(g.len() - 1);
        if s == t { return Ok(()); }
        let e = edge_disjoint_paths(&g, s, t);
        let v = vertex_disjoint_paths(&g, s, t);
        prop_assert!(e >= v);
        let reach = crate::connectivity::reachable_from(&g, s)[t.index()];
        prop_assert_eq!(e > 0, reach);
    }

    /// Enforcing a cycle always produces a strongly connected overlay.
    #[test]
    fn enforced_cycle_connects(g in arb_graph(10)) {
        let n = g.len();
        let d = DistanceMatrix::off_diagonal(n, 1.0);
        let members: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let mut g = g;
        enforce_cycle(&mut g, &d, &members);
        prop_assert!(strongly_connected(&g, &members));
        prop_assert!((pairwise_reachability(&g, &members) - 1.0).abs() < 1e-12);
    }

    /// The HybridBR backbone with any even k2 ≥ 2 is strongly connected and
    /// each node donates at most k2 out-links per cycle pair.
    #[test]
    fn backbone_is_connected(n in 3usize..20, k2 in 1usize..4) {
        let k2 = k2 * 2;
        let members: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let edges = backbone_edges(&members, k2);
        let mut g = DiGraph::new(n);
        for (a, b) in &edges {
            g.add_edge(*a, *b, 1.0);
        }
        prop_assert!(strongly_connected(&g, &members));
        for &m in &members {
            prop_assert!(g.out_degree(m) <= k2.min(n - 1) + k2 / 2,
                "node {m} donates {} links for k2={k2}", g.out_degree(m));
        }
    }
}
