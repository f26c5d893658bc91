//! Cross-module property tests for the SNS core.

use crate::cost::Preferences;
use crate::policies::best_response::{BestResponse, BrInstance};
use crate::policies::{PolicyKind, WiringContext};
use crate::wiring::Wiring;
use egoist_graph::apsp::apsp;
use egoist_graph::{DistanceMatrix, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random positive cost matrix of size n.
fn arb_matrix(max_n: usize) -> impl Strategy<Value = DistanceMatrix> {
    (4usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec(1u32..200u32, n * n)
            .prop_map(move |v| DistanceMatrix::from_fn(n, |i, j| v[i * n + j] as f64))
    })
}

/// A random wiring with degree ≤ 3 (from a hash of the matrix for
/// determinism inside the property).
fn ring_wiring(n: usize) -> Wiring {
    let mut w = Wiring::empty(n);
    for i in 0..n {
        w.rewire(NodeId::from_index(i), vec![NodeId::from_index((i + 1) % n)]);
    }
    w
}

struct Built {
    candidates: Vec<NodeId>,
    direct: Vec<f64>,
    residual: DistanceMatrix,
    prefs: Preferences,
    alive: Vec<bool>,
    penalty: f64,
    current: Vec<NodeId>,
}

fn build(d: &DistanceMatrix, w: &Wiring, node: NodeId) -> Built {
    let n = d.len();
    let alive = vec![true; n];
    let residual = apsp(&w.residual_graph(node, d, &alive));
    Built {
        candidates: (0..n)
            .map(NodeId::from_index)
            .filter(|&j| j != node)
            .collect(),
        direct: d.row(node.index()).to_vec(),
        residual,
        prefs: Preferences::uniform(n),
        alive,
        penalty: crate::cost::disconnection_penalty(d),
        current: w.of(node).to_vec(),
    }
}

fn ctx<'a>(b: &'a Built, node: NodeId, k: usize) -> WiringContext<'a> {
    WiringContext {
        node,
        k,
        candidates: &b.candidates,
        direct: &b.direct,
        residual: crate::residual::ResidualView::dense(&b.residual),
        prefs: &b.prefs,
        alive: &b.alive,
        penalty: b.penalty,
        current: &b.current,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The on-demand fill's named rows are `apsp(residual_graph(i))` bit
    /// for bit, whatever rows are named (none, some twice, the turn
    /// node's own, more than a lane block), read back in whatever order,
    /// in an arena a fill naming every row used before; and it computes
    /// exactly one row per distinct named source. The graphs are random
    /// k-out digraphs with dead nodes (isolated origins: no out-links,
    /// nobody links to them), unusable (infinite-cost) links and links
    /// struck out afterwards, as a quarantine pass would.
    #[test]
    fn on_demand_rows_equal_dense_residual_apsp(
        seed in any::<u64>(),
        n in 2usize..100,
        k in 1usize..6,
    ) {
        use crate::residual::ResidualArena;
        use egoist_graph::CsrGraph;
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(seed);
        let alive: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < 0.85).collect();
        let d = DistanceMatrix::from_fn(n, |i, j| {
            if i == j {
                0.0
            } else if rng.random::<f64>() < 0.1 {
                f64::INFINITY
            } else {
                0.37 * rng.random_range(1..400) as f64
            }
        });
        let mut w = Wiring::empty(n);
        for i in 0..n {
            let mut links: Vec<NodeId> = (0..k)
                .map(|_| NodeId::from_index(rng.random_range(0..n)))
                .filter(|x| x.index() != i)
                .collect();
            links.sort_unstable();
            links.dedup();
            w.rewire(NodeId::from_index(i), links);
        }
        let mut g = w.to_graph(&d, &alive);
        let struck: Vec<(NodeId, NodeId)> = g
            .edges()
            .map(|(from, to, _)| (from, to))
            .filter(|_| rng.random::<f64>() < 0.1)
            .collect();
        for (from, to) in struck {
            g.remove_edge(from, to);
        }
        let turn = NodeId::from_index(rng.random_range(0..n));

        let mut residual_graph = g.clone();
        residual_graph.clear_out_edges(turn);
        let truth = apsp(&residual_graph);

        // Every row twice, in a shuffled order.
        let mut reads: Vec<usize> = (0..n).chain(0..n).collect();
        for x in (1..reads.len()).rev() {
            reads.swap(x, rng.random_range(0..=x));
        }
        // Name a random subset (repeats included), then read back every
        // named row, each at least twice.
        let csr = CsrGraph::from_digraph(&g);
        let share = [0.0, 0.3, 1.0][rng.random_range(0..3usize)];
        let named: Vec<NodeId> = reads
            .iter()
            .map(|&s| NodeId::from_index(s))
            .filter(|_| rng.random::<f64>() < share)
            .collect();
        let mut seen = vec![false; n];
        for s in &named {
            seen[s.index()] = true;
        }
        let mut arena = ResidualArena::default();
        arena.sweep(&csr, turn, (0..n).map(NodeId::from_index));
        let view = arena.sweep(&csr, turn, named.iter().copied());
        for s in reads.into_iter().filter(|&s| seen[s]) {
            let row = view.row(s);
            prop_assert_eq!(row.len(), n);
            for (t, x) in row.iter().enumerate() {
                prop_assert_eq!(
                    x.to_bits(),
                    truth.at(s, t).to_bits(),
                    "row read ({},{}) for turn {}", s, t, turn
                );
            }
        }
        prop_assert_eq!(
            arena.rows_materialised(),
            seen.iter().filter(|&&x| x).count(),
            "one row per distinct named source"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The lazy solver core makes the reference loops' decisions bit for
    /// bit on instances built to break laziness: small-integer costs
    /// (exact ties everywhere), candidates with duplicated rows (the
    /// lower index must win), zero-weight destinations, rows saturated
    /// at the penalty (no direct link, unreachable tails), forced
    /// members, `k` beyond the pool, and short starts that make the
    /// local search call greedy itself. Several searches run on one
    /// instance, so stale bounds and the proven-optimal memo cross from
    /// one search into the next — including a restart from where an
    /// earlier search started and from where it ended.
    #[test]
    fn lazy_solver_equals_reference_on_adversarial_instances(
        seed in any::<u64>(),
        n in 5usize..40,
        k in 1usize..12,
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        // Candidates 1..n; the last few are dead twins of earlier ones:
        // they are candidates but not destinations, so a twin's whole
        // row equals its original's.
        let twins = rng.random_range(0..3usize).min(n - 3);
        let mut alive = vec![true; n];
        let mut direct: Vec<f64> = (0..n)
            .map(|_| match rng.random_range(0..10u32) {
                0 => f64::INFINITY,
                x => x as f64,
            })
            .collect();
        let mut residual = DistanceMatrix::from_fn(n, |i, j| {
            if i == j {
                0.0
            } else {
                match rng.random_range(0..12u32) {
                    0 => f64::INFINITY,
                    1 => 1e9, // clamps at the penalty
                    x => (x / 2) as f64,
                }
            }
        });
        for t in 0..twins {
            let (twin, original) = (n - 1 - t, 1 + t);
            alive[twin] = false;
            alive[original] = false;
            direct[twin] = direct[original];
            for j in 0..n {
                residual.set_at(twin, j, residual.at(original, j));
            }
        }
        let weights: Vec<f64> = (0..n * n).map(|_| rng.random_range(0..3u32) as f64).collect();
        let candidates: Vec<NodeId> = (1..n).map(NodeId::from_index).collect();
        let c = WiringContext {
            node: NodeId(0),
            k,
            candidates: &candidates,
            direct: &direct,
            residual: crate::residual::ResidualView::dense(&residual),
            prefs: &Preferences::from_weights(n, weights),
            alive: &alive,
            penalty: 500.0,
            current: &[],
        };
        let mut inst = BrInstance::build(&c);
        let nc = inst.cand.len();
        let forced: Vec<usize> = (0..nc).filter(|_| rng.random_range(0..8u32) == 0).take(k).collect();
        let mut pick_some = |upto: usize| -> Vec<usize> {
            (0..nc).filter(|_| rng.random_range(0..nc) < upto).collect()
        };

        for f in [&[][..], &forced[..]] {
            prop_assert_eq!(inst.greedy(k, f), inst.greedy_reference(k, f), "greedy, forced {:?}", f);
        }
        let from_greedy = inst.greedy_reference(k, &forced);
        let mut starts = vec![Vec::new(), pick_some(2), pick_some(k), from_greedy];
        for round in 0..2 {
            for init in starts.clone() {
                // A start must contain the members it may not drop.
                let init: Vec<usize> = init.into_iter().chain(forced.iter().copied()).collect();
                let (s_ref, c_ref) = inst.local_search_reference(k, init.clone(), &forced, 64);
                let (s, v) = inst.local_search(k, init.clone(), &forced, 64);
                prop_assert_eq!(&s, &s_ref, "subset from {:?} (pass {})", init, round);
                prop_assert_eq!(v.to_bits(), c_ref.to_bits(), "cost bits from {:?}", init);
                if round == 0 {
                    starts.push(s);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The §5 shortlist over a simulator-shaped turn (candidates = the
    /// alive nodes but `me`, a current wiring that may name dead nodes):
    /// a subsequence of the candidates — so no self, no dead node, no
    /// duplicate — holding every alive current link and exactly `m`
    /// more, the same for the same seed; the candidates themselves, with
    /// the RNG untouched, when there are at most `m` of them.
    #[test]
    fn shortlist_is_a_wellformed_sample(
        seed in any::<u64>(),
        n in 2usize..160,
        m in 0usize..100,
        widest in any::<bool>(),
    ) {
        use crate::sampling::shortlist;
        use egoist_graph::csr::{MaxMin, MinPlus};
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(seed);
        let me = rng.random_range(0..n);
        let alive: Vec<bool> = (0..n).map(|j| j == me || rng.random::<f64>() < 0.8).collect();
        let candidates: Vec<NodeId> = (0..n)
            .filter(|&j| j != me && alive[j])
            .map(NodeId::from_index)
            .collect();
        let mut current: Vec<NodeId> = (0..rng.random_range(0..8usize))
            .map(|_| NodeId::from_index(rng.random_range(0..n)))
            .filter(|c| c.index() != me)
            .collect();
        current.sort_unstable();
        current.dedup();
        // Coarse scores, so ties are common.
        let direct: Vec<f64> = (0..n).map(|_| rng.random_range(1..12) as f64).collect();
        let score = |j: NodeId| direct[j.index()];
        let draw = |rng: &mut StdRng| if widest {
            shortlist::<MaxMin>(&candidates, &current, m, Some(&score), rng)
        } else {
            shortlist::<MinPlus>(&candidates, &current, m, Some(&score), rng)
        };

        let before = rng.clone();
        let got = draw(&mut rng);
        prop_assert_eq!(&got, &draw(&mut before.clone()), "not deterministic");
        if candidates.len() <= m {
            prop_assert_eq!(&got, &candidates);
            prop_assert!(rng == before, "an identity shortlist drew from the RNG");
        }
        let mut rest = candidates.iter();
        prop_assert!(
            got.iter().all(|g| rest.any(|c| c == g)),
            "{got:?} is not a subsequence of {candidates:?}"
        );
        let kept = current.iter().filter(|c| alive[c.index()]).count();
        prop_assert!(current.iter().all(|c| !alive[c.index()] || got.contains(c)));
        prop_assert_eq!(got.len(), candidates.len().min(kept + m));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Local-search BR is within 5% of the exhaustive optimum (the §4.1
    /// quality claim) on small random instances.
    #[test]
    fn local_search_within_five_percent(d in arb_matrix(9), k in 1usize..4) {
        let w = ring_wiring(d.len());
        let b = build(&d, &w, NodeId(0));
        let c = ctx(&b, NodeId(0), k);
        let inst = BrInstance::build(&c);
        let kk = k.min(c.candidates.len());
        let (_, c_exact) = inst.exhaustive(kk, &[], 1_000_000).expect("budget");
        let (_, c_ls) = BestResponse::local_search().solve(&c);
        prop_assert!(c_ls <= c_exact * 1.05 + 1e-9,
            "local search {c_ls} vs optimal {c_exact}");
    }

    /// Every policy returns ≤ k distinct alive non-self neighbors.
    #[test]
    fn policies_return_wellformed_wirings(d in arb_matrix(10), k in 1usize..5) {
        let w = ring_wiring(d.len());
        let b = build(&d, &w, NodeId(1));
        let c = ctx(&b, NodeId(1), k);
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [
            PolicyKind::Random,
            PolicyKind::Closest,
            PolicyKind::Regular,
            PolicyKind::BestResponse,
            PolicyKind::EpsilonBestResponse { epsilon: 0.1 },
            PolicyKind::HybridBestResponse { k2: 2 },
        ] {
            let mut policy = kind.instantiate();
            let out = policy.wire(&c, &mut rng);
            prop_assert!(out.len() <= k.max(2), "{} overshot k", policy.name());
            let mut s = out.clone();
            s.sort_unstable();
            s.dedup();
            prop_assert_eq!(s.len(), out.len(), "duplicates from {}", policy.name());
            prop_assert!(!out.contains(&NodeId(1)), "self link from {}", policy.name());
        }
    }

    /// BR cost is monotone non-increasing in k (more links never hurt).
    #[test]
    fn br_cost_monotone_in_k(d in arb_matrix(9)) {
        let w = ring_wiring(d.len());
        let b = build(&d, &w, NodeId(0));
        let mut prev = f64::INFINITY;
        for k in 1..5.min(d.len() - 1) {
            let c = ctx(&b, NodeId(0), k);
            let (_, cost) = BestResponse::local_search().solve(&c);
            prop_assert!(cost <= prev + 1e-9);
            prev = cost;
        }
    }

    /// The BR instance evaluation is monotone: supersets never cost more.
    #[test]
    fn br_eval_superset_monotone(d in arb_matrix(9)) {
        let w = ring_wiring(d.len());
        let b = build(&d, &w, NodeId(0));
        let c = ctx(&b, NodeId(0), 3);
        let inst = BrInstance::build(&c);
        let m = inst.cand.len();
        let small: Vec<usize> = vec![0, 1.min(m - 1)];
        let big: Vec<usize> = (0..m.min(5)).collect();
        prop_assert!(inst.eval(&big) <= inst.eval(&small) + 1e-9);
    }

    /// Social cost of a converged BR game never exceeds the all-random
    /// baseline, and the game engine's rewire turns keep the wiring
    /// well-formed.
    #[test]
    fn game_invariants(seed in 0u64..30) {
        let d = DistanceMatrix::from_fn(12, |i, j| {
            (((i * 31 + j * 17 + seed as usize * 7) % 97) + 1) as f64
        });
        let mut game = crate::game::Game::new(d.clone(), 3, PolicyKind::BestResponse, seed);
        game.run_to_convergence(30);
        for i in 0..12 {
            let s = game.wiring.of(NodeId::from_index(i));
            prop_assert!(s.len() <= 3);
            prop_assert!(!s.contains(&NodeId::from_index(i)));
        }
        let mut rnd = crate::game::Game::new(d, 3, PolicyKind::Random, seed);
        rnd.sweep();
        prop_assert!(game.social_cost() <= rnd.social_cost() + 1e-9);
    }

    /// The snapshot's [`crate::residual::ResidualView`] is
    /// bit-identical to a from-scratch all-pairs run on the residual
    /// graph — random point probes, full candidate-row reads, and reads
    /// after a committed re-wiring, for both snapshot kinds. Then a
    /// random interleaving of leaves, joins and re-wirings (the
    /// simulator's sequences: a leave clears the wiring, a turn may or
    /// may not commit, stale links to dead nodes stay listed): after
    /// every step the patched snapshot is the one a rebuild would
    /// produce and the next turn's residual is still the `G−j` oracle's.
    /// Every turn here names every row; [`link_deltas_stay_exact_under_ties`]
    /// names subsets.
    #[test]
    fn residual_view_matches_from_scratch_oracle(
        d in arb_matrix(14),
        probes in proptest::collection::vec((0usize..64, 0usize..64), 8),
        turn in 0usize..64,
        twist in 0u64..1000,
    ) {
        use crate::cost::disconnection_penalty;
        use crate::policies::bandwidth::all_pairs_widest;
        use crate::snapshot::{RouteState, SnapshotKind};

        let n = d.len();
        // Ring plus one extra chord per node: trees with real subtrees.
        let mut w = ring_wiring(n);
        for i in 0..n {
            let mut links = w.of(NodeId::from_index(i)).to_vec();
            links.push(NodeId::from_index((i + 2 + (twist as usize % 3)) % n));
            links.retain(|x| x.index() != i);
            links.sort_unstable();
            links.dedup();
            w.rewire(NodeId::from_index(i), links);
        }
        let alive = vec![true; n];
        for kind in [SnapshotKind::Additive, SnapshotKind::Widest] {
            let oracle = |node: NodeId, wiring: &Wiring| -> DistanceMatrix {
                let g = wiring.residual_graph(node, &d, &alive);
                match kind {
                    SnapshotKind::Additive => apsp(&g),
                    SnapshotKind::Widest => all_pairs_widest(&g),
                }
            };
            let mut rs = RouteState::new();
            rs.rebuild(
                kind,
                d.clone(),
                disconnection_penalty(&d),
                alive.clone(),
                &w.to_graph(&d, &alive),
            );

            let everyone: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
            let i = turn % n;
            let truth = oracle(NodeId::from_index(i), &w);
            {
                let view = rs.residual(i, &everyone);
                // Full candidate-row reads (every row, every entry).
                for s in 0..n {
                    let row = view.row(s);
                    for (t, x) in row.iter().enumerate() {
                        prop_assert_eq!(
                            x.to_bits(),
                            truth.at(s, t).to_bits(),
                            "{kind:?} row read ({s},{t}) for turn {i}"
                        );
                    }
                }
                // Random point probes.
                for &(ps, pt) in &probes {
                    let (s, t) = (ps % n, pt % n);
                    prop_assert_eq!(
                        view.row(s)[t].to_bits(),
                        truth.at(s, t).to_bits(),
                        "{kind:?} probe ({s},{t}) for turn {i}"
                    );
                }
            }

            // Commit a re-wiring of the turn node and read again through
            // a fresh view for a different node.
            let node = NodeId::from_index(i);
            let mut links: Vec<NodeId> = (1..=2)
                .map(|o| NodeId::from_index((i + o + twist as usize) % n))
                .filter(|x| x.index() != i)
                .collect();
            links.sort_unstable();
            links.dedup();
            w.rewire(node, links);
            rs.note_rewire(node, &w, &alive);

            let j = (i + 1 + twist as usize) % n;
            let truth2 = oracle(NodeId::from_index(j), &w);
            let view2 = rs.residual(j, &everyone);
            for s in 0..n {
                let row = view2.row(s);
                for (t, x) in row.iter().enumerate() {
                    prop_assert_eq!(
                        x.to_bits(),
                        truth2.at(s, t).to_bits(),
                        "{kind:?} post-rewire read ({s},{t}) for turn {j}"
                    );
                }
            }

            // Churn. `w` and `alive` are per-kind copies from here on.
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(twist);
            let (mut w, mut alive) = (w.clone(), alive.clone());
            for step in 0..16 {
                let x = rng.random_range(0..n);
                let node = NodeId::from_index(x);
                let what = match rng.random_range(0..4u32) {
                    _ if !alive[x] => {
                        alive[x] = true;
                        rs.note_join(node, &w, &alive);
                        "join"
                    }
                    0 => {
                        alive[x] = false;
                        w.clear(node);
                        rs.note_leave(node);
                        "leave"
                    }
                    draw => {
                        // A turn: with its residual or, like a backbone
                        // repair, without.
                        if draw == 1 {
                            rs.residual(x, &everyone);
                        }
                        let mut links: Vec<NodeId> = (0..rng.random_range(0..4usize))
                            .map(|_| NodeId::from_index(rng.random_range(0..n)))
                            .filter(|t| *t != node)
                            .collect();
                        links.sort_unstable();
                        links.dedup();
                        if w.rewire(node, links) {
                            rs.note_rewire(node, &w, &alive);
                        }
                        "rewire"
                    }
                };
                if let Err(why) = rs.check_against_rebuild(&w, &alive) {
                    prop_assert!(false, "{kind:?} step {step}, {what} of {x}: {why}");
                }
                let j = rng.random_range(0..n);
                let g = w.residual_graph(NodeId::from_index(j), &d, &alive);
                let truth = match kind {
                    SnapshotKind::Additive => apsp(&g),
                    SnapshotKind::Widest => all_pairs_widest(&g),
                };
                let view = rs.residual(j, &everyone);
                for s in 0..n {
                    for (t, x) in view.row(s).iter().enumerate() {
                        prop_assert_eq!(
                            x.to_bits(),
                            truth.at(s, t).to_bits(),
                            "{kind:?} step {step} after {what}: residual({j}) at ({s},{t})"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The in-place link delta on tie-heavy costs (integers 1..=4, so
    /// both semirings keep meeting equal-valued parents): random
    /// sequences of turns that name a subset of rows and may commit,
    /// leaves, joins and re-wirings no residual preceded, with commits of
    /// every shape — kept + dropped + added, dropped only, added only,
    /// all replaced. After every delta the snapshot is the one a rebuild
    /// would produce, and every named row of every view is the `G−i`
    /// oracle's.
    #[test]
    fn link_deltas_stay_exact_under_ties(
        n in 6usize..14,
        costs in proptest::collection::vec(1u32..5, 13 * 13),
        seed in 0u64..1_000_000,
    ) {
        use crate::cost::disconnection_penalty;
        use crate::policies::bandwidth::all_pairs_widest;
        use crate::snapshot::{RouteState, SnapshotKind};
        use rand::seq::SliceRandom;
        use rand::Rng;

        let d = DistanceMatrix::from_fn(n, |i, j| costs[i * 13 + j] as f64);
        let ids: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        for kind in [SnapshotKind::Additive, SnapshotKind::Widest] {
            let mut rng = StdRng::seed_from_u64(seed);
            // Up to `upto` distinct members of `from`, in random order.
            let draw = |from: &[NodeId], upto: usize, rng: &mut StdRng| -> Vec<NodeId> {
                let mut picked = from.to_vec();
                picked.shuffle(rng);
                picked.truncate(rng.random_range(0..=upto));
                picked
            };
            let mut w = Wiring::empty(n);
            for &i in &ids {
                let others: Vec<NodeId> = ids.iter().copied().filter(|&t| t != i).collect();
                let mut links = draw(&others, 3, &mut rng);
                links.push(others[0]);
                w.rewire(i, links);
            }
            let mut alive = vec![true; n];
            let mut rs = RouteState::new();
            rs.rebuild(
                kind,
                d.clone(),
                disconnection_penalty(&d),
                alive.clone(),
                &w.to_graph(&d, &alive),
            );
            for step in 0..24 {
                let x = rng.random_range(0..n);
                let node = ids[x];
                let op = rng.random_range(0..6u32);
                let what = if !alive[x] {
                    alive[x] = true;
                    rs.note_join(node, &w, &alive);
                    "join"
                } else if op == 0 {
                    alive[x] = false;
                    w.clear(node);
                    rs.note_leave(node);
                    "leave"
                } else {
                    let old = w.of(node).to_vec();
                    let spare: Vec<NodeId> = ids
                        .iter()
                        .copied()
                        .filter(|t| *t != node && !old.contains(t))
                        .collect();
                    if op >= 3 {
                        // A turn: the node itself, its links and a random
                        // subset of the others are named, read and checked.
                        let mut named = old.clone();
                        named.extend(draw(&spare, n, &mut rng));
                        named.push(node);
                        let g = w.residual_graph(node, &d, &alive);
                        let truth = match kind {
                            SnapshotKind::Additive => apsp(&g),
                            SnapshotKind::Widest => all_pairs_widest(&g),
                        };
                        let view = rs.residual(x, &named);
                        for s in named.iter().map(|s| s.index()) {
                            for (t, got) in view.row(s).iter().enumerate() {
                                prop_assert_eq!(
                                    got.to_bits(),
                                    truth.at(s, t).to_bits(),
                                    "{:?} step {}: residual({}) at ({},{})", kind, step, x, s, t
                                );
                            }
                        }
                    }
                    if op == 5 {
                        "turn kept its wiring"
                    } else {
                        let (some_old, some_new) = (draw(&old, 2, &mut rng), draw(&spare, 2, &mut rng));
                        let (links, shape) = match rng.random_range(0..4u32) {
                            0 => ([some_old, some_new].concat(), "kept + dropped + added"),
                            1 => (some_old, "dropped only"),
                            2 => ([old, some_new].concat(), "added only"),
                            _ => (some_new, "all replaced"),
                        };
                        if w.rewire(node, links) {
                            rs.note_rewire(node, &w, &alive);
                        }
                        shape
                    }
                };
                if let Err(why) = rs.check_against_rebuild(&w, &alive) {
                    prop_assert!(false, "{kind:?} step {step}, {what} of {x}: {why}");
                }
            }
            prop_assert_eq!(rs.stats.rewire_swept, 0);
            prop_assert_eq!(rs.stats.rebuilds, 1);
        }
    }
}

/// The static game as it was before it moved onto the route-state
/// engine: every move rebuilds `G−i` and runs a from-scratch all-pairs
/// pass over it, every cost query runs a Dijkstra per node.
struct DenseGame {
    costs: DistanceMatrix,
    widest: bool,
    penalty: f64,
    k: usize,
    wiring: Wiring,
    alive: Vec<bool>,
    prefs: Preferences,
    policy: Box<dyn crate::policies::Policy + Send + Sync>,
    rng: StdRng,
}

impl DenseGame {
    fn new(costs: DistanceMatrix, widest: bool, k: usize, kind: PolicyKind, seed: u64) -> Self {
        let n = costs.len();
        let (penalty, policy) = if widest {
            (0.0, kind.instantiate_bandwidth())
        } else {
            (
                crate::cost::disconnection_penalty(&costs),
                kind.instantiate(),
            )
        };
        DenseGame {
            penalty,
            policy,
            costs,
            widest,
            k,
            wiring: Wiring::empty(n),
            alive: vec![true; n],
            prefs: Preferences::uniform(n),
            rng: StdRng::seed_from_u64(seed ^ 0x6A3E),
        }
    }

    fn turn(&mut self, i: NodeId) -> bool {
        let candidates: Vec<NodeId> = (0..self.costs.len())
            .filter(|&j| j != i.index() && self.alive[j])
            .map(NodeId::from_index)
            .collect();
        if !self.alive[i.index()] || candidates.is_empty() {
            return false;
        }
        let g = self.wiring.residual_graph(i, &self.costs, &self.alive);
        let residual = if self.widest {
            crate::policies::bandwidth::all_pairs_widest(&g)
        } else {
            apsp(&g)
        };
        let current = self.wiring.of(i).to_vec();
        let ctx = WiringContext {
            node: i,
            k: self.k,
            candidates: &candidates,
            direct: self.costs.row(i.index()),
            residual: crate::residual::ResidualView::dense(&residual),
            prefs: &self.prefs,
            alive: &self.alive,
            penalty: self.penalty,
            current: &current,
        };
        let new = self.policy.wire(&ctx, &mut self.rng);
        self.wiring.rewire(i, new)
    }

    fn social_cost(&self) -> f64 {
        let g = self.wiring.to_graph(&self.costs, &self.alive);
        let alive = (0..self.costs.len()).filter(|&i| self.alive[i]);
        alive
            .map(|i| {
                let sp = egoist_graph::dijkstra::dijkstra(&g, NodeId::from_index(i));
                let i = NodeId::from_index(i);
                crate::cost::node_cost_from_dists(
                    i,
                    &sp.dist,
                    &self.prefs,
                    &self.alive,
                    self.penalty,
                )
            })
            .filter(|c| c.is_finite())
            .sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The static game on the route-state engine is the dense per-move
    /// game it replaced, on tie-heavy costs (integers 1..=4), for every
    /// policy on both semirings: the same move and the same wiring after
    /// every turn and, on additive costs, the same social-cost bits after
    /// every sweep — with a node toggled dead or alive through the public
    /// `alive` before each sweep (a returner keeps its links, so its join
    /// is followed by a re-wiring delta).
    #[test]
    fn game_plays_the_dense_per_move_game(
        n in 5usize..13,
        costs in proptest::collection::vec(1u32..5, 12 * 12),
        policy in 0usize..7,
        toggles in proptest::collection::vec(0usize..12, 4),
        seed in 0u64..1000,
    ) {
        let d = DistanceMatrix::from_fn(n, |i, j| costs[i * 12 + j] as f64);
        let kind = [
            PolicyKind::BestResponse,
            PolicyKind::ExactBestResponse,
            PolicyKind::EpsilonBestResponse { epsilon: 0.05 },
            PolicyKind::HybridBestResponse { k2: 2 },
            PolicyKind::Random,
            PolicyKind::Closest,
            PolicyKind::Regular,
        ][policy];
        for widest in [false, true] {
            let mut game = if widest {
                crate::game::Game::bandwidth(d.clone(), 3, kind, seed)
            } else {
                crate::game::Game::new(d.clone(), 3, kind, seed)
            };
            let mut dense = DenseGame::new(d.clone(), widest, 3, kind, seed);
            for (sweep, &x) in toggles.iter().enumerate() {
                let x = x % n;
                game.alive[x] = !game.alive[x];
                dense.alive[x] = game.alive[x];
                for i in (0..n).map(NodeId::from_index) {
                    let moved = game.rewire_node(i);
                    prop_assert_eq!(moved, dense.turn(i), "sweep {} node {:?}", sweep, i);
                    prop_assert_eq!(&game.wiring, &dense.wiring, "sweep {} node {:?}", sweep, i);
                }
                if !widest {
                    let (got, want) = (game.social_cost(), dense.social_cost());
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "sweep {}", sweep);
                }
            }
        }
    }
}

/// A wiring context over `n` nodes where roughly `null_share` of the
/// candidates `1..n` were never measured (`UNREACHED` direct cost on
/// semiring `D`, so `build_in` gives them the null row), with a few dead
/// candidates, coarse costs (ties everywhere), zero-weight destinations,
/// and a current wiring that may hold unmeasured candidates — `k` long
/// half of the time, so the dead band applies.
struct NullCase {
    n: usize,
    k: usize,
    candidates: Vec<NodeId>,
    direct: Vec<f64>,
    residual: DistanceMatrix,
    prefs: Preferences,
    alive: Vec<bool>,
    penalty: f64,
    current: Vec<NodeId>,
}

impl NullCase {
    fn draw<D: egoist_graph::csr::PathAlgebra>(rng: &mut StdRng, n: usize, k: usize) -> Self {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let null_share = [0.0, 0.3, 0.6, 0.9][rng.random_range(0..4usize)];
        let alive: Vec<bool> = (0..n)
            .map(|j| j == 0 || rng.random_range(0..10u32) > 0)
            .collect();
        let direct: Vec<f64> = (0..n)
            .map(|_| match rng.random::<f64>() < null_share {
                true => D::UNREACHED,
                false => rng.random_range(1..10u32) as f64,
            })
            .collect();
        let residual = DistanceMatrix::from_fn(n, |i, j| match rng.random_range(0..12u32) {
            _ if i == j => D::SOURCE,
            0 => D::UNREACHED,
            1 => 1e9, // a min-plus cost clamps at the penalty
            x => (x / 2) as f64,
        });
        let weights: Vec<f64> = (0..n * n)
            .map(|_| rng.random_range(0..3u32) as f64)
            .collect();
        let candidates: Vec<NodeId> = (1..n).map(NodeId::from_index).collect();
        let mut current = candidates.clone();
        current.shuffle(rng);
        let len = match rng.random::<bool>() {
            true => k.min(candidates.len()),
            false => rng.random_range(0..=k.min(candidates.len())),
        };
        current.truncate(len);
        NullCase {
            n,
            k,
            candidates,
            direct,
            residual,
            prefs: Preferences::from_weights(n, weights),
            alive,
            penalty: if D::UNREACHED == 0.0 { 0.0 } else { 500.0 },
            current,
        }
    }

    fn ctx(&self) -> WiringContext<'_> {
        WiringContext {
            node: NodeId(0),
            k: self.k,
            candidates: &self.candidates,
            direct: &self.direct,
            residual: crate::residual::ResidualView::dense(&self.residual),
            prefs: &self.prefs,
            alive: &self.alive,
            penalty: self.penalty,
            current: &self.current,
        }
    }
}

/// Every stored row and singleton sum of `ctx`'s instance is the one
/// `write_row` gives the candidate on a row of its own.
fn rows_are_written_rows<D: crate::policies::solver::Direction>(
    ctx: &WiringContext<'_>,
) -> Result<(), TestCaseError> {
    let inst = crate::policies::solver::Instance::<D>::build(ctx);
    for c in 0..inst.cand.len() {
        let (row, solo) = inst.written_row(ctx, c);
        for (t, x) in row.iter().enumerate() {
            prop_assert_eq!(
                inst.assignment(c, t).to_bits(),
                x.to_bits(),
                "a({}, {})",
                c,
                t
            );
        }
        prop_assert_eq!(
            inst.singleton_sum(c).to_bits(),
            solo.to_bits(),
            "solo({})",
            c
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Candidates nobody measured share one null row, and that changes
    /// no value any solver reads: on both semirings every `a(c, t)` and
    /// singleton sum is what `write_row` writes for the candidate alone,
    /// and every best-response policy picks what the reference loops
    /// pick, cost bits included — with 0–90% of the candidates
    /// unmeasured, `k` past the served count (greedy fills up with
    /// zero-gain candidates and breaks ties across null rows), and
    /// current wirings holding unmeasured candidates.
    #[test]
    fn null_rows_are_exact(seed in any::<u64>(), n in 5usize..40, k in 1usize..12) {
        use crate::policies::bandwidth::{bandwidth_best_response, oracle, BwInstance};
        use crate::policies::epsilon::EpsilonBr;
        use crate::policies::hybrid::HybridBr;
        use crate::policies::solver::{indices_of, SolverArena};
        use crate::policies::Policy;
        use egoist_graph::csr::{MaxMin, MinPlus};

        let mut rng = StdRng::seed_from_u64(seed);
        let case = NullCase::draw::<MinPlus>(&mut rng, n, k);
        let c = case.ctx();
        rows_are_written_rows::<MinPlus>(&c)?;
        let (s, v) = BestResponse::local_search().solve(&c);
        let (s_ref, v_ref) = BestResponse::local_search().with_reference(true).solve(&c);
        prop_assert_eq!(&s, &s_ref, "BR");
        prop_assert_eq!(v.to_bits(), v_ref.to_bits(), "BR cost");
        prop_assert_eq!(
            EpsilonBr::new(0.05).wire(&c, &mut rng),
            EpsilonBr::reference(0.05).wire(&c, &mut rng),
            "BR(0.05)"
        );
        let hybrid = HybridBr::new(2);
        let members: Vec<NodeId> = (0..case.n).filter(|&j| case.alive[j]).map(NodeId::from_index).collect();
        let donated = hybrid.donated_links(NodeId(0), &members);
        let kk = c.effective_k();
        let expected = if donated.len() >= kk {
            donated.into_iter().take(kk).collect()
        } else {
            let inst = BrInstance::build(&c);
            let forced = indices_of(&inst.cand, &donated);
            let init = inst.greedy_reference(kk, &forced);
            inst.to_nodes(&inst.local_search_reference(kk, init, &forced, 64).0)
        };
        prop_assert_eq!(HybridBr::new(2).wire(&c, &mut rng), expected, "HybridBR");

        let case = NullCase::draw::<MaxMin>(&mut rng, n, k);
        let c = case.ctx();
        rows_are_written_rows::<MaxMin>(&c)?;
        let (s, u) = bandwidth_best_response(&c, &mut SolverArena::default());
        let inst = BwInstance::build(&c);
        let (s_ref, u_ref) = oracle::local_search(&inst, kk, oracle::greedy(&inst, kk), 64);
        prop_assert_eq!(s, inst.to_nodes(&s_ref), "bandwidth BR");
        prop_assert_eq!(u.to_bits(), u_ref.to_bits(), "bandwidth BR utility");
    }
}

/// The dead band's top-k proof settles only turns the search would have
/// settled the same way: over random and tie-heavy instances, with the
/// current wiring a converged one, a perturbed one or a random one, and
/// the shipped band or a random one, the shipped solver returns the
/// reference loops' neighbors and cost bits (the reference loops never
/// take the proof). The proof must fire on some cases and not on others,
/// or the comparison proves nothing.
#[test]
fn hysteresis_proof_is_sound() {
    use egoist_graph::csr::MinPlus;
    use rand::Rng;

    let (mut fired, mut searched) = (0, 0);
    for case in 0..160 {
        let mut rng = proptest::test_rng("hysteresis_proof_is_sound", case);
        let (n, k) = (rng.random_range(5..40usize), rng.random_range(1..9usize));
        let mut null = NullCase::draw::<MinPlus>(&mut rng, n, k);
        if case % 2 == 0 {
            // Random costs: few exact ties, a wide spread of gains.
            for j in 0..n {
                if null.direct[j].is_finite() {
                    null.direct[j] = rng.random_range(1.0..50.0);
                }
                for t in 0..n {
                    if j != t && null.residual.at(j, t).is_finite() {
                        null.residual.set_at(j, t, rng.random_range(1.0..80.0));
                    }
                }
            }
        }
        // Converge from the case's start, then keep, nudge or redraw.
        let mut br = BestResponse::local_search().with_reference(true);
        for _ in 0..3 {
            null.current = br.solve(&null.ctx()).0;
        }
        match rng.random_range(0..4u32) {
            0 if !null.current.is_empty() => {
                let slot = rng.random_range(0..null.current.len());
                let spare: Vec<NodeId> = (null.candidates.iter().copied())
                    .filter(|c| !null.current.contains(c))
                    .collect();
                if !spare.is_empty() {
                    null.current[slot] = spare[rng.random_range(0..spare.len())];
                }
            }
            1 => null.current = NullCase::draw::<MinPlus>(&mut rng, n, k).current,
            _ => {}
        }
        // The shipped 1% band, or one drawn log-uniformly from 0.1% to
        // 50%, so some band lands between what a search finds and what
        // the bound allows.
        if case % 4 >= 2 {
            br.hysteresis = 10f64.powf(rng.random_range(-3.0..-0.3));
        }
        let c = null.ctx();
        let mut shipped = BestResponse::local_search();
        shipped.hysteresis = br.hysteresis;
        let mut inst = BrInstance::build(&c);
        let init = crate::policies::solver::indices_of(&inst.cand, c.current);
        let current = inst.eval(&init);
        if init.len() == c.effective_k() && shipped.band_holds(&mut inst, &init, current) {
            fired += 1;
        } else {
            searched += 1;
        }
        let (s, v) = shipped.solve(&c);
        let (s_ref, v_ref) = br.solve(&c);
        assert_eq!(s, s_ref, "case {case}: neighbors");
        assert_eq!(
            v.to_bits(),
            v_ref.to_bits(),
            "case {case}: cost bits {v} vs {v_ref}"
        );
    }
    assert!(fired > 0, "the proof never fired");
    assert!(searched > 0, "every case was settled by the proof");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every residual backing makes the same choice. One turn of BR,
    /// exact BR and HybridBR, unsampled and at `m = 4` under one seed,
    /// returns the same links whether its rows come from the route
    /// state's snapshot, from a dense `apsp(G−i)`, or are swept on demand
    /// over the overlay's CSR graph with the snapshot's penalty — the
    /// protocol node's form. Some direct costs are unmeasured, so the
    /// on-demand form names only some of the shortlist's rows.
    #[test]
    fn every_backing_makes_the_same_choice(
        seed in any::<u64>(),
        n in 5usize..25,
        k in 1usize..5,
    ) {
        use crate::cost::disconnection_penalty;
        use crate::game::{alive_others, choose, Residual, Turn};
        use crate::residual::ResidualArena;
        use crate::snapshot::{RouteState, SnapshotKind};
        use egoist_graph::CsrGraph;
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(seed);
        let d = DistanceMatrix::from_fn(n, |i, j| {
            if i == j { 0.0 } else { rng.random_range(1..60) as f64 }
        });
        let me = rng.random_range(0..n);
        // The turn node and its successor are alive: a turn has a candidate.
        let alive: Vec<bool> = (0..n)
            .map(|j| j == me || j == (me + 1) % n || rng.random::<f64>() < 0.9)
            .collect();
        let mut w = Wiring::empty(n);
        for i in 0..n {
            let mut links: Vec<NodeId> = (0..rng.random_range(0..=k))
                .map(|_| NodeId::from_index(rng.random_range(0..n)))
                .filter(|x| x.index() != i)
                .collect();
            links.sort_unstable();
            links.dedup();
            w.rewire(NodeId::from_index(i), links);
        }
        let direct: Vec<f64> = (0..n)
            .map(|j| if rng.random::<f64>() < 0.15 { f64::INFINITY } else { d.at(me, j) })
            .collect();
        let me = NodeId::from_index(me);
        let candidates = alive_others(me, &alive);

        let penalty = disconnection_penalty(&d);
        let overlay = w.to_graph(&d, &alive);
        let mut route = RouteState::new();
        route.rebuild(SnapshotKind::Additive, d.clone(), penalty, alive.clone(), &overlay);
        let csr = CsrGraph::from_digraph(&overlay);
        let dense = apsp(&w.residual_graph(me, &d, &alive));
        let mut arena = ResidualArena::default();
        let (prefs, current) = (Preferences::uniform(n), w.of(me).to_vec());
        for kind in [
            PolicyKind::BestResponse,
            PolicyKind::ExactBestResponse,
            PolicyKind::HybridBestResponse { k2: 2 },
        ] {
            for m in [usize::MAX, 4] {
                let play = |residual: Residual<'_>| {
                    let turn = Turn {
                        node: me,
                        k,
                        policy: kind,
                        sample_size: m,
                        candidates: candidates.clone(),
                        direct: &direct,
                        prefs: &prefs,
                        alive: &alive,
                    };
                    let mut rng = StdRng::seed_from_u64(seed);
                    choose(turn, &current, residual, kind.instantiate().as_mut(), &mut rng)
                };
                let snapshot = play(Residual::Snapshot(&mut route));
                let from_dense = play(Residual::Dense(&dense, SnapshotKind::Additive, penalty));
                let on_demand = play(Residual::OnDemand(&csr, &mut arena, penalty));
                prop_assert_eq!(&from_dense, &snapshot, "{:?} m={}: dense", kind, m);
                prop_assert_eq!(&on_demand, &snapshot, "{:?} m={}: on demand", kind, m);
            }
        }
    }
}
