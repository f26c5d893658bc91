//! The SNS game: one wiring turn, and iterated best-response dynamics on
//! a fixed cost matrix.
//!
//! [`choose`] is the one turn — the §5 shortlist, the residual rows it
//! names, the policy. The epoch [`Simulator`] and [`Game`] play it and
//! commit it (`play_turn`); the protocol node plays it alone. A game's
//! route-state snapshot is built once, at construction, and never
//! invalidated: every move is a link delta ([`RouteState::note_rewire`]),
//! a node written dead or alive through [`Game::alive`] is a leave or a
//! join absorbed before the next turn or cost query, and individual and
//! social costs are read off the snapshot's rows.
//!
//! The game tracks whether each turn actually changed the wiring
//! (re-wiring counts, Fig. 3), detects convergence (a full sweep with no
//! changes — a pure Nash equilibrium when every node plays exact BR), and
//! reports individual and social costs.
//!
//! [`Simulator`]: crate::sim::Simulator

use crate::cost::{disconnection_penalty, node_cost_from_dists, Preferences};
use crate::policies::hybrid::HybridBr;
use crate::policies::{Policy, PolicyKind, WiringContext};
use crate::residual::{ResidualArena, ResidualView};
use crate::sampling::shortlist;
use crate::snapshot::{EpochSnapshot, RouteState, SnapshotKind};
use crate::wiring::Wiring;
use egoist_graph::csr::{all_pairs, MaxMin, MinPlus, PathAlgebra};
use egoist_graph::{CsrGraph, DiGraph, DistanceMatrix, NodeId};
use egoist_obs::{Counter, Timer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// What one wiring turn of `node` reads besides its residual rows.
pub struct Turn<'a> {
    pub node: NodeId,
    pub k: usize,
    pub policy: PolicyKind,
    /// §5's `m` (`usize::MAX`: every candidate).
    pub sample_size: usize,
    /// Who `node` may link to, not empty: the other alive nodes, or a
    /// protocol node's known peers.
    pub candidates: Vec<NodeId>,
    /// Direct link costs (probed bandwidths) from `node`, length n.
    pub direct: &'a [f64],
    pub prefs: &'a Preferences,
    pub alive: &'a [bool],
}

/// Where a turn's policy reads its residual rows.
pub enum Residual<'a> {
    /// Nowhere: the policy never reads them
    /// ([`PolicyKind::needs_residual`]).
    Unread,
    /// The route state's live snapshot.
    Snapshot(&'a mut RouteState),
    /// Additive rows of `G−i` the turn names, swept in one batched pass
    /// into the arena (which then counts them), with what an unserved
    /// destination is worth — the protocol node's form.
    OnDemand(&'a CsrGraph, &'a mut ResidualArena, f64),
}

/// The alive nodes other than `i`: a turn's candidates before the
/// shortlist.
pub(crate) fn alive_others(i: NodeId, alive: &[bool]) -> Vec<NodeId> {
    (0..alive.len())
        .filter(|&j| j != i.index() && alive[j])
        .map(NodeId::from_index)
        .collect()
}

/// Choose `turn.node`'s new links, given its `current` ones.
///
/// A policy that reads residual state solves over the §5 [`shortlist`]:
/// the node's current links (and HybridBR's donated ones), the best half
/// of the rest by direct cost, uniform draws from `rng`. It is cut before
/// the residual rows are named, so every backing is handed the same
/// candidates; the on-demand form names those with a direct cost.
pub fn choose(
    turn: Turn<'_>,
    current: &[NodeId],
    residual: Residual<'_>,
    policy: &mut dyn Policy,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    // The solver span and the candidates a best-response turn was
    // offered / solved over.
    static OBS: OnceLock<(Timer, Counter, Counter)> = OnceLock::new();
    let (solver, offered, kept) = OBS.get_or_init(|| {
        let r = egoist_obs::registry();
        let counter = |what| r.counter(&format!("core.shortlist.{what}"));
        (
            r.timer("core.epoch.turn.solver"),
            counter("offered"),
            counter("kept"),
        )
    });
    // The rows' semiring and what an unserved destination is worth.
    let (semiring, penalty) = match &residual {
        Residual::Unread => (SnapshotKind::Additive, 0.0),
        Residual::Snapshot(route) => {
            let live = route.snapshot().expect("route snapshot must be live");
            (live.kind, live.penalty)
        }
        Residual::OnDemand(.., penalty) => (SnapshotKind::Additive, *penalty),
    };
    let i = turn.node;
    let mut candidates = turn.candidates;
    if turn.policy.needs_residual() {
        let mut keep = current.to_vec();
        if let PolicyKind::HybridBestResponse { k2 } = turn.policy {
            let members: Vec<NodeId> = (0..turn.alive.len())
                .filter(|&j| turn.alive[j])
                .map(NodeId::from_index)
                .collect();
            keep.extend(HybridBr::new(k2).donated_links(i, &members));
        }
        let m = turn.sample_size;
        let score = |j: NodeId| turn.direct[j.index()];
        let score: Option<&dyn Fn(NodeId) -> f64> = Some(&score);
        offered.add(candidates.len() as u64);
        candidates = match semiring {
            SnapshotKind::Widest => shortlist::<MaxMin>(&candidates, &keep, m, score, rng),
            SnapshotKind::Additive => shortlist::<MinPlus>(&candidates, &keep, m, score, rng),
        };
        kept.add(candidates.len() as u64);
    }
    let residual = match residual {
        // Oblivious wirings rank by direct cost or id alone.
        Residual::Unread => ResidualView::empty(i.index()),
        Residual::Snapshot(route) => route.residual(i.index(), &candidates),
        Residual::OnDemand(g, arena, _) => {
            // The policy reads one row per candidate it can reach
            // directly (`Instance::build_in`'s predicate).
            let served = |c: &NodeId| MinPlus::better(turn.direct[c.index()], MinPlus::UNREACHED);
            arena.sweep(g, i, candidates.iter().copied().filter(served))
        }
    };
    let ctx = WiringContext {
        node: i,
        k: turn.k,
        candidates: &candidates,
        direct: turn.direct,
        residual,
        prefs: turn.prefs,
        alive: turn.alive,
        penalty,
        current,
    };
    let span = solver.start();
    let new = policy.wire(&ctx, rng);
    drop(span);
    new
}

/// [`choose`] `turn.node`'s links and commit them; returns whether the
/// wiring changed. The rows are the live snapshot's. A change reaches the
/// route state as a link delta (a no-op when it holds no snapshot).
pub(crate) fn play_turn(
    turn: Turn<'_>,
    route: &mut RouteState,
    policy: &mut dyn Policy,
    wiring: &mut Wiring,
    rng: &mut StdRng,
) -> bool {
    let (i, alive) = (turn.node, turn.alive);
    let residual = if turn.policy.needs_residual() {
        Residual::Snapshot(&mut *route)
    } else {
        Residual::Unread
    };
    let new = choose(turn, wiring.of(i), residual, policy, rng);
    let changed = wiring.rewire(i, new);
    if changed {
        route.note_rewire(i, wiring, alive);
    }
    changed
}

/// An overlay population playing the SNS game on a fixed cost matrix.
pub struct Game {
    pub prefs: Preferences,
    pub k: usize,
    /// The global wiring; it changes through turns only.
    pub wiring: Wiring,
    /// Membership. A change is absorbed, as leaves and joins, at the next
    /// turn or cost query; a node that comes back keeps the links it had.
    pub alive: Vec<bool>,
    /// §5's `m`, as in [`SimConfig::sample_size`]; `usize::MAX` (the
    /// default) shows every turn every alive node — the paper's
    /// full-information game.
    ///
    /// [`SimConfig::sample_size`]: crate::sim::SimConfig::sample_size
    pub sample_size: usize,
    kind: PolicyKind,
    policy: Box<dyn Policy + Send + Sync>,
    rng: StdRng,
    /// The costs, their semiring and penalty, and the current wiring's
    /// all-pairs state.
    route: RouteState,
}

/// Result of running dynamics to convergence.
#[derive(Clone, Debug)]
pub struct ConvergenceReport {
    /// Whether a full no-change sweep was reached.
    pub converged: bool,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Re-wirings per sweep.
    pub rewirings: Vec<usize>,
}

impl Game {
    /// New game on additive costs `d_ij` (delay); every node starts
    /// unwired.
    pub fn new(costs: DistanceMatrix, k: usize, kind: PolicyKind, seed: u64) -> Self {
        let penalty = disconnection_penalty(&costs);
        Self::on(SnapshotKind::Additive, costs, penalty, k, kind, seed)
    }

    /// New game on available bandwidths (§4.1): paths are widest paths,
    /// the best-response family maximizes aggregate bottleneck bandwidth,
    /// k-Closest is k-Widest and an unserved destination is worth 0. The
    /// cost reports ([`Self::social_cost`] and the like) are defined on
    /// additive games only.
    pub fn bandwidth(widths: DistanceMatrix, k: usize, kind: PolicyKind, seed: u64) -> Self {
        Self::on(SnapshotKind::Widest, widths, 0.0, k, kind, seed)
    }

    fn on(
        semiring: SnapshotKind,
        costs: DistanceMatrix,
        penalty: f64,
        k: usize,
        kind: PolicyKind,
        seed: u64,
    ) -> Self {
        let n = costs.len();
        let policy = match semiring {
            SnapshotKind::Additive => kind.instantiate(),
            SnapshotKind::Widest => kind.instantiate_bandwidth(),
        };
        let mut route = RouteState::new();
        route.rebuild(semiring, costs, penalty, vec![true; n], &DiGraph::new(n));
        Game {
            prefs: Preferences::uniform(n),
            k,
            wiring: Wiring::empty(n),
            alive: vec![true; n],
            sample_size: usize::MAX,
            kind,
            policy,
            rng: StdRng::seed_from_u64(seed ^ 0x6A3E),
            route,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.wiring.len()
    }

    /// True when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.wiring.is_empty()
    }

    /// Alive node ids.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&i| self.alive[i])
            .map(NodeId::from_index)
            .collect()
    }

    /// The route state's snapshot: built with the game, never invalidated.
    fn snapshot(&self) -> &EpochSnapshot {
        self.route
            .snapshot()
            .expect("a game's snapshot lives as long as the game")
    }

    /// Absorb what was written into `alive` since the snapshot last saw
    /// it: a death is a leave; a return is a join followed by the commit
    /// of the returner's own links, which `wiring` kept.
    fn absorb_membership(&mut self) {
        if self.snapshot().alive == self.alive {
            return;
        }
        let mut seen = self.snapshot().alive.clone();
        for x in 0..seen.len() {
            if seen[x] == self.alive[x] {
                continue;
            }
            seen[x] = self.alive[x];
            let node = NodeId::from_index(x);
            if seen[x] {
                self.route.note_join(node, &self.wiring, &seen);
                self.route.note_rewire(node, &self.wiring, &seen);
            } else {
                self.route.note_leave(node);
            }
        }
    }

    /// Give node `i` a turn: compute its wiring under the policy and
    /// install it. Returns `true` when the wiring changed.
    pub fn rewire_node(&mut self, i: NodeId) -> bool {
        if !self.alive[i.index()] {
            return false;
        }
        self.absorb_membership();
        let candidates = alive_others(i, &self.alive);
        if candidates.is_empty() {
            return false;
        }
        let direct = self.snapshot().announced.row(i.index()).to_vec();
        let turn = Turn {
            node: i,
            k: self.k,
            policy: self.kind,
            sample_size: self.sample_size,
            candidates,
            direct: &direct,
            prefs: &self.prefs,
            alive: &self.alive,
        };
        let policy = self.policy.as_mut();
        let (route, wiring, rng) = (&mut self.route, &mut self.wiring, &mut self.rng);
        play_turn(turn, route, policy, wiring, rng)
    }

    /// One round-robin sweep over all alive nodes; returns the number of
    /// nodes that changed their wiring.
    pub fn sweep(&mut self) -> usize {
        let mut changed = 0;
        for i in self.alive_nodes() {
            if self.rewire_node(i) {
                changed += 1;
            }
        }
        changed
    }

    /// Run sweeps until a full sweep makes no change, or `max_sweeps`.
    pub fn run_to_convergence(&mut self, max_sweeps: usize) -> ConvergenceReport {
        let mut rewirings = Vec::new();
        for _ in 0..max_sweeps {
            let c = self.sweep();
            rewirings.push(c);
            if c == 0 {
                return ConvergenceReport {
                    converged: true,
                    sweeps: rewirings.len(),
                    rewirings,
                };
            }
        }
        ConvergenceReport {
            converged: false,
            sweeps: rewirings.len(),
            rewirings,
        }
    }

    /// Build the overlay incrementally: nodes join in id order, each
    /// wiring once on arrival (the §5 simulation's construction), then the
    /// population settles with `settle_sweeps` rounds of re-wiring — a
    /// node that joined early *must* get later turns, or it would never
    /// gain links toward later arrivals and the overlay would be a
    /// backwards DAG. Nodes beyond `upto` stay out (dead).
    pub fn incremental_build(&mut self, upto: usize) {
        self.incremental_build_with_settle(upto, 2)
    }

    /// [`Game::incremental_build`] with an explicit settle phase length.
    pub fn incremental_build_with_settle(&mut self, upto: usize, settle_sweeps: usize) {
        for i in 0..self.len() {
            self.alive[i] = i < upto;
        }
        // Nothing to join onto for node 0; start from node 1.
        for i in 0..upto.min(self.len()) {
            // Temporarily mark later nodes dead so candidates only include
            // already-joined nodes.
            for j in 0..self.len() {
                self.alive[j] = j <= i;
            }
            self.rewire_node(NodeId::from_index(i));
        }
        for i in 0..self.len() {
            self.alive[i] = i < upto;
        }
        for _ in 0..settle_sweeps {
            if self.sweep() == 0 {
                break;
            }
        }
    }

    /// The overlay graph as currently wired.
    pub fn graph(&self) -> DiGraph {
        self.wiring
            .to_graph(&self.snapshot().announced, &self.alive)
    }

    /// Individual cost `C_i(S)` of every alive node (dead nodes get NaN),
    /// read off the snapshot's rows.
    pub fn individual_costs(&mut self) -> Vec<f64> {
        self.absorb_membership();
        let snap = self.snapshot();
        (0..self.len())
            .map(|i| {
                if !self.alive[i] {
                    return f64::NAN;
                }
                let dist = snap.apsp.dist_row(i);
                node_cost_from_dists(
                    NodeId::from_index(i),
                    dist,
                    &self.prefs,
                    &self.alive,
                    snap.penalty,
                )
            })
            .collect()
    }

    /// Social cost: sum of individual costs over alive nodes.
    pub fn social_cost(&mut self) -> f64 {
        self.individual_costs()
            .into_iter()
            .filter(|c| c.is_finite())
            .sum()
    }

    /// Mean individual cost of the full-mesh overlay on the same costs —
    /// the RON-style lower bound of Fig. 1.
    pub fn full_mesh_mean_cost(&self) -> f64 {
        let snap = self.snapshot();
        let (n, costs) = (self.len(), &snap.announced);
        let mesh = CsrGraph::from_fn(n, |i| {
            let others = (0..n).filter(move |&j| j != i);
            others.map(move |j| (j as u32, costs.at(i, j)))
        });
        let d = all_pairs::<MinPlus>(&mesh);
        let alive = self.alive_nodes();
        let mut total = 0.0;
        for &i in &alive {
            let row = d.dist_row(i.index());
            total += node_cost_from_dists(i, row, &self.prefs, &self.alive, snap.penalty);
        }
        total / alive.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egoist_netsim::DelayModel;

    fn delay_matrix(n_seed: u64) -> DistanceMatrix {
        DelayModel::planetlab_50(n_seed).base().clone()
    }

    #[test]
    fn exact_br_converges_where_theory_promises() {
        // [20] guarantees pure Nash equilibria for uniform preferences;
        // on small instances round-robin exact BR finds them.
        let d = DistanceMatrix::from_fn(12, |i, j| ((i * 7 + j * 13) % 23 + 1) as f64);
        let mut g = Game::new(d, 2, PolicyKind::ExactBestResponse, 1);
        let report = g.run_to_convergence(60);
        assert!(report.converged, "exact BR must converge: {report:?}");
        assert_eq!(g.sweep(), 0, "equilibrium must be stable");
    }

    #[test]
    fn br_dynamics_reach_cost_steady_state() {
        // Real-valued delay instances "may have no equilibria at all"
        // (§2.1), so vanilla BR keeps re-wiring — but the *cost* settles
        // into a narrow band (the paper's "steady state", §4.3).
        let d = delay_matrix(1);
        let mut g = Game::new(d, 3, PolicyKind::BestResponse, 1);
        let mut socials = Vec::new();
        for _ in 0..20 {
            g.sweep();
            socials.push(g.social_cost());
        }
        let min = socials.iter().cloned().fold(f64::MAX, f64::min);
        for s in &socials[10..] {
            assert!(
                *s < 1.15 * min,
                "social cost should stay within 15% of its floor: {s} vs {min}"
            );
        }
        // And it improves substantially over the first sweep.
        assert!(socials[19] < 0.95 * socials[0]);
    }

    #[test]
    fn epsilon_br_converges_on_static_costs() {
        // The ε dead band restores convergence at a small social cost —
        // the Fig. 3 center/right trade-off.
        let d = delay_matrix(1);
        let mut damped = Game::new(
            d.clone(),
            3,
            PolicyKind::EpsilonBestResponse { epsilon: 0.05 },
            1,
        );
        let report = damped.run_to_convergence(30);
        assert!(report.converged, "BR(0.05) should converge: {report:?}");
        let mut vanilla = Game::new(d, 3, PolicyKind::BestResponse, 1);
        for _ in 0..report.sweeps {
            vanilla.sweep();
        }
        // Cost penalty of damping stays modest.
        assert!(damped.social_cost() < 1.2 * vanilla.social_cost());
    }

    #[test]
    fn br_beats_random_and_regular_on_social_cost() {
        let d = delay_matrix(2);
        let mut br = Game::new(d.clone(), 3, PolicyKind::BestResponse, 2);
        br.run_to_convergence(50);
        let mut rnd = Game::new(d.clone(), 3, PolicyKind::Random, 2);
        rnd.sweep();
        let mut reg = Game::new(d, 3, PolicyKind::Regular, 2);
        reg.sweep();
        assert!(br.social_cost() < rnd.social_cost());
        assert!(br.social_cost() < reg.social_cost());
    }

    #[test]
    fn full_mesh_lower_bounds_br() {
        let d = delay_matrix(3);
        let mut br = Game::new(d, 4, PolicyKind::BestResponse, 3);
        br.run_to_convergence(50);
        let costs = br.individual_costs();
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        let mesh = br.full_mesh_mean_cost();
        assert!(
            mesh <= mean + 1e-9,
            "full mesh {mesh} must lower-bound BR {mean}"
        );
        // And BR with k=4 should already be close (within ~2x).
        assert!(mean < 2.0 * mesh, "BR too far from mesh: {mean} vs {mesh}");
    }

    #[test]
    fn dead_nodes_take_no_turns_and_receive_no_links() {
        let d = delay_matrix(4);
        let mut g = Game::new(d, 3, PolicyKind::BestResponse, 4);
        g.alive[7] = false;
        g.run_to_convergence(30);
        assert!(g.wiring.of(NodeId(7)).is_empty());
        for i in g.alive_nodes() {
            assert!(!g.wiring.of(i).contains(&NodeId(7)));
        }
    }

    #[test]
    fn incremental_build_wires_in_join_order() {
        let d = delay_matrix(5);
        let mut g = Game::new(d, 2, PolicyKind::BestResponse, 5);
        g.incremental_build_with_settle(10, 0);
        // Without settling: first joiner has no candidates; later ones
        // have k links pointing strictly backwards.
        assert!(g.wiring.of(NodeId(0)).is_empty());
        assert_eq!(g.wiring.of(NodeId(9)).len(), 2);
        for i in 10..50 {
            assert!(!g.alive[i]);
        }
    }

    #[test]
    fn incremental_build_settling_connects_the_overlay() {
        use egoist_graph::connectivity::strongly_connected;
        let d = delay_matrix(8);
        let mut g = Game::new(d, 2, PolicyKind::BestResponse, 8);
        g.incremental_build(12);
        let members: Vec<NodeId> = (0..12).map(NodeId::from_index).collect();
        assert!(
            strongly_connected(&g.graph(), &members),
            "settled incremental BR overlay must be strongly connected"
        );
        assert_eq!(g.wiring.of(NodeId(0)).len(), 2, "early joiners re-wire");
    }

    #[test]
    fn rewire_counts_stabilize_to_zero_at_equilibrium() {
        let d = delay_matrix(6);
        let mut g = Game::new(d, 2, PolicyKind::EpsilonBestResponse { epsilon: 0.05 }, 6);
        let report = g.run_to_convergence(60);
        assert!(report.converged, "{report:?}");
        assert_eq!(*report.rewirings.last().unwrap(), 0);
        // One more sweep stays at equilibrium.
        assert_eq!(g.sweep(), 0);
    }

    /// A static best-response game in the `wiring_br_delay_n500` shape
    /// (n = 500, k = 8, delay, §5 sample m = 64), played to a no-change
    /// sweep or the cap. A timing, not a check: `cargo test --release -p
    /// egoist-core static_br_game_at_n500 -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn static_br_game_at_n500() {
        use egoist_netsim::{PlanetLabSpec, Region};
        const CAP: usize = 12;
        let spec = PlanetLabSpec::uniform(Region::NorthAmerica, 500);
        let d = DelayModel::from_spec(&spec, 11);
        for m in [64, usize::MAX] {
            let mut g = Game::new(d.base().clone(), 8, PolicyKind::BestResponse, 11);
            g.sample_size = m;
            let start = std::time::Instant::now();
            let report = g.run_to_convergence(CAP);
            let wall = start.elapsed().as_secs_f64();
            let (social, mesh) = (g.social_cost(), g.full_mesh_mean_cost());
            let ratio = social / g.len() as f64 / mesh;
            let m = if m == usize::MAX {
                "all".into()
            } else {
                m.to_string()
            };
            println!("m={m} {report:?} wall_s={wall:.2} cost_ratio={ratio:.4}");
        }
    }

    #[test]
    fn closest_policy_picks_nearby_nodes() {
        let d = delay_matrix(7);
        let mut g = Game::new(d.clone(), 3, PolicyKind::Closest, 7);
        g.sweep();
        for i in 0..50 {
            let vi = NodeId::from_index(i);
            let chosen = g.wiring.of(vi);
            let max_chosen = chosen
                .iter()
                .map(|j| d.get(vi, *j))
                .fold(f64::MIN, f64::max);
            // No non-chosen candidate is strictly closer than every chosen.
            let closer_than_all = (0..50)
                .filter(|&j| j != i && !chosen.contains(&NodeId::from_index(j)))
                .filter(|&j| d.at(i, j) < max_chosen - 1e-12)
                .count();
            assert!(
                closer_than_all <= 2,
                "k-Closest at node {i} skipped nearer nodes"
            );
        }
    }
}
