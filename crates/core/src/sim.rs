//! The EGOIST epoch simulator — stand-in for the PlanetLab deployment.
//!
//! Reproduces the experimental machinery of §4:
//!
//! * `n` unsynchronized nodes re-wire once per epoch `T`, staggered so a
//!   re-wiring happens every `T/n` seconds on average (§4.2);
//! * the underlay (delays, loads, bandwidths) drifts continuously, so BR
//!   keeps re-wiring even after reaching a near-equilibrium (Fig. 3);
//! * churn traces switch nodes ON/OFF (§4.4); dead nodes lose all links,
//!   returning nodes re-wire immediately on arrival (the bootstrap path);
//! * free riders inflate their announced out-link costs (§4.5);
//! * measurements are taken once per epoch: realized individual routing
//!   costs (true costs along announced-shortest routes), per-node
//!   Efficiency, aggregate bandwidth utility, and re-wiring counts.
//!
//! Decisions always consume *announced/estimated* information (symmetrized
//! ping RTT/2, Vivaldi predictions, EWMA load, noisy bandwidth probes,
//! possibly inflated by cheaters); realized performance always uses the
//! *true* underlay state — keeping the two honest is what lets the
//! free-rider and pyxida experiments mean something.

use crate::cheat::CheatConfig;
use crate::cost::{
    disconnection_penalty, node_cost_from_dists, realized_rows, widest_rows, Preferences,
};
use crate::game::{alive_others, play_turn, Turn};
use crate::policies::hybrid::HybridBr;
use crate::policies::{Policy, PolicyKind};
use crate::snapshot::{RebuildCause, RouteState, RouteStats, SnapshotKind};
use crate::wiring::Wiring;
use egoist_graph::connectivity::strongly_connected;
use egoist_graph::cycles::ring_edges;
use egoist_graph::{DistanceMatrix, NodeId};
use egoist_netsim::churn::ChurnTrace;
use egoist_netsim::rng::derive;
use egoist_netsim::{BandwidthModel, DelayModel, LoadModel};
use rand::rngs::StdRng;
use std::borrow::Cow;

/// Which cost metric drives wiring and evaluation (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// One-way delay estimated from ping RTT/2 (active).
    DelayPing,
    /// Delay estimated from Vivaldi coordinates (passive, noisier).
    DelayVivaldi,
    /// Node CPU load: edge `(u, v)` costs the *target*'s sensed load, so a
    /// path accumulates the load of every node it enters. (The symmetric
    /// "source's load" convention differs only by a per-destination
    /// constant under best response, but would make k-Closest degenerate.)
    Load,
    /// Available bandwidth, maximum-bottleneck objective.
    Bandwidth,
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub n: usize,
    pub k: usize,
    pub policy: PolicyKind,
    pub metric: Metric,
    /// Wiring epoch `T` in seconds (paper: 60).
    pub epoch_secs: f64,
    /// Number of epochs to simulate.
    pub epochs: usize,
    /// Epochs to drop from steady-state statistics.
    pub warmup_epochs: usize,
    pub seed: u64,
    /// Churn trace; `None` = no churn.
    pub churn: Option<ChurnTrace>,
    pub cheat: CheatConfig,
    /// §5's `m`: a best-response turn solves over a
    /// [`shortlist`](crate::sampling::shortlist) of its links plus `m`
    /// candidates instead of all `n − 1` (`usize::MAX`: always all).
    /// Absolute, not a fraction of `n`: the sample that finds a good
    /// wiring does not grow with the overlay (§5, figs 5–8).
    pub sample_size: usize,
}

impl SimConfig {
    /// The paper's baseline setting at a reduced horizon: 50 nodes,
    /// `T = 60 s`.
    pub fn baseline(k: usize, policy: PolicyKind, metric: Metric, seed: u64) -> Self {
        SimConfig {
            n: 50,
            k,
            policy,
            metric,
            epoch_secs: 60.0,
            epochs: 40,
            warmup_epochs: 15,
            seed,
            churn: None,
            cheat: CheatConfig::honest(),
            sample_size: 64,
        }
    }
}

/// Per-epoch measurement.
#[derive(Clone, Debug)]
pub struct EpochSample {
    pub epoch: usize,
    /// Realized individual routing cost per node (NaN when dead or N/A).
    pub individual_cost: Vec<f64>,
    /// Per-node Efficiency (delay metrics; NaN when dead).
    pub efficiency: Vec<f64>,
    /// Per-node aggregate bottleneck bandwidth (bandwidth metric only).
    pub bandwidth_utility: Vec<f64>,
    /// Number of nodes that changed wiring this epoch.
    pub rewirings: usize,
    /// Alive population size at measurement time.
    pub alive: usize,
}

/// Complete simulation output.
#[derive(Clone, Debug)]
pub struct SimResult {
    pub config_label: String,
    pub samples: Vec<EpochSample>,
}

impl SimResult {
    fn steady(&self, warmup: usize) -> impl Iterator<Item = &EpochSample> {
        self.samples.iter().filter(move |s| s.epoch >= warmup)
    }

    /// Steady-state mean individual cost per node (NaN-safe), averaged
    /// over epochs then nodes.
    pub fn mean_individual_cost(&self, warmup: usize) -> f64 {
        let per_epoch: Vec<f64> = self
            .steady(warmup)
            .map(|s| crate::stats::mean(&s.individual_cost))
            .collect();
        crate::stats::mean(&per_epoch)
    }

    /// Steady-state per-node mean costs (vector over nodes).
    pub fn per_node_mean_cost(&self, warmup: usize) -> Vec<f64> {
        let n = self
            .samples
            .first()
            .map(|s| s.individual_cost.len())
            .unwrap_or(0);
        (0..n)
            .map(|i| {
                let xs: Vec<f64> = self.steady(warmup).map(|s| s.individual_cost[i]).collect();
                crate::stats::mean(&xs)
            })
            .collect()
    }

    /// Steady-state mean Efficiency.
    pub fn mean_efficiency(&self, warmup: usize) -> f64 {
        let per_epoch: Vec<f64> = self
            .steady(warmup)
            .map(|s| crate::stats::mean(&s.efficiency))
            .collect();
        crate::stats::mean(&per_epoch)
    }

    /// Steady-state mean bandwidth utility.
    pub fn mean_bandwidth_utility(&self, warmup: usize) -> f64 {
        let per_epoch: Vec<f64> = self
            .steady(warmup)
            .map(|s| crate::stats::mean(&s.bandwidth_utility))
            .collect();
        crate::stats::mean(&per_epoch)
    }

    /// Re-wirings per epoch, full horizon (Fig. 3 left).
    pub fn rewirings_series(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.rewirings).collect()
    }

    /// Steady-state mean re-wirings per epoch.
    pub fn mean_rewirings(&self, warmup: usize) -> f64 {
        let xs: Vec<f64> = self.steady(warmup).map(|s| s.rewirings as f64).collect();
        crate::stats::mean(&xs)
    }
}

/// The running simulator state.
pub struct Simulator {
    cfg: SimConfig,
    delays: DelayModel,
    loads: LoadModel,
    bandwidths: BandwidthModel,
    vivaldi: Option<egoist_coord::CoordinateSystem>,
    wiring: Wiring,
    alive: Vec<bool>,
    prefs: Preferences,
    /// Demand-blended preferences (traffic-aware wiring only). `None`
    /// until [`Simulator::set_observed_demand`] is fed a matrix; re-wire
    /// paths fall back to `prefs`, and `measure()` always uses the base
    /// `prefs` so reported costs stay comparable across policies.
    demand_prefs: Option<Preferences>,
    /// The policy object for `cfg.policy` under `cfg.metric`; solver
    /// policies keep their recycled arenas inside it.
    policy: Box<dyn Policy + Send + Sync>,
    policy_rng: StdRng,
    underlay_rng: StdRng,
    now: f64,
    churn_cursor: usize,
    /// Per-node flag: needs immediate re-wire (just churned ON).
    pending_join: Vec<bool>,
    /// The epoch route-state engine (snapshot + incremental repair).
    route_state: RouteState,
    /// Obs handles (spans + counters), resolved once per simulator.
    obs: SimObs,
}

/// Simulator-level obs handles. Span hierarchy (by dotted name):
/// `core.epoch` → `core.epoch.turn` → `core.epoch.turn.solver` (recorded
/// by the shared turn, plus the `residual`/`absorb` siblings recorded by
/// [`RouteState`]) and `core.epoch.churn` (membership events and the
/// deltas that absorb them), with `core.measure` beside the epoch loop.
struct SimObs {
    epoch: egoist_obs::Timer,
    turn: egoist_obs::Timer,
    churn: egoist_obs::Timer,
    measure: egoist_obs::Timer,
    rewirings: egoist_obs::Counter,
    turns: egoist_obs::Counter,
}

impl SimObs {
    fn resolve() -> Self {
        let r = egoist_obs::registry();
        SimObs {
            epoch: r.timer("core.epoch"),
            turn: r.timer("core.epoch.turn"),
            churn: r.timer("core.epoch.churn"),
            measure: r.timer("core.measure"),
            rewirings: r.counter("core.rewirings"),
            turns: r.counter("core.turns"),
        }
    }
}

impl Simulator {
    /// Build the simulator; all nodes start alive and unwired.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.policy.assert_valid();
        let n = cfg.n;
        let delays = if n == 50 {
            DelayModel::planetlab_50(cfg.seed)
        } else {
            DelayModel::from_spec(
                &egoist_netsim::PlanetLabSpec::uniform(egoist_netsim::Region::NorthAmerica, n),
                cfg.seed,
            )
        };
        let vivaldi = if cfg.metric == Metric::DelayVivaldi {
            let mut cs = egoist_coord::CoordinateSystem::new(n, cfg.seed);
            // Pre-converge a little: nodes typically join an overlay whose
            // coordinate system is already warm.
            cs.converge(delays.base(), 8);
            Some(cs)
        } else {
            None
        };
        Simulator {
            loads: LoadModel::new(n, cfg.seed),
            bandwidths: BandwidthModel::new(n, cfg.seed),
            vivaldi,
            wiring: Wiring::empty(n),
            alive: vec![true; n],
            prefs: Preferences::uniform(n),
            demand_prefs: None,
            policy: match cfg.metric {
                Metric::Bandwidth => cfg.policy.instantiate_bandwidth(),
                _ => cfg.policy.instantiate(),
            },
            policy_rng: derive(cfg.seed, "sim-policy"),
            underlay_rng: derive(cfg.seed, "sim-underlay"),
            now: 0.0,
            churn_cursor: 0,
            pending_join: vec![false; n],
            route_state: RouteState::new(),
            obs: SimObs::resolve(),
            delays,
            cfg,
        }
    }

    fn alive_ids(&self) -> Vec<NodeId> {
        (0..self.cfg.n)
            .filter(|&i| self.alive[i])
            .map(NodeId::from_index)
            .collect()
    }

    /// True (instantaneous) additive edge-cost matrix for the current
    /// metric. For `Load`, edge `(u, v)` costs `v`'s instantaneous load.
    fn true_cost_matrix(&self) -> DistanceMatrix {
        match self.cfg.metric {
            Metric::DelayPing | Metric::DelayVivaldi => self.delays.current(),
            Metric::Load => {
                let inst: Vec<f64> = (0..self.cfg.n)
                    .map(|i| self.loads.instantaneous(i))
                    .collect();
                DistanceMatrix::from_fn(self.cfg.n, |_, j| inst[j])
            }
            Metric::Bandwidth => self.bandwidths.available_matrix(),
        }
    }

    /// Announced additive edge-cost matrix: measured (symmetrized ping /
    /// EWMA load), then distorted by the cheaters.
    fn announced_cost_matrix(&self) -> DistanceMatrix {
        let base = match self.cfg.metric {
            Metric::DelayPing | Metric::DelayVivaldi => {
                // Established links are measured by use: ping RTT/2.
                let n = self.cfg.n;
                DistanceMatrix::from_fn(n, |i, j| 0.5 * self.delays.rtt(i, j))
            }
            Metric::Load => {
                let sensed = self.loads.sensed_all();
                DistanceMatrix::from_fn(self.cfg.n, |_, j| sensed[j])
            }
            Metric::Bandwidth => self.bandwidths.available_matrix(),
        };
        self.cfg.cheat.announced_matrix(&base)
    }

    /// Announced matrix, borrowed from the live route snapshot when one
    /// exists instead of being rebuilt dense. The borrow is bit-exact:
    /// the snapshot is invalidated whenever anything that feeds the
    /// announcement (underlay state, external feedback) changes, so a
    /// live snapshot's copy equals what [`Self::announced_cost_matrix`]
    /// would recompute. Membership does not feed it — the matrix covers
    /// every pair, dead or alive — which is why churn can be absorbed
    /// into the snapshot instead of dropping it.
    fn announced_cow(&self) -> Cow<'_, DistanceMatrix> {
        match self.route_state.snapshot() {
            Some(s) => Cow::Borrowed(&s.announced),
            None => Cow::Owned(self.announced_cost_matrix()),
        }
    }

    /// Direct candidate-link cost estimates for node `i` (what the
    /// newcomer measures before wiring, §3.1): length-n vector.
    fn candidate_costs(&self, i: NodeId) -> Vec<f64> {
        match self.cfg.metric {
            Metric::DelayPing => (0..self.cfg.n)
                .map(|j| 0.5 * self.delays.rtt(i.index(), j))
                .collect(),
            Metric::DelayVivaldi => self
                .vivaldi
                .as_ref()
                .expect("vivaldi system present in DelayVivaldi mode")
                .query_all(i.index()),
            Metric::Load => self.loads.sensed_all(),
            Metric::Bandwidth => (0..self.cfg.n)
                .map(|j| {
                    self.bandwidths.probe(
                        i.index(),
                        j,
                        self.cfg.seed,
                        (self.now as u64) << 8 | j as u64,
                    )
                })
                .collect(),
        }
    }

    /// Apply churn events up to time `t`, indexing into the trace in
    /// place (the trace can be tens of thousands of events; cloning it
    /// on every staggered turn dominated churn-heavy runs). Each leave
    /// or join is handed to the route state as a delta: a departure
    /// costs what a re-wiring costs, not a snapshot rebuild.
    fn apply_churn(&mut self, t: f64) {
        if self.cfg.churn.is_none() {
            return;
        }
        let timer = self.obs.churn.clone();
        let _span = timer.start();
        loop {
            let e = {
                let trace = self.cfg.churn.as_ref().expect("churn checked above");
                match trace.events.get(self.churn_cursor) {
                    Some(e) if e.at <= t => *e,
                    _ => break,
                }
            };
            self.churn_cursor += 1;
            let idx = e.node.index();
            if idx >= self.cfg.n {
                continue;
            }
            if e.up && !self.alive[idx] {
                self.alive[idx] = true;
                self.pending_join[idx] = true;
                self.route_state
                    .note_join(e.node, &self.wiring, &self.alive);
            } else if !e.up && self.alive[idx] {
                self.alive[idx] = false;
                self.wiring.clear(e.node);
                self.pending_join[idx] = false;
                self.route_state.note_leave(e.node);
            }
        }
        // HybridBR repairs its donated backbone aggressively on any
        // membership change (§3.3: "donated links are monitored
        // aggressively").
        if let PolicyKind::HybridBestResponse { k2 } = self.cfg.policy {
            self.repair_backbone(k2);
        }
    }

    fn repair_backbone(&mut self, k2: usize) {
        let alive_ids = self.alive_ids();
        let hybrid = HybridBr::new(k2);
        for &i in &alive_ids {
            let mut links = hybrid.donated_links(i, &alive_ids);
            for &w in self.wiring.of(i) {
                if links.len() >= self.cfg.k {
                    break;
                }
                if self.alive[w.index()] && !links.contains(&w) {
                    links.push(w);
                }
            }
            if self.wiring.rewire(i, links) {
                self.route_state.note_rewire(i, &self.wiring, &self.alive);
            }
        }
    }

    /// Advance the underlay processes to absolute time `t`.
    fn advance_underlay(&mut self, t: f64) {
        let dt = t - self.now;
        if dt <= 0.0 {
            return;
        }
        self.delays.advance(dt, &mut self.underlay_rng);
        self.loads.advance(dt, &mut self.underlay_rng);
        self.bandwidths.advance(dt, &mut self.underlay_rng);
        self.now = t;
        self.route_state.invalidate(RebuildCause::Underlay);
    }

    /// The path semiring of the configured metric, and what a
    /// destination nobody serves is worth on it: the disconnection
    /// penalty for additive costs, zero bandwidth.
    fn snapshot_kind(&self, announced: &DistanceMatrix) -> (SnapshotKind, f64) {
        match self.cfg.metric {
            Metric::Bandwidth => (SnapshotKind::Widest, 0.0),
            _ => (SnapshotKind::Additive, disconnection_penalty(announced)),
        }
    }

    /// Give node `i` its wiring turn — the one the static game plays too
    /// (`game::play_turn`). Returns whether the wiring changed.
    ///
    /// The metric chose the policy object (at construction) and chooses
    /// the path semiring here; whether residual state is built at all is
    /// the policy's [`PolicyKind::needs_residual`], and its rows come from
    /// the epoch snapshot, built here when none is live.
    fn rewire(&mut self, i: NodeId) -> bool {
        if !self.alive[i.index()] {
            return false;
        }
        self.pending_join[i.index()] = false;
        let candidates = alive_others(i, &self.alive);
        if candidates.is_empty() {
            return false;
        }
        let direct = self.candidate_costs(i);
        if self.cfg.policy.needs_residual() && self.route_state.snapshot().is_none() {
            let announced = self.announced_cost_matrix();
            let (kind, penalty) = self.snapshot_kind(&announced);
            let overlay = self.wiring.to_graph(&announced, &self.alive);
            let alive = self.alive.clone();
            self.route_state
                .rebuild(kind, announced, penalty, alive, &overlay);
        }
        let turn = Turn {
            node: i,
            k: self.cfg.k,
            policy: self.cfg.policy,
            sample_size: self.cfg.sample_size,
            candidates,
            direct: &direct,
            prefs: self.demand_prefs.as_ref().unwrap_or(&self.prefs),
            alive: &self.alive,
        };
        let policy = self.policy.as_mut();
        let (route, wiring, rng) = (
            &mut self.route_state,
            &mut self.wiring,
            &mut self.policy_rng,
        );
        play_turn(turn, route, policy, wiring, rng)
    }

    /// Enforce the §3.2 connectivity cycle for k-Random / k-Closest: when
    /// the alive overlay is not strongly connected, each node swaps its
    /// last link for its ring successor (the ring stays within the degree
    /// cap, as a selfish node would insist). These policies never read
    /// residual state ([`PolicyKind::needs_residual`]), so no route
    /// snapshot exists for the ring edges to be absorbed into.
    fn enforce_cycle_if_needed(&mut self) {
        if !matches!(self.cfg.policy, PolicyKind::Random | PolicyKind::Closest) {
            return;
        }
        debug_assert!(self.route_state.snapshot().is_none());
        let announced = self.announced_cow();
        let alive_ids = self.alive_ids();
        if alive_ids.len() < 2 {
            return;
        }
        let g = self.wiring.to_graph(&announced, &self.alive);
        if strongly_connected(&g, &alive_ids) {
            return;
        }
        for (a, b) in ring_edges(&alive_ids) {
            let mut links = self.wiring.of(a).to_vec();
            if links.contains(&b) {
                continue;
            }
            if links.len() >= self.cfg.k && !links.is_empty() {
                links.pop();
            }
            links.push(b);
            self.wiring.rewire(a, links);
        }
    }

    /// Feed the simulator an observed demand matrix (dense row-major
    /// `n·n`, Mbps). Under [`PolicyKind::TrafficAware`] the next
    /// re-wiring turns run best response over preferences blended with
    /// this matrix ([`crate::policies::traffic_aware`]); under every
    /// other policy the call is a no-op, so closed-loop engines can feed
    /// demand unconditionally without perturbing the pinned baselines.
    /// `measure()` always scores against the base preferences either
    /// way, keeping reported costs comparable across policies.
    pub fn set_observed_demand(&mut self, demand: &[f64]) {
        let PolicyKind::TrafficAware { bias } = self.cfg.policy else {
            return;
        };
        self.demand_prefs = Some(crate::policies::traffic_aware::demand_weighted_prefs(
            &self.prefs,
            demand,
            bias,
            self.cfg.n,
        ));
    }

    /// Take the per-epoch measurement.
    pub fn measure(&self, epoch: usize, rewirings: usize) -> EpochSample {
        let _span = self.obs.measure.start();
        let n = self.cfg.n;
        let alive_ids = self.alive_ids();
        let announced = self.announced_cow();
        let truth = self.true_cost_matrix();

        let mut individual_cost = vec![f64::NAN; n];
        let mut efficiency = vec![f64::NAN; n];
        let mut bandwidth_utility = vec![f64::NAN; n];

        match self.cfg.metric {
            Metric::Bandwidth => {
                // Realized aggregate bottleneck bandwidth over true
                // bandwidths on the chosen topology.
                let g_true = self.wiring.to_graph(&truth, &self.alive);
                widest_rows(&g_true, alive_ids.iter().copied(), |i, width| {
                    let mut total = 0.0;
                    for &j in &alive_ids {
                        if j != i {
                            total += self.prefs.get(i, j) * width[j.index()];
                        }
                    }
                    bandwidth_utility[i.index()] = total;
                });
            }
            _ => {
                // Routing on announced costs; realized cost true.
                let g_announced = self.wiring.to_graph(&announced, &self.alive);
                let penalty = disconnection_penalty(&truth);
                let others = alive_ids.len().saturating_sub(1);
                realized_rows(
                    &g_announced,
                    alive_ids.iter().copied(),
                    |u, v| truth.get(u, v),
                    |i, announced_dist, realized| {
                        individual_cost[i.index()] =
                            node_cost_from_dists(i, realized, &self.prefs, &self.alive, penalty);
                        // Efficiency over the announced distances.
                        efficiency[i.index()] = if others == 0 {
                            0.0
                        } else {
                            let mut s = 0.0;
                            for &j in alive_ids.iter().filter(|&&j| j != i) {
                                let d = announced_dist[j.index()];
                                if d.is_finite() && d > 0.0 {
                                    s += 1.0 / d;
                                }
                            }
                            s / others as f64
                        };
                    },
                );
            }
        }

        EpochSample {
            epoch,
            individual_cost,
            efficiency,
            bandwidth_utility,
            rewirings,
            alive: alive_ids.len(),
        }
    }

    /// Advance one full wiring epoch: staggered re-wiring turns, churn
    /// and underlay drift, and the connectivity fix-up — everything
    /// except the measurement. Returns the number of re-wirings.
    ///
    /// Epoch-stepping is the hook the closed-loop traffic engine
    /// (`egoist-traffic`) uses: after each epoch it routes flows over
    /// the current overlay, charges carried traffic into the underlay
    /// models via [`Simulator::loads_mut`] / [`Simulator::bandwidths_mut`],
    /// and only then calls [`Simulator::measure`] — so realized costs see
    /// the congestion the overlay itself induced, and the next epoch's
    /// announcements (EWMA load, probes) react to it.
    pub fn run_epoch(&mut self, epoch: usize) -> usize {
        // Clone the handles so the span guards borrow locals, not
        // `self` (the loop body calls `&mut self` methods).
        let epoch_timer = self.obs.epoch.clone();
        let turn_timer = self.obs.turn.clone();
        let _epoch_span = epoch_timer.start();
        let n = self.cfg.n;
        let t_epoch = self.cfg.epoch_secs;
        let mut rewirings = 0usize;
        let mut turns = 0u64;
        for turn in 0..n {
            let t = epoch as f64 * t_epoch + (turn as f64 / n as f64) * t_epoch;
            self.apply_churn(t);
            if turn == 0 {
                // The underlay drifts continuously but the simulator
                // samples it at epoch granularity: one exact OU
                // transition per epoch (the same schedule the full-mesh
                // reference always used). Announced costs are therefore
                // constant between epoch boundaries — the invariant the
                // epoch route-state engine's snapshot reuse rests on.
                self.advance_underlay(t);
                // Vivaldi gossips continuously; one spread-out
                // round/epoch.
                if let Some(cs) = self.vivaldi.as_mut() {
                    let delays = &self.delays;
                    cs.gossip_round(|a, b| delays.delay(a, b));
                }
            }
            let i = NodeId::from_index(turn);
            // Nodes that churned ON re-wire immediately at their first
            // turn; others follow the delayed (epochal) schedule.
            if self.alive[turn] {
                let turn_span = turn_timer.start();
                if self.rewire(i) {
                    rewirings += 1;
                    egoist_obs::event(
                        "core.rewire",
                        &[
                            ("epoch", (epoch as u64).into()),
                            ("node", (turn as u64).into()),
                        ],
                    );
                }
                drop(turn_span);
                turns += 1;
            }
        }
        self.enforce_cycle_if_needed();
        self.obs.turns.add(turns);
        self.obs.rewirings.add(rewirings as u64);
        rewirings
    }

    /// Label describing this configuration in reports.
    pub fn config_label(&self) -> String {
        format!(
            "{} k={} metric={:?} n={}",
            self.cfg.policy.label(),
            self.cfg.k,
            self.cfg.metric,
            self.cfg.n
        )
    }

    /// Run the full simulation.
    pub fn run(mut self) -> SimResult {
        let mut samples = Vec::with_capacity(self.cfg.epochs);
        for epoch in 0..self.cfg.epochs {
            let rewirings = self.run_epoch(epoch);
            samples.push(self.measure(epoch, rewirings));
        }
        SimResult {
            config_label: self.config_label(),
            samples,
        }
    }

    // --- state accessors for the data-plane / closed-loop coupling ---

    /// The current global wiring `S`.
    pub fn wiring(&self) -> &Wiring {
        &self.wiring
    }

    /// Per-node aliveness.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// The delay underlay (true link propagation delays).
    pub fn delays(&self) -> &DelayModel {
        &self.delays
    }

    /// The node-load underlay.
    pub fn loads(&self) -> &LoadModel {
        &self.loads
    }

    /// Mutable node-load underlay — the traffic engine charges forwarding
    /// load here. External mutation changes announced costs, so the
    /// route-state snapshot is dropped.
    pub fn loads_mut(&mut self) -> &mut LoadModel {
        self.route_state.invalidate(RebuildCause::Feedback);
        &mut self.loads
    }

    /// The bandwidth underlay.
    pub fn bandwidths(&self) -> &BandwidthModel {
        &self.bandwidths
    }

    /// Mutable bandwidth underlay — the traffic engine charges carried
    /// traffic here. External mutation changes announced costs, so the
    /// route-state snapshot is dropped.
    pub fn bandwidths_mut(&mut self) -> &mut BandwidthModel {
        self.route_state.invalidate(RebuildCause::Feedback);
        &mut self.bandwidths
    }

    /// The announced edge-cost matrix without the dense rebuild when a
    /// route snapshot is live — the zero-copy read path the data plane
    /// (traffic engine) uses once per epoch. Falls back to computing
    /// (owned) when no snapshot exists; contents are bit-identical
    /// either way.
    pub fn announced_view(&self) -> Cow<'_, DistanceMatrix> {
        self.announced_cow()
    }

    /// Work counters of the epoch route-state engine.
    pub fn route_stats(&self) -> RouteStats {
        self.route_state.stats
    }
}

/// Convenience: run one config.
pub fn run(cfg: SimConfig) -> SimResult {
    Simulator::new(cfg).run()
}

/// Mean full-mesh individual cost on the same underlay (the RON reference
/// of Fig. 1), averaged over the same measurement epochs.
pub fn full_mesh_reference(cfg: &SimConfig) -> f64 {
    // A full mesh never re-wires; replay the underlay and measure.
    let mut sim = Simulator::new(SimConfig {
        policy: PolicyKind::Random,
        ..cfg.clone()
    });
    // Wire the mesh once.
    let all: Vec<NodeId> = (0..cfg.n).map(NodeId::from_index).collect();
    for &i in &all {
        let neigh: Vec<NodeId> = all.iter().copied().filter(|&j| j != i).collect();
        sim.wiring.rewire(i, neigh);
    }
    let mut costs = Vec::new();
    for epoch in 0..cfg.epochs {
        let t = (epoch + 1) as f64 * cfg.epoch_secs;
        sim.advance_underlay(t);
        if epoch >= cfg.warmup_epochs {
            let s = sim.measure(epoch, 0);
            costs.push(crate::stats::mean(&s.individual_cost));
        }
    }
    crate::stats::mean(&costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(k: usize, policy: PolicyKind, metric: Metric) -> SimConfig {
        SimConfig {
            n: 20,
            k,
            policy,
            metric,
            epoch_secs: 60.0,
            epochs: 8,
            warmup_epochs: 3,
            seed: 11,
            churn: None,
            cheat: CheatConfig::honest(),
            sample_size: 64,
        }
    }

    #[test]
    fn br_beats_random_on_delay() {
        let br = run(quick(3, PolicyKind::BestResponse, Metric::DelayPing));
        let rnd = run(quick(3, PolicyKind::Random, Metric::DelayPing));
        let (cb, cr) = (br.mean_individual_cost(3), rnd.mean_individual_cost(3));
        assert!(cb < cr, "BR {cb:.2} should beat k-Random {cr:.2}");
    }

    #[test]
    fn br_beats_regular_on_delay() {
        let br = run(quick(3, PolicyKind::BestResponse, Metric::DelayPing));
        let reg = run(quick(3, PolicyKind::Regular, Metric::DelayPing));
        assert!(br.mean_individual_cost(3) < reg.mean_individual_cost(3));
    }

    #[test]
    fn full_mesh_lower_bounds_br() {
        let cfg = quick(3, PolicyKind::BestResponse, Metric::DelayPing);
        let br = run(cfg.clone());
        let mesh = full_mesh_reference(&cfg);
        let cbr = br.mean_individual_cost(3);
        assert!(
            mesh <= cbr * 1.02,
            "mesh {mesh:.2} must lower-bound BR {cbr:.2}"
        );
    }

    #[test]
    fn bandwidth_br_beats_random() {
        let br = run(quick(3, PolicyKind::BestResponse, Metric::Bandwidth));
        let rnd = run(quick(3, PolicyKind::Random, Metric::Bandwidth));
        let (ub, ur) = (br.mean_bandwidth_utility(3), rnd.mean_bandwidth_utility(3));
        assert!(ub > ur, "BR bw {ub:.2} should beat random {ur:.2}");
    }

    #[test]
    fn load_metric_runs_and_br_wins() {
        let br = run(quick(3, PolicyKind::BestResponse, Metric::Load));
        let cls = run(quick(3, PolicyKind::Closest, Metric::Load));
        assert!(br.mean_individual_cost(3) <= cls.mean_individual_cost(3) * 1.05);
    }

    #[test]
    fn vivaldi_mode_close_to_ping_mode() {
        let ping = run(quick(4, PolicyKind::BestResponse, Metric::DelayPing));
        let vival = run(quick(4, PolicyKind::BestResponse, Metric::DelayVivaldi));
        let (cp, cv) = (ping.mean_individual_cost(3), vival.mean_individual_cost(3));
        // Vivaldi estimates are noisier, so BR-with-vivaldi is worse, but
        // not catastrophically (the paper still sees BR win under pyxida).
        assert!(
            cv >= cp * 0.9,
            "vivaldi can't beat ping by much: {cv} vs {cp}"
        );
        assert!(cv <= cp * 2.0, "vivaldi should remain usable: {cv} vs {cp}");
    }

    #[test]
    fn churn_kills_and_revives_nodes() {
        use egoist_netsim::churn::{ChurnEvent, ChurnTrace};
        let mut cfg = quick(3, PolicyKind::BestResponse, Metric::DelayPing);
        cfg.churn = Some(ChurnTrace {
            n: 20,
            horizon: 8.0 * 60.0,
            events: vec![
                ChurnEvent {
                    at: 70.0,
                    node: NodeId(5),
                    up: false,
                },
                ChurnEvent {
                    at: 200.0,
                    node: NodeId(5),
                    up: true,
                },
            ],
        });
        let res = run(cfg);
        // Epoch 1 (t ∈ [60, 120)): node 5 dead at measurement (t=120⁻).
        assert!(res.samples[1].individual_cost[5].is_nan());
        assert_eq!(res.samples[1].alive, 19);
        // After rejoin, it's alive again and wired.
        assert_eq!(res.samples[5].alive, 20);
        assert!(res.samples[5].individual_cost[5].is_finite());
    }

    #[test]
    fn free_riders_affect_costs_mildly() {
        let honest = run(quick(2, PolicyKind::BestResponse, Metric::DelayPing));
        let mut cheat_cfg = quick(2, PolicyKind::BestResponse, Metric::DelayPing);
        cheat_cfg.cheat = CheatConfig::single(NodeId(0));
        let cheating = run(cheat_cfg);
        let (ch, cc) = (
            honest.mean_individual_cost(3),
            cheating.mean_individual_cost(3),
        );
        // Fig. 4: impact within ~±20%.
        assert!(
            (cc / ch - 1.0).abs() < 0.35,
            "free rider impact too large: honest {ch:.2} vs cheating {cc:.2}"
        );
    }

    #[test]
    fn rewiring_rate_decays_for_br() {
        let res = run(SimConfig {
            epochs: 12,
            ..quick(3, PolicyKind::BestResponse, Metric::DelayPing)
        });
        let series = res.rewirings_series();
        let early: f64 = series[..3].iter().sum::<usize>() as f64 / 3.0;
        let late: f64 = series[series.len() - 3..].iter().sum::<usize>() as f64 / 3.0;
        assert!(
            late <= early,
            "re-wiring should not grow: early {early}, late {late}"
        );
    }

    #[test]
    fn epsilon_br_rewires_less_than_br() {
        let br = run(quick(4, PolicyKind::BestResponse, Metric::DelayPing));
        let eps = run(quick(
            4,
            PolicyKind::EpsilonBestResponse { epsilon: 0.10 },
            Metric::DelayPing,
        ));
        let (rb, re) = (br.mean_rewirings(2), eps.mean_rewirings(2));
        assert!(
            re <= rb,
            "BR(0.1) must re-wire no more than BR: {re} vs {rb}"
        );
    }

    #[test]
    fn hybrid_maintains_connectivity_under_churn() {
        use egoist_netsim::ChurnModel;
        let mut model = ChurnModel::planetlab_like(20, 3);
        model.timescale_divisor = 400.0;
        let trace = model.generate(8.0 * 60.0);
        let mut cfg = quick(
            5,
            PolicyKind::HybridBestResponse { k2: 2 },
            Metric::DelayPing,
        );
        cfg.churn = Some(trace);
        let res = run(cfg);
        // Efficiency should stay meaningfully positive under heavy churn.
        let eff = res.mean_efficiency(3);
        assert!(eff > 0.0, "HybridBR efficiency collapsed: {eff}");
    }

    #[test]
    #[should_panic(expected = "HybridBestResponse { k2: 1 }: k2 must be even")]
    fn simulator_rejects_an_odd_hybrid_k2() {
        Simulator::new(quick(
            5,
            PolicyKind::HybridBestResponse { k2: 1 },
            Metric::DelayPing,
        ));
    }

    #[test]
    fn sampled_hybrid_backbone_spans_the_membership_under_churn() {
        // The n-large twin of the test above: 119 candidates > m, so
        // every turn solves over a shortlist. The donated ring must
        // still span the alive membership, not the sample.
        use egoist_netsim::ChurnModel;
        let mut cfg = quick(
            5,
            PolicyKind::HybridBestResponse { k2: 2 },
            Metric::DelayPing,
        );
        cfg.n = 120;
        cfg.epochs = 5;
        let mut model = ChurnModel::planetlab_like(cfg.n, 3);
        model.timescale_divisor = 400.0;
        cfg.churn = Some(model.generate(cfg.epochs as f64 * cfg.epoch_secs));
        assert!(cfg.n - 1 > cfg.sample_size);
        let mut sim = Simulator::new(cfg.clone());
        let mut churned = false;
        for epoch in 0..cfg.epochs {
            sim.run_epoch(epoch);
            let members = sim.alive_ids();
            churned |= members.len() < cfg.n;
            let overlay = sim.wiring.to_graph(&sim.announced_cow(), &sim.alive);
            assert!(
                strongly_connected(&overlay, &members),
                "epoch {epoch}: {} alive nodes fell apart",
                members.len()
            );
        }
        assert!(churned, "the trace must churn for this to mean anything");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = run(quick(3, PolicyKind::BestResponse, Metric::DelayPing));
        let b = run(quick(3, PolicyKind::BestResponse, Metric::DelayPing));
        assert_eq!(
            a.mean_individual_cost(3).to_bits(),
            b.mean_individual_cost(3).to_bits()
        );
    }
}
