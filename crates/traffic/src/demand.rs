//! Flow-level demand generators.
//!
//! Every generator emits, per epoch, a deterministic set of [`Flow`]s
//! whose rates sum *exactly* to the configured offered load (equal split
//! over however many flows the epoch produces), so workloads of
//! different shapes are directly comparable and the conservation
//! property is machine-checkable (see `proptests.rs`).

use egoist_graph::{DistanceMatrix, NodeId};
use egoist_netsim::rng::derive_indexed;
use rand::rngs::StdRng;
use rand::Rng;

/// One unidirectional flow demand: `rate_mbps` from `src` to `dst` for
/// the duration of the epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Flow {
    pub src: NodeId,
    pub dst: NodeId,
    pub rate_mbps: f64,
}

/// The workload shapes of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkloadKind {
    /// Uniform all-pairs: every flow picks an independent uniform
    /// (src, dst) pair — the paper's uniform-preference baseline.
    Uniform,
    /// Zipf/gravity hot-spots: per-node popularity `w_i ∝ 1/rank_i^θ`
    /// over a seed-fixed permutation; `P(src=i, dst=j) ∝ w_i · w_j`.
    Gravity { exponent: f64 },
    /// Broadcast/gossip fan-out: a few sources per epoch each push the
    /// same content to many destinations.
    Broadcast { sources: usize },
    /// CDN-style pulls: a fixed origin set; each client pulls from its
    /// nearest origin by underlay delay.
    Cdn { origins: usize },
}

impl WorkloadKind {
    /// Stable label for reports and RNG stream derivation.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Gravity { .. } => "gravity",
            WorkloadKind::Broadcast { .. } => "broadcast",
            WorkloadKind::Cdn { .. } => "cdn",
        }
    }

    /// All four shapes, for sweep experiments.
    pub fn all() -> [WorkloadKind; 4] {
        [
            WorkloadKind::Uniform,
            WorkloadKind::Gravity { exponent: 1.0 },
            WorkloadKind::Broadcast { sources: 2 },
            WorkloadKind::Cdn { origins: 2 },
        ]
    }
}

/// A seeded generator for one workload over an `n`-node population.
#[derive(Clone, Debug)]
pub struct DemandGenerator {
    kind: WorkloadKind,
    n: usize,
    offered_mbps: f64,
    flows_per_epoch: usize,
    seed: u64,
    /// Gravity popularity weights (uniform 1.0 for other kinds).
    weights: Vec<f64>,
    /// CDN: per client, the origins ordered nearest-first by underlay
    /// delay — failover walks this list to the first alive origin.
    origin_pref: Vec<Vec<NodeId>>,
}

impl DemandGenerator {
    /// Build a generator. `base_delays` is the static underlay delay
    /// matrix, used only by the CDN workload to assign clients to their
    /// nearest origin.
    pub fn new(
        kind: WorkloadKind,
        n: usize,
        offered_mbps: f64,
        flows_per_epoch: usize,
        seed: u64,
        base_delays: &DistanceMatrix,
    ) -> Self {
        assert!(n >= 2, "need at least two nodes for traffic");
        assert!(offered_mbps > 0.0, "offered load must be positive");
        assert!(flows_per_epoch > 0, "need at least one flow per epoch");

        let mut weights = vec![1.0; n];
        if let WorkloadKind::Gravity { exponent } = kind {
            // Seed-fixed popularity permutation: rank r → weight 1/(r+1)^θ.
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = derive_indexed(seed, "traffic-gravity-perm", 0);
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for (rank, &node) in order.iter().enumerate() {
                weights[node] = 1.0 / ((rank + 1) as f64).powf(exponent);
            }
        }

        let mut origin_pref = vec![Vec::new(); n];
        if let WorkloadKind::Cdn { origins: m } = kind {
            let m = m.clamp(1, n - 1);
            // Origins: the m nodes with the lowest mean outgoing delay —
            // well-connected sites, as a CDN operator would choose.
            let mut by_centrality: Vec<usize> = (0..n).collect();
            let mean_out = |i: usize| -> f64 {
                let row = base_delays.row(i);
                row.iter().sum::<f64>() / (n - 1).max(1) as f64
            };
            by_centrality.sort_by(|&a, &b| mean_out(a).total_cmp(&mean_out(b)).then(a.cmp(&b)));
            let origins: Vec<NodeId> = by_centrality[..m]
                .iter()
                .map(|&i| NodeId::from_index(i))
                .collect();
            for (i, pref) in origin_pref.iter_mut().enumerate() {
                let mut ranked = origins.clone();
                ranked.sort_by(|&a, &b| {
                    base_delays
                        .at(a.index(), i)
                        .total_cmp(&base_delays.at(b.index(), i))
                        .then(a.cmp(&b))
                });
                *pref = ranked;
            }
        }

        DemandGenerator {
            kind,
            n,
            offered_mbps,
            flows_per_epoch,
            seed,
            weights,
            origin_pref,
        }
    }

    /// The workload shape.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The weight of the alive nodes but `exclude`, summed in `alive`
    /// order.
    fn weight_of(&self, alive: &[NodeId], exclude: Option<NodeId>) -> f64 {
        alive
            .iter()
            .filter(|&&v| Some(v) != exclude)
            .map(|v| self.weights[v.index()])
            .sum()
    }

    /// Weighted pick over alive nodes; `exclude` removes one candidate
    /// and `total` is [`Self::weight_of`] the rest.
    fn pick_weighted(
        &self,
        alive: &[NodeId],
        exclude: Option<NodeId>,
        total: f64,
        rng: &mut StdRng,
    ) -> NodeId {
        let mut target = rng.random_range(0.0..1.0) * total;
        for &v in alive {
            if Some(v) == exclude {
                continue;
            }
            target -= self.weights[v.index()];
            if target <= 0.0 {
                return v;
            }
        }
        // Numeric tail: return the last eligible node.
        *alive
            .iter()
            .rev()
            .find(|&&v| Some(v) != exclude)
            .expect("at least two alive nodes")
    }

    /// Generate this epoch's flows over the currently-alive population.
    /// Returns an empty set when fewer than two nodes are alive.
    pub fn generate(&self, epoch: usize, alive: &[bool]) -> Vec<Flow> {
        let alive_ids: Vec<NodeId> = (0..self.n)
            .filter(|&i| alive[i])
            .map(NodeId::from_index)
            .collect();
        if alive_ids.len() < 2 {
            return Vec::new();
        }
        let mut rng = derive_indexed(self.seed, self.kind.label(), epoch as u64);
        let pairs: Vec<(NodeId, NodeId)> = match self.kind {
            WorkloadKind::Uniform => (0..self.flows_per_epoch)
                .map(|_| {
                    let s = alive_ids[rng.random_range(0..alive_ids.len())];
                    let t = loop {
                        let t = alive_ids[rng.random_range(0..alive_ids.len())];
                        if t != s {
                            break t;
                        }
                    };
                    (s, t)
                })
                .collect(),
            WorkloadKind::Gravity { .. } => {
                // Each total is summed once per epoch — a source's own on
                // its first draw — in the order a per-pick sum would use.
                let total = self.weight_of(&alive_ids, None);
                let mut without = vec![None; self.n];
                (0..self.flows_per_epoch)
                    .map(|_| {
                        let s = self.pick_weighted(&alive_ids, None, total, &mut rng);
                        let rest = *without[s.index()]
                            .get_or_insert_with(|| self.weight_of(&alive_ids, Some(s)));
                        let t = self.pick_weighted(&alive_ids, Some(s), rest, &mut rng);
                        (s, t)
                    })
                    .collect()
            }
            WorkloadKind::Broadcast { sources } => {
                let m = sources.clamp(1, alive_ids.len() - 1);
                // This epoch's broadcasters rotate deterministically.
                let mut pool = alive_ids.clone();
                for i in (1..pool.len()).rev() {
                    let j = rng.random_range(0..=i);
                    pool.swap(i, j);
                }
                let sources: Vec<NodeId> = pool[..m].to_vec();
                let fanout = (self.flows_per_epoch / m).max(1);
                let mut pairs = Vec::new();
                for &s in &sources {
                    for _ in 0..fanout {
                        let t = loop {
                            let t = alive_ids[rng.random_range(0..alive_ids.len())];
                            if t != s {
                                break t;
                            }
                        };
                        pairs.push((s, t));
                    }
                }
                pairs
            }
            WorkloadKind::Cdn { .. } => (0..self.flows_per_epoch)
                .filter_map(|_| {
                    let client = alive_ids[rng.random_range(0..alive_ids.len())];
                    // Nearest *alive* origin: walk the client's
                    // delay-ranked origin list past any dead entries.
                    let origin = self.origin_pref[client.index()]
                        .iter()
                        .copied()
                        .find(|o| alive[o.index()])?;
                    if origin == client {
                        // Origins serve locally: no overlay flow.
                        None
                    } else {
                        Some((origin, client))
                    }
                })
                .collect(),
        };
        if pairs.is_empty() {
            return Vec::new();
        }
        // Equal split conserves offered load exactly regardless of how
        // many flows the shape produced.
        let rate = self.offered_mbps / pairs.len() as f64;
        pairs
            .into_iter()
            .map(|(src, dst)| Flow {
                src,
                dst,
                rate_mbps: rate,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delays(n: usize) -> DistanceMatrix {
        DistanceMatrix::from_fn(n, |i, j| 5.0 + ((i * 7 + j * 3) % 40) as f64)
    }

    fn total(flows: &[Flow]) -> f64 {
        flows.iter().map(|f| f.rate_mbps).sum()
    }

    #[test]
    fn all_kinds_conserve_offered_load() {
        let d = delays(12);
        for kind in WorkloadKind::all() {
            let g = DemandGenerator::new(kind, 12, 400.0, 24, 1, &d);
            for epoch in 0..5 {
                let flows = g.generate(epoch, &[true; 12]);
                assert!(
                    (total(&flows) - 400.0).abs() < 1e-9,
                    "{} epoch {epoch}: {}",
                    kind.label(),
                    total(&flows)
                );
            }
        }
    }

    #[test]
    fn same_seed_same_flows() {
        let d = delays(10);
        let a = DemandGenerator::new(WorkloadKind::Uniform, 10, 100.0, 16, 9, &d);
        let b = DemandGenerator::new(WorkloadKind::Uniform, 10, 100.0, 16, 9, &d);
        assert_eq!(a.generate(3, &[true; 10]), b.generate(3, &[true; 10]));
    }

    #[test]
    fn epochs_differ() {
        let d = delays(10);
        let g = DemandGenerator::new(WorkloadKind::Uniform, 10, 100.0, 16, 9, &d);
        assert_ne!(g.generate(0, &[true; 10]), g.generate(1, &[true; 10]));
    }

    #[test]
    fn gravity_concentrates_traffic() {
        let d = delays(20);
        let g = DemandGenerator::new(
            WorkloadKind::Gravity { exponent: 1.4 },
            20,
            1000.0,
            64,
            3,
            &d,
        );
        let mut per_node = [0.0; 20];
        for epoch in 0..20 {
            for f in g.generate(epoch, &[true; 20]) {
                per_node[f.src.index()] += f.rate_mbps;
                per_node[f.dst.index()] += f.rate_mbps;
            }
        }
        let max = per_node.iter().cloned().fold(0.0, f64::max);
        let min = per_node.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min.max(1e-9) > 4.0, "hot spot expected: {min}..{max}");
    }

    #[test]
    fn broadcast_uses_few_sources() {
        let d = delays(16);
        let g = DemandGenerator::new(WorkloadKind::Broadcast { sources: 2 }, 16, 100.0, 32, 5, &d);
        let flows = g.generate(0, &[true; 16]);
        let mut sources: Vec<NodeId> = flows.iter().map(|f| f.src).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), 2);
    }

    #[test]
    fn cdn_flows_originate_at_origins() {
        let d = delays(16);
        let g = DemandGenerator::new(WorkloadKind::Cdn { origins: 3 }, 16, 100.0, 32, 5, &d);
        let flows = g.generate(0, &[true; 16]);
        assert!(!flows.is_empty());
        let mut origins: Vec<NodeId> = flows.iter().map(|f| f.src).collect();
        origins.sort_unstable();
        origins.dedup();
        assert!(origins.len() <= 3, "at most 3 origins: {origins:?}");
    }

    #[test]
    fn dead_nodes_never_appear() {
        let d = delays(10);
        let mut alive = [true; 10];
        alive[3] = false;
        alive[7] = false;
        for kind in WorkloadKind::all() {
            let g = DemandGenerator::new(kind, 10, 50.0, 20, 2, &d);
            for f in g.generate(4, &alive) {
                assert!(alive[f.src.index()] && alive[f.dst.index()], "{kind:?}");
                assert_ne!(f.src, f.dst);
            }
        }
    }

    #[test]
    fn cdn_failover_goes_to_next_nearest_alive_origin() {
        // Origins end up being {0, 1, 2} (smallest mean out-delay).
        // Client 5 ranks them by delay: 2 (5ms) < 1 (10ms) < 0 (50ms).
        // With origin 2 dead, its flows must come from 1 — not from the
        // lowest-id alive origin 0.
        let d = DistanceMatrix::from_fn(6, |i, j| match (i, j) {
            (0, 5) => 50.0,
            (1, 5) => 10.0,
            (2, 5) => 5.0,
            (0, _) => 8.0,
            (1, _) => 9.0,
            (2, _) => 10.0,
            _ => 100.0,
        });
        let g = DemandGenerator::new(WorkloadKind::Cdn { origins: 3 }, 6, 60.0, 32, 4, &d);
        let mut alive = [true; 6];
        alive[2] = false;
        let mut saw_client5 = false;
        for epoch in 0..6 {
            for f in g.generate(epoch, &alive) {
                if f.dst == NodeId(5) {
                    saw_client5 = true;
                    assert_eq!(
                        f.src,
                        NodeId(1),
                        "failover must pick the next-nearest alive origin"
                    );
                }
            }
        }
        assert!(saw_client5, "client 5 never drew a flow; weak test setup");
    }

    #[test]
    fn single_survivor_yields_no_flows() {
        let d = delays(4);
        let mut alive = [false; 4];
        alive[1] = true;
        let g = DemandGenerator::new(WorkloadKind::Uniform, 4, 50.0, 8, 2, &d);
        assert!(g.generate(0, &alive).is_empty());
    }
}
