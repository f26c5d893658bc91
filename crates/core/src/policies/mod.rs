//! Neighbor-selection policies (§3.2, §3.3).
//!
//! Every policy answers the same question: *given the residual overlay and
//! my measured direct link costs, which `k` neighbors do I wire to?*
//!
//! | Policy | Paper | Module |
//! |---|---|---|
//! | Best-Response (exact) | §2.1 Def. 1 | [`best_response`] |
//! | Best-Response (local search) | §3.2, §5 | [`best_response`] |
//! | BR(ε) threshold re-wiring | §4.3 | [`epsilon`] |
//! | k-Random | §3.2 | [`random`] |
//! | k-Closest (k-Widest on bandwidth) | §3.2, §4.1 | [`closest`] |
//! | k-Regular | §3.2 | [`regular`] |
//! | HybridBR (donated links) | §3.3 | [`hybrid`] |
//! | Bandwidth BR (max bottleneck sum) | §4.1, App. A | [`bandwidth`] |
//! | Traffic-aware BR (demand-blended prefs) | §5 (traffic) | [`traffic_aware`] |
//!
//! Both best-response objectives are solved by the one pruned
//! facility-location core in [`solver`].

pub mod bandwidth;
pub mod best_response;
pub mod closest;
pub mod epsilon;
pub mod hybrid;
pub mod random;
pub mod regular;
pub mod solver;
pub mod traffic_aware;

use crate::cost::Preferences;
use crate::residual::ResidualView;
use egoist_graph::csr::{MaxMin, MinPlus};
use egoist_graph::NodeId;
use rand::rngs::StdRng;

/// Everything a policy may consult when choosing neighbors for one node.
///
/// All cost information is *announced* information: what the link-state
/// protocol disseminated plus the node's own direct measurements — a
/// free rider's lies are already baked in by the caller.
pub struct WiringContext<'a> {
    /// The node being (re-)wired.
    pub node: NodeId,
    /// Number of links it may establish.
    pub k: usize,
    /// Alive candidate neighbors (never contains `node`).
    pub candidates: &'a [NodeId],
    /// Direct link cost `d_ij` from `node` to every `j` (dense, length n);
    /// entries for dead nodes are ignored.
    pub direct: &'a [f64],
    /// Pairwise distances over the residual graph `G_{−i}` (announced
    /// costs) — a zero-copy [`ResidualView`] of the rows the turn named,
    /// or of a whole dense matrix. Policies whose
    /// [`PolicyKind::needs_residual`] is false get a view with no rows,
    /// any read of which panics.
    pub residual: ResidualView<'a>,
    /// Preference weights.
    pub prefs: &'a Preferences,
    /// Aliveness per node.
    pub alive: &'a [bool],
    /// What a destination nobody serves is worth: the disconnection
    /// penalty `M` on additive costs, 0 on bandwidth.
    pub penalty: f64,
    /// The node's current wiring (empty on first join).
    pub current: &'a [NodeId],
}

impl<'a> WiringContext<'a> {
    /// Effective number of links: can't exceed the candidate pool.
    pub fn effective_k(&self) -> usize {
        self.k.min(self.candidates.len())
    }
}

/// A neighbor-selection policy.
pub trait Policy {
    /// Choose up to `ctx.k` neighbors. Implementations must return
    /// distinct, alive candidates and never `ctx.node` itself.
    ///
    /// `&mut self`: solver policies keep reusable scratch arenas (the
    /// BR assignment matrix and solver vectors) across turns so the hot
    /// path allocates nothing per re-wiring. Implementations must stay
    /// deterministic — scratch reuse may never change a decision.
    fn wire(&mut self, ctx: &WiringContext<'_>, rng: &mut StdRng) -> Vec<NodeId>;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Enumeration of the built-in policies, for configuration and dispatch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicyKind {
    /// k-Random (§3.2).
    Random,
    /// k-Closest (§3.2).
    Closest,
    /// k-Regular with the paper's offset vector (§3.2).
    Regular,
    /// Best response by local search (the deployed EGOIST default, §3.2).
    BestResponse,
    /// Exact best response by exhaustive search (small instances only).
    ExactBestResponse,
    /// BR(ε): re-wire only for relative improvement beyond ε (§4.3).
    EpsilonBestResponse { epsilon: f64 },
    /// HybridBR: donate `k2` links to the connectivity backbone (§3.3).
    HybridBestResponse { k2: usize },
    /// Best response over demand-blended preferences: candidates are
    /// weighted by the observed traffic matrix (mixed into the base
    /// preferences with weight `bias`), so heavy destinations pull
    /// direct links toward themselves. The wiring solver itself is the
    /// ordinary local-search BR — only the preference rows differ, and
    /// the simulator supplies those via
    /// [`traffic_aware::demand_weighted_prefs`].
    TrafficAware { bias: f64 },
}

impl PolicyKind {
    /// Instantiate the policy object.
    pub fn instantiate(self) -> Box<dyn Policy + Send + Sync> {
        match self {
            PolicyKind::Random => Box::new(random::KRandom),
            PolicyKind::Closest => Box::new(closest::KClosest::<MinPlus>::default()),
            PolicyKind::Regular => Box::new(regular::KRegular),
            PolicyKind::BestResponse => Box::new(best_response::BestResponse::local_search()),
            PolicyKind::ExactBestResponse => Box::new(best_response::BestResponse::exact()),
            PolicyKind::EpsilonBestResponse { epsilon } => {
                Box::new(epsilon::EpsilonBr::new(epsilon))
            }
            PolicyKind::HybridBestResponse { k2 } => Box::new(hybrid::HybridBr::new(k2)),
            PolicyKind::TrafficAware { .. } => {
                Box::new(best_response::BestResponse::local_search())
            }
        }
    }

    /// The policy object under the bandwidth metric (§4.1): every
    /// best-response flavour solves the max-bottleneck objective,
    /// k-Closest becomes k-Widest, and the metric-oblivious wirings stay
    /// what they are.
    pub fn instantiate_bandwidth(self) -> Box<dyn Policy + Send + Sync> {
        match self {
            PolicyKind::Closest => Box::new(closest::KClosest::<MaxMin>::default()),
            PolicyKind::Random | PolicyKind::Regular => self.instantiate(),
            _ => Box::new(bandwidth::BandwidthBr::default()),
        }
    }

    /// Whether the policy's `wire()` ever reads `ctx.residual`. The
    /// oblivious wirings (§3.2's k-Random / k-Closest / k-Regular) rank
    /// candidates by direct cost or id alone, so callers can hand them a
    /// view with no rows and skip the APSP — the
    /// difference between O(k·n) and O(n²·log n) per re-wire at fleet
    /// scale.
    pub fn needs_residual(self) -> bool {
        !matches!(
            self,
            PolicyKind::Random | PolicyKind::Closest | PolicyKind::Regular
        )
    }

    /// Panics on a policy no run can play as configured: a
    /// `HybridBestResponse` whose `k2` is odd. Its backbone is `k2 / 2`
    /// bidirectional cycles, so the odd link would silently not be
    /// donated.
    pub fn assert_valid(self) {
        if let PolicyKind::HybridBestResponse { k2 } = self {
            assert!(
                k2 % 2 == 0,
                "HybridBestResponse {{ k2: {k2} }}: k2 must be even (k2 / 2 backbone cycles)"
            );
        }
    }

    /// Short label used in figure output.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Random => "k-Random".into(),
            PolicyKind::Closest => "k-Closest".into(),
            PolicyKind::Regular => "k-Regular".into(),
            PolicyKind::BestResponse => "BR".into(),
            PolicyKind::ExactBestResponse => "BR-exact".into(),
            PolicyKind::EpsilonBestResponse { epsilon } => format!("BR({epsilon})"),
            PolicyKind::HybridBestResponse { k2 } => format!("HybridBR(k2={k2})"),
            PolicyKind::TrafficAware { bias } => format!("BR-demand({bias})"),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::wiring::Wiring;
    use egoist_graph::apsp::apsp;
    use egoist_graph::DistanceMatrix;

    /// Build a context over a concrete wiring for tests. Returns owned
    /// parts; bind them and then borrow into a `WiringContext`.
    pub struct CtxParts {
        pub node: NodeId,
        pub k: usize,
        pub candidates: Vec<NodeId>,
        pub direct: Vec<f64>,
        pub residual: DistanceMatrix,
        pub prefs: Preferences,
        pub alive: Vec<bool>,
        pub penalty: f64,
        pub current: Vec<NodeId>,
    }

    impl CtxParts {
        pub fn build(d: &DistanceMatrix, wiring: &Wiring, node: NodeId, k: usize) -> CtxParts {
            let n = d.len();
            let alive = vec![true; n];
            let residual = apsp(&wiring.residual_graph(node, d, &alive));
            let candidates: Vec<NodeId> = (0..n)
                .map(NodeId::from_index)
                .filter(|&j| j != node)
                .collect();
            CtxParts {
                node,
                k,
                candidates,
                direct: d.row(node.index()).to_vec(),
                residual,
                prefs: Preferences::uniform(n),
                alive,
                penalty: crate::cost::disconnection_penalty(d),
                current: wiring.of(node).to_vec(),
            }
        }

        pub fn ctx(&self) -> WiringContext<'_> {
            WiringContext {
                node: self.node,
                k: self.k,
                candidates: &self.candidates,
                direct: &self.direct,
                residual: ResidualView::dense(&self.residual),
                prefs: &self.prefs,
                alive: &self.alive,
                penalty: self.penalty,
                current: &self.current,
            }
        }
    }
}
