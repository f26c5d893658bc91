//! The node's CSR route computation against the `DiGraph` path it
//! replaced, kept here as the oracle.

use super::*;
use crate::transport::SimNet;
use egoist_graph::csr::{self, NO_PARENT};
use egoist_graph::{CsrGraph, DiGraph, DijkstraWorkspace, DistanceMatrix};
use proptest::prelude::*;
use rand::Rng;

impl<T: Transport> EgoistNode<T> {
    /// The routing graph as it was built before the CSR port: a
    /// `DiGraph` over cloned, origin-sorted LSAs, then — what `publish()`
    /// did — the node's own links overlaid at their honest costs.
    fn routing_digraph(&mut self) -> DiGraph {
        let n = self.cfg.n;
        let mut g = DiGraph::new(n);
        let mut quarantined = 0u64;
        for lsa in self.lsdb.all() {
            let from = lsa.origin;
            if from.index() >= n {
                continue;
            }
            let est_o = self.est[from.index()].value;
            let sus = self.suspect(from);
            for l in lsa.links {
                if l.neighbor.index() >= n || l.neighbor == from {
                    continue;
                }
                if l.neighbor == self.cfg.id && from != self.cfg.id {
                    if est_o.is_finite() && est_o > 0.0 {
                        let c = l.cost as f64;
                        if c < est_o / AUDIT_RATIO || c > est_o * AUDIT_RATIO {
                            quarantined += 1;
                            continue;
                        }
                    }
                } else if from != self.cfg.id {
                    let est_x = self.est[l.neighbor.index()].value;
                    match self.cfg.claims.rank(est_o, est_x, l.cost as f64) {
                        ClaimVerdict::Contradicted => {
                            quarantined += 1;
                            continue;
                        }
                        _ if sus => {
                            quarantined += 1;
                            continue;
                        }
                        _ => {}
                    }
                }
                g.add_edge(from, l.neighbor, l.cost as f64);
            }
        }
        self.bump(Tally::LinksQuarantined, quarantined);
        for &w in &self.wiring {
            let c = self.est[w.index()].value;
            if !c.is_nan() {
                g.add_edge(self.cfg.id, w, c);
            }
        }
        g
    }
}

/// A node whose LSDB, estimates, ledgers and wiring are drawn from
/// `rng`: out-of-range origins and neighbors, self-links, the same
/// neighbor listed twice at two costs, first-hand links priced off the
/// node's own measurement, third-party claims the triangle bound
/// refutes, suspect and condemned origins, unmeasured peers.
pub(super) fn arbitrary_node(
    n: usize,
    rng: &mut StdRng,
) -> EgoistNode<crate::transport::SimTransport> {
    let me = NodeId::from_index(rng.random_range(0..n));
    let net = SimNet::clean(DistanceMatrix::off_diagonal(n, 1.0));
    let mut node = EgoistNode::new(NodeConfig::new(me, n, 3), net.endpoint(me));
    for e in node.est.iter_mut() {
        if rng.random::<f64>() < 0.8 {
            e.update(rng.random_range(1..60) as f64);
        }
    }
    for s in node.scores.iter_mut() {
        match rng.random_range(0..10) {
            0 => s.misbehavior = 1,
            1 => s.contradicted_epoch = 2,
            2 => s.total_points = BAN_THRESHOLD as u64,
            _ => {}
        }
    }
    for origin in 0..n + 2 {
        if rng.random::<f64>() < 0.15 {
            continue;
        }
        let links = (0..rng.random_range(0..7))
            .map(|_| LinkEntry {
                neighbor: NodeId::from_index(rng.random_range(0..n + 2)),
                cost: if rng.random::<f64>() < 0.2 {
                    0.05
                } else {
                    rng.random_range(1..80) as f32
                },
            })
            .collect();
        let lsa = LinkStateAnnouncement {
            origin: NodeId::from_index(origin),
            seq: 1,
            links,
        };
        node.lsdb.apply(lsa, 0.0);
    }
    node.wiring = (0..n)
        .map(NodeId::from_index)
        .filter(|&w| w != me && rng.random::<f64>() < 0.2)
        .collect();
    node
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn csr_routing_graph_and_next_hops_match_the_digraph_path(
        seed in any::<u64>(),
        n in 2usize..25,
    ) {
        let mut node = arbitrary_node(n, &mut StdRng::seed_from_u64(seed));
        let me = node.cfg.id;

        let csr = node.routing_graph();
        let struck_csr = node.tallies[Tally::LinksQuarantined];
        let oracle = node.routing_digraph();
        let struck_oracle = node.tallies[Tally::LinksQuarantined] - struck_csr;
        prop_assert_eq!(struck_csr, struck_oracle, "quarantine ledger");

        let bits = |mut e: Vec<(u32, u32, u64)>| {
            e.sort_unstable();
            e
        };
        let got = bits(csr.edges().map(|(f, t, c)| (f, t, c.to_bits())).collect());
        let want = bits(oracle.edges().map(|(f, t, c)| (f.0, t.0, c.to_bits())).collect());
        prop_assert_eq!(got, want, "edge multiset");

        node.publish();
        let (mut dist, mut parent) = (vec![0.0; n], vec![0; n]);
        let flat = CsrGraph::from_digraph(&oracle);
        DijkstraWorkspace::new(n).sssp_into(&flat, me.0, None, &mut dist, &mut parent);
        // Each target's next hop by walking its parent chain up to `me`.
        let want: Vec<Option<NodeId>> = (0..n as u32)
            .map(|j| {
                let mut cur = j;
                while parent[cur as usize] != NO_PARENT && parent[cur as usize] != me.0 {
                    cur = parent[cur as usize];
                }
                (parent[cur as usize] == me.0).then_some(NodeId(cur))
            })
            .collect();
        prop_assert_eq!(&node.view.read().next_hops, &want, "published next hops");
        prop_assert_eq!(csr::first_hops(&parent, me.0), want, "csr::first_hops");
    }
}
