//! The node's route computation, on the CSR engine: the LSDB graph that
//! survives the quarantine audit, and the routing table one sweep over
//! it yields. A re-wiring job hands the same graph to the shared turn
//! ([`egoist_core::game::choose`]), which sweeps its residual rows on
//! demand.

use super::{EgoistNode, Tally, AUDIT_RATIO};
use crate::audit::ClaimVerdict;
use crate::transport::Transport;
use egoist_graph::csr::first_hops;
use egoist_graph::{CsrGraph, DijkstraWorkspace, NodeId};

impl<T: Transport> EgoistNode<T> {
    /// The LSDB graph minus quarantined second-hand claims: links *to
    /// us* are first-hand (audited on receipt, kept); third-party links
    /// are re-ranked against current measurements — contradicted ones
    /// are always excluded, unknown ones are excluded when their origin
    /// is suspect. Corroboration counts, not trust-on-sight, decide what
    /// routes may use.
    ///
    /// Built row by row in CSR form straight from the borrowed LSDB
    /// records. Our own row ends with the established links at their
    /// honest measured costs (routing uses the freshest local
    /// knowledge); a re-wiring job masks that row out, which is `G−i`.
    pub(super) fn routing_graph(&mut self) -> CsrGraph {
        let n = self.cfg.n;
        let mut g = CsrGraph::with_capacity(n, self.lsdb.link_count() + self.wiring.len());
        let mut quarantined = 0u64;
        for from in (0..n).map(NodeId::from_index) {
            let est_o = self.est[from.index()].value;
            let sus = self.suspect(from);
            let links = self.lsdb.get(from).map_or(&[][..], |lsa| lsa.links);
            for l in links {
                if l.neighbor.index() >= n || l.neighbor == from {
                    continue;
                }
                if l.neighbor == self.cfg.id && from != self.cfg.id {
                    // First-hand link, but it may have been admitted
                    // during the newcomer grace window (no estimate
                    // yet): re-audit against the current measurement so
                    // a stale grace-period forgery cannot squat in the
                    // routing graph.
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
                        // An origin under live suspicion loses *all* its
                        // third-party claims, even ones the triangle
                        // bound cannot individually refute — a caught
                        // forger's corroborations are worthless (the
                        // bound only sees gaps, not absolute costs).
                        _ if sus => {
                            quarantined += 1;
                            continue;
                        }
                        _ => {}
                    }
                }
                g.set_edge(l.neighbor.0, l.cost as f64);
            }
            if from == self.cfg.id {
                for &w in &self.wiring {
                    let c = self.est[w.index()].value;
                    if !c.is_nan() {
                        g.set_edge(w.0, c);
                    }
                }
            }
            g.end_row();
        }
        // Cumulative over the node's lifetime (the report sums ledgers,
        // not instantaneous snapshots).
        self.bump(Tally::LinksQuarantined, quarantined);
        g
    }

    /// Next overlay hop toward every destination over `g`: one
    /// single-source sweep, then one parent-propagation pass.
    pub(super) fn next_hops(&self, g: &CsrGraph) -> Vec<Option<NodeId>> {
        let (n, me) = (self.cfg.n, self.cfg.id.0);
        let (mut dist, mut parent) = (vec![0.0; n], vec![0; n]);
        DijkstraWorkspace::new(n).sssp_into(g, me, None, &mut dist, &mut parent);
        first_hops(&parent, me)
    }
}
