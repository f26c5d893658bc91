//! The misbehavior ledger: points, lifetime points and this epoch's
//! claim contradictions, kept only for the peers that ever drew a point
//! or a contradiction. An honest fleet's ledgers stay empty, so this
//! state grows with misbehavior, not with the id space.

use super::BAN_THRESHOLD;
use egoist_graph::NodeId;

/// One peer's misbehavior record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Misbehavior {
    /// Accumulated points; decays by 1 each epoch.
    pub(super) points: u32,
    /// Third-party claim contradictions observed this epoch; converted
    /// to points (capped) at the epoch tick.
    pub(super) contradicted_epoch: u32,
    /// Lifetime points, never decayed (score histogram input).
    pub(super) total_points: u64,
}

/// Misbehavior records ascending by peer id. A peer absent from it holds
/// the default (all-zero) record. Entries are never removed: lifetime
/// points do not decay.
#[derive(Clone, Debug, Default)]
pub(super) struct Ledger(Vec<(NodeId, Misbehavior)>);

impl Ledger {
    /// `peer`'s record, if it has one (a binary search; an empty ledger
    /// answers at once).
    fn get(&self, peer: NodeId) -> Option<&Misbehavior> {
        let at = self.0.binary_search_by_key(&peer, |&(id, _)| id).ok()?;
        Some(&self.0[at].1)
    }

    /// `peer`'s record, created all-zero in id order if it had none.
    pub(super) fn entry(&mut self, peer: NodeId) -> &mut Misbehavior {
        let at = match self.0.binary_search_by_key(&peer, |&(id, _)| id) {
            Ok(at) => at,
            Err(at) => {
                self.0.insert(at, (peer, Misbehavior::default()));
                at
            }
        };
        &mut self.0[at].1
    }

    /// Open points or fresh contradictions, or condemned.
    pub(super) fn suspect(&self, peer: NodeId) -> bool {
        self.get(peer).is_some_and(|m| {
            m.points > 0 || m.contradicted_epoch > 0 || m.total_points >= BAN_THRESHOLD as u64
        })
    }

    /// Lifetime points reached the ban threshold.
    pub(super) fn condemned(&self, peer: NodeId) -> bool {
        self.get(peer)
            .is_some_and(|m| m.total_points >= BAN_THRESHOLD as u64)
    }

    /// Clear this epoch's contradictions and return, in id order, the
    /// points each contradicted peer is charged: 1, or 2 from three
    /// contradictions on.
    pub(super) fn take_contradictions(&mut self) -> Vec<(NodeId, u32)> {
        let mut due = Vec::new();
        for (id, m) in &mut self.0 {
            let tally = std::mem::take(&mut m.contradicted_epoch);
            if tally > 0 {
                due.push((*id, if tally >= 3 { 2 } else { 1 }));
            }
        }
        due
    }

    /// Decay every open score by one point, calling `observe` with each
    /// score before its decay, in id order.
    pub(super) fn decay(&mut self, mut observe: impl FnMut(u32)) {
        for (_, m) in &mut self.0 {
            if m.points > 0 {
                observe(m.points);
                m.points -= 1;
            }
        }
    }

    /// The peers with nonzero lifetime points and those points, in id
    /// order.
    pub(super) fn totals(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.0
            .iter()
            .filter(|(_, m)| m.total_points > 0)
            .map(|&(id, m)| (id, m.total_points))
    }
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::fleet::{ledger_histogram, score_histogram};
    use crate::transport::SimNet;
    use egoist_graph::DistanceMatrix;
    use proptest::prelude::*;
    use rand::Rng;

    /// The dense per-peer record the sparse ledger replaced.
    #[derive(Clone, Copy, Debug, Default)]
    struct PeerScore {
        misbehavior: u32,
        total_points: u64,
        contradicted_epoch: u32,
    }

    /// The dense ledger, one record and one ban flag per id, with
    /// `punish`, the claim tally, the epoch tick's two loops, `suspect`
    /// and `condemned` as they were (a ban's purge of the other tables
    /// left out).
    struct Dense {
        scores: Vec<PeerScore>,
        banned: Vec<bool>,
    }

    impl Dense {
        fn punish(&mut self, peer: NodeId, points: u32) -> bool {
            if peer.index() >= self.scores.len() || self.banned[peer.index()] {
                return false;
            }
            let score = {
                let s = &mut self.scores[peer.index()];
                s.misbehavior = s.misbehavior.saturating_add(points);
                s.total_points += points as u64;
                s.misbehavior
            };
            if score < BAN_THRESHOLD {
                return false;
            }
            self.banned[peer.index()] = true;
            true
        }

        fn contradict(&mut self, o: NodeId, contradicted: u32) {
            self.scores[o.index()].contradicted_epoch = self.scores[o.index()]
                .contradicted_epoch
                .saturating_add(contradicted);
        }

        /// Returns the scores observed before their decay.
        fn tick(&mut self) -> Vec<u32> {
            for j in 0..self.scores.len() {
                let tally = self.scores[j].contradicted_epoch;
                if tally > 0 {
                    self.scores[j].contradicted_epoch = 0;
                    let points = if tally >= 3 { 2 } else { 1 };
                    self.punish(NodeId::from_index(j), points);
                }
            }
            let mut observed = Vec::new();
            for j in 0..self.scores.len() {
                let m = self.scores[j].misbehavior;
                if m > 0 {
                    observed.push(m);
                    self.scores[j].misbehavior = m - 1;
                }
            }
            observed
        }

        fn suspect(&self, origin: NodeId) -> bool {
            origin.index() < self.scores.len() && {
                let s = &self.scores[origin.index()];
                s.misbehavior > 0 || s.contradicted_epoch > 0 || self.condemned(origin.index())
            }
        }

        fn condemned(&self, j: usize) -> bool {
            self.scores[j].total_points >= BAN_THRESHOLD as u64
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random runs of punishments (bans among them), third-party
        /// claims the triangle bound contradicts and epoch ticks, on a
        /// node and on the dense ledger: equal bans, suspicion,
        /// condemnation, decay observations, published lifetime points
        /// (expanded to one per id) and score histogram after every step.
        #[test]
        fn the_sparse_ledger_is_the_dense_one(seed in any::<u64>(), n in 2usize..24) {
            let mut rng = StdRng::seed_from_u64(seed);
            tokio::runtime::block_on_paused(async {
                let me = NodeId::from_index(rng.random_range(0..n));
                let net = SimNet::clean(DistanceMatrix::off_diagonal(n, 1.0));
                let mut node = EgoistNode::new(NodeConfig::new(me, n, 3), net.endpoint(me));
                let mut dense = Dense {
                    scores: vec![PeerScore::default(); n],
                    banned: vec![false; n],
                };
                // Past the newcomer grace, so every claim is ranked.
                node.first_heard.fill(Some(Instant::now()));
                tokio::time::sleep(node.cfg.announce_interval * 4).await;
                let any_id = |rng: &mut StdRng| NodeId::from_index(rng.random_range(0..n + 2));
                for step in 0..rng.random_range(1..80) {
                    match rng.random_range(0..10) {
                        0..=3 => {
                            let (peer, points) = (any_id(&mut rng), rng.random_range(1..=BAN_THRESHOLD));
                            prop_assert_eq!(node.punish(peer, points), dense.punish(peer, points));
                        }
                        4..=7 => {
                            // Even ids measured at 5 ms, odd ones at 80:
                            // a 1 ms link between the two is impossible.
                            // A ban forgets its estimate; measure again.
                            for (j, e) in node.est.iter_mut().enumerate() {
                                e.value = if j % 2 == 0 { 5.0 } else { 80.0 };
                            }
                            let o = NodeId::from_index(rng.random_range(0..n));
                            let links: Vec<LinkEntry> = (0..rng.random_range(1..5))
                                .map(|_| LinkEntry { neighbor: any_id(&mut rng), cost: 1.0 })
                                .collect();
                            let contradicted = links
                                .iter()
                                .filter(|l| l.neighbor != me && l.neighbor.index() < n)
                                .filter(|l| l.neighbor.index() % 2 != o.index() % 2)
                                .count() as u32;
                            let lsa = LinkStateAnnouncement { origin: o, seq: 1, links };
                            prop_assert_eq!(node.rank_claims(&lsa, Instant::now()), contradicted == 0);
                            if contradicted > 0 {
                                dense.contradict(o, contradicted);
                            }
                        }
                        _ => {
                            let mut observed = Vec::new();
                            node.settle_misbehavior(|m| observed.push(m));
                            prop_assert_eq!(observed, dense.tick(), "step {}", step);
                        }
                    }
                    for j in 0..n + 2 {
                        let id = NodeId::from_index(j);
                        prop_assert_eq!(node.suspect(id), dense.suspect(id), "step {} id {}", step, j);
                        if j < n {
                            prop_assert_eq!(node.health[j].banned, dense.banned[j]);
                            prop_assert_eq!(node.condemned(id), dense.condemned(j));
                        }
                    }
                    node.publish();
                    let view = node.view.read();
                    let mut totals = vec![0; view.ledger_ids];
                    for &(id, points) in &view.misbehavior_total {
                        prop_assert!(points > 0);
                        totals[id.index()] = points;
                    }
                    let want: Vec<u64> = dense.scores.iter().map(|s| s.total_points).collect();
                    prop_assert_eq!(&totals, &want, "step {}", step);
                    prop_assert_eq!(
                        ledger_histogram(&[&*view, &*view]),
                        score_histogram(want.iter().chain(&want).copied())
                    );
                }
                Ok(())
            })?;
        }
    }

    /// Contradictions are charged in id order, two points from three on,
    /// and cleared; decay observes each open score before taking a point;
    /// an absent peer holds nothing.
    #[test]
    fn settling_charges_contradictions_then_decays() {
        let mut ledger = Ledger::default();
        ledger.entry(NodeId(7)).contradicted_epoch = 3;
        ledger.entry(NodeId(2)).points = 2;
        ledger.entry(NodeId(5)).contradicted_epoch = 1;
        assert_eq!(
            ledger.take_contradictions(),
            vec![(NodeId(5), 1), (NodeId(7), 2)]
        );
        assert!(ledger.take_contradictions().is_empty());
        let mut observed = Vec::new();
        ledger.decay(|m| observed.push(m));
        assert_eq!(observed, vec![2]);
        assert!(ledger.get(NodeId(3)).is_none() && !ledger.suspect(NodeId(3)));
    }
}
