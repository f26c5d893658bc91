//! The link-state database.
//!
//! Every node floods a sequence-numbered announcement of its established
//! links every `T_announce` (§4.3). The LSDB keeps the freshest
//! announcement per origin, deduplicates floods, ages out origins that go
//! silent (churned-off nodes), and can snapshot the announced overlay as a
//! [`DiGraph`] for route computation — the "full residual graph `G_{−i}`"
//! a newcomer obtains (§3.1).

use crate::message::LinkStateAnnouncement;
use egoist_graph::{DiGraph, NodeId};
use std::collections::HashMap;

/// Stored record for one origin.
#[derive(Clone, Debug)]
struct Record {
    lsa: LinkStateAnnouncement,
    /// Local (monotonic, seconds) time of last refresh.
    refreshed_at: f64,
}

/// The link-state database.
#[derive(Clone, Debug, Default)]
pub struct Lsdb {
    records: HashMap<NodeId, Record>,
    /// Announcements older than this many seconds are considered dead.
    pub max_age: f64,
}

impl Lsdb {
    /// New LSDB; `max_age` should be several `T_announce` (the paper's
    /// 20 s announcements and 60 s epochs suggest ~3 missed announcements).
    pub fn new(max_age: f64) -> Self {
        Lsdb {
            records: HashMap::new(),
            max_age,
        }
    }

    /// Apply an announcement received at local time `now`.
    /// Returns `true` when it was fresh (and should be flooded onward).
    pub fn apply(&mut self, lsa: LinkStateAnnouncement, now: f64) -> bool {
        match self.records.get(&lsa.origin) {
            Some(rec) if rec.lsa.seq >= lsa.seq => false,
            _ => {
                self.records.insert(
                    lsa.origin,
                    Record {
                        lsa,
                        refreshed_at: now,
                    },
                );
                true
            }
        }
    }

    /// Refresh the age of every record whose `(origin, seq)` matches an
    /// entry in `digest` exactly. A digest naming our exact record proves
    /// the origin is still being re-announced somewhere, so anti-entropy
    /// keeps agreed-on records alive between suppressed announces.
    pub fn touch_matching(&mut self, digest: &[(NodeId, u64)], now: f64) {
        for &(origin, seq) in digest {
            if let Some(rec) = self.records.get_mut(&origin) {
                if rec.lsa.seq == seq {
                    rec.refreshed_at = now;
                }
            }
        }
    }

    /// Drop records that have aged out; returns the expired origins.
    pub fn expire(&mut self, now: f64) -> Vec<NodeId> {
        let max_age = self.max_age;
        let dead: Vec<NodeId> = self
            .records
            .iter()
            .filter(|(_, r)| now - r.refreshed_at > max_age)
            .map(|(id, _)| *id)
            .collect();
        for id in &dead {
            self.records.remove(id);
        }
        dead
    }

    /// Remove one origin immediately (Leave message).
    pub fn remove(&mut self, origin: NodeId) {
        self.records.remove(&origin);
    }

    /// Known origins in no particular order, without allocating — for
    /// callers that scatter them into a set anyway.
    pub fn origin_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.records.keys().copied()
    }

    /// The stored announcement of `origin`, borrowed.
    pub fn get(&self, origin: NodeId) -> Option<&LinkStateAnnouncement> {
        self.records.get(&origin).map(|r| &r.lsa)
    }

    /// Known origins (the announced membership), sorted.
    pub fn origins(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.records.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of stored announcements.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Total links over all stored announcements.
    pub fn link_count(&self) -> usize {
        self.records.values().map(|r| r.lsa.links.len()).sum()
    }

    /// True when the LSDB is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Current sequence number of `origin` (0 when unknown).
    pub fn seq_of(&self, origin: NodeId) -> u64 {
        self.records.get(&origin).map(|r| r.lsa.seq).unwrap_or(0)
    }

    /// All stored LSAs (for `LsdbSync` to a newcomer).
    pub fn all(&self) -> Vec<LinkStateAnnouncement> {
        let mut v: Vec<LinkStateAnnouncement> =
            self.records.values().map(|r| r.lsa.clone()).collect();
        v.sort_by_key(|l| l.origin);
        v
    }

    /// Compact anti-entropy summary: sorted `(origin, seq)` pairs.
    pub fn digest(&self) -> Vec<(NodeId, u64)> {
        let mut v: Vec<(NodeId, u64)> = self
            .records
            .iter()
            .map(|(id, r)| (*id, r.lsa.seq))
            .collect();
        v.sort_unstable();
        v
    }

    /// LSAs we hold that are fresher than (or absent from) a peer's
    /// digest — the push half of a digest exchange. Sorted by origin.
    pub fn fresher_than(&self, digest: &[(NodeId, u64)]) -> Vec<LinkStateAnnouncement> {
        let theirs: HashMap<NodeId, u64> = digest.iter().copied().collect();
        let mut v: Vec<LinkStateAnnouncement> = self
            .records
            .values()
            .filter(|r| theirs.get(&r.lsa.origin).is_none_or(|&s| r.lsa.seq > s))
            .map(|r| r.lsa.clone())
            .collect();
        v.sort_by_key(|l| l.origin);
        v
    }

    /// Origins where a peer's digest is fresher than what we hold — the
    /// pull half of a digest exchange. Sorted.
    pub fn stale_origins(&self, digest: &[(NodeId, u64)]) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = digest
            .iter()
            .filter(|(origin, seq)| self.seq_of(*origin) < *seq)
            .map(|(origin, _)| *origin)
            .collect();
        v.sort_unstable();
        v
    }

    /// The stored LSAs for `origins` we actually hold (pull answer).
    pub fn select(&self, origins: &[NodeId]) -> Vec<LinkStateAnnouncement> {
        let mut v: Vec<LinkStateAnnouncement> = origins
            .iter()
            .filter_map(|o| self.records.get(o).map(|r| r.lsa.clone()))
            .collect();
        v.sort_by_key(|l| l.origin);
        v
    }

    /// Snapshot the announced overlay as a graph over ids `0..n`.
    /// Links toward origins missing from the LSDB are kept (the target
    /// may simply not have announced yet); links from missing origins
    /// don't exist.
    pub fn graph(&self, n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for rec in self.records.values() {
            let from = rec.lsa.origin;
            if from.index() >= n {
                continue;
            }
            for l in &rec.lsa.links {
                if l.neighbor.index() < n && l.neighbor != from {
                    g.add_edge(from, l.neighbor, l.cost as f64);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::LinkEntry;

    fn lsa(origin: u32, seq: u64, links: &[(u32, f32)]) -> LinkStateAnnouncement {
        LinkStateAnnouncement {
            origin: NodeId(origin),
            seq,
            links: links
                .iter()
                .map(|&(n, c)| LinkEntry {
                    neighbor: NodeId(n),
                    cost: c,
                })
                .collect(),
        }
    }

    #[test]
    fn fresh_announcements_accepted_stale_rejected() {
        let mut db = Lsdb::new(60.0);
        assert!(db.apply(lsa(1, 5, &[(2, 1.0)]), 0.0));
        assert!(!db.apply(lsa(1, 5, &[(2, 1.0)]), 1.0), "duplicate seq");
        assert!(!db.apply(lsa(1, 4, &[(3, 1.0)]), 2.0), "older seq");
        assert!(db.apply(lsa(1, 6, &[(3, 1.0)]), 3.0), "newer seq");
        assert_eq!(db.seq_of(NodeId(1)), 6);
    }

    #[test]
    fn graph_reflects_latest_announcements() {
        let mut db = Lsdb::new(60.0);
        db.apply(lsa(0, 1, &[(1, 2.0), (2, 3.0)]), 0.0);
        db.apply(lsa(1, 1, &[(2, 1.5)]), 0.0);
        let g = db.graph(3);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(2.0));
        assert_eq!(g.edge_cost(NodeId(1), NodeId(2)), Some(1.5));
        // Replacement drops old links.
        db.apply(lsa(0, 2, &[(2, 9.0)]), 1.0);
        let g = db.graph(3);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), None);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(2)), Some(9.0));
    }

    #[test]
    fn expiry_drops_silent_origins() {
        let mut db = Lsdb::new(60.0);
        db.apply(lsa(0, 1, &[]), 0.0);
        db.apply(lsa(1, 1, &[]), 50.0);
        let dead = db.expire(70.0);
        assert_eq!(dead, vec![NodeId(0)]);
        assert_eq!(db.origins(), vec![NodeId(1)]);
    }

    #[test]
    fn refresh_resets_age() {
        let mut db = Lsdb::new(60.0);
        db.apply(lsa(0, 1, &[]), 0.0);
        db.apply(lsa(0, 2, &[]), 55.0);
        assert!(db.expire(100.0).is_empty());
    }

    #[test]
    fn remove_and_sync_roundtrip() {
        let mut db = Lsdb::new(60.0);
        db.apply(lsa(0, 3, &[(1, 1.0)]), 0.0);
        db.apply(lsa(1, 9, &[(0, 2.0)]), 0.0);
        let all = db.all();
        assert_eq!(all.len(), 2);
        // A newcomer applying the sync sees identical state.
        let mut db2 = Lsdb::new(60.0);
        for l in all {
            db2.apply(l, 0.0);
        }
        assert_eq!(db2.seq_of(NodeId(1)), 9);
        db2.remove(NodeId(0));
        assert_eq!(db2.origins(), vec![NodeId(1)]);
    }

    #[test]
    fn digest_diff_identifies_both_directions() {
        let mut a = Lsdb::new(60.0);
        let mut b = Lsdb::new(60.0);
        a.apply(lsa(0, 5, &[]), 0.0); // a fresher
        a.apply(lsa(1, 2, &[]), 0.0); // b fresher
        b.apply(lsa(1, 7, &[]), 0.0);
        b.apply(lsa(2, 1, &[]), 0.0); // only b
        let d = b.digest();
        assert_eq!(d, vec![(NodeId(1), 7), (NodeId(2), 1)]);
        let push: Vec<NodeId> = a.fresher_than(&d).iter().map(|l| l.origin).collect();
        assert_eq!(push, vec![NodeId(0)]);
        assert_eq!(a.stale_origins(&d), vec![NodeId(1), NodeId(2)]);
        assert_eq!(b.select(&[NodeId(2), NodeId(9)]).len(), 1);
    }

    #[test]
    fn out_of_range_ids_ignored_in_graph() {
        let mut db = Lsdb::new(60.0);
        db.apply(lsa(7, 1, &[(1, 1.0)]), 0.0);
        db.apply(lsa(0, 1, &[(9, 1.0), (1, 2.0)]), 0.0);
        let g = db.graph(3);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(2.0));
    }

    mod anti_entropy {
        use super::*;
        use crate::codec::{decode, encode};
        use crate::message::Message;
        use egoist_netsim::fault::{FaultConfig, FaultInjector, Verdict};
        use proptest::prelude::*;

        /// Pass one message over the lossy link; `None` when dropped.
        fn send(inj: &mut FaultInjector, now: f64, msg: Message) -> Option<Message> {
            let mut frame = encode(&msg).to_vec();
            match inj.process(now, &mut frame) {
                Verdict::Drop | Verdict::Cut => None,
                // Corruption surfaces as a decode failure, i.e. a drop.
                _ => decode(&frame).ok(),
            }
        }

        /// One digest round initiated by `a`: digest → push + pull →
        /// pull answer, every leg individually lossy.
        fn round(a: &mut Lsdb, b: &mut Lsdb, inj: &mut FaultInjector, now: f64) {
            let digest = Message::LsdbDigest {
                from: NodeId(0),
                entries: a.digest(),
            };
            let Some(Message::LsdbDigest { entries, .. }) = send(inj, now, digest) else {
                return;
            };
            let push = Message::LsdbSync {
                lsas: b.fresher_than(&entries),
            };
            if let Some(Message::LsdbSync { lsas }) = send(inj, now, push) {
                for lsa in lsas {
                    a.apply(lsa, now);
                }
            }
            let pull = Message::LsdbPull {
                from: NodeId(1),
                origins: b.stale_origins(&entries),
            };
            if let Some(Message::LsdbPull { origins, .. }) = send(inj, now, pull) {
                let answer = Message::LsdbSync {
                    lsas: a.select(&origins),
                };
                if let Some(Message::LsdbSync { lsas }) = send(inj, now, answer) {
                    for lsa in lsas {
                        b.apply(lsa, now);
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Two LSDBs with arbitrary overlapping/disjoint contents
            /// reconcile to identical databases within a bounded number
            /// of digest rounds, even with 30% seeded message loss.
            #[test]
            fn converges_under_loss(
                seed in any::<u64>(),
                xs in proptest::collection::vec((0u32..48, 1u64..1000), 0..40),
                ys in proptest::collection::vec((0u32..48, 1u64..1000), 0..40),
            ) {
                // An origin's LSA at seq `s` is one global value, so the
                // generated content must be a function of (origin, seq).
                let gen = |o: u32, s: u64| lsa(o, s, &[(o + 1, (s % 7) as f32)]);
                let mut a = Lsdb::new(1e9);
                let mut b = Lsdb::new(1e9);
                for (o, s) in xs {
                    a.apply(gen(o, s), 0.0);
                }
                for (o, s) in ys {
                    b.apply(gen(o, s), 0.0);
                }
                let mut inj = FaultInjector::new(FaultConfig::lossy(0.3), seed);
                let mut rounds = 0usize;
                while a.digest() != b.digest() {
                    prop_assert!(rounds < 64, "no convergence after 64 digest rounds");
                    round(&mut a, &mut b, &mut inj, rounds as f64);
                    rounds += 1;
                }
                // Same digests means same databases (seq identifies the LSA).
                prop_assert_eq!(a.all(), b.all());
            }
        }
    }
}
