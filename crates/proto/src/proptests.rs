//! Property tests for the protocol state machines.

use crate::lsdb::Lsdb;
use crate::message::{LinkEntry, LinkStateAnnouncement};
use egoist_graph::NodeId;
use proptest::prelude::*;

fn arb_lsa() -> impl Strategy<Value = LinkStateAnnouncement> {
    (
        0u32..20,
        0u64..50,
        proptest::collection::vec((0u32..20, 0.1f32..100.0), 0..6),
    )
        .prop_map(|(origin, seq, links)| LinkStateAnnouncement {
            origin: NodeId(origin),
            seq,
            links: links
                .into_iter()
                .filter(|&(n, _)| n != origin)
                .map(|(n, c)| LinkEntry {
                    neighbor: NodeId(n),
                    cost: c,
                })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LSDB is last-writer-wins per origin with monotone sequence
    /// numbers: after applying any stream of LSAs, each origin's stored
    /// seq is the maximum seen for it, and apply() returned true exactly
    /// when the max advanced.
    #[test]
    fn lsdb_keeps_max_seq_per_origin(lsas in proptest::collection::vec(arb_lsa(), 1..40)) {
        let mut db = Lsdb::new(1e9);
        let mut expected_max: std::collections::HashMap<NodeId, u64> = Default::default();
        for (t, lsa) in lsas.iter().enumerate() {
            let prev = expected_max.get(&lsa.origin).copied();
            let fresh = db.apply(lsa.clone(), t as f64);
            let should_be_fresh = prev.map(|p| lsa.seq > p).unwrap_or(true);
            prop_assert_eq!(fresh, should_be_fresh, "apply() freshness mismatch");
            if should_be_fresh {
                expected_max.insert(lsa.origin, lsa.seq);
            }
        }
        for (origin, seq) in expected_max {
            prop_assert_eq!(db.seq_of(origin), seq);
        }
    }

    /// Syncing a fresh LSDB from `all()` reproduces identical state
    /// (idempotent anti-entropy).
    #[test]
    fn lsdb_sync_is_lossless(lsas in proptest::collection::vec(arb_lsa(), 1..30)) {
        let mut a = Lsdb::new(1e9);
        for (t, lsa) in lsas.into_iter().enumerate() {
            a.apply(lsa, t as f64);
        }
        let mut b = Lsdb::new(1e9);
        for lsa in a.all() {
            b.apply(lsa.to_lsa(), 0.0);
        }
        prop_assert_eq!(a.origins(), b.origins());
        for o in a.origins() {
            prop_assert_eq!(a.seq_of(o), b.seq_of(o));
        }
        // The records agree link for link.
        prop_assert!(a.all().eq(b.all()));
    }

    /// Re-applying a stream in any interleaving with duplicates never
    /// regresses state (duplicates and stale frames are no-ops).
    #[test]
    fn lsdb_is_monotone_under_duplicates(lsas in proptest::collection::vec(arb_lsa(), 1..20)) {
        let mut once = Lsdb::new(1e9);
        for (t, lsa) in lsas.iter().enumerate() {
            once.apply(lsa.clone(), t as f64);
        }
        // Apply everything twice, second pass shuffled by reversal.
        let mut twice = Lsdb::new(1e9);
        for (t, lsa) in lsas.iter().enumerate() {
            twice.apply(lsa.clone(), t as f64);
        }
        for (t, lsa) in lsas.iter().rev().enumerate() {
            twice.apply(lsa.clone(), (lsas.len() + t) as f64);
        }
        prop_assert_eq!(once.origins(), twice.origins());
        for o in once.origins() {
            prop_assert_eq!(once.seq_of(o), twice.seq_of(o));
        }
    }
}
