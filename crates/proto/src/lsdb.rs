//! The link-state database.
//!
//! Every node floods a sequence-numbered announcement of its established
//! links every `T_announce` (§4.3). The LSDB keeps the freshest
//! announcement per origin, deduplicates floods, and ages out origins
//! that go silent (churned-off nodes). Route computation reads the
//! records in place ([`Lsdb::get`]) — the "full residual graph `G_{−i}`"
//! a newcomer obtains (§3.1).
//!
//! Records live in one `Vec` in strictly ascending origin order, so
//! every whole-table read is an ordered walk and every comparison with a
//! peer's digest is one merge join; no hash table. Ids are dense in
//! practice, so a lookup first asks "is position `origin` this origin?"
//! and only binary-searches when it is not. Memory is O(records + links)
//! whatever the ids are: an origin never seen before costs one
//! `Vec::insert`.
//!
//! A fleet holds one LSDB per node, so the per-record constant is most
//! of a fleet's memory. A record is a 40-byte header; the links of every
//! record live in one arena `Vec` per LSDB, one contiguous run each, and
//! reads hand out [`LsaRef`]s that borrow those runs in place. New links
//! overwrite their record's run when they fit and are appended when they
//! do not; the runs left behind are garbage until it outgrows the live
//! links, when one ordered pass re-packs the arena. Both vectors grow by
//! about an eighth, not by doubling.
//!
//! Each record also knows `since`: the lowest seq under which this node
//! has held the origin's current link bytes, unchanged through every
//! fresher apply after it. A peer whose digest names a seq at or past
//! `since` has, unless the origin's links went away and came back
//! between two announcements this node never saw, the same links —
//! so the digest answer ([`Lsdb::fresher_than`]) sends it a
//! [`Refresh`] entry instead of the LSA, and the peer checks the links hash
//! ([`Lsdb::resolve`]) before it believes one.

use crate::codec::links_hash;
use crate::message::{LinkEntry, LinkStateAnnouncement, LsaRef, Refresh};
use egoist_graph::NodeId;
use std::borrow::Cow;

/// Stored record for one origin: the announcement's header, and where
/// its links sit in the LSDB's link arena.
#[derive(Clone, Copy, Debug)]
struct Record {
    origin: NodeId,
    /// The links are `arena[start..start + len]`.
    start: u32,
    len: u32,
    seq: u64,
    /// Lowest seq since which the links have been held unchanged.
    since: u64,
    /// Local (monotonic, seconds) time of last refresh.
    refreshed_at: f64,
}

impl Record {
    fn span(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Whether two link lists are byte-equal: same neighbors, same cost bits,
/// same order.
pub(crate) fn same_links(a: &[LinkEntry], b: &[LinkEntry]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.neighbor == y.neighbor && x.cost.to_bits() == y.cost.to_bits())
}

/// The push half of a digest exchange, each list ascending by origin:
/// the records fresher than (or absent from) the peer's digest, `full`
/// where the peer may not hold their links and as `refreshes` where its
/// digest seq is at or past the record's `since`.
#[derive(Debug, Default, PartialEq)]
pub struct Push<'a> {
    pub full: Vec<LsaRef<'a>>,
    pub refreshes: Vec<Refresh>,
}

impl Push<'_> {
    /// Records pushed, either way.
    pub fn len(&self) -> usize {
        self.full.len() + self.refreshes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a receiver makes of a [`Refresh`] entry.
#[derive(Debug, PartialEq)]
pub enum Resolve {
    /// The stored links hash to the entry's: the announcement the entry
    /// stands for, `(origin, seq)` with those links — byte for byte the
    /// LSA the pusher held.
    Lsa(LinkStateAnnouncement),
    /// Other links, but the stored copy is not older: nothing to learn.
    Stale,
    /// Other links under an older seq, or no record: pull the origin.
    Pull,
}

/// The link-state database.
#[derive(Clone, Debug, Default)]
pub struct Lsdb {
    /// Strictly ascending by `origin`.
    records: Vec<Record>,
    /// Every record's links, one contiguous run per record. A run no
    /// record names any more is garbage until the next compaction.
    arena: Vec<LinkEntry>,
    /// Arena entries no record names.
    garbage: usize,
    /// Announcements older than this many seconds are considered dead.
    pub max_age: f64,
}

/// Make room for `extra` more items, growing by about an eighth rather
/// than doubling: the LSDB is most of a node's memory, and a fleet holds
/// one per node.
fn reserve<T>(v: &mut Vec<T>, extra: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(extra.max(v.len() / 8).max(4));
    }
}

/// `digest` as a strictly origin-ascending slice: itself when it already
/// is one (what [`Lsdb::digest`] produces), else a sorted copy in which
/// the last entry of a repeated origin wins. A digest off the wire
/// proves nothing about its order, so the merge joins below go through
/// this; a caller joining one digest several times can normalise it once
/// and pass the result, which is then only re-verified.
pub(crate) fn ascending(digest: &[(NodeId, u64)]) -> Cow<'_, [(NodeId, u64)]> {
    if digest.windows(2).all(|w| w[0].0 < w[1].0) {
        return Cow::Borrowed(digest);
    }
    let mut sorted = digest.to_vec();
    sorted.sort_by_key(|&(origin, _)| origin); // stable: wire order within an origin
    sorted.dedup_by(|later, kept| {
        let repeat = later.0 == kept.0;
        if repeat {
            *kept = *later;
        }
        repeat
    });
    Cow::Owned(sorted)
}

/// Merge-join cursor: the item of `sorted` (ascending by `key`) whose
/// key is `origin`, looking only at or after `*cursor`, which moves past
/// smaller keys and never back — so a whole ascending run of lookups
/// costs one pass over `sorted`.
fn seek<'a, T>(
    sorted: &'a [T],
    cursor: &mut usize,
    origin: NodeId,
    key: impl Fn(&T) -> NodeId,
) -> Option<&'a T> {
    while sorted.get(*cursor).is_some_and(|t| key(t) < origin) {
        *cursor += 1;
    }
    sorted.get(*cursor).filter(|t| key(t) == origin)
}

impl Lsdb {
    /// New LSDB; `max_age` should be several `T_announce` (the paper's
    /// 20 s announcements and 60 s epochs suggest ~3 missed announcements).
    pub fn new(max_age: f64) -> Self {
        Lsdb {
            max_age,
            ..Lsdb::default()
        }
    }

    /// Where `origin`'s record is (`Ok`) or would be inserted (`Err`).
    fn find(&self, origin: NodeId) -> Result<usize, usize> {
        // Strictly ascending u32 keys: the record at position p has
        // origin ≥ p, so `origin` sits at or before position `origin`.
        let end = self.records.len().min(origin.index().saturating_add(1));
        match self.records[..end].last() {
            Some(r) if r.origin == origin => Ok(end - 1),
            Some(r) if r.origin < origin => Err(end), // past the last record
            _ => self.records[..end].binary_search_by_key(&origin, |r| r.origin),
        }
    }

    /// `r` borrowed as an announcement, its links in place.
    fn lsa(&self, r: &Record) -> LsaRef<'_> {
        LsaRef {
            origin: r.origin,
            seq: r.seq,
            links: &self.arena[r.span()],
        }
    }

    /// Append `links` to the arena; returns where they start.
    fn push_links(&mut self, links: &[LinkEntry]) -> u32 {
        reserve(&mut self.arena, links.len());
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(links);
        // Every run's end, hence every start, then fits a u32.
        assert!(
            self.arena.len() <= u32::MAX as usize,
            "link arena overflows u32"
        );
        start
    }

    /// Re-pack every live run, in origin order, into a fresh arena with
    /// an eighth of headroom, when garbage exceeds the live links.
    fn compact_if_sparse(&mut self) {
        let live = self.arena.len() - self.garbage;
        if self.garbage <= live {
            return;
        }
        let mut packed = Vec::with_capacity(live + live / 8);
        for r in &mut self.records {
            let from = r.span();
            r.start = packed.len() as u32;
            packed.extend_from_slice(&self.arena[from]);
        }
        self.arena = packed;
        self.garbage = 0;
    }

    /// Apply an announcement received at local time `now`.
    /// Returns `true` when it was fresh (and should be flooded onward).
    pub fn apply(&mut self, lsa: LinkStateAnnouncement, now: f64) -> bool {
        self.apply_ref(&lsa, now)
    }

    /// [`Self::apply`] by reference: a fresh announcement of a known
    /// origin overwrites `seq` and, unless they are byte-equal (which
    /// keeps `since`), replaces the record's links and moves `since` to
    /// the new seq. New links overwrite the record's arena run when they
    /// fit (the rest of the run turns garbage) and are appended
    /// otherwise (the whole old run turns garbage).
    pub fn apply_ref(&mut self, lsa: &LinkStateAnnouncement, now: f64) -> bool {
        let len = u32::try_from(lsa.links.len()).expect("link list overflows u32");
        match self.find(lsa.origin) {
            Ok(i) => {
                let rec = self.records[i];
                if rec.seq >= lsa.seq {
                    return false;
                }
                let mut next = Record {
                    seq: lsa.seq,
                    refreshed_at: now,
                    ..rec
                };
                if !same_links(&self.arena[rec.span()], &lsa.links) {
                    next.since = lsa.seq;
                    next.len = len;
                    if len <= rec.len {
                        self.arena[next.span()].copy_from_slice(&lsa.links);
                        self.garbage += (rec.len - len) as usize;
                    } else {
                        next.start = self.push_links(&lsa.links);
                        self.garbage += rec.len as usize;
                    }
                }
                self.records[i] = next;
                self.compact_if_sparse();
            }
            Err(i) => {
                let start = self.push_links(&lsa.links);
                reserve(&mut self.records, 1);
                self.records.insert(
                    i,
                    Record {
                        origin: lsa.origin,
                        start,
                        len,
                        seq: lsa.seq,
                        since: lsa.seq,
                        refreshed_at: now,
                    },
                );
            }
        }
        true
    }

    /// Refresh the age of every record whose `(origin, seq)` matches an
    /// entry in `digest` exactly. A digest naming our exact record proves
    /// the origin is still being re-announced somewhere, so anti-entropy
    /// keeps agreed-on records alive between suppressed announces.
    pub fn touch_matching(&mut self, digest: &[(NodeId, u64)], now: f64) {
        let (digest, mut at) = (ascending(digest), 0);
        for rec in &mut self.records {
            let theirs = seek(&digest, &mut at, rec.origin, |d| d.0);
            if theirs.is_some_and(|d| d.1 == rec.seq) {
                rec.refreshed_at = now;
            }
        }
    }

    /// Drop records that have aged out; returns the expired origins,
    /// ascending.
    pub fn expire(&mut self, now: f64) -> Vec<NodeId> {
        let max_age = self.max_age;
        let (mut dead, mut freed) = (Vec::new(), 0);
        self.records.retain(|r| {
            let expired = now - r.refreshed_at > max_age;
            if expired {
                dead.push(r.origin);
                freed += r.len as usize;
            }
            !expired
        });
        self.garbage += freed;
        self.compact_if_sparse();
        dead
    }

    /// Remove one origin immediately (Leave message).
    pub fn remove(&mut self, origin: NodeId) {
        if let Ok(i) = self.find(origin) {
            self.garbage += self.records.remove(i).len as usize;
            self.compact_if_sparse();
        }
    }

    /// The stored announcement of `origin`, borrowed.
    pub fn get(&self, origin: NodeId) -> Option<LsaRef<'_>> {
        self.find(origin).ok().map(|i| self.lsa(&self.records[i]))
    }

    /// All stored announcements, borrowed, ascending by origin (what a
    /// newcomer's full `LsdbSync` carries).
    pub fn all(&self) -> impl ExactSizeIterator<Item = LsaRef<'_>> + Clone {
        self.records.iter().map(|r| self.lsa(r))
    }

    /// Known origins, ascending, without allocating.
    pub fn origin_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.records.iter().map(|r| r.origin)
    }

    /// Known origins (the announced membership), ascending.
    pub fn origins(&self) -> Vec<NodeId> {
        self.origin_ids().collect()
    }

    /// Number of stored announcements.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Total links over all stored announcements.
    pub fn link_count(&self) -> usize {
        self.arena.len() - self.garbage
    }

    /// True when the LSDB is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Current sequence number of `origin` (0 when unknown).
    pub fn seq_of(&self, origin: NodeId) -> u64 {
        self.find(origin).map_or(0, |i| self.records[i].seq)
    }

    /// Compact anti-entropy summary: `(origin, seq)` pairs, ascending.
    pub fn digest(&self) -> Vec<(NodeId, u64)> {
        self.records.iter().map(|r| (r.origin, r.seq)).collect()
    }

    /// The records we hold that are fresher than (or absent from) a
    /// peer's digest — the push half of a digest exchange — split into
    /// full LSAs and refresh entries by `since` (see [`Push`]).
    pub fn fresher_than(&self, digest: &[(NodeId, u64)]) -> Push<'_> {
        let (digest, mut at) = (ascending(digest), 0);
        let mut push = Push::default();
        for r in &self.records {
            match seek(&digest, &mut at, r.origin, |d| d.0) {
                Some(&(_, theirs)) if r.seq <= theirs => {}
                Some(&(_, theirs)) if r.since <= theirs => push.refreshes.push(Refresh {
                    origin: r.origin,
                    seq: r.seq,
                    links_hash: links_hash(&self.arena[r.span()]),
                }),
                _ => push.full.push(self.lsa(r)),
            }
        }
        push
    }

    /// Resolve a received refresh entry against the stored copy. A
    /// matching hash yields the entry's announcement whatever the stored
    /// seq, so admitting it does exactly what admitting the full LSA
    /// would have done, fresh or not.
    pub fn resolve(&self, r: &Refresh) -> Resolve {
        match self.get(r.origin) {
            Some(ours) if links_hash(ours.links) == r.links_hash => {
                Resolve::Lsa(LsaRef { seq: r.seq, ..ours }.to_lsa())
            }
            Some(ours) if ours.seq >= r.seq => Resolve::Stale,
            _ => Resolve::Pull,
        }
    }

    /// Origins where a peer's digest is fresher than what we hold — the
    /// pull half of a digest exchange. Ascending.
    pub fn stale_origins(&self, digest: &[(NodeId, u64)]) -> Vec<NodeId> {
        let mut at = 0;
        ascending(digest)
            .iter()
            .filter(|&&(origin, seq)| {
                let ours = seek(&self.records, &mut at, origin, |r| r.origin);
                ours.map_or(0, |r| r.seq) < seq
            })
            .map(|&(origin, _)| origin)
            .collect()
    }

    /// The stored LSAs for `origins` we actually hold (pull answer), once
    /// each however often a request names them, ascending by origin.
    pub fn select(&self, origins: &[NodeId]) -> Vec<LsaRef<'_>> {
        let mut v: Vec<_> = origins.iter().filter_map(|&o| self.get(o)).collect();
        v.sort_by_key(|l| l.origin);
        v.dedup_by_key(|l| l.origin);
        v
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

    /// `l` borrowed, as the LSDB hands records out.
    fn r(l: &LinkStateAnnouncement) -> LsaRef<'_> {
        l.into()
    }

    /// Every arena run in bounds and disjoint, and the garbage count
    /// exactly what no record names.
    fn arena_is_consistent(db: &Lsdb) -> bool {
        let mut spans: Vec<_> = db.records.iter().map(Record::span).collect();
        spans.sort_by_key(|s| (s.start, s.end));
        let named: usize = spans.iter().map(|s| s.len()).sum();
        spans.iter().all(|s| s.end <= db.arena.len())
            && spans.windows(2).all(|w| w[0].end <= w[1].start)
            && db.garbage == db.arena.len() - named
    }

    #[test]
    fn a_record_is_a_forty_byte_header() {
        // One per (node, origin) pair across a fleet: origin, run, seq,
        // since and age, with the links in the arena.
        assert_eq!(std::mem::size_of::<Record>(), 40);
    }

    #[test]
    fn fitting_links_overwrite_their_run_and_garbage_is_compacted() {
        let mut db = Lsdb::new(60.0);
        db.apply(lsa(0, 1, &[(1, 1.0), (2, 2.0), (3, 3.0)]), 0.0);
        db.apply(lsa(1, 1, &[(0, 1.0)]), 0.0);
        assert_eq!((db.arena.len(), db.garbage), (4, 0));
        // Same length, new costs: in place.
        db.apply(lsa(0, 2, &[(1, 1.5), (2, 2.5), (3, 3.5)]), 1.0);
        assert_eq!((db.arena.len(), db.garbage, db.records[0].start), (4, 0, 0));
        // Shorter: in place, the run's tail turns garbage.
        db.apply(lsa(0, 3, &[(2, 2.0)]), 2.0);
        assert_eq!((db.arena.len(), db.garbage, db.records[0].start), (4, 2, 0));
        assert!(arena_is_consistent(&db));
        // Longer than its run: appended, the old run all garbage — three
        // garbage entries against three live ones, so no compaction yet.
        db.apply(lsa(1, 2, &[(0, 1.0), (2, 1.0)]), 3.0);
        assert_eq!((db.arena.len(), db.garbage, db.records[1].start), (6, 3, 4));
        assert!(arena_is_consistent(&db));
        // One more garbage entry than live: re-packed in origin order.
        db.apply(lsa(1, 3, &[(0, 1.0)]), 4.0);
        assert_eq!(db.garbage, 0);
        assert_eq!(
            &db.arena[..],
            [(2, 2.0), (0, 1.0)].map(|(n, c)| LinkEntry {
                neighbor: NodeId(n),
                cost: c,
            })
        );
        assert_eq!(db.get(NodeId(0)), Some(r(&lsa(0, 3, &[(2, 2.0)]))));
        assert_eq!(db.get(NodeId(1)), Some(r(&lsa(1, 3, &[(0, 1.0)]))));
        assert!(arena_is_consistent(&db));
        // Removing the last records leaves an empty arena.
        db.remove(NodeId(0));
        db.remove(NodeId(1));
        assert_eq!((db.arena.len(), db.garbage, db.link_count()), (0, 0, 0));
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
    fn records_reflect_latest_announcements() {
        let mut db = Lsdb::new(60.0);
        db.apply(lsa(0, 1, &[(1, 2.0), (2, 3.0)]), 0.0);
        db.apply(lsa(1, 1, &[(2, 1.5)]), 0.0);
        assert_eq!(
            db.get(NodeId(0)),
            Some(r(&lsa(0, 1, &[(1, 2.0), (2, 3.0)])))
        );
        assert_eq!(db.get(NodeId(1)), Some(r(&lsa(1, 1, &[(2, 1.5)]))));
        assert_eq!(db.get(NodeId(2)), None);
        // Replacement drops old links, by value and by reference.
        db.apply(lsa(0, 2, &[(2, 9.0)]), 1.0);
        assert_eq!(db.get(NodeId(0)), Some(r(&lsa(0, 2, &[(2, 9.0)]))));
        assert!(db.apply_ref(&lsa(0, 3, &[]), 2.0));
        assert_eq!(db.get(NodeId(0)), Some(r(&lsa(0, 3, &[]))));
        assert_eq!(db.link_count(), 1);
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
        assert_eq!(db.all().len(), 2);
        // A newcomer applying the sync sees identical state.
        let mut db2 = Lsdb::new(60.0);
        for l in db.all() {
            db2.apply(l.to_lsa(), 0.0);
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
        let push = a.fresher_than(&d);
        assert_eq!(
            push.full.iter().map(|l| l.origin).collect::<Vec<_>>(),
            [NodeId(0)]
        );
        assert!(push.refreshes.is_empty());
        assert_eq!(a.stale_origins(&d), vec![NodeId(1), NodeId(2)]);
        assert_eq!(b.select(&[NodeId(2), NodeId(9)]).len(), 1);
    }

    #[test]
    fn a_pull_naming_one_origin_a_thousand_times_gets_one_lsa() {
        let mut db = Lsdb::new(60.0);
        db.apply(lsa(3, 4, &[(1, 2.0)]), 0.0);
        db.apply(lsa(5, 1, &[]), 0.0);
        let answer = db.select(&[NodeId(3); 1000]);
        assert_eq!(answer, [r(&lsa(3, 4, &[(1, 2.0)]))]);
        let mixed: Vec<NodeId> = (0..1000).map(|i| NodeId([5, 3, 9][i % 3])).collect();
        let origins: Vec<NodeId> = db.select(&mixed).iter().map(|l| l.origin).collect();
        assert_eq!(origins, [NodeId(3), NodeId(5)]);
    }

    #[test]
    fn since_survives_byte_equal_refreshes_only() {
        let mut db = Lsdb::new(60.0);
        let since = |db: &Lsdb| db.records[0].since;
        db.apply(lsa(0, 2, &[(1, 1.5)]), 0.0);
        assert_eq!(since(&db), 2);
        db.apply(lsa(0, 5, &[(1, 1.5)]), 1.0); // same bytes: kept
        assert_eq!(since(&db), 2);
        db.apply(lsa(0, 4, &[(7, 1.0)]), 2.0); // stale: ignored
        assert_eq!((since(&db), db.seq_of(NodeId(0))), (2, 5));
        db.apply(lsa(0, 6, &[(1, 1.75)]), 3.0); // new cost
        assert_eq!(since(&db), 6);
        db.apply(lsa(0, 9, &[(1, 1.5)]), 4.0); // back to the old bytes: new run
        assert_eq!(since(&db), 9);
        db.remove(NodeId(0));
        db.apply(lsa(0, 10, &[(1, 1.5)]), 5.0); // re-inserted
        assert_eq!(since(&db), 10);

        // A digest at or past `since` gets a refresh, an older one the LSA.
        let pushed = |db: &Lsdb, theirs: u64| {
            let p = db.fresher_than(&[(NodeId(0), theirs)]);
            (p.full.len(), p.refreshes)
        };
        db.apply(lsa(0, 12, &[(1, 1.5)]), 6.0);
        let refresh = Refresh {
            origin: NodeId(0),
            seq: 12,
            links_hash: links_hash(&[LinkEntry {
                neighbor: NodeId(1),
                cost: 1.5,
            }]),
        };
        assert_eq!(pushed(&db, 9), (1, vec![]));
        assert_eq!(pushed(&db, 10), (0, vec![refresh]));
        assert_eq!(pushed(&db, 11), (0, vec![refresh]));
        assert_eq!(pushed(&db, 12), (0, vec![]));
    }

    #[test]
    fn resolve_admits_matches_and_pulls_what_it_lacks() {
        let mut db = Lsdb::new(60.0);
        let links = [(2, 3.0), (4, 1.0)];
        db.apply(lsa(1, 5, &links), 0.0);
        let hash = links_hash(&lsa(1, 5, &links).links);
        let entry = |origin: u32, seq: u64, links_hash: u32| Refresh {
            origin: NodeId(origin),
            seq,
            links_hash,
        };
        // Matching hash: the full LSA, at the entry's seq, fresher or not.
        for seq in [4, 5, 9] {
            assert_eq!(
                db.resolve(&entry(1, seq, hash)),
                Resolve::Lsa(lsa(1, seq, &links))
            );
        }
        // Other links: pulled when fresher, dropped otherwise.
        assert_eq!(db.resolve(&entry(1, 9, hash ^ 1)), Resolve::Pull);
        assert_eq!(db.resolve(&entry(1, 5, hash ^ 1)), Resolve::Stale);
        assert_eq!(db.resolve(&entry(1, 2, hash ^ 1)), Resolve::Stale);
        // Unknown origin: pulled whatever the hash.
        assert_eq!(db.resolve(&entry(7, 1, hash)), Resolve::Pull);
    }

    #[test]
    fn arbitrary_ids_are_stored_in_origin_order() {
        // Ids off the wire are any u32: each costs one record, never a
        // table sized by the id, and iteration stays ascending.
        let mut db = Lsdb::new(60.0);
        for origin in [u32::MAX, 7, 0, u32::MAX - 1, 3] {
            assert!(db.apply(lsa(origin, 1, &[(9, 1.0)]), 0.0));
        }
        let want = [0, 3, 7, u32::MAX - 1, u32::MAX].map(NodeId);
        assert_eq!(db.origins(), want);
        assert!(db.all().map(|l| l.origin).eq(want));
        assert_eq!(db.len(), 5);
        assert_eq!(db.seq_of(NodeId(u32::MAX)), 1);
        db.remove(NodeId(7));
        db.remove(NodeId(8)); // unknown: no-op
        assert_eq!(db.origins(), [0, 3, u32::MAX - 1, u32::MAX].map(NodeId));
    }

    /// The table against a `HashMap` model (what the LSDB was before it
    /// became an ordered `Vec`): same answers, ordered outputs ascending,
    /// and the same `since` over histories that repeat and change links.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        type Digest = Vec<(NodeId, u64)>;

        /// A stored announcement, its age and its `since`.
        type Stored = (LinkStateAnnouncement, f64, u64);

        #[derive(Debug, Default)]
        struct Model {
            records: HashMap<NodeId, Stored>,
            max_age: f64,
        }

        /// The links as an LSA frame carries them.
        fn wire(links: &[LinkEntry]) -> Vec<u8> {
            let words = links.iter().flat_map(|l| [l.neighbor.0, l.cost.to_bits()]);
            words.flat_map(u32::to_be_bytes).collect()
        }

        /// The refresh hash, from its definition: the frame checksum
        /// over the encoded links.
        fn hash(links: &[LinkEntry]) -> u32 {
            crate::codec::fnv1a(&wire(links))
        }

        impl Model {
            fn apply(&mut self, lsa: &LinkStateAnnouncement, now: f64) -> bool {
                let since = match self.records.get(&lsa.origin) {
                    Some((old, _, _)) if old.seq >= lsa.seq => return false,
                    Some((old, _, since)) if wire(&old.links) == wire(&lsa.links) => *since,
                    _ => lsa.seq,
                };
                self.records.insert(lsa.origin, (lsa.clone(), now, since));
                true
            }

            fn sorted(&self) -> Vec<(&LinkStateAnnouncement, f64, u64)> {
                let mut v: Vec<_> = self
                    .records
                    .values()
                    .map(|(l, at, s)| (l, *at, *s))
                    .collect();
                v.sort_by_key(|(l, _, _)| l.origin);
                v
            }

            fn expire(&mut self, now: f64) -> Vec<NodeId> {
                let max_age = self.max_age;
                let mut dead: Vec<NodeId> = self
                    .records
                    .iter()
                    .filter(|(_, (_, at, _))| now - at > max_age)
                    .map(|(o, _)| *o)
                    .collect();
                dead.sort_unstable();
                for o in &dead {
                    self.records.remove(o);
                }
                dead
            }

            /// A digest is a map: the last entry of an origin wins.
            fn theirs(digest: &Digest) -> HashMap<NodeId, u64> {
                digest.iter().copied().collect()
            }

            fn touch_matching(&mut self, digest: &Digest, now: f64) {
                let theirs = Self::theirs(digest);
                for (origin, (lsa, at, _)) in &mut self.records {
                    if theirs.get(origin) == Some(&lsa.seq) {
                        *at = now;
                    }
                }
            }

            fn fresher_than(&self, digest: &Digest) -> Push<'_> {
                let theirs = Self::theirs(digest);
                let mut push = Push::default();
                for (l, _, since) in self.sorted() {
                    match theirs.get(&l.origin) {
                        Some(&s) if l.seq <= s => {}
                        Some(&s) if since <= s => push.refreshes.push(Refresh {
                            origin: l.origin,
                            seq: l.seq,
                            links_hash: hash(&l.links),
                        }),
                        _ => push.full.push(r(l)),
                    }
                }
                push
            }

            fn resolve(&self, r: &Refresh) -> Resolve {
                match self.records.get(&r.origin) {
                    Some((l, _, _)) if hash(&l.links) == r.links_hash => {
                        Resolve::Lsa(LinkStateAnnouncement {
                            seq: r.seq,
                            ..l.clone()
                        })
                    }
                    Some((l, _, _)) if l.seq >= r.seq => Resolve::Stale,
                    _ => Resolve::Pull,
                }
            }

            fn stale_origins(&self, digest: &Digest) -> Vec<NodeId> {
                let seq_of = |o: &NodeId| self.records.get(o).map_or(0, |(l, _, _)| l.seq);
                let mut v: Vec<NodeId> = Self::theirs(digest)
                    .into_iter()
                    .filter(|(o, seq)| seq_of(o) < *seq)
                    .map(|(o, _)| o)
                    .collect();
                v.sort_unstable();
                v
            }

            fn select(&self, origins: &[NodeId]) -> Vec<LsaRef<'_>> {
                let wanted: std::collections::BTreeSet<NodeId> = origins.iter().copied().collect();
                wanted
                    .iter()
                    .filter_map(|o| self.records.get(o).map(|(l, _, _)| r(l)))
                    .collect()
            }
        }

        /// Link variants per origin.
        const VARIANTS: u32 = 9;

        /// One of [`VARIANTS`] link sets per origin, 0 to 6 links long,
        /// so histories repeat links under new seqs, change them (to as
        /// many links, fewer — which overwrite the record's arena run —
        /// or more, which append), and return to an earlier set.
        fn links(o: u32, variant: u32) -> Vec<(u32, f32)> {
            let len = [0, 1, 2, 1, 4, 6, 2, 3, 5][variant as usize];
            (0..len)
                .map(|i| {
                    (
                        o.wrapping_add(1 + i),
                        2.0 + 0.5 * (variant % 3) as f32 + i as f32,
                    )
                })
                .collect()
        }

        /// Small dense ids, ids past any fleet's `n`, and the top of the
        /// `u32` range.
        fn origin(code: u32) -> NodeId {
            NodeId(match code {
                0..=11 => code,
                12 => 1000,
                13 => 70_000,
                14 => u32::MAX - 1,
                _ => u32::MAX,
            })
        }

        #[derive(Clone, Debug)]
        enum Op {
            Apply(LinkStateAnnouncement),
            ApplyRef(LinkStateAnnouncement),
            Remove(NodeId),
            Expire,
            Touch(Digest),
            FresherThan(Digest),
            StaleOrigins(Digest),
            Select(Vec<NodeId>),
            Resolve(Refresh),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            (
                0u32..12,
                (0u32..16, 0u64..6, 0u32..VARIANTS + 1),
                proptest::collection::vec((0u32..16, 0u64..6), 0..14),
                any::<bool>(),
            )
                .prop_map(|(kind, (o, seq, variant), raw, tidy)| {
                    let id = origin(o);
                    let announcement = lsa(id.0, seq, &links(o, variant % VARIANTS));
                    // Half the digests are what an honest peer sends
                    // (ascending, one entry per origin); the rest arrive
                    // unsorted, with repeats, as generated.
                    let mut digest: Digest = raw.iter().map(|&(o, s)| (origin(o), s)).collect();
                    if tidy {
                        digest.sort_unstable();
                        digest.dedup_by_key(|d| d.0);
                    }
                    match kind {
                        0..=2 => Op::Apply(announcement),
                        3 | 4 => Op::ApplyRef(announcement),
                        5 => Op::Remove(id),
                        6 => Op::Expire,
                        7 => Op::Touch(digest),
                        8 => Op::FresherThan(digest),
                        9 => Op::StaleOrigins(digest),
                        10 => Op::Select(digest.into_iter().map(|d| d.0).collect()),
                        // The extra variant is a hash no link set has.
                        _ => Op::Resolve(Refresh {
                            origin: id,
                            seq,
                            links_hash: if variant == VARIANTS {
                                0x5EED
                            } else {
                                hash(&announcement.links)
                            },
                        }),
                    }
                })
        }

        fn is_ascending(ids: impl Iterator<Item = NodeId>) -> bool {
            let ids: Vec<NodeId> = ids.collect();
            ids.windows(2).all(|w| w[0] <= w[1])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn ordered_table_matches_the_hash_map(
                ops in proptest::collection::vec(arb_op(), 0..60),
            ) {
                let max_age = 7.0;
                let mut db = Lsdb::new(max_age);
                let mut model = Model { max_age, ..Model::default() };
                for (step, op) in ops.into_iter().enumerate() {
                    let now = step as f64;
                    match op {
                        Op::Apply(l) => {
                            prop_assert_eq!(model.apply(&l, now), db.apply(l, now));
                        }
                        Op::ApplyRef(l) => {
                            prop_assert_eq!(db.apply_ref(&l, now), model.apply(&l, now));
                        }
                        Op::Remove(o) => {
                            db.remove(o);
                            model.records.remove(&o);
                        }
                        Op::Expire => prop_assert_eq!(db.expire(now), model.expire(now)),
                        Op::Touch(d) => {
                            db.touch_matching(&d, now);
                            model.touch_matching(&d, now);
                        }
                        Op::FresherThan(d) => {
                            let got = db.fresher_than(&d);
                            prop_assert!(is_ascending(got.full.iter().map(|l| l.origin)));
                            prop_assert!(is_ascending(got.refreshes.iter().map(|r| r.origin)));
                            prop_assert_eq!(got, model.fresher_than(&d));
                        }
                        Op::Resolve(r) => prop_assert_eq!(db.resolve(&r), model.resolve(&r)),
                        Op::StaleOrigins(d) => {
                            let got = db.stale_origins(&d);
                            prop_assert!(is_ascending(got.iter().copied()));
                            prop_assert_eq!(got, model.stale_origins(&d));
                        }
                        Op::Select(origins) => {
                            let got = db.select(&origins);
                            prop_assert!(is_ascending(got.iter().map(|l| l.origin)));
                            prop_assert_eq!(got, model.select(&origins));
                        }
                    }
                    // Whole state after every step: records, links, ages,
                    // `since`, order, and an arena whose garbage never
                    // outgrows its live links.
                    let want: Vec<_> =
                        model.sorted().into_iter().map(|(l, at, s)| (r(l), at, s)).collect();
                    let got: Vec<_> =
                        db.records.iter().map(|rec| (db.lsa(rec), rec.refreshed_at, rec.since)).collect();
                    prop_assert_eq!(&got, &want);
                    prop_assert!(db.records.windows(2).all(|w| w[0].origin < w[1].origin));
                    prop_assert!(db.records.iter().all(|rec| rec.since <= rec.seq));
                    prop_assert!(arena_is_consistent(&db));
                    prop_assert!(db.garbage <= db.link_count());
                    prop_assert_eq!(db.len(), want.len());
                    prop_assert_eq!(db.is_empty(), want.is_empty());
                    prop_assert_eq!(
                        db.digest(),
                        want.iter().map(|(l, _, _)| (l.origin, l.seq)).collect::<Digest>()
                    );
                    prop_assert_eq!(db.origins(), want.iter().map(|(l, _, _)| l.origin).collect::<Vec<_>>());
                    prop_assert_eq!(
                        db.link_count(),
                        want.iter().map(|(l, _, _)| l.links.len()).sum::<usize>()
                    );
                    for code in 0..16 {
                        let o = origin(code);
                        prop_assert_eq!(db.get(o), model.records.get(&o).map(|(l, _, _)| r(l)));
                        prop_assert_eq!(db.seq_of(o), db.get(o).map_or(0, |l| l.seq));
                    }
                }
            }

            /// `ascending` borrows an honest digest and otherwise sorts a
            /// copy in which the last entry of an origin wins.
            #[test]
            fn ascending_is_the_last_wins_map(
                raw in proptest::collection::vec((0u32..16, 0u64..6), 0..20),
            ) {
                let digest: Digest = raw.iter().map(|&(o, s)| (origin(o), s)).collect();
                let got = ascending(&digest);
                let mut want: Digest = Model::theirs(&digest).into_iter().collect();
                want.sort_unstable();
                prop_assert_eq!(&got[..], &want[..]);
                let honest = digest.windows(2).all(|w| w[0].0 < w[1].0);
                prop_assert_eq!(matches!(got, Cow::Borrowed(_)), honest);
            }
        }
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
            let verdict = inj.verdict(now, NodeId(0), NodeId(1), frame.len());
            verdict.damage(&mut frame);
            match verdict {
                Verdict::Drop | Verdict::Cut => None,
                // Corruption surfaces as a decode failure, i.e. a drop.
                _ => decode(&frame).ok(),
            }
        }

        /// `from` answers a pull for `origins` and `to` applies what
        /// arrives, both legs lossy.
        fn pull(
            from: &Lsdb,
            to: &mut Lsdb,
            origins: Vec<NodeId>,
            inj: &mut FaultInjector,
            now: f64,
        ) {
            let request = Message::LsdbPull {
                from: NodeId(1),
                origins,
            };
            if let Some(Message::LsdbPull { origins, .. }) = send(inj, now, request) {
                let answer = Message::LsdbSync {
                    lsas: from
                        .select(&origins)
                        .into_iter()
                        .map(LsaRef::to_lsa)
                        .collect(),
                    refreshes: vec![],
                };
                if let Some(Message::LsdbSync { lsas, .. }) = send(inj, now, answer) {
                    for lsa in lsas {
                        to.apply(lsa, now);
                    }
                }
            }
        }

        /// One digest round initiated by `a`: digest → push (full LSAs
        /// and refresh entries; `a` pulls the entries whose links it
        /// lacks) + pull → pull answers, every leg individually lossy.
        fn round(a: &mut Lsdb, b: &mut Lsdb, inj: &mut FaultInjector, now: f64) {
            let digest = Message::LsdbDigest {
                from: NodeId(0),
                entries: a.digest(),
            };
            let Some(Message::LsdbDigest { entries, .. }) = send(inj, now, digest) else {
                return;
            };
            let fresher = b.fresher_than(&entries);
            let push = Message::LsdbSync {
                lsas: fresher.full.into_iter().map(LsaRef::to_lsa).collect(),
                refreshes: fresher.refreshes,
            };
            if let Some(Message::LsdbSync { lsas, refreshes }) = send(inj, now, push) {
                for lsa in lsas {
                    a.apply(lsa, now);
                }
                let mut lacking = Vec::new();
                for r in refreshes {
                    match a.resolve(&r) {
                        Resolve::Lsa(lsa) => {
                            a.apply(lsa, now);
                        }
                        Resolve::Stale => {}
                        Resolve::Pull => lacking.push(r.origin),
                    }
                }
                if !lacking.is_empty() {
                    pull(b, a, lacking, inj, now);
                }
            }
            let stale = b.stale_origins(&entries);
            pull(a, b, stale, inj, now);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Two LSDBs with arbitrary overlapping/disjoint contents
            /// reconcile to identical databases within a bounded number
            /// of digest rounds, even with 30% seeded message loss —
            /// with refresh entries both ways, including for links one
            /// side held under a seq the other never saw (an A-B-A
            /// history, which the hash turns into a pull).
            #[test]
            fn converges_under_loss(
                seed in any::<u64>(),
                xs in proptest::collection::vec((0u32..48, 1u64..1000), 0..40),
                ys in proptest::collection::vec((0u32..48, 1u64..1000), 0..40),
            ) {
                // An origin's LSA at seq `s` is one global value, so the
                // generated content must be a function of (origin, seq);
                // three link sets per origin make runs and returns common.
                let gen = |o: u32, s: u64| lsa(o, s, &[(o + 1, (s % 3) as f32)]);
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
                    if rounds.is_multiple_of(2) {
                        round(&mut a, &mut b, &mut inj, rounds as f64);
                    } else {
                        round(&mut b, &mut a, &mut inj, rounds as f64);
                    }
                    rounds += 1;
                }
                // Same digests means same databases (seq identifies the LSA).
                prop_assert!(a.all().eq(b.all()));
            }
        }
    }
}
