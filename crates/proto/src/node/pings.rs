//! Pings awaiting their pong, by nonce. A node issues nonces counting up
//! from one start, and at non-decreasing send times, so the outstanding
//! pings are one window of nonces: a deque that starts at the oldest one
//! still held. A pong is an index lookup, and expiry pops the front,
//! because the oldest pings are the first to time out. Answered pings
//! leave an empty slot until it reaches the front.

use egoist_graph::NodeId;
use std::collections::VecDeque;
use std::time::Duration;
use tokio::time::Instant;

/// The outstanding pings of one node.
#[derive(Clone, Debug)]
pub(super) struct PendingPings {
    /// Nonce of `slots[0]`; the next nonce issued is `base + slots.len()`.
    base: u64,
    /// `(peer, sent at)` per nonce from `base` on; `None` once answered
    /// or cleared.
    slots: VecDeque<Option<(NodeId, Instant)>>,
}

impl PendingPings {
    /// No ping outstanding; the first nonce issued is `first`.
    pub(super) fn new(first: u64) -> Self {
        PendingPings {
            base: first,
            slots: VecDeque::new(),
        }
    }

    /// Hold a ping to `peer` sent at `at`, no earlier than any held
    /// before it; returns its nonce.
    pub(super) fn issue(&mut self, peer: NodeId, at: Instant) -> u64 {
        let nonce = self.base + self.slots.len() as u64;
        self.slots.push_back(Some((peer, at)));
        nonce
    }

    /// The ping `nonce` answers, released; `None` for a nonce this node
    /// does not hold (never issued, answered, expired or cleared).
    pub(super) fn take(&mut self, nonce: u64) -> Option<(NodeId, Instant)> {
        let at = usize::try_from(nonce.checked_sub(self.base)?).ok()?;
        let taken = self.slots.get_mut(at)?.take();
        self.pop_answered();
        taken
    }

    /// Release every ping sent at least `deadline` before `now`, and
    /// return their peers in nonce order.
    pub(super) fn expire(&mut self, now: Instant, deadline: Duration) -> Vec<NodeId> {
        let mut expired = Vec::new();
        while let Some(&front) = self.slots.front() {
            match front {
                Some((peer, at)) if now.duration_since(at) >= deadline => expired.push(peer),
                Some(_) => break,
                None => {}
            }
            self.slots.pop_front();
            self.base += 1;
        }
        expired
    }

    /// Drop every ping to `peer` (a banned peer's pongs are never read).
    pub(super) fn forget(&mut self, peer: NodeId) {
        for slot in &mut self.slots {
            if slot.is_some_and(|(p, _)| p == peer) {
                *slot = None;
            }
        }
        self.pop_answered();
    }

    /// Whether a ping to `peer` is outstanding.
    pub(super) fn awaits(&self, peer: NodeId) -> bool {
        self.outstanding().any(|(p, _)| p == peer)
    }

    /// The outstanding pings, in nonce order.
    pub(super) fn outstanding(&self) -> impl Iterator<Item = (NodeId, Instant)> + '_ {
        self.slots.iter().flatten().copied()
    }

    /// Advance past released slots at the front.
    fn pop_answered(&mut self) {
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The map the deque replaced: nonce → `(peer, sent at)`, expired by
    /// a scan whose peers are sorted, as the node sorted them.
    struct Reference {
        next: u64,
        pending: HashMap<u64, (NodeId, Instant)>,
    }

    impl Reference {
        fn issue(&mut self, peer: NodeId, at: Instant) -> u64 {
            let nonce = self.next;
            self.next += 1;
            self.pending.insert(nonce, (peer, at));
            nonce
        }

        fn expire(&mut self, now: Instant, deadline: Duration) -> Vec<NodeId> {
            let late = |at: &Instant| now.duration_since(*at) >= deadline;
            let mut expired: Vec<NodeId> = self
                .pending
                .values()
                .filter(|(_, at)| late(at))
                .map(|&(peer, _)| peer)
                .collect();
            expired.sort_unstable();
            self.pending.retain(|_, (_, at)| !late(at));
            expired
        }
    }

    /// One step of a random run, from a drawn `(kind, a, b)`: ping peer
    /// `a % 6` `b % 400` ms after the previous step, pong the nonce `a`
    /// back from the next one (the first nonce and ones never issued are
    /// among them), ban peer `a % 6`, or expire `b` ms on.
    fn step(
        window: &mut PendingPings,
        reference: &mut Reference,
        now: &mut Instant,
        (kind, a, b): (u32, u32, u64),
    ) -> Result<(), TestCaseError> {
        let deadline = Duration::from_millis(1500);
        let peer = NodeId(a % 6);
        match kind {
            0..=3 => {
                *now = *now + Duration::from_millis(b % 400);
                prop_assert_eq!(window.issue(peer, *now), reference.issue(peer, *now));
            }
            4..=6 => {
                let nonce = reference.next.wrapping_sub(a as u64);
                prop_assert_eq!(window.take(nonce), reference.pending.remove(&nonce));
            }
            7 => {
                window.forget(peer);
                reference.pending.retain(|_, (p, _)| *p != peer);
            }
            _ => {
                *now = *now + Duration::from_millis(b);
                let mut expired = window.expire(*now, deadline);
                expired.sort_unstable();
                prop_assert_eq!(expired, reference.expire(*now, deadline));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Same pongs matched, same peers expired (sorted), same pings
        /// outstanding, whatever the interleaving.
        #[test]
        fn the_nonce_window_is_the_map_it_replaced(
            high in any::<bool>(),
            ops in collection::vec((0u32..10, 0u32..24, 0u64..3000), 0..120),
        ) {
            let first = if high { 7u64 << 32 } else { 0 };
            let mut now = Instant::now();
            let mut window = PendingPings::new(first);
            let mut reference = Reference { next: first, pending: HashMap::new() };
            for op in ops {
                step(&mut window, &mut reference, &mut now, op)?;
                let mut held: Vec<_> = reference.pending.iter().map(|(&n, &p)| (n, p)).collect();
                held.sort_unstable_by_key(|&(n, _)| n);
                let held: Vec<_> = held.into_iter().map(|(_, p)| p).collect();
                prop_assert_eq!(window.outstanding().collect::<Vec<_>>(), held);
                for peer in 0..6 {
                    let reference_awaits = reference.pending.values().any(|&(p, _)| p == NodeId(peer));
                    prop_assert_eq!(window.awaits(NodeId(peer)), reference_awaits);
                }
                // No answered slot is left at the front.
                prop_assert!(window.slots.front().is_none_or(Option::is_some));
            }
        }
    }
}
