//! Wire messages of the EGOIST protocol.
//!
//! Sizes follow §4.3: a link-state packet carries "its ID, its neighbors'
//! IDs and the cost of the established links to its k neighbors"; header
//! and padding are 192 bits and each neighbor entry 32 bits. Our concrete
//! encoding differs: costs are `f32`s, and the codec writes ids, seqs and
//! costs as varints (a fleet's neighbor entry takes 2–3 bytes, an
//! escaped cost up to 4 more; see [`crate::codec`]), so the same `O(k)`
//! scaling holds below the paper's price, and [`crate::overhead`]
//! accounts for both.

use egoist_graph::NodeId;

/// One neighbor entry in a link-state announcement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkEntry {
    pub neighbor: NodeId,
    /// Announced cost of the established link (metric units).
    pub cost: f32,
}

/// A sequence-numbered link-state announcement.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkStateAnnouncement {
    pub origin: NodeId,
    /// Monotonic per-origin sequence number; higher supersedes lower.
    pub seq: u64,
    pub links: Vec<LinkEntry>,
}

/// A link-state announcement borrowed in place: what the LSDB hands out
/// for a stored record (whose links live in the LSDB's one link arena),
/// and what the codec encodes an announcement from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LsaRef<'a> {
    pub origin: NodeId,
    pub seq: u64,
    pub links: &'a [LinkEntry],
}

impl LsaRef<'_> {
    /// The owned announcement, links copied.
    pub fn to_lsa(self) -> LinkStateAnnouncement {
        LinkStateAnnouncement {
            origin: self.origin,
            seq: self.seq,
            links: self.links.to_vec(),
        }
    }
}

impl<'a> From<&'a LinkStateAnnouncement> for LsaRef<'a> {
    fn from(lsa: &'a LinkStateAnnouncement) -> Self {
        LsaRef {
            origin: lsa.origin,
            seq: lsa.seq,
            links: &lsa.links,
        }
    }
}

/// An anti-entropy refresh: `origin`'s announcement `seq` carries links
/// whose [`crate::codec::links_hash`] is `links_hash` — links the
/// receiver's digest shows it already holds, so they are not resent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Refresh {
    pub origin: NodeId,
    pub seq: u64,
    pub links_hash: u32,
}

/// All EGOIST protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Join request to the bootstrap service.
    BootstrapRequest { from: NodeId },
    /// Candidate neighbor list from the bootstrap service.
    BootstrapResponse { peers: Vec<NodeId> },
    /// First contact with a peer; the receiver replies with `LsdbSync`.
    Hello { from: NodeId },
    /// Full LSDB transfer to a newcomer, or an anti-entropy delta: full
    /// `lsas`, plus — in a digest answer only — `refreshes` standing in
    /// for announcements whose links the receiver already holds. A
    /// receiver that does not hold them pulls the origin (`LsdbPull`).
    LsdbSync {
        lsas: Vec<LinkStateAnnouncement>,
        refreshes: Vec<Refresh>,
    },
    /// Anti-entropy digest: the sender's per-origin `(origin, seq)`
    /// summary, exchanged with one rotating partner per sync tick. The
    /// receiver pushes back fresher LSAs (`LsdbSync`) and pulls stale
    /// ones (`LsdbPull`).
    LsdbDigest {
        from: NodeId,
        entries: Vec<(NodeId, u64)>,
    },
    /// Anti-entropy delta pull: origins where the digest sender was
    /// fresher, or whose refresh entries named links the puller does not
    /// hold; answered with an `LsdbSync` carrying just those LSAs, full.
    LsdbPull { from: NodeId, origins: Vec<NodeId> },
    /// Gossiped link-state announcement. `ttl` bounds forwarding: each
    /// fresh receiver re-gossips with `ttl − 1` until it hits zero;
    /// anti-entropy repairs whatever the bounded push missed.
    LinkState { lsa: LinkStateAnnouncement, ttl: u8 },
    /// Measurement probe (ICMP ECHO stand-in; §4.3 sizes it at 320
    /// bits). `hb` marks keepalives on established links (§3.3), which
    /// the overhead ledger classes as heartbeat rather than measurement.
    Ping { from: NodeId, nonce: u64, hb: bool },
    /// Probe reply echoing the nonce (and the heartbeat marker).
    Pong { from: NodeId, nonce: u64, hb: bool },
    /// Aggressive keepalive on donated backbone links (§3.3).
    Heartbeat { from: NodeId },
    /// Graceful departure.
    Leave { from: NodeId },
}

impl Message {
    /// The sender a message names in its `from` field, for the kinds
    /// that carry one. Receivers drop a frame whose named sender is not
    /// the endpoint it came from: a forged `Leave`, `Pong` or `Hello`
    /// would otherwise act on, or answer, a third party.
    pub fn claimed_sender(&self) -> Option<NodeId> {
        match *self {
            Message::BootstrapRequest { from }
            | Message::Hello { from }
            | Message::LsdbDigest { from, .. }
            | Message::LsdbPull { from, .. }
            | Message::Ping { from, .. }
            | Message::Pong { from, .. }
            | Message::Heartbeat { from }
            | Message::Leave { from } => Some(from),
            Message::BootstrapResponse { .. }
            | Message::LsdbSync { .. }
            | Message::LinkState { .. } => None,
        }
    }

    /// Message-class label for overhead accounting.
    pub fn class(&self) -> MessageClass {
        match self {
            Message::BootstrapRequest { .. } | Message::BootstrapResponse { .. } => {
                MessageClass::Bootstrap
            }
            Message::Hello { .. }
            | Message::LsdbSync { .. }
            | Message::LsdbDigest { .. }
            | Message::LsdbPull { .. } => MessageClass::Sync,
            Message::LinkState { .. } => MessageClass::LinkState,
            Message::Ping { hb: false, .. } | Message::Pong { hb: false, .. } => {
                MessageClass::Measurement
            }
            Message::Ping { hb: true, .. }
            | Message::Pong { hb: true, .. }
            | Message::Heartbeat { .. } => MessageClass::Heartbeat,
            Message::Leave { .. } => MessageClass::Control,
        }
    }
}

/// Coarse class used by the overhead accountant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageClass {
    Bootstrap,
    Sync,
    LinkState,
    Measurement,
    Heartbeat,
    Control,
}

impl MessageClass {
    /// All classes, for iteration in reports.
    pub const ALL: [MessageClass; 6] = [
        MessageClass::Bootstrap,
        MessageClass::Sync,
        MessageClass::LinkState,
        MessageClass::Measurement,
        MessageClass::Heartbeat,
        MessageClass::Control,
    ];

    /// Stable lowercase label (metric names, reports).
    pub fn label(self) -> &'static str {
        match self {
            MessageClass::Bootstrap => "bootstrap",
            MessageClass::Sync => "sync",
            MessageClass::LinkState => "link_state",
            MessageClass::Measurement => "measurement",
            MessageClass::Heartbeat => "heartbeat",
            MessageClass::Control => "control",
        }
    }

    /// Position in [`MessageClass::ALL`], for dense per-class tables.
    pub fn slot(self) -> usize {
        MessageClass::ALL
            .iter()
            .position(|&c| c == self)
            .expect("ALL covers every class")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_all_messages() {
        let msgs = [
            Message::BootstrapRequest { from: NodeId(1) },
            Message::BootstrapResponse {
                peers: vec![NodeId(2)],
            },
            Message::Hello { from: NodeId(1) },
            Message::LsdbSync {
                lsas: vec![],
                refreshes: vec![],
            },
            Message::LsdbDigest {
                from: NodeId(1),
                entries: vec![(NodeId(2), 7)],
            },
            Message::LsdbPull {
                from: NodeId(1),
                origins: vec![NodeId(2)],
            },
            Message::LinkState {
                lsa: LinkStateAnnouncement {
                    origin: NodeId(1),
                    seq: 0,
                    links: vec![],
                },
                ttl: 2,
            },
            Message::Ping {
                from: NodeId(1),
                nonce: 9,
                hb: false,
            },
            Message::Pong {
                from: NodeId(1),
                nonce: 9,
                hb: false,
            },
            Message::Heartbeat { from: NodeId(1) },
            Message::Leave { from: NodeId(1) },
        ];
        for m in msgs {
            // Just ensure classification is total and stable.
            let _ = m.class();
        }
    }

    #[test]
    fn heartbeat_probes_are_classed_apart_from_measurement() {
        let probe = Message::Ping {
            from: NodeId(1),
            nonce: 3,
            hb: false,
        };
        let keepalive = Message::Ping {
            from: NodeId(1),
            nonce: 3,
            hb: true,
        };
        assert_eq!(probe.class(), MessageClass::Measurement);
        assert_eq!(keepalive.class(), MessageClass::Heartbeat);
        let echo = Message::Pong {
            from: NodeId(2),
            nonce: 3,
            hb: true,
        };
        assert_eq!(echo.class(), MessageClass::Heartbeat);
    }

    #[test]
    fn lsa_equality_is_structural() {
        let a = LinkStateAnnouncement {
            origin: NodeId(3),
            seq: 7,
            links: vec![LinkEntry {
                neighbor: NodeId(1),
                cost: 2.5,
            }],
        };
        assert_eq!(a, a.clone());
    }
}
