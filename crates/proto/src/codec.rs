//! Binary framing for EGOIST messages.
//!
//! Frame layout, version 3 (all integers big-endian):
//!
//! ```text
//! +--------+---------+------+----------+------------------+----------+
//! | magic  | version | type | len      | payload          | checksum |
//! | u16    | u8      | u8   | u32      | len bytes        | u32      |
//! +--------+---------+------+----------+------------------+----------+
//! ```
//!
//! `magic` is `0x4547` ("EG"), `version` is 3, `type` is one of the
//! `tag` constants, `len` counts the payload bytes only, and the
//! checksum covers everything before it (header + payload). Every
//! payload field is fixed-width, so a frame's length is known before its
//! first byte is written: [`encode`] fills one exactly-sized buffer, and
//! [`decode`] reads the borrowed frame through a bounds-checked cursor
//! without copying it.
//!
//! **Checksum.** Four interleaved FNV-1a lanes. With `P = 0x0100_0193`
//! (the 32-bit FNV prime) and all arithmetic wrapping in `u32`:
//!
//! 1. lane `i ∈ 0..4` starts at `SEEDS[i]` — the FNV offset basis
//!    `0x811C_9DC5` xor `i · 0x9E37_79B9`;
//! 2. byte `j` of the covered bytes belongs to lane `j mod 4`, and is
//!    absorbed in order by the FNV-1a step `h ← (h xor byte) · P` — so
//!    whole 4-byte blocks advance all four lanes once, and a tail of
//!    1–3 bytes advances lanes `0..tail` once more;
//! 3. the lanes are folded left to right by the same step,
//!    `c ← h0`, then `c ← (c xor h_i) · P` for `i = 1, 2, 3`; `c` is the
//!    checksum.
//!
//! A lane step is a bijection of the lane state and injective in the
//! byte, and the fold is a bijection in each lane with the others fixed,
//! so changing any single byte always changes the checksum. A version 1
//! frame (one byte-serial FNV-1a lane) fails this checksum; one that
//! does carry the four-lane checksum is `BadVersion`. Nothing verifies
//! the old function.
//!
//! **Version 3** adds one frame type, the anti-entropy push with refresh
//! entries (`tag::LSDB_SYNC_REFRESH`): the `LsdbSync` payload — a `u16`
//! count of LSAs, then the LSAs — followed by a `u16` count of 16-byte
//! entries `(origin u32, seq u64, links_hash u32)`, where `links_hash` is
//! [`links_hash`], the checksum function over the links as an LSA
//! encodes them. A push with no entries is sent as a plain `LsdbSync`,
//! so every other frame is laid out as in version 2; version 2 frames
//! are `BadVersion`, because a v2 peer cannot read the new type.
//!
//! Decoding is *total*: any malformed, truncated, or corrupted input
//! yields a [`DecodeError`], never a panic — the property the
//! fault-injection tests rely on. The checksum is verified before any
//! field is read, and a frame is validated whole before a [`Message`]
//! is returned.

use crate::message::{LinkEntry, LinkStateAnnouncement, LsaRef, Message, Refresh};
use bytes::Bytes;
use egoist_graph::NodeId;

/// Frame magic ("EG").
pub const MAGIC: u16 = 0x4547;
/// Protocol version. 2 = the four-lane checksum, 3 = refresh entries in
/// anti-entropy pushes (see the module docs).
pub const VERSION: u8 = 3;
/// Upper bound on accepted payload length (defends against corrupt
/// length fields).
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Header (8 bytes) + checksum (4 bytes) around every payload.
const ENVELOPE: usize = 12;
/// Ping / pong payloads are the paper's 320-bit (40-byte) ICMP echo
/// size: 13 bytes of fields, then zero padding.
const ECHO_LEN: usize = 40;
const ECHO_PAD: usize = ECHO_LEN - 13;

/// Why a frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    TooShort,
    BadMagic,
    BadVersion(u8),
    BadChecksum,
    BadType(u8),
    BadLength,
    TrailingBytes,
    Truncated,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for DecodeError {}

const FNV_PRIME: u32 = 0x0100_0193;
/// Lane seeds: the FNV offset basis xor `i · 0x9E37_79B9`.
const SEEDS: [u32; 4] = [0x811C_9DC5, 0x1F2B_E47C, 0xBD72_6EB7, 0x5BBA_F0EE];

/// One FNV-1a step.
#[inline]
fn step(h: u32, b: u8) -> u32 {
    (h ^ b as u32).wrapping_mul(FNV_PRIME)
}

/// Fold the four lanes into the checksum.
fn fold([h0, rest @ ..]: [u32; 4]) -> u32 {
    rest.iter()
        .fold(h0, |c, &h| (c ^ h).wrapping_mul(FNV_PRIME))
}

/// The frame checksum: four interleaved FNV-1a lanes, folded (module
/// docs). The lanes are independent multiply chains, so the CPU runs
/// them in parallel instead of waiting out one multiply per byte.
pub fn fnv1a(data: &[u8]) -> u32 {
    let [mut h0, mut h1, mut h2, mut h3] = SEEDS;
    let mut blocks = data.chunks_exact(4);
    for b in &mut blocks {
        h0 = step(h0, b[0]);
        h1 = step(h1, b[1]);
        h2 = step(h2, b[2]);
        h3 = step(h3, b[3]);
    }
    let mut lanes = [h0, h1, h2, h3];
    for (h, &b) in lanes.iter_mut().zip(blocks.remainder()) {
        *h = step(*h, b);
    }
    fold(lanes)
}

/// [`fnv1a`] of `links` as an LSA encodes them — per link the `u32`
/// neighbor id, then the `u32` cost bits — without encoding them: each
/// field is one whole 4-byte block, one byte per lane. The hash a
/// [`Refresh`] entry carries.
pub fn links_hash(links: &[LinkEntry]) -> u32 {
    let mut lanes = SEEDS;
    for word in links.iter().flat_map(|l| [l.neighbor.0, l.cost.to_bits()]) {
        for (h, b) in lanes.iter_mut().zip(word.to_be_bytes()) {
            *h = step(*h, b);
        }
    }
    fold(lanes)
}

mod tag {
    pub const BOOTSTRAP_REQUEST: u8 = 1;
    pub const BOOTSTRAP_RESPONSE: u8 = 2;
    pub const HELLO: u8 = 3;
    pub const LSDB_SYNC: u8 = 4;
    pub const LINK_STATE: u8 = 5;
    pub const PING: u8 = 6;
    pub const PONG: u8 = 7;
    pub const HEARTBEAT: u8 = 8;
    pub const LEAVE: u8 = 9;
    pub const LSDB_DIGEST: u8 = 10;
    pub const LSDB_PULL: u8 = 11;
    pub const LSDB_SYNC_REFRESH: u8 = 12;
}

/// Encoded size of one LSA: origin, seq, link count, 8 bytes per link.
fn lsa_len(lsa: LsaRef) -> usize {
    14 + 8 * lsa.links.len()
}

/// Encoded size of one refresh entry: origin, seq, links hash.
const REFRESH_LEN: usize = 16;

/// Big-endian writer over the unfilled part of a frame buffer — the
/// mirror of [`Cursor`]. The buffer is sized before it is filled, so
/// running out of room is a bug in a length computation, not an input.
struct Writer<'a>(&'a mut [u8]);

impl Writer<'_> {
    fn put<const N: usize>(&mut self, bytes: [u8; N]) {
        let (head, rest) = std::mem::take(&mut self.0)
            .split_first_chunk_mut::<N>()
            .expect("frame sized before it is filled");
        *head = bytes;
        self.0 = rest;
    }

    fn u8(&mut self, v: u8) {
        self.put([v]);
    }

    fn u16(&mut self, v: u16) {
        self.put(v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.put(v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.put(v.to_be_bytes());
    }

    /// A `u16` item count; more items than that is a caller's bug.
    fn count(&mut self, len: usize) {
        debug_assert!(len <= u16::MAX as usize, "{len} items overflow a u16 count");
        self.u16(len as u16);
    }

    fn lsa(&mut self, lsa: LsaRef) {
        self.u32(lsa.origin.0);
        self.u64(lsa.seq);
        self.count(lsa.links.len());
        for l in lsa.links {
            self.u32(l.neighbor.0);
            self.u32(l.cost.to_bits());
        }
    }

    fn refresh(&mut self, r: &Refresh) {
        self.u32(r.origin.0);
        self.u64(r.seq);
        self.u32(r.links_hash);
    }
}

/// Build one frame in one buffer: header, exactly `payload_len` bytes
/// written by `fill`, checksum.
fn frame(ty: u8, payload_len: usize, fill: impl FnOnce(&mut Writer)) -> Bytes {
    let mut buf = vec![0; payload_len + ENVELOPE];
    let (body, ck) = buf.split_at_mut(payload_len + ENVELOPE - 4);
    let mut w = Writer(body);
    w.u16(MAGIC);
    w.u8(VERSION);
    w.u8(ty);
    w.u32(payload_len as u32);
    fill(&mut w);
    debug_assert!(w.0.is_empty(), "payload shorter than its length field");
    ck.copy_from_slice(&fnv1a(body).to_be_bytes());
    Bytes::from(buf)
}

/// An `id` payload: the four single-field messages.
fn id_frame(ty: u8, id: NodeId) -> Bytes {
    frame(ty, 4, |w| w.u32(id.0))
}

/// A `from` + counted list of `width`-byte items payload.
fn list_frame<T>(
    ty: u8,
    from: Option<NodeId>,
    items: &[T],
    width: usize,
    put: impl Fn(&mut Writer, &T),
) -> Bytes {
    let head = if from.is_some() { 6 } else { 2 };
    frame(ty, head + width * items.len(), |w| {
        if let Some(from) = from {
            w.u32(from.0);
        }
        w.count(items.len());
        for item in items {
            put(w, item);
        }
    })
}

/// An `LsdbSync` frame; with refresh entries, the version 3 frame type
/// that appends them.
fn sync_frame<'a>(
    lsas: impl ExactSizeIterator<Item = LsaRef<'a>> + Clone,
    refreshes: &[Refresh],
) -> Bytes {
    let (ty, entries) = match refreshes.len() {
        0 => (tag::LSDB_SYNC, 0),
        n => (tag::LSDB_SYNC_REFRESH, 2 + REFRESH_LEN * n),
    };
    let len = 2 + lsas.clone().map(lsa_len).sum::<usize>() + entries;
    frame(ty, len, |w| {
        w.count(lsas.len());
        for lsa in lsas {
            w.lsa(lsa);
        }
        if !refreshes.is_empty() {
            w.count(refreshes.len());
            for r in refreshes {
                w.refresh(r);
            }
        }
    })
}

/// The `LsdbSync` frame of borrowed announcements and refresh entries:
/// byte for byte what [`encode`] makes of a `Message::LsdbSync` holding
/// their owned copies, so anti-entropy pushes are encoded straight out
/// of the LSDB's records and link arena.
pub fn encode_sync(lsas: &[LsaRef], refreshes: &[Refresh]) -> Bytes {
    sync_frame(lsas.iter().copied(), refreshes)
}

/// Encode a message into a complete frame.
pub fn encode(msg: &Message) -> Bytes {
    let echo = |ty: u8, from: NodeId, nonce: u64, hb: bool| {
        frame(ty, ECHO_LEN, |w| {
            w.u32(from.0);
            w.u64(nonce);
            w.u8(hb as u8);
            w.put([0; ECHO_PAD]);
        })
    };
    match msg {
        Message::BootstrapRequest { from } => id_frame(tag::BOOTSTRAP_REQUEST, *from),
        Message::BootstrapResponse { peers } => {
            list_frame(tag::BOOTSTRAP_RESPONSE, None, peers, 4, |w, p| w.u32(p.0))
        }
        Message::Hello { from } => id_frame(tag::HELLO, *from),
        Message::LsdbSync { lsas, refreshes } => {
            sync_frame(lsas.iter().map(LsaRef::from), refreshes)
        }
        Message::LsdbDigest { from, entries } => list_frame(
            tag::LSDB_DIGEST,
            Some(*from),
            entries,
            12,
            |w, (origin, seq)| {
                w.u32(origin.0);
                w.u64(*seq);
            },
        ),
        Message::LsdbPull { from, origins } => {
            list_frame(tag::LSDB_PULL, Some(*from), origins, 4, |w, o| w.u32(o.0))
        }
        Message::LinkState { lsa, ttl } => frame(tag::LINK_STATE, 1 + lsa_len(lsa.into()), |w| {
            w.u8(*ttl);
            w.lsa(lsa.into());
        }),
        Message::Ping { from, nonce, hb } => echo(tag::PING, *from, *nonce, *hb),
        Message::Pong { from, nonce, hb } => echo(tag::PONG, *from, *nonce, *hb),
        Message::Heartbeat { from } => id_frame(tag::HEARTBEAT, *from),
        Message::Leave { from } => id_frame(tag::LEAVE, *from),
    }
}

/// Bounds-checked big-endian reader over a borrowed frame: every read
/// past the end is `Truncated`, never a panic.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        self.take().map(|[b]| b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        self.take().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.take().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.take().map(u64::from_be_bytes)
    }

    fn id(&mut self) -> Result<NodeId, DecodeError> {
        self.u32().map(NodeId)
    }

    /// A `u16`-counted list of items at least `width` bytes each. The
    /// count is checked against the bytes left *before* anything is
    /// allocated, so a lying count field costs nothing.
    fn list<T>(
        &mut self,
        width: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u16()? as usize;
        if self.0.len() < n * width {
            return Err(DecodeError::Truncated);
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn lsa(&mut self) -> Result<LinkStateAnnouncement, DecodeError> {
        let origin = self.id()?;
        let seq = self.u64()?;
        let links = self.list(8, |c| {
            Ok(LinkEntry {
                neighbor: c.id()?,
                cost: f32::from_bits(c.u32()?),
            })
        })?;
        Ok(LinkStateAnnouncement { origin, seq, links })
    }

    fn refresh(&mut self) -> Result<Refresh, DecodeError> {
        Ok(Refresh {
            origin: self.id()?,
            seq: self.u64()?,
            links_hash: self.u32()?,
        })
    }
}

/// Decode one complete frame.
pub fn decode(frame: &[u8]) -> Result<Message, DecodeError> {
    if frame.len() < ENVELOPE {
        return Err(DecodeError::TooShort);
    }
    let (body, ck) = frame.split_at(frame.len() - 4);
    if fnv1a(body).to_be_bytes() != ck {
        return Err(DecodeError::BadChecksum);
    }
    let mut buf = Cursor(body);
    if buf.u16()? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = buf.u8()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let ty = buf.u8()?;
    let len = buf.u32()? as usize;
    if len > MAX_PAYLOAD || len != buf.0.len() {
        return Err(DecodeError::BadLength);
    }

    let msg = match ty {
        tag::BOOTSTRAP_REQUEST => Message::BootstrapRequest { from: buf.id()? },
        tag::BOOTSTRAP_RESPONSE => {
            let peers = buf.list(4, Cursor::id)?;
            Message::BootstrapResponse { peers }
        }
        tag::HELLO => Message::Hello { from: buf.id()? },
        tag::LSDB_SYNC | tag::LSDB_SYNC_REFRESH => {
            let lsas = buf.list(14, Cursor::lsa)?;
            let refreshes = match ty {
                tag::LSDB_SYNC => Vec::new(),
                _ => buf.list(REFRESH_LEN, Cursor::refresh)?,
            };
            Message::LsdbSync { lsas, refreshes }
        }
        tag::LINK_STATE => {
            let ttl = buf.u8()?;
            Message::LinkState {
                lsa: buf.lsa()?,
                ttl,
            }
        }
        tag::PING | tag::PONG => {
            let from = buf.id()?;
            let nonce = buf.u64()?;
            let hb = buf.u8()? != 0;
            buf.0 = &[]; // padding
            if ty == tag::PING {
                Message::Ping { from, nonce, hb }
            } else {
                Message::Pong { from, nonce, hb }
            }
        }
        tag::HEARTBEAT => Message::Heartbeat { from: buf.id()? },
        tag::LEAVE => Message::Leave { from: buf.id()? },
        tag::LSDB_DIGEST => {
            let from = buf.id()?;
            let entries = buf.list(12, |c| Ok((c.id()?, c.u64()?)))?;
            Message::LsdbDigest { from, entries }
        }
        tag::LSDB_PULL => {
            let from = buf.id()?;
            let origins = buf.list(4, Cursor::id)?;
            Message::LsdbPull { from, origins }
        }
        other => return Err(DecodeError::BadType(other)),
    };
    if !buf.0.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::BootstrapRequest { from: NodeId(7) },
            Message::BootstrapResponse {
                peers: vec![NodeId(1), NodeId(2), NodeId(3)],
            },
            Message::Hello { from: NodeId(0) },
            Message::LsdbSync {
                lsas: vec![LinkStateAnnouncement {
                    origin: NodeId(4),
                    seq: 42,
                    links: vec![
                        LinkEntry {
                            neighbor: NodeId(5),
                            cost: 12.5,
                        },
                        LinkEntry {
                            neighbor: NodeId(6),
                            cost: 0.25,
                        },
                    ],
                }],
                refreshes: vec![],
            },
            Message::LsdbSync {
                lsas: vec![LinkStateAnnouncement {
                    origin: NodeId(1),
                    seq: 8,
                    links: vec![],
                }],
                refreshes: vec![
                    Refresh {
                        origin: NodeId(3),
                        seq: 17,
                        links_hash: 0xC0FF_EE00,
                    },
                    Refresh {
                        origin: NodeId(u32::MAX),
                        seq: u64::MAX,
                        links_hash: 1,
                    },
                ],
            },
            Message::LsdbDigest {
                from: NodeId(2),
                entries: vec![(NodeId(4), 42), (NodeId(9), 7)],
            },
            Message::LsdbPull {
                from: NodeId(5),
                origins: vec![NodeId(4), NodeId(8)],
            },
            Message::LinkState {
                lsa: LinkStateAnnouncement {
                    origin: NodeId(9),
                    seq: 1,
                    links: vec![],
                },
                ttl: 3,
            },
            Message::Ping {
                from: NodeId(3),
                nonce: 0xDEADBEEF,
                hb: false,
            },
            Message::Pong {
                from: NodeId(4),
                nonce: 0xDEADBEEF,
                hb: true,
            },
            Message::Heartbeat { from: NodeId(2) },
            Message::Leave { from: NodeId(1) },
        ]
    }

    #[test]
    fn roundtrip_all_message_kinds() {
        for m in sample_messages() {
            let f = encode(&m);
            assert_eq!(decode(&f).expect("decode"), m, "roundtrip failed for {m:?}");
        }
    }

    #[test]
    fn ping_frames_match_paper_size() {
        // §4.3 says ICMP echo ≈ 320 bits = 40 bytes; our ping payload is
        // exactly that, plus the 12-byte frame envelope.
        let f = encode(&Message::Ping {
            from: NodeId(0),
            nonce: 0,
            hb: false,
        });
        assert_eq!(f.len(), 40 + 12);
        // The heartbeat flag rides in the padding; same wire size.
        let hb = encode(&Message::Ping {
            from: NodeId(0),
            nonce: 0,
            hb: true,
        });
        assert_eq!(hb.len(), 40 + 12);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut f = encode(&Message::Hello { from: NodeId(1) }).to_vec();
        let last = f.len() - 1;
        f[last] ^= 0xFF;
        assert_eq!(decode(&f), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn short_frames_rejected() {
        assert_eq!(decode(&[]), Err(DecodeError::TooShort));
        assert_eq!(decode(&[0x45; 5]), Err(DecodeError::TooShort));
    }

    #[test]
    fn bad_magic_rejected() {
        let f = encode(&Message::Hello { from: NodeId(1) });
        let mut v = f.to_vec();
        v[0] = 0x00;
        // Checksum covers the magic, so flipping it without fixing the
        // checksum fails there first; fix the checksum to reach BadMagic.
        let body = v.len() - 4;
        let ck = super::fnv1a(&v[..body]);
        v[body..].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(decode(&v), Err(DecodeError::BadMagic));
    }

    #[test]
    fn every_single_bitflip_is_rejected_or_harmless() {
        // Fault injection flips one bit anywhere; decode must never panic
        // and must almost always reject (the checksum catches it).
        let f = encode(&Message::LinkState {
            lsa: LinkStateAnnouncement {
                origin: NodeId(1),
                seq: 77,
                links: vec![LinkEntry {
                    neighbor: NodeId(2),
                    cost: 3.5,
                }],
            },
            ttl: 2,
        });
        for byte in 0..f.len() {
            for bit in 0..8 {
                let mut v = f.to_vec();
                v[byte] ^= 1 << bit;
                let _ = decode(&v); // must not panic
            }
        }
    }

    /// `origin`-th LSA of a synthetic database, `links` links long.
    fn lsa(origin: u32, links: usize) -> LinkStateAnnouncement {
        LinkStateAnnouncement {
            origin: NodeId(origin),
            seq: 3 + origin as u64 * 7,
            links: (0..links as u32)
                .map(|i| LinkEntry {
                    neighbor: NodeId(origin + i + 1),
                    cost: 1.5 * (i + 1) as f32,
                })
                .collect(),
        }
    }

    /// `count` refresh entries of a synthetic database.
    fn refreshes(count: usize) -> Vec<Refresh> {
        (0..count as u32)
            .map(|i| Refresh {
                origin: NodeId(i * 3),
                seq: 5 + i as u64,
                links_hash: i.wrapping_mul(0x9E37_79B9),
            })
            .collect()
    }

    #[test]
    fn encode_sync_matches_encode_of_the_clones() {
        for (count, entries) in [(0usize, 0), (1, 0), (400, 0), (0, 1), (3, 2), (400, 300)] {
            let lsas: Vec<LinkStateAnnouncement> =
                (0..count).map(|i| lsa(i as u32, i % 9)).collect();
            let refs: Vec<LsaRef> = lsas.iter().map(LsaRef::from).collect();
            let refreshes = refreshes(entries);
            let from_records = encode_sync(&refs, &refreshes);
            let msg = Message::LsdbSync { lsas, refreshes };
            assert_eq!(
                from_records,
                encode(&msg),
                "{count} LSAs, {entries} refreshes"
            );
            assert_eq!(decode(&from_records), Ok(msg));
        }
    }

    #[test]
    fn a_push_without_refreshes_is_a_plain_sync_frame() {
        let lsas = [lsa(4, 2), lsa(9, 0)];
        let refs: Vec<LsaRef> = lsas.iter().map(LsaRef::from).collect();
        let plain = encode_sync(&refs, &[]);
        assert_eq!(plain[3], tag::LSDB_SYNC);
        // Appending entries changes only the type and the tail: the LSAs
        // are laid out as in the plain frame.
        let with = encode_sync(&refs, &refreshes(2));
        assert_eq!(with[3], tag::LSDB_SYNC_REFRESH);
        assert_eq!(with.len(), plain.len() + 2 + 2 * REFRESH_LEN);
        assert_eq!(with[8..plain.len() - 4], plain[8..plain.len() - 4]);
    }

    #[test]
    fn links_hash_is_the_checksum_of_the_encoded_links() {
        for l in [lsa(0, 0), lsa(7, 1), lsa(3, 4), lsa(u32::MAX - 9, 9)] {
            let frame = encode(&Message::LinkState {
                lsa: l.clone(),
                ttl: 0,
            });
            // Header, ttl, origin, seq and link count precede the links.
            let links = &frame[8 + 1 + 14..frame.len() - 4];
            assert_eq!(links.len(), 8 * l.links.len());
            assert_eq!(links_hash(&l.links), fnv1a(links), "{l:?}");
        }
        // Order and cost bits count.
        let mut l = lsa(1, 3);
        let h = links_hash(&l.links);
        l.links.swap(0, 2);
        assert_ne!(links_hash(&l.links), h);
        l.links.swap(0, 2);
        l.links[1].cost = -l.links[1].cost;
        assert_ne!(links_hash(&l.links), h);
    }

    /// A count that would wrap its `u16` field is a caller's bug, caught
    /// in debug builds instead of sent as a frame that lies.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "65536 items overflow a u16 count")]
    fn counts_past_u16_are_caught() {
        let peers = vec![NodeId(1); 1 << 16];
        encode(&Message::BootstrapResponse { peers });
    }

    #[test]
    fn frames_are_exactly_sized() {
        // One buffer, sized before the first byte: the length field and
        // the allocation both equal what was written.
        for m in sample_messages() {
            let f = encode(&m);
            let len = u32::from_be_bytes(f[4..8].try_into().unwrap()) as usize;
            assert_eq!(f.len(), len + ENVELOPE, "{m:?}");
        }
    }

    #[test]
    fn older_versions_are_refused() {
        for m in sample_messages() {
            for old in [1, 2] {
                let mut v = encode(&m).to_vec();
                v[2] = old;
                // As sent by an old peer the checksum cannot match…
                assert_eq!(decode(&v), Err(DecodeError::BadChecksum));
                // …and a frame that does carry this checksum names its
                // version.
                reseal(&mut v);
                assert_eq!(decode(&v), Err(DecodeError::BadVersion(old)), "{m:?}");
            }
        }
    }

    /// Recompute the checksum of a tampered frame, so the parser behind
    /// it gets exercised.
    fn reseal(frame: &mut [u8]) {
        let body = frame.len() - 4;
        let ck = fnv1a(&frame[..body]);
        frame[body..].copy_from_slice(&ck.to_be_bytes());
    }

    #[test]
    fn every_single_byte_substitution_is_rejected() {
        // Every frame length 12..=75 — all residues mod 4, so every
        // lane and every tail length — every position (header, payload
        // and the checksum itself), every other byte value.
        let mut noise = 0x9E37_79B9u32;
        for len in 12..=75usize {
            let mut frame: Vec<u8> = (0..len)
                .map(|_| {
                    noise = noise.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (noise >> 24) as u8
                })
                .collect();
            reseal(&mut frame);
            assert_ne!(decode(&frame), Err(DecodeError::BadChecksum), "len {len}");
            for pos in 0..len {
                let original = frame[pos];
                for substitute in (0..=255u8).filter(|&b| b != original) {
                    frame[pos] = substitute;
                    assert_eq!(
                        decode(&frame),
                        Err(DecodeError::BadChecksum),
                        "len {len}: byte {pos} {original:#04x} -> {substitute:#04x} undetected"
                    );
                }
                frame[pos] = original;
            }
        }
        // And every real frame kind, the refresh push included.
        for m in sample_messages() {
            let mut frame = encode(&m).to_vec();
            for pos in 0..frame.len() {
                let original = frame[pos];
                for substitute in (0..=255u8).filter(|&b| b != original) {
                    frame[pos] = substitute;
                    assert_eq!(
                        decode(&frame),
                        Err(DecodeError::BadChecksum),
                        "{m:?} byte {pos}"
                    );
                }
                frame[pos] = original;
            }
        }
    }

    /// Where a frame's `u16` item counts sit (after the 8-byte header),
    /// for the kinds that carry them.
    fn count_offsets(m: &Message) -> Vec<usize> {
        match m {
            Message::LsdbSync { lsas, refreshes } if !refreshes.is_empty() => {
                vec![
                    8,
                    8 + 2 + lsas.iter().map(|l| lsa_len(l.into())).sum::<usize>(),
                ]
            }
            Message::BootstrapResponse { .. } | Message::LsdbSync { .. } => vec![8],
            Message::LsdbDigest { .. } | Message::LsdbPull { .. } => vec![12],
            Message::LinkState { .. } => vec![8 + 1 + 12],
            _ => vec![],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes never panic the decoder.
        #[test]
        fn decode_is_total(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let _ = decode(&data);
            // The same bytes behind a valid checksum reach the parser.
            if data.len() >= ENVELOPE {
                let mut sealed = data;
                sealed[..3].copy_from_slice(&[0x45, 0x47, VERSION]);
                sealed[3] %= 14; // mostly real tags
                let len = (sealed.len() - ENVELOPE) as u32;
                sealed[4..8].copy_from_slice(&len.to_be_bytes());
                reseal(&mut sealed);
                prop_assert!(decode(&sealed) != Err(DecodeError::BadChecksum));
            }
        }

        /// Valid frames with a random splice, truncation or count-field
        /// bump, checksum recomputed so the damage reaches the cursor:
        /// an error or a message, never a panic.
        #[test]
        fn damaged_valid_frames_never_panic(
            which in 0usize..14,
            big in 0usize..40,
            at in any::<u16>(),
            junk in proptest::collection::vec(any::<u8>(), 0..24),
            bump in 1u16..400,
        ) {
            let mut messages = sample_messages();
            messages.push(Message::LsdbSync {
                lsas: (0..big).map(|i| lsa(i as u32, i % 9)).collect(),
                refreshes: refreshes(big % 5),
            });
            let m = &messages[which % messages.len()];
            let frame = encode(m).to_vec();
            let at = at as usize % frame.len();

            let mut spliced = frame.clone();
            spliced.splice(at..(at + junk.len() / 2).min(frame.len()), junk.iter().copied());
            let _ = decode(&spliced);
            if spliced.len() >= ENVELOPE {
                reseal(&mut spliced);
                let _ = decode(&spliced);
            }

            let mut truncated = frame[..at].to_vec();
            let _ = decode(&truncated);
            if truncated.len() >= ENVELOPE {
                reseal(&mut truncated);
                prop_assert!(decode(&truncated).is_err(), "a shorter frame decoded");
            }

            for off in count_offsets(m) {
                let mut bumped = frame.clone();
                let count = u16::from_be_bytes([bumped[off], bumped[off + 1]]);
                bumped[off..off + 2].copy_from_slice(&count.wrapping_add(bump).to_be_bytes());
                reseal(&mut bumped);
                prop_assert!(decode(&bumped).is_err(), "a wrong count decoded");
            }
        }

        /// Roundtrip for arbitrary LSAs.
        #[test]
        fn lsa_roundtrip(origin in 0u32..1000, seq in 0u64..u64::MAX, ttl in 0u8..8,
                         links in proptest::collection::vec((0u32..1000, 0.0f32..1e6), 0..64)) {
            let lsa = LinkStateAnnouncement {
                origin: NodeId(origin),
                seq,
                links: links
                    .into_iter()
                    .map(|(n, c)| LinkEntry { neighbor: NodeId(n), cost: c })
                    .collect(),
            };
            let m = Message::LinkState { lsa, ttl };
            prop_assert_eq!(decode(&encode(&m)).unwrap(), m);
        }

        /// Roundtrip for arbitrary anti-entropy digests and pulls.
        #[test]
        fn digest_roundtrip(from in 0u32..1000,
                            entries in proptest::collection::vec((0u32..1000, 0u64..u64::MAX), 0..128)) {
            let m = Message::LsdbDigest {
                from: NodeId(from),
                entries: entries.iter().map(|&(o, s)| (NodeId(o), s)).collect(),
            };
            prop_assert_eq!(decode(&encode(&m)).unwrap(), m);
            let p = Message::LsdbPull {
                from: NodeId(from),
                origins: entries.iter().map(|&(o, _)| NodeId(o)).collect(),
            };
            prop_assert_eq!(decode(&encode(&p)).unwrap(), p);
        }
    }
}
