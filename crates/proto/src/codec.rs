//! Binary framing for EGOIST messages.
//!
//! Frame layout, version 6 (fixed-width integers big-endian):
//!
//! ```text
//! +--------+---------+------+----------+------------------+----------+
//! | magic  | version | type | len      | payload          | checksum |
//! | u16    | u8      | u8   | u32      | len bytes        | u32      |
//! +--------+---------+------+----------+------------------+----------+
//! ```
//!
//! `magic` is `0x4547` ("EG"), `version` is 6, `type` is one of the
//! `tag` constants, `len` counts the payload bytes only, and the
//! checksum covers everything before it (header + payload). A frame is a
//! plain `Vec<u8>`: [`encode`] writes each layout once, appending the
//! header with a zero length, then the payload, then patching the length
//! in and appending the checksum; [`decode`] reads the borrowed frame
//! through a bounds-checked cursor without copying it.
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
//! **Version 3** added one frame type, the anti-entropy push with refresh
//! entries (`tag::LSDB_SYNC_REFRESH`): the `LsdbSync` payload followed by
//! a counted list of entries `(origin, seq, links_hash)`, where
//! `links_hash` is [`links_hash`]: the checksum function over the links
//! written as big-endian `u32` words, per link the neighbor id, then the
//! cost bits (no frame carries that layout since version 6). A push with
//! no entries is sent as a plain `LsdbSync`.
//!
//! **Version 4** packed the three anti-entropy frames — `LsdbDigest`,
//! `LsdbSync` (both tags) and `LsdbPull` — into varints. An *LEB128
//! varint* is 1–10 bytes, seven value bits each, least significant group
//! first, the high bit set on every byte but the last; it must be
//! minimal (no final `0x00` group after the first byte) and fit `u64`.
//! In these frames:
//!
//! * every id in a counted list (pull origins, pushed LSA origins,
//!   refresh origins) is the *zigzag* varint of its difference from the
//!   list's previous id, the first from 0 (`d ↦ 2d` for `d ≥ 0`,
//!   `d ↦ −2d − 1` below), so an origin-ascending list costs one byte a
//!   step, and any order or repeat still round-trips;
//! * every seq, a pushed LSA's link count and its neighbor ids are plain
//!   varints;
//! * a refresh entry's `links_hash` stays fixed-width (`u32`), as do the
//!   `from` fields and the `u16` list counts.
//!
//! **Version 5** re-encodes two fields of those frames:
//!
//! * a pushed LSA's link cost is one varint *cost word*. A cost that is
//!   a non-negative finite `f32` equal to `q × 0.5` for a whole
//!   `q < 2^24` is the short word `q << 1`: one byte up to 31.5, which
//!   covers every cost the fleets announce today (an estimate is half of
//!   a round trip measured in whole wheel steps). Any other cost — NaN
//!   payloads, −0.0, ±∞, a forged 0.3 — is the escape `bits << 1 | 1` of
//!   its raw `f32` bits, at most 5 bytes, so every cost round-trips bit
//!   for bit;
//! * a digest's origins are written as its maximal runs of consecutive
//!   ids: the `u16` count of runs, then per run the zigzag delta of its
//!   first origin from the previous run's last (the first from 0), the
//!   run's length as a varint, and its entries' seqs. A converged LSDB's
//!   digest is a few long runs; any order or repeat still round-trips,
//!   as runs of one.
//!
//! By example (payloads, hex): the digest `from 2: (4, 42), (5, 43), (9,
//! 7)` is `00000002 0002 08 02 2a 2b 08 01 07` — two runs, the second's
//! first origin 4 past the first's last; the push of LSA `(4, 42, [(5,
//! 12.5), (6, 0.25)])` is `0001 08 2a 02 05 32 06 818080e807` — 12.5 is
//! 25 half-steps, the short word `0x32`, and 0.25 is no half-step, so it
//! is the escape of its bits `0x3E80_0000`; the pull `from 5: 4, 8` is
//! `00000005 0002 08 08`; the push of LSA `(1, 8, [])` with refreshes
//! `(3, 17, 0xC0FFEE00)` and `(u32::MAX, u64::MAX, 1)` is `0001 02 08
//! 00`, then `0002 06 11 c0ffee00`, then `f8ffffff1f
//! ffffffffffffffffff01 00000001` (`golden_frames` pins the whole
//! frames).
//!
//! **Version 6** gives the gossiped `LinkState` frame the pushed-LSA
//! layout, so one LSA layout remains on the wire: `ttl u8`, the origin
//! as a plain varint, then the LSA as a push writes it after its origin
//! delta (seq, link count, per link the neighbor varint and the cost
//! word). The announcement `(300, 42, [(200, 12.5), (7, 0.25)])` at ttl
//! 3 is `03 ac02 2a 02 c801 32 07 818080e807`: 14 bytes where version 5
//! took 31. Every other frame keeps its version 3 layout, all fields
//! fixed-width, and `Ping` / `Pong` stay the paper's 40-byte echo.
//! Version 5 frames are `BadVersion`.
//!
//! Decoding is *total*: any malformed, truncated, or corrupted input
//! yields a [`DecodeError`], never a panic — the property the
//! fault-injection tests rely on. The checksum is verified before any
//! field is read, and a frame is validated whole before a [`Message`]
//! is returned. It is also *canonical* for the varint frames: a
//! non-minimal or overlong varint, an id outside `u32`, a cost word
//! other than the one its cost encodes to, a zero-length run, a run that
//! continues the one before it and a refresh push with no entries are
//! refused, so each message has exactly one encoding.

use crate::message::{LinkEntry, LinkStateAnnouncement, LsaRef, Message, Refresh};
use egoist_graph::NodeId;

/// Frame magic ("EG").
pub const MAGIC: u16 = 0x4547;
/// Protocol version. 2 = the four-lane checksum, 3 = refresh entries in
/// anti-entropy pushes, 4 = varint anti-entropy frames, 5 = cost words
/// and run-coded digests, 6 = `LinkState` in the pushed-LSA layout (see
/// the module docs).
pub const VERSION: u8 = 6;
/// Upper bound on accepted payload length (defends against corrupt
/// length fields).
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Magic, version, type and length before every payload.
const HEADER: usize = 8;
/// Header + checksum (4 bytes) around every payload.
const ENVELOPE: usize = HEADER + 4;
/// The capacity a frame is built in: a ping or pong (52 bytes) and a
/// fleet's `LinkState` fit without growing it.
const FIRST_CAPACITY: usize = 64;
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
    /// A varint that is not minimal, runs past 10 bytes or leaves `u64`.
    BadVarint,
    /// An id, or an id delta, that leaves `u32`.
    BadId,
    /// A refresh push with no entries, which is sent as a plain push.
    EmptyRefreshes,
    /// A cost word other than the one its cost encodes to.
    BadCost,
    /// A digest run of length zero, or one that continues the run
    /// before it.
    BadRun,
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

/// [`fnv1a`] of `links` as big-endian `u32` words — per link the
/// neighbor id, then the cost bits — without writing them out: each word
/// is one whole 4-byte block, one byte per lane. The hash a [`Refresh`]
/// entry carries.
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

/// `id`'s difference from `prev`, folded into `u64` as `2d` for `d ≥ 0`
/// and `−2d − 1` below.
fn zigzag(prev: NodeId, id: NodeId) -> u64 {
    let d = id.0 as i64 - prev.0 as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The zigzag deltas of a list of ids: each id's difference from the
/// one before, the first from 0.
fn deltas(ids: impl Iterator<Item = NodeId>) -> impl Iterator<Item = u64> {
    ids.scan(NodeId(0), |prev, id| {
        Some(zigzag(std::mem::replace(prev, id), id))
    })
}

/// Short cost words hold `q < 2^24` half-steps: every such `q × 0.5` is
/// an exact `f32`.
const SHORT_COSTS: u32 = 1 << 24;

/// A link cost's cost word: `q << 1` when the cost is a non-negative
/// finite `q × 0.5` with `q < 2^24`, else `bits << 1 | 1` of its raw
/// bits. `cost * 2.0` is exact, and its cast saturates (NaN to 0), so the
/// bit comparison alone decides.
#[inline]
pub(crate) fn cost_word(cost: f32) -> u64 {
    let q = (cost * 2.0) as u32;
    if q < SHORT_COSTS && (q as f32 * 0.5).to_bits() == cost.to_bits() {
        u64::from(q) << 1
    } else {
        u64::from(cost.to_bits()) << 1 | 1
    }
}

/// A digest's maximal runs of consecutive origins, each with the zigzag
/// delta of its first origin from the last origin of the run before (the
/// first from 0).
fn runs(entries: &[(NodeId, u64)]) -> impl Iterator<Item = (u64, &[(NodeId, u64)])> {
    let mut last = NodeId(0);
    entries
        .chunk_by(|a, b| a.0 .0.checked_add(1) == Some(b.0 .0))
        .map(move |run| {
            let delta = zigzag(last, run[0].0);
            last = run[run.len() - 1].0;
            (delta, run)
        })
}

/// Writer of big-endian fields and LEB128 varints at the end of a frame
/// — the mirror of [`Cursor`].
struct Writer(Vec<u8>);

impl Writer {
    fn put<const N: usize>(&mut self, bytes: [u8; N]) {
        self.0.extend_from_slice(&bytes);
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
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

    /// An LEB128 varint. Fleet ids and seqs take one or two bytes:
    /// those are stored whole.
    #[inline]
    fn varint(&mut self, mut v: u64) {
        if v < 0x80 {
            return self.u8(v as u8);
        }
        if v < 0x4000 {
            return self.put([v as u8 | 0x80, (v >> 7) as u8]);
        }
        while v >= 0x80 {
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    /// A `u16` item count; more items than that is a caller's bug.
    fn count(&mut self, len: usize) {
        debug_assert!(len <= u16::MAX as usize, "{len} items overflow a u16 count");
        self.u16(len as u16);
    }

    /// A counted list of `items`: per item its id's delta, then what
    /// `rest` writes of it.
    fn id_list<T: Copy>(
        &mut self,
        items: impl ExactSizeIterator<Item = T> + Clone,
        id: impl Fn(T) -> NodeId,
        rest: impl Fn(&mut Self, T),
    ) {
        self.count(items.len());
        for (delta, item) in deltas(items.clone().map(id)).zip(items) {
            self.varint(delta);
            rest(self, item);
        }
    }

    /// An LSA after its origin, as pushes and `LinkState` frames carry it.
    fn pushed_lsa(&mut self, lsa: LsaRef) {
        self.varint(lsa.seq);
        self.varint(lsa.links.len() as u64);
        for l in lsa.links {
            self.varint(l.neighbor.0.into());
            self.varint(cost_word(l.cost));
        }
    }
}

/// Build one frame: the header with a zero length, the payload `fill`
/// writes, then the length patched in and the checksum appended.
fn frame(ty: u8, fill: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(FIRST_CAPACITY));
    w.u16(MAGIC);
    w.u8(VERSION);
    w.u8(ty);
    w.u32(0);
    fill(&mut w);
    let Writer(mut buf) = w;
    let len = (buf.len() - HEADER) as u32;
    buf[4..HEADER].copy_from_slice(&len.to_be_bytes());
    let ck = fnv1a(&buf);
    buf.extend_from_slice(&ck.to_be_bytes());
    buf
}

/// An `id` payload: the four single-field messages.
fn id_frame(ty: u8, id: NodeId) -> Vec<u8> {
    frame(ty, |w| w.u32(id.0))
}

/// An `LsdbSync` frame; with refresh entries, the frame type that
/// appends them.
fn sync_frame<'a>(
    lsas: impl ExactSizeIterator<Item = LsaRef<'a>> + Clone,
    refreshes: &[Refresh],
) -> Vec<u8> {
    let ty = match refreshes.len() {
        0 => tag::LSDB_SYNC,
        _ => tag::LSDB_SYNC_REFRESH,
    };
    frame(ty, |w| {
        w.id_list(lsas, |lsa| lsa.origin, Writer::pushed_lsa);
        if !refreshes.is_empty() {
            w.id_list(
                refreshes.iter(),
                |r| r.origin,
                |w, r| {
                    w.varint(r.seq);
                    w.u32(r.links_hash);
                },
            );
        }
    })
}

/// The `LsdbSync` frame of borrowed announcements and refresh entries:
/// byte for byte what [`encode`] makes of a `Message::LsdbSync` holding
/// their owned copies, so anti-entropy pushes are encoded straight out
/// of the LSDB's records and link arena.
pub fn encode_sync(lsas: &[LsaRef], refreshes: &[Refresh]) -> Vec<u8> {
    sync_frame(lsas.iter().copied(), refreshes)
}

/// Encode a message into a complete frame.
pub fn encode(msg: &Message) -> Vec<u8> {
    let echo = |ty: u8, from: NodeId, nonce: u64, hb: bool| {
        frame(ty, |w| {
            w.u32(from.0);
            w.u64(nonce);
            w.u8(hb as u8);
            w.put([0; ECHO_PAD]);
        })
    };
    match msg {
        Message::BootstrapRequest { from } => id_frame(tag::BOOTSTRAP_REQUEST, *from),
        Message::BootstrapResponse { peers } => frame(tag::BOOTSTRAP_RESPONSE, |w| {
            w.count(peers.len());
            for p in peers {
                w.u32(p.0);
            }
        }),
        Message::Hello { from } => id_frame(tag::HELLO, *from),
        Message::LsdbSync { lsas, refreshes } => {
            sync_frame(lsas.iter().map(LsaRef::from), refreshes)
        }
        Message::LsdbDigest { from, entries } => frame(tag::LSDB_DIGEST, |w| {
            w.u32(from.0);
            w.count(runs(entries).count());
            for (delta, run) in runs(entries) {
                w.varint(delta);
                w.varint(run.len() as u64);
                for &(_, seq) in run {
                    w.varint(seq);
                }
            }
        }),
        Message::LsdbPull { from, origins } => frame(tag::LSDB_PULL, |w| {
            w.u32(from.0);
            w.id_list(origins.iter().copied(), |o| o, |_, _| {});
        }),
        Message::LinkState { lsa, ttl } => frame(tag::LINK_STATE, |w| {
            w.u8(*ttl);
            w.varint(lsa.origin.0.into());
            w.pushed_lsa(lsa.into());
        }),
        Message::Ping { from, nonce, hb } => echo(tag::PING, *from, *nonce, *hb),
        Message::Pong { from, nonce, hb } => echo(tag::PONG, *from, *nonce, *hb),
        Message::Heartbeat { from } => id_frame(tag::HEARTBEAT, *from),
        Message::Leave { from } => id_frame(tag::LEAVE, *from),
    }
}

/// Bounds-checked reader of big-endian fields and LEB128 varints over
/// a borrowed frame: every read past the end is `Truncated`, never a
/// panic.
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

    /// A minimal LEB128 varint of at most 10 bytes that fits `u64`.
    #[inline]
    fn varint(&mut self) -> Result<u64, DecodeError> {
        // Fleet ids and seqs take one or two bytes: those are read whole.
        match *self.0 {
            [b, ref rest @ ..] if b < 0x80 => {
                self.0 = rest;
                return Ok(b.into());
            }
            [lo, hi @ 1..0x80, ref rest @ ..] => {
                self.0 = rest;
                return Ok(u64::from(lo & 0x7F) | u64::from(hi) << 7);
            }
            _ => {}
        }
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.u8()?;
            v |= u64::from(b & 0x7F) << (7 * i);
            if b < 0x80 {
                // A zero last group pads; a tenth byte holds only bit 63.
                if (b == 0 && i > 0) || (i == 9 && b > 1) {
                    return Err(DecodeError::BadVarint);
                }
                return Ok(v);
            }
        }
        Err(DecodeError::BadVarint)
    }

    /// A varint id.
    #[inline]
    fn varint_id(&mut self) -> Result<NodeId, DecodeError> {
        let v = self.varint()?;
        u32::try_from(v).map(NodeId).map_err(|_| DecodeError::BadId)
    }

    /// The id a zigzag delta from `prev` names.
    #[inline]
    fn delta(&mut self, prev: NodeId) -> Result<NodeId, DecodeError> {
        let z = self.varint()?;
        let d = (z >> 1) as i64 ^ -((z & 1) as i64);
        (prev.0 as i64)
            .checked_add(d)
            .and_then(|id| u32::try_from(id).ok())
            .map(NodeId)
            .ok_or(DecodeError::BadId)
    }

    /// `n` items at least `width` bytes each. The count is checked
    /// against the bytes left *before* anything is allocated, so a lying
    /// count field costs nothing.
    fn items<T>(
        &mut self,
        n: u64,
        width: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        if n > (self.0.len() / width) as u64 {
            return Err(DecodeError::Truncated);
        }
        let mut items = Vec::with_capacity(n as usize);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// A `u16`-counted list of items at least `width` bytes each.
    fn list<T>(
        &mut self,
        width: usize,
        item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u16()?;
        self.items(n.into(), width, item)
    }

    /// A `u16`-counted list of items at least `width` bytes each, each
    /// keyed by the id its leading delta names; `item` reads the rest.
    fn id_list<T>(
        &mut self,
        width: usize,
        mut item: impl FnMut(&mut Self, NodeId) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let mut prev = NodeId(0);
        self.list(width, |c| {
            prev = c.delta(prev)?;
            item(c, prev)
        })
    }

    /// A cost word: the cost it names, if the word is the one that cost
    /// encodes to — not a short word past `2^24` half-steps, an escape
    /// wider than 32 bits or an escape that holds a short cost.
    #[inline]
    fn cost(&mut self) -> Result<f32, DecodeError> {
        let word = self.varint()?;
        let cost = match (word & 1, word >> 1) {
            (0, q) if q < u64::from(SHORT_COSTS) => return Ok(q as f32 * 0.5),
            (1, bits) if bits <= u64::from(u32::MAX) => f32::from_bits(bits as u32),
            _ => return Err(DecodeError::BadCost),
        };
        if cost_word(cost) & 1 == 0 {
            return Err(DecodeError::BadCost);
        }
        Ok(cost)
    }

    /// An LSA after its origin, as pushes and `LinkState` frames carry it.
    fn pushed_lsa(&mut self, origin: NodeId) -> Result<LinkStateAnnouncement, DecodeError> {
        let seq = self.varint()?;
        let n = self.varint()?;
        let links = self.items(n, 2, |c| {
            Ok(LinkEntry {
                neighbor: c.varint_id()?,
                cost: c.cost()?,
            })
        })?;
        Ok(LinkStateAnnouncement { origin, seq, links })
    }

    /// A digest's entries from its `u16`-counted runs, at least 3 bytes
    /// each: a zero-length run, or one whose first origin follows the
    /// last of the run before, is not how [`runs`] writes them.
    fn digest_runs(&mut self) -> Result<Vec<(NodeId, u64)>, DecodeError> {
        let count = self.u16()?;
        if usize::from(count) > self.0.len() / 3 {
            return Err(DecodeError::Truncated);
        }
        let mut entries: Vec<(NodeId, u64)> = Vec::new();
        for _ in 0..count {
            let last = entries.last().map_or(NodeId(0), |&(id, _)| id);
            let first = self.delta(last)?;
            if !entries.is_empty() && last.0.checked_add(1) == Some(first.0) {
                return Err(DecodeError::BadRun);
            }
            let len = match self.varint()? {
                0 => return Err(DecodeError::BadRun),
                len if len > self.0.len() as u64 => return Err(DecodeError::Truncated),
                len => len as u32,
            };
            let end = first.0.checked_add(len - 1).ok_or(DecodeError::BadId)?;
            entries.reserve(len as usize);
            for id in first.0..=end {
                entries.push((NodeId(id), self.varint()?));
            }
        }
        Ok(entries)
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
            let lsas = buf.id_list(3, Cursor::pushed_lsa)?;
            let refreshes = match ty {
                tag::LSDB_SYNC => Vec::new(),
                _ => buf.id_list(6, |c, origin| {
                    Ok(Refresh {
                        origin,
                        seq: c.varint()?,
                        links_hash: c.u32()?,
                    })
                })?,
            };
            if ty == tag::LSDB_SYNC_REFRESH && refreshes.is_empty() {
                return Err(DecodeError::EmptyRefreshes);
            }
            Message::LsdbSync { lsas, refreshes }
        }
        tag::LINK_STATE => {
            let ttl = buf.u8()?;
            let origin = buf.varint_id()?;
            Message::LinkState {
                lsa: buf.pushed_lsa(origin)?,
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
            let entries = buf.digest_runs()?;
            Message::LsdbDigest { from, entries }
        }
        tag::LSDB_PULL => {
            let from = buf.id()?;
            let origins = buf.id_list(1, |_, origin| Ok(origin))?;
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
                entries: vec![(NodeId(4), 42), (NodeId(5), 43), (NodeId(9), 7)],
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
            Message::LinkState {
                lsa: LinkStateAnnouncement {
                    origin: NodeId(300),
                    seq: 42,
                    links: vec![
                        LinkEntry {
                            neighbor: NodeId(200),
                            cost: 12.5,
                        },
                        LinkEntry {
                            neighbor: NodeId(7),
                            cost: 0.25,
                        },
                    ],
                },
                ttl: 3,
            },
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
        let mut f = encode(&Message::Hello { from: NodeId(1) });
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
        let mut v = encode(&Message::Hello { from: NodeId(1) });
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
                let mut v = f.clone();
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
        // A count, then two 6-byte entries: origin deltas 0 and 3 and
        // seqs 5 and 6 are one byte each, the hash four.
        assert_eq!(with.len(), plain.len() + 2 + 2 * 6);
        assert_eq!(with[8..plain.len() - 4], plain[8..plain.len() - 4]);
    }

    /// Five varint frames, byte for byte: a change to the wire format
    /// fails here. The module docs walk through their payloads. The hex
    /// was written by a second encoder, kept apart from this one, that
    /// gave the version 5 frames these tests pinned before (their
    /// payloads are unchanged) and the version 6 `LinkState`.
    #[test]
    fn golden_frames() {
        let sample = sample_messages();
        let hex =
            |m: &Message| -> String { encode(m).iter().map(|b| format!("{b:02x}")).collect() };
        let costs = &sample[3];
        let push = &sample[4];
        let digest = &sample[5];
        let pull = &sample[6];
        let gossip = &sample[12];
        assert!(matches!(costs, Message::LsdbSync { lsas, .. } if lsas[0].links.len() == 2));
        assert!(matches!(push, Message::LsdbSync { refreshes, .. } if refreshes.len() == 2));
        assert!(matches!(digest, Message::LsdbDigest { .. }));
        assert!(matches!(pull, Message::LsdbPull { .. }));
        assert!(matches!(gossip, Message::LinkState { lsa, .. } if lsa.links.len() == 2));
        assert_eq!(
            hex(costs),
            "454706040000000d0001082a02053206818080e8073885bc8f"
        );
        assert_eq!(
            hex(push),
            "4547060c00000020000102080000020611c0ffee00\
             f8ffffff1fffffffffffffffffff01000000010411c006"
        );
        assert_eq!(
            hex(digest),
            "4547060a0000000d00000002000208022a2b080107cdacd266"
        );
        assert_eq!(hex(pull), "4547060b00000008000000050002080800cd5f82");
        assert_eq!(
            hex(gossip),
            "454706050000000e03ac022a02c8013207818080e807d2b9fc1a"
        );
    }

    /// A push of one LSA from origin 0 whose one link, to neighbor 1,
    /// has the cost word `word`, sealed and decoded.
    fn decode_cost_word(word: &[u8]) -> Result<Message, DecodeError> {
        let mut payload = vec![0, 1, 0x00, 0x01, 0x01, 0x01];
        payload.extend_from_slice(word);
        decode(&sealed(tag::LSDB_SYNC, &payload))
    }

    /// The one cost a decoded [`decode_cost_word`] push carries.
    fn the_cost(m: Result<Message, DecodeError>) -> Result<u32, DecodeError> {
        match m? {
            Message::LsdbSync { lsas, .. } => Ok(lsas[0].links[0].cost.to_bits()),
            other => panic!("not a push: {other:?}"),
        }
    }

    #[test]
    fn cost_words_are_canonical() {
        let word = |w: u64| the_cost(decode_cost_word(&leb128(w)));
        // Short words: 0.0, 12.5 and the largest, 2^23 − 0.5.
        assert_eq!(word(0), Ok(0f32.to_bits()));
        assert_eq!(word(25 << 1), Ok(12.5f32.to_bits()));
        let top = u64::from(SHORT_COSTS - 1);
        assert_eq!(word(top << 1), Ok(8_388_607.5f32.to_bits()));
        // A short word past 2^24 half-steps, even one whose cost is
        // exact: 2^23 is written escaped.
        for q in [1u64 << 24, (1 << 24) + 1, (1 << 24) + 2, u64::MAX >> 1] {
            assert_eq!(word(q << 1), Err(DecodeError::BadCost), "q = {q}");
        }
        assert_eq!(
            word(u64::from(8_388_608f32.to_bits()) << 1 | 1),
            Ok(8_388_608f32.to_bits())
        );
        // An escape that holds a short cost: 0.0, 12.5 and 2^23 − 0.5.
        for c in [0.0f32, 12.5, 8_388_607.5] {
            let escaped = u64::from(c.to_bits()) << 1 | 1;
            assert_eq!(word(escaped), Err(DecodeError::BadCost), "{c}");
        }
        // An escape wider than 32 bits.
        assert_eq!(word(1 << 33 | 1), Err(DecodeError::BadCost));
        assert_eq!(word(u64::MAX), Err(DecodeError::BadCost));
        // Escapes that stay: −0.0, 0.25, +∞ and a NaN payload.
        for bits in [0x8000_0000u32, 0x3E80_0000, 0x7F80_0000, 0x7FC0_1234] {
            assert_eq!(word(u64::from(bits) << 1 | 1), Ok(bits), "{bits:#x}");
        }
        // The word is a varint, minimal like every other.
        assert_eq!(
            the_cost(decode_cost_word(&[0x86, 0x00])),
            Err(DecodeError::BadVarint)
        );
    }

    #[test]
    fn digest_runs_are_canonical() {
        let digest = |runs: &[u8], count: u16| {
            let mut payload = vec![0, 0, 0, 0];
            payload.extend_from_slice(&count.to_be_bytes());
            payload.extend_from_slice(runs);
            decode(&sealed(tag::LSDB_DIGEST, &payload))
        };
        let entries = |e: &[(u32, u64)]| {
            Ok(Message::LsdbDigest {
                from: NodeId(0),
                entries: e.iter().map(|&(o, s)| (NodeId(o), s)).collect(),
            })
        };
        // Runs 4..=6 and 9, and a first run at 1 (from 0, which no run
        // ended at).
        assert_eq!(
            digest(&[0x08, 0x03, 1, 2, 3, 0x06, 0x01, 7], 2),
            entries(&[(4, 1), (5, 2), (6, 3), (9, 7)])
        );
        assert_eq!(digest(&[0x02, 0x01, 5], 1), entries(&[(1, 5)]));
        // Repeats and descents are runs of one.
        assert_eq!(
            digest(&[0x08, 0x01, 1, 0x00, 0x01, 2, 0x01, 0x01, 3], 3),
            entries(&[(4, 1), (4, 2), (3, 3)])
        );
        // A zero-length run, first or later.
        assert_eq!(
            digest(&[0x08, 0x00, 0x02, 0x01, 7, 7], 2),
            Err(DecodeError::BadRun)
        );
        assert_eq!(
            digest(&[0x08, 0x01, 1, 0x06, 0x00, 7], 2),
            Err(DecodeError::BadRun)
        );
        // 4..=5 split into two runs: the second continues the first.
        assert_eq!(
            digest(&[0x08, 0x01, 1, 0x02, 0x01, 2], 2),
            Err(DecodeError::BadRun)
        );
        // A run past u32::MAX, and a length past the bytes left.
        let top = leb128(2 * u64::from(u32::MAX - 1));
        let run = |len: u8| [&top[..], &[len, 1, 2, 3]].concat();
        assert_eq!(
            digest(&run(2)[..top.len() + 3], 1),
            entries(&[(u32::MAX - 1, 1), (u32::MAX, 2)])
        );
        assert_eq!(digest(&run(3), 1), Err(DecodeError::BadId));
        assert_eq!(
            digest(&[0x08, 0x04, 1, 2, 3], 1),
            Err(DecodeError::Truncated)
        );
        // A run count the bytes cannot hold is refused before reading.
        assert_eq!(digest(&[0x08, 0x01, 1], 2), Err(DecodeError::Truncated));
    }

    #[test]
    fn digests_cost_a_seq_per_entry_and_three_bytes_a_run() {
        // 600 origins in runs of 150 with one-byte seqs: 4 runs of a
        // one-byte delta, a two-byte length and 150 seq bytes.
        let entries: Vec<(NodeId, u64)> = (0..600u32)
            .map(|i| (NodeId(i + 2 * (i / 150)), u64::from(i % 100)))
            .collect();
        let m = Message::LsdbDigest {
            from: NodeId(0),
            entries,
        };
        let f = encode(&m);
        assert_eq!(f.len(), ENVELOPE + 6 + 4 * (1 + 2 + 150));
        assert_eq!(decode(&f), Ok(m));
    }

    /// A digest frame from node 0 whose one run is `run`, sealed.
    fn digest_frame(run: &[u8]) -> Vec<u8> {
        let mut payload = vec![0, 0, 0, 0, 0, 1];
        payload.extend_from_slice(run);
        sealed(tag::LSDB_DIGEST, &payload)
    }

    /// A frame of type `ty` around `payload`, length and checksum right.
    fn sealed(ty: u8, payload: &[u8]) -> Vec<u8> {
        let mut f = vec![0x45, 0x47, VERSION, ty];
        f.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        f.extend_from_slice(payload);
        f.extend_from_slice(&[0; 4]);
        reseal(&mut f);
        f
    }

    #[test]
    fn bad_varints_and_ids_are_errors() {
        assert_eq!(
            decode(&digest_frame(&[0x08, 0x01, 0x2a])),
            Ok(Message::LsdbDigest {
                from: NodeId(0),
                entries: vec![(NodeId(4), 42)],
            })
        );
        // Non-minimal: a zero last group, in an id delta, a run length
        // and a seq.
        assert_eq!(
            decode(&digest_frame(&[0x88, 0x00, 0x01, 0x2a])),
            Err(DecodeError::BadVarint)
        );
        assert_eq!(
            decode(&digest_frame(&[0x08, 0x81, 0x00, 0x2a])),
            Err(DecodeError::BadVarint)
        );
        assert_eq!(
            decode(&digest_frame(&[0x08, 0x01, 0x80, 0x00])),
            Err(DecodeError::BadVarint)
        );
        assert_eq!(
            decode(&digest_frame(&[0x08, 0x01, 0xaa, 0x80, 0x00])),
            Err(DecodeError::BadVarint)
        );
        // Ten bytes is the most, and the tenth holds only bit 63.
        let mut max = vec![0x08, 0x01];
        max.extend_from_slice(&[0xff; 9]);
        max.push(0x01);
        assert_eq!(
            decode(&digest_frame(&max)),
            Ok(Message::LsdbDigest {
                from: NodeId(0),
                entries: vec![(NodeId(4), u64::MAX)],
            })
        );
        let mut wide = max.clone();
        *wide.last_mut().unwrap() = 0x02;
        assert_eq!(decode(&digest_frame(&wide)), Err(DecodeError::BadVarint));
        let mut eleven = max.clone();
        *eleven.last_mut().unwrap() = 0x81;
        eleven.push(0x00);
        assert_eq!(decode(&digest_frame(&eleven)), Err(DecodeError::BadVarint));
        let mut endless = vec![0x08, 0x01];
        endless.extend_from_slice(&[0xff; 11]);
        assert_eq!(decode(&digest_frame(&endless)), Err(DecodeError::BadVarint));

        // Ids leave u32: below 0, past u32::MAX, a delta past it, and
        // deltas at the ends of i64 (checked, not wrapped).
        let pull = |deltas: &[u64]| {
            let mut payload = vec![0, 0, 0, 9];
            payload.extend_from_slice(&(deltas.len() as u16).to_be_bytes());
            for &d in deltas {
                payload.extend(leb128(d));
            }
            decode(&sealed(tag::LSDB_PULL, &payload))
        };
        let top = 2 * u64::from(u32::MAX);
        assert_eq!(
            pull(&[top, 1, 2]),
            Ok(Message::LsdbPull {
                from: NodeId(9),
                origins: vec![NodeId(u32::MAX), NodeId(u32::MAX - 1), NodeId(u32::MAX)],
            })
        );
        for bad in [
            &[1][..],
            &[top + 2],
            &[top, 2],
            &[2, top],
            &[u64::MAX],
            &[top, u64::MAX - 1],
        ] {
            assert_eq!(pull(bad), Err(DecodeError::BadId), "deltas {bad:?}");
        }
        // A pushed LSA's neighbor id is a plain varint, and must fit too.
        let push = |neighbor: u64| {
            let mut payload = vec![0, 1, 0x02, 0x08, 0x01];
            payload.extend(leb128(neighbor));
            payload.push(0x06); // 1.5, three half-steps
            decode(&sealed(tag::LSDB_SYNC, &payload))
        };
        assert!(push(u32::MAX.into()).is_ok());
        assert_eq!(push(1 << 32), Err(DecodeError::BadId));

        // A refresh push with no entries is only ever sent as a plain one.
        assert_eq!(
            decode(&sealed(tag::LSDB_SYNC_REFRESH, &[0, 0, 0, 0])),
            Err(DecodeError::EmptyRefreshes)
        );
        assert_eq!(
            decode(&sealed(tag::LSDB_SYNC, &[0, 0])),
            Ok(Message::LsdbSync {
                lsas: vec![],
                refreshes: vec![],
            })
        );
    }

    #[test]
    fn link_state_frames_are_canonical() {
        let gossip = |origin: &[u8], tail: &[u8]| {
            let payload = [&[3][..], origin, tail].concat();
            decode(&sealed(tag::LINK_STATE, &payload))
        };
        // Origin 300, seq 42, one link to 7 at 12.5 (25 half-steps).
        let link = [0x2a, 0x01, 0x07, 0x32];
        assert_eq!(
            gossip(&[0xac, 0x02], &link),
            Ok(Message::LinkState {
                lsa: LinkStateAnnouncement {
                    origin: NodeId(300),
                    seq: 42,
                    links: vec![LinkEntry {
                        neighbor: NodeId(7),
                        cost: 12.5,
                    }],
                },
                ttl: 3,
            })
        );
        // A non-minimal origin: a zero last group after 300 and after 9.
        for padded in [&[0xac, 0x82, 0x00][..], &[0x89, 0x00]] {
            assert_eq!(gossip(padded, &link), Err(DecodeError::BadVarint));
        }
        // An origin past u32, and the largest one that fits.
        assert_eq!(gossip(&leb128(1 << 32), &link), Err(DecodeError::BadId));
        assert!(gossip(&leb128(u32::MAX.into()), &link).is_ok());
        // 12.5 escaped: the short cost in its refused spelling.
        let escaped = leb128(u64::from(12.5f32.to_bits()) << 1 | 1);
        let tail = [&link[..3], &escaped].concat();
        assert_eq!(gossip(&[0xac, 0x02], &tail), Err(DecodeError::BadCost));
        // More links than two bytes each can fill, up to a count that
        // would overflow an allocation: refused before one is made.
        for count in [2, 0x7f, u64::MAX] {
            let tail = [&[0x2a][..], &leb128(count), &link[2..]].concat();
            assert_eq!(
                gossip(&[0xac, 0x02], &tail),
                Err(DecodeError::Truncated),
                "{count} links"
            );
        }
        assert_eq!(
            gossip(&[0xac, 0x02], &[&link[..], &[0]].concat()),
            Err(DecodeError::TrailingBytes)
        );
    }

    /// Seqs of every varint length, 1 to 10 bytes: the bytes are the
    /// plain LEB128 ones, and they decode back.
    #[test]
    fn varints_of_every_length_roundtrip() {
        let values = (0..64)
            .flat_map(|b| [(1u64 << b) - 1, 1 << b, (1 << b) | 1])
            .chain([u64::MAX]);
        for v in values {
            let m = Message::LsdbDigest {
                from: NodeId(0),
                entries: vec![(NodeId(1), v)],
            };
            let mut payload = vec![0, 0, 0, 0, 0, 1, 0x02, 0x01];
            payload.extend(leb128(v));
            let frame = encode(&m);
            assert_eq!(frame[..], sealed(tag::LSDB_DIGEST, &payload)[..], "{v:#x}");
            assert_eq!(decode(&frame), Ok(m), "{v:#x}");
        }
    }

    /// `v` as an LEB128 varint, written out independently of `Writer`.
    fn leb128(mut v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let group = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(group);
                return out;
            }
            out.push(group | 0x80);
        }
    }

    /// `links_hash` is defined over words, not over a frame: per link
    /// the big-endian neighbor id, then the big-endian cost bits, built
    /// here by hand. Refresh matching compares exactly what it compared
    /// when a `LinkState` frame still carried those words.
    #[test]
    fn links_hash_is_the_checksum_of_the_link_words() {
        let mut costs = lsa(5, 3);
        costs.links[0].cost = f32::NAN;
        costs.links[1].cost = -0.0;
        costs.links[2].cost = f32::INFINITY;
        for l in [lsa(0, 0), lsa(7, 1), lsa(3, 4), lsa(u32::MAX - 9, 9), costs] {
            let mut words = Vec::new();
            for link in &l.links {
                words.extend_from_slice(&link.neighbor.0.to_be_bytes());
                words.extend_from_slice(&link.cost.to_bits().to_be_bytes());
            }
            assert_eq!(words.len(), 8 * l.links.len());
            assert_eq!(links_hash(&l.links), fnv1a(&words), "{l:?}");
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
        // The length field patched in after the payload counts exactly
        // the bytes between the header and the checksum.
        for m in sample_messages() {
            let f = encode(&m);
            let len = u32::from_be_bytes(f[4..8].try_into().unwrap()) as usize;
            assert_eq!(f.len(), len + ENVELOPE, "{m:?}");
        }
    }

    #[test]
    fn older_versions_are_refused() {
        for m in sample_messages() {
            for old in [1, 2, 3, 4, 5] {
                let mut v = encode(&m);
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
            let mut frame = encode(&m);
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
    /// for the kinds that carry them. A push's refresh count follows its
    /// LSAs, whose encoded length depends on their values: it is the
    /// payload length of the same LSAs pushed alone.
    fn count_offsets(m: &Message) -> Vec<usize> {
        match m {
            Message::LsdbSync { lsas, refreshes } if !refreshes.is_empty() => {
                let alone = encode(&Message::LsdbSync {
                    lsas: lsas.clone(),
                    refreshes: vec![],
                });
                vec![8, 8 + alone.len() - ENVELOPE]
            }
            Message::BootstrapResponse { .. } | Message::LsdbSync { .. } => vec![8],
            Message::LsdbDigest { .. } | Message::LsdbPull { .. } => vec![12],
            _ => vec![],
        }
    }

    /// Ids for the varint roundtrips: small (one-byte deltas), any, and
    /// both ends of `u32`.
    fn id() -> impl Strategy<Value = u32> {
        (0u8..4, any::<u32>()).prop_map(|(kind, v)| match kind {
            0 => v % 300,
            1 => v,
            2 => 0,
            _ => u32::MAX,
        })
    }

    /// Seqs for the varint roundtrips: small, any, and `u64::MAX`.
    fn seq() -> impl Strategy<Value = u64> {
        (0u8..3, any::<u64>()).prop_map(|(kind, v)| match kind {
            0 => v % 300,
            1 => v,
            _ => u64::MAX,
        })
    }

    /// Link costs, infinity and negative zero included, and half steps
    /// (short cost words) as often as not.
    fn cost() -> impl Strategy<Value = f32> {
        (0u8..6, 0.0f32..1e6).prop_map(|(kind, c)| match kind {
            0 => f32::INFINITY,
            1 => -0.0,
            2 | 3 => (c * 2.0).floor() % 64.0 * 0.5,
            _ => c,
        })
    }

    /// `f32` bit patterns for the cost word roundtrip: any, NaNs and
    /// infinities of both signs with any payload, both zeros and the
    /// subnormals, half steps of both signs up to `2^25` (past the short
    /// form's `2^24`), and the short form's edges and both infinities.
    fn cost_bits() -> impl Strategy<Value = u32> {
        (0u8..6, any::<u32>()).prop_map(|(kind, v)| match kind {
            0 => v,
            1 => v | 0x7F80_0000,
            2 => v & 0x807F_FFFF,
            3 => ((v >> 7) as f32 * 0.5).to_bits() | (v << 31),
            4 => (((v % 64) * 2 + 1) as f32 * 0.5).to_bits(),
            _ => [
                0.0f32,
                -0.0,
                0.5,
                31.5,
                32.0,
                8_388_607.5,
                8_388_608.0,
                f32::MIN_POSITIVE,
                f32::MAX,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ][v as usize % 11]
                .to_bits(),
        })
    }

    /// A splitmix64 stream: the fuzz loop's only randomness.
    struct Noise(u64);

    impl Noise {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The fuzz loop's seed frames: every message kind, plus varint
    /// frames with long lists, repeats and ids and seqs at their ends.
    fn fuzz_corpus() -> Vec<Message> {
        let mut corpus = sample_messages();
        let wide = [0, 1, 127, 128, 300, 16_383, 16_384, u32::MAX - 1, u32::MAX];
        let seqs = [0, 1, 127, 128, 1 << 35, u64::MAX - 1, u64::MAX];
        corpus.push(Message::LsdbSync {
            lsas: (0..40).map(|i| lsa(i, i as usize % 9)).collect(),
            refreshes: refreshes(7),
        });
        corpus.push(Message::LsdbSync {
            lsas: (0..5).map(|i| lsa(u32::MAX - 20 + 3 * i, 2)).collect(),
            refreshes: vec![],
        });
        corpus.push(Message::LsdbDigest {
            from: NodeId(u32::MAX),
            entries: (0..60)
                .map(|i| (NodeId(wide[i % wide.len()]), seqs[i % seqs.len()]))
                .collect(),
        });
        corpus.push(Message::LsdbDigest {
            from: NodeId(1),
            entries: (0..200).map(|i| (NodeId(i), 1 + i as u64 % 5)).collect(),
        });
        // Runs of six, as a digest of a converged LSDB with gaps.
        corpus.push(Message::LsdbDigest {
            from: NodeId(2),
            entries: (0..120)
                .filter(|i| i % 7 != 3)
                .map(|i| (NodeId(i), 1 + i as u64 % 9))
                .collect(),
        });
        // Escaped costs beside short ones.
        let odd = [0.3, -0.0, f32::INFINITY, f32::NAN, 8_388_608.0, 1e-40, -2.5];
        corpus.push(Message::LsdbSync {
            lsas: (0..6)
                .map(|i| {
                    let mut l = lsa(i, 3);
                    l.links[1].cost = odd[i as usize % odd.len()];
                    l
                })
                .collect(),
            refreshes: vec![],
        });
        corpus.push(Message::LsdbPull {
            from: NodeId(3),
            origins: wide.iter().rev().chain(&wide).map(|&o| NodeId(o)).collect(),
        });
        corpus.push(Message::LinkState {
            lsa: lsa(77, 6),
            ttl: 2,
        });
        // Gossip frames with wide origins and neighbors, seqs at their
        // ends, and escaped costs beside short ones.
        for (i, &origin) in wide.iter().enumerate() {
            let links = (0..i % 7).map(|j| LinkEntry {
                neighbor: NodeId(wide[(i + j) % wide.len()]),
                cost: match j % 3 {
                    2 => odd[(i + j) % odd.len()],
                    _ => (i + j) as f32 * 0.5,
                },
            });
            corpus.push(Message::LinkState {
                lsa: LinkStateAnnouncement {
                    origin: NodeId(origin),
                    seq: seqs[i % seqs.len()],
                    links: links.collect(),
                },
                ttl: i as u8,
            });
        }
        corpus
    }

    /// Where the varint that starts at `at` ends: past its first byte
    /// without the continuation bit, or at the end of `body`.
    fn varint_end(body: &[u8], at: usize) -> usize {
        (at..body.len())
            .find(|&i| body[i] < 0x80)
            .map_or(body.len(), |i| i + 1)
    }

    /// About a million damaged frames through the decoder: resealed
    /// valid frames of every kind with splices, truncations, count
    /// bumps, flipped varint continuation bits, `0x80`-padded
    /// (non-minimal) varints, an empty refresh list appended under the
    /// refresh push's tag, escaped short cost words, digest runs split
    /// in two, `LinkState` origins rewritten past `u32`, `LinkState`
    /// link counts bumped and byte substitutions, one to three each,
    /// the length field fixed up in most so the damage reaches the
    /// parser. Decoding must never panic, and every frame that decodes
    /// must re-encode to the same bytes (Ping / Pong excepted: their
    /// padding is ignored). Deterministic; run it in release:
    /// `cargo test --release -p egoist-proto decoder_fuzz -- --ignored`.
    #[test]
    #[ignore = "a million frames; run in release"]
    fn decoder_fuzz_loop() {
        const INPUTS: usize = 1_000_000;
        let corpus: Vec<(Vec<u8>, Vec<usize>)> = fuzz_corpus()
            .iter()
            .map(|m| {
                let f = encode(m);
                (f[..f.len() - 4].to_vec(), count_offsets(m))
            })
            .collect();
        let mut noise = Noise(0xE601_5700);
        let (mut decoded, mut errors) = (0usize, std::collections::BTreeMap::new());
        for input in 0..INPUTS {
            let (seed, counts) = &corpus[noise.below(corpus.len())];
            let mut body = seed.clone();
            for _ in 0..1 + noise.below(3) {
                let payload = body.len().saturating_sub(8).max(1);
                let at = 8 + noise.below(payload);
                match noise.below(11) {
                    0 => {
                        let end = (at + noise.below(8)).min(body.len());
                        let junk: Vec<u8> =
                            (0..noise.below(8)).map(|_| noise.next() as u8).collect();
                        body.splice(at.min(body.len())..end, junk);
                    }
                    1 => body.truncate(at),
                    2 if !counts.is_empty() => {
                        let off = counts[noise.below(counts.len())];
                        if off + 2 <= body.len() {
                            let c = u16::from_be_bytes([body[off], body[off + 1]]);
                            let c = c.wrapping_add(1 + noise.below(400) as u16);
                            body[off..off + 2].copy_from_slice(&c.to_be_bytes());
                        }
                    }
                    3 if at < body.len() => body[at] ^= 0x80,
                    4 if at < body.len() && body[at] < 0x80 => {
                        body[at] |= 0x80;
                        body.insert(at + 1, 0x00);
                    }
                    // A plain push re-tagged with an empty entry list: a
                    // second encoding of the same message.
                    5 if body.len() > 3 => {
                        body[3] = tag::LSDB_SYNC_REFRESH;
                        body.extend([0, 0]);
                    }
                    // A one-byte short cost word, escaped: the same cost
                    // in its other, refused, spelling.
                    6 if at < body.len() && body[at] < 0x80 && body[at] % 2 == 0 => {
                        let cost = f32::from(body[at] >> 1) * 0.5;
                        let escaped = u64::from(cost.to_bits()) << 1 | 1;
                        body.splice(at..=at, leb128(escaped));
                    }
                    // A digest run of one-byte length and first seq split
                    // after its first entry: two runs, the second
                    // continuing the first, and the run count bumped.
                    7 if body[3] == tag::LSDB_DIGEST
                        && body.len() >= 14
                        && at + 1 < body.len()
                        && (2..0x80).contains(&body[at])
                        && body[at + 1] < 0x80 =>
                    {
                        let len = body[at];
                        body[at] = 1;
                        body.splice(at + 2..at + 2, [0x02, len - 1]);
                        let runs = u16::from_be_bytes([body[12], body[13]]);
                        body[12..14].copy_from_slice(&runs.wrapping_add(1).to_be_bytes());
                    }
                    // A gossip frame's origin (after the ttl) rewritten as
                    // a varint that leaves u32.
                    8 if body[3] == tag::LINK_STATE && body.len() > 9 => {
                        let end = varint_end(&body, 9);
                        let wide = 1 << 32 | noise.next() >> 32;
                        body.splice(9..end, leb128(wide));
                    }
                    // A gossip frame's link count (after the origin and
                    // seq) bumped past the links that follow.
                    9 if body[3] == tag::LINK_STATE && body.len() > 9 => {
                        let count = varint_end(&body, varint_end(&body, 9));
                        if count < body.len() && body[count] < 0x7c {
                            body[count] += 1 + noise.below(3) as u8;
                        }
                    }
                    _ if at < body.len() => body[at] = noise.next() as u8,
                    _ => {}
                }
            }
            if body.len() >= 8 && noise.below(8) != 0 {
                let len = (body.len() - 8) as u32;
                body[4..8].copy_from_slice(&len.to_be_bytes());
            }
            let ck = fnv1a(&body);
            body.extend_from_slice(&ck.to_be_bytes());
            match decode(&body) {
                Ok(m) => {
                    decoded += 1;
                    if !matches!(m, Message::Ping { .. } | Message::Pong { .. }) {
                        assert_eq!(encode(&m)[..], body[..], "input {input}: {m:?}");
                    }
                }
                Err(e) => *errors.entry(format!("{e:?}")).or_insert(0usize) += 1,
            }
        }
        println!("{INPUTS} inputs: {decoded} decoded, errors {errors:?}");
        // The damage reached the varint parser, both ways.
        assert!(decoded > INPUTS / 100, "{decoded} decoded");
        for kind in [
            "BadVarint",
            "BadId",
            "EmptyRefreshes",
            "Truncated",
            "BadCost",
            "BadRun",
        ] {
            assert!(
                errors.get(kind).is_some_and(|&n| n > 0),
                "no {kind}: {errors:?}"
            );
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
            let frame = encode(m);
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

        /// Roundtrip for arbitrary `LinkState` frames: ids, seqs and cost
        /// bits drawn as the push and cost roundtrips draw them, NaN
        /// payloads, both zeros and both infinities among the costs. A NaN
        /// is not equal to itself, so the costs are compared as bits, and
        /// the decoded message re-encodes to the same frame.
        #[test]
        fn link_state_roundtrip(origin in id(), seq in seq(), ttl in any::<u8>(),
                                links in proptest::collection::vec((id(), cost_bits()), 0..24)) {
            let lsa = LinkStateAnnouncement {
                origin: NodeId(origin),
                seq,
                links: links
                    .iter()
                    .map(|&(n, b)| LinkEntry { neighbor: NodeId(n), cost: f32::from_bits(b) })
                    .collect(),
            };
            let frame = encode(&Message::LinkState { lsa, ttl });
            let back = decode(&frame).unwrap();
            let Message::LinkState { lsa: got, ttl: got_ttl } = &back else {
                panic!("a gossip frame decodes as one: {back:?}");
            };
            let got_links: Vec<(u32, u32)> =
                got.links.iter().map(|l| (l.neighbor.0, l.cost.to_bits())).collect();
            prop_assert_eq!((got.origin.0, got.seq, *got_ttl), (origin, seq, ttl));
            prop_assert_eq!(got_links, links);
            prop_assert_eq!(encode(&back), frame);
        }

        /// §4.3 prices a link-state packet at `192 + 32k` bits. In the
        /// fleets' range — ids past one varint byte but below two, seqs
        /// below 128, costs on the half-millisecond grid below 32 ms —
        /// a `LinkState` frame, envelope included, never costs more.
        #[test]
        fn fleet_range_lsas_cost_no_more_than_the_paper_prices(
            origin in 128u32..1 << 14,
            seq in 0u64..128,
            ttl in any::<u8>(),
            links in proptest::collection::vec((128u32..1 << 14, 0u32..64), 0..17),
        ) {
            let k = links.len();
            let lsa = LinkStateAnnouncement {
                origin: NodeId(origin),
                seq,
                links: links
                    .iter()
                    .map(|&(n, q)| LinkEntry { neighbor: NodeId(n), cost: q as f32 * 0.5 })
                    .collect(),
            };
            let len = encode(&Message::LinkState { lsa, ttl }).len();
            prop_assert!(
                len <= (192 + 32 * k) / 8,
                "a {k}-link LSA takes {len} bytes, over §4.3's (192 + 32k) / 8 = {}. \
                 Its costs are half-millisecond steps below 32 ms; exact RTT estimates \
                 (ROADMAP item 15) would take 5-byte escapes",
                (192 + 32 * k) / 8
            );
        }

        /// Every `f32` bit pattern a pushed link can carry comes back
        /// bit for bit, and takes the short word exactly when it is a
        /// non-negative finite half step below `2^23`.
        #[test]
        fn every_cost_roundtrips_bit_exactly(bits in proptest::collection::vec(cost_bits(), 1..16)) {
            let links = bits
                .iter()
                .enumerate()
                .map(|(i, &b)| LinkEntry { neighbor: NodeId(i as u32), cost: f32::from_bits(b) })
                .collect();
            let m = Message::LsdbSync {
                lsas: vec![LinkStateAnnouncement { origin: NodeId(3), seq: 9, links }],
                refreshes: vec![],
            };
            let Message::LsdbSync { lsas, .. } = decode(&encode(&m)).unwrap() else {
                panic!("a push decodes as a push");
            };
            let back: Vec<u32> = lsas[0].links.iter().map(|l| l.cost.to_bits()).collect();
            prop_assert_eq!(&back, &bits);
            for &b in &bits {
                let c = f32::from_bits(b);
                let half = c * 2.0;
                let short = b >> 31 == 0 && half.fract() == 0.0 && half < 16_777_216.0;
                prop_assert_eq!(cost_word(c) & 1 == 0, short, "{:#x}", b);
                prop_assert!(leb128(cost_word(c)).len() <= if short { 4 } else { 5 });
            }
        }

        /// Roundtrip for arbitrary anti-entropy digests and pulls: any
        /// order, repeated origins, ids at both ends of `u32` (the
        /// widest zigzag deltas) and seqs up to `u64::MAX` (10 bytes);
        /// sorted, the digest runs as a converged LSDB's does.
        #[test]
        fn digest_roundtrip(from in any::<u32>(),
                            entries in proptest::collection::vec((id(), seq()), 0..128)) {
            let m = Message::LsdbDigest {
                from: NodeId(from),
                entries: entries.iter().map(|&(o, s)| (NodeId(o), s)).collect(),
            };
            prop_assert_eq!(decode(&encode(&m)).unwrap(), m);
            let mut sorted = entries.clone();
            sorted.sort_unstable();
            let m = Message::LsdbDigest {
                from: NodeId(from),
                entries: sorted.iter().map(|&(o, s)| (NodeId(o), s)).collect(),
            };
            prop_assert_eq!(decode(&encode(&m)).unwrap(), m);
            let p = Message::LsdbPull {
                from: NodeId(from),
                origins: entries.iter().map(|&(o, _)| NodeId(o)).collect(),
            };
            prop_assert_eq!(decode(&encode(&p)).unwrap(), p);
        }

        /// Roundtrip for arbitrary pushes, LSAs and refresh entries alike,
        /// drawn as the digest roundtrip draws its entries; `encode_sync`
        /// of the borrows is the same frame.
        #[test]
        fn push_roundtrip(
            lsas in proptest::collection::vec(
                (id(), seq(), proptest::collection::vec((id(), cost()), 0..8)),
                0..24,
            ),
            entries in proptest::collection::vec((id(), seq(), any::<u32>()), 0..24),
        ) {
            let lsas: Vec<LinkStateAnnouncement> = lsas
                .into_iter()
                .map(|(origin, seq, links)| LinkStateAnnouncement {
                    origin: NodeId(origin),
                    seq,
                    links: links
                        .into_iter()
                        .map(|(n, cost)| LinkEntry { neighbor: NodeId(n), cost })
                        .collect(),
                })
                .collect();
            let refreshes: Vec<Refresh> = entries
                .into_iter()
                .map(|(origin, seq, links_hash)| Refresh { origin: NodeId(origin), seq, links_hash })
                .collect();
            let refs: Vec<LsaRef> = lsas.iter().map(LsaRef::from).collect();
            let frame = encode_sync(&refs, &refreshes);
            let m = Message::LsdbSync { lsas, refreshes };
            prop_assert_eq!(&frame, &encode(&m));
            prop_assert_eq!(decode(&frame).unwrap(), m);
        }
    }
}
