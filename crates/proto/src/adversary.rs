//! Scripted adversaries for the chaos fleet (§4.5, beyond free-riding).
//!
//! Two attack shapes, both run as deterministic actors on the simulated
//! network:
//!
//! * **Sybil swarm** — many protocol identities backed by *one* endpoint
//!   budget (a shared token bucket over total frames/sec, modeling a
//!   single physical uplink). Some identities speak only garbage.
//! * **Eclipse lure** — each lying identity floods forged LSAs claiming
//!   near-zero-cost links to every victim and to its fellow Sybils, so
//!   the swarm looks like an irresistible transit hub to the §3.1
//!   wiring objective.
//!
//! * **Third-party forgery** — the smarter lure: each victim receives a
//!   per-victim LSA *variant that omits the link to that victim*, so the
//!   §3.4 first-hand audit (which only checks links-to-me) never fires.
//!   Every forged link is a third-party claim from the recipient's
//!   perspective.
//!
//! The defenses under test live in [`crate::node`]: the full-fan lure
//! necessarily claims a link *to* each victim, which the victim audits
//! against its own measurement and punishes; garbage earns decode
//! strikes; and the third-party variants are caught by second-hand claim
//! ranking — a near-zero forged cost between two nodes the recipient
//! *has* measured violates the triangle inequality, quarantining the
//! link and tallying the origin toward a ban. A correctly defending
//! fleet ends with no attacker identity in any honest active view and no
//! forged link in any honest routing graph.

use crate::codec::{decode, encode};
use crate::message::{LinkEntry, LinkStateAnnouncement, Message};
use crate::transport::Transport;
use egoist_graph::NodeId;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use tokio::time::Instant;

/// Shared uplink budget for a whole swarm: a token bucket refilled in
/// virtual time. Every frame any identity sends costs one token, so
/// adding identities never adds capacity — the paper's asymmetry
/// between cheap identities and scarce bandwidth.
pub struct EndpointBudget {
    inner: Mutex<BudgetInner>,
    rate: f64,
    burst: f64,
}

struct BudgetInner {
    tokens: f64,
    last: Instant,
}

impl EndpointBudget {
    /// Bucket allowing `rate` frames/sec with `burst` headroom.
    pub fn new(rate: f64, burst: f64) -> Arc<Self> {
        Arc::new(EndpointBudget {
            inner: Mutex::new(BudgetInner {
                tokens: burst,
                last: Instant::now(),
            }),
            rate,
            burst,
        })
    }

    /// Take one token if available.
    pub fn try_take(&self) -> bool {
        let mut b = self.inner.lock();
        let now = Instant::now();
        let dt = now.duration_since(b.last).as_secs_f64();
        b.last = now;
        b.tokens = (b.tokens + dt * self.rate).min(self.burst);
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Shared uplink: total frames/sec across every identity of a swarm.
const FRAMES_PER_SEC: f64 = 40.0;
/// Token-bucket burst headroom of the shared uplink.
const BURST: f64 = 20.0;
/// Claimed cost of forged links (the lure; honest delays are ≥ ms).
const LURE_COST: f32 = 0.05;
/// How often each identity floods its forged LSA.
const LURE_INTERVAL: Duration = Duration::from_secs(3);

/// Swarm script parameters.
#[derive(Clone, Debug)]
pub struct AdversaryConfig {
    /// Sybil identities (each gets its own transport endpoint).
    pub ids: Vec<NodeId>,
    /// Honest nodes under attack.
    pub victims: Vec<NodeId>,
    /// The first `garbage_ids` identities send undecodable noise
    /// instead of LSAs (pure Sybil spam).
    pub garbage_ids: usize,
    /// Third-party forgery: send each victim a per-victim LSA variant
    /// that *omits* the link to that victim, so the recipient's
    /// first-hand audit has nothing to check and only second-hand claim
    /// ranking can catch the forgery.
    pub third_party: bool,
}

impl AdversaryConfig {
    /// A swarm of `sybils` identities starting at id `first`, attacking
    /// `victims`, with moderate budget and an aggressive lure.
    pub fn swarm(first: usize, sybils: usize, victims: Vec<NodeId>) -> Self {
        AdversaryConfig {
            ids: (first..first + sybils).map(NodeId::from_index).collect(),
            victims,
            garbage_ids: sybils / 4,
            third_party: false,
        }
    }

    /// A swarm that forges only third-party links (no garbage, nothing
    /// the first-hand audit can see).
    pub fn third_party_swarm(first: usize, sybils: usize, victims: Vec<NodeId>) -> Self {
        AdversaryConfig {
            garbage_ids: 0,
            third_party: true,
            ..Self::swarm(first, sybils, victims)
        }
    }
}

/// Aggregate swarm accounting, shared by every identity task.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Frames actually sent (lure + garbage + pongs).
    pub sent: u64,
    /// Sends suppressed by the endpoint budget.
    pub throttled: u64,
    /// Pings answered (the swarm stays measurable on purpose — an
    /// unmeasurable peer never attracts a link).
    pub pongs: u64,
}

/// Spawn one task per identity; returns the shared stats cell.
///
/// `endpoint_for` maps an identity to its transport endpoint (on a
/// [`crate::transport::SimNet`] this is just `net.endpoint(id)`).
pub fn spawn_swarm<T, F>(cfg: &AdversaryConfig, mut endpoint_for: F) -> Arc<Mutex<AdversaryStats>>
where
    T: Transport,
    F: FnMut(NodeId) -> T,
{
    let budget = EndpointBudget::new(FRAMES_PER_SEC, BURST);
    let stats = Arc::new(Mutex::new(AdversaryStats::default()));
    for (slot, &id) in cfg.ids.iter().enumerate() {
        let t = endpoint_for(id);
        let garbage = slot < cfg.garbage_ids;
        tokio::spawn(identity_task(
            t,
            id,
            slot,
            garbage,
            cfg.clone(),
            Arc::clone(&budget),
            Arc::clone(&stats),
        ));
    }
    stats
}

/// Forged announcement: near-zero links to every victim and every
/// fellow Sybil. In third-party mode, `exclude` (the recipient) is
/// dropped from the link set so the first-hand audit never fires.
fn lure_lsa(me: NodeId, seq: u64, cfg: &AdversaryConfig, exclude: Option<NodeId>) -> Message {
    let links: Vec<LinkEntry> = cfg
        .victims
        .iter()
        .copied()
        .chain(cfg.ids.iter().copied().filter(|&s| s != me))
        .filter(|&x| Some(x) != exclude)
        .map(|neighbor| LinkEntry {
            neighbor,
            cost: LURE_COST,
        })
        .collect();
    Message::LinkState {
        lsa: LinkStateAnnouncement {
            origin: me,
            seq,
            links,
        },
        ttl: 8,
    }
}

async fn identity_task<T: Transport>(
    mut transport: T,
    me: NodeId,
    slot: usize,
    garbage: bool,
    cfg: AdversaryConfig,
    budget: Arc<EndpointBudget>,
    stats: Arc<Mutex<AdversaryStats>>,
) {
    // Stagger identities across the lure interval so the swarm's load
    // is spread (and the schedule stays deterministic per slot).
    let stagger = LURE_INTERVAL.mul_f64(slot as f64 / cfg.ids.len().max(1) as f64);
    let mut lure = tokio::time::interval_at(Instant::now() + stagger, LURE_INTERVAL);
    lure.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Skip);
    let mut seq = 0u64;
    loop {
        tokio::select! {
            biased;
            maybe = transport.recv() => {
                let Some((_, frame)) = maybe else { return };
                // Stay pingable: a candidate with no measurement never
                // attracts a link, so the swarm answers probes honestly
                // (the lie lives in the LSAs, not the RTT).
                if let Ok(Message::Ping { from: peer, nonce, hb }) = decode(&frame) {
                    if budget.try_take() {
                        let pong = encode(&Message::Pong { from: me, nonce, hb });
                        let _ = transport.send(peer, pong);
                        let mut s = stats.lock();
                        s.sent += 1;
                        s.pongs += 1;
                    } else {
                        stats.lock().throttled += 1;
                    }
                }
            }
            _ = lure.tick() => {
                for (vi, &v) in cfg.victims.iter().enumerate() {
                    if !budget.try_take() {
                        stats.lock().throttled += 1;
                        continue;
                    }
                    let frame = if garbage {
                        // Wrong magic: fails the codec checksum path.
                        b"\xBA\xD5\x1B\x17garbage-sybil-frame\x00".to_vec()
                    } else if cfg.third_party {
                        // Per-victim variant on its own seq, so every
                        // recipient always sees a fresh forgery even if
                        // variants leak between victims via gossip.
                        encode(&lure_lsa(
                            me,
                            seq * cfg.victims.len() as u64 + vi as u64 + 1,
                            &cfg,
                            Some(v),
                        ))
                    } else {
                        encode(&lure_lsa(me, seq + 1, &cfg, None))
                    };
                    let _ = transport.send(v, frame);
                    stats.lock().sent += 1;
                }
                seq += 1;
            }
        }
    }
}
