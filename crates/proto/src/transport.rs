//! Transport abstraction: real UDP and a deterministic in-process network.
//!
//! The node state machine is generic over [`Transport`], so the *same*
//! protocol logic runs over loopback/LAN UDP (the live deployment path)
//! and over [`SimTransport`] (frames delivered through `egoist-netsim`
//! link delays and fault injection, with tokio's paused clock making
//! tests instant and deterministic). Either way the node sends
//! synchronously and its driver, the [`crate::wheel::Wheel`], drains
//! what arrived with [`Transport::try_recv`]. A [`SimNet`]'s verdict
//! counts are its injector's own [`FaultStats`], re-exported here.
//!
//! # How [`SimNet`] delivers
//!
//! Each [`SimTransport`] owns the *calendar* of the frames in flight to
//! it, a min-heap keyed by (delivery instant, send sequence), and
//! nothing but the receiver takes frames out of it. A send asks the
//! fault injector for a verdict on the frame's *length*, and pushes one
//! entry into the destination's calendar — two for a `Duplicate`
//! verdict, a later one for `Delayed` / `Reordered`. A frame is a plain
//! `Vec<u8>` the sender hands over: a `Corrupted` verdict flips its bit
//! in place, and only a `Duplicate` verdict copies it. No task delivers
//! anything, and the runtime sees no timer per frame.
//!
//! [`Transport::try_recv`] pops the head once it is due: its instant
//! is at or before `Instant::now()`. A frame count kept in an atomic
//! beside the heap makes `try_recv` on an empty calendar — what the
//! fleet's drain sweep finds at most nodes on most steps — one load.
//! [`Transport::recv`] returns a due head, or `None` once
//! [`SimNet::disconnect`] has closed an empty calendar; otherwise it
//! sleeps until the head is due, and a send that puts an earlier frame
//! at the head wakes it to re-arm.
//!
//! The instant is `Instant::now() + Duration::from_secs_f64(ms /
//! 1000.0)`, read at send time, so a frame lands at the same virtual
//! nanosecond as the one-task-per-frame delivery this replaced. Frames
//! due at the same instant come out in send order, and a step at
//! instant `t` takes every frame due by `t`. A frame in flight stays in
//! its calendar: it still lands after a `disconnect`, and after the
//! runtime it was sent on ends it lands at its instant on the next
//! runtime's clock.

use egoist_graph::{DistanceMatrix, NodeId};
/// The verdict counts a [`SimNet`] reports ([`SimNet::fault_stats`]).
pub use egoist_netsim::fault::FaultStats;
use egoist_netsim::fault::{FaultConfig, FaultInjector, FaultPlan, Verdict};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::future::Future;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::task::{Context, Poll, Waker};
use std::time::Duration;
use tokio::time::Instant;

/// Obs handles for transport-level drops that used to vanish silently.
struct TransportObs {
    unknown_sender: egoist_obs::Counter,
    no_endpoint: egoist_obs::Counter,
    /// UDP sends the socket refused (`WouldBlock`, oversize datagrams).
    send_failed: egoist_obs::Counter,
}

fn transport_obs() -> &'static TransportObs {
    static OBS: OnceLock<TransportObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = egoist_obs::registry();
        TransportObs {
            unknown_sender: r.counter("proto.drop.unknown_sender"),
            no_endpoint: r.counter("proto.drop.no_endpoint"),
            send_failed: r.counter("proto.drop.send_failed"),
        }
    })
}

/// A datagram transport between overlay nodes.
pub trait Transport: Send + 'static {
    /// This endpoint's node id.
    fn local_id(&self) -> NodeId;

    /// Send one frame to a peer, without waiting. Unreachable peers are
    /// a silent drop (datagram semantics) — protocol liveness comes from
    /// retries and timeouts, not the transport. An `Err` is a frame the
    /// transport could not send, and it counts it.
    fn send(&self, to: NodeId, frame: Vec<u8>) -> io::Result<()>;

    /// Receive the next frame as `(sender, bytes)`. `None` = transport
    /// closed.
    fn recv(&mut self) -> impl std::future::Future<Output = Option<(NodeId, Vec<u8>)>> + Send;

    /// Non-blocking receive: the next already-delivered frame, or `None`
    /// when none is waiting. The wheel drains every node with this.
    fn try_recv(&mut self) -> Option<(NodeId, Vec<u8>)>;
}

// ---------------------------------------------------------------------
// Simulated network
// ---------------------------------------------------------------------

/// A frame in flight to one endpoint: `(at, seq, from, frame)`. It lands
/// at `at`; `seq` counts the endpoint's pushes, so frames due at the same
/// instant come out in send order and no two entries compare equal.
type InFlight = (Instant, u64, NodeId, Vec<u8>);

/// The frames in flight to one endpoint.
#[derive(Default)]
struct Calendar {
    frames: BinaryHeap<Reverse<InFlight>>,
    pushed: u64,
    /// `disconnect` ran: nothing more is pushed.
    closed: bool,
    /// A parked `recv`'s waker.
    parked: Option<Waker>,
}

impl Calendar {
    /// When the earliest frame is due.
    fn head(&self) -> Option<Instant> {
        self.frames.peek().map(|Reverse((at, ..))| *at)
    }
}

/// One endpoint's calendar, shared by its senders and its receiver.
#[derive(Default)]
struct Inbox {
    /// `calendar.frames.len()`, readable without the lock, so `try_recv`
    /// on an empty calendar is one load. Frames are only read under the
    /// lock, so the count publishes nothing itself and is `Relaxed`.
    len: AtomicUsize,
    calendar: Mutex<Calendar>,
}

impl Inbox {
    /// Put one frame in flight, landing `ms` from now.
    fn push(&self, ms: f64, from: NodeId, frame: Vec<u8>) {
        let at = Instant::now() + Duration::from_secs_f64(ms / 1000.0);
        let mut cal = self.calendar.lock();
        // Due before the head a parked `recv` sleeps until: wake it.
        let earlier = cal.head().is_none_or(|head| at < head);
        let seq = cal.pushed;
        cal.pushed += 1;
        cal.frames.push(Reverse((at, seq, from, frame)));
        self.len.store(cal.frames.len(), Ordering::Relaxed);
        if earlier {
            if let Some(w) = cal.parked.take() {
                w.wake();
            }
        }
    }

    /// Take the earliest frame if it is due by `now`.
    fn pop_due(&self, cal: &mut Calendar, now: Instant) -> Option<(NodeId, Vec<u8>)> {
        if cal.head()? > now {
            return None;
        }
        let Reverse((_, _, from, frame)) = cal.frames.pop()?;
        self.len.store(cal.frames.len(), Ordering::Relaxed);
        Some((from, frame))
    }

    /// A due frame; `None` once a closed calendar is empty; otherwise
    /// park until the head is due or an earlier frame arrives.
    fn poll_recv(&self, cx: &mut Context<'_>) -> Poll<Option<(NodeId, Vec<u8>)>> {
        loop {
            let mut cal = self.calendar.lock();
            if let Some(got) = self.pop_due(&mut cal, Instant::now()) {
                return Poll::Ready(Some(got));
            }
            let head = cal.head();
            if head.is_none() && cal.closed {
                return Poll::Ready(None);
            }
            cal.parked = Some(cx.waker().clone());
            drop(cal);
            let Some(at) = head else {
                return Poll::Pending;
            };
            let mut due = tokio::time::sleep_until(at);
            if Pin::new(&mut due).poll(cx).is_pending() {
                return Poll::Pending;
            }
            // The real clock reached the head meanwhile: take it.
        }
    }
}

struct SimNetInner {
    /// One-way frame latency in milliseconds per directed pair.
    delays: DistanceMatrix,
    /// Every endpoint not disconnected; a dropped one leaves a dead
    /// entry, and frames sent to it are lost.
    inboxes: Mutex<HashMap<NodeId, Weak<Inbox>>>,
    fault: Mutex<FaultInjector>,
    epoch: Instant,
    pub frames_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
}

/// An in-process network shared by many [`SimTransport`] endpoints.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<SimNetInner>,
}

impl SimNet {
    /// Build a network with per-pair one-way delays (ms) and a fault
    /// injector configuration.
    pub fn new(delays: DistanceMatrix, fault: FaultConfig, seed: u64) -> Self {
        Self::with_plan(delays, fault, None, seed)
    }

    /// Build a network with a scheduled [`FaultPlan`] (partitions, churn
    /// storms, loss/jitter windows) on top of the base fault config.
    pub fn with_plan(
        delays: DistanceMatrix,
        fault: FaultConfig,
        plan: Option<FaultPlan>,
        seed: u64,
    ) -> Self {
        SimNet {
            inner: Arc::new(SimNetInner {
                delays,
                inboxes: Mutex::new(HashMap::new()),
                fault: Mutex::new(FaultInjector::with_plan(fault, plan, seed)),
                epoch: Instant::now(),
                frames_sent: AtomicU64::new(0),
                bytes_sent: AtomicU64::new(0),
            }),
        }
    }

    /// A clean (lossless) network.
    pub fn clean(delays: DistanceMatrix) -> Self {
        Self::new(delays, FaultConfig::default(), 0)
    }

    /// Create the endpoint for node `id`. Panics if `id` already exists.
    pub fn endpoint(&self, id: NodeId) -> SimTransport {
        let inbox = Arc::new(Inbox::default());
        let prev = self.inner.inboxes.lock().insert(id, Arc::downgrade(&inbox));
        assert!(prev.is_none(), "duplicate endpoint for {id}");
        SimTransport {
            id,
            net: Arc::clone(&self.inner),
            inbox,
        }
    }

    /// Disconnect an endpoint — abrupt node failure. New sends to it are
    /// lost; frames already in flight still land, and its stream ends
    /// after the last of them.
    pub fn disconnect(&self, id: NodeId) {
        let Some(inbox) = self.inner.inboxes.lock().remove(&id) else {
            return;
        };
        if let Some(inbox) = inbox.upgrade() {
            let mut cal = inbox.calendar.lock();
            cal.closed = true;
            if let Some(w) = cal.parked.take() {
                w.wake();
            }
        }
    }

    /// Total frames accepted for transmission.
    pub fn frames_sent(&self) -> u64 {
        self.inner.frames_sent.load(Ordering::Relaxed)
    }

    /// Total payload bytes accepted for transmission.
    pub fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent.load(Ordering::Relaxed)
    }

    /// Snapshot of the shared fault injector's verdict counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.fault.lock().stats
    }
}

/// One node's endpoint on a [`SimNet`]: it owns the calendar of the
/// frames in flight to it.
pub struct SimTransport {
    id: NodeId,
    net: Arc<SimNetInner>,
    inbox: Arc<Inbox>,
}

impl Transport for SimTransport {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, mut frame: Vec<u8>) -> io::Result<()> {
        let net = &self.net;
        net.frames_sent.fetch_add(1, Ordering::Relaxed);
        net.bytes_sent
            .fetch_add(frame.len() as u64, Ordering::Relaxed);

        let now = net.epoch.elapsed().as_secs_f64();
        let from = self.id;
        let verdict = net.fault.lock().verdict(now, from, to, frame.len());
        if matches!(verdict, Verdict::Drop | Verdict::Cut) {
            return Ok(()); // datagram lost (loss or partition/storm cut)
        }
        let Some(inbox) = net.inboxes.lock().get(&to).map(Weak::upgrade) else {
            transport_obs().no_endpoint.inc();
            return Ok(()); // peer gone: datagram lost
        };
        let Some(inbox) = inbox else {
            return Ok(()); // endpoint dropped: datagram lost
        };
        let delay_ms = if to.index() < net.delays.len() && from.index() < net.delays.len() {
            net.delays.get(from, to).max(0.0)
        } else {
            1.0
        };
        verdict.damage(&mut frame);
        match verdict {
            Verdict::Duplicate { extra_us } => {
                inbox.push(delay_ms, from, frame.clone());
                inbox.push(delay_ms + extra_us as f64 / 1000.0, from, frame);
            }
            Verdict::Delayed { extra_us } | Verdict::Reordered { extra_us } => {
                inbox.push(delay_ms + extra_us as f64 / 1000.0, from, frame);
            }
            _ => inbox.push(delay_ms, from, frame),
        }
        Ok(())
    }

    async fn recv(&mut self) -> Option<(NodeId, Vec<u8>)> {
        std::future::poll_fn(|cx| self.inbox.poll_recv(cx)).await
    }

    fn try_recv(&mut self) -> Option<(NodeId, Vec<u8>)> {
        if self.inbox.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.inbox
            .pop_due(&mut self.inbox.calendar.lock(), Instant::now())
    }
}

// ---------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------

/// A UDP endpoint with a static peer roster (id ↔ address).
///
/// The roster is shared and mutable, so late joiners can be added; a full
/// deployment would learn addresses from the bootstrap exchange, which the
/// prototype keeps out of band as PlanetLab's EGOIST did with its central
/// bootstrap list. The socket is nonblocking: sends go out at once or
/// fail, and [`Transport::try_recv`] reads whatever datagrams wait.
pub struct UdpTransport {
    id: NodeId,
    socket: UdpSocket,
    by_id: Arc<Mutex<HashMap<NodeId, SocketAddr>>>,
    by_addr: Arc<Mutex<HashMap<SocketAddr, NodeId>>>,
    buf: Vec<u8>,
}

impl UdpTransport {
    /// Bind `id` to `addr` (use port 0 for an OS-assigned port).
    pub fn bind(id: NodeId, addr: &str) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        Ok(UdpTransport {
            id,
            socket,
            by_id: Arc::new(Mutex::new(HashMap::new())),
            by_addr: Arc::new(Mutex::new(HashMap::new())),
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Register a peer's address.
    pub fn add_peer(&self, id: NodeId, addr: SocketAddr) {
        self.by_id.lock().insert(id, addr);
        self.by_addr.lock().insert(addr, id);
    }
}

impl Transport for UdpTransport {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, frame: Vec<u8>) -> io::Result<()> {
        let addr = { self.by_id.lock().get(&to).copied() };
        let Some(addr) = addr else {
            return Ok(()); // unknown peer: datagram lost
        };
        // A full send buffer (`WouldBlock`) or a frame over the 65 507 B
        // datagram limit loses the frame, counted.
        let sent = self.socket.send_to(&frame, addr);
        if sent.is_err() {
            transport_obs().send_failed.inc();
        }
        sent.map(drop)
    }

    /// Polls [`Self::try_recv`] every millisecond; a UDP socket never
    /// closes.
    async fn recv(&mut self) -> Option<(NodeId, Vec<u8>)> {
        loop {
            if let Some(got) = self.try_recv() {
                return Some(got);
            }
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
    }

    fn try_recv(&mut self) -> Option<(NodeId, Vec<u8>)> {
        loop {
            // `WouldBlock` is an empty queue; any other error ends this
            // read, and the next one starts afresh.
            let (len, addr) = self.socket.recv_from(&mut self.buf).ok()?;
            let from = { self.by_addr.lock().get(&addr).copied() };
            if let Some(from) = from {
                return Some((from, self.buf[..len].to_vec()));
            }
            // Unknown sender: drop (counted) and keep reading.
            transport_obs().unknown_sender.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_delays(ms: f64) -> DistanceMatrix {
        DistanceMatrix::off_diagonal(2, ms)
    }

    #[test]
    fn sim_delivers_with_delay() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(two_node_delays(25.0));
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            let t0 = tokio::time::Instant::now();
            a.send(NodeId(1), b"hi".to_vec()).unwrap();
            let (from, data) = b.recv().await.unwrap();
            let elapsed = t0.elapsed().as_secs_f64() * 1000.0;
            assert_eq!(from, NodeId(0));
            assert_eq!(&data[..], b"hi");
            assert!((elapsed - 25.0).abs() < 1.0, "latency {elapsed} ms");
        });
    }

    #[test]
    fn sim_drops_to_unknown_peer() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(two_node_delays(1.0));
            let a = net.endpoint(NodeId(0));
            // No endpoint for node 1: send succeeds, nothing delivered.
            a.send(NodeId(1), b"x".to_vec()).unwrap();
            assert_eq!(net.frames_sent(), 1);
        });
    }

    #[test]
    fn sim_fault_injection_drops() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::new(two_node_delays(1.0), FaultConfig::lossy(1.0), 7);
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            for _ in 0..10 {
                a.send(NodeId(1), b"y".to_vec()).unwrap();
            }
            // All dropped: recv should time out.
            let got = tokio::time::timeout(std::time::Duration::from_secs(5), b.recv()).await;
            assert!(got.is_err(), "lossy(1.0) must drop everything");
        });
    }

    #[test]
    fn sim_disconnect_blackholes() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(two_node_delays(1.0));
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            net.disconnect(NodeId(1));
            a.send(NodeId(1), b"z".to_vec()).unwrap();
            // The net no longer reaches b, so b's stream ends without ever
            // delivering the frame.
            let got = tokio::time::timeout(std::time::Duration::from_secs(5), b.recv()).await;
            assert_eq!(got, Ok(None));
        });
    }

    #[test]
    fn sim_partition_window_cuts_then_heals() {
        tokio::runtime::block_on_paused(async {
            let plan = egoist_netsim::FaultPlan::new().partition(
                5.0,
                15.0,
                vec![vec![NodeId(0)], vec![NodeId(1)]],
            );
            let net =
                SimNet::with_plan(two_node_delays(1.0), FaultConfig::default(), Some(plan), 3);
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            // Before the window: delivered.
            a.send(NodeId(1), b"pre".to_vec()).unwrap();
            assert_eq!(&b.recv().await.unwrap().1[..], b"pre");
            // Inside the window: cut.
            tokio::time::sleep(std::time::Duration::from_secs(8)).await;
            a.send(NodeId(1), b"mid".to_vec()).unwrap();
            let got = tokio::time::timeout(std::time::Duration::from_secs(2), b.recv()).await;
            assert!(got.is_err(), "partitioned frame must be cut");
            assert_eq!(net.fault_stats().cut, 1);
            // After the heal: delivered again.
            tokio::time::sleep(std::time::Duration::from_secs(8)).await;
            a.send(NodeId(1), b"post".to_vec()).unwrap();
            assert_eq!(&b.recv().await.unwrap().1[..], b"post");
        });
    }

    #[test]
    fn sim_duplicate_verdict_delivers_twice() {
        tokio::runtime::block_on_paused(async {
            let cfg = FaultConfig {
                duplicate_chance: 1.0,
                ..Default::default()
            };
            let net = SimNet::new(two_node_delays(1.0), cfg, 4);
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            a.send(NodeId(1), b"dup".to_vec()).unwrap();
            assert_eq!(&b.recv().await.unwrap().1[..], b"dup");
            assert_eq!(&b.recv().await.unwrap().1[..], b"dup");
            assert_eq!(net.fault_stats().duplicated, 1);
        });
    }

    #[test]
    fn same_instant_frames_arrive_in_send_order() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(two_node_delays(7.0));
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            for i in 0..16u8 {
                a.send(NodeId(1), vec![i]).unwrap();
            }
            let t0 = Instant::now();
            for i in 0..16u8 {
                assert_eq!(b.recv().await.unwrap().1[..], [i]);
            }
            assert_eq!(t0.elapsed(), Duration::from_secs_f64(0.007));
            assert_eq!(b.try_recv(), None);
        });
    }

    #[test]
    fn duplicate_lands_twice_the_echo_extra_us_later() {
        let cfg = FaultConfig {
            duplicate_chance: 1.0,
            jitter_ms: 20.0,
            ..Default::default()
        };
        // The net's injector, replayed: what it will decide for the frame.
        let mut twin = FaultInjector::new(cfg, 4);
        let Verdict::Duplicate { extra_us } = twin.verdict(0.0, NodeId(0), NodeId(1), 3) else {
            panic!("duplicate_chance 1.0 must duplicate");
        };
        tokio::runtime::block_on_paused(async {
            let net = SimNet::new(two_node_delays(5.0), cfg, 4);
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            let t0 = Instant::now();
            a.send(NodeId(1), b"dup".to_vec()).unwrap();
            assert_eq!(&b.recv().await.unwrap().1[..], b"dup");
            assert_eq!(t0.elapsed(), Duration::from_secs_f64(5.0 / 1000.0));
            assert_eq!(&b.recv().await.unwrap().1[..], b"dup");
            let echo_ms = 5.0 + extra_us as f64 / 1000.0;
            assert_eq!(t0.elapsed(), Duration::from_secs_f64(echo_ms / 1000.0));
        });
    }

    #[test]
    fn corruption_damages_only_the_frame_it_hits() {
        let cfg = FaultConfig {
            corrupt_chance: 0.5,
            ..Default::default()
        };
        let sent = vec![0x5Au8; 24];
        let targets = [NodeId(1), NodeId(2), NodeId(3)];
        // A seed whose verdicts on the three sends corrupt some, not all.
        let verdicts = |seed| {
            let mut twin = FaultInjector::new(cfg, seed);
            targets.map(|t| twin.verdict(0.0, NodeId(0), t, sent.len()))
        };
        let seed = (0..)
            .find(|&s| {
                let hit = verdicts(s).map(|v| matches!(v, Verdict::Corrupted { .. }));
                hit.contains(&true) && hit.contains(&false)
            })
            .unwrap();
        tokio::runtime::block_on_paused(async {
            let net = SimNet::new(DistanceMatrix::off_diagonal(4, 2.0), cfg, seed);
            let a = net.endpoint(NodeId(0));
            let mut inboxes: Vec<SimTransport> = targets.iter().map(|&t| net.endpoint(t)).collect();
            for &t in &targets {
                a.send(t, sent.clone()).unwrap();
            }
            for (rx, verdict) in inboxes.iter_mut().zip(verdicts(seed)) {
                let got = rx.recv().await.unwrap().1;
                let mut want = sent.clone();
                verdict.damage(&mut want);
                assert_eq!(got[..], want[..]);
                let flipped: u32 = got
                    .iter()
                    .zip(&sent[..])
                    .map(|(x, y)| (x ^ y).count_ones())
                    .sum();
                let corrupted = matches!(verdict, Verdict::Corrupted { .. });
                assert_eq!(flipped, u32::from(corrupted), "{verdict:?}");
            }
        });
    }

    #[test]
    fn frame_in_flight_outlives_disconnect_then_the_stream_ends() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(two_node_delays(10.0));
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            a.send(NodeId(1), b"last".to_vec()).unwrap();
            net.disconnect(NodeId(1));
            a.send(NodeId(1), b"lost".to_vec()).unwrap();
            assert_eq!(&b.recv().await.unwrap().1[..], b"last");
            assert_eq!(b.recv().await, None);
            assert_eq!(b.try_recv(), None);
        });
    }

    #[test]
    fn interleaved_recv_and_try_recv_see_every_frame_once() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(two_node_delays(1.0));
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            for i in 0..40u8 {
                a.send(NodeId(1), vec![i]).unwrap();
                if i % 5 == 4 {
                    tokio::time::sleep(Duration::from_micros(700)).await;
                }
            }
            // Frames are queued and in flight when the registration goes.
            net.disconnect(NodeId(1));
            let mut got = Vec::new();
            for step in 0.. {
                if step % 3 == 0 {
                    got.extend(b.try_recv().map(|(_, f)| f[0]));
                    continue;
                }
                match b.recv().await {
                    Some((_, f)) => got.push(f[0]),
                    None => break,
                }
            }
            assert_eq!(got, (0..40).collect::<Vec<u8>>());
        });
    }

    /// A `recv` parked on a frame due at 50 ms re-arms when a frame sent
    /// later is due earlier: that one lands at its own instant first.
    #[test]
    fn recv_rearms_for_an_earlier_frame() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(DistanceMatrix::from_fn(3, |i, _| [50.0, 1.0, 4.0][i]));
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            let c = net.endpoint(NodeId(2));
            let t0 = Instant::now();
            a.send(NodeId(1), b"slow".to_vec()).unwrap();
            // `c` sends 1 ms in, while `recv` is parked on the slow frame.
            let got = {
                let mut recv = std::pin::pin!(b.recv());
                let mut send = std::pin::pin!(async {
                    tokio::time::sleep(Duration::from_millis(1)).await;
                    c.send(NodeId(1), b"fast".to_vec()).unwrap();
                });
                let mut sent = false;
                std::future::poll_fn(|cx| {
                    let got = recv.as_mut().poll(cx);
                    sent = sent || send.as_mut().poll(cx).is_ready();
                    got
                })
                .await
            };
            assert_eq!(got, Some((NodeId(2), b"fast".to_vec())));
            let fast = Duration::from_millis(1) + Duration::from_secs_f64(4.0 / 1000.0);
            assert_eq!(t0.elapsed(), fast);
            assert_eq!(b.recv().await, Some((NodeId(0), b"slow".to_vec())));
            assert_eq!(t0.elapsed(), Duration::from_secs_f64(50.0 / 1000.0));
        });
    }

    /// A drain at instant `t` takes every frame due by `t` — the ones due
    /// exactly at `t` included — in (instant, send order), and nothing
    /// due later.
    #[test]
    fn a_drain_sees_every_frame_due_by_its_instant() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(DistanceMatrix::from_fn(4, |i, _| [3.0, 1.0, 5.0, 7.0][i]));
            let [early, mut b, on_time, late] = [0, 1, 2, 3].map(|i| net.endpoint(NodeId(i)));
            on_time.send(NodeId(1), vec![1]).unwrap();
            early.send(NodeId(1), vec![0]).unwrap();
            late.send(NodeId(1), vec![3]).unwrap();
            on_time.send(NodeId(1), vec![2]).unwrap();
            tokio::time::sleep(Duration::from_secs_f64(5.0 / 1000.0)).await;
            let drain = |b: &mut SimTransport| -> Vec<(NodeId, u8)> {
                std::iter::from_fn(|| b.try_recv())
                    .map(|(from, f)| (from, f[0]))
                    .collect()
            };
            assert_eq!(
                drain(&mut b),
                [(NodeId(0), 0), (NodeId(2), 1), (NodeId(2), 2)]
            );
            tokio::time::sleep(Duration::from_millis(2)).await;
            assert_eq!(drain(&mut b), [(NodeId(3), 3)]);
        });
    }

    /// A net built outside any runtime delivers in each later one, in
    /// send order. Nothing is bound to a runtime: a frame still in flight
    /// when its runtime ends stays in its calendar, and lands at its
    /// instant on the next runtime's clock.
    #[test]
    fn a_net_outlives_its_runtime() {
        let net = SimNet::clean(two_node_delays(3.0));
        let a = net.endpoint(NodeId(0));
        let mut b = net.endpoint(NodeId(1));
        let delay = Duration::from_secs_f64(3.0 / 1000.0);
        tokio::runtime::block_on_paused(async {
            // This runtime ends at its first instant.
            a.send(NodeId(1), b"early".to_vec()).unwrap();
        });
        tokio::runtime::block_on_paused(async {
            let t0 = Instant::now();
            a.send(NodeId(1), b"one".to_vec()).unwrap();
            assert_eq!(&b.recv().await.unwrap().1[..], b"early");
            assert_eq!(&b.recv().await.unwrap().1[..], b"one");
            assert_eq!(t0.elapsed(), delay);
            tokio::time::sleep(Duration::from_millis(7)).await;
            // In flight, due 13 ms in, when this runtime ends.
            a.send(NodeId(1), b"late".to_vec()).unwrap();
        });
        tokio::runtime::block_on_paused(async {
            let t0 = Instant::now();
            a.send(NodeId(1), b"two".to_vec()).unwrap();
            assert_eq!(b.try_recv(), None);
            assert_eq!(&b.recv().await.unwrap().1[..], b"two");
            assert_eq!(t0.elapsed(), delay);
            assert_eq!(&b.recv().await.unwrap().1[..], b"late");
            assert_eq!(t0.elapsed(), Duration::from_millis(10) + delay);
        });
    }

    #[test]
    fn sim_jitter_verdict_adds_latency() {
        tokio::runtime::block_on_paused(async {
            let cfg = FaultConfig {
                jitter_chance: 1.0,
                jitter_ms: 40.0,
                ..Default::default()
            };
            let net = SimNet::new(two_node_delays(10.0), cfg, 5);
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            let t0 = tokio::time::Instant::now();
            a.send(NodeId(1), b"j".to_vec()).unwrap();
            let _ = b.recv().await.unwrap();
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            assert!(ms >= 10.0, "jitter only adds latency: {ms} ms");
            assert!(ms <= 50.5, "jitter capped at jitter_ms: {ms} ms");
            assert_eq!(net.fault_stats().jittered, 1);
        });
    }

    #[test]
    fn udp_roundtrip_on_loopback() {
        tokio::runtime::block_on(async {
            let mut a = UdpTransport::bind(NodeId(0), "127.0.0.1:0").unwrap();
            let mut b = UdpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap();
            let (aa, ba) = (a.local_addr().unwrap(), b.local_addr().unwrap());
            a.add_peer(NodeId(1), ba);
            b.add_peer(NodeId(0), aa);
            a.send(NodeId(1), b"ping".to_vec()).unwrap();
            let (from, data) = tokio::time::timeout(std::time::Duration::from_secs(5), b.recv())
                .await
                .expect("timely")
                .expect("open");
            assert_eq!(from, NodeId(0));
            assert_eq!(&data[..], b"ping");
            b.send(NodeId(0), b"pong".to_vec()).unwrap();
            let (from, data) = tokio::time::timeout(std::time::Duration::from_secs(5), a.recv())
                .await
                .expect("timely")
                .expect("open");
            assert_eq!(from, NodeId(1));
            assert_eq!(&data[..], b"pong");
        });
    }

    /// A frame over UDP's 65 507-byte datagram limit (a `Hello` answer
    /// carries the whole LSDB, and frames may reach the codec's 1 MiB)
    /// is an `Err` and exactly one `proto.drop.send_failed`.
    #[test]
    fn udp_oversize_send_fails_and_is_counted() {
        egoist_obs::enable();
        let a = UdpTransport::bind(NodeId(0), "127.0.0.1:0").unwrap();
        let b = UdpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap();
        a.add_peer(NodeId(1), b.local_addr().unwrap());
        let failed = egoist_obs::counter("proto.drop.send_failed");
        let before = failed.get();
        assert!(a.send(NodeId(1), vec![7u8; 65_508]).is_err());
        assert_eq!(failed.get() - before, 1);
        assert!(a.send(NodeId(1), vec![7u8; 65_507]).is_ok());
        assert_eq!(failed.get() - before, 1);
    }

    #[test]
    fn udp_unknown_sender_filtered() {
        tokio::runtime::block_on(async {
            let mut a = UdpTransport::bind(NodeId(0), "127.0.0.1:0").unwrap();
            let stranger = UdpTransport::bind(NodeId(9), "127.0.0.1:0").unwrap();
            stranger.add_peer(NodeId(0), a.local_addr().unwrap());
            stranger.send(NodeId(0), b"??".to_vec()).unwrap();
            let got = tokio::time::timeout(std::time::Duration::from_millis(300), a.recv()).await;
            assert!(got.is_err(), "frames from unknown addresses are dropped");
        });
    }
}
