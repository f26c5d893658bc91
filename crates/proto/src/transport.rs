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
//! Every frame in flight on a net sits in one *calendar*, a min-heap
//! keyed by (delivery instant, send sequence). A send asks the fault
//! injector for a verdict on the frame's *length*, takes the
//! destination's sender, and pushes one entry — two for a `Duplicate`
//! verdict, a later one for `Delayed` / `Reordered`. The frame stays the
//! caller's shared `Bytes`; only a `Corrupted` verdict copies it. One
//! *pump* task per net, spawned by the first send, sleeps until the
//! calendar's earliest instant and then lands every due entry in its
//! inbox in calendar order; a send due before the pump's timer wakes it
//! to re-arm. Nothing is spawned or copied per frame, and the runtime
//! sees one timer per distinct delivery instant, not one per frame.
//!
//! Each inbox is a `tokio::sync::mpsc` unbounded channel, which keeps a
//! *pending count* beside its locked queue, so `try_recv` on an empty
//! inbox — what the fleet's drain sweep finds at most nodes on most
//! steps — is one atomic load.
//!
//! This is exact against the one-task-per-frame delivery it replaced.
//! The instant is the same expression, `Instant::now() +
//! Duration::from_secs_f64(ms / 1000.0)`, so each frame lands at the
//! same virtual nanosecond. Frames due at the same instant land in send
//! order, which is the order their tasks registered their timers. A
//! frame in flight holds its destination's sender, so it still lands
//! after a `disconnect`, and the stream ends after the last such frame.
//! One order is not kept: a frame due at the *same nanosecond* as some
//! other task's timer was ordered against it by timer registration, and
//! is now ordered by when the pump armed. Delays are real-valued
//! milliseconds, so such ties are rare, and none moved a report —
//! `chaos_fleet`'s full report stays byte-equal to
//! `BENCH_robustness.json`, which CI checks.

use bytes::Bytes;
use egoist_graph::{DistanceMatrix, NodeId};
/// The verdict counts a [`SimNet`] reports ([`SimNet::fault_stats`]).
pub use egoist_netsim::fault::FaultStats;
use egoist_netsim::fault::{FaultConfig, FaultInjector, FaultPlan, Verdict};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::future::Future;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};
use std::time::Duration;
use tokio::sync::mpsc;
use tokio::time::{Instant, Sleep};

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
    fn send(&self, to: NodeId, frame: Bytes) -> io::Result<()>;

    /// Receive the next frame as `(sender, bytes)`. `None` = transport
    /// closed.
    fn recv(&mut self) -> impl std::future::Future<Output = Option<(NodeId, Bytes)>> + Send;

    /// Non-blocking receive: the next already-delivered frame, or `None`
    /// when none is waiting. The wheel drains every node with this.
    fn try_recv(&mut self) -> Option<(NodeId, Bytes)>;
}

// ---------------------------------------------------------------------
// Simulated network
// ---------------------------------------------------------------------

/// A handle that can still deliver into one endpoint's inbox.
type Sender = mpsc::UnboundedSender<(NodeId, Bytes)>;

/// A frame in flight: lands in `to` at `at`; `seq` (send order on the
/// net) orders frames due at the same instant.
struct InFlight {
    at: Instant,
    seq: u64,
    from: NodeId,
    frame: Bytes,
    to: Sender,
}

impl InFlight {
    fn key(&self) -> (Instant, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for InFlight {}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Every frame in flight on one net, and the pump that delivers them.
#[derive(Default)]
struct Calendar {
    frames: BinaryHeap<Reverse<InFlight>>,
    sent: u64,
    /// The instant the pump's timer is set for; `None` while it idles.
    armed: Option<Instant>,
    /// The pump's waker while it is parked.
    pump: Option<Waker>,
    /// Whether a pump task is alive on the current runtime.
    running: bool,
}

struct SimNetInner {
    /// One-way frame latency in milliseconds per directed pair.
    delays: DistanceMatrix,
    txs: Mutex<HashMap<NodeId, Sender>>,
    fault: Mutex<FaultInjector>,
    calendar: Mutex<Calendar>,
    epoch: Instant,
    pub frames_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
}

impl SimNetInner {
    /// Put one frame in flight, landing `ms` from now.
    fn schedule(self: &Arc<Self>, ms: f64, from: NodeId, to: Sender, frame: Bytes) {
        let at = Instant::now() + Duration::from_secs_f64(ms / 1000.0);
        let mut cal = self.calendar.lock();
        let seq = cal.sent;
        cal.sent += 1;
        cal.frames.push(Reverse(InFlight {
            at,
            seq,
            from,
            frame,
            to,
        }));
        if !cal.running {
            cal.running = true;
            drop(cal);
            tokio::spawn(pump(PumpStop(Arc::clone(self))));
        } else if cal.armed.is_none_or(|armed| at < armed) {
            // Due before the pump's timer: wake it to re-arm.
            if let Some(w) = cal.pump.take() {
                w.wake();
            }
        }
    }

    /// One poll of the pump: land every frame due by now, in calendar
    /// order, then sleep until the next one is due.
    fn pump_poll(&self, cx: &mut Context<'_>, timer: &mut Option<Pin<Box<Sleep>>>) -> Poll<()> {
        loop {
            let now = Instant::now();
            let mut cal = self.calendar.lock();
            while let Some(due) = cal.frames.peek_mut().filter(|f| f.0.at <= now) {
                let Reverse(f) = PeekMut::pop(due);
                let _ = f.to.send((f.from, f.frame)); // endpoint dropped: lost
            }
            cal.pump = Some(cx.waker().clone());
            let Some(next) = cal.frames.peek().map(|f| f.0.at) else {
                cal.armed = None;
                return Poll::Pending;
            };
            if cal.armed != Some(next) {
                cal.armed = Some(next);
                *timer = Some(Box::pin(tokio::time::sleep_until(next)));
            }
            drop(cal);
            let sleep = timer.as_mut().expect("armed above");
            if sleep.as_mut().poll(cx).is_pending() {
                return Poll::Pending;
            }
        }
    }
}

/// The net's one delivery task. The guard is an argument, not a local,
/// so it drops with the task even when the runtime ends before the task
/// is first polled.
async fn pump(stop: PumpStop) {
    let net = &stop.0;
    let mut timer = None;
    std::future::poll_fn(|cx| net.pump_poll(cx, &mut timer)).await
}

/// Frames in flight die with the runtime, as per-frame tasks would; a
/// later runtime's first send starts a new pump.
struct PumpStop(Arc<SimNetInner>);

impl Drop for PumpStop {
    fn drop(&mut self) {
        *self.0.calendar.lock() = Calendar::default();
    }
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
                txs: Mutex::new(HashMap::new()),
                fault: Mutex::new(FaultInjector::with_plan(fault, plan, seed)),
                calendar: Mutex::new(Calendar::default()),
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
        let (tx, rx) = mpsc::unbounded_channel();
        let prev = self.inner.txs.lock().insert(id, tx);
        assert!(prev.is_none(), "duplicate endpoint for {id}");
        SimTransport {
            id,
            net: Arc::clone(&self.inner),
            rx,
        }
    }

    /// Disconnect an endpoint — abrupt node failure. New sends to it are
    /// lost; frames already in flight still land, and its stream ends
    /// after the last of them.
    pub fn disconnect(&self, id: NodeId) {
        self.inner.txs.lock().remove(&id);
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

/// One node's endpoint on a [`SimNet`].
pub struct SimTransport {
    id: NodeId,
    net: Arc<SimNetInner>,
    rx: mpsc::UnboundedReceiver<(NodeId, Bytes)>,
}

impl Transport for SimTransport {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, frame: Bytes) -> io::Result<()> {
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
        let Some(tx) = net.txs.lock().get(&to).cloned() else {
            transport_obs().no_endpoint.inc();
            return Ok(()); // peer gone: datagram lost
        };
        let delay_ms = if to.index() < net.delays.len() && from.index() < net.delays.len() {
            net.delays.get(from, to).max(0.0)
        } else {
            1.0
        };
        // The frame stays the caller's shared buffer unless it is damaged.
        let frame = match verdict {
            Verdict::Corrupted { .. } => {
                let mut data = frame.to_vec();
                verdict.damage(&mut data);
                Bytes::from(data)
            }
            _ => frame,
        };
        match verdict {
            Verdict::Duplicate { extra_us } => {
                net.schedule(delay_ms, from, tx.clone(), frame.clone());
                net.schedule(delay_ms + extra_us as f64 / 1000.0, from, tx, frame);
            }
            Verdict::Delayed { extra_us } | Verdict::Reordered { extra_us } => {
                net.schedule(delay_ms + extra_us as f64 / 1000.0, from, tx, frame);
            }
            _ => net.schedule(delay_ms, from, tx, frame),
        }
        Ok(())
    }

    async fn recv(&mut self) -> Option<(NodeId, Bytes)> {
        self.rx.recv().await
    }

    fn try_recv(&mut self) -> Option<(NodeId, Bytes)> {
        self.rx.try_recv()
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

    fn send(&self, to: NodeId, frame: Bytes) -> io::Result<()> {
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
    async fn recv(&mut self) -> Option<(NodeId, Bytes)> {
        loop {
            if let Some(got) = self.try_recv() {
                return Some(got);
            }
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
    }

    fn try_recv(&mut self) -> Option<(NodeId, Bytes)> {
        loop {
            // `WouldBlock` is an empty queue; any other error ends this
            // read, and the next one starts afresh.
            let (len, addr) = self.socket.recv_from(&mut self.buf).ok()?;
            let from = { self.by_addr.lock().get(&addr).copied() };
            if let Some(from) = from {
                return Some((from, Bytes::copy_from_slice(&self.buf[..len])));
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
            a.send(NodeId(1), Bytes::from_static(b"hi")).unwrap();
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
            a.send(NodeId(1), Bytes::from_static(b"x")).unwrap();
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
                a.send(NodeId(1), Bytes::from_static(b"y")).unwrap();
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
            a.send(NodeId(1), Bytes::from_static(b"z")).unwrap();
            // The hub dropped b's sender, so b's stream ends without ever
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
            a.send(NodeId(1), Bytes::from_static(b"pre")).unwrap();
            assert_eq!(&b.recv().await.unwrap().1[..], b"pre");
            // Inside the window: cut.
            tokio::time::sleep(std::time::Duration::from_secs(8)).await;
            a.send(NodeId(1), Bytes::from_static(b"mid")).unwrap();
            let got = tokio::time::timeout(std::time::Duration::from_secs(2), b.recv()).await;
            assert!(got.is_err(), "partitioned frame must be cut");
            assert_eq!(net.fault_stats().cut, 1);
            // After the heal: delivered again.
            tokio::time::sleep(std::time::Duration::from_secs(8)).await;
            a.send(NodeId(1), Bytes::from_static(b"post")).unwrap();
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
            a.send(NodeId(1), Bytes::from_static(b"dup")).unwrap();
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
                a.send(NodeId(1), Bytes::from(vec![i])).unwrap();
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
            a.send(NodeId(1), Bytes::from_static(b"dup")).unwrap();
            assert_eq!(&b.recv().await.unwrap().1[..], b"dup");
            assert_eq!(t0.elapsed(), Duration::from_secs_f64(5.0 / 1000.0));
            assert_eq!(&b.recv().await.unwrap().1[..], b"dup");
            let echo_ms = 5.0 + extra_us as f64 / 1000.0;
            assert_eq!(t0.elapsed(), Duration::from_secs_f64(echo_ms / 1000.0));
        });
    }

    #[test]
    fn corruption_damages_one_copy_of_a_shared_frame() {
        let cfg = FaultConfig {
            corrupt_chance: 0.5,
            ..Default::default()
        };
        let sent = Bytes::from(vec![0x5Au8; 24]);
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
                let mut want = sent.to_vec();
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
            assert_eq!(
                sent[..],
                [0x5Au8; 24],
                "the sender's buffer is never written"
            );
        });
    }

    #[test]
    fn frame_in_flight_outlives_disconnect_then_the_stream_ends() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(two_node_delays(10.0));
            let a = net.endpoint(NodeId(0));
            let mut b = net.endpoint(NodeId(1));
            a.send(NodeId(1), Bytes::from_static(b"last")).unwrap();
            net.disconnect(NodeId(1));
            a.send(NodeId(1), Bytes::from_static(b"lost")).unwrap();
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
                a.send(NodeId(1), Bytes::from(vec![i])).unwrap();
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

    #[test]
    fn a_net_outlives_its_runtime() {
        let net = SimNet::clean(two_node_delays(3.0));
        let a = net.endpoint(NodeId(0));
        let mut b = net.endpoint(NodeId(1));
        tokio::runtime::block_on_paused(async {
            // This runtime ends before its pump is ever polled.
            a.send(NodeId(1), Bytes::from_static(b"never")).unwrap();
        });
        tokio::runtime::block_on_paused(async {
            a.send(NodeId(1), Bytes::from_static(b"one")).unwrap();
            assert_eq!(&b.recv().await.unwrap().1[..], b"one");
            // In flight when this runtime ends: lost with it.
            a.send(NodeId(1), Bytes::from_static(b"gone")).unwrap();
        });
        tokio::runtime::block_on_paused(async {
            a.send(NodeId(1), Bytes::from_static(b"two")).unwrap();
            assert_eq!(&b.recv().await.unwrap().1[..], b"two");
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
            a.send(NodeId(1), Bytes::from_static(b"j")).unwrap();
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
            a.send(NodeId(1), Bytes::from_static(b"ping")).unwrap();
            let (from, data) = tokio::time::timeout(std::time::Duration::from_secs(5), b.recv())
                .await
                .expect("timely")
                .expect("open");
            assert_eq!(from, NodeId(0));
            assert_eq!(&data[..], b"ping");
            b.send(NodeId(0), Bytes::from_static(b"pong")).unwrap();
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
        assert!(a.send(NodeId(1), Bytes::from(vec![7u8; 65_508])).is_err());
        assert_eq!(failed.get() - before, 1);
        assert!(a.send(NodeId(1), Bytes::from(vec![7u8; 65_507])).is_ok());
        assert_eq!(failed.get() - before, 1);
    }

    #[test]
    fn udp_unknown_sender_filtered() {
        tokio::runtime::block_on(async {
            let mut a = UdpTransport::bind(NodeId(0), "127.0.0.1:0").unwrap();
            let stranger = UdpTransport::bind(NodeId(9), "127.0.0.1:0").unwrap();
            stranger.add_peer(NodeId(0), a.local_addr().unwrap());
            stranger.send(NodeId(0), Bytes::from_static(b"??")).unwrap();
            let got = tokio::time::timeout(std::time::Duration::from_millis(300), a.recv()).await;
            assert!(got.is_err(), "frames from unknown addresses are dropped");
        });
    }
}
