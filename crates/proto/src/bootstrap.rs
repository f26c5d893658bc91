//! The bootstrap service (§3.1).
//!
//! "A newcomer overlay node connects to the system by querying a
//! bootstrap node, from which it receives a list of potential overlay
//! neighbors." The service is a tiny request/reply actor on its own
//! transport endpoint: it records every requester and answers with the
//! current membership list (capped, most recent first).

use crate::codec::{decode, encode};
use crate::message::Message;
use crate::node::Tally;
use crate::transport::Transport;
use egoist_graph::NodeId;
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Capped exponential backoff with deterministic jitter.
///
/// Join retries (§3.1) use this instead of a fixed re-ask cadence: an
/// unreachable seed is non-fatal, and a thundering herd of newcomers
/// de-correlates because each node's jitter stream is seeded by its id.
/// Same seed ⇒ identical retry schedule, which the adversarial fleet
/// harness relies on for bit-reproducible runs.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: StdRng,
}

impl Backoff {
    /// New schedule: delays grow `base · 2^attempt` up to `cap`, each
    /// scaled by a jitter factor in `[0.5, 1.0)`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap,
            attempt: 0,
            rng: StdRng::seed_from_u64(seed ^ 0xBAC0_FF01),
        }
    }

    /// Delay to wait before the next attempt (advances the schedule).
    pub fn next_delay(&mut self) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let jitter = 0.5 + 0.5 * self.rng.random::<f64>();
        exp.mul_f64(jitter)
    }

    /// Success: restart from the base delay (jitter stream continues).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Shared membership registry.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RwLock<Vec<NodeId>>>,
}

impl Registry {
    /// Snapshot of registered nodes.
    pub fn members(&self) -> Vec<NodeId> {
        self.inner.read().clone()
    }

    /// Register a node (idempotent; moves it to most-recent position).
    pub fn register(&self, id: NodeId) {
        let mut v = self.inner.write();
        v.retain(|&x| x != id);
        v.push(id);
    }

    /// Remove a node.
    pub fn remove(&self, id: NodeId) {
        self.inner.write().retain(|&x| x != id);
    }
}

/// Maximum peers returned per bootstrap response.
const MAX_PEERS: usize = 16;

/// The bootstrap server task.
pub struct BootstrapServer<T: Transport> {
    transport: T,
    registry: Registry,
}

impl<T: Transport> BootstrapServer<T> {
    /// New server over a transport endpoint.
    pub fn new(transport: T, registry: Registry) -> Self {
        BootstrapServer {
            transport,
            registry,
        }
    }

    /// Serve until the transport closes.
    pub async fn run(mut self) {
        while let Some((from, frame)) = self.transport.recv().await {
            let Ok(msg) = decode(&frame) else {
                // Garbage frames are dropped, but not silently: the chaos
                // harness watches this counter.
                egoist_obs::counter("proto.bootstrap.decode_errors").inc();
                continue;
            };
            if msg.claimed_sender().is_some_and(|named| named != from) {
                // Forged: would register or remove a third party.
                let forged = Tally::ForgedSenders.obs_name().expect("paired");
                egoist_obs::counter(forged).inc();
                continue;
            }
            match msg {
                Message::BootstrapRequest { .. } => {
                    // Candidates: most recently registered first, excluding
                    // the requester itself.
                    let mut peers: Vec<NodeId> = self
                        .registry
                        .members()
                        .into_iter()
                        .rev()
                        .filter(|&p| p != from)
                        .take(MAX_PEERS)
                        .collect();
                    peers.sort_unstable();
                    self.registry.register(from);
                    let reply = encode(&Message::BootstrapResponse { peers });
                    let _ = self.transport.send(from, reply);
                }
                Message::Leave { .. } => {
                    self.registry.remove(from);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimNet;
    use egoist_graph::DistanceMatrix;

    const BOOT_ID: NodeId = NodeId(99);

    #[test]
    fn first_joiner_gets_empty_list_then_grows() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(DistanceMatrix::off_diagonal(100, 1.0));
            let registry = Registry::default();
            let server = BootstrapServer::new(net.endpoint(BOOT_ID), registry.clone());
            tokio::spawn(server.run());

            let mut a = net.endpoint(NodeId(0));
            a.send(
                BOOT_ID,
                encode(&Message::BootstrapRequest { from: NodeId(0) }),
            )
            .unwrap();
            let (_, frame) = a.recv().await.unwrap();
            assert_eq!(
                decode(&frame).unwrap(),
                Message::BootstrapResponse { peers: vec![] }
            );

            let mut b = net.endpoint(NodeId(1));
            b.send(
                BOOT_ID,
                encode(&Message::BootstrapRequest { from: NodeId(1) }),
            )
            .unwrap();
            let (_, frame) = b.recv().await.unwrap();
            assert_eq!(
                decode(&frame).unwrap(),
                Message::BootstrapResponse {
                    peers: vec![NodeId(0)]
                }
            );
            assert_eq!(registry.members(), vec![NodeId(0), NodeId(1)]);
        });
    }

    #[test]
    fn leave_removes_from_registry() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(DistanceMatrix::off_diagonal(100, 1.0));
            let registry = Registry::default();
            registry.register(NodeId(3));
            registry.register(NodeId(4));
            let server = BootstrapServer::new(net.endpoint(BOOT_ID), registry.clone());
            tokio::spawn(server.run());

            let c = net.endpoint(NodeId(3));
            c.send(BOOT_ID, encode(&Message::Leave { from: NodeId(3) }))
                .unwrap();
            tokio::time::sleep(std::time::Duration::from_millis(10)).await;
            assert_eq!(registry.members(), vec![NodeId(4)]);
        });
    }

    #[test]
    fn a_join_gets_the_sixteen_most_recent_members() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(DistanceMatrix::off_diagonal(100, 1.0));
            let registry = Registry::default();
            for i in 0..20 {
                registry.register(NodeId(i));
            }
            let server = BootstrapServer::new(net.endpoint(BOOT_ID), registry.clone());
            tokio::spawn(server.run());

            let mut a = net.endpoint(NodeId(20));
            a.send(
                BOOT_ID,
                encode(&Message::BootstrapRequest { from: NodeId(20) }),
            )
            .unwrap();
            let (_, frame) = a.recv().await.unwrap();
            let Message::BootstrapResponse { peers } = decode(&frame).unwrap() else {
                panic!("not a bootstrap response");
            };
            assert_eq!(peers, (4..20).map(NodeId).collect::<Vec<_>>());
        });
    }

    #[test]
    fn forged_requests_and_leaves_are_ignored() {
        let _forging = crate::node::tests::forging();
        egoist_obs::enable();
        let forged = egoist_obs::counter("proto.drop.forged_sender");
        let before = forged.get();
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(DistanceMatrix::off_diagonal(100, 1.0));
            let registry = Registry::default();
            registry.register(NodeId(3));
            let server = BootstrapServer::new(net.endpoint(BOOT_ID), registry.clone());
            tokio::spawn(server.run());

            let mut forger = net.endpoint(NodeId(5));
            for forged in [
                Message::Leave { from: NodeId(3) },
                Message::BootstrapRequest { from: NodeId(7) },
            ] {
                forger.send(BOOT_ID, encode(&forged)).unwrap();
            }
            tokio::time::sleep(std::time::Duration::from_millis(10)).await;
            assert_eq!(registry.members(), vec![NodeId(3)]);
            assert_eq!(forger.try_recv(), None, "a forged request is not answered");
        });
        assert_eq!(forged.get() - before, 2);
    }

    #[test]
    fn garbage_frames_ignored() {
        tokio::runtime::block_on_paused(async {
            let net = SimNet::clean(DistanceMatrix::off_diagonal(100, 1.0));
            let server = BootstrapServer::new(net.endpoint(BOOT_ID), Registry::default());
            tokio::spawn(server.run());
            let mut a = net.endpoint(NodeId(0));
            a.send(BOOT_ID, b"not a frame".to_vec()).unwrap();
            a.send(
                BOOT_ID,
                encode(&Message::BootstrapRequest { from: NodeId(0) }),
            )
            .unwrap();
            let (_, frame) = a.recv().await.unwrap();
            assert!(matches!(
                decode(&frame).unwrap(),
                Message::BootstrapResponse { .. }
            ));
        });
    }
}
