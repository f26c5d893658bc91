//! # egoist-proto — the EGOIST overlay routing protocol
//!
//! The deployable half of the reproduction: the link-state overlay
//! protocol of §3.1 as a synchronous node state machine, driven by one
//! timer wheel on the vendored tokio runtime's virtual or real clock.
//!
//! * [`message`] — the wire messages: bootstrap handshake, link-state
//!   announcements (id + neighbor ids + link costs, §4.3), LSDB sync for
//!   newcomers, ping/pong measurement probes, heartbeats for donated
//!   links, leave notices.
//! * [`codec`] — length-prefixed binary framing into plain `Vec<u8>`
//!   frames, with magic/version/checksum; decoding is total (corrupt frames are
//!   rejected, never panic) — exercised by proptest and fault injection.
//! * [`lsdb`] — the link-state database: sequence-numbered announcements,
//!   flood deduplication, aging, and graph snapshots.
//! * [`transport`] — the [`transport::Transport`] trait with two
//!   implementations: real UDP sockets ([`transport::UdpTransport`]) and a
//!   deterministic in-process simulator ([`transport::SimTransport`]) that
//!   routes frames through `egoist-netsim` delays and fault injection.
//! * [`node`] — [`node::EgoistNode`]: join via bootstrap, periodic
//!   announcements (`T_announce`), staggered wiring epochs (`T`),
//!   measurement (ping RTT/2 with EWMA), selfish re-wiring through
//!   `egoist-core` policies, immediate/delayed re-wiring modes, optional
//!   cost inflation (free riding).
//! * [`wheel`] — [`wheel::Wheel`], the one driver of every node: a heap
//!   of `(due, node, kind)` timer events stepped in fixed quanta, over
//!   simulated or real UDP endpoints.
//! * [`bootstrap`] — the bootstrap service answering join requests with
//!   candidate peers.
//! * [`overhead`] — byte accounting per message class, checked against
//!   §4.3's analytic overhead formulas.
//! * [`audit`] — the §3.4 triangle-inequality ranking of second-hand
//!   (third-party) link claims.
//! * [`adversary`] — scripted Sybil swarms and eclipse lures on a
//!   shared endpoint budget, for exercising the peer-scoring defenses.
//! * [`fleet`] — the deterministic adversarial fleet harness: a whole
//!   overlay plus adversaries under a `FaultPlan`, reported as
//!   byte-reproducible robustness JSON.

pub mod adversary;
pub mod audit;
pub mod bootstrap;
pub mod codec;
pub mod fleet;
pub mod lsdb;
pub mod message;
pub mod node;
pub mod overhead;
pub mod transport;
pub mod wheel;

pub use fleet::{run_fleet, FleetConfig, RobustnessReport};
pub use message::Message;
pub use node::{EgoistNode, NodeConfig, RewireMode};
pub use transport::{SimNet, SimTransport, Transport, UdpTransport};
pub use wheel::Wheel;

#[cfg(test)]
mod proptests;
