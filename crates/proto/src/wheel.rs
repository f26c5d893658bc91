//! The one driver of every protocol node: a timer wheel.
//!
//! The paper's node (§3) is one loop of five periodic events (ping,
//! announce, anti-entropy sync, join watchdog, wiring epoch) plus frame
//! arrival. A [`Wheel`] runs them for a set of [`EgoistNode`]s from one
//! task, off a heap of `(due, node, kind)` events advanced in fixed
//! `step` quanta. Each step sleeps one quantum, drains every node's
//! inbound queue in id order, then fires the due events in `(due, node,
//! kind)` order, ties ranked spawn < ping < announce < sync < join <
//! epoch. That total order is the determinism argument: on the paused
//! clock two same-seed runs take the identical (drain, tick) steps at
//! the identical virtual instants. On the real clock
//! (`tokio::runtime::block_on`) each step is a real sleep: the live UDP
//! overlay.
//!
//! Node `i` is built at its spawn event, `i · spacing` in, and not
//! earlier: its endpoint and [`EgoistNode::new`]'s clock read belong to
//! that instant. It first pings 10 ms later, announces after a tenth of
//! its announce interval and checks its join after `join_backoff_base`.
//! Its first sync and epoch are staggered by `i / n` over the wheel's
//! `n`, not the node's id space (which may hold Sybil ids), so that the
//! nodes never tick in lockstep (§4.2).

use crate::node::{EgoistNode, NodeView};
use crate::transport::Transport;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Event kinds, declared in firing order for same-instant ties.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Spawn,
    Ping,
    Announce,
    Sync,
    Join,
    Epoch,
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// A set of nodes `0..n` and their timers, stepped one quantum at a time.
pub struct Wheel<'a, T: Transport> {
    step: Duration,
    step_us: u64,
    now_us: u64,
    /// The stagger denominator.
    n: usize,
    events: BinaryHeap<Reverse<(u64, u32, Kind)>>,
    /// Indexed by node id; `None` before its spawn and after `remove`.
    nodes: Vec<Option<EgoistNode<T>>>,
    build: Box<dyn FnMut(usize) -> EgoistNode<T> + 'a>,
}

impl<'a, T: Transport> Wheel<'a, T> {
    /// A wheel stepping `step` at a time that spawns node `i` of `0..n`
    /// at `i · spacing`, built by `build(i)` at that instant.
    pub fn new(
        step: Duration,
        n: usize,
        spacing: Duration,
        build: impl FnMut(usize) -> EgoistNode<T> + 'a,
    ) -> Self {
        let events = (0..n)
            .map(|i| Reverse((i as u64 * micros(spacing), i as u32, Kind::Spawn)))
            .collect();
        Wheel {
            step,
            step_us: micros(step).max(1),
            now_us: 0,
            n,
            events,
            nodes: (0..n).map(|_| None).collect(),
            build: Box::new(build),
        }
    }

    /// Wheel time: the steps taken so far.
    pub fn now(&self) -> Duration {
        Duration::from_micros(self.now_us)
    }

    /// Every node slot in id order: `None` before the node's spawn and
    /// after its removal.
    pub fn nodes(&self) -> &[Option<EgoistNode<T>>] {
        &self.nodes
    }

    /// A copy of node `i`'s published view. Panics unless it is running.
    pub fn view(&self, i: usize) -> NodeView {
        let node = self.nodes[i].as_ref().expect("node not running");
        node.view_handle().read().clone()
    }

    /// Take node `i` off the wheel: its timers stop, and nothing is sent
    /// on its behalf (a crash; call `shutdown_now` on it for a leave).
    pub fn remove(&mut self, i: usize) -> Option<EgoistNode<T>> {
        self.nodes[i].take()
    }

    /// One quantum: sleep `step`, drain every node in id order, then
    /// fire every event due by the new wheel time.
    pub async fn step(&mut self) {
        tokio::time::sleep(self.step).await;
        self.now_us += self.step_us;
        for node in self.nodes.iter_mut().flatten() {
            node.drain().await;
        }
        while let Some(&Reverse((due, ni, kind))) = self.events.peek() {
            if due > self.now_us {
                break;
            }
            self.events.pop();
            let i = ni as usize;
            if kind == Kind::Spawn {
                self.spawn(i, due).await;
                continue;
            }
            let Some(node) = self.nodes[i].as_mut() else {
                continue; // removed: its timers die with it
            };
            let rearm = match kind {
                Kind::Ping => {
                    node.tick_ping().await;
                    micros(node.config().ping_interval)
                }
                Kind::Announce => {
                    node.tick_announce().await;
                    micros(node.config().announce_interval)
                }
                Kind::Sync => {
                    node.tick_sync().await;
                    micros(node.config().sync_interval)
                }
                // The watchdog names its own delay; at least one step.
                Kind::Join => micros(node.tick_join().await).max(self.step_us),
                Kind::Epoch => {
                    node.tick_epoch().await;
                    micros(node.config().epoch)
                }
                Kind::Spawn => unreachable!("spawns are handled above"),
            };
            self.events.push(Reverse((due + rearm, ni, kind)));
        }
    }

    /// Build node `i` at `due`, send its first frame and arm its timers.
    async fn spawn(&mut self, i: usize, due: u64) {
        let mut node = (self.build)(i);
        debug_assert_eq!(node.id().index(), i, "build(i) must return node i");
        node.start().await;
        let cfg = node.config();
        let frac = i as f64 / self.n.max(1) as f64;
        let sync0 = micros(cfg.sync_interval.mul_f64(0.25 + 0.75 * frac)).max(1);
        let epoch0 = micros(cfg.epoch.mul_f64(frac)).max(self.step_us);
        let first = [
            (Kind::Ping, 10_000),
            (Kind::Announce, (micros(cfg.announce_interval) / 10).max(1)),
            (Kind::Sync, sync0),
            (Kind::Join, micros(cfg.join_backoff_base).max(1)),
            (Kind::Epoch, epoch0),
        ];
        for (kind, after) in first {
            self.events.push(Reverse((due + after, i as u32, kind)));
        }
        self.nodes[i] = Some(node);
    }

    /// Step until `d` more wheel time has passed.
    pub async fn run_for(&mut self, d: Duration) {
        let end = self.now_us + micros(d);
        while self.now_us < end {
            self.step().await;
        }
    }

    /// Every running node leaves (`shutdown_now`), in id order.
    pub async fn shutdown(&mut self) {
        for node in self.nodes.iter_mut().flatten() {
            node.shutdown_now().await;
        }
    }
}
