//! A live EGOIST overlay on real UDP sockets (loopback).
//!
//! Spawns a bootstrap service and ten protocol nodes, each on its own
//! 127.0.0.1 UDP port, with sped-up timers, all driven by one timer
//! wheel on the real clock. The nodes join through the bootstrap,
//! measure each other with ping/pong, flood link-state announcements and
//! selfishly re-wire. After a few epochs the example prints every node's
//! chosen neighbors, delay estimates, routing table and protocol
//! overhead.
//!
//! Run with: `cargo run --release --example live_overlay`

use egoist_graph::NodeId;
use egoist_proto::bootstrap::{BootstrapServer, Registry};
use egoist_proto::message::MessageClass;
use egoist_proto::node::Tally;
use egoist_proto::{EgoistNode, NodeConfig, UdpTransport, Wheel};
use std::time::Duration;

const N: usize = 10;
const K: usize = 3;
const BOOT: NodeId = NodeId(100);

fn main() -> std::io::Result<()> {
    tokio::runtime::block_on(run())
}

async fn run() -> std::io::Result<()> {
    println!("Live EGOIST overlay: {N} nodes on loopback UDP, k={K}\n");

    // Bind everyone first so the full address roster is known, then
    // cross-register (the bootstrap handles membership, the roster is the
    // address book a deployment would ship out of band).
    let mut transports = Vec::new();
    for i in 0..N {
        transports.push(UdpTransport::bind(NodeId::from_index(i), "127.0.0.1:0")?);
    }
    let boot_transport = UdpTransport::bind(BOOT, "127.0.0.1:0")?;
    let boot_addr = boot_transport.local_addr()?;
    let addrs: Vec<_> = transports
        .iter()
        .map(|t| t.local_addr().expect("bound"))
        .collect();
    for (i, t) in transports.iter().enumerate() {
        t.add_peer(BOOT, boot_addr);
        for (j, &a) in addrs.iter().enumerate() {
            if i != j {
                t.add_peer(NodeId::from_index(j), a);
            }
        }
        boot_transport.add_peer(NodeId::from_index(i), addrs[i]);
    }
    tokio::spawn(BootstrapServer::new(boot_transport, Registry::default()).run());

    // Spawn the nodes 50 ms apart with second-scale timers (a real
    // deployment uses T=60 s; loopback RTTs make convergence fast). The
    // wheel steps 1 ms at a time: it drains every socket, then fires the
    // nodes' due timers.
    let mut unspawned: Vec<Option<UdpTransport>> = transports.into_iter().map(Some).collect();
    let spacing = Duration::from_millis(50);
    let mut wheel = Wheel::new(Duration::from_millis(1), N, spacing, |i| {
        let mut cfg = NodeConfig::new(NodeId::from_index(i), N, K);
        cfg.epoch = Duration::from_secs(2);
        cfg.announce_interval = Duration::from_millis(700);
        cfg.ping_interval = Duration::from_secs(1);
        cfg.liveness_timeout = Duration::from_secs(5);
        cfg.bootstrap = Some(BOOT);
        EgoistNode::new(cfg, unspawned[i].take().expect("spawned once"))
    });

    println!("running 5 wiring epochs...\n");
    wheel
        .run_for(spacing * N as u32 + Duration::from_secs(10))
        .await;

    println!(
        "{:<6} {:<18} {:<12} {:<10} {:<10}",
        "node", "neighbors", "routes", "rewired", "lsa bytes"
    );
    for i in 0..N {
        let v = wheel.view(i);
        let routes = (0..N)
            .filter(|&j| j != i && v.next_hops[j].is_some())
            .count();
        println!(
            "{:<6} {:<18} {:<12} {:<10} {:<10}",
            format!("v{i}"),
            format!("{:?}", v.wiring),
            format!("{routes}/{}", N - 1),
            v.tallies[Tally::Rewirings],
            v.overhead.bytes(MessageClass::LinkState),
        );
    }

    // One routing-table walk end to end.
    let v0 = wheel.view(0);
    if let Some(hop) = v0.next_hops[N - 1] {
        println!("\nv0 routes to v{} via first hop {hop}", N - 1);
    }

    wheel.shutdown().await;
    println!("\nall nodes left the overlay cleanly");
    Ok(())
}
