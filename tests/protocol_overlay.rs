//! Cross-crate integration: the protocol stack (egoist-proto) on a
//! netsim-backed SimTransport builds overlays whose quality matches the
//! pure simulator's — the protocol path and the simulation path agree —
//! and the same nodes on loopback UDP route end to end.

use egoist::coord::CoordinateSystem;
use egoist::graph::apsp::apsp;
use egoist::graph::{DiGraph, DistanceMatrix, NodeId};
use egoist::netsim::fault::FaultConfig;
use egoist::netsim::DelayModel;
use egoist::proto::bootstrap::{BootstrapServer, Registry};
use egoist::proto::node::Tally;
use egoist::proto::{EgoistNode, NodeConfig, SimNet, SimTransport, UdpTransport, Wheel};
use std::time::Duration;

const BOOT: NodeId = NodeId(1000);

/// `n` nodes with short timers and a bootstrap server on a SimNet,
/// driven by one wheel, returned once the last of them has spawned.
async fn spawn_overlay(
    n: usize,
    k: usize,
    delays: &DistanceMatrix,
    fault: FaultConfig,
) -> Wheel<'static, SimTransport> {
    let mut big = DistanceMatrix::off_diagonal(1001, 1.0);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                big.set_at(i, j, delays.at(i, j));
            }
        }
    }
    let net = SimNet::new(big, fault, 77);
    tokio::spawn(BootstrapServer::new(net.endpoint(BOOT), Registry::default()).run());
    let spacing = Duration::from_millis(150);
    let mut wheel = Wheel::new(Duration::from_millis(1), n, spacing, move |i| {
        let mut cfg = NodeConfig::new(NodeId::from_index(i), n, k);
        cfg.epoch = Duration::from_secs(10);
        cfg.announce_interval = Duration::from_secs(3);
        cfg.ping_interval = Duration::from_secs(5);
        cfg.liveness_timeout = Duration::from_secs(12);
        cfg.bootstrap = Some(BOOT);
        EgoistNode::new(cfg, net.endpoint(NodeId::from_index(i)))
    });
    wheel.run_for(spacing * n as u32).await;
    wheel
}

/// Reconstruct the overlay graph from the nodes' own views.
fn overlay_graph(wheel: &Wheel<SimTransport>, n: usize, delays: &DistanceMatrix) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for w in wheel.view(i).wiring {
            if w.index() < n {
                g.add_edge(NodeId::from_index(i), w, delays.at(i, w.index()));
            }
        }
    }
    g
}

#[test]
fn protocol_overlay_beats_ring_topology() {
    tokio::runtime::block_on_paused(async {
        let n = 12;
        let model = DelayModel::from_spec(&egoist::netsim::PlanetLabSpec::paper_50(), 3);
        let delays = model
            .base()
            .submatrix(&(0..n as u32).map(NodeId).collect::<Vec<_>>());

        let mut wheel = spawn_overlay(n, 3, &delays, FaultConfig::default()).await;
        wheel.run_for(Duration::from_secs(70)).await;

        let g = overlay_graph(&wheel, n, &delays);
        let dist = apsp(&g);
        // Compare with a unit ring of the same degree budget.
        let mut ring = DiGraph::new(n);
        for i in 0..n {
            for o in 1..=3usize {
                ring.add_edge(
                    NodeId::from_index(i),
                    NodeId::from_index((i + o) % n),
                    delays.at(i, (i + o) % n),
                );
            }
        }
        let ring_dist = apsp(&ring);
        let mean = |m: &DistanceMatrix| {
            let mut s = 0.0;
            let mut c = 0;
            for i in 0..n {
                for j in 0..n {
                    if i != j && m.at(i, j).is_finite() {
                        s += m.at(i, j);
                        c += 1;
                    }
                }
            }
            s / c as f64
        };
        let (br_cost, ring_cost) = (mean(&dist), mean(&ring_dist));
        assert!(
            br_cost < ring_cost,
            "protocol BR overlay {br_cost:.1} must beat the circulant {ring_cost:.1}"
        );
    });
}

#[test]
fn protocol_overlay_is_fully_routable_under_loss() {
    tokio::runtime::block_on_paused(async {
        let n = 8;
        let delays = DistanceMatrix::from_fn(n, |i, j| 4.0 + ((i * 5 + j * 3) % 11) as f64);
        let mut wheel = spawn_overlay(n, 3, &delays, FaultConfig::lossy(0.10)).await;
        wheel.run_for(Duration::from_secs(90)).await;

        let mut routable = 0;
        for i in 0..n {
            let v = wheel.view(i);
            routable += (0..n)
                .filter(|&j| j != i && v.next_hops[j].is_some())
                .count();
        }
        let total = n * (n - 1);
        assert!(
            routable as f64 >= 0.9 * total as f64,
            "only {routable}/{total} routes under 10% loss"
        );
    });
}

#[test]
fn node_estimates_agree_with_vivaldi_predictions() {
    tokio::runtime::block_on_paused(async {
        // The protocol's ping estimates and an independently converged
        // coordinate system should broadly agree on the same underlay — the
        // property that makes the paper's pyxida audit (§3.4) possible.
        let n = 8;
        let model = DelayModel::from_spec(
            &egoist::netsim::PlanetLabSpec::uniform(egoist::netsim::Region::Europe, n),
            9,
        );
        let delays = model.base().clone();
        let mut wheel = spawn_overlay(n, 3, &delays, FaultConfig::default()).await;
        wheel.run_for(Duration::from_secs(60)).await;

        let mut cs = CoordinateSystem::new(n, 9);
        cs.converge(&delays, 40);

        let v0 = wheel.view(0);
        let predicted = cs.query_all(0);
        let mut compared = 0;
        for (j, &measured) in v0.direct_est.iter().enumerate().skip(1) {
            if measured.is_finite() {
                let truth = 0.5 * (delays.at(0, j) + delays.at(j, 0));
                assert!(
                    (measured - truth).abs() / truth < 0.25,
                    "ping estimate for v{j}: {measured:.1} vs truth {truth:.1}"
                );
                // Vivaldi is allowed to be sloppier, but must be same order.
                assert!(
                    predicted[j] / truth < 4.0 && truth / predicted[j].max(1e-9) < 4.0,
                    "vivaldi estimate for v{j}: {:.1} vs truth {truth:.1}",
                    predicted[j]
                );
                compared += 1;
            }
        }
        assert!(compared >= n / 2, "too few measured peers: {compared}");
    });
}

/// Every node re-wires to `k` distinct neighbors other than itself and
/// can route to every other node.
#[test]
fn rewire_jobs_wire_every_node_to_k_distinct_peers() {
    tokio::runtime::block_on_paused(async {
        let (n, k) = (10, 3);
        let delays = DistanceMatrix::from_fn(n, |i, j| 3.0 + ((i * 7 + j * 5) % 13) as f64);
        let mut wheel = spawn_overlay(n, k, &delays, FaultConfig::default()).await;
        wheel.run_for(Duration::from_secs(60)).await;

        for i in 0..n {
            let v = wheel.view(i);
            assert!(v.tallies[Tally::Rewirings] > 0, "v{i} never re-wired");
            let mut wiring = v.wiring.clone();
            wiring.sort_unstable();
            wiring.dedup();
            assert_eq!(wiring.len(), k, "v{i} wired to {:?}", v.wiring);
            assert!(
                !wiring.contains(&NodeId::from_index(i)),
                "v{i} links to itself"
            );
            let routed = (0..n).filter(|&j| j != i && v.next_hops[j].is_some());
            assert_eq!(routed.count(), n - 1, "v{i} misses routes");
        }
    });
}

/// The live path: four nodes and a bootstrap server on loopback UDP,
/// driven by the wheel on the real clock. Every node routes to every
/// other one within seconds of wall time; the bound is a generous 60 s
/// for a busy 2-core host.
#[test]
fn loopback_udp_overlay_routes_everywhere() {
    const N: usize = 4;
    let boot = NodeId(100);
    let bind = |id| UdpTransport::bind(id, "127.0.0.1:0").expect("loopback bind");
    let boot_transport = bind(boot);
    let transports: Vec<UdpTransport> = (0..N).map(|i| bind(NodeId::from_index(i))).collect();
    let addr = |t: &UdpTransport| t.local_addr().expect("bound");
    for (i, t) in transports.iter().enumerate() {
        t.add_peer(boot, addr(&boot_transport));
        boot_transport.add_peer(NodeId::from_index(i), addr(t));
        for (j, u) in transports.iter().enumerate() {
            if i != j {
                t.add_peer(NodeId::from_index(j), addr(u));
            }
        }
    }
    let mut unspawned: Vec<Option<UdpTransport>> = transports.into_iter().map(Some).collect();
    let wall = std::time::Instant::now();
    tokio::runtime::block_on(async {
        tokio::spawn(BootstrapServer::new(boot_transport, Registry::default()).run());
        let step = Duration::from_millis(1);
        let mut wheel = Wheel::new(step, N, Duration::from_millis(20), move |i| {
            let mut cfg = NodeConfig::new(NodeId::from_index(i), N, 2);
            cfg.epoch = Duration::from_secs(1);
            cfg.announce_interval = Duration::from_millis(300);
            cfg.ping_interval = Duration::from_millis(500);
            cfg.liveness_timeout = Duration::from_secs(5);
            cfg.bootstrap = Some(boot);
            EgoistNode::new(cfg, unspawned[i].take().expect("spawned once"))
        });
        let routes_everywhere = |wheel: &Wheel<UdpTransport>| {
            wheel.nodes().iter().all(Option::is_some)
                && (0..N).all(|i| {
                    let v = wheel.view(i);
                    (0..N).all(|j| j == i || v.next_hops[j].is_some())
                })
        };
        while !routes_everywhere(&wheel) {
            assert!(
                wall.elapsed() < Duration::from_secs(60),
                "no full routing after {:?} of wheel time",
                wheel.now()
            );
            wheel.run_for(Duration::from_millis(50)).await;
        }
        wheel.shutdown().await;
    });
}
