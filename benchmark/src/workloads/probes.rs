//! Isolated probes (traced runs only): public functions of `graph` and
//! `proto` timed on fixed inputs of the `fleet_br_n300` shape. Until
//! spans exist inside `EgoistNode::drain` and the rewire job, these are
//! the only view of codec, LSDB and per-turn APSP cost.

use super::stepper::delay_matrix;
use super::Outcome;
use crate::stats::median;
use egoist_graph::apsp::apsp;
use egoist_graph::csr::apsp_csr;
use egoist_graph::{CsrGraph, DiGraph, NodeId};
use egoist_proto::codec::{decode, encode};
use egoist_proto::lsdb::Lsdb;
use egoist_proto::message::{LinkEntry, LinkStateAnnouncement, Message};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 300;
const K: usize = 4;
const BATCHES: usize = 5;

/// Median over [`BATCHES`] of the mean nanoseconds per call of `f`
/// across `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

fn lsa(origin: usize, seq: u64) -> LinkStateAnnouncement {
    LinkStateAnnouncement {
        origin: NodeId::from_index(origin),
        seq,
        links: (1..=K)
            .map(|d| LinkEntry {
                neighbor: NodeId::from_index((origin + d * 37) % N),
                cost: 4.0 + d as f32,
            })
            .collect(),
    }
}

/// A k-out digraph like the union of n LSDB records: node `i` links to
/// `K` spread-out targets at the fleet substrate's delays.
fn k_out_digraph() -> DiGraph {
    let delays = delay_matrix(N, 300);
    let wiring: Vec<Vec<NodeId>> = (0..N)
        .map(|i| {
            (1..=K)
                .map(|d| NodeId::from_index((i + d * 37) % N))
                .collect()
        })
        .collect();
    DiGraph::from_wiring(&delays, &wiring)
}

pub fn run(out: &mut Outcome) {
    let l = &mut out.layers;

    // graph: what the node's rewire job calls today (dense `apsp`) and
    // what the epoch engine calls (`apsp_csr`, conversion included).
    let g = k_out_digraph();
    l.insert(
        "graph.probe.apsp_dense.ms",
        ns_per_call(3, || {
            black_box(apsp(black_box(&g)));
        }) / 1e6,
    );
    l.insert(
        "graph.probe.apsp_csr.ms",
        ns_per_call(3, || {
            black_box(apsp_csr(&CsrGraph::from_digraph(black_box(&g))));
        }) / 1e6,
    );

    // proto codec: one round is 8 LinkState (k=4 links), 4 Ping, 4 Pong
    // and 1 LsdbDigest of 300 entries — roughly a fleet's frame mix.
    let mut mix = Vec::new();
    for i in 0..8 {
        mix.push(Message::LinkState {
            lsa: lsa(i, 9),
            ttl: 2,
        });
    }
    for i in 0..4u64 {
        let from = NodeId::from_index(i as usize);
        mix.push(Message::Ping {
            from,
            nonce: i,
            hb: false,
        });
        mix.push(Message::Pong {
            from,
            nonce: i,
            hb: true,
        });
    }
    mix.push(Message::LsdbDigest {
        from: NodeId(0),
        entries: (0..N).map(|i| (NodeId::from_index(i), 9)).collect(),
    });
    let frames: Vec<_> = mix.iter().map(encode).collect();
    let per_round = mix.len() as f64;
    l.insert(
        "proto.probe.codec.encode.ns",
        ns_per_call(200, || {
            for m in &mix {
                black_box(encode(black_box(m)));
            }
        }) / per_round,
    );
    l.insert(
        "proto.probe.codec.decode.ns",
        ns_per_call(200, || {
            for f in &frames {
                black_box(decode(black_box(f)).expect("own frame decodes"));
            }
        }) / per_round,
    );

    // proto LSDB: apply one fresh LSA per origin, then digest 300 records.
    let mut seq = 0;
    let mut db = Lsdb::new(105.0);
    l.insert(
        "proto.probe.lsdb.apply.ns",
        ns_per_call(20, || {
            seq += 1;
            for origin in 0..N {
                black_box(db.apply(lsa(origin, seq), seq as f64));
            }
        }) / N as f64,
    );
    l.insert(
        "proto.probe.lsdb.digest.us",
        ns_per_call(200, || {
            black_box(db.digest());
        }) / 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_fill_their_metrics() {
        let mut out = Outcome::default();
        run(&mut out);
        for name in [
            "graph.probe.apsp_dense.ms",
            "graph.probe.apsp_csr.ms",
            "proto.probe.codec.encode.ns",
            "proto.probe.codec.decode.ns",
            "proto.probe.lsdb.apply.ns",
            "proto.probe.lsdb.digest.us",
        ] {
            assert!(out.layers[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn probe_graph_is_k_out_and_both_apsp_agree() {
        let g = k_out_digraph();
        assert_eq!(g.edge_count(), N * K);
        let dense = apsp(&g);
        let csr = apsp_csr(&CsrGraph::from_digraph(&g));
        for (i, j) in [(0, 1), (5, 250), (299, 0)] {
            assert_eq!(dense.at(i, j), csr.dist_row(i)[j]);
        }
    }
}
