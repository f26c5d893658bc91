//! Criterion bench: wire-codec throughput (LSA encode/decode, ping
//! frames, a 400-LSA anti-entropy push, a 600-origin digest, the frame
//! checksum per byte) and
//! LSDB apply / digest / merge-join costs — the per-message, per-LSA and
//! per-byte work every EGOIST node does on its hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use egoist_graph::NodeId;
use egoist_proto::codec::{decode, encode, encode_sync, fnv1a};
use egoist_proto::lsdb::Lsdb;
use egoist_proto::message::{LinkEntry, LinkStateAnnouncement, LsaRef, Message};
use std::hint::black_box;

fn lsa(origin: u32, seq: u64, k: usize) -> LinkStateAnnouncement {
    LinkStateAnnouncement {
        origin: NodeId(origin),
        seq,
        links: (0..k)
            .map(|i| LinkEntry {
                neighbor: NodeId((origin + 1 + i as u32) % 300),
                cost: 10.0 + i as f32,
            })
            .collect(),
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for k in [2usize, 8, 32] {
        let msg = Message::LinkState {
            lsa: lsa(1, 42, k),
            ttl: 2,
        };
        let frame = encode(&msg);
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode_lsa", k), &k, |b, _| {
            b.iter(|| black_box(encode(&msg)))
        });
        group.bench_with_input(BenchmarkId::new("decode_lsa", k), &k, |b, _| {
            b.iter(|| black_box(decode(&frame).unwrap()))
        });
    }
    let ping = Message::Ping {
        from: NodeId(3),
        nonce: 0xABCD,
        hb: false,
    };
    let ping_frame = encode(&ping);
    group.bench_function("encode_ping", |b| b.iter(|| black_box(encode(&ping))));
    group.bench_function("decode_ping", |b| {
        b.iter(|| black_box(decode(&ping_frame).unwrap()))
    });

    // A digest push as anti-entropy sends it: 400 LSAs of k = 4 links,
    // encoded straight from the records and link arena, or (as before)
    // from owned copies wrapped in a `Message`.
    let db = lsdb(400, 4);
    let refs: Vec<LsaRef> = db.all().collect();
    let sync_frame = encode_sync(&refs, &[]);
    group.throughput(Throughput::Bytes(sync_frame.len() as u64));
    group.bench_function("lsdb_sync_400/encode_from_records", |b| {
        b.iter(|| black_box(encode_sync(black_box(&refs), &[])))
    });
    group.bench_function("lsdb_sync_400/encode_from_clones", |b| {
        b.iter(|| {
            let lsas = refs.iter().map(|l| l.to_lsa()).collect();
            let refreshes = Vec::new();
            black_box(encode(&Message::LsdbSync { lsas, refreshes }))
        })
    });
    group.bench_function("lsdb_sync_400/decode", |b| {
        b.iter(|| black_box(decode(&sync_frame).unwrap()))
    });

    // The digest that opens every anti-entropy exchange, 600 origins.
    let digest = Message::LsdbDigest {
        from: NodeId(7),
        entries: lsdb(600, 4).digest(),
    };
    let digest_frame = encode(&digest);
    group.throughput(Throughput::Bytes(digest_frame.len() as u64));
    group.bench_function("lsdb_digest_600/encode", |b| {
        b.iter(|| black_box(encode(black_box(&digest))))
    });
    group.bench_function("lsdb_digest_600/decode", |b| {
        b.iter(|| black_box(decode(&digest_frame).unwrap()))
    });

    for (label, len) in [("64B", 64usize), ("17KB", 17 * 1024)] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(BenchmarkId::new("checksum", label), |b| {
            b.iter(|| black_box(fnv1a(black_box(&data))))
        });
    }
    group.finish();
}

/// An LSDB of `n` origins, `k` links each.
fn lsdb(n: usize, k: usize) -> Lsdb {
    let mut db = Lsdb::new(70.0);
    for i in 0..n {
        db.apply(lsa(i as u32, 9, k), 0.0);
    }
    db
}

fn bench_lsdb(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsdb");
    for n in [50usize, 295] {
        group.bench_with_input(BenchmarkId::new("apply_all", n), &n, |b, &n| {
            b.iter(|| {
                let mut db = Lsdb::new(70.0);
                for i in 0..n {
                    db.apply(lsa(i as u32, 1, 5), 0.0);
                }
                black_box(db.len())
            })
        });
    }
    // One anti-entropy exchange at fleet scale: our 600 records against
    // a partner's digest that is behind on a third of them and has
    // never heard of a tenth.
    let mut db = lsdb(600, 4);
    let theirs: Vec<(NodeId, u64)> = db
        .digest()
        .into_iter()
        .filter(|(o, _)| o.0 % 10 != 3)
        .map(|(o, seq)| (o, if o.0 % 3 == 0 { seq - 1 } else { seq }))
        .collect();
    group.bench_function("digest_600", |b| b.iter(|| black_box(db.digest())));
    group.bench_function("fresher_than_600", |b| {
        b.iter(|| black_box(db.fresher_than(black_box(&theirs)).len()))
    });
    group.bench_function("touch_matching_600", |b| {
        b.iter(|| db.touch_matching(black_box(&theirs), 1.0))
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_lsdb);
criterion_main!(benches);
