//! Criterion benches for the MQTT substrate (experiment E6): codec
//! round-trips, topic matching, broker publish fan-out.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use davide_mqtt::codec::{decode, encode, Packet, QoS};
use davide_mqtt::topic::filter_matches;
use davide_mqtt::Broker;
use std::hint::black_box;

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_codec");
    let packet = Packet::Publish {
        topic: "davide/node07/power/gpu2".into(),
        payload: Bytes::from(vec![0u8; 2024]), // one 500-sample frame
        qos: QoS::AtMostOnce,
        retain: false,
        dup: false,
        packet_id: None,
    };
    g.throughput(Throughput::Bytes(2048));
    g.bench_function("encode_publish_2k", |b| {
        b.iter(|| {
            let mut buf = bytes::BytesMut::with_capacity(2100);
            encode(black_box(&packet), &mut buf);
            buf
        });
    });
    let mut encoded = bytes::BytesMut::new();
    encode(&packet, &mut encoded);
    g.bench_function("decode_publish_2k", |b| {
        b.iter(|| {
            let mut buf = encoded.clone();
            decode(black_box(&mut buf)).unwrap().unwrap()
        });
    });
    g.finish();
}

fn bench_topic_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_topics");
    let topic = "davide/node17/power/gpu3";
    for filter in ["davide/node17/power/gpu3", "davide/+/power/#", "#"] {
        g.bench_with_input(BenchmarkId::new("filter_match", filter), &filter, |b, f| {
            b.iter(|| filter_matches(black_box(f), black_box(topic)));
        });
    }
    g.finish();
}

fn bench_broker_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_broker");
    g.sample_size(30);
    for &subs in &[1usize, 8, 64] {
        g.throughput(Throughput::Elements(subs as u64));
        g.bench_with_input(
            BenchmarkId::new("publish_fanout", subs),
            &subs,
            |b, &subs| {
                let broker = Broker::default();
                let mut agents: Vec<_> = (0..subs)
                    .map(|i| {
                        let mut cl = broker.connect(format!("a{i}"));
                        cl.subscribe("davide/+/power/#", QoS::AtMostOnce).unwrap();
                        cl
                    })
                    .collect();
                let publ = broker.connect("gw");
                let payload = Bytes::from(vec![0u8; 256]);
                b.iter(|| {
                    publ.publish(
                        black_box("davide/node00/power/node"),
                        payload.clone(),
                        QoS::AtMostOnce,
                        false,
                    )
                    .unwrap();
                    // Drain to keep queues from filling.
                    for a in &mut agents {
                        while a.try_recv().is_some() {}
                    }
                });
            },
        );
    }
    g.finish();
}

/// E30: per-publish cost on the three traffic shapes that stress
/// different parts of the broker — exact matches (one trie path),
/// wildcard-heavy populations (`+`/`#` branches on every publish), and
/// retained replay (the topic-sorted snapshot in `subscribe`).
fn bench_fanout_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("e30_fanout");
    g.sample_size(30);
    let payload = Bytes::from(vec![0u8; 64]);

    // Exact-match: 256 subscribers, each pinned to one of 64 topics.
    g.bench_function("exact_match", |b| {
        let broker = Broker::new(1 << 16);
        let mut agents: Vec<_> = (0..256)
            .map(|i| {
                let mut cl = broker.connect(format!("a{i}"));
                cl.subscribe(
                    &format!("davide/node{:02}/power/node", i % 64),
                    QoS::AtMostOnce,
                )
                .unwrap();
                cl
            })
            .collect();
        let publ = broker.connect("gw");
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % 64;
            publ.publish(
                &format!("davide/node{k:02}/power/node"),
                payload.clone(),
                QoS::AtMostOnce,
                false,
            )
            .unwrap();
            for a in &mut agents {
                while a.try_recv().is_some() {}
            }
        });
    });

    // Wildcard-heavy: every subscriber uses `+`/`#`.
    g.bench_function("wildcard_heavy", |b| {
        let broker = Broker::new(1 << 16);
        let mut agents: Vec<_> = (0..64)
            .map(|i| {
                let mut cl = broker.connect(format!("w{i}"));
                cl.subscribe("davide/+/power/#", QoS::AtMostOnce).unwrap();
                cl
            })
            .collect();
        let publ = broker.connect("gw");
        b.iter(|| {
            publ.publish(
                black_box("davide/node07/power/gpu1"),
                payload.clone(),
                QoS::AtMostOnce,
                false,
            )
            .unwrap();
            for a in &mut agents {
                while a.try_recv().is_some() {}
            }
        });
    });

    // Retained replay: subscribe against a 512-topic retained store.
    g.bench_function("retained_replay", |b| {
        let broker = Broker::new(1 << 16);
        let publ = broker.connect("gw");
        for i in 0..512 {
            publ.publish(
                &format!("davide/node{:03}/power/node", i),
                payload.clone(),
                QoS::AtMostOnce,
                true,
            )
            .unwrap();
        }
        let mut agent = broker.connect("late");
        b.iter(|| {
            agent
                .subscribe(black_box("davide/#"), QoS::AtMostOnce)
                .unwrap();
            let got = agent.drain();
            agent.unsubscribe("davide/#").unwrap();
            got
        });
    });
    g.finish();
}

criterion_group!(
    mqtt,
    bench_codec,
    bench_topic_matching,
    bench_broker_fanout,
    bench_fanout_shapes
);
criterion_main!(mqtt);
