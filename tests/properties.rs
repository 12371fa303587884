//! Property-based tests (proptest) on the invariants that hold across
//! the whole stack.

use davide::apps::cg::{conjugate_gradient, LinearOp};
use davide::apps::fft::fft_inplace;
use davide::apps::C64;
use davide::core::power::PowerTrace;
use davide::core::time::SimTime;
use davide::mqtt::topic::{filter_matches, validate_filter, validate_topic};
use davide::sched::{NodePool, PlacementStrategy};
use davide::telemetry::decimation::boxcar_decimate;
use davide::telemetry::tsdb::{Resolution, TsDb};
use proptest::prelude::*;

fn topic_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,6}", 1..5).prop_map(|v| v.join("/"))
}

/// One valid packet of each kind the stack uses (`kind` in 0..11),
/// filled from the drawn fields.
fn mqtt_packet(
    kind: usize,
    topic: String,
    payload: Vec<u8>,
    id: u16,
    flags: u8,
) -> davide::mqtt::Packet {
    use bytes::Bytes;
    use davide::mqtt::{Packet, QoS};
    let qos = if flags & 1 == 0 {
        QoS::AtMostOnce
    } else {
        QoS::AtLeastOnce
    };
    match kind {
        0 => Packet::Connect {
            client_id: topic,
            keep_alive: id,
            clean_session: flags & 2 != 0,
        },
        1 => Packet::ConnAck {
            session_present: flags & 2 != 0,
            code: flags,
        },
        2 => Packet::Publish {
            topic,
            payload: Bytes::from(payload),
            qos,
            retain: flags & 2 != 0,
            dup: flags & 4 != 0,
            // Present iff QoS > 0 — the wire format has no id slot at
            // QoS 0.
            packet_id: (qos != QoS::AtMostOnce).then_some(id),
        },
        3 => Packet::PubAck { packet_id: id },
        4 => Packet::Subscribe {
            packet_id: id,
            filters: vec![(topic, qos), ("davide/#".into(), QoS::AtMostOnce)],
        },
        5 => Packet::SubAck {
            packet_id: id,
            return_codes: vec![0, 1, 0x80],
        },
        6 => Packet::Unsubscribe {
            packet_id: id,
            filters: vec![topic],
        },
        7 => Packet::UnsubAck { packet_id: id },
        8 => Packet::PingReq,
        9 => Packet::PingResp,
        _ => Packet::Disconnect,
    }
}

proptest! {
    /// Every concrete topic matches itself, the `#` filter, and its own
    /// levels with any one replaced by `+`.
    #[test]
    fn topic_matching_axioms(topic in topic_strategy(), level in 0usize..5) {
        prop_assert!(validate_topic(&topic).is_ok());
        prop_assert!(filter_matches(&topic, &topic));
        prop_assert!(filter_matches("#", &topic));
        let mut parts: Vec<&str> = topic.split('/').collect();
        let idx = level % parts.len();
        parts[idx] = "+";
        let filter = parts.join("/");
        prop_assert!(validate_filter(&filter).is_ok());
        prop_assert!(filter_matches(&filter, &topic));
    }

    /// A `prefix/#` filter matches every extension of the prefix.
    #[test]
    fn hash_matches_all_extensions(prefix in topic_strategy(), ext in topic_strategy()) {
        let filter = format!("{prefix}/#");
        let topic = format!("{prefix}/{ext}");
        prop_assert!(filter_matches(&filter, &topic));
        prop_assert!(filter_matches(&filter, &prefix), "parent matches too");
    }

    /// Boxcar decimation preserves the mean exactly when the length is a
    /// multiple of the factor, for arbitrary signals.
    #[test]
    fn boxcar_preserves_mean(
        samples in proptest::collection::vec(0.0f64..4000.0, 16..256),
        factor in 1usize..8,
    ) {
        let n = (samples.len() / factor) * factor;
        if n == 0 { return Ok(()); }
        let tr = PowerTrace::new(SimTime::ZERO, 1e-5, samples[..n].to_vec());
        let out = boxcar_decimate(&tr, factor);
        prop_assert!((out.mean().0 - tr.mean().0).abs() < 1e-9 * tr.mean().0.max(1.0));
    }

    /// Trapezoidal energy is invariant under trace concatenation order
    /// and bounded by min/max power times duration.
    #[test]
    fn energy_bounds(samples in proptest::collection::vec(0.0f64..4000.0, 2..128)) {
        let tr = PowerTrace::new(SimTime::ZERO, 0.01, samples);
        let e = tr.energy().0;
        let d = (tr.len() - 1) as f64 * 0.01;
        prop_assert!(e >= tr.min().0 * d - 1e-9);
        prop_assert!(e <= tr.max().0 * d + 1e-9);
    }

    /// FFT⁻¹∘FFT ≡ identity for arbitrary signals (power-of-two sizes).
    #[test]
    fn fft_roundtrip(values in proptest::collection::vec(-100.0f64..100.0, 64)) {
        let mut data: Vec<C64> = values.iter().map(|&v| C64::real(v)).collect();
        fft_inplace(&mut data, false);
        fft_inplace(&mut data, true);
        for (z, &v) in data.iter().zip(&values) {
            prop_assert!((z.re - v).abs() < 1e-9);
            prop_assert!(z.im.abs() < 1e-9);
        }
    }

    /// CG on a diagonally-dominant (hence SPD) random tridiagonal system
    /// always converges and satisfies A·x ≈ b.
    #[test]
    fn cg_converges_on_spd(
        diag_boost in 0.1f64..5.0,
        rhs in proptest::collection::vec(-10.0f64..10.0, 32),
    ) {
        struct Tri { n: usize, d: f64 }
        impl LinearOp for Tri {
            fn dim(&self) -> usize { self.n }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                for i in 0..self.n {
                    let mut v = (2.0 + self.d) * x[i];
                    if i > 0 { v -= x[i - 1]; }
                    if i + 1 < self.n { v -= x[i + 1]; }
                    y[i] = v;
                }
            }
        }
        let op = Tri { n: rhs.len(), d: diag_boost };
        let mut x = vec![0.0; rhs.len()];
        let res = conjugate_gradient(&op, &rhs, &mut x, 1e-10, 10_000);
        prop_assert!(res.converged);
        let mut ax = vec![0.0; rhs.len()];
        op.apply(&x, &mut ax);
        for (a, b) in ax.iter().zip(&rhs) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Scheduling conserves jobs and never starts a job before its
    /// submission, for arbitrary small traces.
    #[test]
    fn scheduler_conservation(
        seeds in proptest::collection::vec(1u64..1_000_000, 3..20),
    ) {
        use davide::apps::workload::AppKind;
        use davide::sched::{simulate, EasyBackfill, Job, SimConfig};
        let trace: Vec<Job> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let nodes = 1 + (s % 8) as u32;
                let runtime = 60.0 + (s % 1000) as f64;
                Job::new(
                    i as u64 + 1,
                    (s % 5) as u32,
                    AppKind::ALL[(s % 4) as usize],
                    nodes,
                    i as f64 * 10.0,
                    runtime * 1.5,
                    runtime,
                    900.0 + (s % 900) as f64,
                )
            })
            .collect();
        let out = simulate(&trace, &mut EasyBackfill::new(), SimConfig {
            total_nodes: 8,
            ..SimConfig::davide()
        });
        prop_assert_eq!(out.completed.len(), trace.len(), "all jobs complete");
        for j in &out.completed {
            let start = j.start_s.unwrap();
            let end = j.end_s.unwrap();
            prop_assert!(start >= j.submit_s - 1e-9);
            prop_assert!(end > start);
            // Without capping, runtime is exact.
            prop_assert!((end - start - j.true_runtime_s).abs() < 1e-6);
        }
        // Energy attribution never exceeds system energy.
        let attributed: f64 = out.job_energy_j.values().sum();
        prop_assert!(attributed <= out.total_energy_j() + 1e-6);
    }

    /// Placement never loses or duplicates nodes across arbitrary
    /// allocate/release sequences.
    #[test]
    fn placement_conserves_nodes(ops in proptest::collection::vec(1u32..12, 1..20)) {
        use davide::core::interconnect::FatTree;
        let mut pool = NodePool::new(FatTree::davide(45));
        let mut held: Vec<Vec<u32>> = Vec::new();
        for (i, &n) in ops.iter().enumerate() {
            if i % 3 == 2 && !held.is_empty() {
                let a = held.swap_remove(0);
                pool.release(&a);
            } else if let Some(a) = pool.allocate(n, PlacementStrategy::LeafAware) {
                // No duplicates within an allocation.
                let set: std::collections::HashSet<u32> = a.iter().copied().collect();
                prop_assert_eq!(set.len(), a.len());
                held.push(a);
            }
        }
        let held_count: usize = held.iter().map(Vec::len).sum();
        prop_assert_eq!(pool.free_count() + held_count, 45);
        // All held nodes distinct across allocations.
        let all: std::collections::HashSet<u32> =
            held.iter().flatten().copied().collect();
        prop_assert_eq!(all.len(), held_count);
    }

    /// The time-series DB's second rollup mean always lies within the
    /// min/max of the raw points it summarises.
    #[test]
    fn tsdb_rollup_bounded_by_raw(
        values in proptest::collection::vec(0.0f64..4000.0, 10..200),
    ) {
        let mut db = TsDb::with_capacity(10_000);
        let sid = db.resolve("s");
        for (i, &v) in values.iter().enumerate() {
            db.append_id(sid, i as f64 * 0.1, v);
        }
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for p in db.query_id(sid, Resolution::Second, 0.0, 1e9) {
            prop_assert!(p.v >= lo - 1e-9 && p.v <= hi + 1e-9);
        }
        prop_assert_eq!(db.count_id(sid), values.len() as u64);
    }

    /// A `SampleFrame` survives the wire byte-exactly: encode ∘ decode
    /// is the identity on timestamps, spacing, and every f32 sample.
    #[test]
    fn sample_frame_roundtrip(
        t0 in 0.0f64..1e6,
        dt in 1e-7f64..1.0,
        watts in proptest::collection::vec(0.0f32..4000.0, 0..600),
    ) {
        use davide::telemetry::gateway::SampleFrame;
        let frame = SampleFrame { t0_s: t0, dt_s: dt, watts };
        let wire = frame.encode();
        prop_assert_eq!(wire.len(), 24 + 4 * frame.watts.len());
        let back = SampleFrame::decode(wire).expect("well-formed frame");
        prop_assert_eq!(back, frame);
    }

    /// Every strict truncation of a valid frame payload is rejected:
    /// either the header is incomplete or the body is shorter than the
    /// declared sample count.
    #[test]
    fn sample_frame_rejects_truncation(
        watts in proptest::collection::vec(0.0f32..4000.0, 1..64),
        cut_seed in 0usize..10_000,
    ) {
        use davide::telemetry::gateway::SampleFrame;
        let frame = SampleFrame { t0_s: 1.5, dt_s: 2e-5, watts };
        let wire = frame.encode();
        let cut = cut_seed % wire.len(); // strictly shorter than full
        let truncated = bytes::Bytes::from(wire.as_slice()[..cut].to_vec());
        prop_assert!(SampleFrame::decode(truncated).is_none());
    }

    /// Corrupting any single byte of the header either still decodes
    /// (timestamp bits changed) or is rejected — it never panics — and
    /// corrupting a magic byte is always rejected.
    #[test]
    fn sample_frame_rejects_corrupt_magic(
        watts in proptest::collection::vec(0.0f32..4000.0, 1..32),
        pos in 0usize..24,
        flip in 1u8..255,
    ) {
        use davide::telemetry::gateway::SampleFrame;
        let frame = SampleFrame { t0_s: 9.0, dt_s: 1e-3, watts };
        let mut raw = frame.encode().to_vec();
        raw[pos] ^= flip;
        let decoded = SampleFrame::decode(bytes::Bytes::from(raw));
        if pos < 4 {
            prop_assert!(decoded.is_none(), "corrupt magic must be rejected");
        }
    }

    /// A header whose declared sample count exceeds what the body holds
    /// is rejected, up to and including counts whose byte size would
    /// overflow the length arithmetic.
    #[test]
    fn sample_frame_rejects_declared_length_overflow(
        present in 0usize..32,
        excess in 1u32..1000,
        huge in any::<bool>(),
    ) {
        use bytes::{BufMut, Bytes, BytesMut};
        use davide::telemetry::gateway::{SampleFrame, FRAME_MAGIC};
        let declared: u32 = if huge {
            u32::MAX - excess // ~4 Gi samples: byte size tests the overflow guard
        } else {
            present as u32 + excess
        };
        let mut buf = BytesMut::new();
        buf.put_u32_le(FRAME_MAGIC);
        buf.put_f64_le(0.0);
        buf.put_f64_le(2e-5);
        buf.put_u32_le(declared);
        for i in 0..present {
            buf.put_f32_le(i as f32);
        }
        prop_assert!(SampleFrame::decode(Bytes::from(buf.to_vec())).is_none());
    }

    /// The MQTT wire decoder survives arbitrary garbage: it yields
    /// packets, asks for more bytes, or reports a codec error — it
    /// never panics and never loops without consuming input.
    #[test]
    fn mqtt_decode_survives_garbage(raw in proptest::collection::vec(any::<u8>(), 0..512)) {
        use bytes::BytesMut;
        use davide::mqtt::codec::decode;
        let mut buf = BytesMut::from(&raw[..]);
        // Each Ok(Some) consumes at least a header byte, so the stream
        // drains in at most len(raw) iterations.
        for _ in 0..=raw.len() {
            match decode(&mut buf) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// encode ∘ decode is the identity on every packet kind the stack
    /// uses, and the decoder consumes exactly the encoded bytes.
    #[test]
    fn mqtt_codec_roundtrip(
        kind in 0usize..11,
        topic in topic_strategy(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        id in 1u16..u16::MAX,
        flags in 0u8..8,
    ) {
        use bytes::BytesMut;
        use davide::mqtt::codec::{decode, encode};
        let pkt = mqtt_packet(kind, topic, payload, id, flags);
        let mut buf = BytesMut::new();
        encode(&pkt, &mut buf);
        let back = decode(&mut buf).expect("well-formed").expect("complete");
        prop_assert_eq!(back, pkt);
        prop_assert!(buf.is_empty(), "decoder consumes the exact packet");
    }

    /// A stream of valid packets decodes to the same packets, in order,
    /// however its bytes are split into reads: a read that ends inside
    /// a packet gets Ok(None) with the buffer untouched, and nothing is
    /// left over at the end.
    #[test]
    fn mqtt_decode_is_indifferent_to_byte_splits(
        kinds in proptest::collection::vec(0usize..11, 1..8),
        topics in proptest::collection::vec(topic_strategy(), 8..9),
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 8..9),
        ids in proptest::collection::vec(1u16..u16::MAX, 8..9),
        flags in proptest::collection::vec(0u8..8, 8..9),
        chunks in proptest::collection::vec(1usize..48, 1..16),
    ) {
        use bytes::BytesMut;
        use davide::mqtt::codec::{decode, encode};
        let sent: Vec<_> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| mqtt_packet(k, topics[i].clone(), payloads[i].clone(), ids[i], flags[i]))
            .collect();
        let mut wire = BytesMut::new();
        for p in &sent {
            encode(p, &mut wire);
        }
        let mut buf = BytesMut::new();
        let mut got = Vec::new();
        let mut fed = 0;
        for &n in chunks.iter().cycle() {
            if fed == wire.len() {
                break;
            }
            let end = (fed + n).min(wire.len());
            buf.extend_from_slice(&wire[fed..end]);
            fed = end;
            loop {
                let before = buf.clone();
                match decode(&mut buf).expect("a valid stream is never malformed") {
                    Some(p) => got.push(p),
                    None => {
                        prop_assert_eq!(&buf[..], &before[..], "Ok(None) leaves the buffer untouched");
                        break;
                    }
                }
            }
        }
        prop_assert_eq!(got, sent);
        prop_assert!(buf.is_empty(), "no bytes left over");
    }

    /// Every strict truncation of a valid wire packet is incomplete:
    /// the stream decoder returns Ok(None) (waiting for the rest) and
    /// leaves the buffer untouched — it never fabricates a packet.
    #[test]
    fn mqtt_decode_waits_on_truncation(
        topic in topic_strategy(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut_seed in 0usize..10_000,
    ) {
        use bytes::{Bytes, BytesMut};
        use davide::mqtt::codec::{decode, encode};
        use davide::mqtt::{Packet, QoS};
        let pkt = Packet::Publish {
            topic,
            payload: Bytes::from(payload),
            qos: QoS::AtLeastOnce,
            retain: false,
            dup: false,
            packet_id: Some(7),
        };
        let mut wire = BytesMut::new();
        encode(&pkt, &mut wire);
        let cut = cut_seed % wire.len(); // strictly shorter than full
        let mut buf = BytesMut::from(&wire[..cut]);
        prop_assert!(decode(&mut buf).expect("prefix is never malformed").is_none());
        prop_assert_eq!(buf.len(), cut, "incomplete input is left untouched");
    }
}

fn small_topic() -> impl Strategy<Value = String> {
    proptest::collection::vec("[abc]", 1..4).prop_map(|v| v.join("/"))
}

/// Filters over the same tiny alphabet, with `+` levels and `#` — the
/// alphabet is small enough that random topic/filter pairs really
/// collide, wildcard and exact alike. A `#` drawn anywhere but the last
/// level would be invalid, so it degrades to a literal there.
fn small_filter() -> impl Strategy<Value = String> {
    proptest::collection::vec("[abc+#]", 1..4).prop_map(|v| {
        let last = v.len() - 1;
        let levels: Vec<String> = v
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                if s == "#" && i != last {
                    "a".to_string()
                } else {
                    s
                }
            })
            .collect();
        levels.join("/")
    })
}

proptest! {
    /// The broker's subscription trie agrees with the reference matcher:
    /// for arbitrary topic/filter sets (`+`/`#` included), every
    /// subscriber drains exactly the published messages whose topic
    /// `topic::filter_matches` accepts for its filter, in publish order.
    #[test]
    fn sharded_broker_matches_like_single(
        topics in proptest::collection::vec(small_topic(), 1..12),
        filters in proptest::collection::vec(small_filter(), 1..8),
    ) {
        use davide::mqtt::{Broker, QoS};
        let broker = Broker::new(1024);
        let mut subs: Vec<_> = filters
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut c = broker.connect(format!("s{i}"));
                c.subscribe(f, QoS::AtMostOnce).unwrap();
                c
            })
            .collect();
        let p = broker.connect("pub");
        for (j, t) in topics.iter().enumerate() {
            p.publish_str(t, &format!("m{j}")).unwrap();
        }
        for (f, c) in filters.iter().zip(&mut subs) {
            let got: Vec<(String, Vec<u8>)> = c
                .drain()
                .into_iter()
                .map(|m| (m.topic.to_string(), m.payload.to_vec()))
                .collect();
            let want: Vec<(String, Vec<u8>)> = topics
                .iter()
                .enumerate()
                .filter(|(_, t)| filter_matches(f, t))
                .map(|(j, t)| (t.clone(), format!("m{j}").into_bytes()))
                .collect();
            prop_assert_eq!(got, want, "filter {}", f);
        }
    }
}

proptest! {
    /// Subscriber mailboxes are plain bounded FIFOs. Under a random depth
    /// 1–8 and a random interleaving of `publish_batch` (with `Drop` and
    /// `Duplicate` fates), `try_recv`, `drain`, `drain_into` and
    /// `pending`, every subscriber receives exactly what a reference
    /// model of per-subscriber bounded queues predicts, `pending` reads
    /// the model's length, and `BrokerStats` and the registry's
    /// delivered/dropped counters equal the model's pushes and refusals.
    #[test]
    fn mailboxes_match_a_bounded_fifo_model(
        depth in 1usize..9,
        ops in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        use bytes::Bytes;
        use davide::mqtt::{Broker, BrokerObs, Message, PublishFate, QoS};
        use davide_obs::ObsHub;
        use std::collections::VecDeque;
        use std::sync::atomic::Ordering::Relaxed;
        use std::sync::{Arc, Mutex};

        const TOPICS: [&str; 3] = ["rack/a/power", "rack/b/power", "rack/a/temp"];
        const FILTERS: [&str; 3] = ["rack/#", "rack/a/+", "rack/+/power"];
        let broker = Broker::new(depth);
        let (hub, _clock) = ObsHub::manual();
        broker.set_obs(Some(BrokerObs::new(&hub, None)));
        // The hook hands out the fates each batch queued, in order.
        let fates: Arc<Mutex<VecDeque<PublishFate>>> = Arc::default();
        let hook_fates = Arc::clone(&fates);
        broker.set_fault_hook(Some(Box::new(move |_: &str| {
            hook_fates.lock().unwrap().pop_front().unwrap_or(PublishFate::Deliver)
        })));
        let mut subs: Vec<_> = FILTERS
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut c = broker.connect(format!("agent{i}"));
                c.subscribe(f, QoS::AtMostOnce).unwrap();
                c
            })
            .collect();
        let publ = broker.connect("gw");

        type Key = (String, Bytes);
        let key = |m: &Message| (m.topic.to_string(), m.payload.clone());
        let mut model: Vec<VecDeque<Key>> = vec![VecDeque::new(); FILTERS.len()];
        let (mut published, mut delivered, mut dropped) = (0u64, 0u64, 0u64);
        let mut seq = 0u64;
        let mut scratch: Vec<Message> = Vec::new();
        for op in ops {
            let s = (op >> 8) as usize % FILTERS.len();
            match op % 5 {
                0 => {
                    let n = 1 + (op >> 16) as usize % 4;
                    let mut batch = Vec::with_capacity(n);
                    let mut reached = 0;
                    for j in 0..n {
                        let r = op >> (20 + 6 * j);
                        let topic = TOPICS[(r % 3) as usize];
                        let fate = match (r >> 2) % 4 {
                            0 => PublishFate::Drop,
                            1 => PublishFate::Duplicate,
                            _ => PublishFate::Deliver,
                        };
                        seq += 1;
                        let payload = Bytes::from(seq.to_string().into_bytes());
                        let copies = match fate {
                            PublishFate::Drop => 0,
                            PublishFate::Deliver => 1,
                            PublishFate::Duplicate => 2,
                        };
                        for copy in 0..copies {
                            for (q, f) in model.iter_mut().zip(FILTERS) {
                                if !filter_matches(f, topic) {
                                    continue;
                                }
                                if q.len() < depth {
                                    q.push_back((topic.to_string(), payload.clone()));
                                    delivered += 1;
                                    reached += usize::from(copy == 0);
                                } else {
                                    dropped += 1;
                                }
                            }
                        }
                        fates.lock().unwrap().push_back(fate);
                        batch.push((topic, payload));
                    }
                    published += n as u64;
                    prop_assert_eq!(publ.publish_batch(&batch).unwrap(), reached);
                }
                1 => prop_assert_eq!(subs[s].try_recv().map(|m| key(&m)), model[s].pop_front()),
                2 => {
                    let got: Vec<Key> = subs[s].drain().iter().map(key).collect();
                    let want: Vec<Key> = model[s].drain(..).collect();
                    prop_assert_eq!(got, want);
                }
                3 => {
                    // Appends after whatever the buffer already holds.
                    let before = scratch.len();
                    subs[s].drain_into(&mut scratch);
                    let got: Vec<Key> = scratch[before..].iter().map(key).collect();
                    let want: Vec<Key> = model[s].drain(..).collect();
                    prop_assert_eq!(got, want);
                }
                _ => prop_assert_eq!(subs[s].pending(), model[s].len()),
            }
        }
        for (c, q) in subs.iter_mut().zip(&mut model) {
            prop_assert_eq!(c.pending(), q.len());
            let got: Vec<Key> = c.drain().iter().map(key).collect();
            let want: Vec<Key> = q.drain(..).collect();
            prop_assert_eq!(got, want);
        }
        let stats = broker.stats();
        prop_assert_eq!(
            (stats.published.load(Relaxed), stats.delivered.load(Relaxed), stats.dropped.load(Relaxed)),
            (published, delivered, dropped)
        );
        let counter = |name: &str| hub.registry.find_counter(name).unwrap().get();
        prop_assert_eq!(
            (counter("mqtt_delivered_total"), counter("mqtt_dropped_total")),
            (delivered, dropped)
        );
    }
}
