//! E30 — sharded broker fan-out under publish-side concurrency.
//!
//! The claim: sharding the broker's hot path (topic trie, retained
//! store, per-client queues split over [`DEFAULT_SHARDS`] locks keyed
//! by topic-prefix hash) buys real multi-core publish throughput
//! without changing a single delivered byte. Three phases:
//!
//! 1. **Throughput** — a 10 000-subscriber fan-out (mixed exact,
//!    per-node-wildcard and global-wildcard filters) hammered by 16
//!    concurrent publisher threads, sharded vs `with_shards(.., 1)`
//!    (the old single-lock broker, bit-for-bit). Gate: ≥ 5× publish
//!    throughput at 16 threads on a ≥ 16-core machine; the bar scales
//!    down with `available_parallelism` (a starved CI box can only
//!    show no-regression, and says so).
//! 2. **Differential** — single-threaded determinism: the same
//!    scripted publish/subscribe/retain sequence against 1-shard and
//!    N-shard brokers must hand every subscriber the identical message
//!    vector, order included.
//! 3. **QoS 1** — broker-side tracked delivery: unacked messages
//!    redeliver DUP-flagged in packet-id order, the in-flight window
//!    bounds exposure, and acks settle everything.
//!
//! `--smoke` shrinks phase 1 to 2000 subscribers / 4 threads for CI;
//! the gates are the same shape.

use super::smoke;
use crate::header;
use bytes::Bytes;
use davide_mqtt::{Broker, Message, QoS, DEFAULT_SHARDS};
use std::sync::Barrier;
use std::time::Instant;

/// Phase-1 workload shape.
struct Shape {
    nodes: usize,
    channels: usize,
    exact_subs: usize,
    node_wildcards: usize,
    global_wildcards: usize,
    threads: usize,
    publishes_per_thread: usize,
}

impl Shape {
    fn sized(smoke: bool) -> Shape {
        if smoke {
            Shape {
                nodes: 128,
                channels: 4,
                exact_subs: 1_740,
                node_wildcards: 256,
                global_wildcards: 4,
                threads: 4,
                publishes_per_thread: 4_096,
            }
        } else {
            Shape {
                nodes: 512,
                channels: 4,
                exact_subs: 8_972,
                node_wildcards: 1_024,
                global_wildcards: 4,
                threads: 16,
                publishes_per_thread: 8_192,
            }
        }
    }

    fn total_subs(&self) -> usize {
        self.exact_subs + self.node_wildcards + self.global_wildcards
    }

    fn total_publishes(&self) -> usize {
        self.threads * self.publishes_per_thread
    }
}

/// One timed fan-out run: build the subscriber population (untimed),
/// then let `threads` publishers hammer their node slices from behind
/// a barrier. Returns (wall seconds, deliveries, drops).
///
/// Queue slots are allocated up front per client, so depths are sized
/// per subscriber class — an exact-match agent sees only its own
/// topic's publishes, a per-node wildcard one node's, and only the
/// handful of global wildcards need room for every publish in flight
/// (10 000 subscribers × a worst-case-for-all depth would be tens of
/// gigabytes of empty ring buffers).
fn fanout_run(broker: &Broker, shape: &Shape) -> (f64, u64, u64) {
    // Subscribers stay alive (and undrained) for the whole run.
    let per_topic = shape.total_publishes() / (shape.nodes * shape.channels);
    let per_node = shape.total_publishes() / shape.nodes;
    let mut subs = Vec::with_capacity(shape.total_subs());
    for i in 0..shape.exact_subs {
        let mut c = broker.connect_with_depth(format!("exact{i}"), 4 * per_topic);
        c.subscribe(
            &format!(
                "davide/node{}/power/ch{}",
                i % shape.nodes,
                (i / shape.nodes) % shape.channels
            ),
            QoS::AtMostOnce,
        )
        .unwrap();
        subs.push(c);
    }
    for n in 0..shape.node_wildcards {
        let mut c = broker.connect_with_depth(format!("nodewild{n}"), 4 * per_node);
        c.subscribe(
            &format!("davide/node{}/#", n % shape.nodes),
            QoS::AtMostOnce,
        )
        .unwrap();
        subs.push(c);
    }
    for g in 0..shape.global_wildcards {
        let mut c = broker.connect_with_depth(format!("global{g}"), shape.total_publishes() + 16);
        c.subscribe("davide/#", QoS::AtMostOnce).unwrap();
        subs.push(c);
    }

    let start = Barrier::new(shape.threads + 1);
    let payload = Bytes::from_static(b"1701.5");
    let wall = std::thread::scope(|s| {
        for t in 0..shape.threads {
            let broker = broker.clone();
            let start = &start;
            let payload = payload.clone();
            let shape = &shape;
            s.spawn(move || {
                let publisher = broker.connect(format!("eg{t}"));
                // Each thread owns a contiguous node slice, so distinct
                // threads mostly land on distinct shards.
                let lo = t * shape.nodes / shape.threads;
                let hi = (t + 1) * shape.nodes / shape.threads;
                let span = (hi - lo).max(1);
                start.wait();
                for i in 0..shape.publishes_per_thread {
                    let node = lo + i % span;
                    let ch = (i / span) % shape.channels;
                    publisher
                        .publish(
                            &format!("davide/node{node}/power/ch{ch}"),
                            payload.clone(),
                            QoS::AtMostOnce,
                            false,
                        )
                        .unwrap();
                }
            });
        }
        start.wait();
        let t0 = Instant::now();
        // Scope joins every publisher before returning.
        t0
    })
    .elapsed()
    .as_secs_f64();

    use std::sync::atomic::Ordering::Relaxed;
    let delivered = broker.stats().delivered.load(Relaxed);
    let dropped = broker.stats().dropped.load(Relaxed);
    drop(subs);
    (wall, delivered, dropped)
}

/// Deterministic phase-2 script: subscriptions (exact, `+`, `#`),
/// retained publishes, live publishes, a late subscriber that takes
/// the retained replay. Returns every subscriber's drained inbox.
fn differential_script(shards: usize) -> Vec<Vec<Message>> {
    let broker = Broker::with_shards(256, shards);
    let mut subs = vec![
        ("davide/node0/power/ch0", broker.connect("s0")),
        ("davide/node1/power/ch1", broker.connect("s1")),
        ("davide/+/power/ch0", broker.connect("s2")),
        ("davide/node2/#", broker.connect("s3")),
        ("davide/#", broker.connect("s4")),
        ("fed/+/cap", broker.connect("s5")),
    ];
    for (f, c) in subs.iter_mut() {
        c.subscribe(f, QoS::AtMostOnce).unwrap();
    }
    let pubs = broker.connect("pub");
    // A deterministic interleaving of retained and live traffic over
    // topics that straddle every shard the filters can reach.
    let mut x = 0x9e37_79b9_u32;
    for i in 0..200u32 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let node = x % 5;
        let ch = (x >> 8) % 3;
        let retain = i % 7 == 0;
        let topic = if i % 11 == 0 {
            format!("fed/rack{:02}/cap", node)
        } else {
            format!("davide/node{node}/power/ch{ch}")
        };
        pubs.publish(
            &topic,
            Bytes::from(format!("v{i}").into_bytes()),
            QoS::AtMostOnce,
            retain,
        )
        .unwrap();
    }
    // Late joiner: retained replay order is part of the contract.
    let mut late = broker.connect("late");
    late.subscribe("davide/#", QoS::AtMostOnce).unwrap();
    let mut out: Vec<Vec<Message>> = subs.into_iter().map(|(_, mut c)| c.drain()).collect();
    out.push(late.drain());
    out
}

/// E30 — sharded fan-out: throughput, determinism, QoS 1 redelivery.
pub fn e30() {
    header("e30", "Sharded broker fan-out (10k subscribers, QoS 1)");
    let shape = Shape::sized(smoke());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let eff = cores.min(shape.threads);
    println!(
        "{} subscribers ({} exact, {} node-wildcard, {} global), {} publisher \
         threads × {} publishes, {} cores available{}",
        shape.total_subs(),
        shape.exact_subs,
        shape.node_wildcards,
        shape.global_wildcards,
        shape.threads,
        shape.publishes_per_thread,
        cores,
        if smoke() { "  [smoke]" } else { "" }
    );

    // ── Phase 1: concurrent publish throughput, sharded vs 1-lock. ──
    // The broker-default depth only covers the (receive-free) publisher
    // clients; every subscriber sizes its own queue in `fanout_run`.
    let mut results = Vec::new();
    for (label, shards) in [("single-lock", 1), ("sharded", DEFAULT_SHARDS)] {
        // Best of three: each run builds a fresh broker + population,
        // so the first iteration eats the allocator warm-up for both
        // configurations alike and the gate compares steady state.
        let mut best = (0.0f64, 0u64);
        for _ in 0..3 {
            let broker = Broker::with_shards(1024, shards);
            let (wall, delivered, dropped) = fanout_run(&broker, &shape);
            assert_eq!(dropped, 0, "queues are sized for the whole run");
            let tput = shape.total_publishes() as f64 / wall;
            if tput > best.0 {
                best = (tput, delivered);
            }
        }
        println!(
            "  {:<12} {} shards: {:>8.0} pub/s  ({} deliveries, best of 3)",
            label, shards, best.0, best.1
        );
        results.push(best);
    }
    let speedup = results[1].0 / results[0].0;
    assert_eq!(
        results[0].1, results[1].1,
        "same workload must produce the same delivery count"
    );
    // The gate scales with what the machine can actually exercise: the
    // full 5× needs ≥ 16 cores driving 16 threads; below that, lock
    // contention shrinks with the thread count that really runs in
    // parallel, down to a plain no-regression bar on 1–2 cores.
    let required = match eff {
        e if e >= 16 => 5.0,
        e if e >= 8 => 3.0,
        e if e >= 4 => 1.2,
        _ => 0.8,
    };
    if eff < shape.threads {
        println!(
            "  note: only {eff} of {} publisher threads can run in parallel here; \
             gate relaxed to {required:.1}×",
            shape.threads
        );
    }
    println!("  speedup: {speedup:.2}× (gate ≥ {required:.1}×)");
    assert!(
        speedup >= required,
        "sharded fan-out speedup {speedup:.2}× below the {required:.1}× gate"
    );

    // ── Phase 2: shard-count differential, single-threaded. ──
    let single = differential_script(1);
    let sharded = differential_script(DEFAULT_SHARDS);
    assert_eq!(
        single, sharded,
        "per-subscriber delivery must be shard-invariant"
    );
    let msgs: usize = single.iter().map(Vec::len).sum();
    println!(
        "  differential: {} subscribers × scripted run, {} deliveries \
         identical at 1 vs {} shards (retained replay included)",
        single.len(),
        msgs,
        DEFAULT_SHARDS
    );

    // ── Phase 3: QoS 1 tracked delivery and redelivery. ──
    let broker = Broker::with_shards(256, DEFAULT_SHARDS);
    let mut agent = broker.connect("ctl-agent");
    agent
        .subscribe("davide/node0/power/node", QoS::AtLeastOnce)
        .unwrap();
    agent.enable_qos1_tracking(8, 3);
    let gw = broker.connect("eg0");
    for i in 0..12 {
        gw.publish(
            "davide/node0/power/node",
            Bytes::from(format!("{i}").into_bytes()),
            QoS::AtLeastOnce,
            false,
        )
        .unwrap();
    }
    let first = agent.drain();
    assert_eq!(first.len(), 12, "window bounds tracking, not delivery");
    let tracked = first.iter().filter(|m| m.packet_id.is_some()).count();
    assert_eq!(tracked, 8, "in-flight window caps tracked exposure");
    // The agent crashes before acking: everything tracked comes back
    // DUP-flagged, in packet-id order.
    let resent = agent.redeliver_unacked();
    assert_eq!(resent, 8);
    let again = agent.drain();
    assert!(again.iter().all(|m| m.dup && m.packet_id.is_some()));
    for m in &again {
        assert!(agent.ack(m.packet_id.unwrap()), "ack clears the slot");
    }
    assert_eq!(agent.unacked_count(), 0);
    use std::sync::atomic::Ordering::Relaxed;
    println!(
        "  qos1: 12 published, window 8 tracked, {} redelivered DUP, all acked \
         (broker stats: redelivered={}, expired={})",
        resent,
        broker.stats().redelivered.load(Relaxed),
        broker.stats().expired.load(Relaxed),
    );
    println!("\ngates: throughput ≥ {required:.1}× (scaled to {eff} effective cores),");
    println!("shard-invariant delivery, window-bounded QoS 1 with DUP redelivery — all hold.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_script_is_shard_invariant() {
        let one = differential_script(1);
        for n in [2, 3, 8, 13] {
            assert_eq!(one, differential_script(n), "{n} shards");
        }
    }

    #[test]
    fn fanout_run_delivers_everything() {
        let shape = Shape {
            nodes: 8,
            channels: 2,
            exact_subs: 40,
            node_wildcards: 8,
            global_wildcards: 2,
            threads: 2,
            publishes_per_thread: 200,
        };
        let broker = Broker::with_shards(shape.total_publishes() * 2, DEFAULT_SHARDS);
        let (_, delivered, dropped) = fanout_run(&broker, &shape);
        assert_eq!(dropped, 0);
        // Global wildcards alone see every publish.
        assert!(delivered >= (shape.total_publishes() * shape.global_wildcards) as u64);
    }
}
