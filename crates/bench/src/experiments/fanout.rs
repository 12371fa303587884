//! E30 — broker fan-out under publish-side concurrency.
//!
//! The broker keeps its trie, retained store and obs instruments behind
//! one lock. Two phases:
//!
//! 1. **Fan-out** — a 10 000-subscriber population (mixed exact,
//!    per-node-wildcard and global-wildcard filters) hammered by 16
//!    concurrent publisher threads. Gate: zero drops and exactly the
//!    delivery count the subscriptions imply, on every run; the
//!    publish rate is reported with the core count it ran on.
//! 2. **QoS 1** — broker-side tracked delivery: unacked messages
//!    redeliver DUP-flagged in packet-id order, the in-flight window
//!    bounds exposure, and acks settle everything.
//!
//! `--smoke` shrinks phase 1 to 2000 subscribers / 4 threads for CI;
//! the gates are the same shape.

use super::smoke;
use crate::header;
use bytes::Bytes;
use davide_mqtt::{Broker, QoS};
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
    /// Deliveries the population implies. Every `(node, channel)` topic
    /// gets the same number of publishes `k`, so this is
    /// `k · exact_subs + (k · channels) · node_wildcards + publishes ·
    /// global_wildcards`: full size 64 · 8 972 + 256 · 1 024 +
    /// 131 072 · 4, smoke size 32 · 1 740 + 128 · 256 + 16 384 · 4.
    deliveries: u64,
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
                deliveries: 153_984,
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
                deliveries: 1_360_640,
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
                // Each thread owns a contiguous node slice.
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

/// E30 — broker fan-out: exact delivery under 16 publishers, QoS 1
/// redelivery.
pub fn e30() {
    header("e30", "Broker fan-out (10k subscribers, QoS 1)");
    let shape = Shape::sized(smoke());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
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

    // ── Phase 1: concurrent publishers, exact delivery. ──
    // The broker-default depth only covers the (receive-free) publisher
    // clients; every subscriber sizes its own queue in `fanout_run`.
    // Best of three for the reported rate: each run builds a fresh
    // broker and population, so the first eats the allocator warm-up.
    let mut best = 0.0f64;
    for _ in 0..3 {
        let broker = Broker::new(1024);
        let (wall, delivered, dropped) = fanout_run(&broker, &shape);
        assert_eq!(dropped, 0, "queues are sized for the whole run");
        assert_eq!(
            delivered, shape.deliveries,
            "every publish reaches exactly its matching subscribers"
        );
        best = best.max(shape.total_publishes() as f64 / wall);
    }
    println!(
        "  {best:.0} pub/s on {cores} cores ({} deliveries, 0 drops, best of 3)",
        shape.deliveries
    );

    // ── Phase 2: QoS 1 tracked delivery and redelivery. ──
    let broker = Broker::new(256);
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
    println!("\ngates: exact delivery with zero drops, window-bounded QoS 1 with DUP");
    println!("redelivery — all hold.");
}

#[cfg(test)]
mod tests {
    use super::*;

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
            // Each thread covers 4 nodes × 2 channels, 25 publishes per
            // topic: 25 · 40 + 50 · 8 + 400 · 2.
            deliveries: 2_200,
        };
        let broker = Broker::new(shape.total_publishes() * 2);
        let (_, delivered, dropped) = fanout_run(&broker, &shape);
        assert_eq!(dropped, 0);
        assert_eq!(delivered, shape.deliveries);
    }
}
