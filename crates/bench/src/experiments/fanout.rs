//! E30 — broker fan-out under publish-side concurrency.
//!
//! The broker keeps its trie, retained store and obs instruments behind
//! one lock. A 10 000-subscriber population (mixed exact,
//! per-node-wildcard and global-wildcard filters) is hammered by 16
//! concurrent publisher threads. Gate: zero drops and exactly the
//! delivery count the subscriptions imply, on every run; the publish
//! rate is reported with the core count it ran on.
//!
//! `--smoke` shrinks the run to 2000 subscribers / 4 threads; the gates
//! are the same shape.

use super::smoke;
use crate::header;
use bytes::Bytes;
use davide_mqtt::{Broker, QoS};
use std::sync::Barrier;
use std::time::Instant;

/// Workload shape.
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
fn fanout_run(broker: &Broker, shape: &Shape) -> (f64, u64, u64) {
    // Subscribers stay alive (and undrained) for the whole run.
    let mut subs = Vec::with_capacity(shape.total_subs());
    for i in 0..shape.exact_subs {
        let mut c = broker.connect(format!("exact{i}"));
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
        let mut c = broker.connect(format!("nodewild{n}"));
        c.subscribe(
            &format!("davide/node{}/#", n % shape.nodes),
            QoS::AtMostOnce,
        )
        .unwrap();
        subs.push(c);
    }
    for g in 0..shape.global_wildcards {
        let mut c = broker.connect(format!("global{g}"));
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

/// E30 — broker fan-out: exact delivery under 16 publishers.
pub fn e30() {
    header("e30", "Broker fan-out (10k subscribers)");
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

    // Every mailbox may hold the whole run, so only a broker fault can
    // drop; a mailbox holds only what reached it, so the depth costs no
    // memory. Best of three for the reported rate: each run builds a
    // fresh broker and population, so the first eats the allocator
    // warm-up.
    let mut best = 0.0f64;
    for _ in 0..3 {
        let broker = Broker::new(shape.total_publishes() + 16);
        let (wall, delivered, dropped) = fanout_run(&broker, &shape);
        assert_eq!(dropped, 0, "mailboxes are deep enough for the whole run");
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

    println!("\ngate: exact delivery with zero drops on every run — holds.");
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
