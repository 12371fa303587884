//! E21 — telemetry ingest throughput: the EG → MQTT → TsDb data path
//! replayed at cluster scale (45 nodes × 8 channels × 500-sample
//! frames), comparing the seed per-sample ingest against interned-id
//! and frame-bulk appends (see DESIGN.md "Ingest data path").

use crate::header;
use davide_telemetry::gateway::{power_topic, SampleFrame, CHANNELS};
use davide_telemetry::ingest::ShardedTsDb;
use davide_telemetry::tsdb::{Resolution, TsDb};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// The seed implementation's hot path, kept verbatim as the baseline:
/// `entry(key.to_string())` per sample (String allocation + hash),
/// row-major `(t, v)` ring, per-sample rollup bucketing via `floor`.
struct SeedTsDb {
    series: HashMap<String, SeedSeries>,
    raw_capacity: usize,
}

struct SeedSeries {
    raw: VecDeque<(f64, f64)>,
    roll_bucket: i64,
    roll_sum: f64,
    roll_n: u64,
    rollup: Vec<(f64, f64)>,
    count: u64,
    last_t: f64,
}

impl SeedTsDb {
    fn new(raw_capacity: usize) -> Self {
        SeedTsDb {
            series: HashMap::new(),
            raw_capacity,
        }
    }

    fn append(&mut self, key: &str, t: f64, v: f64) {
        let cap = self.raw_capacity;
        let s = self
            .series
            .entry(key.to_string())
            .or_insert_with(|| SeedSeries {
                raw: VecDeque::with_capacity(cap.min(4096)),
                roll_bucket: i64::MIN,
                roll_sum: 0.0,
                roll_n: 0,
                rollup: Vec::new(),
                count: 0,
                last_t: f64::NEG_INFINITY,
            });
        if t < s.last_t {
            return;
        }
        s.last_t = t;
        s.count += 1;
        if s.raw.len() == cap {
            s.raw.pop_front();
        }
        s.raw.push_back((t, v));
        let bucket = t.floor() as i64;
        if bucket != s.roll_bucket {
            if s.roll_n > 0 {
                s.rollup
                    .push((s.roll_bucket as f64 + 0.5, s.roll_sum / s.roll_n as f64));
            }
            s.roll_bucket = bucket;
            s.roll_sum = 0.0;
            s.roll_n = 0;
        }
        s.roll_sum += v;
        s.roll_n += 1;
    }

    fn total(&self) -> u64 {
        self.series.values().map(|s| s.count).sum()
    }
}

const NODES: u32 = 45;
const FRAME_LEN: usize = 500;
const ROUNDS: usize = 40;
/// Ring capacities for the replay stores: big enough that queries see
/// real history, small enough that four stores fit comfortably in RAM.
const RAW_CAP: usize = 8_192;

/// Synthesise the replay batch: `ROUNDS` `(topic, frame)` pairs per
/// node × channel.
fn make_batch() -> Vec<(String, SampleFrame)> {
    let mut batch = Vec::new();
    for round in 0..ROUNDS {
        let t0 = round as f64 * 0.01;
        for node in 0..NODES {
            for (ci, ch) in CHANNELS.iter().enumerate() {
                let base = 200.0 + 50.0 * ci as f32 + node as f32;
                let watts: Vec<f32> = (0..FRAME_LEN).map(|i| base + (i % 17) as f32).collect();
                let frame = SampleFrame {
                    t0_s: t0,
                    dt_s: 2e-5,
                    watts,
                };
                batch.push((power_topic(node, ch), frame));
            }
        }
    }
    batch
}

/// E21 — ingest data-path throughput.
pub fn e21() {
    header("e21", "Telemetry ingest throughput (EG → MQTT → TsDb)");
    let batch = make_batch();
    let total_samples: u64 = batch.iter().map(|(_, f)| f.watts.len() as u64).sum();
    println!(
        "replay: {} nodes × {} channels × {} frames of {} samples = {} frames, {:.2} M samples\n",
        NODES,
        CHANNELS.len(),
        ROUNDS,
        FRAME_LEN,
        batch.len(),
        total_samples as f64 / 1e6
    );

    let mut results: Vec<(&str, f64)> = Vec::new();
    let per_series = (ROUNDS * FRAME_LEN) as u64;
    let spot_mean: f64;

    // Each path runs in its own scope so dropped stores release their
    // memory before the next measurement (several stores alive at once
    // distorts timings through allocator pressure).

    // Baseline: the seed path, per-sample with String-keyed entry().
    {
        let t = Instant::now();
        let mut seed = SeedTsDb::new(RAW_CAP);
        for (topic, f) in &batch {
            for (i, &w) in f.watts.iter().enumerate() {
                seed.append(topic, f.t0_s + i as f64 * f.dt_s, w as f64);
            }
        }
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(seed.total(), total_samples);
        results.push(("seed: per-sample, String entry per sample", dt));
    }

    // Per-sample, but through the interned-id path (no hash per sample).
    {
        let t = Instant::now();
        let mut db = TsDb::with_capacity(RAW_CAP);
        for (topic, f) in &batch {
            let id = db.resolve(topic);
            for (i, &w) in f.watts.iter().enumerate() {
                db.append_id(id, f.t0_s + i as f64 * f.dt_s, w as f64);
            }
        }
        let dt = t.elapsed().as_secs_f64();
        results.push(("interned id, per-sample append_id", dt));
        let id = db.lookup(&power_topic(0, "node")).expect("series exists");
        assert_eq!(db.count_id(id), per_series);
    }

    // Frame-bulk: one append_frame_id per frame.
    {
        let t = Instant::now();
        let mut db = TsDb::with_capacity(RAW_CAP);
        for (topic, f) in &batch {
            let id = db.resolve(topic);
            db.append_frame_id(id, f.t0_s, f.dt_s, &f.watts);
        }
        let dt = t.elapsed().as_secs_f64();
        results.push(("frame-bulk append_frame_id", dt));
        let id = db.lookup(&power_topic(0, "node")).expect("series exists");
        assert_eq!(db.count_id(id), per_series);
        // Sanity: the fast path stored the data the queries expect.
        let gpu = db.lookup(&power_topic(7, "gpu0")).expect("series exists");
        spot_mean = db.mean_id(gpu, Resolution::Raw, 0.0, 1e9).unwrap();
    }

    // Frame-bulk into the sharded store, each frame routed to its
    // shard by topic hash: the append `drain_into_sharded` runs.
    {
        let t = Instant::now();
        let mut sharded = ShardedTsDb::new(4, RAW_CAP, 0);
        let mut n = 0;
        for (topic, f) in &batch {
            n += sharded.append_frame(topic, f.t0_s, f.dt_s, &f.watts) as u64;
        }
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(n, total_samples);
        results.push(("frame-bulk, 4 shards, routed append_frame", dt));
    }

    // End to end: frames encoded, published through the in-process
    // broker, drained and bulk-appended by a FrameIngestor.
    {
        use davide_mqtt::{Broker, QoS};
        use davide_telemetry::ingest::FrameIngestor;
        let broker = Broker::default();
        let mut ing =
            FrameIngestor::subscribe(&broker, "mgmt", &["davide/+/power/#"]).expect("filter");
        let eg_side = broker.connect("replay");
        let per_round = batch.len() / ROUNDS;
        // Untimed warm-up round: faults in the broker's subscriber
        // queues and codec buffers so the timed passes measure the
        // steady state, not first-touch page faults.
        for (topic, f) in &batch[..per_round] {
            eg_side
                .publish(topic, f.encode(), QoS::AtMostOnce, false)
                .expect("publish");
        }
        ing.drain_with(|_| None); // discard; sample counters untouched
        let t = Instant::now();
        let mut db = TsDb::with_capacity(RAW_CAP);
        for round in batch.chunks(per_round) {
            for (topic, f) in round {
                eg_side
                    .publish(topic, f.encode(), QoS::AtMostOnce, false)
                    .expect("publish");
            }
            ing.drain_into(&mut db);
        }
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(ing.stats().samples, total_samples);
        results.push(("end-to-end: encode → MQTT → decode → bulk", dt));
    }

    let base_rate = total_samples as f64 / results[0].1;
    println!(
        "{:<44} {:>10} {:>14} {:>9}",
        "ingest path", "time", "samples/s", "speedup"
    );
    println!("{}", "-".repeat(80));
    for (name, secs) in &results {
        let rate = total_samples as f64 / secs;
        println!(
            "{:<44} {:>8.1} ms {:>12.2} M/s {:>8.2}×",
            name,
            secs * 1e3,
            rate / 1e6,
            rate / base_rate
        );
    }
    let bulk_rate = total_samples as f64 / results[2].1;
    println!(
        "\nframe-bulk vs seed path: {:.1}× samples/s (target ≥ 5×)",
        bulk_rate / base_rate
    );
    println!("spot check node07/gpu0 raw mean: {spot_mean:.1} W");
    assert!(
        bulk_rate / base_rate >= 5.0,
        "frame-bulk ingest must beat the seed path ≥ 5×"
    );
}
