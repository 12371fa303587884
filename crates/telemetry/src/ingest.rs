//! Frame-granular telemetry ingest: EG → MQTT → TsDb.
//!
//! The management node subscribes to every gateway's power topics and
//! records the stream into the time-series store (Fig. 4). At full
//! scale that is 45 nodes × 8 channels × 50 kS/s — per-sample ingestion
//! (decode a sample, hash the topic, append one point) does not keep
//! up. This module keeps *frames* intact end to end: each MQTT publish
//! is decoded once and becomes exactly one [`TsDb::append_frame_id`]
//! bulk append, with topic → [`SeriesId`](crate::tsdb::SeriesId)
//! resolution cached per ingestor so the steady state never hashes a
//! topic string more than once per frame.
//!
//! For multi-core management nodes, [`ShardedTsDb`] partitions series
//! across independent shards by topic hash and fans a decoded batch out
//! with rayon — each shard only touches its own series, so no locks are
//! needed.

use crate::gateway::SampleFrame;
use crate::storage::TierStats;
use crate::tsdb::{TsDb, TsDbConfig};
use davide_mqtt::{Broker, BrokerError, Client, Message, QoS};
use davide_obs::{fnv1a, frame_trace_id, Counter, Histogram, ObsHub, Stage};
use rayon::prelude::*;

/// Running totals for an ingest pipeline.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames decoded and appended.
    pub frames: u64,
    /// Samples actually stored across all frames.
    pub samples: u64,
    /// Payloads that failed [`SampleFrame::decode`] and were skipped.
    pub malformed: u64,
    /// Samples the store rejected as stale (duplicated or reordered
    /// delivery landing behind the series tail).
    pub stale_dropped: u64,
}

/// A decoded frame still attached to its source topic.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// MQTT topic the frame arrived on (becomes the series key).
    pub topic: String,
    /// The decoded sample frame.
    pub frame: SampleFrame,
    /// Causal trace id ([`frame_trace_id`] over topic + wire header),
    /// linking this frame to its broker-side trace stamps.
    pub trace_id: u64,
}

/// Decode a batch of MQTT messages into frames, counting malformed
/// payloads into `stats`.
pub fn decode_messages(msgs: Vec<Message>, stats: &mut IngestStats) -> Vec<DecodedFrame> {
    let mut out = Vec::with_capacity(msgs.len());
    for m in msgs {
        // The id hashes the payload head, so take it before decode
        // consumes the buffer.
        let trace_id = frame_trace_id(&m.topic, &m.payload);
        match SampleFrame::decode(m.payload) {
            Some(frame) => out.push(DecodedFrame {
                topic: m.topic,
                frame,
                trace_id,
            }),
            None => stats.malformed += 1,
        }
    }
    out
}

/// Ingest-side observability: throughput counters mirroring
/// [`IngestStats`] plus the frame-age histogram (ingest time minus the
/// frame's own `t0` timestamp — the telemetry pipeline's staleness) and
/// the [`Stage::IngestAppend`] trace stamp.
pub struct IngestObs {
    hub: ObsHub,
    frames: Counter,
    samples: Counter,
    malformed: Counter,
    stale: Counter,
    frame_age: Histogram,
    batch_frames: Histogram,
}

impl IngestObs {
    /// Ingest instruments registered in `hub`'s registry.
    pub fn new(hub: &ObsHub) -> Self {
        let r = &hub.registry;
        IngestObs {
            hub: hub.clone(),
            frames: r.counter("ingest_frames_total"),
            samples: r.counter("ingest_samples_total"),
            malformed: r.counter("ingest_malformed_total"),
            stale: r.counter("ingest_stale_dropped_total"),
            frame_age: r.histogram("ingest_frame_age_ns"),
            batch_frames: r.histogram("ingest_batch_frames"),
        }
    }

    /// Record one drained-and-appended batch: one clock read and one
    /// tracer lock for the whole batch (every frame shares the drain
    /// instant), one histogram record per frame for the age
    /// distribution, counters bumped once in aggregate. This is the
    /// shape that keeps the instruments inside the ingest bench's 5 %
    /// overhead budget.
    pub fn on_frames_appended(&self, frames: &[DecodedFrame], stored: u64, offered: u64) {
        let now = self.hub.clock.now_s();
        self.hub
            .tracer
            .stamp_batch(Stage::IngestAppend, now, frames.iter().map(|f| f.trace_id));
        for f in frames {
            self.record_age(now, f.frame.t0_s);
        }
        self.count_appended(frames.len() as u64, stored, offered);
    }

    /// [`IngestObs::on_frames_appended`] for the scratch-decoded ingest
    /// path, where frames never materialise as [`DecodedFrame`]s: the
    /// caller hands over the parallel trace-id and `t0` arrays it
    /// accumulated while appending. Identical instrument updates.
    pub fn on_frames_appended_parts(
        &self,
        trace_ids: &[u64],
        t0s: &[f64],
        stored: u64,
        offered: u64,
    ) {
        let now = self.hub.clock.now_s();
        self.hub
            .tracer
            .stamp_batch(Stage::IngestAppend, now, trace_ids.iter().copied());
        for &t0 in t0s {
            self.record_age(now, t0);
        }
        self.count_appended(trace_ids.len() as u64, stored, offered);
    }

    fn record_age(&self, now: f64, t0_s: f64) {
        let age_s = now - t0_s;
        if age_s >= 0.0 {
            self.frame_age.record((age_s * 1e9).round() as u64);
        }
    }

    fn count_appended(&self, frames: u64, stored: u64, offered: u64) {
        self.frames.add(frames);
        self.samples.add(stored);
        self.stale.add(offered - stored);
    }

    /// Record a drained batch's bookkeeping (batch size + malformed
    /// payloads skipped during decode).
    pub fn on_batch(&self, frames: usize, malformed: u64) {
        self.batch_frames.record(frames as u64);
        self.malformed.add(malformed);
    }
}

impl std::fmt::Debug for IngestObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestObs").finish_non_exhaustive()
    }
}

/// Management-node ingest agent: an MQTT subscription drained
/// frame-by-frame into a [`TsDb`] (or [`ShardedTsDb`]) with one bulk
/// append per publish.
pub struct FrameIngestor {
    client: Client,
    stats: IngestStats,
    obs: Option<IngestObs>,
    // Scratch reused across [`FrameIngestor::drain_into`] calls so the
    // single-store hot path decodes and appends without a per-frame
    // `Vec<f32>` (or any other steady-state) allocation.
    watts_scratch: Vec<f32>,
    ids_scratch: Vec<u64>,
    t0s_scratch: Vec<f64>,
}

impl FrameIngestor {
    /// Connect `name` to `broker` and subscribe to `filters`
    /// (e.g. `davide/+/power/#`).
    pub fn subscribe(broker: &Broker, name: &str, filters: &[&str]) -> Result<Self, BrokerError> {
        let mut client = broker.connect(name.to_string());
        for f in filters {
            client.subscribe(f, QoS::AtMostOnce)?;
        }
        Ok(FrameIngestor {
            client,
            stats: IngestStats::default(),
            obs: None,
            watts_scratch: Vec::new(),
            ids_scratch: Vec::new(),
            t0s_scratch: Vec::new(),
        })
    }

    /// Install (or clear) ingest observability instruments.
    pub fn set_obs(&mut self, obs: Option<IngestObs>) {
        self.obs = obs;
    }

    /// Totals since connect.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Drain every queued message and decode it (malformed payloads are
    /// counted and skipped).
    pub fn drain_frames(&mut self) -> Vec<DecodedFrame> {
        let msgs = self.client.drain();
        let malformed_before = self.stats.malformed;
        let frames = decode_messages(msgs, &mut self.stats);
        if let Some(o) = &self.obs {
            o.on_batch(frames.len(), self.stats.malformed - malformed_before);
        }
        frames
    }

    /// Drain every queued message into `db`: one bulk append per frame.
    /// Returns the number of frames ingested.
    ///
    /// Frames are decoded straight into the ingestor's reusable scratch
    /// with [`SampleFrame::decode_into`] and appended from there, so
    /// the steady state allocates nothing per frame — the decoded
    /// samples never materialise as an owned `Vec<f32>`.
    pub fn drain_into(&mut self, db: &mut TsDb) -> usize {
        let msgs = self.client.drain();
        let malformed_before = self.stats.malformed;
        let mut stored_total = 0u64;
        let mut offered_total = 0u64;
        self.ids_scratch.clear();
        self.t0s_scratch.clear();
        for m in &msgs {
            let trace_id = frame_trace_id(&m.topic, &m.payload);
            match SampleFrame::decode_into(&m.payload, &mut self.watts_scratch) {
                Some((t0_s, dt_s)) => {
                    let id = db.resolve(&m.topic);
                    let stored = db.append_frame_id(id, t0_s, dt_s, &self.watts_scratch);
                    stored_total += stored as u64;
                    offered_total += self.watts_scratch.len() as u64;
                    self.ids_scratch.push(trace_id);
                    self.t0s_scratch.push(t0_s);
                }
                None => self.stats.malformed += 1,
            }
        }
        let frames = self.ids_scratch.len();
        self.stats.samples += stored_total;
        self.stats.stale_dropped += offered_total - stored_total;
        self.stats.frames += frames as u64;
        if frames > 0 {
            db.compact();
        }
        if let Some(o) = &self.obs {
            o.on_batch(frames, self.stats.malformed - malformed_before);
            o.on_frames_appended_parts(
                &self.ids_scratch,
                &self.t0s_scratch,
                stored_total,
                offered_total,
            );
        }
        frames
    }

    /// Drain every queued message into a sharded store, each frame
    /// routed to its owning shard by topic hash. Returns the number of
    /// frames ingested.
    ///
    /// Like [`Self::drain_into`], frames decode straight into the
    /// ingestor's reusable scratch and are appended from there — the
    /// steady state allocates nothing per frame. (Callers that want
    /// the shard-parallel batch form can still pair
    /// [`Self::drain_frames`] with [`ShardedTsDb::ingest_batch`].)
    pub fn drain_into_sharded(&mut self, db: &mut ShardedTsDb) -> usize {
        let msgs = self.client.drain();
        let malformed_before = self.stats.malformed;
        let mut stored_total = 0u64;
        let mut offered_total = 0u64;
        self.ids_scratch.clear();
        self.t0s_scratch.clear();
        for m in &msgs {
            let trace_id = frame_trace_id(&m.topic, &m.payload);
            match SampleFrame::decode_into(&m.payload, &mut self.watts_scratch) {
                Some((t0_s, dt_s)) => {
                    let stored = db.append_frame(&m.topic, t0_s, dt_s, &self.watts_scratch);
                    stored_total += stored as u64;
                    offered_total += self.watts_scratch.len() as u64;
                    self.ids_scratch.push(trace_id);
                    self.t0s_scratch.push(t0_s);
                }
                None => self.stats.malformed += 1,
            }
        }
        let frames = self.ids_scratch.len();
        self.stats.samples += stored_total;
        self.stats.stale_dropped += offered_total - stored_total;
        self.stats.frames += frames as u64;
        if frames > 0 {
            db.compact();
        }
        if let Some(o) = &self.obs {
            o.on_batch(frames, self.stats.malformed - malformed_before);
            o.on_frames_appended_parts(
                &self.ids_scratch,
                &self.t0s_scratch,
                stored_total,
                offered_total,
            );
        }
        frames
    }
}

/// Shard index for a series key: FNV-1a over the bytes, reduced mod
/// `n`. A free function (not a method) so parallel shard workers can
/// evaluate it while the shard array is mutably split.
fn shard_index(key: &str, n: usize) -> usize {
    (fnv1a(key.as_bytes()) % n as u64) as usize
}

/// A [`TsDb`] partitioned into independent shards by topic hash, for
/// rayon fan-out across cores: during [`ShardedTsDb::ingest_batch`]
/// every shard worker scans the shared batch and appends only the
/// frames that hash to it, so shards never contend on a series.
#[derive(Debug)]
pub struct ShardedTsDb {
    shards: Vec<TsDb>,
}

impl ShardedTsDb {
    /// A store with `n_shards` shards (at least 1), each with the given
    /// per-series capacities.
    pub fn new(n_shards: usize, raw_capacity: usize, rollup_capacity: usize) -> Self {
        let n = n_shards.max(1);
        ShardedTsDb {
            shards: (0..n)
                .map(|_| TsDb::with_capacity(raw_capacity, rollup_capacity))
                .collect(),
        }
    }

    /// A sharded store from a full [`TsDbConfig`]. When the tiering
    /// policy names a disk directory, each shard gets its own
    /// `shard-<i>` subdirectory (shards never share segment files), and
    /// any history left there by a previous process is recovered.
    pub fn with_config(n_shards: usize, cfg: TsDbConfig) -> std::io::Result<Self> {
        let n = n_shards.max(1);
        let shards = (0..n)
            .map(|i| {
                let mut shard_cfg = cfg.clone();
                if let Some(t) = &mut shard_cfg.tiering {
                    if let Some(d) = &mut t.disk {
                        d.dir = d.dir.join(format!("shard-{i}"));
                    }
                }
                TsDb::with_config(shard_cfg)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ShardedTsDb { shards })
    }

    /// Run one compaction pass on every shard in parallel — seal
    /// overfull hot rings into compressed blocks and demote over-budget
    /// blocks to disk. Returns `true` if any shard changed. Shards are
    /// independent, so this is a plain rayon fan-out.
    pub fn compact(&mut self) -> bool {
        self.shards
            .par_iter_mut()
            .map(|s| s.compact())
            .reduce(|a, b| a | b)
            .unwrap_or(false)
    }

    /// Aggregated tier occupancy across all shards.
    pub fn tier_stats(&self) -> TierStats {
        let mut st = TierStats::default();
        for s in &self.shards {
            st.merge(&s.tier_stats());
        }
        st
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a series key lives in.
    pub fn shard_of(&self, key: &str) -> usize {
        shard_index(key, self.shards.len())
    }

    /// The shard that owns a key, for read-path delegation.
    pub(crate) fn owning_shard(&self, key: &str) -> &TsDb {
        &self.shards[self.shard_of(key)]
    }

    /// Bulk-append one frame, routed to its owning shard by topic
    /// hash. The borrowed-slice twin of [`Self::ingest_batch`] for
    /// callers that decode into scratch and never materialise owned
    /// frames. Returns the number of samples stored.
    pub fn append_frame(&mut self, topic: &str, t0_s: f64, dt_s: f64, watts: &[f32]) -> usize {
        let n = self.shards.len();
        let shard = &mut self.shards[shard_index(topic, n)];
        let id = shard.resolve(topic);
        shard.append_frame_id(id, t0_s, dt_s, watts)
    }

    /// Ingest a decoded batch: shards run in parallel, each appending
    /// the frames that hash to it (one bulk append per frame). Returns
    /// the number of samples actually stored (stale points rejected by
    /// a shard are not counted).
    pub fn ingest_batch(&mut self, batch: &[DecodedFrame]) -> u64 {
        let n = self.shards.len();
        self.shards
            .par_iter_mut()
            .enumerate()
            .map(|(i, shard)| {
                let mut stored = 0u64;
                for f in batch {
                    if shard_index(&f.topic, n) == i {
                        let id = shard.resolve(&f.topic);
                        stored +=
                            shard.append_frame_id(id, f.frame.t0_s, f.frame.dt_s, &f.frame.watts)
                                as u64;
                    }
                }
                stored
            })
            .sum()
    }

    /// Flush rollup accumulators on every shard.
    pub fn flush(&mut self) {
        for s in &mut self.shards {
            s.flush();
        }
    }

    /// Known series names across all shards, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut k: Vec<String> = self.shards.iter().flat_map(|s| s.keys()).collect();
        k.sort();
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::{power_topic, EnergyGateway};
    use crate::read::SeriesRead;
    use crate::tsdb::Resolution;
    use crate::waveform::WorkloadWaveform;
    use bytes::Bytes;
    use davide_core::rng::Rng;

    fn publish_job(broker: &Broker, node_id: u32, seed: u64) -> usize {
        let mut eg = EnergyGateway::connect(broker, node_id, seed);
        let mut gen = Rng::seed_from(seed ^ 0x5eed);
        let truth = WorkloadWaveform::hpc_job(1700.0, 0.3).render(800_000.0, 0.1, &mut gen);
        eg.acquire_and_publish("node", &truth, 10.0)
    }

    #[test]
    fn drains_frames_into_tsdb_bulk() {
        let broker = Broker::default();
        let mut ing = FrameIngestor::subscribe(&broker, "mgmt", &["davide/+/power/#"]).unwrap();
        let frames = publish_job(&broker, 3, 7);
        let mut db = TsDb::new();
        assert_eq!(ing.drain_into(&mut db), frames);
        let stats = ing.stats();
        assert_eq!(stats.frames, frames as u64);
        assert_eq!(stats.samples, 5000, "0.1 s at 50 kS/s");
        assert_eq!(stats.malformed, 0);
        let topic = power_topic(3, "node");
        let id = db.lookup(&topic).unwrap();
        assert_eq!(db.count_id(id), 5000);
        let mean = db.mean_id(id, Resolution::Raw, 0.0, 1e9).unwrap();
        assert!(
            mean > 500.0 && mean < 4000.0,
            "plausible node power: {mean}"
        );
        // Nothing left queued: a second drain is a no-op.
        assert_eq!(ing.drain_into(&mut db), 0);
    }

    #[test]
    fn malformed_payloads_counted_and_skipped() {
        let broker = Broker::default();
        let mut ing = FrameIngestor::subscribe(&broker, "mgmt", &["t/#"]).unwrap();
        let pub_client = broker.connect("p");
        pub_client
            .publish(
                "t/bad",
                Bytes::from_static(b"not a frame"),
                QoS::AtMostOnce,
                false,
            )
            .unwrap();
        let f = SampleFrame {
            t0_s: 0.0,
            dt_s: 0.01,
            watts: vec![100.0; 10],
        };
        pub_client
            .publish("t/good", f.encode(), QoS::AtMostOnce, false)
            .unwrap();
        let mut db = TsDb::new();
        assert_eq!(ing.drain_into(&mut db), 1);
        assert_eq!(ing.stats().malformed, 1);
        assert_eq!(db.lookup("t/good").map(|id| db.count_id(id)), Some(10));
        assert_eq!(db.lookup("t/bad"), None);
    }

    #[test]
    fn duplicated_and_reordered_frames_counted_as_stale() {
        let broker = Broker::default();
        let mut ing = FrameIngestor::subscribe(&broker, "mgmt", &["t/#"]).unwrap();
        let pub_client = broker.connect("p");
        let newer = SampleFrame {
            t0_s: 10.0,
            dt_s: 1.0,
            watts: vec![100.0; 5],
        };
        let older = SampleFrame {
            t0_s: 0.0,
            dt_s: 1.0,
            watts: vec![50.0; 5],
        };
        // Deliver out of order: newer first, then the delayed older
        // frame, then an exact duplicate of the newer one.
        for f in [&newer, &older, &newer] {
            pub_client
                .publish("t/power", f.encode(), QoS::AtMostOnce, false)
                .unwrap();
        }
        let mut db = TsDb::new();
        assert_eq!(ing.drain_into(&mut db), 3);
        let stats = ing.stats();
        assert_eq!(stats.frames, 3);
        // All 5 samples of the first frame land; the older frame is
        // entirely stale; the duplicate re-appends only its final
        // boundary sample (t == series tail).
        assert_eq!(stats.samples, 6); // 5 from the first, 1 boundary
        assert_eq!(stats.stale_dropped, 9); // all 5 older + 4 duplicate
        let id = db.lookup("t/power").unwrap();
        assert_eq!(db.count_id(id), 6);
    }

    #[test]
    fn sharded_matches_unsharded() {
        let broker = Broker::default();
        let mut ing_flat =
            FrameIngestor::subscribe(&broker, "flat", &["davide/+/power/#"]).unwrap();
        let mut ing_shard =
            FrameIngestor::subscribe(&broker, "shard", &["davide/+/power/#"]).unwrap();
        for node in 0..6 {
            publish_job(&broker, node, 40 + node as u64);
        }
        let mut flat = TsDb::new();
        let mut sharded = ShardedTsDb::new(4, 100_000, 100_000);
        let n1 = ing_flat.drain_into(&mut flat);
        let n2 = ing_shard.drain_into_sharded(&mut sharded);
        assert_eq!(n1, n2);
        assert_eq!(ing_flat.stats().samples, ing_shard.stats().samples);
        flat.flush();
        sharded.flush();
        assert_eq!(flat.keys(), sharded.keys());
        assert_eq!(sharded.keys().len(), 6);
        for key in flat.keys() {
            let id = flat.lookup(&key).unwrap();
            assert_eq!(flat.count_id(id), sharded.series_watermark(&key));
            for res in [Resolution::Raw, Resolution::Second] {
                assert_eq!(
                    flat.query_id(id, res, 0.0, 1e9),
                    sharded.series_range(&key, res, 0.0, 1e9).points,
                    "{key} at {res:?}"
                );
            }
            let (ef, es) = (
                flat.energy_j_id(id, 0.0, 1e9),
                sharded.series_energy_j(&key, 0.0, 1e9).0,
            );
            assert!((ef - es).abs() < 1e-12);
        }
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let db = ShardedTsDb::new(3, 10, 10);
        for node in 0..45 {
            for ch in crate::gateway::CHANNELS {
                let t = power_topic(node, ch);
                let s = db.shard_of(&t);
                assert!(s < 3);
                assert_eq!(s, db.shard_of(&t), "deterministic");
            }
        }
    }
}
