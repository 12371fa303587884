//! Frame-granular telemetry ingest: EG → MQTT → TsDb.
//!
//! The management node subscribes to every gateway's power topics and
//! records the stream into the time-series store (Fig. 4). At full
//! scale that is 45 nodes × 8 channels × 50 kS/s — per-sample ingestion
//! (decode a sample, hash the topic, append one point) does not keep
//! up. This module keeps *frames* intact end to end: each MQTT publish
//! is decoded once and becomes exactly one [`TsDb::append_frame_id`]
//! bulk append, with topic → [`SeriesId`](crate::tsdb::SeriesId)
//! resolution cached per store so the steady state never hashes a
//! topic string more than once per frame.
//!
//! Every consumer of the frame stream — the store drains here, the
//! control plane's live view and the federator's demand ledger —
//! decodes through one loop, [`FrameIngestor::drain_with`], which hands
//! each frame over as a [`FrameView`] borrowed from reusable scratch.
//!
//! [`ShardedTsDb`] partitions series across independent shards by topic
//! hash, so each frame touches one shard and compaction is a rayon-shaped
//! loop over the shards (sequential under the vendored shim).

use crate::gateway::SampleFrame;
use crate::storage::TierStats;
use crate::tsdb::{TsDb, TsDbConfig};
use davide_mqtt::{Broker, BrokerError, Client, Message, QoS};
use davide_obs::{fnv1a, frame_trace_id, Counter, Histogram, ObsHub, Stage};
use rayon::prelude::*;

/// Running totals for an ingest pipeline.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames decoded and taken by the consumer.
    pub frames: u64,
    /// Samples actually stored across all frames.
    pub samples: u64,
    /// Payloads that failed to decode as a [`SampleFrame`] and were
    /// skipped.
    pub malformed: u64,
    /// Samples the store rejected as stale (duplicated or reordered
    /// delivery landing behind the series tail).
    pub stale_dropped: u64,
}

/// One decoded frame, borrowed from the ingestor's scratch for the
/// duration of a [`FrameIngestor::drain_with`] callback.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    /// MQTT topic the frame arrived on (the series key).
    pub topic: &'a str,
    /// The frame's wire payload, from which [`trace_id`](Self::trace_id)
    /// is hashed on demand.
    pub payload: &'a [u8],
    /// PTP timestamp of the first sample, seconds.
    pub t0_s: f64,
    /// Sample spacing, seconds.
    pub dt_s: f64,
    /// Power samples, watts.
    pub watts: &'a [f32],
}

impl FrameView<'_> {
    /// Causal trace id ([`frame_trace_id`] over topic + wire header),
    /// linking this frame to its broker-side trace stamps. Hashed on
    /// each call, so a consumer that does not trace pays nothing.
    pub fn trace_id(&self) -> u64 {
        frame_trace_id(self.topic, self.payload)
    }

    /// Mean power of the frame; 0 for an empty one.
    pub fn mean_w(&self) -> f64 {
        if self.watts.is_empty() {
            return 0.0;
        }
        self.watts.iter().map(|&w| w as f64).sum::<f64>() / self.watts.len() as f64
    }
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
    frames_per_drain: Histogram,
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
            frames_per_drain: r.histogram("ingest_frames_per_drain"),
        }
    }

    /// Record one drain from the parallel trace-id and `t0` arrays of
    /// the frames it took: one clock read and one tracer lock for the
    /// whole drain (every frame shares the drain instant), one batched
    /// histogram record for the age distribution, counters bumped once
    /// in aggregate. This is the shape that keeps the instruments
    /// inside the ingest bench's 5 % overhead budget.
    fn on_drain(&self, trace_ids: &[u64], t0s: &[f64], malformed: u64, stored: u64, offered: u64) {
        self.frames_per_drain.record(trace_ids.len() as u64);
        self.malformed.add(malformed);
        let now = self.hub.clock.now_s();
        self.hub
            .tracer
            .stamp_batch(Stage::IngestAppend, now, trace_ids.iter().copied());
        self.frame_age.record_all(t0s.iter().filter_map(|&t0| {
            let age_s = now - t0;
            (age_s >= 0.0).then(|| (age_s * 1e9).round() as u64)
        }));
        self.frames.add(trace_ids.len() as u64);
        self.samples.add(stored);
        self.stale.add(offered - stored);
    }
}

impl std::fmt::Debug for IngestObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestObs").finish_non_exhaustive()
    }
}

/// Management-node ingest agent: an MQTT subscription drained
/// frame-by-frame into a [`TsDb`], a [`ShardedTsDb`] or any other
/// consumer ([`FrameIngestor::drain_with`]).
pub struct FrameIngestor {
    client: Client,
    stats: IngestStats,
    obs: Option<IngestObs>,
    // Scratch reused across drains so the hot path decodes without a
    // per-frame `Vec<f32>` (or any other steady-state) allocation.
    inbox: Vec<Message>,
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
            inbox: Vec::new(),
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

    /// Drain every queued message through `sink` — the one decode loop
    /// every consumer of the frame stream shares. The mailbox empties
    /// into a reused buffer under one lock hold, and each payload
    /// decodes into the ingestor's reusable scratch, so the steady state
    /// allocates nothing per drain or frame; each frame reaches `sink`
    /// as a [`FrameView`]. The sink returns `Some(stored)`, how many of
    /// the frame's samples it stored, or `None` for a frame it does not
    /// route (a topic it does not serve), which then counts nowhere.
    ///
    /// The loop alone keeps [`IngestStats`] and feeds [`IngestObs`]:
    /// malformed payloads, frames taken, samples stored, and samples
    /// the sink dropped as stale. Trace ids are hashed for the
    /// [`IngestObs`] stamps only when one is installed. Returns the
    /// number of frames taken.
    pub fn drain_with(&mut self, mut sink: impl FnMut(FrameView<'_>) -> Option<usize>) -> usize {
        self.client.drain_into(&mut self.inbox);
        let malformed_before = self.stats.malformed;
        let mut stored_total = 0u64;
        let mut offered_total = 0u64;
        let mut frames = 0;
        self.ids_scratch.clear();
        self.t0s_scratch.clear();
        for m in &self.inbox {
            let Some((t0_s, dt_s)) = SampleFrame::decode_into(&m.payload, &mut self.watts_scratch)
            else {
                self.stats.malformed += 1;
                continue;
            };
            let view = FrameView {
                topic: &m.topic,
                payload: &m.payload,
                t0_s,
                dt_s,
                watts: &self.watts_scratch,
            };
            let Some(stored) = sink(view) else {
                continue;
            };
            frames += 1;
            stored_total += stored as u64;
            offered_total += self.watts_scratch.len() as u64;
            if self.obs.is_some() {
                self.ids_scratch.push(view.trace_id());
                self.t0s_scratch.push(t0_s);
            }
        }
        // Release the payloads now, not at the next drain.
        self.inbox.clear();
        self.stats.frames += frames as u64;
        self.stats.samples += stored_total;
        self.stats.stale_dropped += offered_total - stored_total;
        if let Some(o) = &self.obs {
            o.on_drain(
                &self.ids_scratch,
                &self.t0s_scratch,
                self.stats.malformed - malformed_before,
                stored_total,
                offered_total,
            );
        }
        frames
    }

    /// Drain every queued message into `db`, one bulk append per frame,
    /// then run one compaction pass. Returns the number of frames
    /// ingested.
    pub fn drain_into(&mut self, db: &mut TsDb) -> usize {
        let frames = self.drain_with(|f| {
            let id = db.resolve(f.topic);
            Some(db.append_frame_id(id, f.t0_s, f.dt_s, f.watts))
        });
        if frames > 0 {
            db.compact();
        }
        frames
    }

    /// [`Self::drain_into`] for a sharded store: each frame is routed
    /// to its owning shard by topic hash.
    pub fn drain_into_sharded(&mut self, db: &mut ShardedTsDb) -> usize {
        let frames = self.drain_with(|f| Some(db.append_frame(f.topic, f.t0_s, f.dt_s, f.watts)));
        if frames > 0 {
            db.compact();
        }
        frames
    }
}

/// A [`TsDb`] partitioned into independent shards by topic hash: every
/// series lives in exactly one shard, so shards never contend on a
/// series and each shard compacts on its own.
#[derive(Debug)]
pub struct ShardedTsDb {
    shards: Vec<TsDb>,
}

impl ShardedTsDb {
    /// A store with `n_shards` shards (at least 1), each with the given
    /// per-series raw capacity. The third argument is ignored: rollups
    /// are computed from the raw tiers at query time.
    pub fn new(n_shards: usize, raw_capacity: usize, _rollup_capacity: usize) -> Self {
        let n = n_shards.max(1);
        ShardedTsDb {
            shards: (0..n).map(|_| TsDb::with_capacity(raw_capacity)).collect(),
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

    /// Run one compaction pass on every shard — seal overfull hot rings
    /// into compressed blocks and demote over-budget blocks to disk.
    /// Returns `true` if any shard changed. Shards are independent, so
    /// this is written as a rayon fan-out; the vendored shim runs it
    /// sequentially.
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

    /// The shard a series key lives in: FNV-1a over the key, reduced
    /// mod the shard count.
    pub fn shard_of(&self, key: &str) -> usize {
        (fnv1a(key.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// The shard that owns a key, for read-path delegation.
    pub(crate) fn owning_shard(&self, key: &str) -> &TsDb {
        &self.shards[self.shard_of(key)]
    }

    /// Bulk-append one frame, routed to its owning shard by topic
    /// hash. Returns the number of samples stored.
    pub fn append_frame(&mut self, topic: &str, t0_s: f64, dt_s: f64, watts: &[f32]) -> usize {
        let i = self.shard_of(topic);
        let shard = &mut self.shards[i];
        let id = shard.resolve(topic);
        shard.append_frame_id(id, t0_s, dt_s, watts)
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
    fn non_finite_frame_timestamps_are_malformed() {
        // A NaN `t0` used to decode and become the series tail, after
        // which the stale frame at t = 0 was stored in full.
        let broker = Broker::default();
        let mut ing = FrameIngestor::subscribe(&broker, "mgmt", &["t/#"]).unwrap();
        let pub_client = broker.connect("p");
        let frames = [
            (10.0, 1.0, 5),
            (f64::NAN, 1.0, 2),
            (0.0, 1.0, 5),
            (f64::INFINITY, 1.0, 2),
            (20.0, f64::NAN, 2),
        ];
        for (t0_s, dt_s, n) in frames {
            let f = SampleFrame {
                t0_s,
                dt_s,
                watts: vec![100.0; n],
            };
            pub_client
                .publish("t/power", f.encode(), QoS::AtMostOnce, false)
                .unwrap();
        }
        let mut db = TsDb::new();
        assert_eq!(ing.drain_into(&mut db), 2);
        let stats = ing.stats();
        assert_eq!(stats.malformed, 3);
        assert_eq!((stats.samples, stats.stale_dropped), (5, 5));
        let id = db.lookup("t/power").unwrap();
        assert_eq!(db.count_id(id), 5);
        assert_eq!(db.query_id(id, Resolution::Raw, 0.0, 100.0).len(), 5);
    }

    #[test]
    fn unrouted_frames_count_nowhere() {
        let broker = Broker::default();
        let mut ing = FrameIngestor::subscribe(&broker, "mgmt", &["t/#"]).unwrap();
        let pub_client = broker.connect("p");
        let f = SampleFrame {
            t0_s: 0.0,
            dt_s: 1.0,
            watts: vec![1700.0, 1710.5, 1695.25],
        };
        for topic in ["t/a", "t/b"] {
            pub_client
                .publish(topic, f.encode(), QoS::AtMostOnce, false)
                .unwrap();
        }
        let mut means = Vec::new();
        let taken = ing.drain_with(|v| {
            means.push(v.mean_w());
            (v.topic == "t/a").then_some(v.watts.len())
        });
        assert_eq!(taken, 1);
        assert_eq!(means.len(), 2, "the sink sees every decoded frame");
        assert!((means[0] - 1701.9166).abs() < 1e-3);
        let stats = ing.stats();
        assert_eq!(
            (stats.frames, stats.samples, stats.stale_dropped),
            (1, 3, 0)
        );
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
        // A malformed payload and a duplicated frame: both drains must
        // count them the same way.
        let p = broker.connect("p");
        let garbage = Bytes::from_static(b"not a frame");
        p.publish(&power_topic(0, "node"), garbage, QoS::AtMostOnce, false)
            .unwrap();
        let dup = SampleFrame {
            t0_s: 1e3,
            dt_s: 1.0,
            watts: vec![900.0; 4],
        }
        .encode();
        for _ in 0..2 {
            p.publish(&power_topic(1, "node"), dup.clone(), QoS::AtMostOnce, false)
                .unwrap();
        }
        let mut flat = TsDb::new();
        let mut sharded = ShardedTsDb::new(4, 100_000, 100_000);
        let n1 = ing_flat.drain_into(&mut flat);
        let n2 = ing_shard.drain_into_sharded(&mut sharded);
        assert_eq!(n1, n2);
        assert_eq!(ing_flat.stats(), ing_shard.stats());
        assert_eq!(ing_flat.stats().malformed, 1);
        assert_eq!(
            ing_flat.stats().stale_dropped,
            3,
            "the duplicate re-appends only its boundary sample"
        );
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
