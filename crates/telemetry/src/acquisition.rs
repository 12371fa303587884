//! Cluster-wide full-rate acquisition: 45 gateways × 8 channels into
//! the TsDb.
//!
//! §III-A1 gives the design rate: every node's energy gateway samples
//! its power backplane at 800 kS/s per channel across the 8-way mux and
//! hardware-decimates ×16 to 50 kS/s before publishing. At the
//! machine's scale that is 45 × 8 × 800 kS/s ≈ **288 M front-end
//! samples per second** flowing acquisition → decimation → MQTT →
//! ingest. This module drives that path end to end:
//!
//! * each gateway is a `GatewayShard`: per-gateway deterministic RNG
//!   stream (forked from the config seed in node order), a per-channel
//!   periodic waveform template, a µs-scale PTP-residual clock offset,
//!   and reusable scratch buffers so the steady state performs **zero
//!   DSP allocations**;
//! * the per-round compute fan-out is written against rayon's API
//!   (`par_iter_mut` over shards; the vendored shim runs it
//!   sequentially) and only fills per-shard buffers; publishing then
//!   happens **sequentially in gateway order** via the broker's batched
//!   path ([`Client::publish_batch`]). Compute order therefore cannot
//!   leak into broker/TsDb state, so a real thread pool would leave the
//!   run digest unchanged;
//! * frames land through the existing [`FrameIngestor`] →
//!   [`ShardedTsDb`] pipeline, one bulk append per frame.
//!
//! Two DSP modes share the driver so experiment E25 can measure them
//! head to head on identical workloads: [`DspMode::Scalar`] is the
//! seed path (per-sample `f64` [`SarAdc::digitise`], batch
//! [`boxcar_decimate`](crate::decimation::boxcar_decimate), an owned
//! `Vec` per stage, one broker lock per frame); [`DspMode::Blocked`]
//! is the full-rate path ([`crate::kernels`] blocked `f32` kernels
//! over scratch, frames encoded from borrowed slices, one broker lock
//! per gateway round).

use crate::adc::SarAdc;
use crate::gateway::{power_topic, SampleFrame, CHANNELS};
use crate::ingest::{FrameIngestor, ShardedTsDb};
use crate::kernels::{boxcar_block, AdcKernel};
use crate::read::SeriesRead;
use crate::storage::TieringConfig;
use crate::tsdb::TsDbConfig;
use bytes::Bytes;
use davide_core::power::PowerTrace;
use davide_core::rng::Rng;
use davide_core::time::SimTime;
use davide_mqtt::{Broker, Client, QoS};
use davide_obs::{Counter, Fnv1a, Histogram, ObsHub};
use rayon::prelude::*;
use std::time::Instant;

/// True-time origin of a run, seconds: an arbitrary positive epoch so
/// frame timestamps stay positive even for gateways whose PTP residual
/// is negative on the very first block.
pub const EPOCH_S: f64 = 10.0;

/// Which DSP implementation the rig drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DspMode {
    /// The retained reference path: per-sample `f64` quantisation,
    /// batch `f64` boxcar, per-stage owned buffers, per-frame publish.
    Scalar,
    /// The full-rate path: blocked `f32` kernels over reusable scratch,
    /// borrowed-slice frame encode, per-gateway batched publish.
    Blocked,
}

/// Scale and seeding for an acquisition run.
#[derive(Debug, Clone)]
pub struct AcquisitionConfig {
    /// Gateways (one per node; the machine has 45).
    pub nodes: u32,
    /// Muxed channels per gateway (the EG scans 8).
    pub channels: usize,
    /// Simulated seconds of acquisition.
    pub duration_s: f64,
    /// The converter model (sets the 800 kS/s per-channel rate).
    pub adc: SarAdc,
    /// Hardware decimation factor (×16 → 50 kS/s).
    pub decim_m: usize,
    /// Raw samples per channel per round; one round produces one frame
    /// per channel. 8000 raw = 10 ms = one 500-sample frame.
    pub block_raw: usize,
    /// Master seed; per-gateway streams are forked from it.
    pub seed: u64,
    /// TsDb shard count on the ingest side.
    pub shards: usize,
    /// Per-series raw ring capacity on the ingest side.
    pub raw_capacity: usize,
    /// Tiered-storage policy for the ingest-side store; `None` keeps
    /// the E25 seed behaviour (hot rings only, oldest points dropped).
    pub tiering: Option<TieringConfig>,
}

impl AcquisitionConfig {
    /// The paper's design point: 45 nodes × 8 channels × 800 kS/s for
    /// one simulated second ≈ 288 M raw samples.
    pub fn full_rate() -> Self {
        AcquisitionConfig {
            nodes: 45,
            channels: CHANNELS.len(),
            duration_s: 1.0,
            adc: SarAdc::am335x_power_channel(),
            decim_m: 16,
            block_raw: 8_000,
            seed: 0x00DA_71DE,
            shards: 8,
            // 4096 × 360 series × 12 B ≈ 17 MB of hot rings: the most
            // recent ~80 ms per series. Larger rings hold more history
            // but push the steady-state append working set out of
            // cache — at 16 K samples/series the ingest stage slows
            // measurably and its round-to-round variance triples.
            raw_capacity: 4_096,
            tiering: None,
        }
    }

    /// A seconds-scale slice of the same shape for smoke tests and CI:
    /// 6 nodes × 8 channels × 50 ms ≈ 2.4 M raw samples.
    pub fn smoke() -> Self {
        AcquisitionConfig {
            nodes: 6,
            duration_s: 0.05,
            ..Self::full_rate()
        }
    }

    /// Acquisition rounds in the run (one frame per channel per round).
    pub fn rounds(&self) -> usize {
        let block_s = self.block_raw as f64 / self.adc.sample_rate;
        (self.duration_s / block_s).round() as usize
    }

    /// Decimated samples per frame.
    pub fn frame_len(&self) -> usize {
        self.block_raw / self.decim_m
    }

    /// Total raw front-end samples the run pushes through the DSP.
    pub fn raw_samples(&self) -> u64 {
        self.nodes as u64 * self.channels as u64 * self.block_raw as u64 * self.rounds() as u64
    }
}

/// One gateway's state: identity, deterministic RNG stream, waveform
/// templates, clock offset, and all scratch the hot loop reuses.
struct GatewayShard {
    /// `davide/nodeNN/power/<channel>`, one per channel.
    topics: Vec<String>,
    /// Per-channel periodic raw waveform, one block long (`f32` for the
    /// blocked kernels, `f64` for the scalar reference path — same
    /// values, wire-precision vs model-precision).
    templates_f32: Vec<Vec<f32>>,
    templates_f64: Vec<Vec<f64>>,
    /// Residual PTP offset of this gateway's clock, seconds (µs-scale).
    clock_offset_s: f64,
    /// This gateway's private stream; advanced only by its own shard,
    /// so results cannot depend on cross-gateway execution order.
    rng: Rng,
    /// Raw-block scratch (template + per-round wobble).
    raw: Vec<f32>,
    /// Digitised-block scratch.
    dig: Vec<f32>,
    /// Decimated-frame scratch.
    dec: Vec<f32>,
    /// Frames rendered this round, in channel order, awaiting the
    /// sequential publish phase.
    batch: Vec<(String, Bytes)>,
}

/// Nominal power and tone frequency for a channel index: the node rail
/// plus CPU/GPU/aux component rails, each with a distinct ripple tone
/// so channels are distinguishable in the store.
fn channel_profile(ch: usize) -> (f64, f64) {
    match ch {
        0 => (1700.0, 50.0), // node
        1 | 2 => (300.0, 120.0),
        3..=6 => (350.0, 90.0 + 10.0 * ch as f64),
        _ => (100.0, 200.0),
    }
}

impl GatewayShard {
    fn new(node_id: u32, cfg: &AcquisitionConfig, rng: Rng) -> Self {
        let mut rng = rng;
        let clock_offset_s = rng.normal(0.0, 1e-6);
        let mut templates_f64 = Vec::with_capacity(cfg.channels);
        for ch in 0..cfg.channels {
            let (base, tone_hz) = channel_profile(ch);
            let dt = 1.0 / self_rate(cfg);
            let tpl: Vec<f64> = (0..cfg.block_raw)
                .map(|i| {
                    let t = i as f64 * dt;
                    base + 0.05 * base * (2.0 * std::f64::consts::PI * tone_hz * t).sin()
                        + rng.normal(0.0, 0.01 * base)
                })
                .collect();
            templates_f64.push(tpl);
        }
        let templates_f32 = templates_f64
            .iter()
            .map(|t| t.iter().map(|&v| v as f32).collect())
            .collect();
        GatewayShard {
            topics: (0..cfg.channels)
                .map(|ch| power_topic(node_id, CHANNELS[ch % CHANNELS.len()]))
                .collect(),
            templates_f32,
            templates_f64,
            clock_offset_s,
            rng,
            raw: Vec::with_capacity(cfg.block_raw),
            dig: Vec::with_capacity(cfg.block_raw),
            dec: Vec::with_capacity(cfg.frame_len()),
            batch: Vec::with_capacity(cfg.channels),
        }
    }

    /// Frame timestamp for `(round, channel)`: block start on the true
    /// timeline (which begins at [`EPOCH_S`], keeping stamps positive
    /// even under a negative PTP residual), plus this gateway's PTP
    /// residual, plus the mux scan skew of the channel.
    fn t0_s(&self, cfg: &AcquisitionConfig, round: usize, ch: usize) -> f64 {
        let block_s = cfg.block_raw as f64 / cfg.adc.sample_rate;
        EPOCH_S + round as f64 * block_s + self.clock_offset_s + ch as f64 / cfg.adc.sample_rate
    }

    /// Render one round through the blocked kernels into `self.batch`.
    /// Zero allocations besides the outgoing topic strings and wire
    /// payloads (which transfer ownership to the broker).
    fn render_round_blocked(&mut self, cfg: &AcquisitionConfig, kernel: &AdcKernel, round: usize) {
        let dt_frame = cfg.decim_m as f64 / cfg.adc.sample_rate;
        // One slow power-level wobble per round — the gateway's own
        // stream, so the value is independent of shard execution order.
        let wobble = self.rng.normal(0.0, 3.0) as f32;
        self.batch.clear();
        for ch in 0..cfg.channels {
            let tpl = &self.templates_f32[ch];
            self.raw.clear();
            self.raw.extend(tpl.iter().map(|&v| v + wobble));
            kernel.digitise_block(&self.raw, &mut self.dig);
            boxcar_block(&self.dig, cfg.decim_m, &mut self.dec);
            let payload = SampleFrame::encode_parts(self.t0_s(cfg, round, ch), dt_frame, &self.dec);
            self.batch.push((self.topics[ch].clone(), payload));
        }
    }

    /// Render one round through the retained scalar reference path —
    /// the seed pipeline E25 baselines against: `f64` per-sample
    /// quantisation, batch boxcar, an owned allocation per stage.
    fn render_round_scalar(&mut self, cfg: &AcquisitionConfig, round: usize) {
        let dt_raw = 1.0 / cfg.adc.sample_rate;
        let dt_frame = cfg.decim_m as f64 / cfg.adc.sample_rate;
        let wobble = self.rng.normal(0.0, 3.0);
        self.batch.clear();
        for ch in 0..cfg.channels {
            let t0 = self.t0_s(cfg, round, ch);
            let analog = PowerTrace::new(
                SimTime::from_secs_f64(t0),
                dt_raw,
                self.templates_f64[ch].iter().map(|&v| v + wobble).collect(),
            );
            let dig = cfg.adc.digitise(&analog);
            let dec = crate::decimation::boxcar_decimate(&dig, cfg.decim_m);
            let frame = SampleFrame {
                t0_s: t0,
                dt_s: dt_frame,
                watts: dec.samples.iter().map(|&w| w as f32).collect(),
            };
            self.batch.push((self.topics[ch].clone(), frame.encode()));
        }
    }
}

/// Per-stage instruments for the acquisition loop, registered in an
/// [`ObsHub`]: one histogram record per round per stage plus aggregate
/// throughput counters.
struct AcqObs {
    compute_ns: Histogram,
    publish_ns: Histogram,
    ingest_ns: Histogram,
    raw_samples: Counter,
    frames: Counter,
}

impl AcqObs {
    fn new(hub: &ObsHub) -> Self {
        let r = &hub.registry;
        AcqObs {
            compute_ns: r.histogram("acq_round_compute_ns"),
            publish_ns: r.histogram("acq_round_publish_ns"),
            ingest_ns: r.histogram("acq_round_ingest_ns"),
            raw_samples: r.counter("acq_raw_samples_total"),
            frames: r.counter("acq_frames_total"),
        }
    }
}

/// What one acquisition run did and how fast each stage went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcquisitionReport {
    /// Raw front-end samples pushed through the DSP.
    pub raw_samples: u64,
    /// Decimated samples offered to the store.
    pub decimated_samples: u64,
    /// Frames published.
    pub frames: u64,
    /// Samples the store actually absorbed.
    pub stored_samples: u64,
    /// Wall time in synth + DSP + encode across all rounds, ns.
    pub compute_ns: u64,
    /// Wall time in MQTT publish across all rounds, ns.
    pub publish_ns: u64,
    /// Wall time draining frames into the TsDb across all rounds, ns.
    pub ingest_ns: u64,
    /// Total wall time of the run, seconds.
    pub elapsed_s: f64,
    /// End-to-end raw throughput, samples/s.
    pub raw_samples_per_s: f64,
}

/// A complete acquisition bench rig: broker, gateways, ingestor, store.
pub struct AcquisitionRig {
    cfg: AcquisitionConfig,
    mode: DspMode,
    kernel: AdcKernel,
    shards: Vec<GatewayShard>,
    publisher: Client,
    ingestor: FrameIngestor,
    db: ShardedTsDb,
    obs: Option<AcqObs>,
    /// Rounds completed across every [`AcquisitionRig::run`] call so
    /// far. Repeated runs continue the acquisition timeline instead of
    /// restarting it — frame timestamps keep advancing, so an N×
    /// replay (experiment E26) is N back-to-back `run()` calls with no
    /// stale-drop artefacts.
    rounds_done: usize,
}

fn self_rate(cfg: &AcquisitionConfig) -> f64 {
    cfg.adc.sample_rate
}

impl AcquisitionRig {
    /// Build a rig: connect the broker, fork one RNG stream per gateway
    /// (in node order, so streams are independent of any execution
    /// order), precompute waveform templates, subscribe the ingestor.
    pub fn new(cfg: AcquisitionConfig, mode: DspMode) -> Self {
        assert_eq!(
            cfg.block_raw % cfg.decim_m,
            0,
            "blocks must hold whole decimation windows"
        );
        let broker = Broker::default();
        let mut master = Rng::seed_from(cfg.seed);
        let shards: Vec<GatewayShard> = (0..cfg.nodes)
            .map(|id| GatewayShard::new(id, &cfg, master.fork()))
            .collect();
        let ingestor = FrameIngestor::subscribe(&broker, "acq-mgmt", &["davide/+/power/#"])
            .expect("valid power filter");
        let db = ShardedTsDb::with_config(
            cfg.shards,
            TsDbConfig {
                raw_capacity: cfg.raw_capacity,
                tiering: cfg.tiering.clone(),
                ..TsDbConfig::default()
            },
        )
        .expect("ingest store construction");
        let kernel = AdcKernel::new(&cfg.adc);
        let publisher = broker.connect("acq-fanin");
        AcquisitionRig {
            cfg,
            mode,
            kernel,
            shards,
            publisher,
            ingestor,
            db,
            obs: None,
            rounds_done: 0,
        }
    }

    /// Register per-stage instruments in `hub` (see `acq_round_*` and
    /// `acq_*_total` metric names).
    pub fn set_obs(&mut self, hub: &ObsHub) {
        self.obs = Some(AcqObs::new(hub));
    }

    /// The run's configuration.
    pub fn config(&self) -> &AcquisitionConfig {
        &self.cfg
    }

    /// The ingest-side store (for queries after a run).
    pub fn db(&self) -> &ShardedTsDb {
        &self.db
    }

    /// Mutable store access (e.g. a final [`ShardedTsDb::compact`]
    /// after the last run, before reading tier stats).
    pub fn db_mut(&mut self) -> &mut ShardedTsDb {
        &mut self.db
    }

    /// Drive the full run: every round renders one frame per channel on
    /// every gateway, publishes them in gateway order, and drains the
    /// broker into the store.
    pub fn run(&mut self) -> AcquisitionReport {
        let rounds = self.cfg.rounds();
        let round_base = self.rounds_done;
        let mut compute_ns = 0u64;
        let mut publish_ns = 0u64;
        let mut ingest_ns = 0u64;
        let t_run = Instant::now();
        for round in round_base..round_base + rounds {
            // Compute phase: rayon-shaped fan-out over gateways
            // (sequential under the vendored shim). Each shard touches
            // only its own RNG and scratch; nothing shared is written.
            let t = Instant::now();
            let (cfg, kernel, mode) = (&self.cfg, &self.kernel, self.mode);
            self.shards.par_iter_mut().for_each(|s| match mode {
                DspMode::Blocked => s.render_round_blocked(cfg, kernel, round),
                DspMode::Scalar => s.render_round_scalar(cfg, round),
            });
            let dt = t.elapsed().as_nanos() as u64;
            compute_ns += dt;
            if let Some(o) = &self.obs {
                o.compute_ns.record(dt);
            }

            // Publish phase: sequential, in gateway order — the only
            // phase that touches shared state, so delivery order (and
            // every digest downstream) is identical no matter how the
            // compute phase was scheduled. Blocked mode takes the
            // broker's batched path (one lock per gateway); scalar
            // mode pays the seed path's one lock per frame.
            let t = Instant::now();
            for s in &self.shards {
                match self.mode {
                    DspMode::Blocked => {
                        self.publisher
                            .publish_batch(&s.batch)
                            .expect("valid power topics");
                    }
                    DspMode::Scalar => {
                        for (topic, payload) in &s.batch {
                            self.publisher
                                .publish(topic, payload.clone(), QoS::AtMostOnce, false)
                                .expect("valid power topic");
                        }
                    }
                }
            }
            let dt = t.elapsed().as_nanos() as u64;
            publish_ns += dt;
            if let Some(o) = &self.obs {
                o.publish_ns.record(dt);
            }

            // Ingest phase: drain this round's frames into the store.
            let t = Instant::now();
            self.ingestor.drain_into_sharded(&mut self.db);
            let dt = t.elapsed().as_nanos() as u64;
            ingest_ns += dt;
            if let Some(o) = &self.obs {
                o.ingest_ns.record(dt);
            }
        }
        self.rounds_done += rounds;
        let elapsed_s = t_run.elapsed().as_secs_f64();
        let stats = self.ingestor.stats();
        let raw_samples = self.cfg.raw_samples();
        if let Some(o) = &self.obs {
            o.raw_samples.add(raw_samples);
            o.frames.add(stats.frames);
        }
        AcquisitionReport {
            raw_samples,
            decimated_samples: raw_samples / self.cfg.decim_m as u64,
            frames: stats.frames,
            stored_samples: stats.samples,
            compute_ns,
            publish_ns,
            ingest_ns,
            elapsed_s,
            raw_samples_per_s: raw_samples as f64 / elapsed_s,
        }
    }

    /// FNV-1a digest over the store's end state: every series key, its
    /// absorbed-sample count, and the bit pattern of its raw-window
    /// mean. Bit-identical digests across reruns are the rig's
    /// determinism contract.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for key in self.db.keys() {
            h.write(key.as_bytes());
            h.write(&self.db.series_watermark(&key).to_le_bytes());
            let mean = self
                .db
                .series_mean(&key, crate::tsdb::Resolution::Raw, 0.0, 1e18)
                .0
                .unwrap_or(f64::NAN);
            h.write(&mean.to_bits().to_le_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AcquisitionConfig {
        AcquisitionConfig {
            nodes: 3,
            duration_s: 0.02,
            ..AcquisitionConfig::full_rate()
        }
    }

    #[test]
    fn blocked_run_fills_every_series() {
        let cfg = tiny();
        let rounds = cfg.rounds();
        assert_eq!(rounds, 2);
        let mut rig = AcquisitionRig::new(cfg.clone(), DspMode::Blocked);
        let rep = rig.run();
        assert_eq!(rep.raw_samples, 3 * 8 * 8_000 * 2);
        assert_eq!(rep.frames, 3 * 8 * 2);
        assert_eq!(rep.stored_samples, rep.decimated_samples);
        let keys = rig.db().keys();
        assert_eq!(keys.len(), 3 * 8, "one series per node/channel");
        for k in &keys {
            assert_eq!(
                rig.db().series_watermark(k),
                (cfg.frame_len() * rounds) as u64
            );
        }
    }

    #[test]
    fn modes_agree_on_counts_and_means() {
        let mut blocked = AcquisitionRig::new(tiny(), DspMode::Blocked);
        let mut scalar = AcquisitionRig::new(tiny(), DspMode::Scalar);
        let rb = blocked.run();
        let rs = scalar.run();
        assert_eq!(rb.frames, rs.frames);
        assert_eq!(rb.stored_samples, rs.stored_samples);
        assert_eq!(blocked.db().keys(), scalar.db().keys());
        for k in blocked.db().keys() {
            let mb = blocked
                .db()
                .series_mean(&k, crate::tsdb::Resolution::Raw, 0.0, 1e18)
                .0
                .unwrap();
            let ms = scalar
                .db()
                .series_mean(&k, crate::tsdb::Resolution::Raw, 0.0, 1e18)
                .0
                .unwrap();
            // f32 multiply-by-reciprocal quantisation vs f64 division
            // can land one code apart; means stay within ~an LSB.
            assert!((mb - ms).abs() < 1.5, "{k}: blocked {mb} vs scalar {ms}");
        }
    }

    #[test]
    fn reruns_are_bit_identical() {
        for mode in [DspMode::Blocked, DspMode::Scalar] {
            let mut a = AcquisitionRig::new(tiny(), mode);
            let mut b = AcquisitionRig::new(tiny(), mode);
            a.run();
            b.run();
            assert_eq!(a.digest(), b.digest(), "{mode:?}");
        }
    }

    #[test]
    fn tiered_replay_continues_the_timeline_without_stale_drops() {
        let cfg = AcquisitionConfig {
            tiering: Some(TieringConfig {
                seal_block: 256,
                hot_retain: Some(256),
                ..TieringConfig::default()
            }),
            ..tiny()
        };
        let mut rig = AcquisitionRig::new(cfg, DspMode::Blocked);
        rig.run();
        let first = rig.ingestor.stats().samples;
        rig.run();
        let stats = rig.ingestor.stats();
        // The second run picks the timeline up where the first ended —
        // frames land strictly after the series tails, so nothing is
        // dropped as stale.
        assert_eq!(stats.samples, 2 * first, "no stale drops on replay");
        assert_eq!(stats.stale_dropped, 0);
        rig.db_mut().compact();
        let st = rig.db().tier_stats();
        assert!(st.sealed_points > 0, "rings overflowed into blocks");
        assert_eq!(
            st.hot_points + st.compressed_points + st.disk_points,
            stats.samples,
            "tiering retains every absorbed sample"
        );
        assert_eq!(st.evicted_points, 0);
    }

    #[test]
    fn gateway_clocks_carry_distinct_ptp_residuals() {
        let cfg = tiny();
        let mut rig = AcquisitionRig::new(cfg, DspMode::Blocked);
        rig.run();
        let offsets: Vec<f64> = rig.shards.iter().map(|s| s.clock_offset_s).collect();
        assert!(
            offsets.iter().all(|o| o.abs() < 1e-5),
            "µs-scale: {offsets:?}"
        );
        assert!(
            offsets.windows(2).any(|w| w[0] != w[1]),
            "streams are per-gateway"
        );
    }

    #[test]
    fn scratch_buffers_reach_steady_state() {
        let cfg = tiny();
        let kernel = AdcKernel::new(&cfg.adc);
        let mut rig = AcquisitionRig::new(cfg.clone(), DspMode::Blocked);
        // Warm one round, then confirm the DSP scratch never regrows.
        rig.shards[0].render_round_blocked(&cfg, &kernel, 0);
        let caps = |s: &GatewayShard| (s.raw.capacity(), s.dig.capacity(), s.dec.capacity());
        let before = caps(&rig.shards[0]);
        for round in 1..50 {
            rig.shards[0].render_round_blocked(&cfg, &kernel, round);
        }
        assert_eq!(caps(&rig.shards[0]), before);
    }
}
