//! The energy and power gateway (EG).
//!
//! §III-A1: each node carries a BeagleBone Black that samples the power
//! backplane, decimates in hardware, timestamps with its PTP-disciplined
//! clock and publishes over MQTT so that *multiple* agents (control,
//! aggregation, profiling, accounting) consume the same stream. This
//! module binds the acquisition chain ([`crate::monitor`]), the clock
//! ([`crate::clock`]) and the broker (`davide-mqtt`) together.

use crate::clock::{ClockServo, Oscillator, SyncProtocol};
use crate::monitor::MonitorChain;
use bytes::{BufMut, Bytes, BytesMut};
use davide_core::power::PowerTrace;
use davide_core::rng::Rng;
use davide_mqtt::{Broker, Client, QoS};

/// Magic number identifying an EG sample frame.
pub const FRAME_MAGIC: u32 = 0xDA71_DE01;

/// A timestamped batch of decimated power samples, the EG's MQTT payload
/// unit (one frame per publish keeps broker rates tractable at 50 kS/s).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleFrame {
    /// PTP timestamp of the first sample, seconds.
    pub t0_s: f64,
    /// Sample spacing, seconds.
    pub dt_s: f64,
    /// Power samples, watts.
    pub watts: Vec<f32>,
}

/// Bulk little-endian append of an `f32` slice. On little-endian
/// targets `f32` is plain-old-data whose in-memory layout already *is*
/// the wire layout, so the whole slice goes out as one `memcpy`; other
/// targets fall back to per-sample conversion.
fn put_f32_slice_le(buf: &mut BytesMut, vals: &[f32]) {
    #[cfg(target_endian = "little")]
    {
        // Safety: f32 has no padding or invalid bit patterns; viewing
        // the slice as bytes is always defined.
        let bytes =
            unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 4) };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for &v in vals {
        buf.put_f32_le(v);
    }
}

/// Bulk little-endian read of `n` `f32`s from `bytes` (must hold at
/// least `4 * n` bytes) into caller-owned scratch. Safe byte-exact
/// conversion; the compiler turns the chunked loop into wide copies on
/// little-endian targets.
fn get_f32_slice_le(bytes: &[u8], n: usize, out: &mut Vec<f32>) {
    out.clear();
    out.reserve(n);
    out.extend(
        bytes[..4 * n]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
}

impl SampleFrame {
    /// Serialise to the wire payload (little-endian binary). The sample
    /// block is written with one bulk copy, not a per-sample loop.
    pub fn encode(&self) -> Bytes {
        Self::encode_parts(self.t0_s, self.dt_s, &self.watts)
    }

    /// Serialise a frame from borrowed parts — the acquisition hot
    /// path's form of [`SampleFrame::encode`]: samples stay in the
    /// caller's scratch buffer and go straight onto the wire, so no
    /// owned `SampleFrame` (and no sample copy) is ever built.
    pub fn encode_parts(t0_s: f64, dt_s: f64, watts: &[f32]) -> Bytes {
        let mut buf = BytesMut::with_capacity(24 + 4 * watts.len());
        buf.put_u32_le(FRAME_MAGIC);
        buf.put_f64_le(t0_s);
        buf.put_f64_le(dt_s);
        buf.put_u32_le(watts.len() as u32);
        put_f32_slice_le(&mut buf, watts);
        buf.freeze()
    }

    /// Parse a wire payload; `None` on malformed input (bad magic,
    /// truncated header or body, or a declared length whose byte size
    /// overflows).
    pub fn decode(payload: Bytes) -> Option<SampleFrame> {
        let mut watts = Vec::new();
        let (t0_s, dt_s) = Self::decode_into(&payload, &mut watts)?;
        Some(SampleFrame { t0_s, dt_s, watts })
    }

    /// Parse a wire payload into caller-owned sample scratch, returning
    /// `(t0_s, dt_s)`. This is the ingest hot path's form of
    /// [`SampleFrame::decode`]: the scratch buffer is reused across
    /// frames, so the steady state never allocates per frame. On
    /// malformed input returns `None` and leaves `watts` cleared.
    pub fn decode_into(payload: &[u8], watts: &mut Vec<f32>) -> Option<(f64, f64)> {
        watts.clear();
        if payload.len() < 24 {
            return None;
        }
        if u32::from_le_bytes(payload[0..4].try_into().expect("checked length")) != FRAME_MAGIC {
            return None;
        }
        let t0_s = f64::from_le_bytes(payload[4..12].try_into().expect("checked length"));
        let dt_s = f64::from_le_bytes(payload[12..20].try_into().expect("checked length"));
        let n = u32::from_le_bytes(payload[20..24].try_into().expect("checked length")) as usize;
        let need = n.checked_mul(4)?;
        let body = &payload[24..];
        if body.len() < need {
            return None;
        }
        get_f32_slice_le(body, n, watts);
        Some((t0_s, dt_s))
    }

    /// Energy of this frame (left-rectangle).
    pub fn energy_j(&self) -> f64 {
        self.watts.iter().map(|&w| w as f64).sum::<f64>() * self.dt_s
    }

    /// Mean power of this frame.
    pub fn mean_w(&self) -> f64 {
        if self.watts.is_empty() {
            return 0.0;
        }
        self.watts.iter().map(|&w| w as f64).sum::<f64>() / self.watts.len() as f64
    }
}

/// The per-node power channels the gateway scans (§III-A1: node power
/// plus the main computing components).
pub const CHANNELS: [&str; 8] = [
    "node", "cpu0", "cpu1", "gpu0", "gpu1", "gpu2", "gpu3", "aux12v",
];

/// Topic for a node/channel pair: `davide/node{NN}/power/{channel}`.
pub fn power_topic(node_id: u32, channel: &str) -> String {
    format!("davide/node{node_id:02}/power/{channel}")
}

/// Filter matching every power channel of one node.
pub fn node_filter(node_id: u32) -> String {
    format!("davide/node{node_id:02}/power/#")
}

/// Filter matching one channel across all nodes.
pub fn channel_filter(channel: &str) -> String {
    format!("davide/+/power/{channel}")
}

/// One node's energy gateway.
pub struct EnergyGateway {
    /// Node this gateway serves.
    pub node_id: u32,
    /// Acquisition chain (sensor + ADC + decimation).
    pub chain: MonitorChain,
    /// Local oscillator, PTP-disciplined.
    pub clock: Oscillator,
    client: Client,
    /// Samples per published frame.
    pub frame_len: usize,
    frames_published: u64,
    rng: Rng,
}

impl EnergyGateway {
    /// Connect a gateway for `node_id` to `broker`, with hardware PTP.
    pub fn connect(broker: &Broker, node_id: u32, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let chain = MonitorChain::davide_eg(&mut rng.fork());
        let mut clock = Oscillator::crystal(&mut rng.fork());
        let mut servo = ClockServo::new(SyncProtocol::ptp_hw());
        // Lock the servo before service.
        for _ in 0..16 {
            servo.discipline(&mut clock, &mut rng);
            clock.advance(1.0, &mut rng);
        }
        let client = broker.connect(format!("eg-node{node_id:02}"));
        EnergyGateway {
            node_id,
            chain,
            clock,
            client,
            frame_len: 500, // 10 ms of 50 kS/s data per frame
            frames_published: 0,
            rng,
        }
    }

    /// Frames published so far.
    pub fn frames_published(&self) -> u64 {
        self.frames_published
    }

    /// Acquire a ground-truth trace on `channel` through the chain and
    /// publish it as timestamped frames. Returns the number of frames.
    pub fn acquire_and_publish(
        &mut self,
        channel: &str,
        truth: &PowerTrace,
        true_time_s: f64,
    ) -> usize {
        let reported = self.chain.acquire(truth, &mut self.rng);
        self.publish_reported(channel, &reported, true_time_s)
    }

    /// Publish an already-acquired trace as frames (used when one
    /// acquisition pass feeds several consumers in tests).
    pub fn publish_reported(
        &mut self,
        channel: &str,
        reported: &PowerTrace,
        true_time_s: f64,
    ) -> usize {
        let topic = power_topic(self.node_id, channel);
        let mut frames = 0;
        let mut i = 0;
        while i < reported.len() {
            let end = (i + self.frame_len).min(reported.len());
            let watts: Vec<f32> = reported.samples[i..end].iter().map(|&w| w as f32).collect();
            // Timestamp with the PTP-disciplined local clock.
            let frame = SampleFrame {
                t0_s: self.clock.read(true_time_s + i as f64 * reported.dt),
                dt_s: reported.dt,
                watts,
            };
            self.client
                .publish(&topic, frame.encode(), QoS::AtMostOnce, false)
                .expect("valid power topic");
            frames += 1;
            i = end;
        }
        self.frames_published += frames as u64;
        frames
    }

    /// Publish a retained status message (e.g. the active power cap) —
    /// late subscribers immediately learn the current value.
    pub fn publish_status(&self, key: &str, value: &str) {
        let topic = format!("davide/node{:02}/status/{key}", self.node_id);
        self.client
            .publish(
                &topic,
                Bytes::copy_from_slice(value.as_bytes()),
                QoS::AtLeastOnce,
                true,
            )
            .expect("valid status topic");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::WorkloadWaveform;
    use std::time::Duration;

    #[test]
    fn frame_roundtrip() {
        let f = SampleFrame {
            t0_s: 123.456,
            dt_s: 2e-5,
            watts: vec![1700.0, 1710.5, 1695.25],
        };
        let decoded = SampleFrame::decode(f.encode()).unwrap();
        assert_eq!(decoded, f);
        assert!((f.mean_w() - 1701.9166).abs() < 1e-3);
        assert!((f.energy_j() - (1700.0 + 1710.5 + 1695.25) * 2e-5).abs() < 1e-9);
    }

    #[test]
    fn frame_decode_rejects_garbage() {
        assert!(SampleFrame::decode(Bytes::from_static(b"junk")).is_none());
        let mut buf = BytesMut::new();
        buf.put_u32_le(FRAME_MAGIC);
        buf.put_f64_le(0.0);
        buf.put_f64_le(1.0);
        buf.put_u32_le(100); // claims 100 samples, provides none
        assert!(SampleFrame::decode(buf.freeze()).is_none());
    }

    #[test]
    fn topics_are_valid_and_match() {
        use davide_mqtt::topic::{filter_matches, validate_filter, validate_topic};
        let t = power_topic(3, "gpu1");
        assert_eq!(t, "davide/node03/power/gpu1");
        assert!(validate_topic(&t).is_ok());
        assert!(validate_filter(&node_filter(3)).is_ok());
        assert!(filter_matches(&node_filter(3), &t));
        assert!(filter_matches(&channel_filter("gpu1"), &t));
        assert!(!filter_matches(&channel_filter("cpu0"), &t));
    }

    #[test]
    fn gateway_publishes_frames_that_reconstruct_energy() {
        let broker = Broker::default();
        let mut agent = broker.connect("aggregator");
        agent.subscribe(&node_filter(7), QoS::AtMostOnce).unwrap();

        let mut eg = EnergyGateway::connect(&broker, 7, 42);
        let mut gen = Rng::seed_from(9);
        let truth = WorkloadWaveform::hpc_job(1700.0, 0.3).render(800_000.0, 0.5, &mut gen);
        let frames = eg.acquire_and_publish("node", &truth, 100.0);
        assert_eq!(frames, 50, "0.5 s at 50 kS/s in 500-sample frames");

        let mut total_j = 0.0;
        let mut count = 0;
        while let Some(m) = agent.recv_timeout(Duration::from_millis(200)) {
            let f = SampleFrame::decode(m.payload).expect("valid frame");
            total_j += f.energy_j();
            count += 1;
            if count == frames {
                break;
            }
        }
        let truth_j = truth.energy().0;
        let err = (total_j - truth_j).abs() / truth_j * 100.0;
        assert!(err < 1.0, "reconstructed energy error {err}%");
    }

    #[test]
    fn frames_carry_monotonic_ptp_timestamps() {
        let broker = Broker::default();
        let mut agent = broker.connect("a");
        agent.subscribe("davide/#", QoS::AtMostOnce).unwrap();
        let mut eg = EnergyGateway::connect(&broker, 1, 5);
        let mut gen = Rng::seed_from(2);
        let truth = WorkloadWaveform::idle(300.0).render(800_000.0, 0.1, &mut gen);
        eg.acquire_and_publish("node", &truth, 50.0);
        let stamps: Vec<f64> = agent
            .drain()
            .into_iter()
            .map(|m| SampleFrame::decode(m.payload).unwrap().t0_s)
            .collect();
        assert!(stamps.windows(2).all(|w| w[1] > w[0]), "monotonic");
        // PTP keeps the stamp within microseconds of true time.
        assert!(
            (stamps[0] - 50.0).abs() < 1e-4,
            "first stamp {} vs true 50.0",
            stamps[0]
        );
    }

    #[test]
    fn status_is_retained_for_late_subscribers() {
        let broker = Broker::default();
        let eg = EnergyGateway::connect(&broker, 2, 3);
        eg.publish_status("powercap", "1500");
        let mut late = broker.connect("late");
        late.subscribe("davide/+/status/powercap", QoS::AtMostOnce)
            .unwrap();
        let m = late.recv_timeout(Duration::from_millis(200)).unwrap();
        assert!(m.retain);
        assert_eq!(&m.payload[..], b"1500");
    }

    #[test]
    fn multiple_gateways_fan_in_to_one_aggregator() {
        let broker = Broker::default();
        let mut agg = broker.connect("site-aggregator");
        agg.subscribe(&channel_filter("node"), QoS::AtMostOnce)
            .unwrap();
        let mut gen = Rng::seed_from(4);
        let truth = WorkloadWaveform::idle(500.0).render(800_000.0, 0.05, &mut gen);
        for id in 0..4 {
            let mut eg = EnergyGateway::connect(&broker, id, 100 + id as u64);
            eg.acquire_and_publish("node", &truth, 0.0);
        }
        let msgs = agg.drain();
        let nodes: std::collections::HashSet<String> =
            msgs.iter().map(|m| m.topic.clone()).collect();
        assert_eq!(nodes.len(), 4, "one topic per node");
    }
}
