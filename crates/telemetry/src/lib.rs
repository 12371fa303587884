//! # davide-telemetry
//!
//! The fine-grain power/energy monitoring stack of D.A.V.I.D.E.
//! (§III-A1 of the paper): the per-node *energy gateway* built around a
//! BeagleBone Black, its acquisition chain, its PTP timebase, and the
//! baseline monitors it is compared against in §V-C.
//!
//! * [`waveform`] — synthetic workload power signals (the substitution
//!   for the physical power backplane; see DESIGN.md);
//! * [`sensors`] — shunt / Hall-effect analog front-ends with gain,
//!   offset, bandwidth and noise;
//! * [`adc`] — the AM335x 12-bit SAR ADC (800 kS/s, 8-way mux, jitter);
//! * [`decimation`] — boxcar (hardware-averaging) and windowed-sinc FIR
//!   decimators, plus the aliasing strawman and a Goertzel analyser;
//! * [`clock`] — oscillator drift and NTP/PTP discipline (sub-µs with
//!   hardware timestamps);
//! * [`kernels`] — the same DSP stages as cache-blocked `f32` hot-loop
//!   kernels (bit-exact blocked variants) for the full-rate
//!   acquisition path; [`acquisition`] — the 45-gateway × 8-channel
//!   full-rate driver built on them;
//! * [`monitor`] — complete chains: DAVIDE EG, HDEEM, PowerInsight,
//!   ArduPower, IPMI — used by experiment E3;
//! * [`gateway`] — the EG proper: acquisition + PTP timestamps + MQTT
//!   frame publishing; [`energy`] — stream-side energy integration;
//! * [`ingest`] — management-node side: MQTT frames drained into the
//!   [`tsdb`] store with one bulk append per frame, optionally sharded
//!   across cores;
//! * [`storage`] — the tiered storage engine behind [`tsdb`]: sealed
//!   Gorilla-compressed blocks, an in-memory compressed tier, on-disk
//!   segment files, and the block-skipping range scan;
//! * [`selfmon`] — the `davide-obs` self-telemetry bridge's MQTT
//!   adapter: the metrics registry republished as ordinary one-sample
//!   frames on the reserved `davide/obs/#` namespace.

#![warn(missing_docs)]

pub mod acquisition;
pub mod adc;
pub mod clock;
pub mod decimation;
pub mod energy;
pub mod gateway;
pub mod ingest;
pub mod kernels;
pub mod monitor;
pub mod profiler;
pub mod read;
pub mod selfmon;
pub mod sensors;
pub mod spectral;
pub mod storage;
pub mod tsdb;
pub mod waveform;

pub use acquisition::{AcquisitionConfig, AcquisitionReport, AcquisitionRig};
pub use clock::{run_sync_sim, SyncProtocol, SyncStats};
pub use decimation::Decimator;
pub use energy::EnergyIntegrator;
pub use gateway::{EnergyGateway, SampleFrame};
pub use ingest::{FrameIngestor, IngestObs, IngestStats, ShardedTsDb};
pub use monitor::MonitorChain;
pub use profiler::{detect_phases, PhaseSegment, ProfilerConfig};
pub use read::{FilterRangeQuery, SeriesRead};
pub use selfmon::{MqttMetricSink, SelfMonitor};
pub use sensors::PowerSensor;
pub use spectral::{welch_psd, Spectrum};
pub use storage::{
    DiskTierConfig, QueryCoverage, RangeQuery, StorageObs, TierStats, TieringConfig,
};
pub use tsdb::{Resolution, SeriesId, TsDb, TsDbConfig};
pub use waveform::WorkloadWaveform;
