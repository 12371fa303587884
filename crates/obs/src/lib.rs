//! # davide-obs
//!
//! The stack's self-observability layer. D.A.V.I.D.E. is itself a
//! monitoring system — energy gateways stream 50 kS/s power telemetry
//! over MQTT to aggregators, profilers and the power-aware scheduler —
//! and this crate lets that pipeline watch *itself* with the same
//! rigour it offers applications:
//!
//! * [`MetricsRegistry`] — a lock-free registry of atomic counters,
//!   gauges and log₂-bucketed histograms. Handles are pre-registered
//!   (interned, like `SeriesId`s in the TsDb) so the hot path is pure
//!   atomics: no locks, no allocation. [`MetricsRegistry::render_text`]
//!   produces a Prometheus-style text exposition.
//! * [`StageTracer`] — causal tracing through an ordered stage set,
//!   one fixed-slot table for two uses. [`Stage`] follows `SampleFrame`
//!   batches: every frame gets a deterministic trace id derived from
//!   its topic and wire header ([`frame_trace_id`]); each pipeline
//!   stage (broker publish → session deliver → ingest append →
//!   predictor update → scheduler tick → DVFS command publish) stamps a
//!   timestamp, and closing a trace folds the stage-to-stage lags into
//!   histograms, so end-to-end control-loop latency is a measured
//!   distribution, not a guess. [`GrantStage`] follows federation cap
//!   grants: the federator's budget split, the downlink bridge hop, the
//!   rack's cap-watch drain, the controller command and the observed
//!   power crossing are stitched into one span per (rack, grant seq),
//!   folding grant-to-actuation latency into histograms.
//! * [`Fnv1a`] — the streaming FNV-1a-64 hasher behind every digest,
//!   trace id and shard placement in the workspace.
//! * [`FlightRecorder`] — a bounded lock-free ring of recent
//!   control-loop events, snapshotted into a deterministic text dump
//!   the instant an invariant fires.
//! * [`SelfTelemetry`] — a bridge that periodically serialises the
//!   registry into ordinary telemetry samples on the reserved
//!   `davide/obs/#` topic namespace, published through whatever
//!   [`FrameSink`] the caller wires up (the MQTT adapter lives in
//!   `davide-telemetry`, which owns the frame codec). The monitoring
//!   plane monitors itself with its own plumbing.
//!
//! All time flows through the injectable [`Clock`] trait: deterministic
//! harnesses drive a [`ManualClock`] from their virtual clock, so
//! instrumentation never perturbs per-seed digests; production wiring
//! uses [`MonotonicClock`].

#![warn(missing_docs)]

pub mod bridge;
pub mod clock;
pub mod flight;
pub mod hash;
pub mod metrics;
pub mod trace;

pub use bridge::{obs_topic, FrameSink, SelfTelemetry, OBS_FILTER, OBS_PREFIX};
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use flight::{FlightEvent, FlightRecorder};
pub use hash::{fnv1a, Fnv1a};
pub use metrics::{
    escape_label_value, rollup_counters, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry,
};
pub use trace::{frame_trace_id, GrantStage, Stage, StageTracer, GRANT_STAGE_NAMES};

use std::sync::Arc;

/// The obs wiring one deployment shares across instrument sites: the
/// registry every subsystem registers its metrics in, the frame and
/// cap-grant tracers, the flight recorder, and the clock all
/// broker/ingest-side stamps read.
#[derive(Clone)]
pub struct ObsHub {
    /// Shared metrics registry.
    pub registry: Arc<MetricsRegistry>,
    /// Shared causal frame tracer (registers its own metrics in
    /// `registry`).
    pub tracer: Arc<StageTracer<Stage>>,
    /// Shared cap-grant span tracer (registers its own metrics in
    /// `registry`).
    pub span: Arc<StageTracer<GrantStage>>,
    /// Shared flight recorder for the deployment's recent control-loop
    /// events.
    pub flight: Arc<FlightRecorder>,
    /// Injectable time source for stamps taken outside the control
    /// loop's explicit `now` (broker publish, ingest drain).
    pub clock: Arc<dyn Clock>,
}

impl ObsHub {
    /// A hub over an explicit clock.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(StageTracer::new(&registry));
        let span = Arc::new(StageTracer::new(&registry));
        let flight = Arc::new(FlightRecorder::default());
        ObsHub {
            registry,
            tracer,
            span,
            flight,
            clock,
        }
    }

    /// Arm or disarm grant tracing and flight recording together (frame
    /// tracing and the registry stay live). Overhead A/B runs disarm
    /// one side; digests must be bit-identical either way.
    pub fn set_tracing_enabled(&self, on: bool) {
        self.span.set_enabled(on);
        self.flight.set_enabled(on);
    }

    /// A hub over a [`ManualClock`], returned alongside so deterministic
    /// harnesses can drive it from their virtual clock.
    pub fn manual() -> (Self, Arc<ManualClock>) {
        let manual = Arc::new(ManualClock::new(0.0));
        let clock: Arc<dyn Clock> = manual.clone();
        (Self::new(clock), manual)
    }

    /// A hub over the wall [`MonotonicClock`] (production wiring).
    pub fn monotonic() -> Self {
        Self::new(Arc::new(MonotonicClock::new()))
    }
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub").finish_non_exhaustive()
    }
}
