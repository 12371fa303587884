//! Self-telemetry over MQTT: the monitoring plane in its own pipeline.
//!
//! `davide-obs` keeps its bridge codec-agnostic; this module supplies
//! the MQTT adapter. [`MqttMetricSink`] encodes each registry sample as
//! a one-element [`SampleFrame`] and publishes it on the reserved
//! `davide/obs/self/<metric>` topic, so the ordinary
//! [`FrameIngestor`](crate::ingest::FrameIngestor) → [`TsDb`](crate::tsdb::TsDb) chain
//! records the stack's own metrics exactly like node power — the
//! EG → MQTT → aggregator loop of the paper, pointed at itself.

use crate::gateway::SampleFrame;
use davide_mqtt::{Broker, BrokerError, Client, QoS};
use davide_obs::{FrameSink, MetricsRegistry, SelfTelemetry};

/// A [`FrameSink`] publishing one-sample frames over an MQTT client.
pub struct MqttMetricSink {
    client: Client,
}

impl MqttMetricSink {
    /// Connect `name` to `broker` as the self-telemetry publisher.
    pub fn connect(broker: &Broker, name: &str) -> Self {
        MqttMetricSink {
            client: broker.connect(name.to_string()),
        }
    }
}

impl FrameSink for MqttMetricSink {
    fn publish_sample(&mut self, topic: &str, t_s: f64, value: f64) {
        let frame = SampleFrame {
            t0_s: t_s,
            dt_s: 0.0,
            watts: vec![value as f32],
        };
        // Obs topics are pre-sanitised; a publish can only fail if the
        // metric name defeats sanitisation, which is a wiring bug we
        // surface loudly rather than silently dropping telemetry.
        self.client
            .publish(topic, frame.encode(), QoS::AtMostOnce, false)
            .expect("obs topic must be publishable");
    }
}

/// Periodic registry → MQTT pump: [`SelfTelemetry`] wired to an
/// [`MqttMetricSink`]. Call [`SelfMonitor::pump`] from the control
/// loop; emission instants derive from the caller's clock, so the
/// deterministic harness stays bit-identical.
pub struct SelfMonitor {
    bridge: SelfTelemetry,
    sink: MqttMetricSink,
}

impl SelfMonitor {
    /// A monitor publishing every `period_s` seconds as client `name`.
    pub fn connect(broker: &Broker, name: &str, period_s: f64) -> Result<Self, BrokerError> {
        Ok(SelfMonitor {
            bridge: SelfTelemetry::new(period_s),
            sink: MqttMetricSink::connect(broker, name),
        })
    }

    /// Publish a registry snapshot if the period has elapsed; returns
    /// samples published (0 when not yet due).
    pub fn pump(&mut self, now_s: f64, registry: &MetricsRegistry) -> usize {
        self.bridge.maybe_publish(now_s, registry, &mut self.sink)
    }

    /// Total samples published so far.
    pub fn emitted(&self) -> u64 {
        self.bridge.emitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::FrameIngestor;
    use crate::tsdb::{Resolution, TsDb};
    use davide_obs::{obs_topic, OBS_FILTER};

    #[test]
    fn registry_roundtrips_through_mqtt_into_tsdb() {
        let broker = Broker::default();
        let registry = MetricsRegistry::new();
        registry.counter("ingest_frames_total").add(42);
        registry.gauge("cluster_cap_w").set(9000.0);
        let h = registry.histogram("ctl_loop_ns");
        h.record(1 << 20);

        // The obs subscriber uses the same ingest plumbing as power
        // telemetry.
        let mut ing = FrameIngestor::subscribe(&broker, "obs-agent", &[OBS_FILTER]).unwrap();
        let mut mon = SelfMonitor::connect(&broker, "obs-pub", 10.0).unwrap();

        assert_eq!(mon.pump(5.0, &registry), 0, "not due yet");
        // counter + gauge + 6 histogram series.
        assert_eq!(mon.pump(10.0, &registry), 8);

        let mut db = TsDb::new();
        assert_eq!(ing.drain_into(&mut db), 8);
        let id = db.lookup(&obs_topic("ingest_frames_total")).unwrap();
        let pts = db.query_id(id, Resolution::Raw, 0.0, 1e9);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].t, 10.0);
        assert_eq!(pts[0].v, 42.0);
        let cap = db.lookup(&obs_topic("cluster_cap_w")).unwrap();
        assert_eq!(db.query_id(cap, Resolution::Raw, 0.0, 1e9)[0].v, 9000.0);
        assert!(db.lookup(&obs_topic("ctl_loop_ns_p99")).is_some());

        // A later pump appends a second point to the same series.
        registry.counter("ingest_frames_total").add(1);
        assert_eq!(mon.pump(20.0, &registry), 8);
        ing.drain_into(&mut db);
        assert_eq!(db.count_id(id), 2);
        assert_eq!(db.query_id(id, Resolution::Raw, 0.0, 1e9)[1].v, 43.0);
    }

    #[test]
    fn obs_frames_invisible_to_power_subscribers() {
        let broker = Broker::default();
        let registry = MetricsRegistry::new();
        registry.counter("x").add(1);
        let mut power_agent =
            FrameIngestor::subscribe(&broker, "mgmt", &["davide/+/power/#"]).unwrap();
        let mut mon = SelfMonitor::connect(&broker, "obs-pub", 1.0).unwrap();
        assert_eq!(mon.pump(1.0, &registry), 1);
        let mut db = TsDb::new();
        assert_eq!(power_agent.drain_into(&mut db), 0, "namespace isolation");
    }
}
