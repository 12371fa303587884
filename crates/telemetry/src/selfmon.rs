//! Self-telemetry over MQTT: the monitoring plane in its own pipeline.
//!
//! [`publish_registry`] encodes each registry sample as a one-element
//! [`SampleFrame`] and publishes it on the reserved
//! `davide/obs/self/<metric>` topic ([`obs_topic`]), so the ordinary
//! [`FrameIngestor`](crate::ingest::FrameIngestor) → [`TsDb`](crate::tsdb::TsDb) chain
//! records the stack's own metrics exactly like node power — the
//! EG → MQTT → aggregator loop of the paper, pointed at itself.

use crate::gateway::SampleFrame;
use davide_mqtt::{Client, QoS};
use davide_obs::{obs_topic, MetricsRegistry};

/// Publish one snapshot of `registry` through `client`, every sample
/// stamped `t_s`; returns the number of samples published. Histograms
/// expand to `_count`/`_sum`/`_max`/`_p50`/`_p95`/`_p99` series.
pub fn publish_registry(client: &Client, registry: &MetricsRegistry, t_s: f64) -> usize {
    let mut n = 0usize;
    registry.visit_samples(|name, value| {
        let frame = SampleFrame {
            t0_s: t_s,
            dt_s: 0.0,
            watts: vec![value as f32],
        };
        // Obs topics are pre-sanitised; a publish can only fail if the
        // metric name defeats sanitisation, which is a wiring bug we
        // surface loudly rather than silently dropping telemetry.
        client
            .publish(&obs_topic(name), frame.encode(), QoS::AtMostOnce, false)
            .expect("obs topic must be publishable");
        n += 1;
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::FrameIngestor;
    use crate::tsdb::{Resolution, TsDb};
    use davide_mqtt::Broker;
    use davide_obs::OBS_FILTER;

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
        let client = broker.connect("obs-pub");

        // counter + gauge + 6 histogram series.
        assert_eq!(publish_registry(&client, &registry, 10.0), 8);

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

        // A later publish appends a second point to the same series.
        registry.counter("ingest_frames_total").add(1);
        assert_eq!(publish_registry(&client, &registry, 20.0), 8);
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
        let client = broker.connect("obs-pub");
        assert_eq!(publish_registry(&client, &registry, 1.0), 1);
        let mut db = TsDb::new();
        assert_eq!(power_agent.drain_into(&mut db), 0, "namespace isolation");
    }
}
