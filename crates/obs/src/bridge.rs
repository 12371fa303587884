//! Self-telemetry namespace: where the registry is republished as
//! telemetry.
//!
//! D.A.V.I.D.E.'s monitoring plane should be observable through the
//! same EG → MQTT → TsDb chain it provides to applications, so every
//! [`MetricsRegistry`](crate::MetricsRegistry) sample can be published
//! as a single-sample telemetry series on the reserved `davide/obs/#`
//! namespace. The publisher lives in `davide-telemetry` (which owns the
//! frame codec); this module only names the topics.
//!
//! The namespace is laid out so obs series can never match application
//! power subscriptions: application topics are
//! `davide/<node>/power/<sensor>`, obs topics are
//! `davide/obs/self/<metric>` — the second level is the literal `obs`,
//! which no node id uses, and the third level is the literal `self`
//! where power topics have `power`.

/// Topic prefix for self-telemetry series.
pub const OBS_PREFIX: &str = "davide/obs/self/";

/// Subscription filter covering the whole reserved namespace.
pub const OBS_FILTER: &str = "davide/obs/#";

/// Map a metric name to its reserved topic. Characters outside
/// `[A-Za-z0-9_.-]` (label syntax: `{`, `}`, `"`, `=`, `,`) become `_`
/// so the topic is always a valid single MQTT level.
pub fn obs_topic(metric_name: &str) -> String {
    let mut t = String::with_capacity(OBS_PREFIX.len() + metric_name.len());
    t.push_str(OBS_PREFIX);
    for c in metric_name.chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
            t.push(c);
        } else {
            t.push('_');
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_topic_sanitizes_label_syntax() {
        assert_eq!(
            obs_topic("ingest_frames_total"),
            "davide/obs/self/ingest_frames_total"
        );
        assert_eq!(
            obs_topic("mqtt_topic_published{topic=\"a/b\"}"),
            "davide/obs/self/mqtt_topic_published_topic__a_b__"
        );
        // Always exactly one level appended: no '/' survives.
        assert_eq!(obs_topic("x/y").matches('/').count(), 3);
    }
}
