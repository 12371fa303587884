//! Broker-to-broker bridging.
//!
//! In a deployment like D.A.V.I.D.E.'s, each rack's management network
//! runs its own broker close to the gateways; a *bridge* forwards
//! selected topics upstream to the site broker where the job scheduler
//! and accounting subscribe. This is the standard MQTT bridging pattern
//! (mosquitto's `connection` blocks), reimplemented over the in-process
//! broker: filter-based forwarding, optional topic prefixing, loop-safe
//! one-directional pumps, and a restart-tolerant source session —
//! [`disconnect_source`]/[`reconnect_source`] model the bridge losing
//! its uplink when the source broker restarts, and the pump
//! deduplicates the retained replay a resubscribe triggers, so each
//! retained status value crosses the bridge **exactly once** no matter
//! how many reconnects happen in between.
//!
//! That dedup, over the source's retained store, is how cap state
//! survives a restart; the bridge keeps no acknowledgement or
//! retransmission state. A non-retained message queued when the source
//! session drops is lost with it.
//!
//! [`disconnect_source`]: Bridge::disconnect_source
//! [`reconnect_source`]: Bridge::reconnect_source

use crate::broker::{Broker, BrokerError, Message};
use crate::client::Client;
use crate::codec::QoS;
use crate::topic::validate_filter;
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Arc;

/// Observer called once per message the bridge actually forwards, with
/// the destination topic, the payload and the retain flag — after
/// retained-replay deduplication, so a hook sees each distinct state
/// crossing exactly once. Federation uses this to stamp the
/// bridge-delivery hop of cap-grant spans without the bridge knowing
/// anything about spans.
pub type ForwardHook = Box<dyn FnMut(&str, &Bytes, bool) + Send>;

/// A one-directional bridge pumping matching messages from a source
/// broker to a destination broker.
pub struct Bridge {
    /// Handle kept so the source session can be rebuilt after a broker
    /// restart.
    source_broker: Broker,
    source: Client,
    destination: Client,
    name: String,
    filters: Vec<String>,
    /// Prefix prepended to forwarded topics (e.g. `rack0`).
    pub prefix: Option<String>,
    forwarded: u64,
    // Source topic → prefixed topic. Telemetry topic universes are
    // small (nodes × channels), so after warm-up the pump loop
    // republishes without re-formatting a String per message.
    topic_cache: HashMap<Arc<str>, Arc<str>>,
    // Source topic → last retained payload forwarded. A resubscribe
    // after reconnect replays the retained store into the fresh
    // session; values already forwarded are dropped here so downstream
    // sees each retained state exactly once.
    retained_seen: HashMap<Arc<str>, Bytes>,
    source_connected: bool,
    forward_hook: Option<ForwardHook>,
    // Scratch reused by every pump: the drained source messages and
    // the run of forwards being batched.
    inbox: Vec<Message>,
    run: Vec<(Arc<str>, Bytes)>,
}

impl Bridge {
    /// Create a bridge subscribing to `filters` on `source` and
    /// republishing (optionally under `prefix/...`) on `destination`.
    pub fn connect(
        source: &Broker,
        destination: &Broker,
        name: &str,
        filters: &[&str],
        prefix: Option<&str>,
    ) -> Result<Bridge, BrokerError> {
        for f in filters {
            validate_filter(f)?;
        }
        let mut src_client = source.connect(format!("bridge-{name}-in"));
        // Delivery is at min(publish, subscription) QoS, so a QoS 1
        // subscription hands the pump each message at the QoS it was
        // published with, and the forward keeps it.
        for f in filters {
            src_client.subscribe(f, QoS::AtLeastOnce)?;
        }
        let dst_client = destination.connect(format!("bridge-{name}-out"));
        Ok(Bridge {
            source_broker: source.clone(),
            source: src_client,
            destination: dst_client,
            name: name.to_string(),
            filters: filters.iter().map(|f| f.to_string()).collect(),
            prefix: prefix.map(str::to_string),
            forwarded: 0,
            topic_cache: HashMap::new(),
            retained_seen: HashMap::new(),
            source_connected: true,
            forward_hook: None,
            inbox: Vec::new(),
            run: Vec::new(),
        })
    }

    /// Install (or clear) the per-forward observer; see [`ForwardHook`].
    pub fn set_forward_hook(&mut self, hook: Option<ForwardHook>) {
        self.forward_hook = hook;
    }

    /// The bridge's configured name (client ids are derived from it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Messages forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// True while the source-side session is up.
    pub fn source_connected(&self) -> bool {
        self.source_connected
    }

    /// Drop the source-side session, as a source-broker restart would:
    /// undelivered messages are lost with the session and nothing is
    /// pumped until [`reconnect_source`](Self::reconnect_source).
    pub fn disconnect_source(&mut self) {
        if self.source_connected {
            self.source.disconnect();
            self.source_connected = false;
        }
    }

    /// Re-establish the source session after a restart: reconnect,
    /// resubscribe every configured filter (triggering the broker's
    /// retained replay into the fresh session). The next
    /// [`pump`](Self::pump) forwards only retained values that have not
    /// already crossed the bridge.
    pub fn reconnect_source(&mut self) -> Result<(), BrokerError> {
        if self.source_connected {
            return Ok(());
        }
        let mut src = self
            .source_broker
            .connect(format!("bridge-{}-in", self.name));
        for f in &self.filters {
            src.subscribe(f, QoS::AtLeastOnce)?;
        }
        self.source = src;
        self.source_connected = true;
        Ok(())
    }

    /// Drain everything queued on the source side and republish it
    /// downstream. Returns the number of messages forwarded. Prefixed
    /// topics are built once per distinct source topic and cached, and
    /// the cached `Arc<str>` is the topic every downstream delivery
    /// shares, so the steady-state pump republishes without allocating.
    /// Retained messages are forwarded at most once per distinct value:
    /// the replay a post-restart resubscribe triggers is dropped when
    /// that exact state already crossed the bridge.
    ///
    /// Each run of consecutive forwards that share a QoS and retain
    /// flag goes out as one batch on the destination broker, in drain
    /// order. The forward hook sees every forward of a run, in order,
    /// before the run is published.
    pub fn pump(&mut self) -> usize {
        if !self.source_connected {
            return 0;
        }
        self.source.drain_into(&mut self.inbox);
        let mut run_flags = (QoS::AtMostOnce, false);
        let mut n = 0;
        for msg in self.inbox.drain(..) {
            if msg.retain {
                // Exactly-once for retained state: skip a value we
                // already forwarded (retained replays repeat the last
                // value per topic on every resubscribe).
                if self.retained_seen.get(&*msg.topic) == Some(&msg.payload) {
                    continue;
                }
                self.retained_seen
                    .insert(msg.topic.clone(), msg.payload.clone());
            }
            // Never re-forward retained replays of our own destination
            // side: a one-directional bridge cannot loop, but retained
            // replays at subscribe time would double-deliver old state.
            let topic = match &self.prefix {
                Some(p) => match self.topic_cache.get(&*msg.topic) {
                    Some(t) => t.clone(),
                    None => {
                        let t: Arc<str> = format!("{p}/{}", msg.topic).into();
                        self.topic_cache.insert(msg.topic.clone(), t.clone());
                        t
                    }
                },
                None => msg.topic,
            };
            // Forward retained flag so site-side late subscribers get
            // status values (e.g. power caps).
            let flags = (msg.qos, msg.retain);
            if flags != run_flags {
                forward(&self.destination, &mut self.run, run_flags);
                run_flags = flags;
            }
            if let Some(hook) = &mut self.forward_hook {
                hook(&topic, &msg.payload, msg.retain);
            }
            self.run.push((topic, msg.payload));
            n += 1;
        }
        forward(&self.destination, &mut self.run, run_flags);
        self.forwarded += n as u64;
        n
    }
}

/// Publish one run of forwards on the destination broker and empty it.
fn forward(destination: &Client, run: &mut Vec<(Arc<str>, Bytes)>, (qos, retain): (QoS, bool)) {
    if !run.is_empty() {
        let _ = destination.publish_batch_as(run, qos, retain);
        run.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn payload(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn forwards_matching_topics_with_prefix() {
        let rack = Broker::default();
        let site = Broker::default();
        let mut bridge =
            Bridge::connect(&rack, &site, "rack0", &["davide/+/power/#"], Some("rack0")).unwrap();
        assert_eq!(bridge.name(), "rack0");

        let mut site_agent = site.connect("site-accounting");
        site_agent
            .subscribe("rack0/davide/+/power/#", QoS::AtMostOnce)
            .unwrap();

        let gw = rack.connect("eg");
        gw.publish(
            "davide/node03/power/node",
            payload("1700"),
            QoS::AtMostOnce,
            false,
        )
        .unwrap();
        gw.publish(
            "davide/node03/temp/cpu0",
            payload("55"),
            QoS::AtMostOnce,
            false,
        )
        .unwrap(); // not bridged

        assert_eq!(bridge.pump(), 1);
        let m = site_agent.try_recv().unwrap();
        assert_eq!(&*m.topic, "rack0/davide/node03/power/node");
        assert_eq!(&m.payload[..], b"1700");
        assert!(site_agent.try_recv().is_none());
        assert_eq!(bridge.forwarded(), 1);
    }

    #[test]
    fn site_deliveries_share_the_bridge_topic_allocation() {
        let rack = Broker::default();
        let site = Broker::default();
        let mut bridge =
            Bridge::connect(&rack, &site, "rack0", &["davide/+/power/#"], Some("rack0")).unwrap();
        let mut agents: Vec<_> = (0..2)
            .map(|i| {
                let mut c = site.connect(format!("site-agent{i}"));
                c.subscribe("rack0/davide/#", QoS::AtMostOnce).unwrap();
                c
            })
            .collect();
        let gw = rack.connect("eg");
        for pumps in 0..2 {
            gw.publish_str("davide/node03/power/node", &pumps.to_string())
                .unwrap();
            assert_eq!(bridge.pump(), 1);
        }
        // Both frames, in both site sessions, carry the topic the
        // bridge cached on its first forward: no copy per frame.
        let got: Vec<Message> = agents.iter_mut().flat_map(|a| a.drain()).collect();
        assert_eq!(got.len(), 4);
        let cached = &bridge.topic_cache["davide/node03/power/node"];
        assert_eq!(&**cached, "rack0/davide/node03/power/node");
        for m in &got {
            assert!(Arc::ptr_eq(cached, &m.topic));
        }
    }

    #[test]
    fn pump_on_empty_source_is_zero() {
        let rack = Broker::default();
        let site = Broker::default();
        let mut bridge = Bridge::connect(&rack, &site, "b", &["#"], None).unwrap();
        assert_eq!(bridge.pump(), 0);
    }

    #[test]
    fn retained_status_survives_the_bridge() {
        let rack = Broker::default();
        let site = Broker::default();
        let mut bridge = Bridge::connect(&rack, &site, "r0", &["davide/+/status/#"], None).unwrap();
        let gw = rack.connect("eg");
        gw.publish(
            "davide/node00/status/powercap",
            payload("1500"),
            QoS::AtLeastOnce,
            true,
        )
        .unwrap();
        bridge.pump();
        // A late site-side subscriber still sees the value: the bridge
        // preserved the retain flag.
        let mut late = site.connect("late");
        late.subscribe("davide/+/status/#", QoS::AtMostOnce)
            .unwrap();
        let m = late.try_recv().expect("retained replay downstream");
        assert!(m.retain);
        assert_eq!(&m.payload[..], b"1500");
    }

    #[test]
    fn three_racks_fan_into_one_site_broker() {
        let site = Broker::default();
        let mut site_agent = site.connect("sched-plugin");
        site_agent
            .subscribe("+/davide/+/power/node", QoS::AtMostOnce)
            .unwrap();
        let mut bridges = Vec::new();
        let racks: Vec<Broker> = (0..3).map(|_| Broker::default()).collect();
        for (i, rack) in racks.iter().enumerate() {
            bridges.push(
                Bridge::connect(
                    rack,
                    &site,
                    &format!("rack{i}"),
                    &["davide/+/power/#"],
                    Some(&format!("rack{i}")),
                )
                .unwrap(),
            );
        }
        for (i, rack) in racks.iter().enumerate() {
            let gw = rack.connect("eg");
            gw.publish(
                &format!("davide/node{i:02}/power/node"),
                payload("1650"),
                QoS::AtMostOnce,
                false,
            )
            .unwrap();
        }
        let total: usize = bridges.iter_mut().map(|b| b.pump()).sum();
        assert_eq!(total, 3);
        let topics: Vec<String> = site_agent
            .drain()
            .into_iter()
            .map(|m| m.topic.to_string())
            .collect();
        assert_eq!(topics.len(), 3);
        assert!(topics.contains(&"rack1/davide/node01/power/node".to_string()));
    }

    #[test]
    fn dedup_skip_still_acknowledges() {
        // A live republish of the retained value that already crossed is
        // dropped by the pump, not only the replay after a restart.
        let rack = Broker::default();
        let site = Broker::default();
        let mut bridge = Bridge::connect(&rack, &site, "caps", &["fed/+/cap"], None).unwrap();
        let fed = rack.connect("federator");
        fed.publish("fed/rack00/cap", payload("7200"), QoS::AtLeastOnce, true)
            .unwrap();
        assert_eq!(bridge.pump(), 1);
        fed.publish("fed/rack00/cap", payload("7200"), QoS::AtLeastOnce, true)
            .unwrap();
        assert_eq!(bridge.pump(), 0, "identical retained value deduped");
    }

    #[test]
    fn invalid_filter_rejected_at_connect() {
        let a = Broker::default();
        let b = Broker::default();
        assert!(Bridge::connect(&a, &b, "x", &["bad/#/filter"], None).is_err());
    }

    #[test]
    fn disconnected_source_pumps_nothing_until_reconnect() {
        let rack = Broker::default();
        let site = Broker::default();
        let mut bridge = Bridge::connect(&rack, &site, "r0", &["davide/#"], None).unwrap();
        let mut down = site.connect("down");
        down.subscribe("davide/#", QoS::AtMostOnce).unwrap();

        bridge.disconnect_source();
        assert!(!bridge.source_connected());
        let gw = rack.connect("eg");
        gw.publish("davide/n0/x", payload("lost"), QoS::AtMostOnce, false)
            .unwrap();
        assert_eq!(bridge.pump(), 0, "no session, nothing to pump");

        bridge.reconnect_source().unwrap();
        assert!(bridge.source_connected());
        // The non-retained message published during the outage is gone
        // with the old session (MQTT semantics: lost, not duplicated).
        assert_eq!(bridge.pump(), 0);
        gw.publish("davide/n0/x", payload("live"), QoS::AtMostOnce, false)
            .unwrap();
        assert_eq!(bridge.pump(), 1);
        assert_eq!(&down.drain().pop().unwrap().payload[..], b"live");
    }

    #[test]
    fn forward_hook_sees_deduplicated_forwards_only() {
        use std::sync::{Arc, Mutex};
        let rack = Broker::default();
        let site = Broker::default();
        let mut bridge = Bridge::connect(&rack, &site, "caps", &["fed/+/cap"], None).unwrap();
        type Forwards = Vec<(String, Vec<u8>, bool)>;
        let seen: Arc<Mutex<Forwards>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        bridge.set_forward_hook(Some(Box::new(move |topic, payload, retain| {
            sink.lock()
                .unwrap()
                .push((topic.to_string(), payload.to_vec(), retain));
        })));

        let fed = rack.connect("federator");
        fed.publish("fed/rack00/cap", payload("7200 0"), QoS::AtLeastOnce, true)
            .unwrap();
        assert_eq!(bridge.pump(), 1);
        // The retained replay after a restart is deduplicated *before*
        // the hook: the observer must not see the grant twice.
        bridge.disconnect_source();
        bridge.reconnect_source().unwrap();
        assert_eq!(bridge.pump(), 0);

        let got = seen.lock().unwrap().clone();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, "fed/rack00/cap");
        assert_eq!(got[0].1, b"7200 0");
        assert!(got[0].2);
    }

    #[test]
    fn broker_restart_delivers_each_retained_message_exactly_once() {
        // The fault-coverage regression for federation's downlinks: a
        // retained cap grant must reach downstream exactly once across a
        // source-broker restart, even though the resubscribe replays it.
        let rack = Broker::default();
        let site = Broker::default();
        let mut bridge = Bridge::connect(&rack, &site, "caps", &["fed/+/cap"], None).unwrap();
        let mut down = site.connect("rack-ctl");
        down.subscribe("fed/+/cap", QoS::AtMostOnce).unwrap();

        let fed = rack.connect("federator");
        fed.publish("fed/rack00/cap", payload("7200"), QoS::AtLeastOnce, true)
            .unwrap();
        assert_eq!(bridge.pump(), 1);

        // Restart: the bridge's source session drops and comes back; the
        // resubscribe replays the retained grant into the new session.
        bridge.disconnect_source();
        bridge.reconnect_source().unwrap();
        assert_eq!(
            bridge.pump(),
            0,
            "retained replay of an already-forwarded value must not re-cross"
        );

        // A *new* grant value does cross, once, and further restarts
        // still replay only the latest value — also deduplicated.
        fed.publish("fed/rack00/cap", payload("6800"), QoS::AtLeastOnce, true)
            .unwrap();
        assert_eq!(bridge.pump(), 1);
        bridge.disconnect_source();
        bridge.reconnect_source().unwrap();
        bridge.disconnect_source();
        bridge.reconnect_source().unwrap();
        assert_eq!(bridge.pump(), 0);

        let got: Vec<_> = down.drain().into_iter().map(|m| m.payload).collect();
        assert_eq!(got.len(), 2, "one delivery per distinct grant: {got:?}");
        assert_eq!(&got[0][..], b"7200");
        assert_eq!(&got[1][..], b"6800");
    }
}
