//! Client handle for the in-process broker.

use crate::broker::{Broker, BrokerError, Mailbox, Message, PublishTopic};
use crate::codec::QoS;
use bytes::Bytes;
use std::sync::Arc;

/// A connected MQTT client: publish from any thread, receive on this
/// handle. Delivery is synchronous: a publish has queued its messages
/// in every matching mailbox by the time it returns. Dropping the
/// handle disconnects.
pub struct Client {
    broker: Broker,
    id: u64,
    client_id: String,
    mailbox: Arc<Mailbox>,
    connected: bool,
}

impl Client {
    pub(crate) fn new(broker: Broker, id: u64, client_id: String, mailbox: Arc<Mailbox>) -> Self {
        Client {
            broker,
            id,
            client_id,
            mailbox,
            connected: true,
        }
    }

    /// The client-chosen identifier.
    pub fn client_id(&self) -> &str {
        &self.client_id
    }

    /// Publish `payload` on `topic`; returns the number of subscribers
    /// reached.
    pub fn publish(
        &self,
        topic: &str,
        payload: Bytes,
        qos: QoS,
        retain: bool,
    ) -> Result<usize, BrokerError> {
        self.broker.publish_batch(&[(topic, payload)], qos, retain)
    }

    /// Publish a batch of non-retained QoS 0 messages under one hold of
    /// the broker's state lock — the bulk path for telemetry frame
    /// fan-in. An installed fault hook is locked once more, before the
    /// state lock and never together with it. Topics are `&str`,
    /// `String` or a shared `Arc<str>` ([`PublishTopic`]). Returns the
    /// total subscriber deliveries across the batch.
    pub fn publish_batch<T: PublishTopic>(
        &self,
        msgs: &[(T, Bytes)],
    ) -> Result<usize, BrokerError> {
        self.broker.publish_batch(msgs, QoS::AtMostOnce, false)
    }

    /// [`publish_batch`](Self::publish_batch) at an explicit QoS and
    /// retain flag, for the bridge's forwards.
    pub(crate) fn publish_batch_as<T: PublishTopic>(
        &self,
        msgs: &[(T, Bytes)],
        qos: QoS,
        retain: bool,
    ) -> Result<usize, BrokerError> {
        self.broker.publish_batch(msgs, qos, retain)
    }

    /// Convenience: publish a UTF-8 string payload at QoS 0.
    pub fn publish_str(&self, topic: &str, payload: &str) -> Result<usize, BrokerError> {
        self.publish(
            topic,
            Bytes::copy_from_slice(payload.as_bytes()),
            QoS::AtMostOnce,
            false,
        )
    }

    /// Subscribe this client to `filter` at `qos`.
    pub fn subscribe(&mut self, filter: &str, qos: QoS) -> Result<(), BrokerError> {
        self.broker.subscribe(self.id, filter, qos)
    }

    /// Remove a subscription.
    pub fn unsubscribe(&mut self, filter: &str) -> Result<(), BrokerError> {
        self.broker.unsubscribe(self.id, filter)
    }

    /// The oldest queued message, if any.
    pub fn try_recv(&mut self) -> Option<Message> {
        self.mailbox.pop()
    }

    /// Take everything queued, in arrival order, under one lock hold.
    pub fn drain(&mut self) -> Vec<Message> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// [`drain`](Self::drain) onto the end of `out`: a consumer that
    /// reuses one buffer drains without allocating once it has grown
    /// to the largest backlog.
    pub fn drain_into(&mut self, out: &mut Vec<Message>) {
        self.mailbox.drain_into(out);
    }

    /// Number of messages waiting in this client's mailbox: exact, read
    /// under its lock.
    pub fn pending(&self) -> usize {
        self.mailbox.len()
    }

    /// Explicit disconnect (also happens on drop).
    pub fn disconnect(&mut self) {
        if self.connected {
            self.broker.disconnect(self.id);
            self.connected = false;
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.disconnect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_str_and_drain() {
        let broker = Broker::default();
        let mut sub = broker.connect("a");
        sub.subscribe("x/#", QoS::AtMostOnce).unwrap();
        let publ = broker.connect("b");
        for i in 0..5 {
            publ.publish_str(&format!("x/{i}"), "v").unwrap();
        }
        assert_eq!(sub.pending(), 5);
        let all = sub.drain();
        assert_eq!(all.len(), 5);
        assert_eq!(sub.pending(), 0);
    }

    #[test]
    fn drop_disconnects() {
        let broker = Broker::default();
        {
            let _c = broker.connect("ephemeral");
            assert_eq!(broker.client_count(), 1);
        }
        assert_eq!(broker.client_count(), 0);
    }

    #[test]
    fn client_id_accessible() {
        let broker = Broker::default();
        let c = broker.connect("eg-node07");
        assert_eq!(c.client_id(), "eg-node07");
    }
}
