//! Client handle for the in-process broker.

use crate::broker::{Broker, BrokerError, Message};
use crate::codec::QoS;
use bytes::Bytes;
use crossbeam::channel::Receiver;
use std::time::Duration;

/// A connected MQTT client: publish from any thread, receive on this
/// handle. Dropping the handle disconnects.
pub struct Client {
    broker: Broker,
    id: u64,
    client_id: String,
    rx: Receiver<Message>,
    connected: bool,
}

impl Client {
    pub(crate) fn new(broker: Broker, id: u64, client_id: String, rx: Receiver<Message>) -> Self {
        Client {
            broker,
            id,
            client_id,
            rx,
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
    /// state lock and never together with it. Returns the total
    /// subscriber deliveries across the batch.
    pub fn publish_batch<T: AsRef<str>>(&self, msgs: &[(T, Bytes)]) -> Result<usize, BrokerError> {
        self.broker.publish_batch(msgs, QoS::AtMostOnce, false)
    }

    /// [`publish_batch`](Self::publish_batch) at an explicit QoS and
    /// retain flag, for the bridge's forwards.
    pub(crate) fn publish_batch_as<T: AsRef<str>>(
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

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<Message> {
        self.rx.try_recv().ok()
    }

    /// Blocking receive with timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<Message> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Blocking receive.
    pub fn recv(&mut self) -> Option<Message> {
        self.rx.recv().ok()
    }

    /// Drain everything currently queued.
    pub fn drain(&mut self) -> Vec<Message> {
        let mut out = Vec::new();
        while let Ok(m) = self.rx.try_recv() {
            out.push(m);
        }
        out
    }

    /// Number of messages waiting in this client's queue.
    pub fn pending(&self) -> usize {
        self.rx.len()
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
