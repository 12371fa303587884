//! # davide-mqtt
//!
//! A from-scratch, in-process MQTT 3.1.1-style broker — the
//! machine-to-machine (M2M) transport of the D.A.V.I.D.E. energy gateway
//! (§III-A1 of the paper): power samples are published on per-node,
//! per-component topics and fanned out to control agents, per-job
//! aggregators, profilers and accounting tools.
//!
//! * [`topic`] — topic-name/filter validation and `+`/`#` wildcard
//!   matching semantics (MQTT 3.1.1 §4.7, including the `$SYS` rule);
//! * [`codec`] — the real wire format (fixed headers, variable-length
//!   remaining-length, length-prefixed UTF-8), so every packet the broker
//!   handles can round-trip through bytes;
//! * [`broker`] — topic-trie subscription store, retained messages,
//!   QoS 0/1 with delivery/drop accounting, bounded per-subscriber queues;
//!   one lock guards the trie, the retained store and the obs
//!   instruments, and any thread may publish;
//! * [`client`] — the publish/subscribe handle used by gateways & agents;
//! * [`bridge`] — rack→site forwarding with QoS 1 ack-after-forward.
//!
//! QoS 1 state is tracked broker-side ([`Client::enable_qos1_tracking`]);
//! nothing here drives the protocol over a socket.

#![warn(missing_docs)]

pub mod bridge;
pub mod broker;
pub mod client;
pub mod codec;
pub mod topic;

pub use bridge::Bridge;
pub use broker::{
    Broker, BrokerError, BrokerObs, BrokerStats, FaultHook, Message, PublishFate,
    DEFAULT_QOS1_RETRIES, DEFAULT_QOS1_WINDOW,
};
pub use client::Client;
pub use codec::{CodecError, Packet, QoS};
