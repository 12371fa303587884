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
//!   bounded per-subscriber mailboxes with delivery/drop accounting; one
//!   lock guards the trie, the retained store and the obs instruments,
//!   and any thread may publish. A mailbox is a queue behind its own
//!   lock that holds only what is queued, so queue memory follows the
//!   backlog, not the depth;
//! * [`client`] — the publish/subscribe handle used by gateways & agents;
//! * [`bridge`] — rack→site forwarding that passes each distinct
//!   retained value across a source restart exactly once.
//!
//! Delivery has one mode: a message is enqueued once, at the minimum of
//! its publish and subscription QoS, and nothing is acknowledged or
//! re-sent. State that must survive a lost message or a restart is
//! published retained. Nothing here drives the protocol over a socket;
//! [`codec`] keeps the full wire format, PUBACK included.

#![warn(missing_docs)]

pub mod bridge;
pub mod broker;
pub mod client;
pub mod codec;
pub mod topic;

pub use bridge::Bridge;
pub use broker::{
    Broker, BrokerError, BrokerObs, BrokerStats, FaultHook, Message, PublishFate, PublishTopic,
};
pub use client::Client;
pub use codec::{CodecError, Packet, QoS};
