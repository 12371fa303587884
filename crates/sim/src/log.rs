//! The structured event log — the determinism artifact.
//!
//! Every externally meaningful thing the harness does (frame fates,
//! applied speed commands, placements, completions, fault lifecycle)
//! is appended as an [`Event`] with its virtual-time nanosecond stamp.
//! Floats are logged by their IEEE-754 bit patterns, so `EventLog`
//! equality is *bit* equality and a 64-bit FNV-1a [`digest`] of the
//! `Debug` rendering summarises a whole run in one number: same seed →
//! same digest, different seed → (overwhelmingly) different digest.
//!
//! [`digest`]: EventLog::digest

use davide_obs::Fnv1a;

/// What happened to one published (or suppressed) gateway frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Delivered on time through the broker.
    Delivered,
    /// Dropped in transit by a [`FrameLoss`](crate::Fault::FrameLoss)
    /// coin flip.
    Lost,
    /// Delivered twice by a [`Duplicate`](crate::Fault::Duplicate) coin
    /// flip.
    Duplicated,
    /// Held back by a [`Reorder`](crate::Fault::Reorder) coin flip; a
    /// `DeliveredLate` event follows when it lands.
    Delayed,
    /// A previously delayed frame delivered out of order.
    DeliveredLate,
    /// Suppressed: the gateway is inside a
    /// [`Dropout`](crate::Fault::Dropout) window.
    Dropout,
    /// Suppressed: the node is dead.
    Dead,
    /// Suppressed: the broker is down and the gateway's session with it
    /// is gone.
    BrokerDown,
}

/// One log record. Timestamps are virtual nanoseconds; floats are
/// carried as `to_bits()` so equality is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A gateway frame was (or would have been) published.
    Frame {
        /// Virtual time, ns.
        t_ns: u64,
        /// Publishing gateway.
        node: u32,
        /// Reported frame start time, `f64::to_bits`.
        t0_bits: u64,
        /// Samples in the frame.
        n: u32,
        /// What the fault layer did with it.
        fate: FrameFate,
    },
    /// The plant applied a DVFS speed command.
    Speed {
        /// Virtual time, ns.
        t_ns: u64,
        /// Target node.
        node: u32,
        /// Applied speed factor, `f64::to_bits`.
        speed_bits: u64,
        /// True when applied from the retained replay on reconnect
        /// rather than a live controller action.
        replayed: bool,
    },
    /// The dispatcher started a job.
    Place {
        /// Virtual time, ns.
        t_ns: u64,
        /// Job id.
        job: u64,
        /// Allocated nodes.
        nodes: Vec<u32>,
    },
    /// A job ran to normal completion on the plant.
    Complete {
        /// Virtual time, ns.
        t_ns: u64,
        /// Job id.
        job: u64,
    },
    /// A job was aborted because a node under it died.
    Abort {
        /// Virtual time, ns.
        t_ns: u64,
        /// Job id.
        job: u64,
        /// The dead node that killed it.
        node: u32,
    },
    /// A node died.
    NodeDown {
        /// Virtual time, ns.
        t_ns: u64,
        /// Node id.
        node: u32,
    },
    /// A dead node rejoined.
    NodeUp {
        /// Virtual time, ns.
        t_ns: u64,
        /// Node id.
        node: u32,
    },
    /// The broker went down; node-agent sessions dropped.
    BrokerDown {
        /// Virtual time, ns.
        t_ns: u64,
    },
    /// The broker came back; agents resubscribed and received the
    /// retained replay.
    BrokerUp {
        /// Virtual time, ns.
        t_ns: u64,
        /// Retained messages replayed into the reconnecting session.
        replayed: u32,
    },
    /// A gateway clock stepped.
    ClockStep {
        /// Virtual time, ns.
        t_ns: u64,
        /// Affected gateway.
        node: u32,
        /// Step size, `f64::to_bits`.
        offset_bits: u64,
    },
    /// A federated power-budget grant reached this rack's control plane
    /// and was applied as its new cap. Only federated runs emit this;
    /// single-rack logs (and their pinned digests) never contain it.
    CapApplied {
        /// Virtual time, ns.
        t_ns: u64,
        /// Applied cap, watts, `f64::to_bits`.
        cap_bits: u64,
    },
    /// The federator re-split the global budget and granted one rack a
    /// new cap. Appears in the federation log, not in rack logs.
    FedRebalance {
        /// Virtual time, ns.
        t_ns: u64,
        /// Granted rack.
        rack: u32,
        /// Granted cap, watts, `f64::to_bits`.
        cap_bits: u64,
    },
}

/// Append-only run log with a content digest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Records so far, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Record count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// 64-bit FNV-1a over the `Debug` rendering of every record. Two
    /// runs of the same scenario must produce equal digests; this is
    /// the one number CI compares.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for e in &self.events {
            h.write(format!("{e:?}\n").as_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = Event::Frame {
            t_ns: 5_000_000_000,
            node: 1,
            t0_bits: 0.0f64.to_bits(),
            n: 5,
            fate: FrameFate::Delivered,
        };
        let b = Event::Complete {
            t_ns: 10_000_000_000,
            job: 7,
        };
        let mut l1 = EventLog::new();
        l1.push(a.clone());
        l1.push(b.clone());
        let mut l2 = EventLog::new();
        l2.push(a.clone());
        l2.push(b.clone());
        assert_eq!(l1, l2);
        assert_eq!(l1.digest(), l2.digest());

        let mut swapped = EventLog::new();
        swapped.push(b);
        swapped.push(a);
        assert_ne!(l1.digest(), swapped.digest(), "order matters");
        assert_ne!(l1, swapped);
        assert_ne!(EventLog::new().digest(), l1.digest());
        assert!(EventLog::new().is_empty());
        assert_eq!(l1.len(), 2);
    }
}
