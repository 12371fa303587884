//! The in-process MQTT broker.
//!
//! D.A.V.I.D.E.'s energy gateways publish power samples over MQTT so that
//! *multiple agents* — in-node control agents, per-job aggregators,
//! profilers and accounting — can consume the same stream with low
//! latency (§III-A1). This broker provides those semantics in-process:
//! a topic-trie subscription store with `+`/`#` wildcards, retained
//! messages and per-subscriber bounded queues with drop accounting (a
//! slow profiler must not stall the control agents).
//!
//! # Mailboxes
//!
//! Each client's queue is a broker-owned mailbox: a `VecDeque` behind
//! a lock of its own, which refuses a push at the broker's queue
//! depth. Nothing is allocated up front, so queue memory follows the
//! backlog a subscriber actually builds, not `clients × depth`. A
//! receiver takes only its mailbox lock, once per
//! [`Client::drain_into`], and the publish path takes it under the
//! state lock: the lock order is always state → mailbox.
//!
//! # One delivery mode
//!
//! Every delivery is a single enqueue. A message carries the QoS it was
//! delivered at — the minimum of the publish and subscription QoS — but
//! the broker keeps no packet ids, in-flight window or retransmission
//! state: a message a full queue cannot take is dropped and counted.
//! State that must outlive a lost delivery or a broker restart (cap
//! grants, control set-points) is published retained, and a
//! (re)subscribe replays it.
//!
//! # One lock
//!
//! Everything a publish reads or writes — the subscription trie, the
//! retained store and the optional [`BrokerObs`] — sits behind one
//! mutex. A publish (or a whole [`Client::publish_batch`]) takes it
//! once, after the fault hook has drawn every fate under the hook's own
//! lock, which is never held together with the state lock. Fan-out is
//! deterministic: matches are visited in trie order, and the fault hook
//! sees one call per message in submission order. Connection
//! bookkeeping has a lock of its own, off the publish path.
//!
//! # Once per message
//!
//! A published message's topic is allocated once, as an `Arc<str>`
//! that every delivery and the retained copy share; a publisher that
//! already holds the topic as an `Arc<str>` (the bridge) hands that
//! one over ([`PublishTopic`]). Its trace id and per-topic instruments
//! are resolved once, when the batch is counted as published, and its
//! deliveries and drops are counted once per fan-out; the batch's
//! trace stamps go in with one tracer lock per stage.
//!
//! [`Client::publish_batch`]: super::client::Client::publish_batch
//! [`Client::drain_into`]: super::client::Client::drain_into

use crate::codec::QoS;
use crate::topic::{filter_matches, validate_filter, validate_topic, TopicError};
use bytes::Bytes;
use davide_obs::{frame_trace_id, Counter, Gauge, ObsHub, Stage};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// An application message as delivered to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Topic it was published on: one allocation per published message,
    /// shared by every delivery of it and by its retained copy.
    pub topic: Arc<str>,
    /// Payload bytes.
    pub payload: Bytes,
    /// Delivery QoS (min of publish and subscription QoS).
    pub qos: QoS,
    /// True when replayed from the retained store.
    pub retain: bool,
}

/// Broker-side errors.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerError {
    /// Invalid topic or filter string.
    Topic(TopicError),
    /// Operation on a client id the broker does not know.
    UnknownClient(u64),
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::Topic(e) => write!(f, "{e}"),
            BrokerError::UnknownClient(id) => write!(f, "unknown client {id}"),
        }
    }
}

impl std::error::Error for BrokerError {}

impl From<TopicError> for BrokerError {
    fn from(e: TopicError) -> Self {
        BrokerError::Topic(e)
    }
}

/// A topic a publisher hands to [`Client::publish_batch`]. The broker
/// shares one `Arc<str>` per published message across its deliveries
/// and retained copy; an `Arc<str>` topic is that allocation already,
/// while borrowed or owned text is copied into one.
///
/// [`Client::publish_batch`]: super::client::Client::publish_batch
pub trait PublishTopic: AsRef<str> {
    /// The topic as the allocation its deliveries share.
    fn to_shared(&self) -> Arc<str> {
        Arc::from(self.as_ref())
    }
}

impl PublishTopic for &str {}

impl PublishTopic for String {}

impl PublishTopic for Arc<str> {
    fn to_shared(&self) -> Arc<str> {
        Arc::clone(self)
    }
}

/// One client's bounded FIFO queue, owned by the broker and shared by
/// `Arc` between the client, its connection record and its trie
/// entries. It holds only what is queued: capacity grows with the
/// backlog (and keeps its high-water mark for reuse), never with the
/// depth.
#[derive(Debug)]
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<Message>>,
    depth: usize,
}

impl Mailbox {
    fn new(depth: usize) -> Self {
        Mailbox {
            queue: Mutex::new(VecDeque::new()),
            depth,
        }
    }

    /// Queue `m`; false, with `m` dropped, when the mailbox is at its
    /// depth.
    fn push(&self, m: Message) -> bool {
        let mut q = self.queue.lock();
        let room = q.len() < self.depth;
        if room {
            q.push_back(m);
        }
        room
    }

    /// The oldest queued message.
    pub(crate) fn pop(&self) -> Option<Message> {
        self.queue.lock().pop_front()
    }

    /// Move everything queued onto the end of `out`, in FIFO order,
    /// under one lock hold.
    pub(crate) fn drain_into(&self, out: &mut Vec<Message>) {
        let mut q = self.queue.lock();
        out.reserve(q.len());
        out.extend(q.drain(..));
    }

    /// Messages queued now.
    pub(crate) fn len(&self) -> usize {
        self.queue.lock().len()
    }
}

#[derive(Debug)]
struct SubEntry {
    client: u64,
    qos: QoS,
    /// The subscriber's mailbox, stored in the trie entry so fan-out
    /// never has to consult a global client table.
    mailbox: Arc<Mailbox>,
}

/// Subscription trie node: one level of the topic hierarchy.
#[derive(Debug, Default)]
struct TrieNode {
    children: HashMap<String, TrieNode>,
    plus: Option<Box<TrieNode>>,
    /// Subscriptions whose filter ends exactly at this node.
    subs: Vec<SubEntry>,
    /// Subscriptions whose filter is `<this node>/#`.
    hash_subs: Vec<SubEntry>,
}

impl TrieNode {
    fn insert(&mut self, levels: &[&str], entry: SubEntry) {
        match levels.split_first() {
            None => self.subs.push(entry),
            Some((&"#", _)) => self.hash_subs.push(entry),
            Some((&"+", rest)) => self
                .plus
                .get_or_insert_with(Default::default)
                .insert(rest, entry),
            Some((&level, rest)) => self
                .children
                .entry(level.to_string())
                .or_default()
                .insert(rest, entry),
        }
    }

    fn remove(&mut self, levels: &[&str], client: u64) {
        match levels.split_first() {
            None => self.subs.retain(|s| s.client != client),
            Some((&"#", _)) => self.hash_subs.retain(|s| s.client != client),
            Some((&"+", rest)) => {
                if let Some(p) = &mut self.plus {
                    p.remove(rest, client);
                }
            }
            Some((&level, rest)) => {
                if let Some(c) = self.children.get_mut(level) {
                    c.remove(rest, client);
                }
            }
        }
    }

    fn remove_client(&mut self, client: u64) {
        self.subs.retain(|s| s.client != client);
        self.hash_subs.retain(|s| s.client != client);
        if let Some(p) = &mut self.plus {
            p.remove_client(client);
        }
        for c in self.children.values_mut() {
            c.remove_client(client);
        }
    }

    /// Visit every subscription matching the topic levels, in the same
    /// traversal order the old collect-then-deliver path used:
    /// `#`-subscriptions at each node first, then exact matches, then
    /// literal children before the `+` branch.
    fn for_each_match(&self, levels: &[&str], skip_wildcards: bool, f: &mut impl FnMut(&SubEntry)) {
        // A `parent/#` filter also matches `parent` itself.
        if !skip_wildcards {
            for s in &self.hash_subs {
                f(s);
            }
        }
        match levels.split_first() {
            None => {
                for s in &self.subs {
                    f(s);
                }
            }
            Some((&level, rest)) => {
                if let Some(c) = self.children.get(level) {
                    c.for_each_match(rest, false, f);
                }
                if !skip_wildcards {
                    if let Some(p) = &self.plus {
                        p.for_each_match(rest, false, f);
                    }
                }
            }
        }
    }
}

/// Everything the publish path touches, behind the broker's one lock.
#[derive(Debug, Default)]
struct State {
    trie: TrieNode,
    retained: HashMap<Arc<str>, Message>,
    obs: Option<BrokerObs>,
}

/// Topic levels split onto the stack; deeper topics spill to the heap.
const STACK_LEVELS: usize = 16;

/// Run `f` over `topic` split at `/`, with no heap allocation for a
/// topic of up to [`STACK_LEVELS`] levels.
fn with_levels<R>(topic: &str, f: impl FnOnce(&[&str]) -> R) -> R {
    let mut stack = [""; STACK_LEVELS];
    let mut n = 0;
    for level in topic.split('/') {
        if n == STACK_LEVELS {
            return f(&topic.split('/').collect::<Vec<_>>());
        }
        stack[n] = level;
        n += 1;
    }
    f(&stack[..n])
}

/// One message of a batch on its way to the subscribers.
struct Outgoing<'a, T> {
    /// Position in the batch: indexes the instruments `on_publish`
    /// resolved for it.
    i: usize,
    topic: &'a T,
    /// The topic allocation its deliveries and retained copy share,
    /// taken on first use.
    shared: Option<Arc<str>>,
    payload: &'a Bytes,
    qos: QoS,
    retain: bool,
}

impl<T: PublishTopic> Outgoing<'_, T> {
    fn topic(&self) -> &str {
        self.topic.as_ref()
    }

    fn shared_topic(&mut self) -> Arc<str> {
        self.shared
            .get_or_insert_with(|| self.topic.to_shared())
            .clone()
    }
}

impl State {
    /// One fan-out of `m` with the lock held: the retained-store update,
    /// then one mailbox push per matching subscription in trie order.
    /// Returns the pushes made and the deliveries a full mailbox
    /// dropped.
    fn fan_out<T: PublishTopic>(
        &mut self,
        m: &mut Outgoing<'_, T>,
        levels: &[&str],
    ) -> (usize, usize) {
        if m.retain {
            if m.payload.is_empty() {
                // Empty retained payload clears the retained message.
                self.retained.remove(m.topic());
            } else {
                let copy = Message {
                    topic: m.shared_topic(),
                    payload: m.payload.clone(),
                    qos: m.qos,
                    retain: true,
                };
                self.retained.insert(m.shared_topic(), copy);
            }
            if let Some(o) = self.obs.as_mut() {
                o.on_retained(m.i, !m.payload.is_empty(), self.retained.len());
            }
        }
        // $-topics suppress wildcards at the root level only.
        let skip_wild_at_root = m.topic().starts_with('$');
        let (mut ok, mut lost) = (0, 0);
        self.trie
            .for_each_match(levels, skip_wild_at_root, &mut |s| {
                // "Retain as published" (the MQTT 5 RAP behaviour): live
                // deliveries carry the publisher's retain flag so bridges can
                // preserve retained state downstream.
                let delivery = Message {
                    topic: m.shared_topic(),
                    payload: m.payload.clone(),
                    qos: m.qos.min(s.qos),
                    retain: m.retain,
                };
                if s.mailbox.push(delivery) {
                    ok += 1;
                } else {
                    lost += 1;
                }
            });
        (ok, lost)
    }
}

/// Connection-level bookkeeping, off the publish hot path: touched only
/// by connect, disconnect, subscribe and unsubscribe.
#[derive(Debug)]
struct ClientInfo {
    mailbox: Arc<Mailbox>,
    filters: HashSet<String>,
}

/// Delivery statistics, exposed on the `$SYS` topics of a real broker.
/// Fault-injection counts (injected drops/dups) live in the metrics
/// registry via [`BrokerObs`], not here. All counters are atomics so
/// `stats()` reads never take the broker lock.
#[derive(Debug, Default)]
pub struct BrokerStats {
    /// PUBLISH packets accepted.
    pub published: AtomicU64,
    /// Messages queued in subscriber mailboxes.
    pub delivered: AtomicU64,
    /// Messages dropped because a subscriber mailbox was full.
    pub dropped: AtomicU64,
}

/// Per-topic delivery instruments, registered lazily on first sight of
/// a topic (obs self-telemetry topics are excluded to bound
/// cardinality — counting them would mint new metrics for every metric,
/// a feedback loop).
struct TopicObs {
    published: Counter,
    delivered: Counter,
    retained: Gauge,
}

/// Broker-side observability: global and per-topic delivery counters,
/// fault-injection counters, and causal-trace stamps for telemetry
/// frames — all registered in the [`ObsHub`]'s metrics registry.
///
/// Installed with [`Broker::set_obs`]; brokers without one skip every
/// instrument.
pub struct BrokerObs {
    hub: ObsHub,
    /// Payload prefix identifying a telemetry `SampleFrame`; only such
    /// publishes are causally traced. `None` disables tracing.
    frame_magic: Option<Vec<u8>>,
    published: Counter,
    delivered: Counter,
    dropped: Counter,
    injected_drops: Counter,
    injected_dups: Counter,
    retained_total: Gauge,
    /// Topic → its instruments in `topics`.
    per_topic: HashMap<String, usize>,
    topics: Vec<TopicObs>,
    /// The batch in flight, per message: its trace id (traced frames
    /// only) and its per-topic instruments, resolved once by
    /// `on_publish` and read by the fan-out.
    batch: Vec<(Option<u64>, Option<usize>)>,
    /// Trace ids of the batch's messages that reached a subscriber, in
    /// message order.
    delivered_ids: Vec<u64>,
}

impl BrokerObs {
    /// Broker instruments registered in `hub`'s registry. Publishes
    /// whose payload starts with `frame_magic` get [`Stage`] trace
    /// stamps (publish + deliver).
    pub fn new(hub: &ObsHub, frame_magic: Option<&[u8]>) -> Self {
        let r = &hub.registry;
        BrokerObs {
            hub: hub.clone(),
            frame_magic: frame_magic.map(|m| m.to_vec()),
            published: r.counter("mqtt_published_total"),
            delivered: r.counter("mqtt_delivered_total"),
            dropped: r.counter("mqtt_dropped_total"),
            injected_drops: r.counter("mqtt_injected_drops_total"),
            injected_dups: r.counter("mqtt_injected_dups_total"),
            retained_total: r.gauge("mqtt_retained_messages"),
            per_topic: HashMap::new(),
            topics: Vec::new(),
            batch: Vec::new(),
            delivered_ids: Vec::new(),
        }
    }

    fn traceable(&self, topic: &str, payload: &[u8]) -> bool {
        match &self.frame_magic {
            Some(m) => payload.starts_with(m) && !topic.starts_with("davide/obs/"),
            None => false,
        }
    }

    /// The per-topic instruments of `topic`, registered on first sight.
    fn topic_index(&mut self, topic: &str) -> Option<usize> {
        if topic.starts_with("davide/obs/") {
            return None;
        }
        if let Some(&i) = self.per_topic.get(topic) {
            return Some(i);
        }
        let r = &self.hub.registry;
        self.topics.push(TopicObs {
            published: r.counter(&format!("mqtt_topic_published{{topic=\"{topic}\"}}")),
            delivered: r.counter(&format!("mqtt_topic_delivered{{topic=\"{topic}\"}}")),
            retained: r.gauge(&format!("mqtt_topic_retained{{topic=\"{topic}\"}}")),
        });
        self.per_topic
            .insert(topic.to_string(), self.topics.len() - 1);
        Some(self.topics.len() - 1)
    }

    /// Stamp `stage` on `ids` at one clock read, under one tracer lock.
    fn stamp(&self, stage: Stage, ids: impl IntoIterator<Item = u64>) {
        let mut ids = ids.into_iter().peekable();
        if ids.peek().is_some() {
            let now = self.hub.clock.now_s();
            self.hub.tracer.stamp_batch(stage, now, ids);
        }
    }

    /// Count every message of a batch as published and stamp the traced
    /// ones; each message's trace id and per-topic instruments are
    /// resolved here, once, for the fan-out.
    fn on_publish<T: AsRef<str>>(&mut self, msgs: &[(T, Bytes)]) {
        self.published.add(msgs.len() as u64);
        self.batch.clear();
        self.delivered_ids.clear();
        for (topic, payload) in msgs {
            let topic = topic.as_ref();
            let trace = self
                .traceable(topic, payload)
                .then(|| frame_trace_id(topic, payload));
            let t = self.topic_index(topic);
            if let Some(t) = t {
                self.topics[t].published.inc();
            }
            self.batch.push((trace, t));
        }
        self.stamp(
            Stage::BrokerPublish,
            self.batch.iter().filter_map(|&(trace, _)| trace),
        );
    }

    /// Batch message `i` was fanned out (twice for a duplicate):
    /// `delivered` enqueues and `dropped` full-queue losses in all.
    fn on_fan_out(&mut self, i: usize, delivered: u64, dropped: u64) {
        let (trace, t) = self.batch[i];
        if delivered > 0 {
            self.delivered.add(delivered);
            if let Some(t) = t {
                self.topics[t].delivered.add(delivered);
            }
            self.delivered_ids.extend(trace);
        }
        if dropped > 0 {
            self.dropped.add(dropped);
        }
    }

    /// Stamp every delivered trace of the batch.
    fn on_batch_delivered(&self) {
        self.stamp(Stage::SessionDeliver, self.delivered_ids.iter().copied());
    }

    fn on_retained(&mut self, i: usize, present: bool, total: usize) {
        self.retained_total.set(total as f64);
        if let Some(t) = self.batch[i].1 {
            self.topics[t].retained.set(if present { 1.0 } else { 0.0 });
        }
    }
}

impl std::fmt::Debug for BrokerObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerObs")
            .field("topics", &self.per_topic.len())
            .finish_non_exhaustive()
    }
}

/// Verdict returned by a [fault hook](Broker::set_fault_hook) for one
/// PUBLISH: deliver it normally, silently lose it (a lossy link between
/// the energy gateway and the broker), or deliver it twice (a QoS 1
/// retransmission whose original was not actually lost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishFate {
    /// Normal fan-out.
    Deliver,
    /// The packet never reaches the broker: no retained-store update,
    /// no delivery. Counted in `mqtt_injected_drops_total` ([`BrokerObs`]).
    Drop,
    /// The packet is processed twice back-to-back (duplicate QoS 1
    /// delivery). Counted once in `mqtt_injected_dups_total` ([`BrokerObs`]).
    Duplicate,
}

/// A fault-injection hook consulted once per PUBLISH, before any broker
/// state is touched. Deterministic harnesses install closures driven by
/// a seeded RNG. The hook is a single global sequence point: it sees one
/// call per publish, in submission order.
pub type FaultHook = Box<dyn FnMut(&str) -> PublishFate + Send>;

/// The broker: cheaply cloneable handle, safe to share across threads.
///
/// ```
/// use davide_mqtt::{Broker, QoS};
/// use bytes::Bytes;
///
/// let broker = Broker::default();
/// let mut agent = broker.connect("accounting");
/// agent.subscribe("davide/+/power/#", QoS::AtMostOnce).unwrap();
/// let gw = broker.connect("eg-node00");
/// let reached = gw
///     .publish("davide/node00/power/node", Bytes::from_static(b"1700"), QoS::AtMostOnce, false)
///     .unwrap();
/// assert_eq!(reached, 1);
/// assert_eq!(&agent.try_recv().unwrap().payload[..], b"1700");
/// ```
#[derive(Clone)]
pub struct Broker {
    state: Arc<Mutex<State>>,
    /// Connection table, off the publish path entirely.
    clients: Arc<Mutex<HashMap<u64, ClientInfo>>>,
    stats: Arc<BrokerStats>,
    // Kept outside the state so a hook can never deadlock against the
    // state lock, and so the hook sees one global call sequence.
    fault: Arc<Mutex<Option<FaultHook>>>,
    fault_installed: Arc<AtomicBool>,
    next_client: Arc<AtomicU64>,
    queue_depth: usize,
}

/// Default per-subscriber queue depth: sized for one second of decimated
/// EG samples (50 kS/s) so a briefly-stalled agent loses nothing.
pub const DEFAULT_QUEUE_DEPTH: usize = 65_536;

impl Default for Broker {
    fn default() -> Self {
        Self::new(DEFAULT_QUEUE_DEPTH)
    }
}

impl Broker {
    /// New broker with the given per-subscriber queue depth.
    pub fn new(queue_depth: usize) -> Self {
        assert!(queue_depth > 0);
        Broker {
            state: Arc::new(Mutex::new(State::default())),
            clients: Arc::new(Mutex::new(HashMap::new())),
            stats: Arc::new(BrokerStats::default()),
            fault: Arc::new(Mutex::new(None)),
            fault_installed: Arc::new(AtomicBool::new(false)),
            next_client: Arc::new(AtomicU64::new(1)),
            queue_depth,
        }
    }

    /// Install (or clear) the broker's observability instruments; see
    /// [`BrokerObs`].
    pub fn set_obs(&self, obs: Option<BrokerObs>) {
        self.state.lock().obs = obs;
    }

    /// Install (or clear, with `None`) a fault-injection hook consulted
    /// once per PUBLISH with the topic; see [`PublishFate`]. The hook
    /// runs before the retained store or any subscriber queue is
    /// touched, so a dropped packet leaves no trace beyond the
    /// injected-drops counter.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        let installed = hook.is_some();
        *self.fault.lock() = hook;
        self.fault_installed.store(installed, Ordering::Release);
    }

    /// The retained payload currently stored for `topic`, if any.
    /// Checkers use this to compare the broker's durable command state
    /// against what the plant actually applied.
    pub fn retained_get(&self, topic: &str) -> Option<Bytes> {
        self.state
            .lock()
            .retained
            .get(topic)
            .map(|m| m.payload.clone())
    }

    /// Connect a client with an empty mailbox of the broker's queue
    /// depth; returns its handle.
    pub fn connect(&self, client_id: impl Into<String>) -> super::client::Client {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let mailbox = Arc::new(Mailbox::new(self.queue_depth));
        self.clients.lock().insert(
            id,
            ClientInfo {
                mailbox: Arc::clone(&mailbox),
                filters: HashSet::new(),
            },
        );
        super::client::Client::new(self.clone(), id, client_id.into(), mailbox)
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &BrokerStats {
        &self.stats
    }

    /// Number of connected clients.
    pub fn client_count(&self) -> usize {
        self.clients.lock().len()
    }

    /// Number of retained messages held.
    pub fn retained_count(&self) -> usize {
        self.state.lock().retained.len()
    }

    /// Number of live subscriptions (distinct client/filter pairs).
    pub fn subscription_count(&self) -> usize {
        self.clients.lock().values().map(|c| c.filters.len()).sum()
    }

    pub(crate) fn disconnect(&self, client: u64) {
        self.clients.lock().remove(&client);
        // Cold path: sweep the whole trie rather than replaying the
        // filter list, so stale entries can never survive.
        self.state.lock().trie.remove_client(client);
    }

    pub(crate) fn subscribe(&self, client: u64, filter: &str, qos: QoS) -> Result<(), BrokerError> {
        validate_filter(filter)?;
        let mailbox = {
            let mut cl = self.clients.lock();
            let info = cl
                .get_mut(&client)
                .ok_or(BrokerError::UnknownClient(client))?;
            info.filters.insert(filter.to_string());
            Arc::clone(&info.mailbox)
        };
        let levels: Vec<&str> = filter.split('/').collect();
        // The trie update and the retained snapshot happen under one
        // lock hold, so a concurrent retained publish is either replayed
        // or live-delivered — never both.
        let mut matches: Vec<Message> = {
            let mut st = self.state.lock();
            // Replace any existing subscription by this client on the
            // filter.
            st.trie.remove(&levels, client);
            st.trie.insert(
                &levels,
                SubEntry {
                    client,
                    qos,
                    mailbox: Arc::clone(&mailbox),
                },
            );
            st.retained
                .values()
                .filter(|m| filter_matches(filter, &m.topic))
                .cloned()
                .collect()
        };
        // Replay retained messages matching the new filter, in topic
        // order — the map iterates in per-process random order, and
        // replay order must not leak that nondeterminism to sessions.
        // The state lock is released: the pushes take only the mailbox.
        matches.sort_unstable_by(|a, b| a.topic.cmp(&b.topic));
        for mut m in matches {
            m.retain = true;
            m.qos = m.qos.min(qos);
            let counter = if mailbox.push(m) {
                &self.stats.delivered
            } else {
                &self.stats.dropped
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    pub(crate) fn unsubscribe(&self, client: u64, filter: &str) -> Result<(), BrokerError> {
        validate_filter(filter)?;
        if let Some(info) = self.clients.lock().get_mut(&client) {
            info.filters.remove(filter);
        }
        let levels: Vec<&str> = filter.split('/').collect();
        self.state.lock().trie.remove(&levels, client);
        Ok(())
    }

    /// Publish `msgs` in slice order, each at `qos` with the `retain`
    /// flag; returns the total number of subscriber deliveries. A
    /// single publish is the one-message batch.
    ///
    /// Every message gets the full per-publish semantics — topic
    /// validation, the `published` stat, [`BrokerObs::on_publish`], one
    /// fault-hook fate, retained-store update and fan-out — but the
    /// batch takes the fault-hook lock (when a hook is installed) and
    /// the state lock once each, never both at the same time. The order
    /// is fixed: validate every topic, draw every fate, call every
    /// `on_publish`, then fan each message out in trie order. A
    /// delivery is one mailbox push at `min(qos, subscription QoS)`;
    /// nothing about it is kept once it is queued or dropped.
    ///
    /// Errors on the first invalid topic, before any message is
    /// published.
    pub(crate) fn publish_batch<T: PublishTopic>(
        &self,
        msgs: &[(T, Bytes)],
        qos: QoS,
        retain: bool,
    ) -> Result<usize, BrokerError> {
        for (topic, _) in msgs {
            validate_topic(topic.as_ref())?;
        }
        self.stats
            .published
            .fetch_add(msgs.len() as u64, Ordering::Relaxed);
        // Fault injection: decide every packet's fate before touching
        // any broker state, under the hook lock alone. The hook sees
        // one call per message, in submission order.
        let fates: Vec<PublishFate> = if self.fault_installed.load(Ordering::Acquire) {
            self.fault.lock().as_mut().map_or_else(Vec::new, |hook| {
                msgs.iter().map(|(topic, _)| hook(topic.as_ref())).collect()
            })
        } else {
            Vec::new()
        };
        let mut st = self.state.lock();
        // The all-publishes-then-deliveries order observable through
        // the frame tracer: count every message as published before any
        // is fanned out.
        if let Some(o) = st.obs.as_mut() {
            o.on_publish(msgs);
        }
        let (mut reached, mut delivered, mut dropped) = (0, 0, 0);
        for (i, (topic, payload)) in msgs.iter().enumerate() {
            let duplicate = match fates.get(i).copied().unwrap_or(PublishFate::Deliver) {
                PublishFate::Deliver => false,
                PublishFate::Drop => {
                    if let Some(o) = st.obs.as_mut() {
                        o.injected_drops.inc();
                    }
                    continue;
                }
                PublishFate::Duplicate => {
                    if let Some(o) = st.obs.as_mut() {
                        o.injected_dups.inc();
                    }
                    true
                }
            };
            let mut m = Outgoing {
                i,
                topic,
                shared: None,
                payload,
                qos,
                retain,
            };
            let (ok, lost) = with_levels(topic.as_ref(), |levels| {
                let (mut ok, mut lost) = st.fan_out(&mut m, levels);
                // A duplicate reaches its subscribers once.
                reached += ok;
                if duplicate {
                    let (again, again_lost) = st.fan_out(&mut m, levels);
                    ok += again;
                    lost += again_lost;
                }
                (ok, lost)
            });
            if let Some(o) = st.obs.as_mut() {
                o.on_fan_out(i, ok as u64, lost as u64);
            }
            delivered += ok;
            dropped += lost;
        }
        if let Some(o) = st.obs.as_ref() {
            o.on_batch_delivered();
        }
        drop(st);
        self.stats
            .delivered
            .fetch_add(delivered as u64, Ordering::Relaxed);
        self.stats
            .dropped
            .fetch_add(dropped as u64, Ordering::Relaxed);
        Ok(reached)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn payload(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn publish_subscribe_roundtrip() {
        let broker = Broker::default();
        let mut sub = broker.connect("agent");
        let publ = broker.connect("gateway");
        sub.subscribe("davide/+/power", QoS::AtMostOnce).unwrap();
        let n = publ
            .publish(
                "davide/node03/power",
                payload("1720"),
                QoS::AtMostOnce,
                false,
            )
            .unwrap();
        assert_eq!(n, 1);
        let m = sub.try_recv().unwrap();
        assert_eq!(&*m.topic, "davide/node03/power");
        assert_eq!(&m.payload[..], b"1720");
    }

    #[test]
    fn fan_out_to_multiple_agents() {
        let broker = Broker::default();
        let publ = broker.connect("gateway");
        let mut subs: Vec<_> = (0..8)
            .map(|i| {
                let mut c = broker.connect(format!("agent{i}"));
                c.subscribe("davide/#", QoS::AtMostOnce).unwrap();
                c
            })
            .collect();
        let n = publ
            .publish("davide/node00/power", payload("p"), QoS::AtMostOnce, false)
            .unwrap();
        assert_eq!(n, 8);
        for s in &mut subs {
            assert!(s.try_recv().is_some());
        }
    }

    #[test]
    fn no_delivery_without_match() {
        let broker = Broker::default();
        let mut sub = broker.connect("agent");
        let publ = broker.connect("gateway");
        sub.subscribe("davide/+/temp", QoS::AtMostOnce).unwrap();
        let n = publ
            .publish("davide/node03/power", payload("x"), QoS::AtMostOnce, false)
            .unwrap();
        assert_eq!(n, 0);
        assert!(sub.try_recv().is_none());
    }

    #[test]
    fn retained_message_replayed_on_subscribe() {
        let broker = Broker::default();
        let publ = broker.connect("gateway");
        publ.publish("davide/node03/cap", payload("1500"), QoS::AtLeastOnce, true)
            .unwrap();
        assert_eq!(broker.retained_count(), 1);
        // Late subscriber still sees the value.
        let mut sub = broker.connect("late-agent");
        sub.subscribe("davide/+/cap", QoS::AtLeastOnce).unwrap();
        let m = sub.try_recv().unwrap();
        assert!(m.retain);
        assert_eq!(&m.payload[..], b"1500");
        // Clearing: empty retained payload.
        publ.publish("davide/node03/cap", Bytes::new(), QoS::AtMostOnce, true)
            .unwrap();
        assert_eq!(broker.retained_count(), 0);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let broker = Broker::default();
        let mut sub = broker.connect("agent");
        let publ = broker.connect("gateway");
        sub.subscribe("a/b", QoS::AtMostOnce).unwrap();
        publ.publish("a/b", payload("1"), QoS::AtMostOnce, false)
            .unwrap();
        sub.unsubscribe("a/b").unwrap();
        publ.publish("a/b", payload("2"), QoS::AtMostOnce, false)
            .unwrap();
        assert_eq!(&sub.try_recv().unwrap().payload[..], b"1");
        assert!(sub.try_recv().is_none());
    }

    #[test]
    fn disconnect_cleans_up() {
        let broker = Broker::default();
        let mut sub = broker.connect("agent");
        sub.subscribe("a/#", QoS::AtMostOnce).unwrap();
        assert_eq!(broker.client_count(), 1);
        assert_eq!(broker.subscription_count(), 1);
        sub.disconnect();
        assert_eq!(broker.client_count(), 0);
        assert_eq!(broker.subscription_count(), 0);
        let publ = broker.connect("gateway");
        let n = publ
            .publish("a/b", payload("x"), QoS::AtMostOnce, false)
            .unwrap();
        assert_eq!(n, 0, "no stale subscriptions");
    }

    #[test]
    fn slow_subscriber_drops_do_not_block_publisher() {
        let broker = Broker::new(4); // tiny queue
        let mut sub = broker.connect("slow-agent");
        let publ = broker.connect("gateway");
        sub.subscribe("t", QoS::AtMostOnce).unwrap();
        for i in 0..10 {
            publ.publish("t", payload(&i.to_string()), QoS::AtMostOnce, false)
                .unwrap();
        }
        let delivered = broker.stats().delivered.load(Ordering::Relaxed);
        let dropped = broker.stats().dropped.load(Ordering::Relaxed);
        assert_eq!(delivered, 4);
        assert_eq!(dropped, 6);
        // The slow consumer still gets the first 4.
        let got: Vec<_> = std::iter::from_fn(|| sub.try_recv()).collect();
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn qos_downgraded_to_subscription_qos() {
        let broker = Broker::default();
        let mut sub = broker.connect("agent");
        let publ = broker.connect("gateway");
        sub.subscribe("t", QoS::AtMostOnce).unwrap();
        publ.publish("t", payload("x"), QoS::AtLeastOnce, false)
            .unwrap();
        let m = sub.try_recv().unwrap();
        assert_eq!(m.qos, QoS::AtMostOnce, "min(pub, sub)");
    }

    #[test]
    fn sys_topics_hidden_from_hash() {
        let broker = Broker::default();
        let mut wild = broker.connect("wild");
        let mut explicit = broker.connect("explicit");
        wild.subscribe("#", QoS::AtMostOnce).unwrap();
        explicit.subscribe("$SYS/#", QoS::AtMostOnce).unwrap();
        let publ = broker.connect("broker-self");
        publ.publish("$SYS/broker/load", payload("0.5"), QoS::AtMostOnce, false)
            .unwrap();
        assert!(wild.try_recv().is_none(), "# must not see $SYS");
        assert!(explicit.try_recv().is_some());
    }

    #[test]
    fn resubscribe_does_not_duplicate() {
        let broker = Broker::default();
        let mut sub = broker.connect("agent");
        let publ = broker.connect("gateway");
        sub.subscribe("t", QoS::AtMostOnce).unwrap();
        sub.subscribe("t", QoS::AtLeastOnce).unwrap(); // replace
        let n = publ
            .publish("t", payload("x"), QoS::AtLeastOnce, false)
            .unwrap();
        assert_eq!(n, 1, "single delivery after re-subscribe");
        assert_eq!(sub.try_recv().unwrap().qos, QoS::AtLeastOnce);
        assert_eq!(broker.subscription_count(), 1, "one filter, not two");
    }

    #[test]
    fn fault_hook_drops_and_duplicates() {
        let broker = Broker::default();
        // Fault-injection counts surface through the metrics registry.
        let (hub, _clock) = ObsHub::manual();
        broker.set_obs(Some(BrokerObs::new(&hub, None)));
        let mut sub = broker.connect("agent");
        let publ = broker.connect("gateway");
        sub.subscribe("davide/#", QoS::AtMostOnce).unwrap();
        // Drop everything under davide/node00, duplicate node01.
        broker.set_fault_hook(Some(Box::new(|topic: &str| {
            if topic.starts_with("davide/node00") {
                PublishFate::Drop
            } else if topic.starts_with("davide/node01") {
                PublishFate::Duplicate
            } else {
                PublishFate::Deliver
            }
        })));
        let n = publ
            .publish("davide/node00/power", payload("1"), QoS::AtMostOnce, true)
            .unwrap();
        assert_eq!(n, 0, "dropped before fan-out");
        assert_eq!(broker.retained_count(), 0, "drop precedes retained store");
        publ.publish("davide/node01/power", payload("2"), QoS::AtMostOnce, false)
            .unwrap();
        publ.publish("davide/node02/power", payload("3"), QoS::AtMostOnce, false)
            .unwrap();
        let got: Vec<_> = std::iter::from_fn(|| sub.try_recv()).collect();
        assert_eq!(got.len(), 3, "one dup + one normal");
        assert_eq!(&got[0].payload[..], b"2");
        assert_eq!(&got[1].payload[..], b"2");
        assert_eq!(&got[2].payload[..], b"3");
        let drops = hub
            .registry
            .find_counter("mqtt_injected_drops_total")
            .unwrap();
        let dups = hub
            .registry
            .find_counter("mqtt_injected_dups_total")
            .unwrap();
        assert_eq!(drops.get(), 1);
        assert_eq!(dups.get(), 1);
        // Clearing the hook restores normal delivery.
        broker.set_fault_hook(None);
        let n = publ
            .publish("davide/node00/power", payload("4"), QoS::AtMostOnce, false)
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn per_topic_instruments_track_published_delivered_retained() {
        let broker = Broker::default();
        let (hub, _clock) = ObsHub::manual();
        broker.set_obs(Some(BrokerObs::new(&hub, None)));
        let mut sub = broker.connect("agent");
        let publ = broker.connect("gateway");
        sub.subscribe("davide/+/power/#", QoS::AtMostOnce).unwrap();
        for _ in 0..3 {
            publ.publish(
                "davide/node00/power/node",
                payload("1700"),
                QoS::AtMostOnce,
                false,
            )
            .unwrap();
        }
        publ.publish(
            "davide/node00/ctl/speed",
            payload("0.9"),
            QoS::AtMostOnce,
            true,
        )
        .unwrap();
        let r = &hub.registry;
        let pt = |name: &str| r.find_counter(name).map(|c| c.get());
        assert_eq!(
            pt("mqtt_topic_published{topic=\"davide/node00/power/node\"}"),
            Some(3)
        );
        assert_eq!(
            pt("mqtt_topic_delivered{topic=\"davide/node00/power/node\"}"),
            Some(3)
        );
        assert_eq!(
            pt("mqtt_topic_published{topic=\"davide/node00/ctl/speed\"}"),
            Some(1)
        );
        // Retained gauge flips with the retained store.
        let text = r.render_text();
        assert!(text.contains("mqtt_topic_retained{topic=\"davide/node00/ctl/speed\"} 1"));
        assert!(text.contains("mqtt_retained_messages 1"));
        publ.publish(
            "davide/node00/ctl/speed",
            Bytes::new(),
            QoS::AtMostOnce,
            true,
        )
        .unwrap();
        let text = r.render_text();
        assert!(text.contains("mqtt_topic_retained{topic=\"davide/node00/ctl/speed\"} 0"));
        assert!(text.contains("mqtt_retained_messages 0"));
        // Obs self-telemetry topics never mint per-topic series.
        publ.publish(
            "davide/obs/self/some_metric",
            payload("1"),
            QoS::AtMostOnce,
            false,
        )
        .unwrap();
        assert_eq!(
            pt("mqtt_topic_published{topic=\"davide/obs/self/some_metric\"}"),
            None
        );
        // Global counters still see everything.
        assert_eq!(r.find_counter("mqtt_published_total").unwrap().get(), 6);
    }

    #[test]
    fn retained_get_reads_store() {
        let broker = Broker::default();
        let publ = broker.connect("ctl");
        assert_eq!(broker.retained_get("davide/node00/ctl/speed"), None);
        publ.publish(
            "davide/node00/ctl/speed",
            payload("0.8589"),
            QoS::AtLeastOnce,
            true,
        )
        .unwrap();
        assert_eq!(
            broker.retained_get("davide/node00/ctl/speed").as_deref(),
            Some(&b"0.8589"[..])
        );
        // Empty retained payload clears the slot.
        publ.publish(
            "davide/node00/ctl/speed",
            Bytes::new(),
            QoS::AtMostOnce,
            true,
        )
        .unwrap();
        assert_eq!(broker.retained_get("davide/node00/ctl/speed"), None);
    }

    #[test]
    fn publish_batch_matches_publish_loop() {
        let broker = Broker::default();
        let mut sub = broker.connect("agent");
        sub.subscribe("davide/+/power/#", QoS::AtMostOnce).unwrap();
        let publ = broker.connect("gateway");
        let batch: Vec<(String, Bytes)> = (0..5)
            .map(|i| {
                (
                    format!("davide/node0{i}/power/node"),
                    payload(&i.to_string()),
                )
            })
            .collect();
        let reached = publ.publish_batch(&batch).unwrap();
        assert_eq!(reached, 5);
        let got = sub.drain();
        assert_eq!(got.len(), 5);
        // Delivery is in slice order with per-message semantics intact.
        for (i, m) in got.iter().enumerate() {
            assert_eq!(*m.topic, *batch[i].0);
            assert_eq!(m.payload, batch[i].1);
            assert_eq!(m.qos, QoS::AtMostOnce);
            assert!(!m.retain);
        }
        assert_eq!(broker.stats().published.load(Ordering::Relaxed), 5);
        assert_eq!(broker.stats().delivered.load(Ordering::Relaxed), 5);
        // An invalid topic fails the whole batch up front.
        assert!(publ
            .publish_batch(&[("bad/#/topic".to_string(), Bytes::new())])
            .is_err());
    }

    #[test]
    fn publish_batch_honours_fault_hook_per_message() {
        let broker = Broker::default();
        let mut sub = broker.connect("agent");
        sub.subscribe("davide/#", QoS::AtMostOnce).unwrap();
        broker.set_fault_hook(Some(Box::new(|topic: &str| {
            if topic.contains("node00") {
                PublishFate::Drop
            } else if topic.contains("node01") {
                PublishFate::Duplicate
            } else {
                PublishFate::Deliver
            }
        })));
        let publ = broker.connect("gateway");
        let batch: Vec<(String, Bytes)> = (0..3)
            .map(|i| (format!("davide/node0{i}/power/node"), payload("x")))
            .collect();
        // Drop counts 0, duplicate counts its first fan-out, deliver 1.
        let reached = publ.publish_batch(&batch).unwrap();
        assert_eq!(reached, 2);
        let got = sub.drain();
        let topics: Vec<&str> = got.iter().map(|m| &*m.topic).collect();
        assert_eq!(
            topics,
            [
                "davide/node01/power/node",
                "davide/node01/power/node",
                "davide/node02/power/node"
            ]
        );
    }

    #[test]
    fn deliveries_and_the_retained_copy_share_one_topic_allocation() {
        let broker = Broker::default();
        let mut subs: Vec<_> = ["davide/#", "davide/+/cap", "davide/node00/cap"]
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut c = broker.connect(format!("agent{i}"));
                c.subscribe(f, QoS::AtMostOnce).unwrap();
                c
            })
            .collect();
        let publ = broker.connect("ctl");
        publ.publish("davide/node00/cap", payload("1500"), QoS::AtMostOnce, true)
            .unwrap();
        let got: Vec<Message> = subs.iter_mut().map(|s| s.try_recv().unwrap()).collect();
        for m in &got[1..] {
            assert!(Arc::ptr_eq(&got[0].topic, &m.topic));
        }
        // A late subscriber's replay is the retained copy itself.
        let mut late = broker.connect("late");
        late.subscribe("davide/node00/cap", QoS::AtMostOnce)
            .unwrap();
        let replayed = late.try_recv().unwrap();
        assert!(replayed.retain);
        assert!(Arc::ptr_eq(&got[0].topic, &replayed.topic));
        // The next publish on the topic allocates its own.
        publ.publish("davide/node00/cap", payload("1400"), QoS::AtMostOnce, true)
            .unwrap();
        assert!(!Arc::ptr_eq(
            &got[0].topic,
            &subs[0].try_recv().unwrap().topic
        ));
    }

    #[test]
    fn full_queue_drops_are_counted_once_per_lost_delivery() {
        let broker = Broker::new(2);
        let (hub, _clock) = ObsHub::manual();
        broker.set_obs(Some(BrokerObs::new(&hub, None)));
        let mut slow = broker.connect("slow");
        slow.subscribe("t/#", QoS::AtMostOnce).unwrap();
        let mut other = broker.connect("other");
        other.subscribe("t/a", QoS::AtMostOnce).unwrap();
        let publ = broker.connect("gw");
        let batch: Vec<(&str, Bytes)> = (0..5).map(|i| ("t/a", payload(&i.to_string()))).collect();
        // Each queue takes two; the other three of each are lost.
        assert_eq!(publ.publish_batch(&batch).unwrap(), 4);
        let r = &hub.registry;
        let counter = |name: &str| r.find_counter(name).unwrap().get();
        assert_eq!(counter("mqtt_dropped_total"), 6);
        assert_eq!(broker.stats().dropped.load(Ordering::Relaxed), 6);
        assert_eq!(counter("mqtt_delivered_total"), 4);
        assert_eq!(broker.stats().delivered.load(Ordering::Relaxed), 4);
        assert_eq!(counter("mqtt_topic_delivered{topic=\"t/a\"}"), 4);
        assert_eq!(counter("mqtt_topic_published{topic=\"t/a\"}"), 5);
        assert_eq!((slow.drain().len(), other.drain().len()), (2, 2));
    }

    #[test]
    fn duplicate_counts_two_deliveries_and_one_trace() {
        const MAGIC: &[u8] = b"FRM0";
        let broker = Broker::default();
        let (hub, clock) = ObsHub::manual();
        broker.set_obs(Some(BrokerObs::new(&hub, Some(MAGIC))));
        broker.set_fault_hook(Some(Box::new(|_: &str| PublishFate::Duplicate)));
        let mut sub = broker.connect("agent");
        sub.subscribe("davide/+/power/node", QoS::AtMostOnce)
            .unwrap();
        let publ = broker.connect("gw");
        let frame = Bytes::from_static(b"FRM0 frame header and samples");
        clock.set(3.0);
        assert_eq!(
            publ.publish(
                "davide/node00/power/node",
                frame.clone(),
                QoS::AtMostOnce,
                false
            )
            .unwrap(),
            1,
            "a duplicate reaches its subscribers once"
        );
        assert_eq!(sub.drain().len(), 2);
        let r = &hub.registry;
        let counter = |name: &str| r.find_counter(name).unwrap().get();
        assert_eq!(counter("mqtt_delivered_total"), 2);
        assert_eq!(broker.stats().delivered.load(Ordering::Relaxed), 2);
        assert_eq!(
            counter("mqtt_topic_delivered{topic=\"davide/node00/power/node\"}"),
            2
        );
        assert_eq!(counter("mqtt_injected_dups_total"), 1);
        // One trace, stamped at publish and at delivery: closing it
        // records one publish → deliver lag.
        let id = frame_trace_id("davide/node00/power/node", &frame);
        assert!(hub.tracer.is_resident(id));
        hub.tracer.close(id);
        assert_eq!(hub.tracer.completed(), 1);
        let lag = r
            .find_histogram("obs_trace_stage_ns{from=\"broker_publish\",to=\"session_deliver\"}")
            .unwrap()
            .snapshot();
        assert_eq!((lag.count, lag.max), (1, 0));
    }

    #[test]
    fn per_topic_delivered_equals_deliveries_made() {
        let broker = Broker::default();
        let (hub, _clock) = ObsHub::manual();
        broker.set_obs(Some(BrokerObs::new(&hub, None)));
        let filters = [
            "davide/#",
            "davide/+/power/node",
            "davide/node01/#",
            "+/+/temp",
        ];
        let mut subs: Vec<_> = filters
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut c = broker.connect(format!("agent{i}"));
                c.subscribe(f, QoS::AtMostOnce).unwrap();
                c
            })
            .collect();
        let topics = [
            "davide/node00/power/node",
            "davide/node01/power/node",
            "davide/node01/temp",
            "site/rack0/temp",
        ];
        let batch: Vec<(&str, Bytes)> = (0..12)
            .map(|i| (topics[i % topics.len()], payload("x")))
            .collect();
        let publ = broker.connect("gw");
        publ.publish_batch(&batch).unwrap();
        let mut made: HashMap<String, u64> = HashMap::new();
        for s in &mut subs {
            for m in s.drain() {
                *made.entry(m.topic.to_string()).or_default() += 1;
            }
        }
        for t in topics {
            let counted = hub
                .registry
                .find_counter(&format!("mqtt_topic_delivered{{topic=\"{t}\"}}"))
                .unwrap()
                .get();
            assert_eq!(counted, made[t], "{t}");
        }
        let total: u64 = made.values().sum();
        assert_eq!(
            hub.registry
                .find_counter("mqtt_delivered_total")
                .unwrap()
                .get(),
            total
        );
    }

    #[test]
    fn topics_deeper_than_the_stack_split_still_match() {
        let broker = Broker::default();
        let deep: String = (0..20)
            .map(|i| format!("l{i}"))
            .collect::<Vec<_>>()
            .join("/");
        let mut plus_filter: Vec<&str> = deep.split('/').collect();
        plus_filter[18] = "+";
        let plus_filter = plus_filter.join("/");
        let mut subs: Vec<_> = ["#", "l0/#", plus_filter.as_str(), deep.as_str(), "l0/+"]
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut c = broker.connect(format!("agent{i}"));
                c.subscribe(f, QoS::AtMostOnce).unwrap();
                c
            })
            .collect();
        let publ = broker.connect("gw");
        assert_eq!(
            publ.publish(&deep, payload("x"), QoS::AtMostOnce, false)
                .unwrap(),
            4
        );
        let got: Vec<usize> = subs.iter_mut().map(|s| s.drain().len()).collect();
        assert_eq!(got, [1, 1, 1, 1, 0]);
    }

    #[test]
    fn concurrent_publishers() {
        let broker = Broker::default();
        let mut sub = broker.connect("agent");
        sub.subscribe("davide/#", QoS::AtMostOnce).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let b = broker.clone();
                std::thread::spawn(move || {
                    let c = b.connect(format!("gw{t}"));
                    for i in 0..250 {
                        c.publish(
                            &format!("davide/node{t}/s{i}"),
                            Bytes::new(),
                            QoS::AtMostOnce,
                            false,
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut count = 0;
        while sub.try_recv().is_some() {
            count += 1;
        }
        assert_eq!(count, 1000);
    }
}
