//! The in-process MQTT broker.
//!
//! D.A.V.I.D.E.'s energy gateways publish power samples over MQTT so that
//! *multiple agents* — in-node control agents, per-job aggregators,
//! profilers and accounting — can consume the same stream with low
//! latency (§III-A1). This broker provides those semantics in-process:
//! a topic-trie subscription store with `+`/`#` wildcards, retained
//! messages, QoS 0/1 and per-subscriber bounded queues with drop
//! accounting (a slow profiler must not stall the control agents).
//!
//! # Sharding
//!
//! The hot publish path is sharded: the topic trie, the retained store
//! and the subscription entries are split across [`DEFAULT_SHARDS`]
//! shards keyed by a hash of the topic's first two levels
//! ([`crate::topic::shard_of_topic`]). Every topic maps to exactly one
//! shard, so a publish takes exactly one shard lock; publishers on
//! topics under different node prefixes never contend. Subscription
//! filters are registered on every shard they can match
//! ([`crate::topic::filter_shards`]): a per-node filter like
//! `davide/node03/#` pins one shard, a cross-node wildcard like
//! `davide/+/power/#` registers on all of them. Fan-out is still
//! deterministic — for any one topic, all matching entries live on that
//! topic's shard and are visited in the same trie order as the old
//! single-lock broker, and the fault hook remains a single global
//! sequence point consulted once per publish in submission order.

use crate::codec::QoS;
use crate::topic::{
    filter_matches, filter_shards, shard_of_topic, validate_filter, validate_topic, TopicError,
};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use davide_obs::{frame_trace_id, Counter, Gauge, ObsHub, Stage};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// An application message as delivered to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Topic it was published on.
    pub topic: String,
    /// Payload bytes.
    pub payload: Bytes,
    /// Delivery QoS (min of publish and subscription QoS).
    pub qos: QoS,
    /// True when replayed from the retained store.
    pub retain: bool,
    /// True when this is a QoS 1 redelivery of an unacknowledged
    /// message (maps to the wire DUP flag).
    pub dup: bool,
    /// Broker-assigned packet id when the subscriber has QoS 1
    /// delivery tracking enabled; the subscriber acknowledges it with
    /// [`super::client::Client::ack`]. `None` for untracked delivery.
    pub packet_id: Option<u16>,
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

/// Default QoS 1 in-flight window per subscriber: deliveries beyond it
/// are downgraded to untracked until acknowledgements free slots.
pub const DEFAULT_QOS1_WINDOW: usize = 32;

/// Default redelivery attempts before a tracked message is expired.
pub const DEFAULT_QOS1_RETRIES: u32 = 3;

/// Per-subscriber QoS 1 delivery tracking: the broker-side half of the
/// PUBACK handshake. Disabled by default (zero overhead on the QoS 0
/// telemetry path); a subscriber that wants at-least-once opts in via
/// [`super::client::Client::enable_qos1_tracking`].
#[derive(Debug, Default)]
pub(crate) struct Qos1State {
    enabled: AtomicBool,
    inner: Mutex<Qos1Inner>,
}

#[derive(Debug)]
struct Qos1Inner {
    next_id: u16,
    window: usize,
    max_retries: u32,
    /// In-flight messages keyed by packet id. A `BTreeMap` so
    /// redelivery sweeps walk ids in a deterministic order.
    unacked: BTreeMap<u16, Tracked>,
}

#[derive(Debug)]
struct Tracked {
    msg: Message,
    retries: u32,
}

impl Default for Qos1Inner {
    fn default() -> Self {
        Qos1Inner {
            next_id: 1,
            window: DEFAULT_QOS1_WINDOW,
            max_retries: DEFAULT_QOS1_RETRIES,
            unacked: BTreeMap::new(),
        }
    }
}

impl Qos1Inner {
    /// Next free non-zero packet id (wrapping; skips ids still in
    /// flight — the window is far below 65535, so this terminates).
    fn alloc_id(&mut self) -> u16 {
        loop {
            let id = self.next_id;
            self.next_id = if id == u16::MAX { 1 } else { id + 1 };
            if !self.unacked.contains_key(&id) {
                return id;
            }
        }
    }
}

#[derive(Debug)]
struct SubEntry {
    client: u64,
    qos: QoS,
    /// The subscriber's queue, stored in the trie entry so fan-out
    /// never has to consult a global client table.
    sender: Sender<Message>,
    qos1: Arc<Qos1State>,
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

/// One shard: the trie and retained slice for topics that hash here,
/// plus this shard's observability fork. Lock order within a shard is
/// always obs before state.
#[derive(Debug, Default)]
struct Shard {
    state: Mutex<ShardState>,
    obs: Mutex<Option<BrokerObs>>,
}

#[derive(Debug, Default)]
struct ShardState {
    trie: TrieNode,
    retained: HashMap<String, Message>,
}

/// Connection-level bookkeeping, off the publish hot path: touched only
/// by connect/disconnect/subscribe and the QoS 1 control surface.
#[derive(Debug)]
struct ClientInfo {
    sender: Sender<Message>,
    filters: HashSet<String>,
    qos1: Arc<Qos1State>,
}

/// Delivery statistics, exposed on the `$SYS` topics of a real broker.
/// Fault-injection counts (injected drops/dups) live in the metrics
/// registry via [`BrokerObs`], not here. All counters are atomics so
/// `stats()` reads never race with sharded publishers.
#[derive(Debug, Default)]
pub struct BrokerStats {
    /// PUBLISH packets accepted.
    pub published: AtomicU64,
    /// Messages enqueued to subscribers.
    pub delivered: AtomicU64,
    /// Messages dropped because a subscriber queue was full.
    pub dropped: AtomicU64,
    /// QoS 1 PUBLISHes acknowledged.
    pub acked: AtomicU64,
    /// QoS 1 tracked messages re-sent with the DUP flag.
    pub redelivered: AtomicU64,
    /// QoS 1 tracked messages given up on after `max_retries`.
    pub expired: AtomicU64,
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
/// Installed with [`Broker::set_obs`]; brokers without one behave
/// exactly as before (the hot path checks an atomic flag). Internally
/// the broker holds one fork per shard — the forks share every global
/// counter (metric registration is idempotent) while each keeps its own
/// per-topic map, which is safe because a topic maps to exactly one
/// shard and therefore to exactly one fork.
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
    per_topic: HashMap<String, TopicObs>,
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
        }
    }

    /// A per-shard sibling: shares every global instrument handle but
    /// starts with an empty per-topic map of its own.
    fn fork(&self) -> BrokerObs {
        BrokerObs {
            hub: self.hub.clone(),
            frame_magic: self.frame_magic.clone(),
            published: self.published.clone(),
            delivered: self.delivered.clone(),
            dropped: self.dropped.clone(),
            injected_drops: self.injected_drops.clone(),
            injected_dups: self.injected_dups.clone(),
            retained_total: self.retained_total.clone(),
            per_topic: HashMap::new(),
        }
    }

    fn traceable(&self, topic: &str, payload: &[u8]) -> bool {
        match &self.frame_magic {
            Some(m) => payload.starts_with(m) && !topic.starts_with("davide/obs/"),
            None => false,
        }
    }

    fn topic_obs(&mut self, topic: &str) -> Option<&mut TopicObs> {
        if topic.starts_with("davide/obs/") {
            return None;
        }
        if !self.per_topic.contains_key(topic) {
            let r = &self.hub.registry;
            let t = TopicObs {
                published: r.counter(&format!("mqtt_topic_published{{topic=\"{topic}\"}}")),
                delivered: r.counter(&format!("mqtt_topic_delivered{{topic=\"{topic}\"}}")),
                retained: r.gauge(&format!("mqtt_topic_retained{{topic=\"{topic}\"}}")),
            };
            self.per_topic.insert(topic.to_string(), t);
        }
        self.per_topic.get_mut(topic)
    }

    fn on_publish(&mut self, topic: &str, payload: &[u8]) {
        self.published.inc();
        if self.traceable(topic, payload) {
            let now = self.hub.clock.now_s();
            self.hub
                .tracer
                .stamp(frame_trace_id(topic, payload), Stage::BrokerPublish, now);
        }
        if let Some(t) = self.topic_obs(topic) {
            t.published.inc();
        }
    }

    fn on_deliver(&mut self, topic: &str, payload: &[u8]) {
        self.delivered.inc();
        if self.traceable(topic, payload) {
            let now = self.hub.clock.now_s();
            self.hub
                .tracer
                .stamp(frame_trace_id(topic, payload), Stage::SessionDeliver, now);
        }
        if let Some(t) = self.topic_obs(topic) {
            t.delivered.inc();
        }
    }

    fn on_retained(&mut self, topic: &str, present: bool, total: usize) {
        self.retained_total.set(total as f64);
        if let Some(t) = self.topic_obs(topic) {
            t.retained.set(if present { 1.0 } else { 0.0 });
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
/// a seeded RNG. The hook is a single global sequence point even on the
/// sharded broker: it sees one call per publish, in submission order.
pub type FaultHook = Box<dyn FnMut(&str) -> PublishFate + Send>;

type ObsGuard<'a> = std::sync::MutexGuard<'a, Option<BrokerObs>>;
type StateGuard<'a> = std::sync::MutexGuard<'a, ShardState>;

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
    shards: Arc<[Shard]>,
    /// Connection table, off the publish path entirely.
    clients: Arc<Mutex<HashMap<u64, ClientInfo>>>,
    stats: Arc<BrokerStats>,
    // Kept outside the shards so a hook can never deadlock against a
    // shard lock, and so the hook sees one global call sequence.
    fault: Arc<Mutex<Option<FaultHook>>>,
    fault_installed: Arc<AtomicBool>,
    obs_installed: Arc<AtomicBool>,
    /// Retained messages across all shards, maintained under shard
    /// locks so the obs gauge sees a consistent total.
    retained_total: Arc<AtomicUsize>,
    next_client: Arc<AtomicU64>,
    queue_depth: usize,
}

/// Default per-subscriber queue depth: sized for one second of decimated
/// EG samples (50 kS/s) so a briefly-stalled agent loses nothing.
pub const DEFAULT_QUEUE_DEPTH: usize = 65_536;

/// Default shard count: enough that the 16 concurrent publishers of the
/// E30 workload rarely collide, small enough that all-shard wildcard
/// subscriptions stay cheap to register.
pub const DEFAULT_SHARDS: usize = 8;

impl Default for Broker {
    fn default() -> Self {
        Self::new(DEFAULT_QUEUE_DEPTH)
    }
}

impl Broker {
    /// New broker with the given per-subscriber queue depth and the
    /// default shard count.
    pub fn new(queue_depth: usize) -> Self {
        Self::with_shards(queue_depth, DEFAULT_SHARDS)
    }

    /// New broker with an explicit shard count (1 reproduces the old
    /// single-lock broker exactly; differential tests rely on this).
    pub fn with_shards(queue_depth: usize, shards: usize) -> Self {
        assert!(queue_depth > 0);
        assert!(shards > 0);
        let shards: Vec<Shard> = (0..shards).map(|_| Shard::default()).collect();
        Broker {
            shards: shards.into(),
            clients: Arc::new(Mutex::new(HashMap::new())),
            stats: Arc::new(BrokerStats::default()),
            fault: Arc::new(Mutex::new(None)),
            fault_installed: Arc::new(AtomicBool::new(false)),
            obs_installed: Arc::new(AtomicBool::new(false)),
            retained_total: Arc::new(AtomicUsize::new(0)),
            next_client: Arc::new(AtomicU64::new(1)),
            queue_depth,
        }
    }

    /// Number of shards the publish path is split across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Install (or clear) the broker's observability instruments; see
    /// [`BrokerObs`]. Internally one fork per shard.
    pub fn set_obs(&self, obs: Option<BrokerObs>) {
        match obs {
            Some(o) => {
                for shard in self.shards.iter().skip(1) {
                    *shard.obs.lock() = Some(o.fork());
                }
                *self.shards[0].obs.lock() = Some(o);
                self.obs_installed.store(true, Ordering::Release);
            }
            None => {
                self.obs_installed.store(false, Ordering::Release);
                for shard in self.shards.iter() {
                    *shard.obs.lock() = None;
                }
            }
        }
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
        let idx = shard_of_topic(topic, self.shards.len());
        self.shards[idx]
            .state
            .lock()
            .retained
            .get(topic)
            .map(|m| m.payload.clone())
    }

    /// Connect a client; returns its handle.
    pub fn connect(&self, client_id: impl Into<String>) -> super::client::Client {
        self.connect_with_depth(client_id, self.queue_depth)
    }

    /// Connect a client with an explicit queue depth instead of the
    /// broker default. Queue slots are allocated up front per client,
    /// so large fan-out populations size them per subscriber class: a
    /// global-wildcard auditor needs room for every publish in flight,
    /// an exact-match agent only for its own topic's.
    pub fn connect_with_depth(
        &self,
        client_id: impl Into<String>,
        queue_depth: usize,
    ) -> super::client::Client {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(queue_depth);
        self.clients.lock().insert(
            id,
            ClientInfo {
                sender: tx,
                filters: HashSet::new(),
                qos1: Arc::new(Qos1State::default()),
            },
        );
        super::client::Client::new(self.clone(), id, client_id.into(), rx)
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &BrokerStats {
        &self.stats
    }

    /// Number of connected clients.
    pub fn client_count(&self) -> usize {
        self.clients.lock().len()
    }

    /// Number of retained messages held, across all shards.
    pub fn retained_count(&self) -> usize {
        self.retained_total.load(Ordering::Relaxed)
    }

    /// Number of live subscriptions (distinct client/filter pairs).
    pub fn subscription_count(&self) -> usize {
        self.clients.lock().values().map(|c| c.filters.len()).sum()
    }

    pub(crate) fn disconnect(&self, client: u64) {
        self.clients.lock().remove(&client);
        // Cold path: sweep every shard rather than replaying the
        // filter list, so stale entries can never survive.
        for shard in self.shards.iter() {
            shard.state.lock().trie.remove_client(client);
        }
    }

    pub(crate) fn subscribe(&self, client: u64, filter: &str, qos: QoS) -> Result<(), BrokerError> {
        validate_filter(filter)?;
        let (sender, qos1) = {
            let mut cl = self.clients.lock();
            let info = cl
                .get_mut(&client)
                .ok_or(BrokerError::UnknownClient(client))?;
            info.filters.insert(filter.to_string());
            (info.sender.clone(), info.qos1.clone())
        };
        let levels: Vec<&str> = filter.split('/').collect();
        let n = self.shards.len();
        // Per shard, the trie update and the retained snapshot happen
        // under one lock hold, so a concurrent retained publish is
        // either replayed or live-delivered — never both, since each
        // topic lives on exactly one shard.
        let mut matches: Vec<Message> = Vec::new();
        for idx in filter_shards(filter, n).iter(n) {
            let mut st = self.shards[idx].state.lock();
            // Replace any existing subscription by this client on the
            // filter.
            st.trie.remove(&levels, client);
            st.trie.insert(
                &levels,
                SubEntry {
                    client,
                    qos,
                    sender: sender.clone(),
                    qos1: qos1.clone(),
                },
            );
            matches.extend(
                st.retained
                    .values()
                    .filter(|m| filter_matches(filter, &m.topic))
                    .cloned(),
            );
        }
        // Replay retained messages matching the new filter, in topic
        // order — the per-shard maps iterate in per-process random
        // order, and replay order must not leak that nondeterminism to
        // sessions.
        matches.sort_unstable_by(|a, b| a.topic.cmp(&b.topic));
        for mut m in matches {
            m.retain = true;
            m.qos = m.qos.min(qos);
            match sender.try_send(m) {
                Ok(()) => {
                    self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }

    pub(crate) fn unsubscribe(&self, client: u64, filter: &str) -> Result<(), BrokerError> {
        validate_filter(filter)?;
        if let Some(info) = self.clients.lock().get_mut(&client) {
            info.filters.remove(filter);
        }
        let levels: Vec<&str> = filter.split('/').collect();
        let n = self.shards.len();
        for idx in filter_shards(filter, n).iter(n) {
            self.shards[idx].state.lock().trie.remove(&levels, client);
        }
        Ok(())
    }

    /// Publish `msgs` in slice order, each at `qos` with the `retain`
    /// flag; returns the total number of subscriber deliveries. A
    /// single publish is the one-message batch.
    ///
    /// Every message gets the full per-publish semantics — topic
    /// validation, the `published` stat, [`BrokerObs::on_publish`], one
    /// fault-hook fate, retained-store update and fan-out — but lock
    /// traffic is amortized: the fault hook is locked once for the
    /// whole batch, and the obs/state locks are handed off only when
    /// consecutive messages hash to different shards. An EG batch
    /// carries one node's frames, which share a topic prefix and
    /// therefore a shard, so the common case is one lock pair per
    /// batch.
    ///
    /// For QoS 1 the broker "acknowledges" each message by bumping the
    /// `acked` counter once it is fanned out — the in-process
    /// equivalent of PUBACK. Subscribers that enabled QoS 1 tracking
    /// additionally get a packet id they must
    /// [ack](super::client::Client::ack).
    ///
    /// Errors on the first invalid topic, before any message is
    /// published.
    pub(crate) fn publish_batch<T: AsRef<str>>(
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
        // any broker state, under one hook lock that is never held
        // together with a shard lock. The hook sees one call per
        // message, in submission order.
        let fates: Vec<PublishFate> = if self.fault_installed.load(Ordering::Acquire) {
            self.fault.lock().as_mut().map_or_else(Vec::new, |hook| {
                msgs.iter().map(|(topic, _)| hook(topic.as_ref())).collect()
            })
        } else {
            Vec::new()
        };
        let n = self.shards.len();
        let with_obs = self.obs_installed.load(Ordering::Acquire);
        // First pass, the all-publishes-then-deliveries order observable
        // through the frame tracer: count every message as published
        // before any is fanned out.
        if with_obs {
            let mut held: Option<(usize, ObsGuard<'_>)> = None;
            for (topic, payload) in msgs {
                let topic = topic.as_ref();
                let idx = shard_of_topic(topic, n);
                if held.as_ref().map(|h| h.0) != Some(idx) {
                    // Release the previous guard before taking the next
                    // shard's: never hold two shards at once.
                    drop(held.take());
                    held = Some((idx, self.shards[idx].obs.lock()));
                }
                if let Some(o) = held.as_mut().and_then(|h| h.1.as_mut()) {
                    o.on_publish(topic, payload);
                }
            }
        }
        // Second pass: fan out, handing the shard's obs+state lock pair
        // (obs first) off only when the shard changes.
        let mut reached = 0;
        let mut held: Option<(usize, Option<ObsGuard<'_>>, StateGuard<'_>)> = None;
        let mut no_obs = None;
        for (i, (topic, payload)) in msgs.iter().enumerate() {
            let topic = topic.as_ref();
            let idx = shard_of_topic(topic, n);
            if held.as_ref().map(|h| h.0) != Some(idx) {
                // Release the previous pair before taking the next
                // shard's: never hold two shards at once.
                drop(held.take());
                let shard = &self.shards[idx];
                let obs = with_obs.then(|| shard.obs.lock());
                held = Some((idx, obs, shard.state.lock()));
            }
            let (_, obs_guard, st) = held.as_mut().expect("guard pair just installed");
            let obs: &mut Option<BrokerObs> = match obs_guard {
                Some(g) => g,
                None => &mut no_obs,
            };
            match fates.get(i).copied().unwrap_or(PublishFate::Deliver) {
                PublishFate::Deliver => {
                    reached += self.fan_out_locked(st, obs, topic, payload, qos, retain);
                }
                PublishFate::Drop => {
                    if let Some(o) = obs.as_mut() {
                        o.injected_drops.inc();
                    }
                }
                PublishFate::Duplicate => {
                    if let Some(o) = obs.as_mut() {
                        o.injected_dups.inc();
                    }
                    reached += self.fan_out_locked(st, obs, topic, payload, qos, retain);
                    self.fan_out_locked(st, obs, topic, payload, qos, retain);
                }
            }
        }
        Ok(reached)
    }

    /// The per-message fan-out body, with the shard's locks held.
    fn fan_out_locked(
        &self,
        st: &mut ShardState,
        obs: &mut Option<BrokerObs>,
        topic: &str,
        payload: &Bytes,
        qos: QoS,
        retain: bool,
    ) -> usize {
        if retain {
            if payload.is_empty() {
                // Empty retained payload clears the retained message.
                if st.retained.remove(topic).is_some() {
                    self.retained_total.fetch_sub(1, Ordering::Relaxed);
                }
            } else {
                let prev = st.retained.insert(
                    topic.to_string(),
                    Message {
                        topic: topic.to_string(),
                        payload: payload.clone(),
                        qos,
                        retain: true,
                        dup: false,
                        packet_id: None,
                    },
                );
                if prev.is_none() {
                    self.retained_total.fetch_add(1, Ordering::Relaxed);
                }
            }
            if let Some(o) = obs.as_mut() {
                o.on_retained(
                    topic,
                    !payload.is_empty(),
                    self.retained_total.load(Ordering::Relaxed),
                );
            }
        }

        let levels: Vec<&str> = topic.split('/').collect();
        // $-topics suppress wildcards at the root level only.
        let skip_wild_at_root = topic.starts_with('$');
        let mut reached = 0;
        st.trie
            .for_each_match(&levels, skip_wild_at_root, &mut |s| {
                // "Retain as published" (the MQTT 5 RAP behaviour):
                // live deliveries carry the publisher's retain flag so
                // bridges can preserve retained state downstream.
                let mut m = Message {
                    topic: topic.to_string(),
                    payload: payload.clone(),
                    qos: qos.min(s.qos),
                    retain,
                    dup: false,
                    packet_id: None,
                };
                // QoS 1 delivery tracking: assign a packet id while the
                // in-flight window has room; past it the delivery degrades
                // to untracked rather than blocking the publisher.
                if m.qos == QoS::AtLeastOnce && s.qos1.enabled.load(Ordering::Acquire) {
                    let mut q = s.qos1.inner.lock();
                    if q.unacked.len() < q.window {
                        let id = q.alloc_id();
                        m.packet_id = Some(id);
                        q.unacked.insert(
                            id,
                            Tracked {
                                msg: m.clone(),
                                retries: 0,
                            },
                        );
                    }
                }
                match s.sender.try_send(m) {
                    Ok(()) => {
                        reached += 1;
                        self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                        if let Some(o) = obs.as_mut() {
                            o.on_deliver(topic, payload);
                        }
                    }
                    Err(e) => {
                        self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                        if let Some(o) = obs.as_mut() {
                            o.dropped.inc();
                        }
                        // A full queue keeps the tracked slot (the
                        // redelivery sweep will retry); a disconnected
                        // subscriber releases it.
                        if let TrySendError::Disconnected(m) = e {
                            if let Some(id) = m.packet_id {
                                s.qos1.inner.lock().unacked.remove(&id);
                            }
                        }
                    }
                }
            });
        if qos == QoS::AtLeastOnce {
            self.stats.acked.fetch_add(1, Ordering::Relaxed);
        }
        reached
    }

    /// Turn on QoS 1 delivery tracking for a subscriber; see
    /// [`super::client::Client::enable_qos1_tracking`].
    pub(crate) fn qos1_enable(&self, client: u64, window: usize, max_retries: u32) -> bool {
        let cl = self.clients.lock();
        match cl.get(&client) {
            Some(info) => {
                {
                    let mut q = info.qos1.inner.lock();
                    q.window = window.max(1);
                    q.max_retries = max_retries;
                }
                info.qos1.enabled.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Acknowledge a tracked delivery; returns whether the id was in
    /// flight.
    pub(crate) fn qos1_ack(&self, client: u64, packet_id: u16) -> bool {
        let cl = self.clients.lock();
        match cl.get(&client) {
            Some(info) => info.qos1.inner.lock().unacked.remove(&packet_id).is_some(),
            None => false,
        }
    }

    /// Number of tracked deliveries awaiting acknowledgement.
    pub(crate) fn qos1_unacked(&self, client: u64) -> usize {
        let cl = self.clients.lock();
        match cl.get(&client) {
            Some(info) => info.qos1.inner.lock().unacked.len(),
            None => 0,
        }
    }

    /// Re-send every unacknowledged tracked message to the subscriber
    /// with the DUP flag, in packet-id order. Messages past their retry
    /// budget are expired instead. Returns the number re-sent.
    pub(crate) fn qos1_redeliver(&self, client: u64) -> usize {
        let (sender, qos1) = {
            let cl = self.clients.lock();
            match cl.get(&client) {
                Some(info) => (info.sender.clone(), info.qos1.clone()),
                None => return 0,
            }
        };
        let mut q = qos1.inner.lock();
        let max = q.max_retries;
        let ids: Vec<u16> = q.unacked.keys().copied().collect();
        let mut resent = 0;
        for id in ids {
            enum Fate {
                Kept,
                Expired,
                Gone,
            }
            let fate = {
                let t = q.unacked.get_mut(&id).expect("id snapshot just taken");
                if t.retries >= max {
                    Fate::Expired
                } else {
                    let mut m = t.msg.clone();
                    m.dup = true;
                    match sender.try_send(m) {
                        Ok(()) => {
                            t.retries += 1;
                            resent += 1;
                            self.stats.redelivered.fetch_add(1, Ordering::Relaxed);
                            Fate::Kept
                        }
                        // Queue full: leave the slot untouched for the
                        // next sweep; no retry is charged.
                        Err(TrySendError::Full(_)) => Fate::Kept,
                        Err(TrySendError::Disconnected(_)) => Fate::Gone,
                    }
                }
            };
            match fate {
                Fate::Kept => {}
                Fate::Expired => {
                    q.unacked.remove(&id);
                    self.stats.expired.fetch_add(1, Ordering::Relaxed);
                }
                Fate::Gone => {
                    q.unacked.remove(&id);
                }
            }
        }
        resent
    }
}

/// A receiving endpoint handed to subscribers (re-export of the
/// crossbeam receiver so callers can `recv`, `try_recv`, iterate…).
pub type MessageReceiver = Receiver<Message>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

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
        let m = sub.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m.topic, "davide/node03/power");
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
        let m = sub.recv_timeout(Duration::from_secs(1)).unwrap();
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
        assert_eq!(broker.stats().acked.load(Ordering::Relaxed), 1);
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
            assert_eq!(m.topic, batch[i].0);
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
        let topics: Vec<&str> = got.iter().map(|m| m.topic.as_str()).collect();
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

    /// Run the same single-threaded pub/sub script against two brokers
    /// and require bit-identical delivery sequences per subscriber.
    fn delivery_script(broker: &Broker) -> Vec<Vec<Message>> {
        let mut exact = broker.connect("exact");
        let mut per_node = broker.connect("per-node");
        let mut global = broker.connect("global");
        let publ = broker.connect("gateway");
        // Retained state laid down before any subscription.
        publ.publish("davide/node01/cap", payload("1500"), QoS::AtMostOnce, true)
            .unwrap();
        publ.publish("davide/node02/cap", payload("1600"), QoS::AtMostOnce, true)
            .unwrap();
        exact
            .subscribe("davide/node01/power/cpu", QoS::AtMostOnce)
            .unwrap();
        per_node
            .subscribe("davide/node01/#", QoS::AtMostOnce)
            .unwrap();
        global.subscribe("davide/+/cap", QoS::AtMostOnce).unwrap();
        global
            .subscribe("davide/+/power/#", QoS::AtMostOnce)
            .unwrap();
        for i in 0..4 {
            for node in ["node01", "node02", "node03"] {
                publ.publish(
                    &format!("davide/{node}/power/cpu"),
                    payload(&format!("{i}")),
                    QoS::AtMostOnce,
                    false,
                )
                .unwrap();
            }
        }
        let batch: Vec<(String, Bytes)> = (0..6)
            .map(|i| (format!("davide/node0{}/power/gpu", i % 3 + 1), payload("b")))
            .collect();
        publ.publish_batch(&batch).unwrap();
        vec![exact.drain(), per_node.drain(), global.drain()]
    }

    #[test]
    fn shard_count_does_not_change_delivery() {
        let single = delivery_script(&Broker::with_shards(1024, 1));
        for shards in [2, 3, 8] {
            let sharded = delivery_script(&Broker::with_shards(1024, shards));
            assert_eq!(single, sharded, "divergence at {shards} shards");
        }
    }

    #[test]
    fn qos1_tracked_delivery_ack_and_redeliver() {
        let broker = Broker::default();
        let mut sub = broker.connect("bridge");
        sub.enable_qos1_tracking(DEFAULT_QOS1_WINDOW, DEFAULT_QOS1_RETRIES);
        sub.subscribe("davide/site/#", QoS::AtLeastOnce).unwrap();
        let publ = broker.connect("gateway");
        publ.publish("davide/site/agg", payload("x"), QoS::AtLeastOnce, false)
            .unwrap();
        let m = sub.try_recv().unwrap();
        let id = m.packet_id.expect("tracked delivery carries an id");
        assert!(!m.dup);
        assert_eq!(sub.unacked_count(), 1);
        // Redelivery re-sends the same message with DUP set.
        assert_eq!(sub.redeliver_unacked(), 1);
        let dup = sub.try_recv().unwrap();
        assert!(dup.dup);
        assert_eq!(dup.packet_id, Some(id));
        assert_eq!(dup.payload, m.payload);
        assert_eq!(broker.stats().redelivered.load(Ordering::Relaxed), 1);
        // A (late) ack clears the slot; nothing left to redeliver.
        assert!(sub.ack(id));
        assert_eq!(sub.unacked_count(), 0);
        assert_eq!(sub.redeliver_unacked(), 0);
        assert!(!sub.ack(id), "double-ack is a no-op");
    }

    #[test]
    fn qos1_window_bounds_in_flight() {
        let broker = Broker::default();
        let mut sub = broker.connect("bridge");
        sub.enable_qos1_tracking(2, DEFAULT_QOS1_RETRIES);
        sub.subscribe("t/#", QoS::AtLeastOnce).unwrap();
        let publ = broker.connect("gw");
        for i in 0..4 {
            publ.publish(&format!("t/{i}"), payload("x"), QoS::AtLeastOnce, false)
                .unwrap();
        }
        let got = sub.drain();
        assert_eq!(got.len(), 4, "overflow degrades, never blocks");
        let tracked: Vec<_> = got.iter().filter(|m| m.packet_id.is_some()).collect();
        assert_eq!(tracked.len(), 2, "window caps tracked deliveries");
        assert_eq!(sub.unacked_count(), 2);
        // Acking frees slots for new tracked deliveries.
        for m in tracked {
            assert!(sub.ack(m.packet_id.unwrap()));
        }
        publ.publish("t/5", payload("x"), QoS::AtLeastOnce, false)
            .unwrap();
        assert!(sub.try_recv().unwrap().packet_id.is_some());
    }

    #[test]
    fn qos1_expiry_after_max_retries() {
        let broker = Broker::default();
        let mut sub = broker.connect("bridge");
        sub.enable_qos1_tracking(8, 1);
        sub.subscribe("t", QoS::AtLeastOnce).unwrap();
        let publ = broker.connect("gw");
        publ.publish("t", payload("x"), QoS::AtLeastOnce, false)
            .unwrap();
        assert_eq!(sub.redeliver_unacked(), 1, "first retry allowed");
        assert_eq!(sub.redeliver_unacked(), 0, "budget spent: expired");
        assert_eq!(sub.unacked_count(), 0);
        assert_eq!(broker.stats().expired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn qos0_subscriber_never_tracked() {
        let broker = Broker::default();
        let mut sub = broker.connect("agent");
        sub.enable_qos1_tracking(8, 3);
        sub.subscribe("t", QoS::AtMostOnce).unwrap();
        let publ = broker.connect("gw");
        publ.publish("t", payload("x"), QoS::AtLeastOnce, false)
            .unwrap();
        let m = sub.try_recv().unwrap();
        assert_eq!(m.qos, QoS::AtMostOnce);
        assert_eq!(m.packet_id, None, "QoS 0 delivery is untracked");
        assert_eq!(sub.unacked_count(), 0);
    }
}
