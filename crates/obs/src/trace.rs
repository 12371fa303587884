//! Causal stage tracing: one fixed-slot tracer, two stage sets.
//!
//! A [`StageTracer`] follows traces through an ordered set of stages.
//! Each stage stamps a timestamp into a fixed-capacity slot table, the
//! first stamp per stage winning; closing a trace folds its
//! stage-to-stage lags and its set's spans into histograms and bumps a
//! completion counter, while traces that never complete are counted by
//! the furthest stage they reached — a per-stage loss readout. The
//! stage set ([`Stages`]) supplies everything that differs between uses
//! as data: stage names, metric prefix, table capacity and the spans
//! recorded on close.
//!
//! * [`Stage`] — `SampleFrame` publications across the telemetry →
//!   control pipeline. The trace id ([`frame_trace_id`], FNV-1a over
//!   topic + payload head) is recomputed by every stage from data it
//!   already holds, so no id field travels on the wire and frame
//!   encoding and per-seed digests are untouched.
//! * [`GrantStage`] — federation cap grants, from the federator's budget
//!   split to the observed power crossing. The trace id is the grant
//!   sequence number the federator embeds in the payload
//!   (`"<watts> <seq>"`); sequence numbers are per rack, and so is the
//!   tracer (it lives in the rack's [`ObsHub`]). First-stamp-wins makes
//!   retained-replay re-deliveries after a broker restart harmless.
//!
//! All timestamps come through the hub's injectable clock, so tracing
//! never perturbs per-seed digests.
//!
//! [`ObsHub`]: crate::ObsHub

use crate::hash::Fnv1a;
use crate::metrics::{Counter, Histogram, MetricsRegistry};
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

/// A latency a stage set records when a trace closes: the lag from
/// stage `from` to stage `to`, recorded only when both are stamped.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Histogram name after the set's prefix (`e2e_ns` names
    /// `obs_trace_e2e_ns` for frames).
    pub name: &'static str,
    /// Start stage index; `None` is the first stamped stage.
    pub from: Option<usize>,
    /// End stage index; `None` is the last stamped stage.
    pub to: Option<usize>,
}

/// An ordered set of stages a [`StageTracer`] follows.
pub trait Stages: Copy {
    /// Stage names in causal order, as they appear in metric labels
    /// (two to eight of them).
    const NAMES: &'static [&'static str];
    /// Metric name prefix.
    const PREFIX: &'static str;
    /// Slot-table capacity, a power of two: the open traces the table
    /// holds before a full probe window evicts one as lost.
    const CAPACITY: usize;
    /// The spans recorded on close, besides the stage-pair lags.
    const SPANS: &'static [Span];
    /// This stage's index into [`NAMES`](Self::NAMES).
    fn index(self) -> usize;
}

/// Pipeline stages a frame passes through, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Broker accepted the publish.
    BrokerPublish = 0,
    /// A session queue received the fan-out copy.
    SessionDeliver = 1,
    /// Ingest decoded and appended the frame to the TsDb.
    IngestAppend = 2,
    /// The predictor consumed the window containing the frame.
    PredictorUpdate = 3,
    /// The scheduler tick that acted on the window ran.
    SchedulerTick = 4,
    /// The resulting DVFS command was published.
    DvfsPublish = 5,
}

/// Frame stage names, indexed by [`Stage`].
pub const STAGE_NAMES: [&str; 6] = [
    "broker_publish",
    "session_deliver",
    "ingest_append",
    "predictor_update",
    "scheduler_tick",
    "dvfs_publish",
];

impl Stages for Stage {
    const NAMES: &'static [&'static str] = &STAGE_NAMES;
    const PREFIX: &'static str = "obs_trace";
    const CAPACITY: usize = 4096;
    /// `obs_trace_e2e_ns`: first to last stamped stage, the
    /// control-loop latency.
    const SPANS: &'static [Span] = &[Span {
        name: "e2e_ns",
        from: None,
        to: None,
    }];
    fn index(self) -> usize {
        self as usize
    }
}

/// The hops a cap grant takes from the federator's budget split to an
/// observed node-power change, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum GrantStage {
    /// The federator computed this rack's share and published the
    /// retained grant on the site broker.
    FedSplit = 0,
    /// The downlink bridge forwarded the grant onto the rack broker.
    BridgeDeliver = 1,
    /// The rack's cap-watch subscriber drained the grant.
    RackReceive = 2,
    /// The control plane swapped its cap schedule (the ladder and the
    /// admission envelope now read the new cap).
    CapCommand = 3,
    /// The plant's observed system power first measured at or under the
    /// granted cap — actuation, as the invariant checker would see it.
    PowerCrossing = 4,
}

/// Grant stage names, indexed by [`GrantStage`] — also the
/// flight-recorder event kinds for grant hops.
pub const GRANT_STAGE_NAMES: [&str; 5] = [
    "fed_split",
    "bridge_deliver",
    "rack_receive",
    "cap_command",
    "power_crossing",
];

impl Stages for GrantStage {
    const NAMES: &'static [&'static str] = &GRANT_STAGE_NAMES;
    const PREFIX: &'static str = "obs_grant";
    /// Grants are low-rate (one per rack per rebalance at most).
    const CAPACITY: usize = 256;
    /// `obs_grant_apply_ns` (split → controller cap command) and
    /// `obs_grant_e2e_ns` (split → observed power crossing, the
    /// grant-to-actuation latency the paper's reaction-time argument
    /// turns on).
    const SPANS: &'static [Span] = &[
        Span {
            name: "apply_ns",
            from: Some(GrantStage::FedSplit as usize),
            to: Some(GrantStage::CapCommand as usize),
        },
        Span {
            name: "e2e_ns",
            from: Some(GrantStage::FedSplit as usize),
            to: Some(GrantStage::PowerCrossing as usize),
        },
    ];
    fn index(self) -> usize {
        self as usize
    }
}

/// How many payload bytes participate in the trace id. 24 bytes covers
/// the `SampleFrame` wire header (magic, version, t0, dt, n), which is
/// unique per (topic, frame) in any sane stream.
pub const TRACE_ID_PAYLOAD_BYTES: usize = 24;

/// Deterministic trace id for a frame publication: FNV-1a over the
/// topic bytes, a 0xFF separator (valid topics are UTF-8, so this
/// cannot collide with topic content), and the first
/// [`TRACE_ID_PAYLOAD_BYTES`] payload bytes. Both the broker (raw
/// publish) and ingest (raw delivered payload) hold exactly these
/// inputs, so the id links the two without wire changes.
pub fn frame_trace_id(topic: &str, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(topic.as_bytes());
    h.write(&[0xFF]);
    h.write(&payload[..payload.len().min(TRACE_ID_PAYLOAD_BYTES)]);
    h.finish()
}

/// Most stages a set may have: the stamped-stage mask is a `u8`.
const MAX_STAGES: usize = 8;
/// Slots a stamp probes, from the id's home slot, before evicting.
const PROBE: usize = 16;

/// A trace copied out of the table, finalised after the lock drops.
#[derive(Clone, Copy)]
struct Slot {
    seen: u8,
    t_ns: [u64; MAX_STAGES],
}

/// Struct-of-arrays slot table: probing scans the packed `seen`/`ids`
/// arrays (64 and 8 entries per cache line), so a stamp on the ingest
/// hot path touches one or two lines instead of one per probed slot.
/// `t_ns` holds one row of stage stamps per slot. A slot is free when
/// its `seen` mask is zero.
struct Table {
    seen: Box<[u8]>,
    ids: Box<[u64]>,
    t_ns: Box<[u64]>,
}

/// Fixed-capacity causal tracer over the stage set `S`; see the module
/// docs. All histograms and counters live in the [`MetricsRegistry`]
/// passed at construction, named after the set's prefix `p`:
///
/// * `{p}_stage_ns{from=..,to=..}` — lag between consecutive stamped
///   stages;
/// * one histogram per [`Stages::SPANS`] entry;
/// * `{p}_completed_total` — traces closed normally;
/// * `{p}_lost_total{last=..}` — traces evicted or flushed before they
///   closed, keyed by the furthest stage they reached.
pub struct StageTracer<S: Stages> {
    enabled: AtomicBool,
    table: Mutex<Table>,
    stage_lag: Box<[Histogram]>,
    spans: Box<[Histogram]>,
    completed: Counter,
    lost: Box<[Counter]>,
    stages: PhantomData<fn(S)>,
}

impl<S: Stages> StageTracer<S> {
    const N: usize = S::NAMES.len();
    const MASK: usize = S::CAPACITY - 1;

    /// A tracer registering its metrics in `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        const {
            assert!(Self::N >= 2 && Self::N <= MAX_STAGES);
            assert!(S::CAPACITY.is_power_of_two());
        }
        let (p, names) = (S::PREFIX, S::NAMES);
        let stage_lag = (0..Self::N - 1)
            .map(|i| {
                registry.histogram(&format!(
                    "{p}_stage_ns{{from=\"{}\",to=\"{}\"}}",
                    names[i],
                    names[i + 1]
                ))
            })
            .collect();
        let spans = S::SPANS
            .iter()
            .map(|s| registry.histogram(&format!("{p}_{}", s.name)))
            .collect();
        let lost = names
            .iter()
            .map(|name| registry.counter(&format!("{p}_lost_total{{last=\"{name}\"}}")))
            .collect();
        // Touch every page at construction: the zeroed allocations are
        // otherwise backed lazily, and the page faults would land in
        // the first few thousand stamp() calls on the ingest hot path.
        let mut seen = vec![0u8; S::CAPACITY].into_boxed_slice();
        let mut ids = vec![0u64; S::CAPACITY].into_boxed_slice();
        let mut t_ns = vec![0u64; S::CAPACITY * Self::N].into_boxed_slice();
        // SAFETY: every pointer written through comes from a `&mut` into
        // one of the three live, initialised allocations above, so it is
        // valid and aligned for a write of its element type.
        unsafe {
            for s in seen.iter_mut() {
                std::ptr::write_volatile(s, 0);
            }
            for id in ids.iter_mut() {
                std::ptr::write_volatile(id, 0);
            }
            for row in t_ns.chunks_exact_mut(Self::N) {
                std::ptr::write_volatile(&mut row[0], 0);
            }
        }
        StageTracer {
            enabled: AtomicBool::new(true),
            table: Mutex::new(Table { seen, ids, t_ns }),
            stage_lag,
            spans,
            completed: registry.counter(&format!("{p}_completed_total")),
            lost,
            stages: PhantomData,
        }
    }

    /// Disable (or re-enable) stamping; a disabled tracer's `stamp`,
    /// `stamp_batch` and `close` are cheap no-ops. Used by overhead A/B
    /// measurements.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether stamping is active.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Stamp `stage` of trace `id` at `now_s` (clock seconds; stored as
    /// integer nanoseconds). Creates the trace on first stamp; if the
    /// probe window is full the displaced resident is finalised as lost.
    pub fn stamp(&self, id: u64, stage: S, now_s: f64) {
        if !self.enabled() {
            return;
        }
        let lost = Self::stamp_in(&mut self.table.lock(), id, stage.index(), to_ns(now_s));
        if let Some(s) = lost {
            self.finalize_lost(&s);
        }
    }

    /// Stamp `stage` for every id in `ids` at one shared timestamp,
    /// taking the table lock once for the whole batch — the ingest
    /// hot-path amortisation (a drained batch shares one drain instant
    /// anyway). Displaced residents are finalised inline; the loss
    /// counters are plain atomics, so no lock ordering is at stake.
    pub fn stamp_batch(&self, stage: S, now_s: f64, ids: impl IntoIterator<Item = u64>) {
        if !self.enabled() {
            return;
        }
        let (stage, now_ns) = (stage.index(), to_ns(now_s));
        let mut g = self.table.lock();
        for id in ids {
            if let Some(s) = Self::stamp_in(&mut g, id, stage, now_ns) {
                self.finalize_lost(&s);
            }
        }
    }

    /// The home slot of trace `id`; probing walks forward from it.
    fn home(id: u64) -> usize {
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize) & Self::MASK
    }

    /// The slot holding trace `id`, if it is resident.
    fn find(g: &Table, id: u64) -> Option<usize> {
        let home = Self::home(id);
        (0..PROBE)
            .map(|k| (home + k) & Self::MASK)
            .find(|&i| g.seen[i] != 0 && g.ids[i] == id)
    }

    /// Copy slot `i` out and free it.
    fn take(g: &mut Table, i: usize) -> Slot {
        let mut t_ns = [0; MAX_STAGES];
        t_ns[..Self::N].copy_from_slice(&g.t_ns[i * Self::N..(i + 1) * Self::N]);
        let s = Slot {
            seen: g.seen[i],
            t_ns,
        };
        g.seen[i] = 0;
        s
    }

    /// The probe/insert body shared by [`stamp`](Self::stamp) and
    /// [`stamp_batch`](Self::stamp_batch): the resident slot of `id`,
    /// else the first free slot in the probe window, else the home slot
    /// with its resident evicted. Returns the evicted resident for the
    /// caller to finalise as lost.
    fn stamp_in(g: &mut Table, id: u64, stage: usize, now_ns: u64) -> Option<Slot> {
        let home = Self::home(id);
        let mut free = None;
        let mut found = None;
        for k in 0..PROBE {
            let i = (home + k) & Self::MASK;
            if g.seen[i] == 0 {
                free = free.or(Some(i));
            } else if g.ids[i] == id {
                found = Some(i);
                break;
            }
        }
        let mut evicted = None;
        let i = match found {
            Some(i) => i,
            None => {
                let i = free.unwrap_or(home);
                if g.seen[i] != 0 {
                    evicted = Some(Self::take(g, i));
                }
                g.ids[i] = id;
                i
            }
        };
        if g.seen[i] & (1 << stage) == 0 {
            g.seen[i] |= 1 << stage;
            g.t_ns[i * Self::N + stage] = now_ns;
        }
        evicted
    }

    /// Whether trace `id` is currently resident (stamped, not closed).
    pub fn is_resident(&self, id: u64) -> bool {
        Self::find(&self.table.lock(), id).is_some()
    }

    /// Close trace `id`: fold its lags and spans into the histograms
    /// and count it completed. No-op if the trace is not resident
    /// (already evicted).
    pub fn close(&self, id: u64) {
        if !self.enabled() {
            return;
        }
        let slot = {
            let mut g = self.table.lock();
            Self::find(&g, id).map(|i| Self::take(&mut g, i))
        };
        if let Some(s) = slot {
            self.finalize_completed(&s);
        }
    }

    /// Finalise every resident trace as lost (end-of-run accounting:
    /// anything still open never made it through).
    pub fn flush(&self) {
        let residents: Vec<Slot> = {
            let mut g = self.table.lock();
            let mut v = Vec::new();
            for i in 0..S::CAPACITY {
                if g.seen[i] != 0 {
                    v.push(Self::take(&mut g, i));
                }
            }
            v
        };
        for s in &residents {
            self.finalize_lost(s);
        }
    }

    /// Completed-trace count (readout convenience).
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    fn finalize_completed(&self, s: &Slot) {
        let stamped = |i: usize| s.seen & (1 << i) != 0;
        let first = (0..Self::N).find(|&i| stamped(i));
        let mut last: Option<usize> = None;
        for i in (0..Self::N).filter(|&i| stamped(i)) {
            if let Some(p) = last {
                // A skipped stage folds the whole gap into the edge
                // leaving the earlier stamped stage.
                self.stage_lag[p].record(s.t_ns[i].saturating_sub(s.t_ns[p]));
            }
            last = Some(i);
        }
        for (span, h) in S::SPANS.iter().zip(self.spans.iter()) {
            let from = span.from.or(first).filter(|&i| stamped(i));
            let to = span.to.or(last).filter(|&i| stamped(i));
            if let (Some(a), Some(b)) = (from, to) {
                h.record(s.t_ns[b].saturating_sub(s.t_ns[a]));
            }
        }
        self.completed.inc();
    }

    fn finalize_lost(&self, s: &Slot) {
        if let Some(i) = (0..Self::N).rev().find(|&i| s.seen & (1 << i) != 0) {
            self.lost[i].inc();
        }
    }
}

/// Clock seconds as integer nanoseconds, rounded, clamped at zero.
fn to_ns(now_s: f64) -> u64 {
    (now_s * 1e9).round().max(0.0) as u64
}

impl<S: Stages> std::fmt::Debug for StageTracer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageTracer")
            .field("prefix", &S::PREFIX)
            .field("enabled", &self.enabled())
            .field("completed", &self.completed.get())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type FrameTracer = StageTracer<Stage>;
    type GrantTracer = StageTracer<GrantStage>;

    #[test]
    fn trace_id_is_deterministic_and_topic_sensitive() {
        let p = [0xD5u8; 32];
        let a = frame_trace_id("davide/node00/power/node", &p);
        let b = frame_trace_id("davide/node00/power/node", &p);
        let c = frame_trace_id("davide/node01/power/node", &p);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Only the first 24 payload bytes matter (the frame header).
        let mut p2 = p;
        p2[30] = 0;
        assert_eq!(a, frame_trace_id("davide/node00/power/node", &p2));
        let mut p3 = p;
        p3[3] = 0;
        assert_ne!(a, frame_trace_id("davide/node00/power/node", &p3));
    }

    #[test]
    fn complete_trace_records_e2e_and_stage_lags() {
        let r = MetricsRegistry::new();
        let t = FrameTracer::new(&r);
        let id = frame_trace_id("t", b"payload-header-bytes-....");
        t.stamp(id, Stage::BrokerPublish, 1.0);
        t.stamp(id, Stage::SessionDeliver, 1.0);
        t.stamp(id, Stage::IngestAppend, 2.0);
        t.stamp(id, Stage::SchedulerTick, 2.0);
        t.stamp(id, Stage::DvfsPublish, 2.0);
        assert!(t.is_resident(id));
        t.close(id);
        assert!(!t.is_resident(id));
        assert_eq!(t.completed(), 1);
        let e2e = r.find_histogram("obs_trace_e2e_ns").unwrap().snapshot();
        assert_eq!(e2e.count, 1);
        assert_eq!(e2e.max, 1_000_000_000);
        // deliver → ingest carries the 1 s hop.
        let lag = r
            .find_histogram("obs_trace_stage_ns{from=\"session_deliver\",to=\"ingest_append\"}")
            .unwrap()
            .snapshot();
        assert_eq!(lag.count, 1);
        assert_eq!(lag.max, 1_000_000_000);
    }

    #[test]
    fn duplicate_stamp_keeps_first_timestamp() {
        let r = MetricsRegistry::new();
        let t = FrameTracer::new(&r);
        t.stamp(7, Stage::BrokerPublish, 1.0);
        t.stamp(7, Stage::BrokerPublish, 5.0);
        t.stamp(7, Stage::DvfsPublish, 2.0);
        t.close(7);
        let e2e = r.find_histogram("obs_trace_e2e_ns").unwrap().snapshot();
        assert_eq!(e2e.max, 1_000_000_000);
    }

    #[test]
    fn flush_counts_unclosed_traces_as_lost_by_furthest_stage() {
        let r = MetricsRegistry::new();
        let t = FrameTracer::new(&r);
        t.stamp(1, Stage::BrokerPublish, 0.0);
        t.stamp(2, Stage::BrokerPublish, 0.0);
        t.stamp(2, Stage::SessionDeliver, 0.1);
        t.flush();
        assert_eq!(
            r.find_counter("obs_trace_lost_total{last=\"broker_publish\"}")
                .unwrap()
                .get(),
            1
        );
        assert_eq!(
            r.find_counter("obs_trace_lost_total{last=\"session_deliver\"}")
                .unwrap()
                .get(),
            1
        );
        assert_eq!(t.completed(), 0);
        // Flushed slots are gone.
        assert!(!t.is_resident(1));
        t.flush();
        assert_eq!(
            r.find_counter("obs_trace_lost_total{last=\"broker_publish\"}")
                .unwrap()
                .get(),
            1
        );
    }

    #[test]
    fn table_eviction_finalizes_displaced_trace_as_lost() {
        let r = MetricsRegistry::new();
        let t = FrameTracer::new(&r);
        let capacity = Stage::CAPACITY as u64;
        // Far more traces than capacity: evictions must not panic and
        // must account every displaced trace as lost.
        for id in 0..2 * capacity {
            t.stamp(id, Stage::BrokerPublish, id as f64 * 1e-3);
        }
        t.flush();
        let lost = r
            .find_counter("obs_trace_lost_total{last=\"broker_publish\"}")
            .unwrap()
            .get();
        assert_eq!(lost, 2 * capacity);
    }

    #[test]
    fn full_span_records_apply_and_e2e_latency() {
        let r = MetricsRegistry::new();
        let t = GrantTracer::new(&r);
        t.stamp(7, GrantStage::FedSplit, 100.0);
        t.stamp(7, GrantStage::BridgeDeliver, 100.0);
        t.stamp(7, GrantStage::RackReceive, 130.0);
        t.stamp(7, GrantStage::CapCommand, 130.0);
        t.stamp(7, GrantStage::PowerCrossing, 160.0);
        t.close(7);
        assert_eq!(
            r.find_counter("obs_grant_completed_total").unwrap().get(),
            1
        );
        let apply = r.find_histogram("obs_grant_apply_ns").unwrap().snapshot();
        assert_eq!(apply.count, 1);
        assert_eq!(apply.sum, 30_000_000_000);
        let e2e = r.find_histogram("obs_grant_e2e_ns").unwrap().snapshot();
        assert_eq!(e2e.sum, 60_000_000_000);
    }

    #[test]
    fn first_stamp_wins_over_retained_replay() {
        let r = MetricsRegistry::new();
        let t = GrantTracer::new(&r);
        t.stamp(3, GrantStage::FedSplit, 10.0);
        t.stamp(3, GrantStage::RackReceive, 40.0);
        // A broker restart replays the retained grant; the duplicate
        // stamp must not move the timestamp.
        t.stamp(3, GrantStage::RackReceive, 70.0);
        t.stamp(3, GrantStage::PowerCrossing, 50.0);
        t.close(3);
        let e2e = r.find_histogram("obs_grant_e2e_ns").unwrap().snapshot();
        assert_eq!(e2e.sum, 40_000_000_000);
        // No cap command was stamped, so no apply latency either.
        let apply = r.find_histogram("obs_grant_apply_ns").unwrap().snapshot();
        assert_eq!(apply.count, 0);
    }

    #[test]
    fn flush_accounts_unactuated_grants_as_lost() {
        let r = MetricsRegistry::new();
        let t = GrantTracer::new(&r);
        t.stamp(1, GrantStage::FedSplit, 1.0);
        t.stamp(1, GrantStage::CapCommand, 2.0);
        t.stamp(2, GrantStage::FedSplit, 3.0);
        t.flush();
        assert_eq!(
            r.find_counter("obs_grant_lost_total{last=\"cap_command\"}")
                .unwrap()
                .get(),
            1
        );
        assert_eq!(
            r.find_counter("obs_grant_lost_total{last=\"fed_split\"}")
                .unwrap()
                .get(),
            1
        );
        assert_eq!(
            r.find_counter("obs_grant_completed_total").unwrap().get(),
            0
        );
    }

    #[test]
    fn disabled_tracer_stamps_nothing() {
        let r = MetricsRegistry::new();
        let t = GrantTracer::new(&r);
        t.set_enabled(false);
        t.stamp(9, GrantStage::FedSplit, 1.0);
        t.stamp_batch(GrantStage::CapCommand, 1.5, [9, 10]);
        t.stamp(9, GrantStage::PowerCrossing, 2.0);
        t.close(9);
        t.flush();
        assert_eq!(
            r.find_counter("obs_grant_completed_total").unwrap().get(),
            0
        );
        assert_eq!(
            r.find_counter("obs_grant_lost_total{last=\"fed_split\"}")
                .unwrap()
                .get(),
            0
        );
        assert!(!t.enabled());
    }
}
