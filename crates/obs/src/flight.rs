//! Bounded flight recorder: the last N control-loop events, always on.
//!
//! Aircraft keep a flight recorder precisely because the interesting
//! window is the one just *before* the failure. The sim's equivalent:
//! every rack records its recent cap-grant hops and invariant
//! violations into a fixed-size lock-free ring, and the instant the
//! invariant checker fires the harness snapshots the ring into a
//! deterministic, digest-stable text dump — turning a sabotage-scenario
//! failure from "digest mismatch" into a readable causal timeline.
//!
//! The ring is wait-free for writers: one atomic fetch-add claims a
//! logical index, and a per-slot version counter (seqlock style, set to
//! `2·(index+1)` when the write completes) lets readers detect both
//! torn reads and slots overwritten by newer events. Event kinds and
//! labels are `&'static str`, stored as raw pointer + length words —
//! sound because `'static` strings never move — so a push is a handful
//! of relaxed stores and never allocates.

use crate::hash::fnv1a;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Well-known flight-recorder event kinds. Grant hops are the grant
/// stage names, so the timeline reads in causal order.
pub mod kind {
    use crate::trace::{GrantStage, GRANT_STAGE_NAMES};

    /// Federator published a grant ([`GrantStage::FedSplit`]).
    pub const FED_SPLIT: &str = GRANT_STAGE_NAMES[GrantStage::FedSplit as usize];
    /// Downlink bridge forwarded the grant onto the rack broker.
    pub const BRIDGE_DELIVER: &str = GRANT_STAGE_NAMES[GrantStage::BridgeDeliver as usize];
    /// Rack cap-watch drained the grant.
    pub const RACK_RECEIVE: &str = GRANT_STAGE_NAMES[GrantStage::RackReceive as usize];
    /// Control plane swapped its cap schedule.
    pub const CAP_COMMAND: &str = GRANT_STAGE_NAMES[GrantStage::CapCommand as usize];
    /// Observed system power first measured under the granted cap.
    pub const POWER_CROSSING: &str = GRANT_STAGE_NAMES[GrantStage::PowerCrossing as usize];
    /// The invariant checker recorded a violation; `label` names the
    /// invariant.
    pub const VIOLATION: &str = "violation";
}

/// One recorded event. `value_bits` carries an f64 payload (cap watts,
/// violation time) as raw bits so dumps are bit-exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual-time nanoseconds when the event was recorded.
    pub t_ns: u64,
    /// Event kind; see [`kind`].
    pub kind: &'static str,
    /// Secondary label (invariant name for violations, else `""`).
    pub label: &'static str,
    /// Grant sequence number for grant events, 0 otherwise.
    pub seq: u64,
    /// f64 payload as raw bits.
    pub value_bits: u64,
}

struct Cell {
    /// 0 = never written; odd = write in progress; `2·(n+1)` = holds
    /// logical event `n`.
    ver: AtomicU64,
    t_ns: AtomicU64,
    kind_ptr: AtomicU64,
    kind_len: AtomicU64,
    label_ptr: AtomicU64,
    label_len: AtomicU64,
    seq: AtomicU64,
    value_bits: AtomicU64,
}

impl Cell {
    fn new() -> Self {
        Cell {
            ver: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            kind_ptr: AtomicU64::new(0),
            kind_len: AtomicU64::new(0),
            label_ptr: AtomicU64::new(0),
            label_len: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            value_bits: AtomicU64::new(0),
        }
    }
}

/// Default ring capacity (events retained per rack).
pub const FLIGHT_CAPACITY: usize = 1024;

/// The bounded lock-free event ring; see the module docs.
pub struct FlightRecorder {
    enabled: AtomicBool,
    head: AtomicU64,
    cells: Box<[Cell]>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        FlightRecorder {
            enabled: AtomicBool::new(true),
            head: AtomicU64::new(0),
            cells: (0..cap).map(|_| Cell::new()).collect(),
        }
    }

    /// Disable (or re-enable) recording; a disabled recorder's `push`
    /// is one atomic load. Used by overhead A/B measurements.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Total events pushed since construction (including overwritten
    /// ones).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one event. Wait-free; never allocates.
    pub fn push(
        &self,
        t_ns: u64,
        kind: &'static str,
        label: &'static str,
        seq: u64,
        value_bits: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let c = &self.cells[(n as usize) & (self.cells.len() - 1)];
        c.ver.store(2 * n + 1, Ordering::Release);
        c.t_ns.store(t_ns, Ordering::Relaxed);
        c.kind_ptr.store(kind.as_ptr() as u64, Ordering::Relaxed);
        c.kind_len.store(kind.len() as u64, Ordering::Relaxed);
        c.label_ptr.store(label.as_ptr() as u64, Ordering::Relaxed);
        c.label_len.store(label.len() as u64, Ordering::Relaxed);
        c.seq.store(seq, Ordering::Relaxed);
        c.value_bits.store(value_bits, Ordering::Relaxed);
        c.ver.store(2 * (n + 1), Ordering::Release);
    }

    /// The retained events, oldest first, each paired with its logical
    /// index. Slots being overwritten concurrently are skipped.
    pub fn snapshot(&self) -> Vec<(u64, FlightEvent)> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.cells.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for n in start..head {
            let c = &self.cells[(n as usize) & (self.cells.len() - 1)];
            let v1 = c.ver.load(Ordering::Acquire);
            if v1 != 2 * (n + 1) {
                continue; // torn or already overwritten
            }
            let ev = FlightEvent {
                t_ns: c.t_ns.load(Ordering::Relaxed),
                kind: load_static_str(&c.kind_ptr, &c.kind_len),
                label: load_static_str(&c.label_ptr, &c.label_len),
                seq: c.seq.load(Ordering::Relaxed),
                value_bits: c.value_bits.load(Ordering::Relaxed),
            };
            if c.ver.load(Ordering::Acquire) == v1 {
                out.push((n, ev));
            }
        }
        out
    }

    /// Deterministic, digest-stable text dump of the retained timeline:
    /// one line per event in logical order, values as raw bit patterns
    /// so two same-seed runs produce byte-identical dumps.
    pub fn dump(&self) -> String {
        let events = self.snapshot();
        let mut out = String::with_capacity(64 * events.len() + 32);
        out.push_str("flight v1\n");
        for (n, e) in &events {
            out.push_str(&format!(
                "{n:06} t_ns={} kind={} seq={} value={:#018x}",
                e.t_ns, e.kind, e.seq, e.value_bits
            ));
            if !e.label.is_empty() {
                out.push_str(&format!(" label={}", e.label));
            }
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest of [`dump`](Self::dump) — a compact fingerprint
    /// for determinism checks.
    pub fn digest(&self) -> u64 {
        fnv1a(self.dump().as_bytes())
    }
}

fn load_static_str(ptr: &AtomicU64, len: &AtomicU64) -> &'static str {
    let p = ptr.load(Ordering::Relaxed) as usize as *const u8;
    let l = len.load(Ordering::Relaxed) as usize;
    if p.is_null() || l == 0 {
        return "";
    }
    // SAFETY: these words were only ever stored by `push`, whose
    // signature restricts them to the address and length of a
    // `&'static str`, and the seqlock version check around this read
    // guarantees the pair is from one complete write.
    unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(p, l)) }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("pushed", &self.pushed())
            .field("capacity", &self.cells.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_dumps_in_order() {
        let fr = FlightRecorder::new(8);
        fr.push(1_000, kind::FED_SPLIT, "", 0, 7200f64.to_bits());
        fr.push(2_000, kind::RACK_RECEIVE, "", 0, 7200f64.to_bits());
        fr.push(3_000, kind::VIOLATION, "cap", 0, 2.5f64.to_bits());
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].1.kind, "fed_split");
        assert_eq!(snap[2].1.label, "cap");
        let dump = fr.dump();
        assert!(dump.starts_with("flight v1\n"));
        assert!(dump.contains("kind=violation"));
        assert!(dump.contains("label=cap"));
        // The dump is a pure function of the pushed events.
        let fr2 = FlightRecorder::new(8);
        fr2.push(1_000, kind::FED_SPLIT, "", 0, 7200f64.to_bits());
        fr2.push(2_000, kind::RACK_RECEIVE, "", 0, 7200f64.to_bits());
        fr2.push(3_000, kind::VIOLATION, "cap", 0, 2.5f64.to_bits());
        assert_eq!(fr2.dump(), dump);
        assert_eq!(fr2.digest(), fr.digest());
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.push(i, kind::FED_SPLIT, "", i, i);
        }
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].0, 6, "oldest retained logical index");
        assert_eq!(snap[3].1.seq, 9);
        assert_eq!(fr.pushed(), 10);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let fr = FlightRecorder::new(4);
        fr.set_enabled(false);
        fr.push(1, kind::VIOLATION, "cap", 0, 0);
        assert_eq!(fr.pushed(), 0);
        assert_eq!(fr.dump(), "flight v1\n");
    }

    #[test]
    fn concurrent_pushes_never_tear_a_snapshot() {
        use std::sync::Arc;
        let fr = Arc::new(FlightRecorder::new(64));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let fr = fr.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        fr.push(i, kind::CAP_COMMAND, "", w * 10_000 + i, i);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for (_, e) in fr.snapshot() {
                assert_eq!(e.kind, "cap_command");
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(fr.pushed(), 20_000);
        assert_eq!(fr.snapshot().len(), 64);
    }
}
