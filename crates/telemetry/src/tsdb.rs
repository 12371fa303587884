//! Telemetry time-series store.
//!
//! Fig. 4: monitoring information "is recorded into a database, and
//! computed by the management node for the training of job-to-power
//! predictors". This is that database: one bounded raw ring per series,
//! optionally backed by the compressed and on-disk tiers of
//! [`crate::storage`], with range, mean and energy queries. The 1 s and
//! 1 min resolutions are bucket means folded from the raw points at
//! query time, so every resolution reads the same history in every
//! tier.
//!
//! ## Ingest hot path
//!
//! The store is built for frame-granular ingest at EG rates (45 nodes ×
//! 8 channels × 50 kS/s after decimation):
//!
//! * **Interned series handles.** [`TsDb::resolve`] interns a series
//!   name once and returns a copyable [`SeriesId`]; all appends and
//!   queries go through the `_id` methods, which never hash a string or
//!   allocate ([`TsDb::lookup`] maps a name to its id read-only).
//! * **Columnar rings.** Each series stores timestamps (`f64`) and
//!   values (`f32`) in separate ring buffers, halving raw-sample memory
//!   versus `(f64, f64)` pairs and making bulk copies cache-friendly.
//! * **Bulk frame append.** [`TsDb::append_frame_id`] ingests a whole
//!   uniformly-spaced frame: one monotonicity check, one eviction step
//!   and a bulk extend of both columns. Appends do no per-resolution
//!   work.
//! * **Binary-search range queries.** Timestamps are nondecreasing by
//!   construction (stale points are dropped), so a query finds its
//!   window bounds in the ring with `partition_point` instead of a scan.
//!
//! ## Read path
//!
//! Every query folds one chronological disk → compressed → hot scan,
//! [`TieredScan::fold_points`]. A rollup query widens its window to the
//! whole buckets it reports and folds their raw points into bucket
//! means on the way, so its [`QueryCoverage`] counts raw points per
//! tier and compaction never changes its answer.
//!
//! A raw mean gives the scan a whole-block step
//! (`TieredScan::fold_points_with`). Each sealed block stores the
//! in-order `f64` sum of its values and two `f32` exponent bounds; for
//! an in-memory block wholly inside the window, the bounds and the
//! running sum decide whether every addition of the point-by-point fold
//! would be exact. When they would, adding the stored sum gives the
//! same bits and the block is not decoded; otherwise it is decoded as
//! before. Edge blocks, disk blocks, the hot tail, rollups and energy
//! integrals always fold point by point.

use std::collections::{HashMap, VecDeque};
use std::io;

use crate::storage::tiered::TierEngine;
use crate::storage::{
    DiskTier, QueryCoverage, RangeQuery, SealedBlock, TierStats, TieredScan, TieringConfig,
};

/// One (timestamp, value) observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Timestamp, seconds.
    pub t: f64,
    /// Value (watts for power series).
    pub v: f64,
}

/// Interned handle for a series name: resolve once with
/// [`TsDb::resolve`], then append and query without string hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(u32);

impl SeriesId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Ring pre-allocation cap: a series reserves `min(capacity,
/// RING_PREALLOC)` raw slots up front.
const RING_PREALLOC: usize = 4096;

/// One series: a bounded columnar raw ring (timestamps and values in
/// separate arrays) plus its ingest totals.
#[derive(Debug, Clone)]
struct Series {
    ts: VecDeque<f64>,
    vs: VecDeque<f32>,
    capacity: usize,
    /// Points overwritten by the ring before anything could seal them —
    /// lost history, surfaced through [`QueryCoverage::evicted`].
    evicted: u64,
    count: u64,
    last_t: f64,
}

impl Series {
    fn new(capacity: usize) -> Self {
        let pre = capacity.min(RING_PREALLOC);
        Series {
            ts: VecDeque::with_capacity(pre),
            vs: VecDeque::with_capacity(pre),
            capacity,
            evicted: 0,
            count: 0,
            last_t: f64::NEG_INFINITY,
        }
    }

    #[inline]
    fn push(&mut self, t: f64, v: f32) {
        if self.ts.len() == self.capacity {
            self.ts.pop_front();
            self.vs.pop_front();
            self.evicted += 1;
        }
        self.ts.push_back(t);
        self.vs.push_back(v);
    }

    /// Bulk-append a uniformly-spaced frame: evict in one step, then
    /// extend both columns (no per-sample capacity branch).
    fn extend_uniform(&mut self, t0: f64, dt: f64, vals: &[f32]) {
        let n = vals.len();
        // If the frame alone exceeds capacity only its tail survives.
        let skip = n.saturating_sub(self.capacity);
        let kept = n - skip;
        let overflow = (self.ts.len() + kept).saturating_sub(self.capacity);
        self.evicted += (skip + overflow.min(self.ts.len())) as u64;
        if overflow >= self.ts.len() {
            self.ts.clear();
            self.vs.clear();
        } else if overflow > 0 {
            self.ts.drain(..overflow);
            self.vs.drain(..overflow);
        }
        self.ts.extend((skip..n).map(|i| t0 + i as f64 * dt));
        self.vs.extend(vals[skip..].iter().copied());
    }

    /// Half-open window `[t0, t1)` as deque index bounds, found by
    /// binary search (timestamps are nondecreasing by construction).
    #[inline]
    fn bounds(&self, t0: f64, t1: f64) -> (usize, usize) {
        let a = self.ts.partition_point(|&t| t < t0);
        let b = self.ts.partition_point(|&t| t < t1);
        (a, b.max(a))
    }
}

/// Copy the oldest `k` items of a deque into `out` (cleared first) as
/// at most two slice copies, one per side of the ring's wrap point.
fn copy_front<T: Copy>(ring: &VecDeque<T>, k: usize, out: &mut Vec<T>) {
    let (head, tail) = ring.as_slices();
    let from_head = head.len().min(k);
    out.clear();
    out.extend_from_slice(&head[..from_head]);
    out.extend_from_slice(&tail[..k - from_head]);
}

/// Query resolution.
///
/// A rollup resolution answers one point per bucket of its width; a raw
/// point at `t` falls in bucket `floor(t / width)`. A bucket is
/// reported if and only if its centre lies in the query window
/// `[t0, t1)`; its point sits at that centre and holds the mean of every
/// retained raw point in the bucket. A rollup mean is the mean of the
/// reported bucket means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Raw samples.
    Raw,
    /// 1-second means.
    Second,
    /// 1-minute means.
    Minute,
}

impl Resolution {
    /// Bucket width in seconds; `None` for raw samples.
    fn bucket_s(self) -> Option<f64> {
        match self {
            Resolution::Raw => None,
            Resolution::Second => Some(1.0),
            Resolution::Minute => Some(60.0),
        }
    }
}

/// The buckets a rollup query reports: indices `lo..=hi`, whose centres
/// all lie in the query window.
#[derive(Debug, Clone, Copy)]
struct Buckets {
    width: f64,
    lo: i64,
    hi: i64,
}

impl Buckets {
    /// The buckets of `width` seconds whose centre lies in `[t0, t1)`,
    /// or `None` when there are none. Centres never decrease with the
    /// index, so the reported indices are one contiguous run.
    fn new(width: f64, t0: f64, t1: f64) -> Option<Self> {
        if t0.is_nan() || t1.is_nan() {
            return None;
        }
        let first = first_true(|k| centre(k, width) >= t0);
        let end = first_true(|k| centre(k, width) >= t1);
        (first < end).then(|| Buckets {
            width,
            lo: first as i64,
            hi: (end - 1) as i64,
        })
    }

    /// The raw window `[start, end)` the reported buckets span.
    fn span(&self) -> (f64, f64) {
        (
            self.lo as f64 * self.width,
            (self.hi as f64 + 1.0) * self.width,
        )
    }

    /// The bucket a raw point of the span falls in, clamped to the
    /// reported ones (float rounding can put a point on a span edge one
    /// bucket outside).
    #[inline]
    fn index(&self, t: f64) -> i64 {
        ((t / self.width).floor() as i64).clamp(self.lo, self.hi)
    }

    /// Bucket `k` as its centre and the mean of its `n` points.
    fn point(&self, k: i64, sum: f64, n: u64) -> (f64, f64) {
        (centre(k, self.width), sum / n as f64)
    }
}

/// The centre of bucket `k` of `width` seconds.
fn centre(k: i64, width: f64) -> f64 {
    (k as f64 + 0.5) * width
}

/// The smallest `k` in `i64::MIN..=i64::MAX + 1` at which a predicate
/// that is false and then true over `i64` holds (`i64::MAX + 1` if it
/// never does). A binary search over integers: 64 steps whatever the
/// window, where walking bucket indices would take as many steps as
/// there are buckets.
fn first_true(pred: impl Fn(i64) -> bool) -> i128 {
    let (mut lo, mut hi) = (i64::MIN as i128, i64::MAX as i128 + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid as i64) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Full store configuration: the raw ring size plus the optional
/// tiering policy.
#[derive(Debug, Clone)]
pub struct TsDbConfig {
    /// Hot raw points retained per series.
    pub raw_capacity: usize,
    /// Ignored: rollups are computed from the raw tiers at query time.
    /// Kept so that configurations which still set it compile.
    #[deprecated(note = "ignored: rollups are computed from the raw tiers at query time")]
    pub rollup_capacity: usize,
    /// Tiered-storage policy; `None` keeps the store hot-ring-only.
    pub tiering: Option<TieringConfig>,
}

impl Default for TsDbConfig {
    /// 100k raw points per series, no tiering.
    #[allow(deprecated)]
    fn default() -> Self {
        TsDbConfig {
            raw_capacity: 100_000,
            rollup_capacity: 0,
            tiering: None,
        }
    }
}

/// The store: keyed by series name (e.g. `node03/power/node`), with
/// interned [`SeriesId`] handles for the allocation-free hot path.
#[derive(Debug, Default)]
pub struct TsDb {
    ids: HashMap<String, SeriesId>,
    names: Vec<String>,
    series: Vec<Series>,
    cfg: TsDbConfig,
    tier: Option<TierEngine>,
}

impl TsDb {
    /// Store with default retention: 100k raw points per series (≈2 s
    /// of 50 kS/s raw).
    pub fn new() -> Self {
        Self::with_capacity(100_000)
    }

    /// Store with an explicit per-series raw capacity (no tiering).
    pub fn with_capacity(raw: usize) -> Self {
        Self::with_config(TsDbConfig {
            raw_capacity: raw,
            ..TsDbConfig::default()
        })
        .expect("untiered construction is infallible")
    }

    /// Store from a full [`TsDbConfig`]. With a disk tier configured
    /// this opens the segment directory and **recovers** any history a
    /// previous process left there (series are re-interned by name), so
    /// the only fallible part is disk-tier I/O.
    pub fn with_config(cfg: TsDbConfig) -> io::Result<Self> {
        let mut db = TsDb {
            ids: HashMap::new(),
            names: Vec::new(),
            series: Vec::new(),
            cfg,
            tier: None,
        };
        if let Some(tcfg) = db.cfg.tiering.clone() {
            let mut engine = TierEngine::new(tcfg, db.cfg.raw_capacity);
            if let Some(dcfg) = engine.cfg.disk.clone() {
                let ids = &mut db.ids;
                let names = &mut db.names;
                let series = &mut db.series;
                let raw_capacity = db.cfg.raw_capacity;
                let disk = DiskTier::open(&dcfg, |name| {
                    if let Some(id) = ids.get(name) {
                        return id.0;
                    }
                    let id = SeriesId(series.len() as u32);
                    ids.insert(name.to_string(), id);
                    names.push(name.to_string());
                    series.push(Series::new(raw_capacity));
                    id.0
                })?;
                engine.ensure_series(db.series.len());
                engine.disk = Some(disk);
            }
            db.tier = Some(engine);
        }
        Ok(db)
    }

    /// Intern a series name, creating the series on first sight.
    /// Allocates only on that first miss; afterwards the returned id
    /// appends and queries with zero hashing or allocation.
    pub fn resolve(&mut self, key: &str) -> SeriesId {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = SeriesId(self.series.len() as u32);
        self.ids.insert(key.to_string(), id);
        self.names.push(key.to_string());
        self.series.push(Series::new(self.cfg.raw_capacity));
        id
    }

    /// Look up an already-interned series without creating it.
    pub fn lookup(&self, key: &str) -> Option<SeriesId> {
        self.ids.get(key).copied()
    }

    /// The name a [`SeriesId`] was interned under.
    pub fn name(&self, id: SeriesId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Append one observation by interned id (timestamps must be
    /// finite and nondecreasing per series; out-of-order points are
    /// dropped, as in production TSDBs, and so are NaN or infinite
    /// timestamps, which would otherwise become a series tail every
    /// later comparison passes). Returns whether the point was stored,
    /// so lossy ingest paths can account for what a degraded link cost
    /// them. Allocation-free in steady state.
    #[inline]
    pub fn append_id(&mut self, id: SeriesId, t: f64, v: f64) -> bool {
        let s = &mut self.series[id.index()];
        if t < s.last_t || !t.is_finite() {
            return false;
        }
        s.last_t = t;
        s.count += 1;
        s.push(t, v as f32);
        true
    }

    /// Bulk-append a whole frame of uniformly-spaced samples by
    /// interned id: one monotonicity check, one eviction step and bulk
    /// column extends. Frames that start before the series tail, run
    /// backwards, or carry a timestamp that is not finite fall back to
    /// the per-sample path, which drops the stale and non-finite
    /// points. Returns the number of samples actually stored
    /// (`values.len()` on the fast path), so callers can account for
    /// samples lost to reordering faults.
    pub fn append_frame_id(&mut self, id: SeriesId, t0: f64, dt: f64, values: &[f32]) -> usize {
        let n = values.len();
        if n == 0 {
            return 0;
        }
        let s = &mut self.series[id.index()];
        // Finite only when `t0` and `dt` both are (and the frame does
        // not overflow), so a NaN never reaches the series tail.
        let t_last = t0 + (n - 1) as f64 * dt;
        if t0 < s.last_t || dt < 0.0 || !t_last.is_finite() {
            let mut stored = 0;
            for (i, &v) in values.iter().enumerate() {
                stored += usize::from(self.append_id(id, t0 + i as f64 * dt, v as f64));
            }
            return stored;
        }
        s.last_t = t_last;
        s.count += n as u64;
        s.extend_uniform(t0, dt, values);
        n
    }

    /// Known series names, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut k = self.names.clone();
        k.sort();
        k
    }

    /// Total observations absorbed, by interned id.
    pub fn count_id(&self, id: SeriesId) -> u64 {
        self.series[id.index()].count
    }

    /// Latest raw observation of a series, if any — the staleness probe
    /// the control plane runs per node before trusting telemetry.
    pub fn last_id(&self, id: SeriesId) -> Option<Point> {
        let s = &self.series[id.index()];
        match (s.ts.back(), s.vs.back()) {
            (Some(&t), Some(&v)) => Some(Point { t, v: v as f64 }),
            _ => None,
        }
    }

    /// Run one seal/demote/budget pass over every series. This is the
    /// ONLY place points leave the hot rings for the compressed tiers —
    /// appends never compress — so drivers call it from drain/tick
    /// sites, outside the append path. A single branch when tiering is
    /// disabled (the zero-alloc ingest guard covers that path).
    /// Returns true if any points were sealed, demoted or evicted.
    pub fn compact(&mut self) -> bool {
        let Some(engine) = self.tier.as_mut() else {
            return false;
        };
        engine.ensure_series(self.series.len());
        let trigger = engine.seal_trigger();
        let k = engine.seal_len();
        let mut changed = false;
        for (i, s) in self.series.iter_mut().enumerate() {
            while s.ts.len() >= trigger {
                // The ring is a deque (possibly wrapped); stage the
                // oldest run in the engine's reusable scratch slices.
                copy_front(&s.ts, k, &mut engine.scratch_ts);
                copy_front(&s.vs, k, &mut engine.scratch_vs);
                engine.commit_seal(i);
                s.ts.drain(..k);
                s.vs.drain(..k);
                changed = true;
            }
        }
        changed | engine.demote_over_budget(&self.names)
    }

    /// Raw range scan over all three tiers, chronological (disk →
    /// compressed → hot), consumed by [`TieredScan::fold_points`]: the
    /// single query path every query below is built on. Compressed
    /// blocks are decoded only when they overlap `[t0, t1)`, into a
    /// per-scan scratch that is lazily allocated (a purely-hot scan
    /// allocates nothing) and reused across blocks. A block the scan
    /// cannot read or decode is skipped, counted in
    /// [`TierStats::io_errors`] and flagged in the scan's coverage.
    pub fn scan_id(&self, id: SeriesId, t0: f64, t1: f64) -> TieredScan<'_> {
        let idx = id.index();
        let s = &self.series[idx];
        let (a, b) = s.bounds(t0, t1);
        let (disk, mem, io_errors) = match &self.tier {
            Some(e) => (
                e.disk_scan(idx, t0, t1),
                e.mem_scan(idx, t0),
                Some(e.io_errors()),
            ),
            None => (None, None, None),
        };
        let (hot_ts, hot_vs) = (s.ts.range(a..b), s.vs.range(a..b));
        TieredScan::new(t0, t1, disk, mem, hot_ts, hot_vs, io_errors)
    }

    /// Did opening the disk tier skip a segment it could not validate?
    /// Then every answer may miss history (see [`QueryCoverage::evicted`]).
    pub(crate) fn lost_segment(&self) -> bool {
        self.tier.as_ref().is_some_and(TierEngine::lost_segment)
    }

    /// Has this series lost history that a window starting at `t0`
    /// could have included?
    fn evicted_before(&self, idx: usize, t0: f64) -> bool {
        if self.lost_segment() {
            return true;
        }
        let s = &self.series[idx];
        let lost = s.evicted + self.tier.as_ref().map_or(0, |e| e.lost_points(idx));
        if lost == 0 {
            return false;
        }
        let first_retained = self
            .tier
            .as_ref()
            .and_then(|e| e.first_retained_t(idx))
            .or_else(|| s.ts.front().copied())
            .unwrap_or(f64::INFINITY);
        t0 < first_retained
    }

    /// Fold the raw points of `[t0, t1)` in chronological order, and
    /// report where they came from. `whole` is the scan's whole-block
    /// step (see `TieredScan::fold_points_with`).
    fn fold_raw<B>(
        &self,
        id: SeriesId,
        t0: f64,
        t1: f64,
        init: B,
        whole: impl FnMut(&B, &SealedBlock) -> Option<B>,
        f: impl FnMut(B, f64, f64) -> B,
    ) -> (B, QueryCoverage) {
        let mut scan = self.scan_id(id, t0, t1);
        let acc = scan.fold_points_with(init, whole, f);
        let mut coverage = scan.coverage();
        coverage.evicted |= self.evicted_before(id.index(), t0);
        (acc, coverage)
    }

    /// Fold the `(t, v)` points of `[t0, t1)` at a resolution, in
    /// chronological order: raw points, or one point per reported
    /// rollup bucket (see [`Resolution`]), folded from the raw points
    /// of the buckets' span.
    fn fold_at<B>(
        &self,
        id: SeriesId,
        res: Resolution,
        t0: f64,
        t1: f64,
        init: B,
        mut f: impl FnMut(B, f64, f64) -> B,
    ) -> (B, QueryCoverage) {
        let Some(width) = res.bucket_s() else {
            return self.fold_raw(id, t0, t1, init, |_, _| None, f);
        };
        let Some(b) = Buckets::new(width, t0, t1) else {
            // No bucket to report: an empty window still says whether
            // history before `t0` was lost.
            return self.fold_raw(id, t0, t0, init, |_, _| None, f);
        };
        let (start, end) = b.span();
        // The open bucket: its index, and the sum and count of its
        // points so far.
        let ((acc, open), coverage) = self.fold_raw(
            id,
            start,
            end,
            (init, None::<(i64, f64, u64)>),
            |_, _| None,
            |(acc, open), t, v| {
                let k = b.index(t);
                match open {
                    Some((j, sum, n)) if j == k => (acc, Some((k, sum + v, n + 1))),
                    Some((j, sum, n)) => {
                        let (c, m) = b.point(j, sum, n);
                        (f(acc, c, m), Some((k, v, 1)))
                    }
                    None => (acc, Some((k, v, 1))),
                }
            },
        );
        let acc = match open {
            Some((j, sum, n)) => {
                let (c, m) = b.point(j, sum, n);
                f(acc, c, m)
            }
            None => acc,
        };
        (acc, coverage)
    }

    /// Range query with provenance: the points plus a
    /// [`QueryCoverage`] telling the caller which tiers answered and
    /// whether the window reached past retained history (truncated vs
    /// complete — the E12 accounting distinction). At a rollup
    /// resolution the coverage counts the raw points behind the
    /// reported buckets.
    pub fn query_range_id(&self, id: SeriesId, res: Resolution, t0: f64, t1: f64) -> RangeQuery {
        let (points, coverage) = self.fold_at(id, res, t0, t1, Vec::new(), |mut points, t, v| {
            points.push(Point { t, v });
            points
        });
        RangeQuery { points, coverage }
    }

    /// Range query by interned id (points only; see
    /// [`TsDb::query_range_id`] for coverage).
    pub fn query_id(&self, id: SeriesId, res: Resolution, t0: f64, t1: f64) -> Vec<Point> {
        self.query_range_id(id, res, t0, t1).points
    }

    /// Mean of a series over a window at a resolution, by interned id.
    /// Raw means fold the tiered scan in chronological order — the same
    /// sequential f64 accumulation as the hot-only path, so results are
    /// bit-identical whether or not the window spans compressed tiers.
    /// An in-memory block wholly inside the window is added as its
    /// stored sum whenever the block's certificate proves that addition
    /// exact (`SealedBlock::add_sum_to`), which gives the same bits
    /// without decoding the block.
    pub fn mean_id(&self, id: SeriesId, res: Resolution, t0: f64, t1: f64) -> Option<f64> {
        self.mean_id_with_coverage(id, res, t0, t1).0
    }

    /// [`TsDb::mean_id`] plus the provenance of the points that made
    /// the mean, so accounting callers can flag truncated windows.
    pub fn mean_id_with_coverage(
        &self,
        id: SeriesId,
        res: Resolution,
        t0: f64,
        t1: f64,
    ) -> (Option<f64>, QueryCoverage) {
        let add = |(sum, n): (f64, usize), _t, v| (sum + v, n + 1);
        let ((sum, n), coverage) = match res {
            Resolution::Raw => self.fold_raw(
                id,
                t0,
                t1,
                (0.0, 0),
                |&(sum, n), b| Some((b.add_sum_to(sum)?, n + b.n as usize)),
                add,
            ),
            _ => self.fold_at(id, res, t0, t1, (0.0, 0), add),
        };
        let mean = if n == 0 { None } else { Some(sum / n as f64) };
        (mean, coverage)
    }

    /// Energy (rectangle rule over raw points' spacing) in a window by
    /// interned id — the accounting query, folded over the tiered scan
    /// in chronological order (bit-identical to the hot-only fold).
    /// Windows with fewer than two raw points integrate to 0.
    pub fn energy_j_id(&self, id: SeriesId, t0: f64, t1: f64) -> f64 {
        self.energy_j_id_with_coverage(id, t0, t1).0
    }

    /// [`TsDb::energy_j_id`] plus the provenance of the integrated
    /// points, so accounting callers can tell a true zero from a window
    /// whose history was evicted before it could be billed.
    pub fn energy_j_id_with_coverage(
        &self,
        id: SeriesId,
        t0: f64,
        t1: f64,
    ) -> (f64, QueryCoverage) {
        let ((acc, _), coverage) = self.fold_raw(
            id,
            t0,
            t1,
            (0.0f64, None::<(f64, f64)>),
            |_, _| None,
            |(acc, prev), t, v| match prev {
                Some((pt, pv)) => (acc + pv * (t - pt), Some((t, v))),
                None => (acc, Some((t, v))),
            },
        );
        (acc, coverage)
    }

    /// The tier engine, for tests that corrupt what it holds.
    #[cfg(test)]
    pub(crate) fn tier_mut(&mut self) -> Option<&mut TierEngine> {
        self.tier.as_mut()
    }

    /// Point-in-time tier occupancy across every series (hot ring
    /// counts always; compressed/disk fields populated when tiering is
    /// enabled).
    pub fn tier_stats(&self) -> TierStats {
        let mut st = self
            .tier
            .as_ref()
            .map_or_else(TierStats::default, |e| e.stats());
        for s in &self.series {
            st.hot_points += s.ts.len() as u64;
            st.evicted_points += s.evicted;
        }
        st.hot_bytes = st.hot_points * 12;
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test-local string-keyed conveniences over the id-keyed API.
    fn append(db: &mut TsDb, key: &str, t: f64, v: f64) {
        let id = db.resolve(key);
        db.append_id(id, t, v);
    }
    fn append_frame(db: &mut TsDb, key: &str, t0: f64, dt: f64, values: &[f32]) {
        let id = db.resolve(key);
        db.append_frame_id(id, t0, dt, values);
    }
    fn count(db: &TsDb, key: &str) -> u64 {
        db.lookup(key).map_or(0, |id| db.count_id(id))
    }
    fn query(db: &TsDb, key: &str, res: Resolution, t0: f64, t1: f64) -> Vec<Point> {
        db.lookup(key)
            .map_or_else(Vec::new, |id| db.query_id(id, res, t0, t1))
    }
    fn mean(db: &TsDb, key: &str, res: Resolution, t0: f64, t1: f64) -> Option<f64> {
        db.mean_id(db.lookup(key)?, res, t0, t1)
    }
    fn energy_j(db: &TsDb, key: &str, t0: f64, t1: f64) -> f64 {
        db.lookup(key).map_or(0.0, |id| db.energy_j_id(id, t0, t1))
    }

    #[test]
    fn non_finite_timestamps_never_reach_the_series_tail() {
        // A NaN tail passes every later `t < last_t` check, so a stale
        // frame after it would be stored and the count would disagree
        // with what a range query can find.
        let mut db = TsDb::new();
        let id = db.resolve("node00/power/node");
        assert_eq!(db.append_frame_id(id, 10.0, 1.0, &[100.0; 5]), 5);
        assert_eq!(db.append_frame_id(id, f64::NAN, 1.0, &[200.0; 2]), 0);
        assert_eq!(db.append_frame_id(id, 0.0, 1.0, &[50.0; 5]), 0, "stale");
        assert_eq!(db.count_id(id), 5);
        assert_eq!(db.query_id(id, Resolution::Raw, 0.0, 100.0).len(), 5);
        // Infinite timestamps and spacings are refused the same way,
        // and the tail still admits fresh data.
        assert!(!db.append_id(id, f64::INFINITY, 1.0));
        assert!(!db.append_id(id, f64::NAN, 1.0));
        assert_eq!(db.append_frame_id(id, 20.0, f64::INFINITY, &[1.0; 3]), 0);
        assert_eq!(db.append_frame_id(id, 20.0, 1.0, &[1.0; 3]), 3);
        // A huge but finite frame is stored whole; one whose later
        // samples overflow to +inf keeps only its finite head.
        assert_eq!(db.append_frame_id(id, 1e19, 1.0, &[1.0; 3]), 3);
        assert_eq!(db.append_frame_id(id, 1e308, 1e308, &[1.0; 3]), 1);
        assert_eq!(db.count_id(id), 12);
        assert_eq!(db.last_id(id).map(|p| p.t), Some(1e308));
    }

    #[test]
    fn append_and_raw_query() {
        let mut db = TsDb::new();
        for i in 0..100 {
            append(
                &mut db,
                "node00/power/node",
                i as f64 * 0.1,
                1000.0 + i as f64,
            );
        }
        assert_eq!(count(&db, "node00/power/node"), 100);
        let pts = query(&db, "node00/power/node", Resolution::Raw, 2.0, 4.0);
        assert_eq!(pts.len(), 20);
        assert_eq!(pts[0].t, 2.0);
        assert!(query(&db, "missing", Resolution::Raw, 0.0, 1e9).is_empty());
    }

    #[test]
    fn out_of_order_points_dropped() {
        let mut db = TsDb::new();
        append(&mut db, "s", 10.0, 1.0);
        append(&mut db, "s", 5.0, 2.0); // stale: dropped
        append(&mut db, "s", 11.0, 3.0);
        assert_eq!(count(&db, "s"), 2);
    }

    #[test]
    fn raw_ring_evicts_oldest() {
        let mut db = TsDb::with_capacity(10);
        for i in 0..25 {
            append(&mut db, "s", i as f64, i as f64);
        }
        let pts = query(&db, "s", Resolution::Raw, 0.0, 100.0);
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0].t, 15.0, "oldest retained is t=15");
    }

    #[test]
    fn second_rollup_means() {
        let mut db = TsDb::new();
        // 10 samples per second for 5 s, value = second index.
        for i in 0..50 {
            let t = i as f64 * 0.1;
            append(&mut db, "s", t, t.floor());
        }
        let pts = query(&db, "s", Resolution::Second, 0.0, 10.0);
        assert_eq!(pts.len(), 5);
        for (k, p) in pts.iter().enumerate() {
            assert!((p.v - k as f64).abs() < 1e-9, "bucket {k}: {}", p.v);
            assert!((p.t - (k as f64 + 0.5)).abs() < 1e-9);
        }
    }

    #[test]
    fn minute_rollup_spans_seconds() {
        let mut db = TsDb::new();
        for i in 0..180 {
            append(&mut db, "s", i as f64, if i < 60 { 100.0 } else { 200.0 });
        }
        let pts = query(&db, "s", Resolution::Minute, 0.0, 1e9);
        assert_eq!(pts.len(), 3);
        assert!((pts[0].v - 100.0).abs() < 1e-9);
        assert!((pts[1].v - 200.0).abs() < 1e-9);
    }

    #[test]
    fn rollup_windows_at_float_extremes_answer_promptly() {
        // Bucket bounds come from an integer search, so window edges
        // far past 2^53 s neither hang nor overflow, and windows holding
        // no bucket centre, or none with data, answer empty.
        let mut db = TsDb::new();
        let id = db.resolve("s");
        for i in 0..300 {
            db.append_id(id, i as f64, if i < 120 { 100.0 } else { 200.0 });
        }
        for (res, buckets) in [(Resolution::Second, 300), (Resolution::Minute, 5)] {
            let all = db.query_range_id(id, res, 0.0, 300.0);
            assert_eq!(all.points.len(), buckets, "{res:?}");
            assert_eq!(all.coverage.total(), 300);
            let mean = db.mean_id(id, res, 0.0, 300.0);
            assert!((mean.unwrap() - 160.0).abs() < 1e-9, "{res:?}: {mean:?}");
            for (t0, t1) in [
                (0.0, 1e300),
                (-1e300, 300.0),
                (-1e300, 1e300),
                (0.0, 9.1e15),
                (0.0, 1e17),
            ] {
                let q = db.query_range_id(id, res, t0, t1);
                assert_eq!(q.points, all.points, "{res:?} [{t0}, {t1})");
                assert_eq!(q.coverage, all.coverage, "{res:?} [{t0}, {t1})");
                assert_eq!(db.mean_id(id, res, t0, t1), mean);
            }
            for (t0, t1) in [
                (150.0, 150.0),
                (1e300, 1e300),
                (-1e300, -1e300),
                (1e3, 1e300),
                (9.1e15, 1e17),
                (1e300, f64::MAX),
                (-1e300, -1e3),
                (-f64::MAX, -1e300),
            ] {
                let q = db.query_range_id(id, res, t0, t1);
                assert!(q.points.is_empty(), "{res:?} [{t0}, {t1})");
                assert_eq!(q.coverage.total(), 0, "{res:?} [{t0}, {t1})");
                assert_eq!(db.mean_id(id, res, t0, t1), None);
            }
        }
    }

    #[test]
    fn energy_query_matches_constant_power() {
        let mut db = TsDb::new();
        for i in 0..=100 {
            append(&mut db, "s", i as f64 * 0.01, 1500.0);
        }
        let e = energy_j(&db, "s", 0.0, 2.0);
        assert!((e - 1500.0).abs() < 16.0, "≈1500 J over 1 s: {e}");
    }

    #[test]
    fn frame_ingest_from_gateway() {
        use crate::gateway::SampleFrame;
        let mut db = TsDb::new();
        let frame = SampleFrame {
            t0_s: 100.0,
            dt_s: 2e-5,
            watts: vec![1700.0; 500],
        };
        append_frame(
            &mut db,
            "node03/power/node",
            frame.t0_s,
            frame.dt_s,
            &frame.watts,
        );
        assert_eq!(count(&db, "node03/power/node"), 500);
        let m = mean(&db, "node03/power/node", Resolution::Raw, 100.0, 100.01).unwrap();
        assert!((m - 1700.0).abs() < 1e-9);
    }

    #[test]
    fn keys_sorted() {
        let mut db = TsDb::new();
        append(&mut db, "b", 0.0, 1.0);
        append(&mut db, "a", 0.0, 1.0);
        assert_eq!(db.keys(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn interned_id_matches_string_path() {
        let mut db = TsDb::new();
        let id = db.resolve("node01/power/cpu0");
        assert_eq!(db.resolve("node01/power/cpu0"), id, "stable on re-resolve");
        assert_eq!(db.lookup("node01/power/cpu0"), Some(id));
        assert_eq!(db.lookup("never-seen"), None);
        assert_eq!(db.name(id), Some("node01/power/cpu0"));
        db.append_id(id, 1.0, 500.0);
        append(&mut db, "node01/power/cpu0", 2.0, 700.0);
        assert_eq!(db.count_id(id), 2);
        let pts = db.query_id(id, Resolution::Raw, 0.0, 10.0);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].v, 700.0);
    }

    #[test]
    fn frame_fast_path_matches_per_sample() {
        // Awkward spacing: dt does not divide the bucket width, frames
        // straddle 1 s and 60 s boundaries mid-frame.
        let vals: Vec<f32> = (0..977)
            .map(|i| (i as f32 * 0.37).sin() * 900.0 + 1000.0)
            .collect();
        let (t0, dt) = (58.3, 0.013);

        let mut bulk = TsDb::new();
        append_frame(&mut bulk, "s", t0, dt, &vals);
        let mut scalar = TsDb::new();
        for (i, &v) in vals.iter().enumerate() {
            append(&mut scalar, "s", t0 + i as f64 * dt, v as f64);
        }

        assert_eq!(count(&bulk, "s"), count(&scalar, "s"));
        for res in [Resolution::Raw, Resolution::Second, Resolution::Minute] {
            let a = query(&bulk, "s", res, 0.0, 1e9);
            let b = query(&scalar, "s", res, 0.0, 1e9);
            assert_eq!(a.len(), b.len(), "{res:?} point counts");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.t, y.t, "{res:?} timestamps bit-identical");
                assert!((x.v - y.v).abs() < 1e-9, "{res:?}: {} vs {}", x.v, y.v);
            }
        }
    }

    #[test]
    fn stale_frame_falls_back_and_drops() {
        let mut db = TsDb::new();
        append(&mut db, "s", 10.0, 1.0);
        // Frame starting in the past: the first 5 samples (t < 10) are
        // stale and dropped, the rest land.
        append_frame(&mut db, "s", 5.0, 1.0, &[9.0; 8]);
        assert_eq!(count(&db, "s"), 1 + 3);
        let pts = query(&db, "s", Resolution::Raw, 0.0, 1e9);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[1].t, 10.0);
    }

    #[test]
    fn query_straddling_eviction_boundary() {
        let mut db = TsDb::with_capacity(8);
        for i in 0..20 {
            append(&mut db, "s", i as f64, i as f64);
        }
        // Points 0..12 evicted; a window straddling the boundary only
        // returns the retained suffix.
        let pts = query(&db, "s", Resolution::Raw, 5.0, 15.0);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].t, 12.0);
        assert_eq!(pts[2].t, 14.0);
        // Window entirely inside the evicted region is empty.
        assert!(query(&db, "s", Resolution::Raw, 0.0, 12.0).is_empty());
        // Count still reflects everything absorbed.
        assert_eq!(count(&db, "s"), 20);
    }

    #[test]
    fn energy_single_point_window_is_zero() {
        let mut db = TsDb::new();
        append(&mut db, "s", 1.0, 1000.0);
        assert_eq!(energy_j(&db, "s", 0.0, 10.0), 0.0);
        append(&mut db, "s", 2.0, 1000.0);
        // Window clipping to one point also integrates to zero.
        assert_eq!(energy_j(&db, "s", 1.5, 10.0), 0.0);
        assert!((energy_j(&db, "s", 0.0, 10.0) - 1000.0).abs() < 1e-9);
        assert_eq!(energy_j(&db, "missing", 0.0, 10.0), 0.0);
    }

    #[test]
    fn id_queries_match_string_shims() {
        let mut db = TsDb::new();
        let id = db.resolve("s");
        for i in 0..=100 {
            db.append_id(id, i as f64 * 0.01, 1500.0);
        }
        assert_eq!(
            db.mean_id(id, Resolution::Raw, 0.0, 2.0),
            mean(&db, "s", Resolution::Raw, 0.0, 2.0)
        );
        assert_eq!(db.energy_j_id(id, 0.0, 2.0), energy_j(&db, "s", 0.0, 2.0));
        let last = db.last_id(id).unwrap();
        assert_eq!(last.t, 1.0);
        assert_eq!(last.v, 1500.0);
        let empty = db.resolve("empty");
        assert_eq!(db.last_id(empty), None);
    }

    #[test]
    fn frame_larger_than_capacity_keeps_tail() {
        let mut db = TsDb::with_capacity(16);
        let vals: Vec<f32> = (0..100).map(|i| i as f32).collect();
        append_frame(&mut db, "s", 0.0, 1.0, &vals);
        let pts = query(&db, "s", Resolution::Raw, 0.0, 1e9);
        assert_eq!(pts.len(), 16);
        assert_eq!(pts[0].t, 84.0);
        assert_eq!(pts[15].v, 99.0);
        assert_eq!(count(&db, "s"), 100);
    }
}
