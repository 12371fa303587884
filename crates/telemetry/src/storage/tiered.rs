//! Tier engine: seal policy, budgets, demotion and the block-skipping
//! range scan that is the single query path for series data at every
//! resolution.
//!
//! Lifecycle of a point: it lands in the hot ring (zero-alloc append),
//! is **sealed** into a compressed [`SealedBlock`] once the ring holds
//! `hot_retain + seal_block` points (sealing drains the *oldest* run,
//! outside the append path), lives in the compressed in-memory tier
//! until the memory budget forces **demotion** to a disk segment, and
//! is finally **evicted** (and counted) when the disk budget drops its
//! segment file — or immediately on demotion when no disk tier is
//! configured. Every transition is driven by [`crate::TsDb::compact`],
//! never by an append.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use super::block::SealedBlock;
use super::codec::{decode_block_into, MAX_BLOCK_POINTS};
use super::disk::{DiskScan, DiskTier, DiskTierConfig};
use crate::tsdb::Point;

/// Seal/demote policy for a tiered store. `None` tiering on
/// [`crate::TsDbConfig`] keeps the store hot-ring-only (the PR 5
/// behavior, bit for bit).
#[derive(Debug, Clone)]
pub struct TieringConfig {
    /// Points per sealed block (clamped to 1..=65535). Larger blocks
    /// compress better; smaller blocks skip tighter on scans.
    pub seal_block: usize,
    /// Points kept hot (uncompressed) per series; sealing triggers once
    /// a ring exceeds `hot_retain + seal_block`. Defaults to half the
    /// raw ring capacity.
    pub hot_retain: Option<usize>,
    /// Budget for the compressed in-memory tier (payload bytes, all
    /// series). Overflow demotes oldest blocks to disk — or evicts them,
    /// with accounting, when no disk tier is configured.
    pub mem_budget_bytes: usize,
    /// Optional cold tier.
    pub disk: Option<DiskTierConfig>,
}

impl Default for TieringConfig {
    fn default() -> Self {
        TieringConfig {
            seal_block: 1024,
            hot_retain: None,
            mem_budget_bytes: 256 << 20,
            disk: None,
        }
    }
}

/// Where the points answering a range query came from — and whether the
/// window reached past everything still retained. `evicted == true`
/// means the store *lost* points that may have fallen in the window, so
/// the caller (monitor, profiler, E12 accounting) is looking at
/// truncated history, not complete history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCoverage {
    /// Points served from the hot ring.
    pub hot: usize,
    /// Points read from compressed in-memory blocks (decoded, or summed
    /// whole by a raw mean).
    pub compressed: usize,
    /// Points decoded from on-disk segments.
    pub disk: usize,
    /// The window starts before the earliest retained point AND this
    /// series has dropped points (ring overwrite before tiering, budget
    /// eviction, or a dropped segment file) — or the scan skipped a
    /// block it could not read or decode.
    pub evicted: bool,
}

impl QueryCoverage {
    /// Total points the query produced.
    pub fn total(&self) -> usize {
        self.hot + self.compressed + self.disk
    }

    /// True when no requested history could have been lost.
    pub fn is_complete(&self) -> bool {
        !self.evicted
    }

    /// Fold another coverage into this one: per-tier point counts add,
    /// and the truncation flag is sticky (`evicted` ORs). This is how
    /// multi-series and multi-shard queries aggregate provenance — a
    /// merged answer is complete only if *every* contributing series on
    /// *every* shard was complete.
    pub fn merge(&mut self, o: &QueryCoverage) {
        self.hot += o.hot;
        self.compressed += o.compressed;
        self.disk += o.disk;
        self.evicted |= o.evicted;
    }
}

/// A range query result: the points plus where they came from.
#[derive(Debug, Clone, Default)]
pub struct RangeQuery {
    /// Chronological points in `[t0, t1)`.
    pub points: Vec<Point>,
    /// Per-tier provenance and truncation flag.
    pub coverage: QueryCoverage,
}

/// Point-in-time tier occupancy, aggregated across series (and across
/// shards by [`crate::ShardedTsDb::tier_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierStats {
    /// Points currently in hot rings.
    pub hot_points: u64,
    /// Hot-ring payload bytes (12 bytes per point: f64 ts + f32 value).
    pub hot_bytes: u64,
    /// Compressed in-memory blocks.
    pub compressed_blocks: u64,
    /// Points in compressed in-memory blocks.
    pub compressed_points: u64,
    /// Compressed in-memory payload bytes.
    pub compressed_bytes: u64,
    /// Live on-disk segment files.
    pub disk_segments: u64,
    /// Blocks in live segment files.
    pub disk_blocks: u64,
    /// Points in live segment files.
    pub disk_points: u64,
    /// Bytes in live segment files (headers included).
    pub disk_bytes: u64,
    /// Points sealed out of hot rings since open (monotonic).
    pub sealed_points: u64,
    /// Points dropped from the store since open (monotonic).
    pub evicted_points: u64,
    /// Demotion/scan I/O or decode failures since open (monotonic).
    pub io_errors: u64,
}

impl TierStats {
    /// Compression ratio achieved on everything sealed: uncompressed
    /// payload size of the compressed+disk points over their stored
    /// bytes. 1.0 when nothing is sealed yet.
    pub fn compression_ratio(&self) -> f64 {
        let stored = self.compressed_bytes + self.disk_bytes;
        if stored == 0 {
            return 1.0;
        }
        ((self.compressed_points + self.disk_points) * 12) as f64 / stored as f64
    }

    /// Fold another shard's stats into this one.
    pub fn merge(&mut self, o: &TierStats) {
        self.hot_points += o.hot_points;
        self.hot_bytes += o.hot_bytes;
        self.compressed_blocks += o.compressed_blocks;
        self.compressed_points += o.compressed_points;
        self.compressed_bytes += o.compressed_bytes;
        self.disk_segments += o.disk_segments;
        self.disk_blocks += o.disk_blocks;
        self.disk_points += o.disk_points;
        self.disk_bytes += o.disk_bytes;
        self.sealed_points += o.sealed_points;
        self.evicted_points += o.evicted_points;
        self.io_errors += o.io_errors;
    }
}

/// Per-series compressed in-memory tier.
#[derive(Debug, Default)]
struct SeriesMem {
    blocks: VecDeque<SealedBlock>,
    points: u64,
}

/// The engine behind a tiered [`crate::TsDb`]: compressed tiers,
/// budgets, eviction accounting and seal scratch. Owned by the store,
/// driven only from [`crate::TsDb::compact`].
#[derive(Debug)]
pub(crate) struct TierEngine {
    pub(crate) cfg: TieringConfig,
    hot_retain: usize,
    mem: Vec<SeriesMem>,
    evicted: Vec<u64>,
    pub(crate) disk: Option<DiskTier>,
    mem_bytes: usize,
    sealed_points: u64,
    demoted_blocks: u64,
    /// Failed demotions, plus blocks scans skipped because they could
    /// not be read or decoded (scans hold `&self`, hence the atomic).
    io_errors: AtomicU64,
    /// Seal staging: `compact` copies a ring's oldest run here (the ring
    /// is a deque, the codec wants slices), reused across every seal.
    pub(crate) scratch_ts: Vec<f64>,
    pub(crate) scratch_vs: Vec<f32>,
    /// Encoder output, reused across every seal.
    scratch_bytes: Vec<u8>,
}

impl TierEngine {
    pub(crate) fn new(mut cfg: TieringConfig, raw_capacity: usize) -> Self {
        cfg.seal_block = cfg.seal_block.clamp(1, MAX_BLOCK_POINTS);
        let hot_retain = cfg.hot_retain.unwrap_or(raw_capacity / 2).max(1);
        TierEngine {
            cfg,
            hot_retain,
            mem: Vec::new(),
            evicted: Vec::new(),
            disk: None,
            mem_bytes: 0,
            sealed_points: 0,
            demoted_blocks: 0,
            io_errors: AtomicU64::new(0),
            scratch_ts: Vec::new(),
            scratch_vs: Vec::new(),
            scratch_bytes: Vec::new(),
        }
    }

    /// Ring length at which sealing triggers.
    pub(crate) fn seal_trigger(&self) -> usize {
        self.hot_retain + self.cfg.seal_block
    }

    /// Points drained per seal.
    pub(crate) fn seal_len(&self) -> usize {
        self.cfg.seal_block
    }

    pub(crate) fn ensure_series(&mut self, n: usize) {
        if self.mem.len() < n {
            self.mem.resize_with(n, SeriesMem::default);
            self.evicted.resize(n, 0);
        }
    }

    /// Seal the staged scratch run as one block of `series`.
    pub(crate) fn commit_seal(&mut self, series: usize) {
        let block = SealedBlock::seal(&self.scratch_ts, &self.scratch_vs, &mut self.scratch_bytes);
        self.sealed_points += block.n as u64;
        self.mem_bytes += block.size_bytes();
        let s = &mut self.mem[series];
        s.points += block.n as u64;
        s.blocks.push_back(block);
    }

    /// Demote oldest compressed blocks until the memory budget holds,
    /// writing one segment file for the whole batch (or evicting it,
    /// with accounting, when no disk tier exists), then enforce the disk
    /// budget. Returns true if any blocks moved or dropped.
    pub(crate) fn demote_over_budget(&mut self, names: &[String]) -> bool {
        let mut batch: Vec<(u32, SealedBlock)> = Vec::new();
        while self.mem_bytes > self.cfg.mem_budget_bytes {
            // Oldest front block across all series goes first, so the
            // batch stays chronological per series.
            let mut best: Option<(usize, f64)> = None;
            for (i, s) in self.mem.iter().enumerate() {
                if let Some(b) = s.blocks.front() {
                    if best.is_none_or(|(_, t)| b.t_min < t) {
                        best = Some((i, b.t_min));
                    }
                }
            }
            let Some((i, _)) = best else { break };
            let s = &mut self.mem[i];
            let block = s.blocks.pop_front().expect("front checked");
            s.points -= block.n as u64;
            self.mem_bytes -= block.size_bytes();
            batch.push((i as u32, block));
        }
        let mut changed = !batch.is_empty();
        if !batch.is_empty() {
            match &mut self.disk {
                Some(disk) => {
                    if disk.demote(&batch, names).is_err() {
                        *self.io_errors.get_mut() += 1;
                        for (i, b) in &batch {
                            self.evicted[*i as usize] += b.n as u64;
                        }
                    } else {
                        self.demoted_blocks += batch.len() as u64;
                    }
                }
                None => {
                    for (i, b) in &batch {
                        self.evicted[*i as usize] += b.n as u64;
                    }
                }
            }
        }
        if let Some(disk) = &mut self.disk {
            let before: u64 = self.evicted.iter().sum();
            disk.enforce_budget(&mut self.evicted);
            changed |= self.evicted.iter().sum::<u64>() != before;
        }
        changed
    }

    /// Pre-positioned iterator over this series' overlapping compressed
    /// in-memory blocks.
    pub(crate) fn mem_scan(
        &self,
        series: usize,
        t0: f64,
    ) -> Option<std::collections::vec_deque::Iter<'_, SealedBlock>> {
        let s = self.mem.get(series)?;
        let start = s.blocks.partition_point(|b| b.t_max < t0);
        Some(s.blocks.range(start..))
    }

    pub(crate) fn disk_scan(&self, series: usize, t0: f64, t1: f64) -> Option<DiskScan<'_>> {
        Some(self.disk.as_ref()?.scan(series, t0, t1))
    }

    /// The counter scans charge a skipped block to.
    pub(crate) fn io_errors(&self) -> &AtomicU64 {
        &self.io_errors
    }

    /// Points this series has lost to budget eviction (compressed or
    /// disk tier).
    pub(crate) fn lost_points(&self, series: usize) -> u64 {
        self.evicted.get(series).copied().unwrap_or(0)
    }

    /// Earliest timestamp still retained in a compressed tier for this
    /// series (disk is always older than the in-memory tier).
    pub(crate) fn first_retained_t(&self, series: usize) -> Option<f64> {
        if let Some(t) = self.disk.as_ref().and_then(|d| d.first_retained_t(series)) {
            return Some(t);
        }
        self.mem.get(series)?.blocks.front().map(|b| b.t_min)
    }

    /// Engine-side stats (hot-ring occupancy is added by the store).
    pub(crate) fn stats(&self) -> TierStats {
        let mut st = TierStats {
            compressed_bytes: self.mem_bytes as u64,
            sealed_points: self.sealed_points,
            evicted_points: self.evicted.iter().sum(),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            ..TierStats::default()
        };
        for s in &self.mem {
            st.compressed_blocks += s.blocks.len() as u64;
            st.compressed_points += s.points;
        }
        if let Some(disk) = &self.disk {
            let (bytes, blocks, points, segments) = disk.totals();
            st.disk_bytes = bytes;
            st.disk_blocks = blocks;
            st.disk_points = points;
            st.disk_segments = segments;
        }
        st
    }
}

/// Range scan across all three tiers, chronological (disk →
/// compressed → hot), over the half-open window `[t0, t1)`, consumed by
/// [`TieredScan::fold_points`].
///
/// Blocks are read **only** when their `[t_min, t_max]` overlaps the
/// window (binary-searched start, early stop). In-memory blocks decode
/// straight from their payload; disk blocks are read into a per-scan
/// buffer first. Both decode into per-scan staging columns. Those
/// buffers are allocated lazily — a scan that never touches a
/// compressed tier (the common monitoring query, and every query on an
/// untiered store) allocates nothing — and reused across blocks, so
/// there is no per-block allocation and never a full-segment
/// decompression.
pub struct TieredScan<'a> {
    t0: f64,
    t1: f64,
    disk: Option<DiskScan<'a>>,
    mem: Option<std::collections::vec_deque::Iter<'a, SealedBlock>>,
    hot_ts: std::collections::vec_deque::Iter<'a, f64>,
    hot_vs: std::collections::vec_deque::Iter<'a, f32>,
    /// Where a skipped block is counted (the engine's `io_errors`).
    io_errors: Option<&'a AtomicU64>,
    buf: Vec<u8>,
    ts: Vec<f64>,
    vs: Vec<f32>,
    tally: QueryCoverage,
}

/// The next block a scan reads.
enum Block<'a> {
    /// A disk block, its payload read into the scan's buffer.
    Disk,
    /// An in-memory block, not yet decoded.
    Mem(&'a SealedBlock),
}

impl<'a> TieredScan<'a> {
    pub(crate) fn new(
        t0: f64,
        t1: f64,
        disk: Option<DiskScan<'a>>,
        mem: Option<std::collections::vec_deque::Iter<'a, SealedBlock>>,
        hot_ts: std::collections::vec_deque::Iter<'a, f64>,
        hot_vs: std::collections::vec_deque::Iter<'a, f32>,
        io_errors: Option<&'a AtomicU64>,
    ) -> Self {
        TieredScan {
            t0,
            t1,
            disk,
            mem,
            hot_ts,
            hot_vs,
            io_errors,
            buf: Vec::new(),
            ts: Vec::new(),
            vs: Vec::new(),
            tally: QueryCoverage::default(),
        }
    }

    /// Per-tier points folded so far. `evicted` is set here only when
    /// the scan skipped a block it could not read or decode; the store,
    /// which owns the loss accounting, adds lost history.
    pub fn coverage(&self) -> QueryCoverage {
        self.tally
    }

    /// Give up on a block: count it and mark the answer incomplete.
    fn skip_block(&mut self) {
        if let Some(errors) = self.io_errors {
            errors.fetch_add(1, Ordering::Relaxed);
        }
        self.tally.evicted = true;
    }

    /// The next block overlapping the window, disk first, then in
    /// memory; `None` once both block tiers are exhausted and only the
    /// hot tail remains. A disk block that cannot be read is skipped.
    fn next_block(&mut self) -> Option<Block<'a>> {
        while let Some(d) = self.disk.as_mut() {
            match d.next_block(&mut self.buf) {
                Some(Ok(())) => return Some(Block::Disk),
                Some(Err(_)) => self.skip_block(),
                None => self.disk = None,
            }
        }
        loop {
            match self.mem.as_mut()?.next() {
                Some(b) if b.t_min < self.t1 => {
                    if b.t_max >= self.t0 {
                        return Some(Block::Mem(b));
                    }
                }
                _ => self.mem = None,
            }
        }
    }

    /// Decode a block into the staging columns and return the index
    /// range of its points inside the window, charged to the block's
    /// tier up front so the per-point loop stays branch-free. A block
    /// that fails to decode is skipped and yields nothing.
    fn decode_window(&mut self, block: Block<'_>) -> (usize, usize) {
        let (bytes, from_disk) = match block {
            Block::Disk => (&self.buf[..], true),
            Block::Mem(b) => (&b.bytes[..], false),
        };
        self.ts.clear();
        self.vs.clear();
        if decode_block_into(bytes, &mut self.ts, &mut self.vs).is_err() {
            self.skip_block();
            return (0, 0);
        }
        let pos = self.ts.partition_point(|&t| t < self.t0);
        let end = self.ts.partition_point(|&t| t < self.t1).max(pos);
        if from_disk {
            self.tally.disk += end - pos;
        } else {
            self.tally.compressed += end - pos;
        }
        (pos, end)
    }

    /// Fold every windowed point in chronological order — the one way
    /// points leave the store. Decoded blocks are visited as pairs of
    /// slices, so there is no per-point call, bounds check or tier
    /// branch; that is what the ≥100 M samples/s range-scan budget
    /// (E26) rests on. Every f64 fold built on it (means, energy
    /// integrals, rollup buckets) accumulates in the same order
    /// whichever tiers the window spans.
    pub fn fold_points<B>(&mut self, init: B, f: impl FnMut(B, f64, f64) -> B) -> B {
        self.fold_points_with(init, |_, _| None, f)
    }

    /// [`Self::fold_points`] with a whole-block step. For an in-memory
    /// block that lies entirely inside the window, `whole(&acc, block)`
    /// may return the accumulator with all of the block's points folded
    /// in, without decoding it; the block's points count as compressed
    /// coverage all the same. When it declines with `None`, the block is
    /// decoded and folded point by point. Edge blocks, disk blocks and
    /// the hot tail always fold point by point.
    pub(crate) fn fold_points_with<B>(
        &mut self,
        init: B,
        mut whole: impl FnMut(&B, &SealedBlock) -> Option<B>,
        mut f: impl FnMut(B, f64, f64) -> B,
    ) -> B {
        let mut acc = init;
        while let Some(block) = self.next_block() {
            if let Block::Mem(b) = block {
                if self.t0 <= b.t_min && b.t_max < self.t1 {
                    if let Some(next) = whole(&acc, b) {
                        self.tally.compressed += b.n as usize;
                        acc = next;
                        continue;
                    }
                }
            }
            let (pos, end) = self.decode_window(block);
            for (&t, &v) in self.ts[pos..end].iter().zip(&self.vs[pos..end]) {
                acc = f(acc, t, v as f64);
            }
        }
        let hot = std::mem::take(&mut self.hot_ts).zip(std::mem::take(&mut self.hot_vs));
        self.tally.hot += hot.len();
        for (&t, &v) in hot {
            acc = f(acc, t, v as f64);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdb::{Resolution, TsDb};
    use crate::TsDbConfig;

    /// Readings of a 12-bit 4 kW channel spread over 41 codes.
    fn adc_rail(n: usize, phase: usize) -> impl Iterator<Item = f32> {
        let lsb = 4000.0 / 4095.0;
        (0..n).map(move |i| (1700 + (phase + i) * 7919 % 41) as f32 * lsb)
    }

    /// The memory budget and `TierStats::compressed_bytes` count each
    /// block's payload length; a sealed block's payload is a boxed
    /// slice, so it holds exactly those bytes and no spare capacity.
    #[test]
    fn sealed_blocks_hold_exactly_the_bytes_the_budget_counts() {
        let cfg = TieringConfig {
            seal_block: 500,
            ..TieringConfig::default()
        };
        let mut engine = TierEngine::new(cfg, 4096);
        engine.ensure_series(1);
        for r in 0..4 {
            // A 500-point rail run: over 1 KB of payload.
            engine.scratch_ts.clear();
            engine.scratch_vs.clear();
            engine
                .scratch_ts
                .extend((0..500).map(|i| r as f64 * 0.01 + i as f64 * 2e-5));
            engine.scratch_vs.extend(adc_rail(500, r * 500));
            engine.commit_seal(0);
        }
        let blocks = &engine.mem[0].blocks;
        assert_eq!(blocks.len(), 4);
        for b in blocks {
            assert!(b.size_bytes() > 1024, "{} bytes", b.size_bytes());
        }
        let payload: usize = blocks.iter().map(SealedBlock::size_bytes).sum();
        assert_eq!(engine.mem_bytes, payload);
        assert_eq!(engine.stats().compressed_bytes as usize, payload);
    }

    /// A raw mean adds an in-window block from its certificate without
    /// decoding it. With one block's payload cut to its 2-byte header,
    /// the plain fold must skip that block (and say so), while the mean
    /// still answers with the bits of the intact fold.
    #[test]
    fn raw_mean_sums_whole_blocks_without_decoding_them() {
        let mut db = TsDb::with_config(TsDbConfig {
            raw_capacity: 4096,
            tiering: Some(TieringConfig {
                seal_block: 100,
                hot_retain: Some(50),
                ..TieringConfig::default()
            }),
            ..TsDbConfig::default()
        })
        .unwrap();
        let id = db.resolve("rail");
        let vs: Vec<f32> = adc_rail(450, 0).collect();
        db.append_frame_id(id, 10.0, 0.01, &vs);
        db.compact();
        let sum = vs.iter().fold(0.0, |acc, &v| acc + v as f64);
        let (want, coverage) = db.mean_id_with_coverage(id, Resolution::Raw, 0.0, 1e9);
        assert_eq!(want.map(f64::to_bits), Some((sum / 450.0).to_bits()));
        assert_eq!((coverage.compressed, coverage.hot), (400, 50));

        let engine = db.tier_mut().unwrap();
        let cut = &mut engine.mem[0].blocks[1];
        cut.bytes = cut.bytes[..2].into();
        let (got, got_coverage) = db.mean_id_with_coverage(id, Resolution::Raw, 0.0, 1e9);
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        assert_eq!(got_coverage, coverage);
        assert_eq!(db.tier_stats().io_errors, 0);

        let mut scan = db.scan_id(id, 0.0, 1e9);
        assert_eq!(scan.fold_points(0, |n, _, _| n + 1), 350);
        assert_eq!(scan.coverage().compressed, 300);
        assert!(!scan.coverage().is_complete());
        assert_eq!(db.tier_stats().io_errors, 1);
    }
}
