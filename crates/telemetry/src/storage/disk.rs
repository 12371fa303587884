//! Cold tier: compressed blocks demoted to append-once segment files.
//!
//! Each demotion batch becomes ONE self-describing segment file
//! (`seg-<seq>.bin`), written tmp → `sync_all` → atomic rename so a
//! crash mid-write leaves at most a `.tmp` orphan that recovery deletes
//! — a renamed segment is always complete. Records carry the series
//! *name* (not the in-memory id), so a fresh process can rebuild the
//! whole index from the directory alone ([`DiskTier::open`]).
//!
//! File layout:
//!
//! ```text
//! magic  "DVSEG02\n"                      8 bytes
//! count  u32 LE                           record count
//! record × count:
//!   name_len u16 LE | name utf-8 | n u32 | t_min f64 | t_max f64
//!   payload_len u32 | payload (codec bitstream)
//! check  u64 LE                           FNV-1a-64 of every byte above
//! footer "DVSEGEND"                       8 bytes, must land exactly at EOF
//! ```
//!
//! [`DiskTier::open`] reads each whole file and skips (and counts) one
//! whose checksum or framing does not hold, so a torn file or a flipped
//! bit is never indexed. The check runs at open only: a payload
//! corrupted on disk after that is read as data by scans.
//!
//! Reads are mmap-free buffered `read_exact_at` calls straight into the
//! caller's scan scratch — no page-cache pinning, no per-block
//! allocation, and `&self` queries (positioned reads never seek the
//! shared handle).

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

use davide_obs::fnv1a;

use super::block::SealedBlock;

const SEG_MAGIC: &[u8; 8] = b"DVSEG02\n";
const SEG_FOOTER: &[u8; 8] = b"DVSEGEND";

/// Where and how big the cold tier is allowed to be.
#[derive(Debug, Clone)]
pub struct DiskTierConfig {
    /// Directory holding the segment files (created if absent; existing
    /// segments are recovered into the index on open).
    pub dir: PathBuf,
    /// Total on-disk budget; the oldest whole segment files are dropped
    /// (and their points counted as evicted) once exceeded.
    pub budget_bytes: u64,
}

impl DiskTierConfig {
    /// Cold tier in `dir` with an effectively unlimited budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskTierConfig {
            dir: dir.into(),
            budget_bytes: u64::MAX,
        }
    }
}

/// One block's location inside a segment file, plus enough metadata to
/// skip it without touching the disk.
#[derive(Debug, Clone, Copy)]
struct BlockRef {
    file: u32,
    offset: u64,
    len: u32,
    n: u32,
    t_min: f64,
    t_max: f64,
}

#[derive(Debug)]
struct SegmentFile {
    path: PathBuf,
    file: File,
    bytes: u64,
    points: u64,
    blocks: u64,
}

/// The cold tier: segment files plus an in-memory per-series sparse
/// time index rebuilt from the files themselves on open.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    budget: u64,
    /// Slot per segment ever seen this process; dropped files become
    /// `None` so [`BlockRef::file`] indices stay stable.
    files: Vec<Option<SegmentFile>>,
    /// Per-series (by in-memory series index) chronological block refs.
    index: Vec<Vec<BlockRef>>,
    next_seq: u64,
    total_bytes: u64,
    total_points: u64,
    total_blocks: u64,
    /// Segment files `open` found but could not read or validate.
    skipped: u64,
}

impl DiskTier {
    /// Open (or create) the tier directory, delete crash orphans
    /// (`*.tmp`), and rebuild the index from every valid segment file.
    /// A segment that fails validation is left in place, unindexed, and
    /// counted in [`DiskTier::skipped_segments`]. `resolve` maps a
    /// recovered series name to its in-memory series index (interning
    /// it on first sight).
    pub fn open(
        cfg: &DiskTierConfig,
        mut resolve: impl FnMut(&str) -> u32,
    ) -> io::Result<DiskTier> {
        fs::create_dir_all(&cfg.dir)?;
        let mut segs: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            } else if let Some(seq) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".bin"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                segs.push((seq, entry.path()));
            }
        }
        segs.sort_by_key(|&(seq, _)| seq);
        let mut tier = DiskTier {
            dir: cfg.dir.clone(),
            budget: cfg.budget_bytes,
            files: Vec::new(),
            index: Vec::new(),
            next_seq: segs.last().map_or(0, |&(seq, _)| seq + 1),
            total_bytes: 0,
            total_points: 0,
            total_blocks: 0,
            skipped: 0,
        };
        for (_, path) in segs {
            // A segment that fails validation (torn, or with corrupt
            // framing) is skipped, not trusted — and counted, because
            // its history is gone.
            if tier.recover_segment(path, &mut resolve).is_err() {
                tier.skipped += 1;
            }
        }
        Ok(tier)
    }

    /// Segment files [`DiskTier::open`] skipped because they could not
    /// be read or validated. Their series and time spans are unknown.
    pub fn skipped_segments(&self) -> u64 {
        self.skipped
    }

    fn recover_segment(
        &mut self,
        path: PathBuf,
        resolve: &mut impl FnMut(&str) -> u32,
    ) -> io::Result<()> {
        let mut file = File::open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let refs = parse_segment(&buf, self.files.len() as u32)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "corrupt segment"))?;
        let mut points = 0u64;
        let blocks = refs.len() as u64;
        for (name, r) in refs {
            let series = resolve(&name) as usize;
            if self.index.len() <= series {
                self.index.resize_with(series + 1, Vec::new);
            }
            points += r.n as u64;
            self.index[series].push(r);
        }
        let bytes = buf.len() as u64;
        self.files.push(Some(SegmentFile {
            path,
            file,
            bytes,
            points,
            blocks,
        }));
        self.total_bytes += bytes;
        self.total_points += points;
        self.total_blocks += blocks;
        Ok(())
    }

    /// Demote a batch of sealed blocks as one new segment file. The
    /// batch must be in chronological order per series (the engine
    /// demotes oldest-first, which guarantees it). `names` maps series
    /// index → series name for the self-describing records.
    pub fn demote(&mut self, batch: &[(u32, SealedBlock)], names: &[String]) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let file_idx = self.files.len() as u32;

        let mut buf = Vec::new();
        buf.extend_from_slice(SEG_MAGIC);
        buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        let mut refs: Vec<(u32, BlockRef)> = Vec::with_capacity(batch.len());
        let mut points = 0u64;
        for (series, b) in batch {
            let name = names[*series as usize].as_bytes();
            buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
            buf.extend_from_slice(name);
            buf.extend_from_slice(&b.n.to_le_bytes());
            buf.extend_from_slice(&b.t_min.to_le_bytes());
            buf.extend_from_slice(&b.t_max.to_le_bytes());
            buf.extend_from_slice(&(b.bytes.len() as u32).to_le_bytes());
            let offset = buf.len() as u64;
            buf.extend_from_slice(&b.bytes);
            points += b.n as u64;
            refs.push((
                *series,
                BlockRef {
                    file: file_idx,
                    offset,
                    len: b.bytes.len() as u32,
                    n: b.n,
                    t_min: b.t_min,
                    t_max: b.t_max,
                },
            ));
        }
        let check = fnv1a(&buf);
        buf.extend_from_slice(&check.to_le_bytes());
        buf.extend_from_slice(SEG_FOOTER);

        // tmp → fsync → rename: the published name is always complete.
        let tmp = self.dir.join(format!("seg-{seq:010}.tmp"));
        let path = self.dir.join(format!("seg-{seq:010}.bin"));
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
        fs::rename(&tmp, &path)?;

        for (series, r) in refs {
            let series = series as usize;
            if self.index.len() <= series {
                self.index.resize_with(series + 1, Vec::new);
            }
            self.index[series].push(r);
        }
        self.files.push(Some(SegmentFile {
            path,
            file: f,
            bytes: buf.len() as u64,
            points,
            blocks: batch.len() as u64,
        }));
        self.total_bytes += buf.len() as u64;
        self.total_points += points;
        self.total_blocks += batch.len() as u64;
        Ok(())
    }

    /// Drop whole oldest segment files until the tier fits its budget,
    /// crediting each dropped block's points to `evicted[series]`.
    pub fn enforce_budget(&mut self, evicted: &mut Vec<u64>) {
        while self.total_bytes > self.budget {
            let Some(oldest) = self.files.iter().position(Option::is_some) else {
                break;
            };
            let seg = self.files[oldest].take().expect("position found Some");
            self.total_bytes -= seg.bytes;
            self.total_points -= seg.points;
            self.total_blocks -= seg.blocks;
            let _ = fs::remove_file(&seg.path);
            for (series, refs) in self.index.iter_mut().enumerate() {
                // Oldest file ⇒ its refs sit at the front of each series.
                let k = refs.iter().take_while(|r| r.file == oldest as u32).count();
                if k > 0 {
                    if evicted.len() <= series {
                        evicted.resize(series + 1, 0);
                    }
                    evicted[series] += refs.drain(..k).map(|r| r.n as u64).sum::<u64>();
                }
            }
        }
    }

    /// Block-skipping cursor over this series' on-disk blocks that
    /// overlap `[t0, t1)`.
    pub fn scan(&self, series: usize, t0: f64, t1: f64) -> DiskScan<'_> {
        let refs: &[BlockRef] = self
            .index
            .get(series)
            .map(Vec::as_slice)
            .unwrap_or_default();
        let start = refs.partition_point(|r| r.t_max < t0);
        DiskScan {
            refs,
            files: &self.files,
            i: start,
            t1,
        }
    }

    /// Earliest retained on-disk timestamp for a series.
    pub fn first_retained_t(&self, series: usize) -> Option<f64> {
        self.index.get(series)?.first().map(|r| r.t_min)
    }

    /// (bytes, blocks, points, live segment files).
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        (
            self.total_bytes,
            self.total_blocks,
            self.total_points,
            self.files.iter().flatten().count() as u64,
        )
    }

    /// Recovered series names → on-disk point counts (test/inspection).
    pub fn points_by_series(&self, names: &[String]) -> HashMap<String, u64> {
        let mut out = HashMap::new();
        for (series, refs) in self.index.iter().enumerate() {
            let pts: u64 = refs.iter().map(|r| r.n as u64).sum();
            if pts > 0 {
                if let Some(name) = names.get(series) {
                    out.insert(name.clone(), pts);
                }
            }
        }
        out
    }
}

/// Cursor over one series' overlapping on-disk blocks; each call reads
/// the next compressed payload into the caller's scratch buffer.
pub struct DiskScan<'a> {
    refs: &'a [BlockRef],
    files: &'a [Option<SegmentFile>],
    i: usize,
    t1: f64,
}

impl DiskScan<'_> {
    /// Read the next overlapping block's payload into `buf` (cleared and
    /// resized in place — capacity is reused across blocks). Returns
    /// `None` when past the window.
    pub fn next_block(&mut self, buf: &mut Vec<u8>) -> Option<io::Result<()>> {
        let r = *self.refs.get(self.i)?;
        if r.t_min >= self.t1 {
            return None;
        }
        self.i += 1;
        let Some(seg) = self.files.get(r.file as usize).and_then(Option::as_ref) else {
            // Refs to dropped files are drained eagerly; a miss here is a
            // wiring bug but must not panic a query path.
            return Some(Err(io::Error::new(
                io::ErrorKind::NotFound,
                "segment dropped",
            )));
        };
        buf.clear();
        buf.resize(r.len as usize, 0);
        Some(seg.file.read_exact_at(buf, r.offset))
    }
}

/// Validate and index one segment image; `None` if torn, if its framing
/// is corrupt, or if its checksum does not match its bytes.
fn parse_segment(buf: &[u8], file_idx: u32) -> Option<Vec<(String, BlockRef)>> {
    let (buf, tail) = buf.split_at(buf.len().checked_sub(8 + SEG_FOOTER.len())?);
    let (check, footer) = tail.split_at(8);
    if footer != SEG_FOOTER || fnv1a(buf) != u64::from_le_bytes(check.try_into().ok()?) {
        return None;
    }
    let body = buf.strip_prefix(SEG_MAGIC.as_slice())?;
    let count = u32::from_le_bytes(body.get(..4)?.try_into().ok()?) as usize;
    let mut pos = 8 + 4;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = u16::from_le_bytes(buf.get(pos..pos + 2)?.try_into().ok()?) as usize;
        pos += 2;
        let name = std::str::from_utf8(buf.get(pos..pos + name_len)?).ok()?;
        pos += name_len;
        let n = u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().ok()?);
        pos += 4;
        let t_min = f64::from_le_bytes(buf.get(pos..pos + 8)?.try_into().ok()?);
        pos += 8;
        let t_max = f64::from_le_bytes(buf.get(pos..pos + 8)?.try_into().ok()?);
        pos += 8;
        let len = u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().ok()?);
        pos += 4;
        let offset = pos as u64;
        pos = pos.checked_add(len as usize)?;
        buf.get(offset as usize..pos)?;
        out.push((
            name.to_string(),
            BlockRef {
                file: file_idx,
                offset,
                len,
                n,
                t_min,
                t_max,
            },
        ));
    }
    (pos == buf.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::codec::decode_block_into;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn test_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "davide-disk-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn mk_block(t0: f64, n: usize) -> SealedBlock {
        let ts: Vec<f64> = (0..n).map(|i| t0 + i as f64 * 0.5).collect();
        let vs: Vec<f32> = (0..n).map(|i| (i % 7) as f32 + t0 as f32).collect();
        SealedBlock::seal(&ts, &vs, &mut Vec::new())
    }

    #[test]
    fn demote_scan_roundtrip() {
        let dir = test_dir("roundtrip");
        let cfg = DiskTierConfig::new(&dir);
        let mut tier = DiskTier::open(&cfg, |_| 0).unwrap();
        let names = vec!["node00/power/node".to_string(), "b".to_string()];
        tier.demote(&[(0, mk_block(0.0, 100)), (1, mk_block(0.0, 10))], &names)
            .unwrap();
        tier.demote(&[(0, mk_block(50.0, 100))], &names).unwrap();

        // Skip the first block entirely: window starts after its t_max.
        let mut scan = tier.scan(0, 50.0, 1e9);
        let mut buf = Vec::new();
        let (mut ts, mut vs) = (Vec::new(), Vec::new());
        let mut blocks = 0;
        while let Some(r) = scan.next_block(&mut buf) {
            r.unwrap();
            decode_block_into(&buf, &mut ts, &mut vs).unwrap();
            blocks += 1;
        }
        assert_eq!(blocks, 1, "window-skipping cursor decodes only 1 block");
        assert_eq!(ts.len(), 100);
        assert_eq!(ts[0], 50.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rebuilds_index_and_drops_tmp_orphans() {
        let dir = test_dir("recover");
        let cfg = DiskTierConfig::new(&dir);
        let names = vec!["x".to_string(), "y".to_string()];
        {
            let mut tier = DiskTier::open(&cfg, |_| 0).unwrap();
            tier.demote(&[(0, mk_block(0.0, 64)), (1, mk_block(0.0, 32))], &names)
                .unwrap();
            tier.demote(&[(0, mk_block(100.0, 64))], &names).unwrap();
        }
        // Crash artifacts: a torn tmp and a corrupt published segment.
        fs::write(dir.join("seg-9999999999.tmp"), b"torn").unwrap();
        fs::write(dir.join("seg-0000009998.bin"), b"DVSEG02\ngarbage").unwrap();

        let mut name_map: Vec<String> = Vec::new();
        let mut tier = DiskTier::open(&cfg, |name| {
            if let Some(i) = name_map.iter().position(|n| n == name) {
                i as u32
            } else {
                name_map.push(name.to_string());
                name_map.len() as u32 - 1
            }
        })
        .unwrap();
        assert!(!dir.join("seg-9999999999.tmp").exists(), "tmp orphan gone");
        let pts = tier.points_by_series(&name_map);
        assert_eq!(pts.get("x"), Some(&128));
        assert_eq!(pts.get("y"), Some(&32));
        let (_, blocks, points, segs) = tier.totals();
        assert_eq!((blocks, points, segs), (3, 160, 2), "corrupt seg skipped");

        // Recovered refs still scan in chronological order.
        let x = name_map.iter().position(|n| n == "x").unwrap();
        let mut scan = tier.scan(x, 0.0, 1e9);
        let mut buf = Vec::new();
        let (mut ts, mut vs) = (Vec::new(), Vec::new());
        while let Some(r) = scan.next_block(&mut buf) {
            r.unwrap();
            decode_block_into(&buf, &mut ts, &mut vs).unwrap();
        }
        assert_eq!(ts.len(), 128);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        // New demotions continue the sequence without clobbering.
        tier.demote(&[(x as u32, mk_block(200.0, 8))], &name_map)
            .unwrap();
        assert_eq!(tier.totals().2, 168);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_drops_oldest_files_and_counts_evictions() {
        let dir = test_dir("budget");
        let mut cfg = DiskTierConfig::new(&dir);
        let names = vec!["s".to_string()];
        let mut tier = DiskTier::open(&cfg, |_| 0).unwrap();
        for k in 0..4 {
            tier.demote(&[(0, mk_block(k as f64 * 100.0, 256))], &names)
                .unwrap();
        }
        let (bytes, _, _, segs) = tier.totals();
        assert_eq!(segs, 4);
        cfg.budget_bytes = bytes / 2;
        tier.budget = cfg.budget_bytes;
        let mut evicted = Vec::new();
        tier.enforce_budget(&mut evicted);
        let (bytes2, _, points2, segs2) = tier.totals();
        assert!(bytes2 <= cfg.budget_bytes);
        assert!((1..4).contains(&segs2));
        assert_eq!(evicted[0] + points2, 4 * 256, "every point accounted");
        assert_eq!(
            tier.first_retained_t(0),
            Some((4 - segs2) as f64 * 100.0),
            "oldest dropped first"
        );
        // Scans over the evicted range return nothing rather than erroring.
        let mut scan = tier.scan(0, 0.0, 50.0);
        let mut buf = Vec::new();
        if segs2 < 4 {
            assert!(scan.next_block(&mut buf).is_none());
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
