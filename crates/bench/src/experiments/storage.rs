//! E26 — tiered, Gorilla-compressed TsDb: months of E25-rate history
//! in bounded memory, with bit-exact round-trips and ≥100 M samples/s
//! range scans (see DESIGN.md §10 "Tiered storage engine").
//!
//! Four gates:
//!
//! 1. **Compression** — an idle (flat-rail) E25-shaped corpus (the
//!    same ADC-quantise → ×16 boxcar → `f32` frame pipeline, tone and
//!    noise at zero) must compress ≥10× (≥5× in smoke mode). The
//!    *live* E25 replay ratio is reported too and gated ≥3× — a 50 Hz
//!    tone plus gateway noise at `f32` resolution carries ~13 bits/pt
//!    of real entropy, so 10× is information-theoretically out of
//!    reach for it and flat rails are where the 10× claim lives.
//! 2. **Bit-exactness** — an N× replay through a tiered store answers
//!    full-history range queries bit-identically to an untiered store
//!    holding every point in its hot ring.
//! 3. **Scan throughput** — the block-skipping tiered scan must decode
//!    ≥100 M samples/s (single thread) over a compressed noisy-tone
//!    corpus (gated in full mode; reported in smoke).
//! 4. **Retention accounting** — nothing is silently lost: hot +
//!    compressed + disk points equal every sample stored, and the
//!    eviction counter stays zero while budgets hold.

use super::smoke;
use crate::header;
use davide_telemetry::acquisition::{AcquisitionConfig, AcquisitionRig, DspMode};
use davide_telemetry::tsdb::{Resolution, TsDb};
use davide_telemetry::{DiskTierConfig, SeriesRead, TieringConfig, TsDbConfig};
use std::time::Instant;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("davide-e26-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The AM335x power-channel LSB after calibration to the 0–4000 W
/// range: the quantum every stored sample is built from.
const LSB_W: f64 = 4000.0 / 4095.0;

/// One decimated idle-rail sample: 16 ADC codes of a flat rail,
/// hardware-averaged — exactly the arithmetic of the E25 frame
/// pipeline with tone and noise at zero.
fn idle_sample(base_w: f64) -> f32 {
    let code = (base_w / LSB_W).round().clamp(0.0, 4095.0) * LSB_W;
    ((code * 16.0) / 16.0) as f32
}

/// Gate 1: idle-corpus compression through the tiered store itself.
fn compression_gate() -> f64 {
    let (channels, frames) = if smoke() { (2usize, 60usize) } else { (8, 400) };
    let frame_len = 500usize;
    let dt = 2e-5f64;
    let bases = [1700.0, 300.0, 300.0, 350.0, 380.0, 400.0, 410.0, 100.0];

    let mut db = TsDb::with_config(TsDbConfig {
        raw_capacity: 4096,
        tiering: Some(TieringConfig {
            seal_block: 1024,
            hot_retain: Some(128),
            ..TieringConfig::default()
        }),
        ..TsDbConfig::default()
    })
    .expect("mem-only tiering is infallible");

    for ch in 0..channels {
        let id = db.resolve(&format!("node00/power/ch{ch}"));
        let v = idle_sample(bases[ch % bases.len()]);
        let frame: Vec<f32> = vec![v; frame_len];
        for f in 0..frames {
            let t0 = 10.0 + f as f64 * (frame_len as f64 * dt) + 3.7e-7;
            db.append_frame_id(id, t0, dt, &frame);
            db.compact();
        }
    }
    db.compact();
    let st = db.tier_stats();
    let ratio = st.compression_ratio();
    println!(
        "idle corpus: {} series × {} pts, sealed {} pts into {} blocks ({} B) → {:.1}× vs 12 B/pt",
        channels,
        frames * frame_len,
        st.compressed_points,
        st.compressed_blocks,
        st.compressed_bytes,
        ratio
    );
    let floor = if smoke() { 5.0 } else { 10.0 };
    assert!(
        ratio >= floor,
        "idle-rail compression {ratio:.1}× under the {floor}× gate"
    );
    ratio
}

/// Gates 2 & 4: N× E25 replay, tiered vs untiered, bit for bit.
fn replay_gates() {
    let n_replays = 2usize;
    let base = if smoke() {
        AcquisitionConfig {
            nodes: 3,
            duration_s: 0.05,
            ..AcquisitionConfig::full_rate()
        }
    } else {
        AcquisitionConfig {
            nodes: 9,
            duration_s: 0.5,
            ..AcquisitionConfig::full_rate()
        }
    };
    let disk_dir = temp_dir("replay");
    let tiered_cfg = AcquisitionConfig {
        tiering: Some(TieringConfig {
            seal_block: 1024,
            hot_retain: Some(512),
            // A small *per-shard* in-memory budget so the run
            // exercises all three tiers: blocks demote to per-shard
            // segment files.
            mem_budget_bytes: 16 << 10,
            disk: Some(DiskTierConfig::new(&disk_dir)),
        }),
        ..base.clone()
    };
    // The untiered reference holds the whole replay in its hot rings.
    let points_per_series = (base.rounds() * n_replays * base.frame_len()) + 16;
    let untiered_cfg = AcquisitionConfig {
        raw_capacity: points_per_series,
        ..base
    };

    let mut tiered = AcquisitionRig::new(tiered_cfg, DspMode::Blocked);
    let mut reference = AcquisitionRig::new(untiered_cfg, DspMode::Blocked);
    let t = Instant::now();
    for _ in 0..n_replays {
        tiered.run();
    }
    let tiered_wall = t.elapsed().as_secs_f64();
    for _ in 0..n_replays {
        reference.run();
    }
    tiered.db_mut().compact();

    let st = tiered.db().tier_stats();
    let stored = st.hot_points + st.compressed_points + st.disk_points;
    println!(
        "\n{n_replays}× replay ({:.1} M raw samples, {:.2} s wall): \
         hot {} | mem {} pts / {} B | disk {} pts / {} B in {} segments",
        (tiered.config().raw_samples() * n_replays as u64) as f64 / 1e6,
        tiered_wall,
        st.hot_points,
        st.compressed_points,
        st.compressed_bytes,
        st.disk_points,
        st.disk_bytes,
        st.disk_segments,
    );
    let live_ratio = st.compression_ratio();
    println!(
        "live replay compression: {live_ratio:.1}× (tone+noise entropy bounds this; \
         the 10× gate lives on idle rails)"
    );
    assert!(
        live_ratio >= 3.0,
        "live E25 replay compression {live_ratio:.1}× under the 3× floor"
    );
    assert_eq!(st.evicted_points, 0, "budgets must not have evicted");
    assert!(
        st.disk_points > 0,
        "the per-shard memory budget must push blocks to the disk tier"
    );

    // Bit-exact differential: every series, full history, through the
    // unified SeriesRead surface both stores serve.
    let keys = tiered.db().series_names();
    assert_eq!(keys, reference.db().series_names());
    let mut compared = 0u64;
    for key in &keys {
        let a = tiered.db().series_range(key, Resolution::Raw, 0.0, 1e18);
        let b = reference.db().series_range(key, Resolution::Raw, 0.0, 1e18);
        assert!(!a.coverage.evicted, "{key}: tiered store lost history");
        assert_eq!(a.points.len(), b.points.len(), "{key}");
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.t.to_bits(), y.t.to_bits(), "{key}");
            assert_eq!(x.v.to_bits(), y.v.to_bits(), "{key}");
        }
        compared += a.points.len() as u64;
        let ma = tiered.db().series_mean(key, Resolution::Raw, 0.0, 1e18).0;
        let mb = reference
            .db()
            .series_mean(key, Resolution::Raw, 0.0, 1e18)
            .0;
        assert_eq!(ma.map(f64::to_bits), mb.map(f64::to_bits), "{key}");
    }
    assert_eq!(
        compared, stored,
        "differential covered every retained point"
    );
    println!(
        "bit-exact: {} series × full history ({compared} pts) identical to the \
         uncompressed reference (hot {} / mem {} / disk {})",
        keys.len(),
        st.hot_points,
        st.compressed_points,
        st.disk_points
    );
    let _ = std::fs::remove_dir_all(&disk_dir);
}

/// Gate 3: single-thread range-scan throughput over compressed
/// noisy-tone blocks (the worst-entropy corpus the codec sees).
fn scan_gate() {
    let n = if smoke() { 400_000usize } else { 2_000_000 };
    let frame_len = 500usize;
    let dt = 2e-5f64;
    let mut db = TsDb::with_config(TsDbConfig {
        raw_capacity: 4096,
        tiering: Some(TieringConfig {
            seal_block: 1024,
            hot_retain: Some(128),
            ..TieringConfig::default()
        }),
        ..TsDbConfig::default()
    })
    .expect("mem-only tiering is infallible");
    let id = db.resolve("node00/power/node");

    // Tone + noise, quantised like the E25 frame pipeline.
    let mut state = 0x00DA_71DEu64;
    let mut frame = vec![0.0f32; frame_len];
    for f in 0..n / frame_len {
        for (k, slot) in frame.iter_mut().enumerate() {
            let mut acc = 0.0;
            for r in 0..16 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let noise = (state as f64 / u64::MAX as f64 - 0.5) * 34.0;
                let t = ((f * frame_len + k) * 16 + r) as f64 / 800_000.0;
                let w = 1700.0 + 85.0 * (2.0 * std::f64::consts::PI * 50.0 * t).sin() + noise;
                acc += (w / LSB_W).round().clamp(0.0, 4095.0) * LSB_W;
            }
            *slot = (acc / 16.0) as f32;
        }
        db.append_frame_id(id, 10.0 + (f * frame_len) as f64 * dt, dt, &frame);
        db.compact();
    }
    let st = db.tier_stats();

    // Warm once, then time whole-history scans (fold, no Vec).
    let scan_once = |db: &TsDb| -> (u64, f64) {
        db.scan_id(id, 0.0, 1e18)
            .fold_points((0u64, 0.0f64), |(cnt, sum), _t, v| (cnt + 1, sum + v))
    };
    let (warm_cnt, _) = scan_once(&db);
    assert_eq!(warm_cnt as usize, n);
    let reps = if smoke() { 10 } else { 20 };
    let t = Instant::now();
    let mut total = 0u64;
    for _ in 0..reps {
        total += scan_once(&db).0;
    }
    let el = t.elapsed().as_secs_f64();
    let rate = total as f64 / el / 1e6;
    println!(
        "\nrange scan: {} pts ({} compressed blocks, {:.1}× ratio), {reps} full-history \
         scans in {:.3} s → {rate:.0} M samples/s single-thread",
        n,
        st.compressed_blocks,
        st.compression_ratio(),
        el
    );
    if smoke() {
        println!("(smoke mode: throughput reported, not gated)");
    } else {
        assert!(
            rate >= 100.0,
            "tiered range scan {rate:.0} M samples/s under the 100 M gate"
        );
    }
}

/// E26 — tiered storage engine.
pub fn e26() {
    header(
        "e26",
        "Tiered Gorilla-compressed TsDb (compression, bit-exactness, scan rate)",
    );
    let idle_ratio = compression_gate();
    replay_gates();
    scan_gate();
    println!(
        "\ngates: idle compression {:.1}× (≥{}×) ✓, live ≥3× ✓, bit-exact ✓, \
         retention accounted ✓{}",
        idle_ratio,
        if smoke() { 5 } else { 10 },
        if smoke() {
            ", scan rate reported"
        } else {
            ", scan ≥100 M/s ✓"
        }
    );
}
