//! Tier-1 property suite for the tiered storage engine: codec identity
//! over arbitrary `f32` bit patterns, encoder bytes identical to the
//! reference encoder (and its exact-sum certificate true to its
//! definition), truncated-decode-is-an-error, arbitrary bytes never
//! panic the decoder, a differential compressed-vs-hot range scan on
//! random windows, raw means that add whole blocks from their exact-sum
//! certificates bit-identical to the point-by-point fold, 1 s and 1 min
//! rollups folded from raw points in every tier, disk-tier crash
//! recovery, unreadable disk blocks counted and flagged, and a segment
//! torn at every byte offset, or with the low bit of any one byte
//! flipped, skipped, counted and flagged on reopen.

mod reference_codec;

use davide::telemetry::storage::{decode_block_into, encode_block, MAX_BLOCK_POINTS};
use davide::telemetry::tsdb::{Point, Resolution, SeriesId, TsDb};
use davide::telemetry::{DiskTierConfig, RangeQuery, SeriesRead, TieringConfig, TsDbConfig};
use proptest::prelude::*;
use std::fs::OpenOptions;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn test_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "davide-tiered-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// xorshift over a seed: arbitrary `f32` *bit patterns* (every NaN
/// payload, both zeros, subnormals, infinities) the codec must
/// round-trip bit for bit, not just "nice" values.
fn bit_pattern_series(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f32::from_bits(state as u32)
        })
        .collect()
}

/// E25-shaped value series: a rail with a tone plus noise, as `f32`.
fn rail_series(base: f64, ripple: f64, seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state as f64 / u64::MAX as f64 - 0.5) * 0.02 * base;
            (base + ripple * base * (i as f64 * 0.03).sin() + noise) as f32
        })
        .collect()
}

/// Encode with the library and with the reference encoder, both
/// appending to the same non-empty prefix, and require identical bytes
/// — and a `BlockSum` that says what its definition says: the
/// in-order sum from `+0.0`, the largest biased exponent, and the
/// smallest over nonzero values floored at 1 (254 when all are zero).
fn same_bytes_as_reference(ts: &[f64], vs: &[f32]) -> Result<(), TestCaseError> {
    let (mut got, mut want) = (vec![0xA5], vec![0xA5]);
    let cert = encode_block(ts, vs, &mut got);
    let sum = vs.iter().fold(0.0, |acc, &v| acc + v as f64);
    prop_assert!(
        cert.sum.to_bits() == sum.to_bits() || (cert.sum.is_nan() && sum.is_nan()),
        "sum {} vs {}",
        cert.sum,
        sum
    );
    let exponent = |v: &f32| (v.to_bits() >> 23) as u8;
    let hi = vs.iter().map(exponent).max();
    let lo = vs
        .iter()
        .filter(|v| v.to_bits() << 1 != 0)
        .map(exponent)
        .min();
    prop_assert_eq!(
        (cert.lo, Some(cert.hi)),
        (lo.map_or(254, |e| e.max(1)), hi),
        "exponent bounds of {} values",
        vs.len()
    );
    reference_codec::encode_block(ts, vs, &mut want);
    let first_diff = got.iter().zip(&want).position(|(a, b)| a != b);
    prop_assert!(
        got == want,
        "{} points: {} vs {} reference bytes, first difference at {:?}",
        ts.len(),
        got.len(),
        want.len(),
        first_diff
    );
    Ok(())
}

/// Zigzag delta-of-delta codes at every timestamp bucket edge: zero,
/// the 2-bit bucket's 1..=4, the first 8-bit code, the last/first code
/// of the 8-, 16- and 32-bit buckets, and raw escapes.
const DOD_EDGES: [u64; 14] = [
    0,
    1,
    2,
    3,
    4,
    5,
    255,
    256,
    65_535,
    65_536,
    (1 << 32) - 1,
    1 << 32,
    1 << 63,
    u64::MAX,
];

/// Timestamps from raw first bits `t0` whose successive delta-of-deltas
/// (on the raw bits) have the zigzag codes `zs`.
fn timestamps_with_dods(t0: u64, zs: &[u64]) -> Vec<f64> {
    let (mut t, mut delta) = (t0 as i64, 0i64);
    let mut ts = vec![f64::from_bits(t0)];
    for &z in zs {
        let dod = ((z >> 1) as i64) ^ -((z & 1) as i64);
        delta = delta.wrapping_add(dod);
        t = t.wrapping_add(delta);
        ts.push(f64::from_bits(t as u64));
    }
    ts
}

/// Values from raw first bits `v0` whose successive XORs come from one
/// draw each: a repeat, a full 32-bit-wide XOR (lead = trail = 0), an
/// arbitrary XOR, or a narrow one inside bits 8..20 (so later narrow
/// draws usually fit the open window).
fn values_with_xors(v0: u32, draws: &[u64]) -> Vec<f32> {
    let mut v = v0;
    let mut vs = vec![f32::from_bits(v0)];
    for &r in draws {
        let bits = (r >> 32) as u32;
        v ^= match r & 3 {
            0 => 0,
            1 => bits | 0x8000_0001,
            2 => bits,
            _ => (bits & 0xfff) << 8,
        };
        vs.push(f32::from_bits(v));
    }
    vs
}

/// Zigzag code for draw `r`: a bucket edge three times in four,
/// otherwise an arbitrary code.
fn dod_code(r: u64) -> u64 {
    if r & 3 == 0 {
        r
    } else {
        DOD_EDGES[(r >> 2) as usize % DOD_EDGES.len()]
    }
}

#[test]
fn encoder_matches_reference_on_single_point_and_full_blocks() {
    same_bytes_as_reference(&[123.456], &[789.0]).unwrap();
    same_bytes_as_reference(&[f64::NAN], &[-0.0]).unwrap();
    let n = MAX_BLOCK_POINTS;
    let draws: Vec<u64> = (0..n as u64 - 1)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let zs: Vec<u64> = draws.iter().map(|&r| dod_code(r)).collect();
    let ts = timestamps_with_dods(10f64.to_bits(), &zs);
    let vs = values_with_xors(1700f32.to_bits(), &draws);
    same_bytes_as_reference(&ts, &vs).unwrap();
    let uniform: Vec<f64> = (0..n).map(|i| 50.0 + i as f64 * 2e-5).collect();
    same_bytes_as_reference(&uniform, &rail_series(1700.0, 0.05, 9, n)).unwrap();
}

proptest! {
    /// The encoder writes exactly the reference's bytes for arbitrary
    /// `f64` timestamp and `f32` value bit patterns.
    #[test]
    fn encoder_matches_reference_on_arbitrary_bits(
        t_bits in proptest::collection::vec(any::<u64>(), 1..300),
        seed in any::<u64>(),
    ) {
        let ts: Vec<f64> = t_bits.iter().map(|&b| f64::from_bits(b)).collect();
        same_bytes_as_reference(&ts, &bit_pattern_series(seed, ts.len()))?;
    }

    /// ... and for uniform `t0 + i·dt` frames, whose rounding leaves a
    /// ±1-ulp wobble in the delta-of-delta, over rail-shaped values.
    #[test]
    fn encoder_matches_reference_on_uniform_frames(
        n in 1usize..600,
        t0 in 0.0f64..1e6,
        dt_pick in 0usize..4,
        dt_free in 1e-7f64..10.0,
        base in 1.0f64..4000.0,
        seed in any::<u64>(),
    ) {
        let dt = [2e-5, 1.25e-6, 1e-2, dt_free][dt_pick];
        let ts: Vec<f64> = (0..n).map(|i| t0 + i as f64 * dt).collect();
        same_bytes_as_reference(&ts, &rail_series(base, 0.05, seed, n))?;
    }

    /// ... and at every delta-of-delta bucket edge, with repeats, full
    /// 32-bit-wide and narrow XOR windows, from any first point.
    #[test]
    fn encoder_matches_reference_on_bucket_edges(
        draws in proptest::collection::vec(any::<u64>(), 0..400),
        t0 in any::<u64>(),
        v0 in any::<u32>(),
    ) {
        let zs: Vec<u64> = draws.iter().map(|&r| dod_code(r.rotate_left(17))).collect();
        let ts = timestamps_with_dods(t0, &zs);
        same_bytes_as_reference(&ts, &values_with_xors(v0, &draws))?;
    }
}

proptest! {
    /// Bit-exact identity on arbitrary value bit patterns over a
    /// realistic frame timeline.
    #[test]
    fn codec_roundtrips_arbitrary_bit_patterns(
        seed in any::<u64>(),
        n in 1usize..300,
        t0 in 0.0f64..1e6,
    ) {
        let vs = bit_pattern_series(seed, n);
        let ts: Vec<f64> = (0..n).map(|i| t0 + i as f64 * 2e-5).collect();
        let mut bytes = Vec::new();
        encode_block(&ts, &vs, &mut bytes);
        let (mut dts, mut dvs) = (Vec::new(), Vec::new());
        let got = decode_block_into(&bytes, &mut dts, &mut dvs).unwrap();
        prop_assert_eq!(got, n);
        for i in 0..n {
            prop_assert_eq!(dts[i].to_bits(), ts[i].to_bits(), "ts[{}]", i);
            prop_assert_eq!(dvs[i].to_bits(), vs[i].to_bits(), "vs[{}]", i);
        }
    }

    /// Bit-exact identity with arbitrary (possibly non-monotonic,
    /// sign-crossing) timestamps — the timestamp raw-escape path.
    #[test]
    fn codec_roundtrips_arbitrary_timestamps(
        seed in any::<u64>(),
        n in 1usize..200,
    ) {
        let mut state = seed | 3;
        let ts: Vec<f64> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64 - 0.5) * 2e9
            })
            .collect();
        let vs = bit_pattern_series(seed ^ 0xABCD, n);
        let mut bytes = Vec::new();
        encode_block(&ts, &vs, &mut bytes);
        let (mut dts, mut dvs) = (Vec::new(), Vec::new());
        let got = decode_block_into(&bytes, &mut dts, &mut dvs).unwrap();
        prop_assert_eq!(got, n);
        for i in 0..n {
            prop_assert_eq!(dts[i].to_bits(), ts[i].to_bits());
            prop_assert_eq!(dvs[i].to_bits(), vs[i].to_bits());
        }
    }

    /// Any strict prefix of an encoded block fails to decode — the
    /// reader never fabricates points from missing bits.
    #[test]
    fn truncated_blocks_are_an_error(
        seed in any::<u64>(),
        base in 1.0f64..4000.0,
        cut_frac in 0.0f64..1.0,
    ) {
        let vs = rail_series(base, 0.05, seed, 64);
        let ts: Vec<f64> = (0..vs.len()).map(|i| 10.0 + i as f64 * 2e-5).collect();
        let mut bytes = Vec::new();
        encode_block(&ts, &vs, &mut bytes);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let (mut dts, mut dvs) = (Vec::new(), Vec::new());
        prop_assert!(
            decode_block_into(&bytes[..cut], &mut dts, &mut dvs).is_err(),
            "decoding {} of {} bytes must fail",
            cut,
            bytes.len()
        );
    }

    /// Arbitrary bytes — behind a small point count, or raw — decode to
    /// an error or to exactly the declared points, and never panic (a
    /// value window header claiming more than 32 bits is an error).
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        n in 1u16..64,
        body in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let mut bytes = n.to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        for input in [&bytes[..], &body[..]] {
            let (mut dts, mut dvs) = (Vec::new(), Vec::new());
            if let Ok(got) = decode_block_into(input, &mut dts, &mut dvs) {
                prop_assert_eq!(got, u16::from_le_bytes([input[0], input[1]]) as usize);
                prop_assert_eq!((dts.len(), dvs.len()), (got, got));
            }
        }
    }

    /// Differential scan: a tiered store (tiny hot tier, everything
    /// else sealed into compressed blocks) answers random range
    /// queries bit-identically to an untiered store holding the same
    /// points entirely in its hot ring — points, means and energy.
    #[test]
    fn compressed_scan_matches_hot_ring_on_random_windows(
        seed in any::<u64>(),
        base in 1.0f64..4000.0,
        ripple in 0.0f64..0.1,
        wseed in any::<u64>(),
    ) {
        let n = 2000usize;
        let vs = rail_series(base, ripple, seed, n);
        let t0 = 10.0;
        let dt = 2e-5;
        let span = n as f64 * dt;
        let mut hot = TsDb::with_capacity(4 * n);
        let mut tiered = TsDb::with_config(TsDbConfig {
            raw_capacity: 4 * n,
            tiering: Some(TieringConfig {
                seal_block: 100,
                hot_retain: Some(50),
                ..TieringConfig::default()
            }),
            ..TsDbConfig::default()
        })
        .unwrap();
        let hid = hot.resolve("rail");
        let tid = tiered.resolve("rail");
        // Frame-at-a-time appends with periodic compaction, like the
        // ingest path drives it.
        for (f, chunk) in vs.chunks(100).enumerate() {
            let ft0 = t0 + (f * 100) as f64 * dt;
            hot.append_frame_id(hid, ft0, dt, chunk);
            tiered.append_frame_id(tid, ft0, dt, chunk);
            tiered.compact();
        }
        let st = tiered.tier_stats();
        prop_assert!(st.compressed_points > 0, "most points must be sealed: {:?}", st);
        let mut wstate = wseed | 1;
        let mut unit = move || {
            wstate ^= wstate << 13;
            wstate ^= wstate >> 7;
            wstate ^= wstate << 17;
            wstate as f64 / u64::MAX as f64
        };
        for _ in 0..6 {
            let (a, b) = (unit(), unit());
            let (w0, w1) = (t0 + a.min(b) * span, t0 + a.max(b) * span);
            let ph = hot.query_id(hid, Resolution::Raw, w0, w1);
            let pt = tiered.query_id(tid, Resolution::Raw, w0, w1);
            prop_assert_eq!(ph.len(), pt.len(), "window [{}, {})", w0, w1);
            for (x, y) in ph.iter().zip(&pt) {
                prop_assert_eq!(x.t.to_bits(), y.t.to_bits());
                prop_assert_eq!(x.v.to_bits(), y.v.to_bits());
            }
            let mh = hot.mean_id(hid, Resolution::Raw, w0, w1);
            let mt = tiered.mean_id(tid, Resolution::Raw, w0, w1);
            prop_assert_eq!(mh.map(f64::to_bits), mt.map(f64::to_bits));
            let eh = hot.energy_j_id(hid, w0, w1);
            let et = tiered.energy_j_id(tid, w0, w1);
            prop_assert_eq!(eh.to_bits(), et.to_bits());
        }
    }
}

/// Value sets for the exact-sum certificate: ADC-quantised rails (the
/// blocks it certifies), arbitrary `f32` bit patterns (NaN, ±inf,
/// subnormals), 3e38 beside 1e-30, 1e8 beside 1 + ε, and ±0.0 with a
/// few small values.
fn certificate_values(kind: u8, seed: u64, n: usize) -> Vec<f32> {
    const LSB_W: f64 = 4000.0 / 4095.0;
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| {
            let r = next();
            let sign = if r >> 63 == 0 { 1.0 } else { -1.0 };
            match kind {
                0 => {
                    // 16 ADC codes of a rail with a slow swing, averaged.
                    let w = 1700.0 + 300.0 * (i as f64 * 0.01).sin();
                    let codes: f64 = (0..16)
                        .map(|_| ((w + (next() % 64) as f64 - 32.0) / LSB_W).round())
                        .sum();
                    (codes * LSB_W / 16.0) as f32
                }
                1 => f32::from_bits(r as u32),
                2 => sign * [3e38, 1e-30][(r & 1) as usize],
                3 => sign * [1e8, 1.0 + f32::EPSILON][(r & 1) as usize],
                _ => sign * [0.0, 0.0, 0.0, 2.25][(r & 3) as usize],
            }
        })
        .collect()
}

proptest! {
    /// A raw mean adds whole in-memory blocks from their exact-sum
    /// certificates when it can, and must still give the bits of the
    /// plain in-order fold over the same points — the fold behind a
    /// raw range query — with identical coverage, for any seal size,
    /// hot tail and window edges.
    #[test]
    fn raw_mean_matches_the_in_order_fold(
        kind in 0u8..5,
        seed in any::<u64>(),
        seal_block in 1usize..160,
        hot_retain in 1usize..160,
        n in 1usize..4000,
        wseed in any::<u64>(),
    ) {
        let mut db = TsDb::with_config(TsDbConfig {
            raw_capacity: 4096,
            tiering: Some(TieringConfig {
                seal_block,
                hot_retain: Some(hot_retain),
                ..TieringConfig::default()
            }),
            ..TsDbConfig::default()
        })
        .unwrap();
        let id = db.resolve("rail");
        let vs = certificate_values(kind, seed, n);
        let (t0, dt) = (10.0, 0.01);
        for (f, chunk) in vs.chunks(97).enumerate() {
            db.append_frame_id(id, t0 + (f * 97) as f64 * dt, dt, chunk);
            db.compact();
        }
        let span = n as f64 * dt;
        let mut wstate = wseed | 1;
        let mut unit = move || {
            wstate ^= wstate << 13;
            wstate ^= wstate >> 7;
            wstate ^= wstate << 17;
            wstate as f64 / u64::MAX as f64
        };
        let mut windows = vec![(0.0, 1e18)];
        for _ in 0..39 {
            let (a, b) = (unit(), unit());
            let edge = |u: f64| t0 - 0.05 * span + u * 1.1 * span;
            windows.push((edge(a.min(b)), edge(a.max(b))));
        }
        for (w0, w1) in windows {
            let rq = db.query_range_id(id, Resolution::Raw, w0, w1);
            let sum = rq.points.iter().fold(0.0, |acc, p| acc + p.v);
            let want = (!rq.points.is_empty()).then(|| sum / rq.points.len() as f64);
            let (got, coverage) = db.mean_id_with_coverage(id, Resolution::Raw, w0, w1);
            prop_assert_eq!(coverage, rq.coverage, "window [{}, {})", w0, w1);
            match (want, got) {
                (Some(w), Some(g)) if w.is_nan() => {
                    prop_assert!(g.is_nan(), "window [{}, {}): {} vs NaN", w0, w1, g)
                }
                _ => prop_assert_eq!(
                    want.map(f64::to_bits),
                    got.map(f64::to_bits),
                    "window [{}, {}): {:?} vs {:?}",
                    w0,
                    w1,
                    want,
                    got
                ),
            }
        }
    }
}

/// Check a rollup answer over `[w0, w1)` against the store's raw
/// points: it reports exactly the history's buckets whose centre lies
/// in the window, each as the mean of the points a Raw query over the
/// reported buckets' span puts in it, with that query's coverage; the
/// rollup mean is the mean of those bucket means.
fn rollup_matches_raw(
    db: &TsDb,
    id: SeriesId,
    res: Resolution,
    (w0, w1): (f64, f64),
    history: &[Point],
) -> Result<(RangeQuery, Option<f64>), TestCaseError> {
    let width = if res == Resolution::Second { 1.0 } else { 60.0 };
    let bucket = |t: f64| (t / width).floor() as i64;
    let rq = db.query_range_id(id, res, w0, w1);
    let mean = db.mean_id(id, res, w0, w1);
    let mut want: Vec<i64> = history
        .iter()
        .map(|p| bucket(p.t))
        .filter(|&k| (w0..w1).contains(&((k as f64 + 0.5) * width)))
        .collect();
    want.dedup();
    let got: Vec<i64> = rq
        .points
        .iter()
        .map(|p| (p.t / width - 0.5).round() as i64)
        .collect();
    prop_assert_eq!(&got, &want, "{:?} [{}, {})", res, w0, w1);
    let (Some(&lo), Some(&hi)) = (got.first(), got.last()) else {
        prop_assert_eq!(rq.coverage.total(), 0);
        prop_assert_eq!(mean, None);
        return Ok((rq, mean));
    };
    let raw = db.query_range_id(
        id,
        Resolution::Raw,
        lo as f64 * width,
        (hi as f64 + 1.0) * width,
    );
    let mut sums: Vec<(i64, f64, u64)> = Vec::new();
    for p in &raw.points {
        let k = bucket(p.t).clamp(lo, hi);
        match sums.last_mut() {
            Some((j, sum, n)) if *j == k => {
                *sum += p.v;
                *n += 1;
            }
            _ => sums.push((k, p.v, 1)),
        }
    }
    prop_assert_eq!(sums.len(), rq.points.len());
    for (&(k, sum, n), p) in sums.iter().zip(&rq.points) {
        prop_assert_eq!(p.t.to_bits(), ((k as f64 + 0.5) * width).to_bits());
        prop_assert_eq!(p.v.to_bits(), (sum / n as f64).to_bits());
    }
    prop_assert_eq!(rq.coverage, raw.coverage);
    let bucket_means = rq.points.iter().map(|p| p.v).sum::<f64>() / rq.points.len() as f64;
    prop_assert!((mean.unwrap() - bucket_means).abs() <= 1e-9 * bucket_means.abs());
    Ok((rq, mean))
}

proptest! {
    /// Rollups read every tier: with history spread over disk
    /// segments, compressed blocks and the hot ring, `Second` and
    /// `Minute` answers over windows whose edges fall mid-bucket are
    /// the bucket means of the raw points, count those points per tier,
    /// and do not change when a compaction moves points between tiers.
    #[test]
    fn rollups_fold_raw_points_across_tiers(
        seed in any::<u64>(),
        base in 1.0f64..4000.0,
        wseed in any::<u64>(),
    ) {
        let dir = test_dir("rollups");
        let mut db = TsDb::with_config(TsDbConfig {
            raw_capacity: 8192,
            tiering: Some(TieringConfig {
                seal_block: 100,
                hot_retain: Some(150),
                mem_budget_bytes: 2048,
                disk: Some(DiskTierConfig::new(&dir)),
            }),
            ..TsDbConfig::default()
        })
        .unwrap();
        let id = db.resolve("rail");
        let (t0, dt, frame) = (10.0, 0.0313, 100);
        let vs = rail_series(base, 0.05, seed, 60 * frame);
        for (f, chunk) in vs.chunks(frame).enumerate() {
            db.append_frame_id(id, t0 + (f * frame) as f64 * dt, dt, chunk);
            // The last frames stay hot until the compaction below.
            if f % 6 == 5 && f < 50 {
                db.compact();
            }
        }
        let st = db.tier_stats();
        prop_assert!(
            st.disk_points > 0 && st.compressed_points > 0 && st.hot_points > 0,
            "{:?}",
            st
        );
        let history = db.query_id(id, Resolution::Raw, f64::MIN, f64::MAX);
        prop_assert_eq!(history.len(), vs.len());
        let span = vs.len() as f64 * dt;
        let mut wstate = wseed | 1;
        let mut unit = move || {
            wstate ^= wstate << 13;
            wstate ^= wstate >> 7;
            wstate ^= wstate << 17;
            wstate as f64 / u64::MAX as f64
        };
        let mut windows = vec![(t0 + 37.3, t0 + 145.7), (t0 - 90.0, t0 + span + 90.0)];
        for _ in 0..3 {
            let (a, b) = (unit(), unit());
            windows.push((t0 - 30.0 + a.min(b) * (span + 60.0), t0 - 30.0 + a.max(b) * (span + 60.0)));
        }
        let mut before = Vec::new();
        for &w in &windows {
            for res in [Resolution::Second, Resolution::Minute] {
                before.push(rollup_matches_raw(&db, id, res, w, &history)?);
            }
        }
        prop_assert!(db.compact());
        prop_assert!(db.tier_stats().sealed_points > st.sealed_points);
        let mut after = Vec::new();
        for &w in &windows {
            for res in [Resolution::Second, Resolution::Minute] {
                after.push(rollup_matches_raw(&db, id, res, w, &history)?);
            }
        }
        for ((b, bm), (a, am)) in before.iter().zip(&after) {
            prop_assert_eq!(&b.points, &a.points);
            prop_assert_eq!(b.coverage.total(), a.coverage.total());
            prop_assert_eq!(bm.map(f64::to_bits), am.map(f64::to_bits));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn disk_tier_recovers_after_restart() {
    let dir = test_dir("recovery");
    let cfg = TsDbConfig {
        raw_capacity: 1000,
        tiering: Some(TieringConfig {
            seal_block: 64,
            hot_retain: Some(64),
            // Tiny memory budget: sealed blocks demote to disk almost
            // immediately.
            mem_budget_bytes: 256,
            disk: Some(DiskTierConfig::new(&dir)),
        }),
        ..TsDbConfig::default()
    };
    let n = 2000usize;
    let dt = 2e-5;
    let expect: Vec<f32> = (0..n).map(|i| 300.0 + (i as f32 * 0.01).sin()).collect();
    {
        let mut db = TsDb::with_config(cfg.clone()).unwrap();
        let id = db.resolve("node07/power/node");
        for (f, chunk) in expect.chunks(100).enumerate() {
            db.append_frame_id(id, 10.0 + (f * 100) as f64 * dt, dt, chunk);
            db.compact();
        }
        let st = db.tier_stats();
        assert!(st.disk_points > 0, "blocks must have demoted: {st:?}");
        assert_eq!(st.evicted_points, 0);
        // db dropped here: "crash" (segment files are already fsynced
        // and atomically renamed; nothing needs a clean shutdown).
    }
    let db = TsDb::with_config(cfg).unwrap();
    let id = db.lookup("node07/power/node").expect("series re-interned");
    let rq = db.query_range_id(id, Resolution::Raw, 0.0, 1e18);
    assert!(
        rq.coverage.disk > 0,
        "history served from disk: {:?}",
        rq.coverage
    );
    // Recovery loses only what was still hot/in-memory at the crash;
    // everything demoted to disk survives, in order, bit for bit.
    let got = rq.points;
    assert!(!got.is_empty());
    assert!(got.len() <= n);
    for w in got.windows(2) {
        assert!(w[0].t < w[1].t, "chronological scan");
    }
    // Match each recovered point against the original series by index.
    let base_idx = ((got[0].t - 10.0) / dt).round() as usize;
    for (k, p) in got.iter().enumerate() {
        let i = base_idx + k;
        assert_eq!(
            (p.v as f32).to_bits(),
            expect[i].to_bits(),
            "point {i} survives bit-exact"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_coverage_reports_tier_provenance_and_eviction() {
    // No disk tier + tiny memory budget: demotion must *evict* (with
    // accounting), and windows reaching the lost history must say so.
    let mut db = TsDb::with_config(TsDbConfig {
        raw_capacity: 1000,
        tiering: Some(TieringConfig {
            seal_block: 64,
            hot_retain: Some(64),
            mem_budget_bytes: 700,
            disk: None,
        }),
        ..TsDbConfig::default()
    })
    .unwrap();
    let id = db.resolve("rail");
    let dt = 2e-5;
    for f in 0..40 {
        let vs: Vec<f32> = (0..100)
            .map(|i| 300.0 + ((f * 100 + i) as f32 * 0.01).sin())
            .collect();
        db.append_frame_id(id, 10.0 + (f * 100) as f64 * dt, dt, &vs);
        db.compact();
    }
    let st = db.tier_stats();
    assert!(st.evicted_points > 0, "budget pressure must evict: {st:?}");
    assert!(st.compressed_points > 0);

    // A window over everything: truncated, and served from both tiers.
    let rq = db.query_range_id(id, Resolution::Raw, 0.0, 1e18);
    assert!(rq.coverage.evicted, "full-history window is truncated");
    assert!(rq.coverage.hot > 0 && rq.coverage.compressed > 0);
    assert_eq!(rq.coverage.total(), rq.points.len());

    // A window entirely inside retained history: complete.
    let tail_t0 = rq.points[rq.points.len() - 50].t;
    let rq2 = db.query_range_id(id, Resolution::Raw, tail_t0, 1e18);
    assert!(rq2.coverage.is_complete(), "{:?}", rq2.coverage);
    assert_eq!(rq2.points.len(), 50);
}

#[test]
fn unreadable_disk_blocks_are_counted_and_flag_the_answer() {
    let dir = test_dir("torn");
    let mut db = TsDb::with_config(TsDbConfig {
        raw_capacity: 1000,
        tiering: Some(TieringConfig {
            seal_block: 64,
            hot_retain: Some(64),
            mem_budget_bytes: 256,
            disk: Some(DiskTierConfig::new(&dir)),
        }),
        ..TsDbConfig::default()
    })
    .unwrap();
    let id = db.resolve("rail");
    let dt = 2e-5;
    for f in 0..20 {
        let vs: Vec<f32> = (0..100)
            .map(|i| 300.0 + ((f * 100 + i) as f32 * 0.01).sin())
            .collect();
        db.append_frame_id(id, 10.0 + (f * 100) as f64 * dt, dt, &vs);
        db.compact();
    }
    let st = db.tier_stats();
    assert!(st.disk_points > 0, "blocks must have demoted: {st:?}");
    let intact = db.query_range_id(id, Resolution::Raw, 0.0, 1e18).coverage;
    assert!(intact.is_complete() && intact.disk > 0, "{intact:?}");
    assert_eq!(db.tier_stats().io_errors, 0);

    // Tear every segment file in half behind the tier's back.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "bin") {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            let len = f.metadata().unwrap().len();
            f.set_len(len / 2).unwrap();
        }
    }
    let (mean, coverage) = db.mean_id_with_coverage(id, Resolution::Raw, 0.0, 1e18);
    assert!(mean.is_some());
    assert!(!coverage.is_complete(), "{coverage:?}");
    assert!(coverage.total() < intact.total(), "{coverage:?}");
    assert!(db.tier_stats().io_errors >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_segment_is_skipped_counted_and_flags_every_answer() {
    let dir = test_dir("torn-offsets");
    let cfg = TsDbConfig {
        raw_capacity: 1000,
        tiering: Some(TieringConfig {
            seal_block: 16,
            hot_retain: Some(16),
            mem_budget_bytes: 64,
            disk: Some(DiskTierConfig::new(&dir)),
        }),
        ..TsDbConfig::default()
    };
    {
        let mut db = TsDb::with_config(cfg.clone()).unwrap();
        let id = db.resolve("rail");
        let dt = 2e-5;
        for f in 0..8 {
            let vs: Vec<f32> = (0..32)
                .map(|i| 300.0 + ((f * 32 + i) as f32 * 0.01).sin())
                .collect();
            db.append_frame_id(id, 10.0 + (f * 32) as f64 * dt, dt, &vs);
            db.compact();
        }
    }
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    segments.sort();
    assert!(segments.len() >= 4, "{} segments", segments.len());

    // Every answer of one reopen: (tier stats, full-history raw query,
    // coverage of a series the store never held).
    let reopen = || {
        let db = TsDb::with_config(cfg.clone()).unwrap();
        let rq = db.series_range("rail", Resolution::Raw, 0.0, 1e18);
        let (_, unknown) = db.series_mean("never-written", Resolution::Raw, 0.0, 1e18);
        (db.tier_stats(), rq, unknown)
    };
    let (intact, full, unknown) = reopen();
    assert_eq!(intact.disk_segments, segments.len() as u64);
    assert_eq!(intact.io_errors, 0);
    assert!(full.coverage.is_complete(), "{:?}", full.coverage);
    assert!(unknown.is_complete());
    assert_eq!(full.points.len() as u64, intact.disk_points);

    for seg in &segments {
        let image = std::fs::read(seg).unwrap();
        // Two kinds of damage, one per reopen: the file cut at every
        // offset, and the low bit of every byte flipped in place.
        let cuts = (0..image.len()).map(|cut| (format!("cut at {cut}"), image[..cut].to_vec()));
        let flips = (0..image.len()).map(|i| {
            let mut bad = image.clone();
            bad[i] ^= 1;
            (format!("low bit of byte {i} flipped"), bad)
        });
        let mut lost = None;
        for (damage, bad) in cuts.chain(flips) {
            std::fs::write(seg, &bad).unwrap();
            let (st, rq, unknown) = reopen();
            let at = format!("{} {damage} of {}", seg.display(), image.len());
            assert_eq!(st.disk_segments, intact.disk_segments - 1, "{at}");
            assert_eq!(st.io_errors, 1, "{at}");
            assert_eq!(st.evicted_points, 0, "{at}");
            assert!(rq.coverage.evicted, "{at}");
            assert!(unknown.evicted, "{at}");
            // The damaged segment goes whole, whatever the damage: no
            // partial salvage, and every other segment is recovered.
            let lost_now = intact.disk_points - st.disk_points;
            assert!(lost_now > 0, "{at}");
            assert_eq!(*lost.get_or_insert(lost_now), lost_now, "{at}");
            assert_eq!(rq.points.len() as u64, st.disk_points, "{at}");
            assert!(
                rq.points.iter().all(|p| full
                    .points
                    .binary_search_by(|q| q.t.total_cmp(&p.t))
                    .is_ok_and(|i| full.points[i] == *p)),
                "{at}: only recovered history is served"
            );
        }
        std::fs::write(seg, &image).unwrap();
    }
    let (restored, full_again, unknown) = reopen();
    assert_eq!(restored.io_errors, 0);
    assert!(full_again.coverage.is_complete() && unknown.is_complete());
    assert_eq!(full_again.points, full.points);
    let _ = std::fs::remove_dir_all(&dir);
}
