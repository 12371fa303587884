//! E26 micro-benchmarks: the Gorilla-style block codec (encode and
//! decode over idle, tone and noisy-tone E25-shaped corpora), the
//! tiered full-history range scan the ≥100 M samples/s gate runs on,
//! and the full-history raw mean, which adds whole blocks from their
//! exact-sum certificates instead of decoding them.
//! Run the assertions without timing via
//! `cargo bench --bench storage -- --test` (the CI smoke mode).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use davide_telemetry::storage::{decode_block_into, encode_block};
use davide_telemetry::tsdb::{Resolution, TsDb};
use davide_telemetry::{TieringConfig, TsDbConfig};

const DT: f64 = 2e-5;

/// The AM335x power-channel LSB after calibration to 0–4000 W.
const LSB_W: f64 = 4000.0 / 4095.0;

/// Value-corpus shapes the codec sees from the E25 pipeline, in rising
/// entropy order: a flat idle rail, a clean 50 Hz tone, and the tone
/// plus gateway noise (the worst case the scan gate is calibrated on).
#[derive(Clone, Copy)]
enum Shape {
    Idle,
    Tone,
    Noisy,
}

/// One decimated corpus: 16 ADC-quantised codes per stored sample,
/// hardware-averaged — the exact arithmetic of the E25 frame pipeline.
fn corpus(shape: Shape, n: usize) -> Vec<f32> {
    let mut state = 0x00DA_71DEu64;
    (0..n)
        .map(|i| {
            let mut acc = 0.0;
            for r in 0..16 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let t = (i * 16 + r) as f64 / 800_000.0;
                let tone = 85.0 * (2.0 * std::f64::consts::PI * 50.0 * t).sin();
                let w = match shape {
                    Shape::Idle => 1700.0,
                    Shape::Tone => 1700.0 + tone,
                    Shape::Noisy => {
                        let noise = (state as f64 / u64::MAX as f64 - 0.5) * 34.0;
                        1700.0 + tone + noise
                    }
                };
                acc += (w / LSB_W).round().clamp(0.0, 4095.0) * LSB_W;
            }
            (acc / 16.0) as f32
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("e26_compress");
    let n = 1024usize; // one full sealed block
    g.throughput(Throughput::Elements(n as u64));
    for (name, shape) in [
        ("idle", Shape::Idle),
        ("tone", Shape::Tone),
        ("noisy", Shape::Noisy),
    ] {
        let vs = corpus(shape, n);
        let ts: Vec<f64> = (0..n).map(|i| 10.0 + i as f64 * DT).collect();
        let mut bytes = Vec::new();
        encode_block(&ts, &vs, &mut bytes);
        println!(
            "{name}: {} pts → {} B ({:.1}× vs 12 B/pt)",
            n,
            bytes.len(),
            (n * 12) as f64 / bytes.len() as f64
        );
        g.bench_function(&format!("encode_block_1024_{name}"), |b| {
            let mut out = Vec::with_capacity(bytes.len() * 2);
            b.iter(|| {
                out.clear();
                encode_block(black_box(&ts), black_box(&vs), &mut out);
                out.len()
            })
        });
        g.bench_function(&format!("decode_block_1024_{name}"), |b| {
            let (mut dts, mut dvs) = (Vec::new(), Vec::new());
            b.iter(|| decode_block_into(black_box(&bytes), &mut dts, &mut dvs).unwrap())
        });
    }
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("e26_scan");
    let n = 500_000usize;
    let frame_len = 500usize;
    let vs = corpus(Shape::Noisy, n);
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
    for (f, chunk) in vs.chunks(frame_len).enumerate() {
        db.append_frame_id(id, 10.0 + (f * frame_len) as f64 * DT, DT, chunk);
        db.compact();
    }
    let st = db.tier_stats();
    println!(
        "scan corpus: {} pts in {} compressed blocks ({:.1}× ratio) + {} hot",
        n,
        st.compressed_blocks,
        st.compression_ratio(),
        st.hot_points
    );

    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(20);
    let fold = |db: &TsDb| {
        db.scan_id(id, black_box(0.0), black_box(1e18))
            .fold_points((0u64, 0.0f64), |(cnt, sum), _t, v| (cnt + 1, sum + v))
    };
    g.bench_function("tiered_full_history_fold_500k", |b| {
        b.iter(|| {
            let (cnt, sum) = fold(&db);
            assert_eq!(cnt as usize, n);
            sum
        })
    });
    // The same points through the raw mean: whole blocks add their
    // certified sums, and the answer keeps the fold's bits.
    let (cnt, sum) = fold(&db);
    let want = sum / cnt as f64;
    g.bench_function("tiered_full_history_mean_500k", |b| {
        b.iter(|| {
            let mean = db
                .mean_id(id, Resolution::Raw, black_box(0.0), black_box(1e18))
                .expect("the history is not empty");
            assert_eq!(mean.to_bits(), want.to_bits());
            mean
        })
    });
    // The common monitoring query: a window living entirely in the
    // hot ring (must stay decode-free and allocation-free).
    let t_end = 10.0 + n as f64 * DT;
    g.bench_function("tiered_hot_window_mean", |b| {
        b.iter(|| {
            db.mean_id(
                id,
                Resolution::Raw,
                black_box(t_end - 0.002),
                black_box(t_end),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_codec, bench_scan);
criterion_main!(benches);
