//! Criterion benches for the monitoring chain (experiments E3–E5,
//! E25): sensor front-end, ADC digitisation, decimation variants,
//! full-chain acquisition and energy integration, and the full-rate
//! acquisition path (scalar reference vs blocked kernels).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use davide_core::power::PowerTrace;
use davide_core::rng::Rng;
use davide_core::time::SimTime;
use davide_telemetry::acquisition::{AcquisitionConfig, AcquisitionRig, DspMode};
use davide_telemetry::adc::SarAdc;
use davide_telemetry::decimation::{
    boxcar_decimate, design_lowpass_fir, fir_decimate, pick_decimate,
};
use davide_telemetry::gateway::SampleFrame;
use davide_telemetry::kernels::{boxcar_block, AdcKernel};
use davide_telemetry::monitor::MonitorChain;
use davide_telemetry::sensors::PowerSensor;
use davide_telemetry::{EnergyIntegrator, WorkloadWaveform};
use std::hint::black_box;

fn one_second_truth(seed: u64) -> davide_core::power::PowerTrace {
    let mut rng = Rng::seed_from(seed);
    WorkloadWaveform::hpc_job(1700.0, 0.5).render(800_000.0, 1.0, &mut rng)
}

fn bench_decimation(c: &mut Criterion) {
    let truth = one_second_truth(1);
    let mut g = c.benchmark_group("e4_decimation");
    g.throughput(Throughput::Elements(truth.len() as u64));
    g.bench_function("boxcar_16x", |b| {
        b.iter(|| boxcar_decimate(black_box(&truth), 16));
    });
    g.bench_function("pick_16x", |b| {
        b.iter(|| pick_decimate(black_box(&truth), 16));
    });
    let h = design_lowpass_fir(127, 0.03);
    g.bench_function("fir127_16x", |b| {
        b.iter(|| fir_decimate(black_box(&truth), &h, 16));
    });
    g.finish();
}

fn bench_sensor_adc(c: &mut Criterion) {
    let truth = one_second_truth(2);
    let mut g = c.benchmark_group("e3_frontend");
    g.sample_size(20);
    g.throughput(Throughput::Elements(truth.len() as u64));
    g.bench_function("sensor_acquire_800k", |b| {
        let mut rng = Rng::seed_from(3);
        let sensor = PowerSensor::davide_shunt(&mut rng);
        b.iter(|| sensor.acquire(black_box(&truth), &mut rng));
    });
    g.bench_function("adc_digitise_800k", |b| {
        let adc = SarAdc::am335x_power_channel();
        b.iter(|| adc.digitise(black_box(&truth)));
    });
    type ChainBuilder = fn(&mut Rng) -> MonitorChain;
    let chains: [(&str, ChainBuilder); 2] = [
        ("chain_eg", MonitorChain::davide_eg),
        ("chain_ipmi", MonitorChain::ipmi),
    ];
    for (name, build) in chains {
        g.bench_function(name, |b| {
            let mut rng = Rng::seed_from(4);
            let chain = build(&mut rng);
            b.iter(|| chain.acquire(black_box(&truth), &mut rng));
        });
    }
    g.finish();
}

fn bench_integration(c: &mut Criterion) {
    let mut g = c.benchmark_group("e12_integration");
    let frame = SampleFrame {
        t0_s: 0.0,
        dt_s: 2e-5,
        watts: vec![1700.0; 500],
    };
    let frames: Vec<SampleFrame> = (0..100)
        .map(|i| SampleFrame {
            t0_s: i as f64 * 0.01,
            ..frame.clone()
        })
        .collect();
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("integrate_1s_of_50ksps", |b| {
        b.iter(|| {
            let mut acc = EnergyIntegrator::new();
            for f in &frames {
                acc.push(black_box(f));
            }
            acc.energy()
        });
    });
    g.bench_function("frame_encode_decode", |b| {
        b.iter(|| {
            let bytes = black_box(&frame).encode();
            SampleFrame::decode(bytes).unwrap()
        });
    });
    g.finish();
}

/// The E25 DSP hot loop at frame granularity — the seed per-sample
/// `f64` path vs the blocked `f32` kernels. Same block size the
/// acquisition driver uses (8000 raw samples → one 500-sample frame).
fn bench_acquisition_kernels(c: &mut Criterion) {
    const BLOCK: usize = 8_000;
    let adc = SarAdc::am335x_power_channel();
    let kernel = AdcKernel::new(&adc);
    let mut rng = Rng::seed_from(8);
    let raw_f64: Vec<f64> = (0..BLOCK).map(|_| rng.uniform_in(1500.0, 1900.0)).collect();
    let raw_f32: Vec<f32> = raw_f64.iter().map(|&v| v as f32).collect();
    let trace = PowerTrace::new(SimTime::ZERO, 1.25e-6, raw_f64);

    let mut g = c.benchmark_group("e25_kernels");
    g.throughput(Throughput::Elements(BLOCK as u64));
    g.bench_function("digitise_decimate_scalar_f64", |b| {
        b.iter(|| {
            let dig = adc.digitise(black_box(&trace));
            boxcar_decimate(&dig, 16)
        });
    });
    let (mut dig, mut dec) = (Vec::with_capacity(BLOCK), Vec::with_capacity(BLOCK / 16));
    g.bench_function("digitise_decimate_blocked_f32", |b| {
        b.iter(|| {
            kernel.digitise_block(black_box(&raw_f32), &mut dig);
            boxcar_block(&dig, 16, &mut dec);
            black_box(dec.last().copied())
        });
    });
    g.finish();
}

/// The whole acquisition pipeline — synth → digitise → decimate →
/// MQTT publish → ingest → sharded TsDb — scalar reference vs blocked
/// kernels, at a 2-gateway scale that keeps criterion iterations
/// sub-second. Each iteration builds a fresh rig (template rendering,
/// broker setup); that fixed cost is identical for both variants, so
/// the measured scalar/blocked gap understates the kernel speedup —
/// E25 reports the isolated per-stage numbers.
fn bench_acquisition_pipeline(c: &mut Criterion) {
    let cfg = AcquisitionConfig {
        nodes: 2,
        duration_s: 0.05,
        ..AcquisitionConfig::full_rate()
    };
    let mut g = c.benchmark_group("e25_pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cfg.raw_samples()));
    for (name, mode) in [
        ("end_to_end_scalar", DspMode::Scalar),
        ("end_to_end_blocked", DspMode::Blocked),
    ] {
        let cfg = cfg.clone();
        g.bench_function(name, |b| {
            b.iter(|| AcquisitionRig::new(black_box(cfg.clone()), mode).run());
        });
    }
    g.finish();
}

criterion_group!(
    telemetry,
    bench_decimation,
    bench_sensor_adc,
    bench_integration,
    bench_acquisition_kernels,
    bench_acquisition_pipeline
);
criterion_main!(telemetry);
