//! Criterion benches for power management (experiments E9–E11): the
//! capping controller, predictor training/inference and the scheduling
//! simulator itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use davide_core::budget::split_budget;
use davide_core::capping::PiCapController;
use davide_core::node::{ComputeNode, NodeLoad};
use davide_core::units::{Seconds, Watts};
use davide_predictor::{RandomForest, Regressor, RidgeRegression};
use davide_sched::{
    simulate, CapSchedule, EasyBackfill, Fcfs, PowerPredictor, SimConfig, WorkloadConfig,
    WorkloadGenerator,
};
use std::hint::black_box;

fn bench_capping(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_capping");
    g.bench_function("pi_controller_step", |b| {
        let mut node = ComputeNode::davide(0);
        let mut ctl = PiCapController::new(Watts(1500.0));
        b.iter(|| ctl.step(black_box(&mut node), NodeLoad::FULL, Seconds(0.1)));
    });
    g.bench_function("node_power_eval", |b| {
        let node = ComputeNode::davide(0);
        b.iter(|| node.power(black_box(NodeLoad::FULL)));
    });
    g.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_predictor");
    g.sample_size(20);
    let mut gen = WorkloadGenerator::new(WorkloadConfig::default(), 5);
    let history = gen.trace(1000);
    g.bench_function("ridge_train_1000", |b| {
        b.iter(|| PowerPredictor::train(RidgeRegression::new(1.0), black_box(&history), 24));
    });
    let predictor = PowerPredictor::train(RidgeRegression::new(1.0), &history, 24);
    let probe = history[0].clone();
    g.bench_function("ridge_predict", |b| {
        b.iter(|| predictor.predict(black_box(&probe)));
    });
    // Raw model cost without the encoding layer.
    g.bench_function("ridge_fit_raw_200x20", |b| {
        let x: Vec<f64> = (0..200 * 20)
            .map(|i| ((i * 31) % 101) as f64 * 0.01)
            .collect();
        let y: Vec<f64> = (0..200).map(|i| i as f64).collect();
        b.iter(|| {
            let mut m = RidgeRegression::new(1.0);
            m.fit(black_box(&x), 200, 20, black_box(&y));
            m
        });
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11_scheduler");
    g.sample_size(10);
    let mut gen = WorkloadGenerator::new(
        WorkloadConfig {
            mean_interarrival_s: 60.0,
            ..WorkloadConfig::default()
        },
        9,
    );
    let trace = gen.trace(300);
    g.bench_function("simulate_fcfs_300", |b| {
        b.iter(|| simulate(black_box(&trace), &mut Fcfs, SimConfig::davide()));
    });
    g.bench_function("simulate_easy_300", |b| {
        b.iter(|| {
            simulate(
                black_box(&trace),
                &mut EasyBackfill::new(),
                SimConfig::davide(),
            )
        });
    });
    for &cap in &[60_000.0f64, 80_000.0] {
        g.bench_with_input(
            BenchmarkId::new("simulate_poweraware_300", cap as u64 / 1000),
            &cap,
            |b, &cap| {
                b.iter(|| {
                    simulate(
                        black_box(&trace),
                        &mut EasyBackfill::power_aware(),
                        SimConfig::davide().with_cap_schedule(CapSchedule::constant(cap), true),
                    )
                });
            },
        );
    }
    g.finish();
}

fn bench_budget_and_forest(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_budget");
    let demands: Vec<Watts> = (0..45)
        .map(|i| Watts(400.0 + (i * 37 % 1600) as f64))
        .collect();
    g.bench_function("split_45_nodes_proportional", |b| {
        b.iter(|| split_budget(Watts(70_000.0), black_box(&demands), Watts(550.0)));
    });
    g.finish();

    let mut g = c.benchmark_group("e10_forest");
    g.sample_size(10);
    let mut gen = WorkloadGenerator::new(WorkloadConfig::default(), 5);
    let history = gen.trace(500);
    g.bench_function("forest_train_500", |b| {
        b.iter(|| PowerPredictor::train(RandomForest::new(10, 8, 5, 3), black_box(&history), 24));
    });
    g.finish();
}

criterion_group!(
    management,
    bench_capping,
    bench_predictor,
    bench_scheduler,
    bench_budget_and_forest
);
criterion_main!(management);
