//! Criterion benches for the application proxy kernels (experiments
//! E14–E17): FFT, GEMM, stencil, SEM matvec, lattice CG.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use davide_apps::cg::{conjugate_gradient, LinearOp};
use davide_apps::fft::{fft3, fft_flops, fft_inplace, Field3};
use davide_apps::gemm::{gemm_flops, matmul_blocked, matmul_naive, Matrix};
use davide_apps::lattice::{EvenOddOp, Lattice4, LatticeOp};
use davide_apps::sem::SemMesh;
use davide_apps::stencil::{jacobi_sweep, sweep_flops, OceanGrid};
use davide_apps::C64;
use std::hint::black_box;

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_fft");
    for &n in &[1024usize, 4096, 16384] {
        g.throughput(Throughput::Elements(fft_flops(n) as u64));
        g.bench_with_input(BenchmarkId::new("fft1d", n), &n, |b, &n| {
            let data: Vec<C64> = (0..n)
                .map(|i| C64::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos()))
                .collect();
            b.iter(|| {
                let mut d = data.clone();
                fft_inplace(black_box(&mut d), false);
                d
            });
        });
    }
    for &n in &[16usize, 32] {
        g.bench_with_input(BenchmarkId::new("fft3d", n), &n, |b, &n| {
            let field = Field3::from_fn(n, |x, y, z| {
                C64::new((x + 2 * y) as f64 * 0.01, z as f64 * 0.02)
            });
            b.iter(|| {
                let mut f = field.clone();
                fft3(black_box(&mut f), false);
                f
            });
        });
    }
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_gemm");
    g.sample_size(20);
    for &n in &[128usize, 256] {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 97) as f64 * 0.01);
        let b_m = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 7) % 89) as f64 * 0.01);
        g.throughput(Throughput::Elements(gemm_flops(n, n, n) as u64));
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| matmul_naive(black_box(&a), black_box(&b_m)));
        });
        g.bench_with_input(BenchmarkId::new("blocked64_rayon", n), &n, |b, _| {
            b.iter(|| matmul_blocked(black_box(&a), black_box(&b_m), 64));
        });
    }
    g.finish();
}

fn bench_stencil(c: &mut Criterion) {
    let mut g = c.benchmark_group("e15_stencil");
    for &(nx, ny) in &[(256usize, 128usize), (1024, 512)] {
        let grid = OceanGrid::from_fn(nx, ny, |x, y| ((x * 7 + y * 3) % 13) as f64);
        g.throughput(Throughput::Elements(sweep_flops(nx, ny) as u64));
        g.bench_with_input(
            BenchmarkId::new("jacobi_sweep", format!("{nx}x{ny}")),
            &grid,
            |b, grid| {
                b.iter(|| jacobi_sweep(black_box(grid), 0.8));
            },
        );
    }
    g.finish();
}

fn bench_sem(c: &mut Criterion) {
    let mut g = c.benchmark_group("e16_sem");
    for &elems in &[256usize, 1024] {
        let mesh = SemMesh::new(elems, 4, 0.4);
        let x = vec![1.0; mesh.dofs()];
        let mut y = vec![0.0; mesh.dofs()];
        g.throughput(Throughput::Elements(mesh.matvec_flops() as u64));
        g.bench_with_input(BenchmarkId::new("matvec", elems), &elems, |b, _| {
            b.iter(|| {
                mesh.apply(black_box(&x), black_box(&mut y));
            });
        });
    }
    g.finish();
}

fn bench_lattice_cg(c: &mut Criterion) {
    let mut g = c.benchmark_group("e17_lattice");
    g.sample_size(10);
    let dims = [8usize, 8, 8, 8];
    let full = LatticeOp::new(Lattice4::new(dims), 0.25);
    let vol = full.lattice.volume();
    let rhs: Vec<f64> = (0..vol).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
    let x = vec![1.0; vol];
    let mut y = vec![0.0; vol];
    g.bench_function("matvec_full_8x8x8x8", |b| {
        b.iter(|| full.apply(black_box(&x), black_box(&mut y)));
    });
    g.bench_function("cg_full_8x8x8x8", |b| {
        b.iter(|| {
            let mut x0 = vec![0.0; vol];
            conjugate_gradient(&full, black_box(&rhs), &mut x0, 1e-8, 10_000)
        });
    });
    let eo = EvenOddOp::new(LatticeOp::new(Lattice4::new(dims), 0.25));
    let be = eo.reduce_rhs(&rhs);
    g.bench_function("cg_evenodd_8x8x8x8", |b| {
        b.iter(|| {
            let mut x0 = vec![0.0; vol / 2];
            conjugate_gradient(&eo, black_box(&be), &mut x0, 1e-8, 10_000)
        });
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_fft,
    bench_gemm,
    bench_stencil,
    bench_sem,
    bench_lattice_cg
);
criterion_main!(kernels);
