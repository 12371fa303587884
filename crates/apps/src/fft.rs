//! Radix-2 FFT kernels — the dominant operation of Quantum ESPRESSO
//! (§IV-A: "one of the major performance impact factors is in the Fast
//! Fourier Transform").
//!
//! A cache-friendly iterative Cooley–Tukey 1-D transform plus a
//! slab-decomposed 3-D transform written against rayon's API (the
//! vendored shim runs it sequentially), mirroring how plane-wave codes
//! run batched FFTs per SCF iteration.

use crate::complex::C64;
use rayon::prelude::*;

/// In-place iterative radix-2 DIT FFT. `data.len()` must be a power of
/// two. `inverse` selects the inverse transform (normalised by 1/N).
pub fn fft_inplace(data: &mut [C64], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterfly passes.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = C64::cis(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = C64::ONE;
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }
}

/// Forward FFT of a real signal; returns the complex spectrum.
pub fn fft_real(signal: &[f64]) -> Vec<C64> {
    let mut data: Vec<C64> = signal.iter().map(|&x| C64::real(x)).collect();
    fft_inplace(&mut data, false);
    data
}

/// A dense 3-D complex field of shape `n × n × n`, stored x-fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    /// Edge length (power of two).
    pub n: usize,
    /// `n³` values, index `(x, y, z) → x + n(y + n z)`.
    pub data: Vec<C64>,
}

impl Field3 {
    /// Zero-filled field.
    pub fn zeros(n: usize) -> Self {
        assert!(n.is_power_of_two());
        Field3 {
            n,
            data: vec![C64::ZERO; n * n * n],
        }
    }

    /// Build from a function of the grid indices.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize, usize) -> C64) -> Self {
        assert!(n.is_power_of_two());
        let mut data = Vec::with_capacity(n * n * n);
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    data.push(f(x, y, z));
                }
            }
        }
        Field3 { n, data }
    }

    /// Linear index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        x + self.n * (y + self.n * z)
    }

    /// Maximum |a−b| over the field.
    pub fn max_abs_diff(&self, other: &Field3) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

/// 3-D FFT by three axis passes, each a rayon-shaped loop over lines
/// (sequential under the vendored shim) — the slab/pencil decomposition
/// plane-wave codes use.
pub fn fft3(field: &mut Field3, inverse: bool) {
    let n = field.n;

    // Pass 1: x-lines are contiguous.
    field
        .data
        .par_chunks_mut(n)
        .for_each(|line| fft_inplace(line, inverse));

    // Pass 2: y-lines (stride n within each z-plane).
    let plane = n * n;
    field.data.par_chunks_mut(plane).for_each(|zplane| {
        let mut line = vec![C64::ZERO; n];
        for x in 0..n {
            for y in 0..n {
                line[y] = zplane[x + n * y];
            }
            fft_inplace(&mut line, inverse);
            for y in 0..n {
                zplane[x + n * y] = line[y];
            }
        }
    });

    // Pass 3: z-lines (stride n² across planes). Iterate over (x,y)
    // columns by transposing into a scratch of z-contiguous pencils.
    let data = &mut field.data;
    let mut pencils: Vec<Vec<C64>> = (0..plane)
        .into_par_iter()
        .map(|xy| {
            let mut line = vec![C64::ZERO; n];
            for (z, v) in line.iter_mut().enumerate() {
                *v = data[xy + plane * z];
            }
            fft_inplace(&mut line, inverse);
            line
        })
        .collect();
    for (xy, line) in pencils.drain(..).enumerate() {
        for (z, v) in line.into_iter().enumerate() {
            data[xy + plane * z] = v;
        }
    }
}

/// Flop count of one complex radix-2 FFT of length `n` (the standard
/// `5 n log₂ n` estimate), used by the workload power models.
pub fn fft_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

/// Flop count of a full 3-D transform of edge `n` (3·n² line FFTs).
pub fn fft3_flops(n: usize) -> f64 {
    3.0 * (n * n) as f64 * fft_flops(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_transforms_to_flat_spectrum() {
        let mut data = vec![C64::ZERO; 8];
        data[0] = C64::ONE;
        fft_inplace(&mut data, false);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal);
        for (i, z) in spec.iter().enumerate() {
            let mag = z.abs();
            if i == k || i == n - k {
                assert!((mag - n as f64 / 2.0).abs() < 1e-9, "bin {i}: {mag}");
            } else {
                assert!(mag < 1e-9, "leakage in bin {i}: {mag}");
            }
        }
    }

    #[test]
    fn inverse_is_identity() {
        let n = 256;
        let mut data: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let orig = data.clone();
        fft_inplace(&mut data, false);
        fft_inplace(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 128;
        let signal: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.013).sin()).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn fft_is_linear() {
        let n = 32;
        let a: Vec<C64> = (0..n).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let b: Vec<C64> = (0..n).map(|i| C64::new((i as f64).sqrt(), 1.0)).collect();
        let mut sum: Vec<C64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft_inplace(&mut fa, false);
        fft_inplace(&mut fb, false);
        fft_inplace(&mut sum, false);
        for i in 0..n {
            assert!((sum[i] - (fa[i] + fb[i])).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut data = vec![C64::ZERO; 12];
        fft_inplace(&mut data, false);
    }

    #[test]
    fn fft3_roundtrip() {
        let n = 16;
        let field = Field3::from_fn(n, |x, y, z| {
            C64::new(
                (x as f64 * 0.3 + y as f64 * 0.7).sin(),
                (z as f64 * 0.2).cos(),
            )
        });
        let mut work = field.clone();
        fft3(&mut work, false);
        fft3(&mut work, true);
        assert!(work.max_abs_diff(&field) < 1e-9);
    }

    #[test]
    fn fft3_plane_wave_is_delta_in_k_space() {
        let n = 8;
        let (kx, ky, kz) = (2, 3, 1);
        let field = Field3::from_fn(n, |x, y, z| {
            let phase = 2.0 * std::f64::consts::PI * (kx * x + ky * y + kz * z) as f64 / n as f64;
            C64::cis(phase)
        });
        let mut work = field.clone();
        fft3(&mut work, false);
        let hot = work.idx(kx, ky, kz);
        for (i, v) in work.data.iter().enumerate() {
            if i == hot {
                assert!((v.abs() - (n * n * n) as f64).abs() < 1e-6);
            } else {
                assert!(v.abs() < 1e-6, "bin {i} leaked {}", v.abs());
            }
        }
    }

    #[test]
    fn flop_model_monotone() {
        assert!(fft_flops(1024) > fft_flops(512) * 2.0);
        assert!(fft3_flops(64) > 3.0 * 64.0 * 64.0 * fft_flops(64) * 0.99);
    }
}
