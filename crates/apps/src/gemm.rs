//! Blocked dense matrix multiply.
//!
//! Quantum ESPRESSO leans on BLAS/LAPACK (§IV-A); the GEMM kernel is the
//! compute-bound pole of the roofline and the "dense linear algebra"
//! phase of the QE workload model.

use rayon::prelude::*;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major storage.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Max-norm difference.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Reference triple-loop multiply (for validation).
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    let mut c = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for k in 0..a.cols {
            let aik = a.get(i, k);
            for j in 0..b.cols {
                c.data[i * c.cols + j] += aik * b.get(k, j);
            }
        }
    }
    c
}

/// Cache-blocked multiply over row panels, written against rayon's API
/// (sequential under the vendored shim).
pub fn matmul_blocked(a: &Matrix, b: &Matrix, block: usize) -> Matrix {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert!(block > 0);
    let (m, k_dim, n) = (a.rows, a.cols, b.cols);
    let mut c = Matrix::zeros(m, n);
    c.data
        .par_chunks_mut(block.min(m).max(1) * n)
        .enumerate()
        .for_each(|(panel, cpanel)| {
            let i0 = panel * block;
            let i1 = (i0 + block).min(m);
            for kk in (0..k_dim).step_by(block) {
                let k1 = (kk + block).min(k_dim);
                for jj in (0..n).step_by(block) {
                    let j1 = (jj + block).min(n);
                    for i in i0..i1 {
                        for k in kk..k1 {
                            let aik = a.data[i * k_dim + k];
                            let brow = &b.data[k * n..k * n + n];
                            let crow = &mut cpanel[(i - i0) * n..(i - i0) * n + n];
                            for j in jj..j1 {
                                crow[j] += aik * brow[j];
                            }
                        }
                    }
                }
            }
        });
    c
}

/// Flop count of an `m×k · k×n` multiply (`2 m k n`).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

/// Arithmetic intensity of a square-`n` GEMM in flops/byte (each of the
/// three matrices moved once, lower bound).
pub fn gemm_intensity(n: usize) -> f64 {
    gemm_flops(n, n, n) / (3.0 * (n * n) as f64 * 8.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use davide_core::rng::Rng;

    fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.uniform_in(-1.0, 1.0))
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from(1);
        let a = random_matrix(17, 17, &mut rng);
        let i = Matrix::identity(17);
        assert!(matmul_naive(&a, &i).max_abs_diff(&a) < 1e-12);
        assert!(matmul_blocked(&i, &a, 8).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn blocked_matches_naive_square() {
        let mut rng = Rng::seed_from(2);
        let a = random_matrix(64, 64, &mut rng);
        let b = random_matrix(64, 64, &mut rng);
        let want = matmul_naive(&a, &b);
        for block in [1, 7, 16, 64, 100] {
            let got = matmul_blocked(&a, &b, block);
            assert!(got.max_abs_diff(&want) < 1e-10, "block={block} diverged");
        }
    }

    #[test]
    fn blocked_matches_naive_rectangular() {
        let mut rng = Rng::seed_from(3);
        let a = random_matrix(33, 47, &mut rng);
        let b = random_matrix(47, 21, &mut rng);
        let want = matmul_naive(&a, &b);
        let got = matmul_blocked(&a, &b, 8);
        assert!(got.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 3);
        matmul_naive(&a, &b);
    }

    #[test]
    fn flops_and_intensity() {
        assert_eq!(gemm_flops(10, 20, 30), 12_000.0);
        // GEMM intensity grows linearly with n: compute-bound for large n.
        assert!(gemm_intensity(1024) > gemm_intensity(128) * 7.9);
        // n/12 flops per byte: n=96 → 8 flops/byte.
        assert!((gemm_intensity(96) - 8.0).abs() < 1e-12);
    }
}
