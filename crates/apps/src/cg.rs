//! Conjugate-gradient solver — the computational core of BQCD.
//!
//! §IV-D: "The main kernel of BQCD is a conjugate gradient solver with
//! even/odd preconditioning. Within this kernel, a matrix-vector
//! multiplication, where the matrix is sparse, is the dominating
//! operation." The solver is generic over the operator so the lattice
//! (BQCD) and spectral-element (SPECFEM3D) operators share it.

use rayon::prelude::*;

/// A symmetric positive-definite linear operator.
pub trait LinearOp: Sync {
    /// Vector dimension.
    fn dim(&self) -> usize;
    /// `y ← A·x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// Dot product (rayon-shaped; sequential under the vendored shim).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).sum()
}

/// `y ← y + alpha·x` (rayon-shaped; sequential under the vendored shim).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    y.par_iter_mut().zip(x.par_iter()).for_each(|(yi, xi)| {
        *yi += alpha * xi;
    });
}

/// `y ← x + beta·y` (rayon-shaped; sequential under the vendored shim).
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    y.par_iter_mut().zip(x.par_iter()).for_each(|(yi, xi)| {
        *yi = xi + beta * *yi;
    });
}

/// Outcome of a CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult {
    /// Iterations executed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual_norm: f64,
    /// Whether `residual_norm ≤ tol · ‖b‖`.
    pub converged: bool,
    /// Residual-norm history (one entry per iteration).
    pub history: Vec<f64>,
}

/// Solve `A x = b` by conjugate gradients, starting from the provided
/// `x` (commonly zero). `A` must be symmetric positive-definite.
pub fn conjugate_gradient(
    op: &dyn LinearOp,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> CgResult {
    let n = op.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let b_norm = dot(b, b).sqrt();
    if b_norm == 0.0 {
        x.fill(0.0);
        return CgResult {
            iterations: 0,
            residual_norm: 0.0,
            converged: true,
            history: vec![],
        };
    }
    let target = tol * b_norm;

    let mut r = vec![0.0; n];
    op.apply(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rr = dot(&r, &r);
    let mut history = Vec::new();

    for it in 0..max_iter {
        let res = rr.sqrt();
        history.push(res);
        if res <= target {
            return CgResult {
                iterations: it,
                residual_norm: res,
                converged: true,
                history,
            };
        }
        op.apply(&p, &mut ap);
        let pap = dot(&p, &ap);
        debug_assert!(pap > 0.0, "operator not positive-definite (pᵀAp={pap})");
        let alpha = rr / pap;
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        let rr_new = dot(&r, &r);
        let beta = rr_new / rr;
        xpby(&r, beta, &mut p);
        rr = rr_new;
    }
    let res = rr.sqrt();
    history.push(res);
    CgResult {
        iterations: max_iter,
        residual_norm: res,
        converged: res <= target,
        history,
    }
}

/// Flops per CG iteration for an operator with `nnz` nonzeros on an
/// `n`-vector: one matvec (2·nnz) plus ~10·n of vector work.
pub fn cg_iteration_flops(n: usize, nnz: usize) -> f64 {
    2.0 * nnz as f64 + 10.0 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple SPD test operator: tridiagonal (2, -1) Laplacian + shift.
    struct Tridiag {
        n: usize,
        shift: f64,
    }

    impl LinearOp for Tridiag {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            for i in 0..self.n {
                let mut v = (2.0 + self.shift) * x[i];
                if i > 0 {
                    v -= x[i - 1];
                }
                if i + 1 < self.n {
                    v -= x[i + 1];
                }
                y[i] = v;
            }
        }
    }

    #[test]
    fn solves_tridiagonal_system() {
        let op = Tridiag { n: 200, shift: 0.1 };
        let x_true: Vec<f64> = (0..200).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let mut b = vec![0.0; 200];
        op.apply(&x_true, &mut b);
        let mut x = vec![0.0; 200];
        let res = conjugate_gradient(&op, &b, &mut x, 1e-12, 1000);
        assert!(
            res.converged,
            "iters={} res={}",
            res.iterations, res.residual_norm
        );
        for (a, t) in x.iter().zip(&x_true) {
            assert!((a - t).abs() < 1e-8);
        }
    }

    #[test]
    fn residual_history_decreases_overall() {
        let op = Tridiag {
            n: 500,
            shift: 0.05,
        };
        let b = vec![1.0; 500];
        let mut x = vec![0.0; 500];
        let res = conjugate_gradient(&op, &b, &mut x, 1e-10, 2000);
        assert!(res.converged);
        let first = res.history[0];
        let last = *res.history.last().unwrap();
        assert!(last < first * 1e-8);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let op = Tridiag { n: 10, shift: 1.0 };
        let b = vec![0.0; 10];
        let mut x = vec![5.0; 10];
        let res = conjugate_gradient(&op, &b, &mut x, 1e-10, 100);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn better_conditioning_converges_faster() {
        let b = vec![1.0; 300];
        let mut x1 = vec![0.0; 300];
        let mut x2 = vec![0.0; 300];
        let ill = Tridiag {
            n: 300,
            shift: 0.001,
        };
        let well = Tridiag { n: 300, shift: 1.0 };
        let r_ill = conjugate_gradient(&ill, &b, &mut x1, 1e-10, 5000);
        let r_well = conjugate_gradient(&well, &b, &mut x2, 1e-10, 5000);
        assert!(r_well.iterations < r_ill.iterations / 2);
    }

    #[test]
    fn max_iter_respected() {
        let op = Tridiag {
            n: 400,
            shift: 1e-6,
        };
        let b = vec![1.0; 400];
        let mut x = vec![0.0; 400];
        let res = conjugate_gradient(&op, &b, &mut x, 1e-16, 3);
        assert_eq!(res.iterations, 3);
        assert!(!res.converged);
    }

    #[test]
    fn blas1_helpers() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        let mut y = b.clone();
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![6.0, 9.0, 12.0]);
        let mut y2 = vec![1.0, 1.0, 1.0];
        xpby(&a, 3.0, &mut y2);
        assert_eq!(y2, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn flops_model() {
        assert_eq!(cg_iteration_flops(100, 500), 2000.0);
    }
}
