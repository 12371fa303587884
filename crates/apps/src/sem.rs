//! Spectral-element matvec — the SPECFEM3D proxy.
//!
//! §IV-C: SPECFEM3D simulates seismic wave propagation with the
//! spectral-element method; its kernels are per-element dense operations
//! gathered/scattered through shared element-boundary nodes, with
//! neatly-overlapped boundary exchanges. The proxy is a 1-D SEM
//! Laplacian: degree-`p` elements with `p+1` nodes each, adjacent
//! elements sharing their boundary node, assembled on the fly
//! (gather → dense local matvec → scatter-add), which is exactly the
//! data movement SPECFEM performs per time step.

use crate::cg::LinearOp;
use crate::gemm::Matrix;
use rayon::prelude::*;

/// A 1-D spectral-element mesh.
#[derive(Debug, Clone)]
pub struct SemMesh {
    /// Number of elements.
    pub elements: usize,
    /// Polynomial degree per element (nodes per element = p+1).
    pub degree: usize,
    /// Local stiffness matrix, shared by all elements (uniform mesh).
    pub local: Matrix,
    /// Mass shift making the global operator positive-definite.
    pub shift: f64,
}

/// Local stiffness of the reference element for degree `p`, built from
/// second differences on uniform nodes (a valid SPD-after-shift stand-in
/// for the GLL stiffness with the same coupling topology).
fn local_stiffness(p: usize) -> Matrix {
    let n = p + 1;
    let h = 1.0 / p as f64;
    let mut k = Matrix::zeros(n, n);
    // Assemble 1-D linear-FEM stiffness over the p sub-intervals of the
    // element: each sub-interval contributes [[1,-1],[-1,1]]/h.
    for e in 0..p {
        k.data[e * n + e] += 1.0 / h;
        k.data[e * n + e + 1] -= 1.0 / h;
        k.data[(e + 1) * n + e] -= 1.0 / h;
        k.data[(e + 1) * n + e + 1] += 1.0 / h;
    }
    k
}

impl SemMesh {
    /// Uniform mesh of `elements` degree-`degree` elements with mass
    /// shift `shift > 0`.
    pub fn new(elements: usize, degree: usize, shift: f64) -> Self {
        assert!(elements >= 1 && degree >= 1);
        assert!(shift > 0.0, "shift must be positive for SPD");
        SemMesh {
            elements,
            degree,
            local: local_stiffness(degree),
            shift,
        }
    }

    /// Global degrees of freedom: interior nodes plus shared boundaries.
    pub fn dofs(&self) -> usize {
        self.elements * self.degree + 1
    }

    /// Global index of local node `a` of element `e`.
    #[inline]
    pub fn global_index(&self, e: usize, a: usize) -> usize {
        e * self.degree + a
    }

    /// Bytes moved per matvec (gather + scatter of every element node).
    pub fn matvec_bytes(&self) -> f64 {
        let nodes = self.elements * (self.degree + 1);
        (2 * nodes * 8) as f64
    }

    /// Flops per matvec: per-element dense matvec `2(p+1)²` + scatter.
    pub fn matvec_flops(&self) -> f64 {
        let n = self.degree + 1;
        self.elements as f64 * (2.0 * (n * n) as f64 + n as f64)
    }
}

impl LinearOp for SemMesh {
    fn dim(&self) -> usize {
        self.dofs()
    }

    /// `y ← (K + shift·I) x` assembled element by element. Elements fold
    /// into per-thread partial outputs that are reduced at the end (the
    /// lock-free equivalent of SPECFEM's colouring strategy); under the
    /// vendored rayon shim there is one "thread", so one partial.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.degree + 1;
        let dofs = self.dofs();
        let partial: Vec<f64> = (0..self.elements)
            .into_par_iter()
            .fold(
                || vec![0.0; dofs],
                |mut acc, e| {
                    // Gather.
                    let mut xl = vec![0.0; n];
                    for (a, v) in xl.iter_mut().enumerate() {
                        *v = x[self.global_index(e, a)];
                    }
                    // Dense local matvec.
                    for a in 0..n {
                        let s: f64 = self.local.data[a * n..(a + 1) * n]
                            .iter()
                            .zip(&xl)
                            .map(|(m, x)| m * x)
                            .sum();
                        // Scatter-add.
                        acc[self.global_index(e, a)] += s;
                    }
                    acc
                },
            )
            .reduce(
                || vec![0.0; dofs],
                |mut a, b| {
                    for (ai, bi) in a.iter_mut().zip(b) {
                        *ai += bi;
                    }
                    a
                },
            );
        for i in 0..dofs {
            y[i] = partial[i] + self.shift * x[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{conjugate_gradient, dot};
    use davide_core::rng::Rng;

    #[test]
    fn dof_count_shares_boundaries() {
        let mesh = SemMesh::new(10, 4, 1.0);
        // 10 elements × 4 + 1 shared chain = 41 DoFs, not 50.
        assert_eq!(mesh.dofs(), 41);
        assert_eq!(mesh.global_index(0, 4), mesh.global_index(1, 0));
    }

    #[test]
    fn constant_vector_in_stiffness_nullspace() {
        // K·1 = 0, so (K + s·I)·1 = s·1.
        let mesh = SemMesh::new(8, 3, 0.7);
        let x = vec![1.0; mesh.dofs()];
        let mut y = vec![0.0; mesh.dofs()];
        mesh.apply(&x, &mut y);
        for v in &y {
            assert!((v - 0.7).abs() < 1e-12, "v={v}");
        }
    }

    #[test]
    fn operator_is_symmetric_positive_definite() {
        let mesh = SemMesh::new(12, 5, 0.5);
        let n = mesh.dofs();
        let mut rng = Rng::seed_from(4);
        let x: Vec<f64> = (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        mesh.apply(&x, &mut ax);
        mesh.apply(&y, &mut ay);
        assert!((dot(&ax, &y) - dot(&x, &ay)).abs() < 1e-9);
        assert!(dot(&ax, &x) > 0.0);
    }

    #[test]
    fn matches_dense_assembly() {
        // Assemble the global matrix explicitly and compare matvecs.
        let mesh = SemMesh::new(4, 2, 0.3);
        let n = mesh.dofs();
        let nn = mesh.degree + 1;
        let mut dense = Matrix::zeros(n, n);
        for e in 0..mesh.elements {
            for a in 0..nn {
                for b in 0..nn {
                    let (ga, gb) = (mesh.global_index(e, a), mesh.global_index(e, b));
                    dense.data[ga * n + gb] += mesh.local.data[a * nn + b];
                }
            }
        }
        for i in 0..n {
            dense.data[i * n + i] += mesh.shift;
        }
        let mut rng = Rng::seed_from(6);
        let x: Vec<f64> = (0..n).map(|_| rng.uniform_in(-2.0, 2.0)).collect();
        let mut y_op = vec![0.0; n];
        mesh.apply(&x, &mut y_op);
        for (i, &got) in y_op.iter().enumerate() {
            let want: f64 = dense.data[i * n..(i + 1) * n]
                .iter()
                .zip(&x)
                .map(|(m, xv)| m * xv)
                .sum();
            assert!((got - want).abs() < 1e-10, "row {i}");
        }
    }

    #[test]
    fn cg_solves_sem_system() {
        let mesh = SemMesh::new(32, 4, 0.4);
        let n = mesh.dofs();
        let mut rng = Rng::seed_from(8);
        let x_true: Vec<f64> = (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let mut b = vec![0.0; n];
        mesh.apply(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let res = conjugate_gradient(&mesh, &b, &mut x, 1e-11, 10_000);
        assert!(res.converged, "res={}", res.residual_norm);
        for (a, t) in x.iter().zip(&x_true) {
            assert!((a - t).abs() < 1e-6);
        }
    }

    #[test]
    fn cost_models_scale() {
        let small = SemMesh::new(10, 4, 1.0);
        let big = SemMesh::new(100, 4, 1.0);
        assert!((big.matvec_flops() / small.matvec_flops() - 10.0).abs() < 1e-9);
        assert!(big.matvec_bytes() > small.matvec_bytes());
        // SEM intensity beats the 5-point stencil but is below GEMM.
        let intensity = small.matvec_flops() / small.matvec_bytes();
        assert!(intensity > crate::stencil::sweep_intensity());
        assert!(intensity < crate::gemm::gemm_intensity(1024));
    }
}
