//! # davide-apps
//!
//! Proxy implementations of the four applications of European interest
//! co-designed with D.A.V.I.D.E. (§IV of the paper), as real Rust
//! computational kernels plus workload models that carry their phase
//! structure into the power/scheduling simulations. The kernels are
//! written against rayon's data-parallel API; the vendored `rayon` shim
//! maps every `par_*` call to a sequential iterator, so here they run
//! on one thread.
//!
//! | Paper application | Dominant kernel | Proxy module |
//! |---|---|---|
//! | Quantum ESPRESSO | 3-D FFT + dense linear algebra | [`fft`], [`gemm`] |
//! | NEMO | memory-bound 2-D stencils + halo exchange | [`stencil`] |
//! | SPECFEM3D | spectral-element matvec | [`sem`] |
//! | BQCD | even/odd-preconditioned lattice CG | [`lattice`], [`cg`] |
//!
//! [`workload`] holds the per-application phase models (§IV's co-design
//! view) and [`roofline`] places every kernel on the node's roofline.

#![warn(missing_docs)]

pub mod cg;
pub mod complex;
pub mod distributed;
pub mod fft;
pub mod gemm;
pub mod lattice;
pub mod roofline;
pub mod sem;
pub mod stencil;
pub mod workload;

pub use cg::{conjugate_gradient, CgResult, LinearOp};
pub use complex::C64;
pub use distributed::DistributedRun;
pub use fft::{fft3, fft_inplace, Field3};
pub use gemm::{matmul_blocked, Matrix};
pub use lattice::{EvenOddOp, Lattice4, LatticeOp};
pub use sem::SemMesh;
pub use stencil::OceanGrid;
pub use workload::{AppKind, AppModel, Phase};
