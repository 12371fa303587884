//! Stencil kernels with halo exchange — the NEMO proxy.
//!
//! §IV-B: NEMO is "essentially a stencil-based code with limited
//! parallelism, low computational intensity and frequent halo exchanges",
//! parallelised by regular latitude/longitude domain decomposition. The
//! kernel here is a 5-point Laplacian relaxation over a 2-D ocean grid
//! with land masking, decomposed into latitude bands per rank, with the
//! halo traffic counted for the communication model.

use rayon::prelude::*;

/// A 2-D grid with a land/ocean mask (row-major, `ny` rows × `nx` cols).
#[derive(Debug, Clone, PartialEq)]
pub struct OceanGrid {
    /// Columns (longitude points).
    pub nx: usize,
    /// Rows (latitude points).
    pub ny: usize,
    /// Field values (e.g. sea-surface height).
    pub field: Vec<f64>,
    /// True where the cell is ocean (land cells hold their value).
    pub mask: Vec<bool>,
}

impl OceanGrid {
    /// All-ocean grid initialised from `f(x, y)`.
    pub fn from_fn(nx: usize, ny: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut field = Vec::with_capacity(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                field.push(f(x, y));
            }
        }
        OceanGrid {
            nx,
            ny,
            field,
            mask: vec![true; nx * ny],
        }
    }

    /// Carve a rectangular continent (land) into the mask.
    pub fn add_land(&mut self, x0: usize, y0: usize, x1: usize, y1: usize) {
        for y in y0..y1.min(self.ny) {
            for x in x0..x1.min(self.nx) {
                self.mask[y * self.nx + x] = false;
            }
        }
    }

    /// Linear index.
    #[inline]
    pub fn idx(&self, x: usize, y: usize) -> usize {
        y * self.nx + x
    }

    /// Mean over ocean cells.
    pub fn ocean_mean(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (v, m) in self.field.iter().zip(&self.mask) {
            if *m {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// One 5-point masked Jacobi relaxation sweep with coefficient `alpha`
/// (`0 < alpha ≤ 1`); rows are processed as latitude bands in a
/// rayon-shaped loop (sequential under the vendored shim).
/// Boundary rows/columns are treated as zero-flux (copied neighbours).
pub fn jacobi_sweep(grid: &OceanGrid, alpha: f64) -> Vec<f64> {
    let (nx, ny) = (grid.nx, grid.ny);
    let src = &grid.field;
    let mask = &grid.mask;
    let mut next = vec![0.0; nx * ny];
    next.par_chunks_mut(nx).enumerate().for_each(|(y, row)| {
        for (x, out) in row.iter_mut().enumerate() {
            let i = y * nx + x;
            if !mask[i] {
                *out = src[i];
                continue;
            }
            let up = if y > 0 { src[i - nx] } else { src[i] };
            let down = if y + 1 < ny { src[i + nx] } else { src[i] };
            let left = if x > 0 { src[i - 1] } else { src[i] };
            let right = if x + 1 < nx { src[i + 1] } else { src[i] };
            let lap = up + down + left + right - 4.0 * src[i];
            *out = src[i] + alpha * 0.25 * lap;
        }
    });
    next
}

/// Run `iters` sweeps in place; returns the final max|Δ| per sweep
/// (convergence monitor).
pub fn relax(grid: &mut OceanGrid, alpha: f64, iters: usize) -> f64 {
    let mut last_delta = 0.0;
    for _ in 0..iters {
        let next = jacobi_sweep(grid, alpha);
        last_delta = grid
            .field
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        grid.field = next;
    }
    last_delta
}

/// Halo bytes exchanged per sweep for a latitude-band decomposition over
/// `ranks` ranks: each interior boundary moves two `nx` rows (up+down)
/// of f64 in each direction.
pub fn halo_bytes_per_sweep(nx: usize, ranks: usize) -> f64 {
    if ranks <= 1 {
        return 0.0;
    }
    let boundaries = (ranks - 1) as f64;
    boundaries * 2.0 * 2.0 * nx as f64 * 8.0
}

/// Flops of one masked 5-point sweep (≈ 7 per ocean cell).
pub fn sweep_flops(nx: usize, ny: usize) -> f64 {
    7.0 * (nx * ny) as f64
}

/// Arithmetic intensity of the sweep: ~7 flops per ~6 f64 moved —
/// firmly memory-bound (the §IV-B observation).
pub fn sweep_intensity() -> f64 {
    7.0 / (6.0 * 8.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_field_is_fixed_point() {
        let mut g = OceanGrid::from_fn(32, 16, |_, _| 3.5);
        let delta = relax(&mut g, 0.8, 5);
        assert!(delta < 1e-15);
        for v in &g.field {
            assert_eq!(*v, 3.5);
        }
    }

    #[test]
    fn relaxation_smooths_toward_mean() {
        let mut g = OceanGrid::from_fn(64, 64, |x, y| if (x + y) % 2 == 0 { 1.0 } else { 0.0 });
        let before_spread: f64 = g.field.iter().map(|v| (v - 0.5).abs()).fold(0.0, f64::max);
        relax(&mut g, 0.9, 50);
        let after_spread: f64 = g.field.iter().map(|v| (v - 0.5).abs()).fold(0.0, f64::max);
        assert!(after_spread < before_spread * 0.05, "{after_spread}");
    }

    #[test]
    fn mean_is_conserved_on_interior() {
        // Zero-flux boundaries conserve the ocean mean of an all-ocean
        // grid (up to roundoff).
        let mut g = OceanGrid::from_fn(48, 48, |x, y| (x * 7 + y * 13) as f64 % 10.0);
        let before = g.ocean_mean();
        relax(&mut g, 0.7, 25);
        let after = g.ocean_mean();
        assert!((before - after).abs() < 1e-9, "{before} vs {after}");
    }

    #[test]
    fn land_cells_hold_their_values() {
        let mut g = OceanGrid::from_fn(32, 32, |_, _| 0.0);
        g.add_land(10, 10, 14, 14);
        for y in 10..14 {
            for x in 10..14 {
                let i = g.idx(x, y);
                g.field[i] = 9.0;
            }
        }
        relax(&mut g, 0.8, 10);
        assert_eq!(g.field[g.idx(11, 11)], 9.0, "land unchanged");
        // Ocean next to the coast feels the boundary.
        assert!(g.field[g.idx(9, 11)] > 0.0, "heat leaks into the ocean");
    }

    #[test]
    fn halo_traffic_model() {
        assert_eq!(halo_bytes_per_sweep(1000, 1), 0.0);
        // 4 ranks → 3 boundaries × 2 rows × 2 dirs × 8 kB = 96 kB... with
        // nx=1000: 3 * 2*2*1000*8 = 96 000 B.
        assert_eq!(halo_bytes_per_sweep(1000, 4), 96_000.0);
        // Strong scaling: halo grows with ranks while work is constant.
        assert!(halo_bytes_per_sweep(1000, 16) > halo_bytes_per_sweep(1000, 4));
    }

    #[test]
    fn stencil_is_memory_bound() {
        // Intensity ≈ 0.15 flops/byte: far below any CPU/GPU ridge point.
        assert!(sweep_intensity() < 0.2);
        assert!(sweep_flops(100, 100) == 70_000.0);
    }
}
