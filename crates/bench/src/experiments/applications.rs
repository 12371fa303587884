//! Application co-design experiments (§IV): E14 QE/FFT/NVLink, E15
//! NEMO/stencil, E16 SPECFEM3D/SEM, E17 BQCD/even-odd CG.

use crate::header;
use davide_apps::cg::conjugate_gradient;
use davide_apps::fft::{fft3, fft3_flops, Field3};
use davide_apps::lattice::{EvenOddOp, Lattice4, LatticeOp};
use davide_apps::roofline::Roofline;
use davide_apps::sem::SemMesh;
use davide_apps::stencil::{halo_bytes_per_sweep, jacobi_sweep, sweep_flops, OceanGrid};
use davide_apps::workload::AppModel;
use davide_apps::C64;
use davide_core::interconnect::{davide_node_link, NodePath};
use davide_core::units::Bytes;
use std::time::Instant;

/// E14 — QE proxy: 3-D FFT scaling and the NVLink vs PCIe data-movement
/// advantage that lets FFTs stay localised in GPU pairs.
pub fn e14() {
    header("e14", "Quantum ESPRESSO proxy: FFT + NVLink");
    println!("3-D FFT (forward+inverse), pencil passes on one thread:");
    println!(
        "{:>8} {:>12} {:>14} {:>12}",
        "grid", "wall time", "sustained", "flops"
    );
    for n in [16usize, 32, 64] {
        let mut field = Field3::from_fn(n, |x, y, z| {
            C64::new((x * 3 + y) as f64 * 0.01, z as f64 * 0.02)
        });
        let t = Instant::now();
        fft3(&mut field, false);
        fft3(&mut field, true);
        let dt = t.elapsed().as_secs_f64();
        let flops = 2.0 * fft3_flops(n);
        println!(
            "{:>7}³ {:>10.2} ms {:>11.2} GF/s {:>12.2e}",
            n,
            dt * 1e3,
            flops / dt / 1e9,
            flops
        );
    }

    // NVLink vs PCIe for the FFT transpose exchange between GPU pairs.
    println!("\nGPU-pair exchange for a 64³ complex field (4 MiB halves):");
    let vol = Bytes((64usize.pow(3) * 16 / 2) as f64);
    let nvlink = davide_node_link(NodePath::GpuToGpuSameSocket);
    let pcie = davide_node_link(NodePath::CpuToGpuPcie);
    let t_nv = nvlink.transfer_time(vol).0;
    let t_pcie = pcie.transfer_time(vol).0;
    println!(
        "  NVLink gang (80 GB/s bidir): {:.1} µs/exchange",
        t_nv * 1e6
    );
    println!(
        "  PCIe gen3 ×16 staging:       {:.1} µs/exchange",
        t_pcie * 1e6
    );
    println!(
        "  NVLink advantage: {:.1}× — why §IV-A localises FFTs in GPU pairs",
        t_pcie / t_nv
    );
    // Strong scaling of the QE model with the comm model.
    let qe = AppModel::quantum_espresso();
    println!("\nQE iteration strong scaling (Amdahl + comm model):");
    for nodes in [1u32, 2, 4, 8, 16] {
        let comm = qe.comm_bytes_per_iteration() / 12.1e9 * (nodes as f64).log2().max(0.0);
        let s = qe.strong_scaling_speedup(nodes, comm);
        println!(
            "  {nodes:>3} nodes → speed-up {s:>5.2}×  efficiency {:>5.1} %",
            100.0 * s / nodes as f64
        );
    }
}

/// E15 — NEMO proxy: flat profile, memory-bound stencil, halo growth.
pub fn e15() {
    header("e15", "NEMO proxy: flat, memory-bound, halo-heavy");
    let nemo = AppModel::nemo();
    println!("routine histogram (paper: no routine above 15–20 %):");
    for p in &nemo.phases {
        let bar = "#".repeat((p.duration_frac * 100.0) as usize);
        println!(
            "  {:<18} {:>5.1} % {}",
            p.name,
            p.duration_frac * 100.0,
            bar
        );
    }
    println!(
        "largest routine: {:.1} % ✓",
        nemo.max_phase_fraction() * 100.0
    );

    // Real stencil sweep throughput and its roofline position.
    let grid = OceanGrid::from_fn(1024, 512, |x, y| ((x * 7 + y * 3) % 13) as f64);
    let t = Instant::now();
    let reps = 50;
    for _ in 0..reps {
        let _ = jacobi_sweep(&grid, 0.8);
    }
    let dt = t.elapsed().as_secs_f64() / reps as f64;
    let flops = sweep_flops(1024, 512);
    let gf = flops / dt / 1e9;
    let bytes = (1024 * 512 * 6 * 8) as f64;
    println!(
        "\nstencil sweep 1024×512: {:.2} ms → {:.2} GF/s, {:.1} GB/s effective",
        dt * 1e3,
        gf,
        bytes / dt / 1e9
    );
    let intensity = davide_apps::stencil::sweep_intensity();
    let p100 = Roofline::p100();
    println!(
        "arithmetic intensity {:.3} flops/byte → P100-attainable {:.0} GF/s of {:.0} GF/s peak ({:.1} %): memory-bound ✓",
        intensity,
        p100.attainable(intensity).0,
        p100.peak.0,
        100.0 * p100.attainable(intensity).0 / p100.peak.0
    );

    println!("\nhalo traffic per sweep (1024-wide rows, f64):");
    for ranks in [1usize, 2, 4, 8, 16, 32] {
        println!(
            "  {:>3} ranks → {:>8.1} kB/sweep",
            ranks,
            halo_bytes_per_sweep(1024, ranks) / 1e3
        );
    }
}

/// E16 — SPECFEM3D proxy: SEM solve cost vs work per rank.
pub fn e16() {
    header("e16", "SPECFEM3D proxy: spectral elements");
    println!(
        "{:>10} {:>8} {:>10} {:>12} {:>12} {:>10}",
        "elements", "degree", "DoFs", "CG iters", "wall time", "GF/s"
    );
    for (elems, degree) in [(64usize, 4usize), (256, 4), (256, 8), (1024, 4)] {
        let mesh = SemMesh::new(elems, degree, 0.4);
        // A localised "source" excitation (a seismic point source, not a
        // constant field — the constant is an eigenvector and trivialises CG).
        let b: Vec<f64> = (0..mesh.dofs())
            .map(|i| ((i * 131) % 17) as f64 - 8.0)
            .collect();
        let mut x = vec![0.0; mesh.dofs()];
        let t = Instant::now();
        let res = conjugate_gradient(&mesh, &b, &mut x, 1e-10, 20_000);
        let dt = t.elapsed().as_secs_f64();
        let flops = res.iterations as f64 * mesh.matvec_flops();
        println!(
            "{:>10} {:>8} {:>10} {:>12} {:>10.1} ms {:>10.2}",
            elems,
            degree,
            mesh.dofs(),
            res.iterations,
            dt * 1e3,
            flops / dt / 1e9
        );
        assert!(res.converged);
    }
    // Work-per-GPU argument of §IV-C: overlap hides messaging while the
    // per-rank element count is large.
    println!("\nwork/communication ratio vs elements per rank (boundary = 1 node):");
    for elems in [64usize, 256, 1024, 4096] {
        let mesh = SemMesh::new(elems, 4, 0.4);
        let compute = mesh.matvec_flops();
        let boundary_bytes = 8.0 * 2.0; // one shared DoF per side
        let ratio = compute / boundary_bytes;
        println!(
            "  {:>5} elements: {:>10.0} flops per boundary byte {}",
            elems,
            ratio,
            if elems >= 256 {
                "(overlap hides comm)"
            } else {
                ""
            }
        );
    }
    println!("\n§IV-C: \"performance is not affected by message passing overhead as");
    println!("long as you have sufficient amount of work per GPU\" — ratio grows linearly.");
}

/// E17 — BQCD proxy: even/odd preconditioning and P2P communication.
pub fn e17() {
    header("e17", "BQCD proxy: even/odd-preconditioned lattice CG");
    println!(
        "{:>10} {:>10} | {:>12} {:>12} | {:>12} {:>12}",
        "lattice", "sites", "full iters", "full ms", "e/o iters", "e/o ms"
    );
    for dims in [[4usize, 4, 4, 4], [6, 6, 6, 6], [8, 8, 8, 8], [8, 8, 8, 16]] {
        let d = [dims[0], dims[1], dims[2], dims[3]];
        let full = LatticeOp::new(Lattice4::new(d), 0.25);
        let vol = full.lattice.volume();
        let rhs: Vec<f64> = (0..vol).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();

        let mut xf = vec![0.0; vol];
        let t = Instant::now();
        let rf = conjugate_gradient(&full, &rhs, &mut xf, 1e-10, 100_000);
        let t_full = t.elapsed().as_secs_f64();

        let eo = EvenOddOp::new(LatticeOp::new(Lattice4::new(d), 0.25));
        let be = eo.reduce_rhs(&rhs);
        let mut xe = vec![0.0; vol / 2];
        let t = Instant::now();
        let re = conjugate_gradient(&eo, &be, &mut xe, 1e-10, 100_000);
        let t_eo = t.elapsed().as_secs_f64();

        println!(
            "{:>2}×{}×{}×{:<3} {:>8} | {:>12} {:>10.1}ms | {:>12} {:>10.1}ms",
            d[0],
            d[1],
            d[2],
            d[3],
            vol,
            rf.iterations,
            t_full * 1e3,
            re.iterations,
            t_eo * 1e3
        );
        assert!(rf.converged && re.converged);
    }
    println!("\neven/odd halves the system and cuts iterations — the standard LQCD");
    println!("preconditioning BQCD applies before its CG (§IV-D).");

    // P2P (NVLink) vs staged (PCIe through host) boundary exchange.
    let boundary = Bytes((8usize.pow(3) * 8 * 8) as f64); // one face, 8 dirs
    let nv = davide_node_link(NodePath::GpuToGpuSameSocket);
    let pcie = davide_node_link(NodePath::CpuToGpuPcie);
    let t_p2p = nv.transfer_time(boundary).0;
    let t_staged = 2.0 * pcie.transfer_time(boundary).0; // GPU→host→GPU
    println!(
        "\nboundary exchange ({:.0} kB): P2P NVLink {:.1} µs vs host-staged PCIe {:.1} µs ({:.1}×)",
        boundary.0 / 1e3,
        t_p2p * 1e6,
        t_staged * 1e6,
        t_staged / t_p2p
    );
    println!("QUDA's peer-to-peer \"removes MPI overhead … scaling within dense nodes");
    println!("nearly perfect\" (§IV-D) — the model shows where that headroom comes from.");
}
