//! # davide
//!
//! An energy-aware petaflops-class HPC cluster stack in Rust: a
//! reproduction of the D.A.V.I.D.E. supercomputer design (Abu Ahmad et
//! al., *Design of an Energy Aware peta-flops Class High Performance
//! Cluster Based on Power Architecture*, 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — hardware models (POWER8+, P100, NVLink/EDR, OpenRack
//!   PSUs, hybrid liquid cooling), the 45-node pilot cluster, DVFS power
//!   capping, and the simulation substrate (units, time, RNG, power traces);
//! * [`mqtt`] — the in-process MQTT 3.1.1-style broker used as the
//!   energy gateway's M2M transport;
//! * [`telemetry`] — the energy & power gateway: sensors, the BBB's
//!   800 kS/s→50 kS/s ADC/decimation chain, PTP/NTP clock discipline,
//!   and the HDEEM/PowerInsight/ArduPower/IPMI baselines;
//! * [`apps`] — proxy kernels and workload models for Quantum ESPRESSO,
//!   NEMO, SPECFEM3D and BQCD;
//! * [`predictor`] — submission-time job power predictors (ridge, k-NN,
//!   regression tree) with cross-validation;
//! * [`sched`] — the SLURM-like power-aware batch layer: FCFS / EASY
//!   backfill / proactive power-capped dispatch, reactive throttling,
//!   energy accounting.
//!
//! ## Quickstart
//!
//! ```
//! use davide::core::{Cluster, NodeLoad};
//!
//! let cluster = Cluster::davide();
//! assert_eq!(cluster.node_count(), 45);
//! // ~1 PFlops under 100 kW — the paper's headline envelope.
//! assert!(cluster.peak().pflops() > 0.9);
//! assert!(cluster.facility_power(NodeLoad::FULL).kw() < 100.0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/experiments.rs` for the harness regenerating
//! every quantitative claim of the paper (EXPERIMENTS.md).

pub use davide_apps as apps;
pub use davide_core as core;
pub use davide_mqtt as mqtt;
pub use davide_predictor as predictor;
pub use davide_sched as sched;
pub use davide_telemetry as telemetry;
