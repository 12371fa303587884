//! # davide-core
//!
//! Hardware and system models for the D.A.V.I.D.E. energy-aware
//! petaflops-class cluster (Abu Ahmad et al., 2017), plus the simulation
//! substrate the rest of the stack builds on.
//!
//! The crate is organised bottom-up:
//!
//! * foundations — [`units`], [`time`], [`rng`], [`power`],
//!   [`error`];
//! * silicon models — [`dvfs`], [`cpu`] (POWER8+), [`gpu`] (Tesla P100),
//!   [`memory`] (Centaur-buffered DRAM), [`interconnect`] (NVLink, PCIe,
//!   EDR fat-tree);
//! * integration — [`psu`] (OpenRack power bank vs per-server supplies),
//!   [`cooling`] (direct hot-water liquid + air hybrid, thermal RC,
//!   throttling), [`node`] (the 2×POWER8 + 4×P100 Garrison derivative),
//!   [`rack`], [`cluster`] (the 45-node, ~1 PFlops, <100 kW pilot);
//! * control — [`capping`] (PI DVFS capping, RAPL-style window limits),
//!   [`budget`] (site→node power sharing, \[34\]), [`burnin`] (the E4
//!   acceptance suite of §I);
//! * context — [`efficiency`] (Top500/Green500 reference data).
//!
//! Everything is deterministic: stochastic components take an explicit
//! [`rng::Rng`] so simulations reproduce bit-for-bit.

#![warn(missing_docs)]

pub mod budget;
pub mod burnin;
pub mod capping;
pub mod cluster;
pub mod cooling;
pub mod cpu;
pub mod dvfs;
pub mod efficiency;
pub mod error;
pub mod gpu;
pub mod interconnect;
pub mod memory;
pub mod node;
pub mod power;
pub mod psu;
pub mod rack;
pub mod rng;
pub mod time;
pub mod units;

pub use cluster::Cluster;
pub use error::{CoreError, Result};
pub use node::{ComputeNode, JobShape, NodeLoad};
pub use power::PowerTrace;
pub use time::{SimDuration, SimTime};
pub use units::{Celsius, GBps, Gflops, Hertz, Joules, Seconds, Watts};
